//! A deterministic intra-simulation worker pool.
//!
//! The gather→commit event loop that [`crate::sim`] and
//! [`crate::multi_ap::sim`] share fans per-node *gather*
//! work (planned channel, fading, SINR, BER, delivery draw) out over
//! worker threads while the main thread keeps exclusive ownership of all
//! shared state for the *commit* phase. The pool is built once per run
//! (threads live inside one `std::thread::scope`), and each batch is a
//! single [`Dispatch::run`] call:
//!
//! * tasks are tagged with their batch slot, fanned out over an MPMC
//!   channel, and results re-assembled **by slot** — so the caller sees
//!   results in task order no matter which worker finished first;
//! * the main thread work-steals from the same task channel instead of
//!   blocking, so a pool of `t` threads really applies `t` cores;
//! * each task is a pure function of its payload (per-node context +
//!   frozen batch snapshot), so the result vector is bit-identical at
//!   any thread count — `threads == 1` simply runs inline with zero
//!   channel traffic.

use crossbeam::channel::{unbounded, Receiver, Sender};

/// Resolves a thread-count request: `0` means auto — the `MMX_THREADS`
/// environment variable when set, otherwise the machine's available
/// parallelism. Matches the convention of `mmx_bench::par` and
/// [`crate::sim::run_batch`].
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var("MMX_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Handle the event loop uses to fan one batch out; see [`scoped`].
pub enum Dispatch<'a, T, R> {
    /// Single-threaded: run every task inline, in slot order.
    Inline(&'a (dyn Fn(T) -> R + Sync)),
    /// Pooled: slot-tagged tasks over MPMC channels.
    Pool {
        /// The shared work function.
        work: &'a (dyn Fn(T) -> R + Sync),
        /// Task fan-out (main thread sends, everyone receives).
        task_tx: Sender<(usize, T)>,
        /// The main thread's work-stealing end of the task channel.
        task_rx: Receiver<(usize, T)>,
        /// Result fan-in.
        res_rx: Receiver<(usize, R)>,
    },
}

impl<T: Send, R: Send> Dispatch<'_, T, R> {
    /// Runs one batch: every task through the work function, results
    /// into `out` by slot (`out[i]` holds task `i`'s result). The slot
    /// assignment — not completion order — defines the output order, so
    /// `out` is bit-identical at any thread count.
    pub fn run(&mut self, tasks: Vec<T>, out: &mut Vec<Option<R>>) {
        out.clear();
        match self {
            Dispatch::Inline(work) => {
                out.extend(tasks.into_iter().map(|t| Some(work(t))));
            }
            Dispatch::Pool {
                work,
                task_tx,
                task_rx,
                res_rx,
            } => {
                let total = tasks.len();
                out.resize_with(total, || None);
                for (slot, t) in tasks.into_iter().enumerate() {
                    if task_tx.send((slot, t)).is_err() {
                        unreachable!("pool workers outlive the dispatcher");
                    }
                }
                let mut done = 0;
                while done < total {
                    // Prefer stealing a pending task over waiting on a
                    // result: the main thread is a full-rank worker.
                    if let Ok((slot, t)) = task_rx.try_recv() {
                        out[slot] = Some(work(t));
                        done += 1;
                        continue;
                    }
                    // No pending tasks: every remaining slot is being
                    // computed by a worker, so a result must arrive.
                    let (slot, r) = res_rx.recv().expect("pool workers are alive");
                    out[slot] = Some(r);
                    done += 1;
                }
            }
        }
    }
}

/// Runs `body` with a [`Dispatch`] backed by `threads.max(1) - 1`
/// workers (plus the work-stealing main thread) executing `work`.
///
/// The workers live exactly as long as `body`: they are scoped threads,
/// so `work` may borrow from the caller's stack (the simulator's
/// immutable per-run plan). `threads <= 1` spawns nothing and
/// dispatches inline.
pub fn scoped<T, R, W, B, O>(threads: usize, work: W, body: B) -> O
where
    T: Send,
    R: Send,
    W: Fn(T) -> R + Sync,
    B: FnOnce(&mut Dispatch<'_, T, R>) -> O,
{
    if threads <= 1 {
        return body(&mut Dispatch::Inline(&work));
    }
    std::thread::scope(|s| {
        let (task_tx, task_rx) = unbounded::<(usize, T)>();
        let (res_tx, res_rx) = unbounded::<(usize, R)>();
        for _ in 0..threads - 1 {
            let rx = task_rx.clone();
            let tx = res_tx.clone();
            let work = &work;
            s.spawn(move || {
                for (slot, task) in rx.iter() {
                    if tx.send((slot, work(task))).is_err() {
                        break;
                    }
                }
            });
        }
        let out = body(&mut Dispatch::Pool {
            work: &work,
            task_tx,
            task_rx,
            res_rx,
        });
        // Dropping the Dispatch (and with it the last task sender)
        // disconnects the task channel; workers drain and exit before
        // the scope closes.
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_batch(threads: usize, n: usize) -> Vec<u64> {
        scoped(
            threads,
            |x: u64| x * x,
            |disp| {
                let mut out = Vec::new();
                disp.run((0..n as u64).collect(), &mut out);
                out.into_iter().map(Option::unwrap).collect()
            },
        )
    }

    #[test]
    fn results_land_in_slot_order() {
        let want: Vec<u64> = (0..100u64).map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(square_batch(threads, 100), want, "threads={threads}");
        }
    }

    #[test]
    fn many_small_batches_reuse_the_pool() {
        let got = scoped(
            4,
            |x: u64| x + 1,
            |disp| {
                let mut total = 0u64;
                let mut out = Vec::new();
                for batch in 0..50u64 {
                    disp.run((0..batch % 7).collect(), &mut out);
                    total += out.iter().map(|r| r.unwrap()).sum::<u64>();
                }
                total
            },
        );
        let want: u64 = (0..50u64)
            .map(|b| (0..b % 7).map(|x| x + 1).sum::<u64>())
            .sum();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_batches_are_fine() {
        let out = scoped(
            3,
            |x: u64| x,
            |disp| {
                let mut out = Vec::new();
                disp.run(Vec::new(), &mut out);
                out.len()
            },
        );
        assert_eq!(out, 0);
    }

    #[test]
    fn zero_threads_means_inline() {
        assert_eq!(square_batch(0, 10), square_batch(1, 10));
    }

    #[test]
    fn resolve_positive_request_verbatim() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
