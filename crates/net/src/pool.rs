//! Thread-count resolution and the one fan-out across independent runs.
//!
//! Parallelism lives across simulations only (DESIGN.md §9): one run's
//! event loop stays on one thread, and a batch of independent runs —
//! [`crate::sim::run_batch_map`]'s scenarios, or the bench harness's
//! sweep points — spreads over workers through [`run_indexed`]. Each
//! run is a pure function of its index, and results come back in index
//! order, so the output is bit-identical at any worker count.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Maps `f` over `0..n` on up to `threads` workers, each taking the
/// next unclaimed index, and returns the results in index order — so
/// the output never depends on scheduling. `threads <= 1` (or `n <= 1`)
/// runs inline and spawns nothing.
pub fn run_indexed<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_index_order() {
        let want: Vec<u64> = (0..100u64).map(|x| x * x).collect();
        for threads in [0, 1, 2, 4, 8] {
            let got = run_indexed(100, threads, |i| (i as u64) * (i as u64));
            assert_eq!(got, want, "threads={threads}");
        }
        // More workers than indices: one worker per index.
        assert_eq!(run_indexed(3, 8, |i| i + 10), vec![10, 11, 12]);
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn resolve_positive_request_verbatim() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
