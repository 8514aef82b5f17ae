//! Deterministic parallel execution for Monte-Carlo sweeps.
//!
//! Every sweep in this crate is a map over independent grid points or
//! trials. This module fans that map across threads while keeping the
//! output *bit-identical at any thread count, including 1*: each index
//! derives its own RNG as `StdRng::seed_from_u64(splitmix64(seed, i))`,
//! so no draw ever depends on which thread ran which index or in what
//! order, and results are reassembled in index order.
//!
//! Thread count resolution: [`set_threads`] override, then the
//! `MMX_THREADS` environment variable, then the machine's available
//! parallelism.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use mmx_net::faults::splitmix64;

/// The RNG a single trial receives: seeded from the sweep seed and the
/// trial index only.
pub fn trial_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed, index as u64))
}

/// Process-wide thread-count override (0 = unset, which falls back to
/// [`mmx_net::pool::resolve_threads`]).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the number of worker threads (0 clears the override). The
/// override takes precedence over `MMX_THREADS` and auto-detection;
/// outputs do not depend on it.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The number of worker threads sweeps will use.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    mmx_net::pool::resolve_threads(forced)
}

/// Maps `f` over `0..n` across worker threads, returning results in
/// index order. `f` must derive any randomness it needs from the index
/// (see [`trial_rng`]) so the output is independent of scheduling.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, T)>();
    let f = &f;
    let next = &next;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The receiver outlives the scope; send cannot fail.
                if tx.send((i, f(i))).is_err() {
                    unreachable!("result channel closed while workers running");
                }
            });
        }
    });
    drop(tx);
    let mut indexed: Vec<(usize, T)> = rx.iter().collect();
    debug_assert_eq!(indexed.len(), n);
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// Maps `f` over `n` Monte-Carlo trials, handing each one its derived
/// RNG. Results come back in trial order regardless of thread count.
pub fn run_trials<T, F>(seed: u64, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut StdRng) -> T + Sync,
{
    run_indexed(n, |i| {
        let mut rng = trial_rng(seed, i);
        f(i, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Runs the same sweep at several forced thread counts, restoring
    /// the override afterwards.
    fn at_threads<T: PartialEq + std::fmt::Debug>(counts: &[usize], f: impl Fn() -> T) {
        let baseline = {
            set_threads(1);
            f()
        };
        for &c in counts {
            set_threads(c);
            assert_eq!(f(), baseline, "thread count {c} changed the output");
        }
        set_threads(0);
    }

    #[test]
    fn splitmix_spreads_indices() {
        let a = splitmix64(7, 0);
        let b = splitmix64(7, 1);
        let c = splitmix64(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Same inputs, same output.
        assert_eq!(a, splitmix64(7, 0));
    }

    #[test]
    fn run_indexed_preserves_order() {
        at_threads(&[2, 4, 7], || run_indexed(100, |i| i * i));
    }

    #[test]
    fn run_trials_is_thread_count_invariant() {
        at_threads(&[2, 4], || {
            run_trials(42, 64, |i, rng| (i, rng.gen::<f64>(), rng.gen::<u64>()))
        });
    }

    #[test]
    fn trial_rngs_are_independent_of_history() {
        // Drawing a different amount in trial 0 must not shift trial 1.
        let mut a = trial_rng(5, 1);
        let _ = trial_rng(5, 0).gen::<f64>();
        let mut b = trial_rng(5, 1);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(run_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, |i| i + 10), vec![10]);
    }
}
