//! Parallel-engine determinism: every sweep must render a byte-identical
//! CSV at any worker count, because each trial derives its RNG from
//! `(seed, trial_index)` rather than from a shared sequential stream.
//!
//! These tests pin the thread count through `par::set_threads`, which
//! overrides both the `MMX_THREADS` environment variable and the
//! detected CPU count.

use mmx_bench::par;

/// The worker-count override is process-global, so tests that flip it
/// must not interleave.
static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Renders a sweep's CSV at 1 worker and again at `threads`, asserting
/// byte equality. Restores the override afterwards so tests in the same
/// process do not leak configuration into each other.
fn assert_csv_identical(threads: usize, label: &str, render: impl Fn() -> String) {
    // A failed test poisons the lock; the others still run.
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_threads(1);
    let serial = render();
    par::set_threads(threads);
    let parallel = render();
    par::set_threads(0);
    assert_eq!(
        serial, parallel,
        "{label}: CSV differs between 1 and {threads} workers"
    );
}

#[test]
fn fig11_ber_cdf_is_thread_count_invariant() {
    assert_csv_identical(4, "fig11", || {
        mmx_bench::fig11_ber_cdf::table(&mmx_bench::fig11_ber_cdf::samples(40, 7)).to_csv()
    });
}

#[test]
fn fig12_range_is_thread_count_invariant() {
    assert_csv_identical(4, "fig12", || {
        mmx_bench::fig12_range::table(&mmx_bench::fig12_range::sweep()).to_csv()
    });
}

#[test]
fn fig13_multinode_is_thread_count_invariant() {
    assert_csv_identical(4, "fig13", || {
        mmx_bench::fig13_multinode::table(&mmx_bench::fig13_multinode::sweep(2, 5)).to_csv()
    });
}

#[test]
fn ext_ber_validation_is_thread_count_invariant() {
    assert_csv_identical(4, "ext_ber", || {
        let pts = mmx_bench::ext_ber_validation::ask_sweep(4_000, 9);
        mmx_bench::ext_ber_validation::table("ASK", &pts).to_csv()
    });
}

#[test]
fn obs_trace_bytes_are_thread_count_invariant() {
    // The acceptance bar for the observability layer: the fig13 fault
    // grid's concatenated JSONL trace is byte-identical at 1 vs 8
    // workers (a subset of the grid keeps the test under budget — the
    // full grid runs in the obs_overhead CI gate).
    let sims = mmx_bench::obs_trace::fig13_fault_scenarios(1, 11);
    let sims = &sims[..3];
    assert_csv_identical(8, "obs_trace", || {
        mmx_bench::obs_trace::run_traced(sims, par::threads()).jsonl
    });
}

#[test]
fn odd_worker_counts_agree_too() {
    // 3 workers exercises uneven work distribution over the 18 distances.
    assert_csv_identical(3, "fig12@3", || {
        mmx_bench::fig12_range::table(&mmx_bench::fig12_range::sweep()).to_csv()
    });
}
