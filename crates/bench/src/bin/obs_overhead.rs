//! CI gate: measures the wall-clock overhead of enabled observability
//! against the disabled-recorder path on the fig13 fault grid, and
//! fails (exit 1) if it exceeds 5%.
//!
//! Also writes `results/trace_fig13.jsonl` from the enabled run so a CI
//! job can chain `obs_report` directly after this gate.
//!
//! Run with: `cargo run --release -p mmx-bench --bin obs_overhead`

use mmx_bench::{obs_trace, par};
use std::time::Instant;

fn main() {
    const LIMIT_PCT: f64 = 5.0;
    const PASSES: usize = 15;
    // Back-to-back runs of the batch per side of a pass. One run takes
    // ~6 ms at 2 workers on a 2-core Xeon, short enough for host jitter
    // alone to move a one-run ratio by several percent; twelve put each
    // side at ≥60 ms.
    const RUNS: usize = 12;
    let threads = par::threads();
    let sims = obs_trace::fig13_fault_scenarios(2, 11);
    println!(
        "obs_overhead: {} scenario(s) × {RUNS} run(s) per side, {} worker(s), limit {LIMIT_PCT}%",
        sims.len(),
        threads
    );

    // Warm every cache (channel responses, FFT plans) before timing.
    obs_trace::run_disabled(&sims, threads);

    // Each pass times the disabled and enabled variants back to back
    // and takes their ratio: ambient machine load slows both sides of a
    // pass alike, so the per-pass ratio is load-invariant to first
    // order. The median ratio then discards pass-level outliers in
    // either direction.
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    let mut ratios = Vec::with_capacity(PASSES);
    let mut jsonl = String::new();
    for _ in 0..PASSES {
        let t0 = Instant::now();
        for _ in 0..RUNS {
            std::hint::black_box(obs_trace::run_disabled(&sims, threads).len());
        }
        let d = t0.elapsed().as_secs_f64() * 1e3;
        disabled_ms = disabled_ms.min(d);

        let t0 = Instant::now();
        for _ in 0..RUNS {
            jsonl = obs_trace::run_traced(&sims, threads).jsonl;
        }
        let e = t0.elapsed().as_secs_f64() * 1e3;
        enabled_ms = enabled_ms.min(e);
        ratios.push(e / d);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));

    // Two estimators that both converge to the true overhead when the
    // machine is quiet: the median per-pass ratio (robust to outlier
    // passes) and the ratio of best times (robust to sustained load, as
    // each side only needs one quiet window in 15). The gate takes the
    // smaller — a regression past the limit moves both, while noise
    // rarely inflates both at once.
    let median_pct = (ratios[PASSES / 2] - 1.0) * 100.0;
    let best_pct = (enabled_ms / disabled_ms - 1.0) * 100.0;
    let overhead_pct = median_pct.min(best_pct);
    println!("  disabled (best of {PASSES} passes, {RUNS} runs each): {disabled_ms:>9.2} ms");
    println!("  enabled (best of {PASSES} passes, {RUNS} runs each):  {enabled_ms:>9.2} ms");
    println!(
        "  overhead: median-ratio {median_pct:.2} %, best-ratio {best_pct:.2} %  \
         (passes: {})",
        ratios
            .iter()
            .map(|r| format!("{:+.1}%", (r - 1.0) * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let path = obs_trace::write_trace("fig13", &jsonl).expect("write results/trace_fig13.jsonl");
    println!(
        "  wrote {} ({} bytes, {} lines)",
        path.display(),
        jsonl.len(),
        jsonl.lines().count()
    );

    if overhead_pct > LIMIT_PCT {
        eprintln!(
            "obs_overhead: FAIL — instrumentation overhead {overhead_pct:.2}% > {LIMIT_PCT}%"
        );
        std::process::exit(1);
    }
    println!("obs_overhead: OK ({overhead_pct:.2}% <= {LIMIT_PCT}%)");
}
