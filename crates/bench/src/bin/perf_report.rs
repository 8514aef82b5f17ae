//! Performance report for the repro harness's hot paths.
//!
//! Every optimized path in this workspace keeps its unoptimized
//! reference alive (per-call FFT planning, two-pass Goertzel), so each
//! section below times the reference
//! against the fast path on the same inputs and reports the measured
//! speedup. A fast path that measures no faster than its reference is
//! fixed or deleted: the binary exits non-zero when any section reads
//! ≤ 1×.
//!
//! Writes `BENCH_report.json` at the repository root and nothing under
//! `results/`. Engine timings live in `mmxbench`; the tracing overhead
//! and `results/trace_fig13.jsonl` belong to `obs_overhead`.
//!
//! Run with: `cargo run --release -p mmx-bench --bin perf_report`

use mmx_bench::par;
use mmx_dsp::fft::{self, FftPlan};
use mmx_dsp::goertzel::{Goertzel, GoertzelPair};
use mmx_dsp::{Complex, IqBuffer};
use mmx_units::Hertz;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One before/after measurement.
struct Section {
    name: &'static str,
    description: &'static str,
    baseline_ms: f64,
    optimized_ms: f64,
    reps: usize,
}

impl Section {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.optimized_ms
    }
}

/// Total wall time of `reps` calls to `f`, best of three passes (the
/// best-of guards against scheduler noise), in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e3
}

fn fft_section() -> Section {
    let n = 1024;
    let x: Vec<Complex> = (0..n)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
        .collect();
    let reps = 2000;
    // Baseline: what the pre-plan transform did on every call — rebuild
    // the bit-reversal table and all twiddles, then run the butterflies.
    let baseline = time_ms(reps, || {
        let mut buf = x.clone();
        FftPlan::new(n).fft(&mut buf);
        black_box(&buf);
    });
    // Fast path: the thread-local plan cache behind `fft::fft`.
    let optimized = time_ms(reps, || {
        let mut buf = x.clone();
        fft::fft(&mut buf);
        black_box(&buf);
    });
    Section {
        name: "fft_plan_cache",
        description: "1024-point FFT: per-call twiddle/bit-reversal setup vs cached FftPlan",
        baseline_ms: baseline,
        optimized_ms: optimized,
        reps,
    }
}

fn goertzel_section() -> Section {
    let fs = Hertz::from_mhz(25.0);
    let f0 = Hertz::from_mhz(-2.0);
    let f1 = Hertz::from_mhz(2.0);
    let buf = IqBuffer::tone(1.0, f1, 4096, fs);
    let sps = 32;
    let g0 = Goertzel::new(f0, fs);
    let g1 = Goertzel::new(f1, fs);
    let pair = GoertzelPair::new(f0, f1, fs);
    let reps = 2000;
    // Baseline: the two-pass per-symbol correlation the FSK/OTAM
    // demodulators used before the fused pair.
    let baseline = time_ms(reps, || {
        let mut acc = 0.0;
        for sym in buf.samples().chunks_exact(sps) {
            acc += g0.energy(sym) + g1.energy(sym);
        }
        black_box(acc);
    });
    let optimized = time_ms(reps, || {
        let mut acc = 0.0;
        for sym in buf.samples().chunks_exact(sps) {
            let (e0, e1) = pair.energies(sym);
            acc += e0 + e1;
        }
        black_box(acc);
    });
    Section {
        name: "goertzel_pair",
        description: "per-symbol two-tone correlation: two Goertzel passes vs fused single pass",
        baseline_ms: baseline,
        optimized_ms: optimized,
        reps,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let workers = par::threads();
    println!("perf_report: timing hot paths ({workers} worker(s) detected)\n");

    let sections = [fft_section(), goertzel_section()];

    for s in &sections {
        println!(
            "  {:<24} {:>10.2} ms -> {:>9.2} ms   {:>6.2}x   ({})",
            s.name,
            s.baseline_ms,
            s.optimized_ms,
            s.speedup(),
            s.description
        );
    }

    // Headline: the geometric mean of the fast-path speedups.
    let geomean =
        (sections.iter().map(|s| s.speedup().ln()).sum::<f64>() / sections.len() as f64).exp();
    let max = sections
        .iter()
        .map(Section::speedup)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("\n  fast-path speedup: geomean {geomean:.2}x, max {max:.2}x");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"geomean_fast_path_speedup\": {geomean:.3},");
    let _ = writeln!(json, "  \"max_fast_path_speedup\": {max:.3},");
    json.push_str("  \"sections\": [\n");
    for (i, s) in sections.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", json_escape(s.name));
        let _ = writeln!(
            json,
            "      \"description\": \"{}\",",
            json_escape(s.description)
        );
        let _ = writeln!(json, "      \"reps\": {},", s.reps);
        let _ = writeln!(json, "      \"baseline_ms\": {:.3},", s.baseline_ms);
        let _ = writeln!(json, "      \"optimized_ms\": {:.3},", s.optimized_ms);
        let _ = writeln!(json, "      \"speedup\": {:.3}", s.speedup());
        json.push_str(if i + 1 == sections.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");
    std::fs::write(path, &json).expect("write BENCH_report.json");
    println!("\nwrote {path}");

    // A fast path that is not faster than its reference has no reason
    // to exist.
    let slow: Vec<&str> = (sections.iter())
        .filter(|s| s.speedup() <= 1.0)
        .map(|s| s.name)
        .collect();
    if !slow.is_empty() {
        eprintln!("FAIL: fast path(s) at or below 1x: {}", slow.join(", "));
        std::process::exit(1);
    }
}
