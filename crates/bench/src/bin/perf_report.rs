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
//! Writes `BENCH_report.json` at the repository root.
//!
//! Run with: `cargo run --release -p mmx-bench --bin perf_report`

use mmx_bench::{obs_trace, par};
use mmx_dsp::fft::{self, FftPlan};
use mmx_dsp::goertzel::{Goertzel, GoertzelPair};
use mmx_dsp::{Complex, IqBuffer};
use mmx_units::{Degrees, Hertz};
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

/// Direct O(n²) DFT — context for how far the radix-2 path already is
/// from the textbook definition.
fn naive_dft(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            x.iter()
                .enumerate()
                .map(|(t, &v)| {
                    v * Complex::cis(-2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64)
                })
                .fold(Complex::ZERO, |a, b| a + b)
        })
        .collect()
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

fn naive_dft_context_ms() -> (f64, usize) {
    let n = 1024;
    let x: Vec<Complex> = (0..n)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
        .collect();
    let reps = 5;
    (
        time_ms(reps, || {
            black_box(naive_dft(&x));
        }),
        reps,
    )
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

/// Absolute timing of one multi-node simulation, for trend tracking.
fn network_sim_ms() -> f64 {
    use mmx_channel::response::Pose;
    use mmx_channel::room::{Material, Room};
    use mmx_channel::Vec2;
    use mmx_net::ap::ApStation;
    use mmx_net::node::NodeStation;
    use mmx_net::sim::{NetworkSim, SimConfig};
    use mmx_units::{BitRate, Seconds};

    let room = Room::rectangular(6.0, 4.0, Material::Drywall);
    let ap_pos = Vec2::new(5.7, 2.0);
    let ap = ApStation::with_tma(
        Pose::new(ap_pos, Degrees::new(180.0)),
        16,
        Hertz::from_mhz(1.0),
    );
    let mut cfg = SimConfig::standard();
    cfg.duration = Seconds::from_millis(50.0);
    cfg.walkers = 0;
    cfg.seed = 41;
    let mut sim = NetworkSim::new(room, ap, cfg);
    for i in 0..10u16 {
        let pos = Vec2::new(0.6 + 0.4 * i as f64, 0.5 + 0.3 * i as f64);
        let facing = (ap_pos - pos).bearing();
        sim.add_node(NodeStation::new(
            i,
            Pose::new(pos, facing),
            BitRate::from_mbps(20.0),
        ));
    }
    time_ms(3, || {
        black_box(sim.run().expect("sim runs").mean_sinr_db());
    }) / 3.0
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The observability profile: runs the fig13 fault grid traced and
/// untraced, writes `results/trace_fig13.jsonl`, and returns the
/// pre-rendered `profile` JSON object (phase wall timings, enabled-vs-
/// disabled overhead, trace shape, and sim-domain FSM time-in-state
/// totals).
fn profile_json(workers: usize) -> String {
    use mmx_obs::HostProfiler;

    let mut prof = HostProfiler::new();
    let sims = prof.time("build_scenarios", || {
        obs_trace::fig13_fault_scenarios(2, 11)
    });
    // Warm caches so the traced/disabled comparison is apples-to-apples.
    obs_trace::run_disabled(&sims[..1], 1);
    let bundle = prof.time("traced_run", || obs_trace::run_traced(&sims, workers));
    prof.time("disabled_run", || {
        black_box(obs_trace::run_disabled(&sims, workers).len());
    });
    let trace_path = prof
        .time("write_trace", || {
            obs_trace::write_trace("fig13", &bundle.jsonl)
        })
        .expect("write results/trace_fig13.jsonl");
    let timelines = prof.time("replay", || {
        let (events, bad) = mmx_obs::parse_jsonl(&bundle.jsonl);
        assert_eq!(bad, 0, "perf_report produced an unparseable trace");
        (events.len(), mmx_obs::replay(&events).len())
    });

    let ms_of = |name: &str| {
        prof.phases()
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.secs * 1e3)
    };
    let traced_ms = ms_of("traced_run");
    let disabled_ms = ms_of("disabled_run");
    let overhead_pct = if disabled_ms > 0.0 {
        (traced_ms - disabled_ms) / disabled_ms * 100.0
    } else {
        0.0
    };

    println!("\n  observability profile ({workers} worker(s)):");
    for p in prof.phases() {
        println!(
            "    {:<18} {:>9.2} ms   ({} call(s))",
            p.name,
            p.secs * 1e3,
            p.calls
        );
    }
    println!(
        "    instrumentation overhead: {overhead_pct:.2}% ({} events, {} scenario timelines)",
        timelines.0, timelines.1
    );

    let mut json = String::new();
    json.push_str("  \"profile\": {\n");
    let _ = writeln!(json, "    \"threads\": {workers},");
    json.push_str("    \"phases\": [\n");
    let n = prof.phases().len();
    for (i, p) in prof.phases().iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"name\": \"{}\", \"ms\": {:.3}, \"calls\": {}}}",
            json_escape(p.name),
            p.secs * 1e3,
            p.calls
        );
        json.push_str(if i + 1 == n { "\n" } else { ",\n" });
    }
    json.push_str("    ],\n");
    let _ = writeln!(json, "    \"obs_overhead_pct\": {overhead_pct:.2},");
    json.push_str("    \"trace\": {\n");
    // Repo-relative when possible: the report is a committed artifact.
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .canonicalize()
        .ok();
    let shown = root
        .as_deref()
        .and_then(|r| trace_path.strip_prefix(r).ok())
        .unwrap_or(&trace_path);
    let _ = writeln!(
        json,
        "      \"path\": \"{}\",",
        json_escape(&shown.display().to_string())
    );
    let _ = writeln!(json, "      \"events\": {},", timelines.0);
    let _ = writeln!(json, "      \"scenarios\": {},", timelines.1);
    let _ = writeln!(json, "      \"bytes\": {}", bundle.jsonl.len());
    json.push_str("    },\n");
    json.push_str("    \"fsm_time_in_state_s\": {\n");
    let states = ["Idle", "Joining", "Granted", "Outage", "Rejoining"];
    for (i, s) in states.iter().enumerate() {
        let _ = write!(
            json,
            "      \"{s}\": {:.6}",
            obs_trace::time_in_state(&bundle.metrics, s)
        );
        json.push_str(if i + 1 == states.len() { "\n" } else { ",\n" });
    }
    json.push_str("    }\n");
    json.push_str("  },\n");
    json
}

fn main() {
    let workers = par::threads();
    println!("perf_report: timing hot paths ({workers} worker(s) detected)\n");

    let sections = [fft_section(), goertzel_section()];
    let (dft_ms, dft_reps) = naive_dft_context_ms();
    let sim_ms = network_sim_ms();

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
    println!(
        "  {:<24} {:>10.2} ms per run (absolute)",
        "network_sim_10_nodes", sim_ms
    );
    println!(
        "  {:<24} {:>10.2} ms / {} reps (O(n^2) reference)",
        "naive_dft_1024", dft_ms, dft_reps
    );

    // Headline: the geometric mean of the fast-path speedups.
    let geomean =
        (sections.iter().map(|s| s.speedup().ln()).sum::<f64>() / sections.len() as f64).exp();
    let max = sections
        .iter()
        .map(Section::speedup)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("\n  fast-path speedup: geomean {geomean:.2}x, max {max:.2}x");

    let profile = profile_json(workers);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"report\": \"mmX repro harness performance report\",\n");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"speedup\": {geomean:.3},");
    let _ = writeln!(json, "  \"geomean_fast_path_speedup\": {geomean:.3},");
    let _ = writeln!(json, "  \"max_fast_path_speedup\": {max:.3},");
    let _ = writeln!(json, "  \"network_sim_10_nodes_ms\": {sim_ms:.3},");
    let _ = writeln!(
        json,
        "  \"naive_dft_1024_ms_per_call\": {:.3},",
        dft_ms / dft_reps as f64
    );
    json.push_str(&profile);
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
