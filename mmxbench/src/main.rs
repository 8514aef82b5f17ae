//! The mmX benchmark: one command that times the three event engines and
//! the paper's Fig. 13 batch from outside, checks every run's output, and
//! prints each metric by name with its unit. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path mmxbench/Cargo.toml -- \
//!     --workload single_ap_500 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with tracing off;
//! `--trace 1` runs the per-layer replay (`replay.rs`). `--record`
//! re-records the workload's fingerprint at [`DEFAULT_SEED`]. See
//! `README.md`.

mod fingerprint;
mod replay;
mod stats;
mod workloads;

use stats::{median, Metric};
use std::time::{Duration, Instant};
use workloads::{Outcome, Scenario, Workload};

/// The seed whose report fingerprints `fingerprints.txt` records.
pub const DEFAULT_SEED: u64 = 1;

/// Zero-duration runs per benchmark run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One in this many timed runs is an `nproc`-thread run, whose report
/// must equal the 1-thread one.
const PAR_EVERY: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record,
    })
}

/// Runs attempted and failed, with the first few reasons.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        }
    }

    /// Counts one run: it fails if the engine errored or, when
    /// `expected` is given, if its fingerprint differs.
    pub fn check(&mut self, what: &str, got: &Result<Outcome, String>, expected: Option<u64>) {
        self.attempted += 1;
        match (got, expected) {
            (Err(e), _) => self.fail(format!("{what}: engine error {e}")),
            (Ok(o), Some(x)) if o.fingerprint != x => self.fail(format!(
                "{what}: fingerprint {:016x}, expected {x:016x}",
                o.fingerprint
            )),
            _ => {}
        }
    }

    /// Counts a failure.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// Worker threads the machine offers; every `nproc`-thread figure uses
/// this many.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's resident-set high-water mark, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Checks the workload's report at [`DEFAULT_SEED`] against the recorded
/// fingerprint, so every run shows the engines still compute the same
/// thing whatever `--seed` it measures.
pub(crate) fn check_recorded(w: Workload, tally: &mut Tally) {
    let got = Scenario::build(w, DEFAULT_SEED).prepare().run(1);
    match fingerprint::recorded(w.name()) {
        Some(x) => tally.check("default-seed fingerprint", &got, Some(x)),
        None => {
            tally.check("default-seed run", &got, None);
            tally.fail(format!(
                "no fingerprint recorded for {} in {}",
                w.name(),
                fingerprint::RECORDED_PATH
            ));
        }
    }
}

/// Writes the workload's default-seed fingerprint into the recorded file.
fn record(w: Workload) -> Result<(), String> {
    let scenario = Scenario::build(w, DEFAULT_SEED);
    let o = scenario.clone().prepare().run(1)?;
    let (intra, across) = par_threads(w);
    if scenario.with_threads(intra).prepare().run(across)? != o {
        return Err("1-thread and nproc-thread reports differ; not recording".into());
    }
    let path = fingerprint::RECORDED_PATH;
    let old = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines: Vec<String> = old
        .lines()
        .filter(|l| l.split_once(' ').map(|(n, _)| n) != Some(w.name()))
        .map(str::to_string)
        .collect();
    lines.push(format!("{} {:016x}", w.name(), o.fingerprint));
    lines.sort();
    std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("recorded {} {:016x}", w.name(), o.fingerprint);
    Ok(())
}

/// Threads for an `nproc`-thread run: intra-sim gather workers for the
/// single-sim workloads, sims at once for the batch.
fn par_threads(w: Workload) -> (usize, usize) {
    match w {
        Workload::Fig13Batch => (1, nproc()),
        _ => (nproc(), 1),
    }
}

/// The end-to-end run: set-up time, then closed-loop full runs until
/// `seconds` are spent, one in [`PAR_EVERY`] at `nproc` threads.
fn end_to_end(w: Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    check_recorded(w, tally);

    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let got = Scenario::build(w, seed)
                .with_duration(mmx_units::Seconds::ZERO)
                .prepare()
                .run(1);
            let dt = t0.elapsed().as_secs_f64();
            tally.check("zero-duration run", &got, None);
            dt
        })
        .collect();

    let scenario = Scenario::build(w, seed);
    let serial = scenario.clone().with_threads(1).prepare();
    let (intra, across) = par_threads(w);
    let par = scenario.with_threads(intra).prepare();
    let reference = serial.run(1);
    tally.check("reference run", &reference, None);
    let expected = reference.as_ref().ok().map(|o| o.fingerprint);
    let packets = reference.as_ref().map_or(0, |o| o.packets);

    let mut wall = Vec::new();
    let mut wall_par = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while wall_par.is_empty() || Instant::now() < deadline {
        let t0 = Instant::now();
        if (wall.len() + wall_par.len()) % PAR_EVERY == PAR_EVERY - 1 {
            let got = par.run(across);
            wall_par.push(t0.elapsed().as_secs_f64());
            tally.check("nproc-thread run", &got, expected);
        } else {
            let got = serial.run(1);
            wall.push(t0.elapsed().as_secs_f64());
            tally.check("1-thread run", &got, expected);
        }
    }

    let wall_s = median(&wall);
    match stats::tail(&wall) {
        Some((p, x)) => println!("wall_s: p{p} = {x} s over n={} runs", wall.len()),
        None => println!(
            "wall_s: n={} runs, too few for a tail percentile",
            wall.len()
        ),
    }
    println!(
        "wall_s_par (nproc={}, unbounded): median {} s over n={} runs",
        nproc(),
        median(&wall_par),
        wall_par.len()
    );
    let mut m = vec![
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new("wall_s", "s", wall_s),
        Metric::new("sim_pkts_per_s", "1/s", packets as f64 / wall_s),
    ];
    if let Some(rss) = peak_rss_mb() {
        m.push(Metric::new("peak_rss_mb", "MB", rss));
    }
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmxbench: {e}");
            eprintln!(
                "usage: mmxbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--record]"
            );
            std::process::exit(2);
        }
    };
    if args.record {
        if let Err(e) = record(args.workload) {
            eprintln!("mmxbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    println!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" seed={} workload={} trace={}",
        nproc(),
        cpu_model(),
        env!("MMXBENCH_RUSTC"),
        args.seed,
        args.workload.name(),
        u8::from(args.trace)
    );
    let mut tally = Tally::new();
    let metrics = if args.trace {
        replay::traced(args.workload, args.seed, args.seconds, &mut tally)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &mut tally)
    };
    for m in &metrics {
        println!("{:<32} {:>24} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate: {} failed of {} attempted",
        tally.failed, tally.attempted
    );
    for r in &tally.reasons {
        println!("FAILED: {r}");
    }
    let ok = tally.failed == 0;
    println!(
        "{}",
        stats::result_json(ok, tally.attempted, tally.failed, &metrics)
    );
    if !ok {
        std::process::exit(1);
    }
}
