//! Replays a JSONL observability trace into per-node FSM time-in-state
//! timelines for the Idle → Joining → Granted → Outage → Rejoining
//! control-link state machine.
//!
//! Usage: `cargo run --release -p mmx-bench --bin obs_report [-- <trace.jsonl>]`
//!
//! Defaults to `results/trace_fig13.jsonl`, which `obs_overhead`
//! writes. Writes `results/obs_report_timelines.csv`
//! (per run × node) and `results/obs_report_aggregate.csv` (per state).

use mmx_bench::output;
use mmx_core::report::TextTable;
use std::path::PathBuf;

const STATES: [&str; 5] = ["Idle", "Joining", "Granted", "Outage", "Rejoining"];

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| output::results_dir().join("trace_fig13.jsonl"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_report: cannot read {}: {e}", path.display());
            eprintln!("hint: `cargo run --release -p mmx-bench --bin obs_overhead` writes it");
            std::process::exit(2);
        }
    };
    let (events, bad) = mmx_obs::parse_jsonl(&text);
    if bad > 0 {
        eprintln!("obs_report: skipped {bad} malformed line(s)");
    }
    let runs = mmx_obs::replay(&events);
    println!(
        "obs_report: {} event(s), {} run timeline(s) in {}\n",
        events.len(),
        runs.len(),
        path.display()
    );

    let mut per_node = TextTable::new([
        "run",
        "node",
        "Idle s",
        "Joining s",
        "Granted s",
        "Outage s",
        "Rejoining s",
        "transitions",
        "final",
    ]);
    for (ri, run) in runs.iter().enumerate() {
        for (node, tl) in &run.nodes {
            if *node < 0 {
                continue; // node -1 is the network-wide pseudo-node
            }
            let mut row = vec![ri.to_string(), node.to_string()];
            row.extend(
                STATES
                    .iter()
                    .map(|s| format!("{:.4}", tl.time_in_state.get(*s).copied().unwrap_or(0.0))),
            );
            row.push(tl.transitions.to_string());
            row.push(tl.final_state.clone());
            per_node.row(row);
        }
    }
    output::emit(
        "FSM time-in-state per run x node",
        "obs_report_timelines",
        &per_node,
    );

    let totals: Vec<f64> = STATES
        .iter()
        .map(|s| runs.iter().map(|r| r.total_in_state(s)).sum())
        .collect();
    let grand: f64 = totals.iter().sum();
    let mut agg = TextTable::new(["state", "total s", "share %"]);
    for (s, tot) in STATES.iter().zip(&totals) {
        agg.row([
            (*s).to_string(),
            format!("{tot:.4}"),
            format!(
                "{:.1}",
                if grand > 0.0 {
                    tot / grand * 100.0
                } else {
                    0.0
                }
            ),
        ]);
    }
    output::emit("FSM time-in-state aggregate", "obs_report_aggregate", &agg);
}
