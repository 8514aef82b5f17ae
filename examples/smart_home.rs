//! Smart home: six HD cameras streaming to a hub while people walk
//! around (§1: "it can be used in smart homes to connect IoT sensors ...
//! to a home hub").
//!
//! Runs the network simulator twice — an empty home and a busy one with
//! two walkers — and prints the per-camera report.
//!
//! Run with: `cargo run --example smart_home`

use mmx::core::prelude::*;
use mmx::core::report::TextTable;

fn run(walkers: usize, label: &str) {
    let mut sim = scenario::smart_home(6);
    let cfg = sim.config_mut();
    cfg.duration = Seconds::new(1.0);
    cfg.walkers = walkers;
    cfg.seed = 7;
    let report = sim.run().expect("network runs");

    let mut table = TextTable::new([
        "camera",
        "sent",
        "delivered",
        "SINR dB",
        "PER",
        "goodput Mbps",
        "nJ/bit",
    ]);
    for n in &report.nodes {
        table.row([
            format!("cam-{}", n.id),
            n.sent.to_string(),
            n.delivered.to_string(),
            format!("{:.1}", n.mean_sinr_db),
            format!("{:.4}", n.per),
            format!("{:.1}", n.goodput_bps / 1e6),
            n.nj_per_bit
                .map(|x| format!("{x:.0}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("== {label} ==");
    println!("{}", table.render());
    println!(
        "aggregate goodput: {} | mean SINR {:.1} dB | SDM in use: {}\n",
        report.total_goodput(),
        report.mean_sinr_db(),
        report.used_sdm
    );
}

fn main() {
    run(0, "empty home");
    run(2, "busy home (2 people walking)");
}
