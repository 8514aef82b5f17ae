//! Mall surveillance: twelve 4K cameras across a 20 m hall — the range
//! limits of §9.4 in action, plus the OTAM-vs-beam-search comparison
//! that motivates the design.
//!
//! Run with: `cargo run --example surveillance_mall`

use mmx::baseline::search::{
    search_overhead_fraction, BeamSearch, ExhaustiveSearch, FixedBeam, HierarchicalSearch,
};
use mmx::baseline::ConventionalNode;
use mmx::core::prelude::*;
use mmx::core::report::TextTable;
use mmx::units::Db;

fn main() {
    // --- The mmX deployment -------------------------------------------
    let mut sim = scenario::surveillance(12);
    let cfg = sim.config_mut();
    cfg.duration = Seconds::new(1.0);
    cfg.walkers = 3;
    cfg.seed = 3;
    let report = sim.run().expect("network runs");

    let mut table = TextTable::new(["camera", "SINR dB", "PER", "goodput Mbps"]);
    for n in &report.nodes {
        table.row([
            format!("cam-{}", n.id),
            format!("{:.1}", n.mean_sinr_db),
            format!("{:.4}", n.per),
            format!("{:.1}", n.goodput_bps / 1e6),
        ]);
    }
    println!("== mmX: 12 cameras, 20 m hall ==");
    println!("{}", table.render());

    // --- What a beam-search system would pay ---------------------------
    // Each camera's phased-array alternative must re-search every time a
    // shopper crosses a beam (~every 500 ms in a busy mall).
    println!("== the beam-search alternative (per camera) ==");
    let node = ConventionalNode::standard();
    let quality = |steer: Degrees| -> Db { node.array().gain(steer, Degrees::new(-20.0)) };
    let coherence = Seconds::from_millis(500.0);
    let mut t2 = TextTable::new([
        "protocol",
        "probes",
        "latency µs",
        "node energy µJ",
        "airtime overhead",
    ]);
    let protocols: Vec<Box<dyn BeamSearch>> = vec![
        Box::new(ExhaustiveSearch::standard()),
        Box::new(HierarchicalSearch::standard()),
        Box::new(FixedBeam {
            steering: Degrees::new(0.0),
        }),
    ];
    for p in &protocols {
        let out = p.search(&node, &quality);
        t2.row([
            p.name().to_string(),
            out.cost.probes.to_string(),
            format!("{:.0}", out.cost.latency.micros()),
            format!("{:.1}", out.cost.node_energy_j * 1e6),
            format!(
                "{:.2}%",
                100.0 * search_overhead_fraction(&out.cost, coherence)
            ),
        ]);
    }
    t2.row([
        "mmX (OTAM)".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0.0".to_string(),
        "0.00%".to_string(),
    ]);
    println!("{}", t2.render());
    println!("mmX needs no search at all: the modulation rides the beams.");
}
