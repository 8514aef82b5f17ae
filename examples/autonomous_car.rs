//! Autonomous car: eight surround cameras to the in-vehicle AP
//! (§1 footnote 2: "Autonomous cars will be equipped with at least 8
//! cameras for a 360-degree surrounding coverage").
//!
//! The metal cabin is a reflector-rich environment — the best case for
//! OTAM's reflected Beam-0 paths. The example also shows the
//! initialization phase explicitly: each camera joins over the control
//! plane and tunes its VCO to the granted channel.
//!
//! Run with: `cargo run --example autonomous_car`

use mmx::core::prelude::*;
use mmx::core::report::TextTable;
use mmx::net::control::Admission;
use mmx::net::control::ControlMsg;
use mmx::net::fdm::BandPlan;

fn main() {
    // --- Initialization phase (§7a): join + grant over BLE -------------
    println!("== initialization phase ==");
    let mut admission = Admission::new(BandPlan::ism_24ghz());
    let mut nodes: Vec<NodeStation> = (0..8)
        .map(|i| {
            NodeStation::new(
                i,
                Pose::new(Vec2::new(0.5 + 0.5 * i as f64, 0.5), Degrees::new(0.0)),
                BitRate::from_mbps(20.0),
            )
        })
        .collect();
    for node in &mut nodes {
        let grants = admission
            .join(node.id, node.demand)
            .expect("band fits 8 cameras");
        for g in grants {
            if let ControlMsg::Grant {
                node: id,
                center_hz,
                width_hz,
                ..
            } = g
            {
                if id == node.id {
                    let tuned = node.front_end_mut().tune(Hertz::new(center_hz));
                    println!(
                        "cam-{id}: granted {:.1} MHz at {:.4} GHz, VCO tuned: {tuned}",
                        width_hz / 1e6,
                        center_hz / 1e9
                    );
                }
            }
        }
    }

    // --- Transmission phase ---------------------------------------------
    println!("\n== transmission phase ==");
    let mut sim = scenario::vehicle();
    let cfg = sim.config_mut();
    cfg.duration = Seconds::new(1.0);
    cfg.seed = 11;
    let report = sim.run().expect("cabin network runs");

    let mut table = TextTable::new(["camera", "SINR dB", "min SINR", "PER", "goodput Mbps"]);
    for n in &report.nodes {
        table.row([
            format!("cam-{}", n.id),
            format!("{:.1}", n.mean_sinr_db),
            format!("{:.1}", n.min_sinr_db),
            format!("{:.4}", n.per),
            format!("{:.1}", n.goodput_bps / 1e6),
        ]);
    }
    println!("{}", table.render());
    println!(
        "aggregate: {} across 8 cameras ({} demanded)",
        report.total_goodput(),
        BitRate::from_mbps(160.0)
    );
}
