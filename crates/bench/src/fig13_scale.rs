//! §7 scale-out — Fig. 13 extended toward "billions of things": one AP
//! serving 50–500 sensor-class nodes.
//!
//! The paper's Fig. 13 stops at 20 nodes of 25 MHz each (the prototype's
//! FDM+SDM budget). §7 argues the architecture scales much further: an
//! AP with a larger TMA hashes more directions into more harmonics, and
//! low-rate sensors need far narrower sub-channels. This sweep sizes the
//! AP accordingly — a 32-element TMA and 3 MHz SDM sub-channels carving
//! the 250 MHz ISM band into 62 FDM slots per harmonic — and loads it
//! with 1 Mbps sensor nodes (the §2 "things": cameras are the outlier;
//! most of the billions are low-rate).
//!
//! Each x-axis point is one simulation on one thread; the points fan out
//! across worker threads ([`crate::par::run_indexed`], DESIGN.md §9),
//! and the reported numbers are byte-identical at any thread count.

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_core::report::TextTable;
use mmx_net::ap::ApStation;
use mmx_net::node::NodeStation;
use mmx_net::sim::{NetworkSim, SimConfig};
use mmx_units::{BitRate, Degrees, Hertz, Seconds};
use rand::{Rng, SeedableRng};

/// The node counts on the scale-out x-axis.
pub const SCALE_COUNTS: [usize; 4] = [50, 100, 200, 500];

/// One x-axis point of the scale-out sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Number of concurrent nodes.
    pub nodes: usize,
    /// Mean per-node SINR, dB.
    pub mean_sinr_db: f64,
    /// Worst per-node mean SINR, dB.
    pub min_sinr_db: f64,
    /// Network-wide delivery rate (delivered / sent).
    pub delivery_rate: f64,
    /// Aggregate application goodput, Mbit/s.
    pub goodput_mbps: f64,
}

/// A dense sensor topology: `n` low-rate nodes scattered in the AP's
/// field of view, served by a scale-out AP (32-element TMA, 5 MHz SDM
/// sub-channels).
pub fn scale_topology(n: usize, seed: u64) -> NetworkSim {
    let room = Room::rectangular(6.0, 4.0, Material::Drywall);
    let ap_pos = Vec2::new(5.7, 2.0);
    // 32 elements: twice Fig. 13's harmonic count, so more directions
    // hash into distinct beams; each harmonic then multiplexes up to 62
    // narrow FDM channels — capacity for a couple thousand sensors.
    let ap = ApStation::with_tma(
        Pose::new(ap_pos, Degrees::new(180.0)),
        32,
        Hertz::from_mhz(1.0),
    );
    let mut cfg = SimConfig::standard();
    cfg.duration = Seconds::from_millis(50.0);
    cfg.walkers = 0;
    cfg.seed = seed;
    cfg.sdm_channel_width = Hertz::from_mhz(3.0);
    let mut sim = NetworkSim::new(room, ap, cfg);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5CA1E);
    for i in 0..n {
        let pos = loop {
            let p = Vec2::new(rng.gen_range(0.4..4.8), rng.gen_range(0.4..3.6));
            let bearing = (p - ap_pos).bearing() - Degrees::new(180.0);
            if bearing.wrapped().value().abs() < 55.0 && p.distance(ap_pos) > 1.0 {
                break p;
            }
        };
        let facing = (ap_pos - pos).bearing() + Degrees::new(rng.gen_range(-30.0..30.0));
        sim.add_node(NodeStation::new(
            i as u16,
            Pose::new(pos, facing),
            BitRate::from_mbps(1.0),
        ));
    }
    sim
}

/// Runs the scale-out sweep: one big simulation per node count, the
/// counts spread across worker threads. The points are a pure function
/// of `seed`.
pub fn sweep(seed: u64) -> Vec<ScalePoint> {
    crate::par::run_indexed(SCALE_COUNTS.len(), |k| {
        let n = SCALE_COUNTS[k];
        let report = scale_topology(n, seed + n as u64)
            .run()
            .expect("scale topology must run");
        point_of(n, &report)
    })
}

fn point_of(n: usize, report: &mmx_net::sim::NetworkReport) -> ScalePoint {
    let sent: u64 = report.nodes.iter().map(|r| r.sent).sum();
    let delivered: u64 = report.nodes.iter().map(|r| r.delivered).sum();
    ScalePoint {
        nodes: n,
        mean_sinr_db: report.mean_sinr_db(),
        min_sinr_db: report.min_mean_sinr_db(),
        delivery_rate: if sent > 0 {
            delivered as f64 / sent as f64
        } else {
            0.0
        },
        goodput_mbps: report.nodes.iter().map(|r| r.goodput_bps).sum::<f64>() / 1e6,
    }
}

/// Renders the sweep as a table.
pub fn table(points: &[ScalePoint]) -> TextTable {
    let mut t = TextTable::new([
        "nodes",
        "mean SINR dB",
        "min SINR dB",
        "delivery",
        "goodput Mbps",
    ]);
    for p in points {
        t.row([
            p.nodes.to_string(),
            format!("{:.1}", p.mean_sinr_db),
            format!("{:.1}", p.min_sinr_db),
            format!("{:.3}", p.delivery_rate),
            format!("{:.1}", p.goodput_mbps),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_topology_admits_500_nodes() {
        let report = scale_topology(500, 7).run().expect("500 nodes admit");
        assert_eq!(report.nodes.len(), 500);
        assert!(report.used_sdm, "500 nodes must need SDM");
        assert!(report.nodes.iter().all(|r| r.sent > 0));
    }

    #[test]
    fn density_degrades_gracefully() {
        // The §7 claim under a full interference model: more things,
        // lower SINR — a slope, not a cliff. At 10× Fig. 13's density
        // the mean SINR is still double-digit dB and most packets
        // deliver; at 200 nodes delivery stays above 90%.
        let a = point_of(200, &scale_topology(200, 3).run().expect("runs"));
        let b = point_of(500, &scale_topology(500, 3).run().expect("runs"));
        assert!(a.mean_sinr_db >= b.mean_sinr_db);
        assert!(
            a.delivery_rate > 0.9,
            "200-node delivery collapsed to {}",
            a.delivery_rate
        );
        assert!(
            b.delivery_rate > 0.5,
            "500-node delivery collapsed to {}",
            b.delivery_rate
        );
        assert!(
            b.mean_sinr_db > 10.0,
            "500-node mean SINR {}",
            b.mean_sinr_db
        );
    }
}
