//! Fig. 13 extended across cells — the multi-AP scale sweep.
//!
//! The paper's Fig. 13 (and this repo's [`crate::fig13_scale`]) load a
//! *single* AP. §7's "billions of things" needs more: several APs
//! sharing the one 24 GHz ISM band over a larger space, with the
//! coordinator ([`mmx_net::multi_ap`]) partitioning the channel grid by
//! coverage geometry so non-overlapping cells reuse spectrum.
//!
//! The deployment is a 16 m × 4 m corridor with `A` ceiling APs along
//! the north wall facing south, and `N` sensor nodes fanned along the
//! floor. The node layout is **identical at every AP count** — only the
//! infrastructure changes — so a row at (4 APs, N) is directly
//! comparable with (1 AP, N). A node is *sustained* when it delivers at
//! least [`SUSTAINED_DELIVERY`] of its packets — i.e. its per-packet
//! BER meets the same bar in every configuration.
//!
//! The single-AP column collapses for two reasons the multi-AP rows
//! don't: distant nodes arrive weak (the corridor is much longer than
//! one cell), and all `N` nodes pile onto one TMA's harmonic space, so
//! co-channel leakage grows with density. Splitting the corridor into
//! cells shortens every link *and* divides the interference domain —
//! which is why the sustained-node count scales superlinearly in the
//! AP count until reuse runs out.

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_core::report::TextTable;
use mmx_net::ap::ApStation;
use mmx_net::multi_ap::{MultiApConfig, MultiApReport, MultiApSim};
use mmx_net::node::NodeStation;
use mmx_units::{BitRate, Degrees, Hertz, Seconds};

/// AP counts on the sweep's infrastructure axis.
pub const AP_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Node counts on the sweep's load axis.
pub const NODE_COUNTS: [usize; 4] = [100, 200, 400, 600];

/// A node is sustained when it delivers this fraction of its packets.
pub const SUSTAINED_DELIVERY: f64 = 0.95;

const CORRIDOR_W: f64 = 16.0;
const CORRIDOR_D: f64 = 4.0;

/// One (AP count, node count) cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct MultiApPoint {
    /// APs deployed.
    pub aps: usize,
    /// Nodes deployed.
    pub nodes: usize,
    /// Nodes admitted across all APs (0 when the configuration could
    /// not be scheduled at all).
    pub admitted: usize,
    /// Nodes meeting the [`SUSTAINED_DELIVERY`] bar.
    pub sustained: usize,
    /// Colors the coverage conflict graph needed.
    pub colors: usize,
    /// Aggregate frequency reuse achieved by the coordinator.
    pub reuse_gain: f64,
    /// Mean per-node SINR, dB.
    pub mean_sinr_db: f64,
    /// Network-wide delivery rate.
    pub delivery: f64,
    /// Aggregate goodput, Mbit/s.
    pub goodput_mbps: f64,
    /// Completed roaming handoffs.
    pub handoffs: u64,
}

/// The corridor deployment: `a` APs, `n` nodes, a fixed node layout
/// independent of `a`.
pub fn corridor(a: usize, n: usize, seed: u64) -> MultiApSim {
    let room = Room::rectangular(CORRIDOR_W, CORRIDOR_D, Material::Drywall);
    let mut cfg = MultiApConfig::standard();
    cfg.seed = seed;
    cfg.duration = Seconds::from_millis(50.0);
    // Narrow SDM channels maximize the channel grid, which is what a
    // sensor-class 1 Mbps demand wants: more nodes per harmonic beam
    // and wider spacing between co-harmonic neighbors.
    cfg.sdm_channel_width = Hertz::from_mhz(1.5);
    // A furnished corridor, not free space: clutter pushes the
    // path-loss exponent well above 2 (Rappaport, ch. 4). Long
    // single-AP links pay this; short multi-cell links barely notice.
    cfg.path_loss_exponent = 2.6;
    // Cells are small: a cone reaching just past the cell edge keeps
    // next-nearest APs conflict-free, so the reuse plan 2-colors a
    // 4-AP corridor instead of 3-coloring it.
    cfg.coverage_range_m = 4.5;
    let mut sim = MultiApSim::new(room, cfg);
    for k in 0..a {
        let x = CORRIDOR_W * (k as f64 + 0.5) / a as f64;
        sim.add_ap(ApStation::with_tma(
            Pose::new(Vec2::new(x, CORRIDOR_D - 0.3), Degrees::new(270.0)),
            16,
            Hertz::from_mhz(1.0),
        ));
    }
    for i in 0..n {
        // A golden-ratio fan along the corridor floor: deterministic,
        // evenly spread, and identical at every AP count.
        let fx = ((i as f64 + 0.5) * 0.618_033_988_75).fract();
        let fy = ((i as f64 + 0.5) * 0.381_966_011_25).fract();
        let pos = Vec2::new(0.6 + fx * (CORRIDOR_W - 1.2), 0.6 + fy * 2.0);
        // Nodes face the AP wall, not any particular AP.
        sim.add_node(NodeStation::new(
            i as u16,
            Pose::new(pos, Degrees::new(90.0)),
            BitRate::from_mbps(1.0),
        ));
    }
    sim
}

/// Summarizes one run into a sweep point.
pub fn point_of(a: usize, n: usize, report: &MultiApReport) -> MultiApPoint {
    MultiApPoint {
        aps: a,
        nodes: n,
        admitted: report.per_ap_admitted.iter().sum(),
        sustained: report.sustained(SUSTAINED_DELIVERY),
        colors: report.num_colors,
        reuse_gain: report.reuse_gain,
        mean_sinr_db: report.mean_sinr_db(),
        delivery: report.delivery_rate(),
        goodput_mbps: report.total_goodput_bps() / 1e6,
        handoffs: report.handoff.completed,
    }
}

/// Runs the full sweep: one multi-AP simulation per (A, N) cell, the
/// cells spread across worker threads and returned in row order. A cell
/// that cannot be scheduled at all reports zero admitted/sustained
/// rather than aborting the sweep.
pub fn sweep(seed: u64) -> Vec<MultiApPoint> {
    let cells = NODE_COUNTS.len();
    crate::par::run_indexed(AP_COUNTS.len() * cells, |k| {
        let (a, n) = (AP_COUNTS[k / cells], NODE_COUNTS[k % cells]);
        match corridor(a, n, seed).run() {
            Ok(report) => point_of(a, n, &report),
            Err(_) => MultiApPoint {
                aps: a,
                nodes: n,
                admitted: 0,
                sustained: 0,
                colors: 0,
                reuse_gain: 0.0,
                mean_sinr_db: 0.0,
                delivery: 0.0,
                goodput_mbps: 0.0,
                handoffs: 0,
            },
        }
    })
}

/// Renders the sweep as a table.
pub fn table(points: &[MultiApPoint]) -> TextTable {
    let mut t = TextTable::new([
        "aps",
        "nodes",
        "admitted",
        "sustained",
        "colors",
        "reuse gain",
        "mean SINR dB",
        "delivery",
        "goodput Mbps",
        "handoffs",
    ]);
    for p in points {
        t.row([
            p.aps.to_string(),
            p.nodes.to_string(),
            p.admitted.to_string(),
            p.sustained.to_string(),
            p.colors.to_string(),
            format!("{:.2}", p.reuse_gain),
            format!("{:.1}", p.mean_sinr_db),
            format!("{:.3}", p.delivery),
            format!("{:.1}", p.goodput_mbps),
            p.handoffs.to_string(),
        ]);
    }
    t
}

/// The headline comparison for EXPERIMENTS.md: sustained nodes at the
/// heaviest shared load, single-AP vs 4-AP.
pub fn summarize(points: &[MultiApPoint]) -> (usize, usize) {
    let at = |a: usize| {
        points
            .iter()
            .filter(|p| p.aps == a)
            .map(|p| p.sustained)
            .max()
            .unwrap_or(0)
    };
    (at(1), at(4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_aps_sustain_3x_the_single_ap_node_count() {
        // The ISSUE's acceptance criterion at the heaviest load: the
        // same 600-node layout served by one AP and by four
        // coordinated ones.
        let one = point_of(1, 600, &corridor(1, 600, 11).run().expect("1-AP runs"));
        let four = point_of(4, 600, &corridor(4, 600, 11).run().expect("4-AP runs"));
        assert!(
            one.admitted < one.nodes,
            "a single TMA should overload its harmonic space at 600 nodes"
        );
        assert_eq!(four.admitted, 600, "four cells admit the whole layout");
        assert!(
            four.sustained >= 3 * one.sustained.max(1),
            "4 APs sustain {} vs 1 AP's {} — not superlinear",
            four.sustained,
            one.sustained
        );
        assert!(four.mean_sinr_db > one.mean_sinr_db);
    }

    #[test]
    fn node_layout_is_identical_across_ap_counts() {
        let a = corridor(1, 50, 3);
        let b = corridor(8, 50, 3);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.ap_count(), 1);
        assert_eq!(b.ap_count(), 8);
    }
}
