//! Fig. 13 — "mmX's multi-node performance": SNR at the AP versus the
//! number of simultaneously transmitting nodes.
//!
//! §9.5: nodes at random locations/orientations, 25 MHz each, FDM+SDM
//! combined; 100 experiments. Paper shape: SNR declines gently with node
//! count and the 20-node average stays high (≥29 dB in their idealized
//! post-processing; our full interference simulation sits lower but
//! preserves the trend).

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_core::report::TextTable;
use mmx_net::ap::ApStation;
use mmx_net::node::NodeStation;
use mmx_net::sim::{NetworkSim, SimConfig};
use mmx_units::{BitRate, Degrees, Hertz, Seconds};
use rand::{Rng, SeedableRng};

/// The node counts on the figure's x-axis.
pub const NODE_COUNTS: [usize; 5] = [1, 2, 5, 10, 20];

/// One x-axis point.
#[derive(Debug, Clone, Copy)]
pub struct MultiNodePoint {
    /// Number of concurrent nodes.
    pub nodes: usize,
    /// Mean per-node SINR across topologies, dB.
    pub mean_sinr_db: f64,
    /// Worst per-node mean SINR seen, dB.
    pub min_sinr_db: f64,
    /// Best per-node mean SINR seen, dB.
    pub max_sinr_db: f64,
    /// Whether SDM was needed at this count.
    pub used_sdm: bool,
}

pub(crate) fn random_topology(n: usize, seed: u64) -> NetworkSim {
    // A 16-element TMA: narrower harmonic beams put co-channel nodes in
    // deeper sidelobes (the prototype AP had a single dipole; the SDM AP
    // is the §7(b) extension, so we size it for 20 nodes).
    let rate = BitRate::from_mbps(20.0);
    fov_topology(n, 16, rate, SimConfig::standard(), seed, 0xF13)
}

/// `n` nodes at `rate` in the 6 m × 4 m room, served by an AP with an
/// `elements`-element TMA on the short wall. Each node sits at a uniform
/// random spot in the AP's ±55° field of view, more than 1 m out, and
/// faces the AP within ±30°. `cfg` runs 50 ms without walkers at `seed`;
/// the placements draw from `seed ^ salt`, one stream per caller.
pub(crate) fn fov_topology(
    n: usize,
    elements: usize,
    rate: BitRate,
    mut cfg: SimConfig,
    seed: u64,
    salt: u64,
) -> NetworkSim {
    let room = Room::rectangular(6.0, 4.0, Material::Drywall);
    let ap_pos = Vec2::new(5.7, 2.0);
    let ap = ApStation::with_tma(
        Pose::new(ap_pos, Degrees::new(180.0)),
        elements,
        Hertz::from_mhz(1.0),
    );
    cfg.duration = Seconds::from_millis(50.0);
    cfg.walkers = 0;
    cfg.seed = seed;
    let mut sim = NetworkSim::new(room, ap, cfg);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ salt);
    for i in 0..n {
        let pos = loop {
            let p = Vec2::new(rng.gen_range(0.4..4.8), rng.gen_range(0.4..3.6));
            let bearing = (p - ap_pos).bearing() - Degrees::new(180.0);
            if bearing.wrapped().value().abs() < 55.0 && p.distance(ap_pos) > 1.0 {
                break p;
            }
        };
        let facing = (ap_pos - pos).bearing() + Degrees::new(rng.gen_range(-30.0..30.0));
        sim.add_node(NodeStation::new(i as u16, Pose::new(pos, facing), rate));
    }
    sim
}

/// Runs `topologies` random topologies per node count.
///
/// Every (node count, topology) pair is an independent simulation whose
/// seed depends only on the pair, so the full grid fans out across the
/// parallel engine and reassembles bit-identically at any thread count.
pub fn sweep(topologies: usize, seed: u64) -> Vec<MultiNodePoint> {
    let jobs: Vec<(usize, u64)> = NODE_COUNTS
        .iter()
        .flat_map(|&n| (0..topologies).map(move |t| (n, seed + t as u64 * 1000 + n as u64)))
        .collect();
    let reports = crate::par::run_indexed(jobs.len(), |i| {
        let (n, topo_seed) = jobs[i];
        random_topology(n, topo_seed)
            .run()
            .expect("Fig. 13 topology must run")
    });
    NODE_COUNTS
        .iter()
        .enumerate()
        .map(|(ci, &n)| {
            let mut means = Vec::new();
            let mut used_sdm = false;
            for report in &reports[ci * topologies..(ci + 1) * topologies] {
                used_sdm |= report.used_sdm;
                means.extend(report.nodes.iter().map(|r| r.mean_sinr_db));
            }
            MultiNodePoint {
                nodes: n,
                mean_sinr_db: means.iter().sum::<f64>() / means.len() as f64,
                min_sinr_db: means.iter().cloned().fold(f64::INFINITY, f64::min),
                max_sinr_db: means.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                used_sdm,
            }
        })
        .collect()
}

/// Renders the figure's series.
pub fn table(points: &[MultiNodePoint]) -> TextTable {
    let mut t = TextTable::new(["nodes", "mean SINR dB", "min SINR dB", "max SINR dB", "SDM"]);
    for p in points {
        t.row([
            p.nodes.to_string(),
            format!("{:.1}", p.mean_sinr_db),
            format!("{:.1}", p.min_sinr_db),
            format!("{:.1}", p.max_sinr_db),
            if p.used_sdm { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<MultiNodePoint> {
        sweep(3, 11)
    }

    #[test]
    fn sinr_declines_gently_with_node_count() {
        let p = pts();
        // Paper: "as the number of nodes ... increases, their SNR
        // slightly decreases."
        assert!(p[0].mean_sinr_db >= p.last().unwrap().mean_sinr_db);
        let drop = p[0].mean_sinr_db - p.last().unwrap().mean_sinr_db;
        assert!(drop < 20.0, "drop of {drop} dB is not 'slight'");
    }

    #[test]
    fn twenty_nodes_remain_usable() {
        // Paper: 20-node average ≥29 dB (idealized). Our full
        // interference model must keep the average comfortably above the
        // ~10 dB usability line.
        let p = pts();
        let last = p.last().unwrap();
        assert_eq!(last.nodes, 20);
        assert!(
            last.mean_sinr_db > 15.0,
            "20-node mean = {}",
            last.mean_sinr_db
        );
    }

    #[test]
    fn sdm_kicks_in_at_high_counts_only() {
        let p = pts();
        assert!(!p[0].used_sdm, "1 node must not need SDM");
        assert!(p.last().unwrap().used_sdm, "20 nodes must need SDM");
    }

    #[test]
    fn axis_matches_paper() {
        let p = pts();
        let counts: Vec<usize> = p.iter().map(|x| x.nodes).collect();
        assert_eq!(counts, vec![1, 2, 5, 10, 20]);
        assert_eq!(table(&p).len(), 5);
    }
}
