//! The multi-node network builder.

use crate::ap::MmxAp;
use crate::node::MmxNode;
use mmx_channel::room::Room;
use mmx_net::sim::{NetworkReport, NetworkSim, SimConfig, SimError};
use mmx_units::Seconds;

/// Fluent builder over [`mmx_net::sim::NetworkSim`].
///
/// ```
/// use mmx_core::prelude::*;
/// use mmx_channel::room::{Material, Room};
///
/// let room = Room::rectangular(6.0, 4.0, Material::Drywall);
/// let ap = MmxAp::prototype(Pose::new(Vec2::new(5.7, 2.0), Degrees::new(180.0)));
/// let node = MmxNode::hd_camera(0, Pose::facing_toward(Vec2::new(1.0, 2.0), Vec2::new(5.7, 2.0)));
/// let report = MmxNetworkBuilder::new(room, ap)
///     .node(node)
///     .duration(Seconds::new(0.2))
///     .run()
///     .expect("network runs");
/// assert!(report.nodes[0].per < 0.05);
/// ```
pub struct MmxNetworkBuilder {
    room: Room,
    ap: MmxAp,
    nodes: Vec<MmxNode>,
    cfg: SimConfig,
}

impl MmxNetworkBuilder {
    /// Starts a network in `room` around `ap`.
    pub fn new(room: Room, ap: MmxAp) -> Self {
        MmxNetworkBuilder {
            room,
            ap,
            nodes: Vec::new(),
            cfg: SimConfig::standard(),
        }
    }

    /// Adds a node.
    pub fn node(mut self, node: MmxNode) -> Self {
        self.nodes.push(node);
        self
    }

    /// Sets the simulated duration.
    pub fn duration(mut self, d: Seconds) -> Self {
        self.cfg.duration = d;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the number of random walkers.
    pub fn walkers(mut self, n: usize) -> Self {
        self.cfg.walkers = n;
        self
    }

    /// Adds the §9.2 pacing blocker crossing the room.
    pub fn pacing_blocker(mut self, enabled: bool) -> Self {
        self.cfg.pacing_blocker = enabled;
        self
    }

    /// Runs the network and returns the report.
    pub fn run(self) -> Result<NetworkReport, SimError> {
        let mut sim = NetworkSim::new(self.room, self.ap.into_station(), self.cfg);
        for node in self.nodes {
            sim.add_node(node.into_station());
        }
        sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_channel::response::Pose;
    use mmx_channel::room::Material;
    use mmx_channel::Vec2;
    use mmx_units::{Degrees, Hertz};

    fn room() -> Room {
        Room::rectangular(6.0, 4.0, Material::Drywall)
    }

    fn ap_pose() -> Pose {
        Pose::new(Vec2::new(5.7, 2.0), Degrees::new(180.0))
    }

    #[test]
    fn builder_runs_single_node() {
        let report = MmxNetworkBuilder::new(room(), MmxAp::prototype(ap_pose()))
            .node(MmxNode::hd_camera(
                0,
                Pose::facing_toward(Vec2::new(1.0, 2.0), ap_pose().position),
            ))
            .duration(Seconds::new(0.2))
            .walkers(0)
            .run()
            .expect("runs");
        assert_eq!(report.nodes.len(), 1);
        assert!(report.nodes[0].delivered > 0);
    }

    #[test]
    fn builder_propagates_seed_determinism() {
        let run = |seed| {
            MmxNetworkBuilder::new(room(), MmxAp::prototype(ap_pose()))
                .node(MmxNode::hd_camera(
                    0,
                    Pose::facing_toward(Vec2::new(1.2, 1.4), ap_pose().position),
                ))
                .duration(Seconds::new(0.3))
                .seed(seed)
                .run()
                .unwrap()
                .nodes[0]
                .mean_sinr_db
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn tma_ap_supports_overload() {
        let mut b =
            MmxNetworkBuilder::new(room(), MmxAp::with_tma(ap_pose(), 8, Hertz::from_mhz(1.0)))
                .duration(Seconds::new(0.1))
                .walkers(0);
        for i in 0..20 {
            let az = -50.0 + 100.0 * (i as f64 + 0.5) / 20.0;
            let pos = ap_pose().position + Vec2::from_bearing(Degrees::new(180.0 + az)) * 3.5;
            let pos = Vec2::new(pos.x.clamp(0.3, 5.4), pos.y.clamp(0.3, 3.7));
            b = b.node(MmxNode::hd_camera(
                i,
                Pose::facing_toward(pos, ap_pose().position),
            ));
        }
        let report = b.run().expect("SDM handles 20 nodes");
        assert!(report.used_sdm);
    }
}
