//! Ready-made deployments: the applications §1 motivates.
//!
//! * [`smart_home`] — "connect IoT sensors (cameras, TVs, etc.) to a home
//!   hub".
//! * [`surveillance`] — "wireless connectivity to surveillance cameras in
//!   public areas such as malls, banks, libraries, and parks".
//! * [`vehicle`] — "connect their high data rate cameras and sensors to
//!   their in-vehicle access points" (8 cameras for 360° coverage).
//!
//! Each returns a [`NetworkSim`] at [`SimConfig::standard`]; set its
//! duration, seed or walkers through [`NetworkSim::config_mut`].

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_net::ap::ApStation;
use mmx_net::node::NodeStation;
use mmx_net::sim::{NetworkSim, SimConfig};
use mmx_units::{BitRate, Degrees, Hertz};

/// A smart home: the paper's 6 m × 4 m room, a hub AP on the east wall,
/// and `cameras` HD cameras spread along the walls, all facing the hub.
pub fn smart_home(cameras: usize) -> NetworkSim {
    assert!(cameras >= 1, "need at least one camera");
    let room = Room::paper_lab();
    let hub = Vec2::new(5.8, 2.0);
    let ap = ApStation::with_tma(Pose::new(hub, Degrees::new(180.0)), 8, Hertz::from_mhz(1.0));
    let mut sim = NetworkSim::new(room, ap, SimConfig::standard());
    for i in 0..cameras {
        let frac = (i as f64 + 0.5) / cameras as f64;
        // Spread along the west and north/south walls.
        let pos = if frac < 0.34 {
            Vec2::new(0.4, 0.5 + 3.0 * (frac / 0.34))
        } else if frac < 0.67 {
            Vec2::new(0.5 + 4.0 * ((frac - 0.34) / 0.33), 0.4)
        } else {
            Vec2::new(0.5 + 4.0 * ((frac - 0.67) / 0.33), 3.6)
        };
        sim.add_node(NodeStation::hd_camera(
            i as u16,
            Pose::facing_toward(pos, hub),
        ));
    }
    sim
}

/// A mall atrium: a 20 m × 12 m hall with concrete walls, an AP high on
/// one wall, and `cameras` 4K surveillance cameras (25 Mbps each) along
/// the perimeter.
pub fn surveillance(cameras: usize) -> NetworkSim {
    assert!(cameras >= 1, "need at least one camera");
    let room = Room::rectangular(20.0, 12.0, Material::Concrete);
    let ap_pos = Vec2::new(19.5, 6.0);
    let ap = ApStation::with_tma(
        Pose::new(ap_pos, Degrees::new(180.0)),
        8,
        Hertz::from_mhz(1.0),
    );
    let mut sim = NetworkSim::new(room, ap, SimConfig::standard());
    for i in 0..cameras {
        let frac = (i as f64 + 0.5) / cameras as f64;
        let pos = Vec2::new(0.5 + 15.0 * frac, if i % 2 == 0 { 0.5 } else { 11.5 });
        sim.add_node(NodeStation::new(
            i as u16,
            Pose::facing_toward(pos, ap_pos),
            BitRate::from_mbps(25.0),
        ));
    }
    sim
}

/// An autonomous car cabin: a 4.8 m × 1.9 m interior (metal walls — a
/// rich reflector environment), the in-vehicle AP at the dash center,
/// and 8 surround cameras (Tesla-style, §1 footnote 2) at 20 Mbps each.
pub fn vehicle() -> NetworkSim {
    let room = Room::rectangular(4.8, 1.9, Material::Metal);
    let ap_pos = Vec2::new(4.3, 0.95);
    let ap = ApStation::with_tma(
        Pose::new(ap_pos, Degrees::new(180.0)),
        8,
        Hertz::from_mhz(1.0),
    );
    let positions = [
        (0.2, 0.2),
        (0.2, 1.7),
        (1.4, 0.15),
        (1.4, 1.75),
        (2.6, 0.15),
        (2.6, 1.75),
        (3.8, 0.2),
        (3.8, 1.7),
    ];
    let mut cfg = SimConfig::standard();
    cfg.walkers = 0;
    let mut sim = NetworkSim::new(room, ap, cfg);
    for (i, &(x, y)) in positions.iter().enumerate() {
        sim.add_node(NodeStation::new(
            i as u16,
            Pose::facing_toward(Vec2::new(x, y), ap_pos),
            BitRate::from_mbps(20.0),
        ));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_net::sim::NetworkReport;
    use mmx_units::Seconds;

    /// Runs a preset for 0.2 s with no walkers.
    fn run(mut sim: NetworkSim) -> NetworkReport {
        let cfg = sim.config_mut();
        cfg.duration = Seconds::new(0.2);
        cfg.walkers = 0;
        sim.run().expect("runs")
    }

    #[test]
    fn smart_home_streams_cleanly() {
        let report = run(smart_home(6));
        assert_eq!(report.nodes.len(), 6);
        for n in &report.nodes {
            assert!(n.per < 0.2, "camera {} PER = {}", n.id, n.per);
        }
    }

    #[test]
    fn surveillance_covers_the_hall() {
        let report = run(surveillance(8));
        // A 20 m hall: the far cameras run at ~19 m, the paper's range
        // limit; most must still deliver.
        let delivering = report.nodes.iter().filter(|n| n.per < 0.5).count();
        assert!(delivering >= 6, "only {delivering}/8 cameras deliver");
    }

    #[test]
    fn vehicle_uses_sdm() {
        // 8 × 20 Mbps = 160 Mbps of demand → 8×25 MHz channels exceed
        // the band with guards? They fit; force SDM by demand: total
        // width = 8 × 25 MHz = 200 + guards fits 250. So FDM is fine —
        // assert the run simply works with the metal cabin.
        let report = run(vehicle());
        assert_eq!(report.nodes.len(), 8);
        for n in &report.nodes {
            assert!(n.mean_sinr_db > 10.0, "camera {}: {}", n.id, n.mean_sinr_db);
        }
    }

    #[test]
    #[should_panic(expected = "at least one camera")]
    fn empty_home_rejected() {
        let _ = smart_home(0);
    }
}
