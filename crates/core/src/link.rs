//! The single-link evaluator — the engine of Figs. 10, 11 and 12.
//!
//! Every single-node experiment in the paper asks the same question: for
//! a node at pose X (with people walking around), what SNR does the AP
//! see *with* OTAM (both beams, modulation over the air) and *without*
//! it (ASK transmitted through Beam 1 only)? [`Testbed::observe`]
//! answers it, returning both SNRs, the derived BERs, and the channel
//! diagnostics.

use crate::config::{
    noise_floor, ASK_THRESHOLD, CARRIER, CHANNEL_BANDWIDTH, IMPLEMENTATION_LOSS, NOISE_FIGURE,
    PATH_LOSS_EXPONENT, TX_POWER,
};
use mmx_antenna::beams::{NodeBeams, OtamBeam};
use mmx_antenna::element::Element;
use mmx_channel::blockage::HumanBlocker;
use mmx_channel::response::{beam_channel, BeamChannel, Pose};
use mmx_channel::room::Room;
use mmx_channel::trace::Tracer;
use mmx_channel::Vec2;
use mmx_phy::ber::{ask_ber, joint_ber};
use mmx_units::{Db, Degrees};

/// One link measurement.
#[derive(Debug, Clone)]
pub struct LinkObservation {
    /// SNR with OTAM: the stronger beam's receive power over the noise
    /// floor (what Fig. 10(b)/Fig. 12 plot).
    pub snr_otam: Db,
    /// SNR without OTAM: Beam 1 only (Fig. 10(a)'s scenario).
    pub snr_beam1: Db,
    /// OTAM envelope-level separation (ASK depth).
    pub separation: Db,
    /// Whether the OTAM polarity is inverted (LoS-blocked regime).
    pub inverted: bool,
    /// BER with OTAM (joint ASK–FSK demodulation).
    pub ber_otam: f64,
    /// BER without OTAM (ASK through Beam 1; OOK decision).
    pub ber_beam1: f64,
    /// The raw per-beam channel.
    pub channel: BeamChannel,
}

/// The experimental testbed: a room and an AP, at the shared operating
/// point of [`crate::config`].
#[derive(Debug, Clone)]
pub struct Testbed {
    room: Room,
    ap: Pose,
    beams: NodeBeams,
}

impl Testbed {
    /// Creates a testbed.
    pub fn new(room: Room, ap: Pose) -> Self {
        let beams = NodeBeams::orthogonal(CARRIER);
        Testbed { room, ap, beams }
    }

    /// The paper's testbed: the 6 m × 4 m lab with the AP centered on
    /// the east wall, facing west (§9.2: "we place mmX's AP on one side
    /// of the room").
    pub fn paper_default() -> Self {
        let room = Room::paper_lab();
        let ap = Pose::new(Vec2::new(5.8, 2.0), Degrees::new(180.0));
        Testbed::new(room, ap)
    }

    /// The room.
    pub fn room(&self) -> &Room {
        &self.room
    }

    /// The AP pose.
    pub fn ap(&self) -> Pose {
        self.ap
    }

    /// The node beam assembly.
    pub fn beams(&self) -> &NodeBeams {
        &self.beams
    }

    /// A node pose at `position` facing the AP.
    pub fn node_pose_at(&self, position: Vec2) -> Pose {
        Pose::facing_toward(position, self.ap.position)
    }

    /// The per-beam channel from a node pose under the given blockers.
    pub fn channel(&self, node: Pose, blockers: &[HumanBlocker]) -> BeamChannel {
        let tracer = Tracer::new(&self.room, CARRIER, PATH_LOSS_EXPONENT);
        beam_channel(
            &tracer,
            node,
            self.ap,
            &self.beams,
            Element::ApDipole,
            blockers,
        )
    }

    /// SNR through a beam whose channel gain is `gain`.
    pub fn snr_of_gain(gain: Db) -> Db {
        (TX_POWER - IMPLEMENTATION_LOSS + gain) - noise_floor()
    }

    /// Measures the link at a node pose.
    pub fn observe(&self, node: Pose, blockers: &[HumanBlocker]) -> LinkObservation {
        let channel = self.channel(node, blockers);
        let mark = channel.gain(channel.stronger_beam());
        let beam1 = channel.gain(OtamBeam::Beam1);
        let snr_otam = Self::snr_of_gain(mark);
        let snr_beam1 = Self::snr_of_gain(beam1);
        let separation = channel.level_separation();
        LinkObservation {
            snr_otam,
            snr_beam1,
            separation,
            inverted: channel.inverted(),
            ber_otam: joint_ber(snr_otam, separation, ASK_THRESHOLD),
            // Without OTAM, the node transmits a radio-modulated OOK
            // signal through Beam 1; the decision quality is set by Beam
            // 1's SNR alone (infinite level separation).
            ber_beam1: ask_ber(snr_beam1, Db::new(f64::INFINITY)),
            channel,
        }
    }

    /// Builds an [`mmx_phy::OtamLink`] over the channel at a node pose —
    /// for waveform-level (sample-accurate) experiments.
    pub fn otam_link(&self, node: Pose, blockers: &[HumanBlocker]) -> mmx_phy::OtamLink {
        let channel = self.channel(node, blockers);
        let mut cfg = mmx_phy::OtamConfig::standard();
        cfg.sample_rate = CHANNEL_BANDWIDTH;
        cfg.tx_power = TX_POWER;
        cfg.noise_figure = NOISE_FIGURE;
        cfg.implementation_loss = IMPLEMENTATION_LOSS;
        cfg.min_ask_separation = ASK_THRESHOLD;
        mmx_phy::OtamLink::new(cfg, channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb() -> Testbed {
        Testbed::paper_default()
    }

    #[test]
    fn facing_node_has_strong_link() {
        let t = tb();
        let obs = t.observe(t.node_pose_at(Vec2::new(1.5, 2.0)), &[]);
        assert!(obs.snr_otam.value() > 25.0, "SNR = {}", obs.snr_otam);
        assert!(obs.ber_otam < 1e-12);
        assert!(!obs.inverted);
    }

    #[test]
    fn otam_never_below_beam1() {
        // OTAM picks the stronger beam; Beam-1-only is a lower bound.
        let t = tb();
        for (x, y, az) in [
            (1.0, 1.0, 0.0),
            (2.0, 3.0, -30.0),
            (0.7, 2.2, 45.0),
            (3.3, 0.8, 20.0),
        ] {
            let pose = Pose::new(Vec2::new(x, y), Degrees::new(az));
            let obs = t.observe(pose, &[]);
            assert!(
                obs.snr_otam >= obs.snr_beam1 - Db::new(1e-9),
                "at ({x},{y},{az}): otam {} < beam1 {}",
                obs.snr_otam,
                obs.snr_beam1
            );
        }
    }

    #[test]
    fn rotated_node_relies_on_otam() {
        // Rotate the node so the AP sits near Beam 1's null: without
        // OTAM the link collapses, with OTAM Beam 0 carries it.
        let t = tb();
        let pos = Vec2::new(1.5, 2.0);
        let facing = (t.ap().position - pos).bearing();
        let rotated = Pose::new(pos, facing + Degrees::new(30.0));
        let obs = t.observe(rotated, &[]);
        assert!(
            (obs.snr_otam - obs.snr_beam1).value() > 10.0,
            "otam {} vs beam1 {}",
            obs.snr_otam,
            obs.snr_beam1
        );
        assert!(obs.ber_otam < obs.ber_beam1);
    }

    #[test]
    fn blocked_los_inverts_and_survives() {
        let t = tb();
        let pose = t.node_pose_at(Vec2::new(1.0, 2.0));
        let blocker = HumanBlocker {
            position: Vec2::new(3.4, 2.0),
            radius: 0.25,
            loss: mmx_units::Db::new(40.0),
        };
        let obs = t.observe(pose, &[blocker]);
        assert!(obs.inverted);
        // OTAM still delivers a usable link via reflections.
        assert!(obs.snr_otam.value() > 5.0, "SNR = {}", obs.snr_otam);
    }

    #[test]
    fn snr_decreases_with_distance() {
        let t = tb();
        let near = t.observe(t.node_pose_at(Vec2::new(4.5, 2.0)), &[]);
        let far = t.observe(t.node_pose_at(Vec2::new(0.5, 2.0)), &[]);
        assert!(near.snr_otam > far.snr_otam);
    }

    #[test]
    fn otam_link_snr_matches_observation() {
        let t = tb();
        let pose = t.node_pose_at(Vec2::new(1.5, 2.0));
        let obs = t.observe(pose, &[]);
        let link = t.otam_link(pose, &[]);
        // The OtamLink's symbol-band SNR = channel-band SNR + 10·log10(sps).
        let gap = link.theoretical_snr().value() - (obs.snr_otam.value() + 10.0 * 25f64.log10());
        assert!(gap.abs() < 0.5, "gap = {gap} dB");
    }

    #[test]
    fn doctest_surface() {
        // Mirror of the crate-level example.
        let testbed = Testbed::paper_default();
        let obs = testbed.observe(testbed.node_pose_at(Vec2::new(1.5, 2.0)), &[]);
        assert!(obs.snr_otam.value() > 10.0);
        assert!(obs.ber_otam < 1e-8);
    }
}
