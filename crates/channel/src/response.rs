//! Collapsing traced paths into per-beam complex channel gains.
//!
//! OTAM's entire premise is that the channel seen through Beam 1 differs
//! from the channel seen through Beam 0 (§6.1). This module computes those
//! two complex gains from the traced multipath geometry: each path
//! contributes its spreading/reflection/obstruction amplitude, its carrier
//! phase (`2πd/λ`), the node beam's complex response at the departure
//! bearing, and the AP element's amplitude at the arrival bearing.

use crate::blockage::HumanBlocker;
use crate::geometry::Vec2;
use crate::trace::{Legs, PropPath, Tracer};
use mmx_antenna::beams::{NodeBeams, OtamBeam};
use mmx_antenna::element::Element;
use mmx_dsp::Complex;
use mmx_units::{Db, Degrees};

/// Position and facing direction of a radio in the room.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Position in room coordinates.
    pub position: Vec2,
    /// World-frame bearing of the antenna boresight.
    pub facing: Degrees,
}

impl Pose {
    /// Creates a pose.
    pub fn new(position: Vec2, facing: Degrees) -> Self {
        Pose { position, facing }
    }

    /// A pose facing directly at a target point.
    pub fn facing_toward(position: Vec2, target: Vec2) -> Self {
        Pose {
            position,
            facing: (target - position).bearing(),
        }
    }
}

/// The complex channel gain of each node beam toward the AP.
///
/// Gains are *amplitude* transfer factors: received field = transmitted
/// field × `h`. `|h|²` in dB is the link's power gain (a negative number;
/// it includes antenna gains and all propagation losses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamChannel {
    /// Complex gain through Beam 0.
    pub h0: Complex,
    /// Complex gain through Beam 1.
    pub h1: Complex,
}

impl BeamChannel {
    /// Power gain through a given beam.
    pub fn gain(&self, beam: OtamBeam) -> Db {
        let h = match beam {
            OtamBeam::Beam0 => self.h0,
            OtamBeam::Beam1 => self.h1,
        };
        Db::from_linear(h.norm_sq())
    }

    /// The stronger beam at the AP right now.
    pub fn stronger_beam(&self) -> OtamBeam {
        if self.h1.norm_sq() >= self.h0.norm_sq() {
            OtamBeam::Beam1
        } else {
            OtamBeam::Beam0
        }
    }

    /// The ASK modulation depth OTAM produces: `| |h1| − |h0| | / max`,
    /// expressed as the dB separation of the two envelope levels. Small
    /// separation = the "similar loss" corner case that needs FSK (§6.3).
    pub fn level_separation(&self) -> Db {
        let a0 = self.h0.abs();
        let a1 = self.h1.abs();
        let (hi, lo) = if a1 >= a0 { (a1, a0) } else { (a0, a1) };
        if lo == 0.0 {
            Db::new(f64::INFINITY)
        } else {
            Db::from_amplitude(hi / lo)
        }
    }

    /// True when the transmitted bits arrive inverted (Beam 0 stronger
    /// than Beam 1 — the blocked-LoS regime of Fig. 4b).
    pub fn inverted(&self) -> bool {
        self.h0.norm_sq() > self.h1.norm_sq()
    }
}

/// Computes the per-beam channel between a node and the AP.
///
/// `tracer` supplies geometry and loss; `beams` the node's two arrays;
/// `ap_element` the AP antenna. Departure angles are evaluated relative to
/// the node's facing, arrivals relative to the AP's facing.
pub fn beam_channel(
    tracer: &Tracer<'_>,
    node: Pose,
    ap: Pose,
    beams: &NodeBeams,
    ap_element: Element,
    blockers: &[HumanBlocker],
) -> BeamChannel {
    let mut paths = Vec::new();
    beam_channel_into(tracer, node, ap, beams, ap_element, blockers, &mut paths)
}

/// [`beam_channel`] with a caller-owned path buffer.
///
/// `paths` is used as scratch for the ray trace (cleared and refilled,
/// reusing its allocation) — the per-packet entry point of the
/// simulator's hot loop, where one buffer per worker context replaces a
/// `Vec` allocation per packet. Everything here is `&self`-re-entrant:
/// concurrent calls on one `Tracer` with distinct buffers are safe.
#[allow(clippy::too_many_arguments)]
pub fn beam_channel_into(
    tracer: &Tracer<'_>,
    node: Pose,
    ap: Pose,
    beams: &NodeBeams,
    ap_element: Element,
    blockers: &[HumanBlocker],
    paths: &mut Vec<PropPath>,
) -> BeamChannel {
    tracer.trace_into(node.position, ap.position, blockers, paths);
    let mut h0 = Complex::ZERO;
    let mut h1 = Complex::ZERO;
    for p in paths.iter() {
        let (c0, c1) = path_contributions(tracer, p, node, ap, beams, ap_element);
        h0 += c0;
        h1 += c1;
    }
    BeamChannel { h0, h1 }
}

/// The static links of a run, each traced once.
///
/// Neither a node nor an AP moves, and the path set between them does
/// not depend on where people stand — the tracer keeps or drops every
/// path on static geometry alone — so the trace, the bearings, the
/// node-beam response and the AP-element amplitude of every path are
/// fixed for the run. Only the walkers' blockage changes from packet to
/// packet. [`LinkPlans::channel`] equals [`beam_channel_into`] under the
/// same blockers bit for bit: with no blocker on any leg it returns the
/// link's clear channel, and otherwise it redoes the loss → amplitude →
/// phasor steps of the blocked paths in [`beam_channel_into`]'s
/// operation order.
///
/// All links' path terms share one buffer: a run holds thousands of
/// links, and one allocation per link measured +0.8 MB peak RSS on a
/// 200-node run with walkers.
#[derive(Debug, Default)]
pub struct LinkPlans {
    /// Keep per-path terms, so blockers can be added.
    walkers: bool,
    links: Vec<PlannedLink>,
    /// Every link's path terms, link after link, each in trace order.
    terms: Vec<PathTerm>,
}

/// One link of a [`LinkPlans`].
#[derive(Debug)]
struct PlannedLink {
    /// The channel with no human blocker in the room.
    clear: BeamChannel,
    /// Node and AP positions: the outer ends of every path's legs.
    ends: (Vec2, Vec2),
    /// The link's terms in [`LinkPlans::terms`] (empty without walkers).
    terms: std::ops::Range<usize>,
}

/// What one path contributes, split into the part blockers change (the
/// obstruction of its legs) and the part they do not.
#[derive(Debug)]
struct PathTerm {
    legs: Legs,
    reflection: Db,
    /// `path_loss(freq, length, exponent)`.
    spreading: Db,
    /// `cos`/`sin` of the carrier phase `−2πd/λ`.
    cos: f64,
    sin: f64,
    /// Each node beam's response at the departure bearing, scaled by the
    /// AP element's amplitude at the arrival bearing.
    resp: (Complex, Complex),
    /// The amplitude with no blocker on the path.
    clear_amp: f64,
}

impl PathTerm {
    /// The amplitude at obstruction `obstruction`.
    fn amplitude(&self, obstruction: Db) -> f64 {
        (-(self.spreading + (self.reflection + obstruction))).amplitude()
    }

    /// Both beams' contributions at amplitude `amp`.
    fn contributions(&self, amp: f64) -> (Complex, Complex) {
        let base = Complex::new(amp * self.cos, amp * self.sin);
        (base * self.resp.0, base * self.resp.1)
    }
}

impl LinkPlans {
    /// No links yet. With `walkers` every link keeps its per-path terms
    /// so [`Self::channel`] can add blockers; without, a link holds only
    /// its clear channel and takes none.
    pub fn new(walkers: bool) -> Self {
        LinkPlans {
            walkers,
            ..LinkPlans::default()
        }
    }

    /// Traces the link between `node` and `ap` once. Links are numbered
    /// from 0 in the order they are pushed.
    pub fn push(
        &mut self,
        tracer: &Tracer<'_>,
        node: Pose,
        ap: Pose,
        beams: &NodeBeams,
        ap_element: Element,
    ) {
        let ends = (node.position, ap.position);
        let lambda = tracer.freq().wavelength_m();
        let start = self.terms.len();
        let (mut h0, mut h1) = (Complex::ZERO, Complex::ZERO);
        tracer.for_each_path(ends.0, ends.1, |p, legs| {
            let phase = -2.0 * std::f64::consts::PI * p.length_m / lambda;
            let departure_rel = (p.departure - node.facing).wrapped();
            let ap_amp = ap_element.amplitude((p.arrival - ap.facing).wrapped());
            let mut term = PathTerm {
                legs,
                reflection: p.reflection_loss,
                spreading: tracer.spreading_loss(p.length_m),
                cos: phase.cos(),
                sin: phase.sin(),
                resp: (
                    beams.response(OtamBeam::Beam0, departure_rel).scale(ap_amp),
                    beams.response(OtamBeam::Beam1, departure_rel).scale(ap_amp),
                ),
                clear_amp: 0.0,
            };
            term.clear_amp = term.amplitude(legs.obstruction(ends.0, ends.1, &[]).0);
            let (c0, c1) = term.contributions(term.clear_amp);
            h0 += c0;
            h1 += c1;
            if self.walkers {
                self.terms.push(term);
            }
        });
        self.links.push(PlannedLink {
            clear: BeamChannel { h0, h1 },
            ends,
            terms: start..self.terms.len(),
        });
    }

    /// Link `k`'s channel under `blockers`.
    ///
    /// # Panics
    ///
    /// If `blockers` is not empty and the plans were made without
    /// walkers.
    pub fn channel(&self, k: usize, blockers: &[HumanBlocker]) -> BeamChannel {
        self.blocked(k, blockers).unwrap_or(self.links[k].clear)
    }

    /// Link `k`'s channel under `blockers` when at least one of them
    /// touches a leg of some path, `None` when none does (the channel is
    /// then exactly the clear one). Paths no blocker touches keep their
    /// clear amplitude; the sum runs in path order, as the trace's does.
    fn blocked(&self, k: usize, blockers: &[HumanBlocker]) -> Option<BeamChannel> {
        if blockers.is_empty() {
            return None;
        }
        assert!(
            self.walkers,
            "links planned without walkers cannot take blockers"
        );
        let link = &self.links[k];
        let (node, ap) = link.ends;
        let mut touched = false;
        let (mut h0, mut h1) = (Complex::ZERO, Complex::ZERO);
        for term in &self.terms[link.terms.clone()] {
            let (obstruction, hit) = term.legs.obstruction(node, ap, blockers);
            let amp = if hit {
                term.amplitude(obstruction)
            } else {
                term.clear_amp
            };
            let (c0, c1) = term.contributions(amp);
            touched |= hit;
            h0 += c0;
            h1 += c1;
        }
        touched.then_some(BeamChannel { h0, h1 })
    }
}

fn path_contributions(
    tracer: &Tracer<'_>,
    path: &PropPath,
    node: Pose,
    ap: Pose,
    beams: &NodeBeams,
    ap_element: Element,
) -> (Complex, Complex) {
    let loss = tracer.total_loss(path);
    let amp = (-loss).amplitude();
    let lambda = tracer.freq().wavelength_m();
    let phase = -2.0 * std::f64::consts::PI * path.length_m / lambda;
    let base = Complex::from_polar(amp, phase);

    let departure_rel = (path.departure - node.facing).wrapped();
    let arrival_rel = (path.arrival - ap.facing).wrapped();
    let ap_amp = ap_element.amplitude(arrival_rel);

    let c0 = base * beams.response(OtamBeam::Beam0, departure_rel).scale(ap_amp);
    let c1 = base * beams.response(OtamBeam::Beam1, departure_rel).scale(ap_amp);
    (c0, c1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::room::{Material, Room};
    use mmx_units::Hertz;

    fn setup() -> (Room, NodeBeams) {
        (
            Room::rectangular(6.0, 4.0, Material::Drywall),
            NodeBeams::orthogonal(Hertz::from_ghz(24.0)),
        )
    }

    fn probe(
        room: &Room,
        beams: &NodeBeams,
        node: Pose,
        ap: Pose,
        blockers: &[HumanBlocker],
    ) -> BeamChannel {
        let tracer = Tracer::new(room, Hertz::from_ghz(24.0), 2.0);
        beam_channel(&tracer, node, ap, beams, Element::ApDipole, blockers)
    }

    #[test]
    fn facing_node_has_stronger_beam1() {
        let (room, beams) = setup();
        let node = Pose::facing_toward(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0));
        let ap = Pose::facing_toward(Vec2::new(5.0, 2.0), Vec2::new(1.0, 2.0));
        let ch = probe(&room, &beams, node, ap, &[]);
        assert_eq!(ch.stronger_beam(), OtamBeam::Beam1);
        assert!(!ch.inverted());
        // Clear LoS on Beam 1 vs reflections-only on Beam 0: a healthy
        // ASK depth.
        assert!(ch.level_separation().value() > 5.0);
    }

    #[test]
    fn both_beams_carry_some_energy() {
        let (room, beams) = setup();
        let node = Pose::facing_toward(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0));
        let ap = Pose::facing_toward(Vec2::new(5.0, 2.0), Vec2::new(1.0, 2.0));
        let ch = probe(&room, &beams, node, ap, &[]);
        assert!(ch.h1.abs() > 0.0);
        assert!(ch.h0.abs() > 0.0, "Beam 0 must reach the AP via walls");
    }

    #[test]
    fn blocked_los_inverts_the_channel() {
        // Fig. 4(b): a person on the LoS kills Beam 1's direct path; Beam
        // 0's reflected paths win and all bits invert.
        let (room, beams) = setup();
        let node = Pose::facing_toward(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0));
        let ap = Pose::facing_toward(Vec2::new(5.0, 2.0), Vec2::new(1.0, 2.0));
        let blocker = HumanBlocker {
            position: Vec2::new(3.0, 2.0),
            radius: 0.25,
            loss: Db::new(40.0), // a solid block for the test
        };
        let clear = probe(&room, &beams, node, ap, &[]);
        let blocked = probe(&room, &beams, node, ap, &[blocker]);
        assert!(!clear.inverted());
        assert!(blocked.inverted(), "blocked LoS must invert polarity");
        // Beam 1 lost power; Beam 0 kept its reflected paths.
        assert!(blocked.gain(OtamBeam::Beam1) < clear.gain(OtamBeam::Beam1));
        let b0_drop = (clear.gain(OtamBeam::Beam0) - blocked.gain(OtamBeam::Beam0))
            .value()
            .abs();
        assert!(b0_drop < 3.0, "Beam 0 should barely notice ({b0_drop} dB)");
    }

    #[test]
    fn channel_gain_magnitude_is_physical() {
        // 4 m LoS at 24 GHz: spreading ~72 dB, antenna gains ~ +14 dB;
        // |h1|² should land around −60 dB, certainly within (−90, −40).
        let (room, beams) = setup();
        let node = Pose::facing_toward(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0));
        let ap = Pose::facing_toward(Vec2::new(5.0, 2.0), Vec2::new(1.0, 2.0));
        let ch = probe(&room, &beams, node, ap, &[]);
        let g = ch.gain(OtamBeam::Beam1).value();
        assert!((-90.0..=-40.0).contains(&g), "gain = {g} dB");
    }

    #[test]
    fn rotating_the_node_changes_beam_balance() {
        let (room, beams) = setup();
        let ap = Pose::facing_toward(Vec2::new(5.0, 2.0), Vec2::new(1.0, 2.0));
        let facing = probe(
            &room,
            &beams,
            Pose::new(Vec2::new(1.0, 2.0), Degrees::new(0.0)),
            ap,
            &[],
        );
        // Rotate the node 30°: now the AP sits on a Beam 0 arm.
        let rotated = probe(
            &room,
            &beams,
            Pose::new(Vec2::new(1.0, 2.0), Degrees::new(30.0)),
            ap,
            &[],
        );
        assert!(facing.gain(OtamBeam::Beam1) > rotated.gain(OtamBeam::Beam1));
        assert!(rotated.gain(OtamBeam::Beam0) > facing.gain(OtamBeam::Beam0));
    }

    #[test]
    fn farther_ap_weaker_channel() {
        let (room, beams) = setup();
        let node = Pose::new(Vec2::new(0.5, 2.0), Degrees::new(0.0));
        let near = probe(
            &room,
            &beams,
            node,
            Pose::facing_toward(Vec2::new(2.0, 2.0), Vec2::new(0.5, 2.0)),
            &[],
        );
        let far = probe(
            &room,
            &beams,
            node,
            Pose::facing_toward(Vec2::new(5.5, 2.0), Vec2::new(0.5, 2.0)),
            &[],
        );
        assert!(near.gain(OtamBeam::Beam1) > far.gain(OtamBeam::Beam1));
    }

    #[test]
    fn level_separation_of_dead_beam_is_infinite() {
        let ch = BeamChannel {
            h0: Complex::ZERO,
            h1: Complex::new(1e-3, 0.0),
        };
        assert!(!ch.level_separation().is_finite());
        assert!(ch.level_separation().value() > 0.0);
    }

    #[test]
    fn beam_channel_into_matches_beam_channel() {
        let (room, beams) = setup();
        let node = Pose::facing_toward(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0));
        let ap = Pose::facing_toward(Vec2::new(5.0, 2.0), Vec2::new(1.0, 2.0));
        let tracer = Tracer::new(&room, Hertz::from_ghz(24.0), 2.0);
        let plain = beam_channel(&tracer, node, ap, &beams, Element::ApDipole, &[]);
        let mut scratch = Vec::new();
        for _ in 0..3 {
            let scratched = beam_channel_into(
                &tracer,
                node,
                ap,
                &beams,
                Element::ApDipole,
                &[],
                &mut scratch,
            );
            assert_eq!(plain, scratched);
        }
    }

    #[test]
    fn clear_shortcut_is_taken_exactly_when_no_blocker_touches_a_leg() {
        // One blocker on every point of a 10 cm grid over the paper lab,
        // first and second order. "Touches a leg" is judged from the
        // public trace: with a positive loss, a blocker on a leg raises
        // that path's obstruction.
        let room = Room::paper_lab();
        let beams = NodeBeams::orthogonal(Hertz::from_ghz(24.0));
        let node = Pose::new(Vec2::new(1.2, 1.1), Degrees::new(20.0));
        let ap = Pose::facing_toward(Vec2::new(5.2, 2.6), Vec2::new(1.2, 1.1));
        for second_order in [false, true] {
            let tracer =
                Tracer::new(&room, Hertz::from_ghz(24.0), 2.0).with_second_order(second_order);
            let mut plan = LinkPlans::new(true);
            plan.push(&tracer, node, ap, &beams, Element::ApDipole);
            let clear = tracer.trace(node.position, ap.position, &[]);
            let (mut taken, mut recomputed) = (0, 0);
            for x in 1..60 {
                for y in 1..40 {
                    let at = Vec2::new(x as f64 * 0.1, y as f64 * 0.1);
                    let blockers = [HumanBlocker::typical(at)];
                    let traced = tracer.trace(node.position, ap.position, &blockers);
                    let touches = (traced.iter().zip(&clear))
                        .any(|(b, c)| b.obstruction_loss != c.obstruction_loss);
                    let blocked = plan.blocked(0, &blockers);
                    assert_eq!(blocked.is_some(), touches, "blocker at {at:?}");
                    match blocked {
                        Some(_) => recomputed += 1,
                        None => {
                            assert_eq!(plan.channel(0, &blockers), plan.channel(0, &[]));
                            taken += 1;
                        }
                    }
                }
            }
            assert!(
                taken > 100 && recomputed > 100,
                "{taken} clear, {recomputed} blocked"
            );
        }
    }

    #[test]
    #[should_panic(expected = "without walkers")]
    fn a_still_plan_refuses_blockers() {
        let (room, beams) = setup();
        let tracer = Tracer::new(&room, Hertz::from_ghz(24.0), 2.0);
        let node = Pose::facing_toward(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0));
        let ap = Pose::facing_toward(Vec2::new(5.0, 2.0), Vec2::new(1.0, 2.0));
        let mut plan = LinkPlans::new(false);
        plan.push(&tracer, node, ap, &beams, Element::ApDipole);
        plan.channel(0, &[HumanBlocker::typical(Vec2::new(3.0, 2.0))]);
    }

    #[test]
    fn pose_facing_toward_points_correctly() {
        let p = Pose::facing_toward(Vec2::new(0.0, 0.0), Vec2::new(0.0, 3.0));
        assert!((p.facing.value() - 90.0).abs() < 1e-12);
    }
}
