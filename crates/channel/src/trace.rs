//! Path enumeration: line of sight plus first-order specular reflections.
//!
//! "Past measurement studies show that in mmWave communication, typically
//! there are a few paths between two nodes" (§2, citing BeamSpy). We
//! enumerate exactly those: the direct path and one image-method bounce
//! off every reflective surface, each annotated with its geometric length,
//! departure/arrival bearings, reflection loss, and the obstruction losses
//! collected along the way.

use crate::blockage::HumanBlocker;
use crate::geometry::{Segment, Vec2};
use crate::pathloss::path_loss;
use crate::room::Room;
use mmx_units::{Db, Degrees, Hertz};

/// Fraction of a human blocker's loss that applies to floor/ceiling
/// bounces (the ray clips legs or head instead of the torso).
pub const PARTIAL_BODY_FRACTION: f64 = 0.4;

/// How a path gets from node to AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// The direct path.
    LineOfSight,
    /// One specular bounce off surface `surface` (index into
    /// [`Room::surfaces`]).
    Reflected {
        /// Index of the reflecting surface.
        surface: usize,
    },
    /// Two specular bounces: off `first`, then `second` (opt-in via
    /// [`Tracer::with_second_order`]).
    Reflected2 {
        /// First reflecting surface.
        first: usize,
        /// Second reflecting surface.
        second: usize,
    },
    /// A floor bounce (pseudo-3D): same azimuth as the LoS, longer by
    /// the vertical geometry, and it passes *under* human torsos — the
    /// path that keeps blocked indoor links alive.
    FloorBounce,
    /// A ceiling bounce: the over-the-head counterpart.
    CeilingBounce,
}

/// One propagation path between a node and the AP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropPath {
    /// Path type.
    pub kind: PathKind,
    /// Total geometric length in meters.
    pub length_m: f64,
    /// World-frame bearing at which the path *leaves the node*.
    pub departure: Degrees,
    /// World-frame bearing from the AP *toward the incoming wavefront*.
    pub arrival: Degrees,
    /// Reflection loss (zero for LoS).
    pub reflection_loss: Db,
    /// Penetration losses from static obstacles and human blockers.
    pub obstruction_loss: Db,
}

impl PropPath {
    /// Total excess loss beyond distance spreading.
    pub fn excess_loss(&self) -> Db {
        self.reflection_loss + self.obstruction_loss
    }

    /// True when any obstruction sits on the path.
    pub fn is_obstructed(&self) -> bool {
        self.obstruction_loss.value() > 0.0
    }
}

/// Vertical geometry for the pseudo-3D floor/ceiling bounces.
#[derive(Debug, Clone, Copy)]
pub struct Heights {
    /// Node antenna height above the floor, meters.
    pub node: f64,
    /// AP antenna height, meters.
    pub ap: f64,
    /// Ceiling height, meters.
    pub ceiling: f64,
    /// Floor reflection loss.
    pub floor_loss: Db,
    /// Ceiling reflection loss.
    pub ceiling_loss: Db,
}

impl Default for Heights {
    fn default() -> Self {
        Heights {
            node: 1.0,
            ap: 1.5,
            ceiling: 2.7,
            floor_loss: Db::new(9.0),
            ceiling_loss: Db::new(11.0),
        }
    }
}

/// Traces paths between node and AP positions through a [`Room`].
#[derive(Debug, Clone)]
pub struct Tracer<'a> {
    room: &'a Room,
    freq: Hertz,
    exponent: f64,
    heights: Heights,
    second_order: bool,
}

impl<'a> Tracer<'a> {
    /// Creates a tracer for `room` at carrier `freq` with the LoS
    /// path-loss exponent `exponent` (2.0 for free space).
    pub fn new(room: &'a Room, freq: Hertz, exponent: f64) -> Self {
        assert!(exponent > 0.0, "exponent must be positive");
        Tracer {
            room,
            freq,
            exponent,
            heights: Heights::default(),
            second_order: false,
        }
    }

    /// Enables two-bounce (second-order) specular paths. Off by default:
    /// the paper's measurements show a *sparse* path set, and each extra
    /// bounce costs two reflection losses plus the longer spreading —
    /// but rich metallic environments (vehicle cabins) benefit.
    pub fn with_second_order(mut self, enabled: bool) -> Self {
        self.second_order = enabled;
        self
    }

    /// The carrier frequency.
    pub fn freq(&self) -> Hertz {
        self.freq
    }

    /// Enumerates all paths from `node` to `ap`, applying losses from
    /// static obstacles and the given dynamic human blockers.
    ///
    /// Paths whose total loss exceeds any plausible link budget are still
    /// returned (with their losses); the receiver model decides what is
    /// detectable.
    pub fn trace(&self, node: Vec2, ap: Vec2, blockers: &[HumanBlocker]) -> Vec<PropPath> {
        let mut paths = Vec::with_capacity(1 + self.room.surfaces().len());
        self.trace_into(node, ap, blockers, &mut paths);
        paths
    }

    /// [`trace`](Self::trace) into a caller-owned buffer: `paths` is
    /// cleared and refilled, reusing its allocation. `&self` plus
    /// caller-owned scratch and no internal state, so any number of
    /// threads can trace through one `Tracer` concurrently.
    pub fn trace_into(
        &self,
        node: Vec2,
        ap: Vec2,
        blockers: &[HumanBlocker],
        paths: &mut Vec<PropPath>,
    ) {
        paths.clear();
        self.for_each_path(node, ap, |path, legs| {
            let (obstruction_loss, _) = legs.obstruction(node, ap, blockers);
            paths.push(PropPath {
                obstruction_loss,
                ..path
            });
        });
    }

    /// Enumerates the paths from `node` to `ap` in [`trace`](Self::trace)'s
    /// order, each as traced with no human blocker in the room plus its
    /// [`Legs`]. The set does not depend on the blockers — every path is
    /// kept or dropped on static geometry alone — so one enumeration
    /// serves a static link for a whole run, with walkers added per leg
    /// by [`Legs::obstruction`].
    pub(crate) fn for_each_path(&self, node: Vec2, ap: Vec2, mut emit: impl FnMut(PropPath, Legs)) {
        assert!(node.distance(ap) > 1e-9, "node and AP are co-located");
        let leg = |a: Vec2, b: Vec2| self.room.obstruction_loss(a, b);
        let los = leg(node, ap);
        let direct = |shape| Legs {
            shape,
            via: [Vec2::ZERO; 2],
            statics: [los, Db::ZERO, Db::ZERO],
        };

        // Direct path.
        emit(
            PropPath {
                kind: PathKind::LineOfSight,
                length_m: node.distance(ap),
                departure: (ap - node).bearing(),
                arrival: (node - ap).bearing(),
                reflection_loss: Db::ZERO,
                obstruction_loss: los,
            },
            direct(Shape::Direct),
        );

        // One bounce per surface (image method).
        for (idx, surf) in self.room.surfaces().iter().enumerate() {
            let image = surf.segment.mirror(node);
            if image.distance(ap) < 1e-9 {
                continue; // degenerate geometry
            }
            let Some(rp) = Segment::new(image, ap).intersection(surf.segment) else {
                continue; // no specular point on this surface
            };
            if rp.distance(node) < 1e-9 || rp.distance(ap) < 1e-9 {
                continue; // reflection point on top of an endpoint
            }
            let legs = Legs {
                shape: Shape::OneBounce,
                via: [rp, Vec2::ZERO],
                statics: [leg(node, rp), leg(rp, ap), Db::ZERO],
            };
            let path = PropPath {
                kind: PathKind::Reflected { surface: idx },
                length_m: node.distance(rp) + rp.distance(ap),
                departure: (rp - node).bearing(),
                arrival: (rp - ap).bearing(),
                reflection_loss: incidence_scaled_loss(surf, node, rp),
                obstruction_loss: legs.statics[0] + legs.statics[1],
            };
            emit(path, legs);
        }
        // Second-order (two-bounce) specular paths, when enabled.
        if self.second_order {
            for (i1, s1) in self.room.surfaces().iter().enumerate() {
                for (i2, s2) in self.room.surfaces().iter().enumerate() {
                    if i1 == i2 {
                        continue;
                    }
                    let image1 = s1.segment.mirror(node);
                    let image12 = s2.segment.mirror(image1);
                    if image12.distance(ap) < 1e-9 {
                        continue;
                    }
                    let Some(p2) = Segment::new(image12, ap).intersection(s2.segment) else {
                        continue;
                    };
                    if image1.distance(p2) < 1e-9 {
                        continue;
                    }
                    let Some(p1) = Segment::new(image1, p2).intersection(s1.segment) else {
                        continue;
                    };
                    if p1.distance(node) < 1e-9 || p1.distance(p2) < 1e-9 {
                        continue;
                    }
                    let legs = Legs {
                        shape: Shape::TwoBounce,
                        via: [p1, p2],
                        statics: [leg(node, p1), leg(p1, p2), leg(p2, ap)],
                    };
                    let loss1 = incidence_scaled_loss(s1, node, p1);
                    let loss2 = incidence_scaled_loss(s2, p1, p2);
                    let path = PropPath {
                        kind: PathKind::Reflected2 {
                            first: i1,
                            second: i2,
                        },
                        length_m: node.distance(p1) + p1.distance(p2) + p2.distance(ap),
                        departure: (p1 - node).bearing(),
                        arrival: (p2 - ap).bearing(),
                        reflection_loss: loss1 + loss2,
                        obstruction_loss: legs.statics[0] + legs.statics[1] + legs.statics[2],
                    };
                    emit(path, legs);
                }
            }
        }

        // Pseudo-3D floor and ceiling bounces: same azimuth as the LoS,
        // lengthened by the vertical detour. A standing person's torso
        // intercepts them only partially (the ray passes near the legs
        // or over the head), so human blockers contribute a fraction of
        // their loss; static furniture spans floor to ceiling and blocks
        // fully.
        let d = node.distance(ap);
        let h = self.heights;
        let floor_len = (d * d + (h.node + h.ap).powi(2)).sqrt();
        let ceil_drop = (h.ceiling - h.node) + (h.ceiling - h.ap);
        let ceiling_len = (d * d + ceil_drop * ceil_drop).sqrt();
        let vertical = [
            (PathKind::FloorBounce, floor_len, h.floor_loss),
            (PathKind::CeilingBounce, ceiling_len, h.ceiling_loss),
        ];
        for (kind, length_m, reflection_loss) in vertical {
            let path = PropPath {
                kind,
                length_m,
                departure: (ap - node).bearing(),
                arrival: (node - ap).bearing(),
                reflection_loss,
                obstruction_loss: los,
            };
            emit(path, direct(Shape::Vertical));
        }
    }

    /// Spreading loss of a path of `length_m` at this tracer's carrier.
    pub(crate) fn spreading_loss(&self, length_m: f64) -> Db {
        path_loss(self.freq, length_m, self.exponent)
    }

    /// Large-scale loss of a path (spreading + reflection + obstruction).
    pub fn total_loss(&self, path: &PropPath) -> Db {
        self.spreading_loss(path.length_m) + path.excess_loss()
    }
}

/// The legs of one path between a node and the AP, each with its static
/// obstruction: what human blockers are tested against. The leg end
/// points are the node, the path's reflection points and the AP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Legs {
    shape: Shape,
    /// Reflection points in path order (unused past the path's bounces).
    via: [Vec2; 2],
    /// Static obstruction of each leg (zero past the last leg).
    statics: [Db; 3],
}

/// How a path's legs run and how blockers weigh on them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// The LoS: one leg, node → AP.
    Direct,
    /// A floor or ceiling bounce: the LoS leg, at a fraction of each
    /// blocker's loss.
    Vertical,
    /// Node → reflection point → AP.
    OneBounce,
    /// Node → first → second reflection point → AP.
    TwoBounce,
}

impl Legs {
    /// The path's obstruction under `blockers` — the loss
    /// [`Tracer::trace`] reports for it, summed in the same order:
    /// `(static₁ + dyn₁) + (static₂ + dyn₂) [+ (static₃ + dyn₃)]` over
    /// the legs, or `static + body·PARTIAL_BODY_FRACTION` for a floor or
    /// ceiling bounce — and whether any blocker touches a leg. With no
    /// blocker on any leg every dynamic term is `+0.0`, so the loss is
    /// exactly the static one.
    pub(crate) fn obstruction(
        &self,
        node: Vec2,
        ap: Vec2,
        blockers: &[HumanBlocker],
    ) -> (Db, bool) {
        let mut hit = false;
        let mut dynamic = |a: Vec2, b: Vec2| -> Db {
            blockers
                .iter()
                .map(|bl| {
                    let blocks = bl.blocks(a, b);
                    hit |= blocks;
                    if blocks {
                        bl.loss
                    } else {
                        Db::ZERO
                    }
                })
                .sum()
        };
        let (s, v) = (self.statics, self.via);
        let loss = match self.shape {
            Shape::Direct => s[0] + dynamic(node, ap),
            Shape::Vertical => s[0] + dynamic(node, ap) * PARTIAL_BODY_FRACTION,
            Shape::OneBounce => (s[0] + dynamic(node, v[0])) + (s[1] + dynamic(v[0], ap)),
            Shape::TwoBounce => {
                (s[0] + dynamic(node, v[0]))
                    + (s[1] + dynamic(v[0], v[1]))
                    + (s[2] + dynamic(v[1], ap))
            }
        };
        (loss, hit)
    }
}

/// Fresnel-style incidence dependence: reflectivity rises toward
/// grazing, so the material loss scales with the cosine of the
/// incidence angle (measured from the surface normal), floored at 2 dB.
fn incidence_scaled_loss(surf: &crate::room::Surface, from: Vec2, rp: Vec2) -> Db {
    let dir = (surf.segment.b - surf.segment.a).normalized();
    let normal = Vec2::new(-dir.y, dir.x);
    let incoming = (rp - from).normalized();
    let cos_incidence = incoming.dot(normal).abs();
    (surf.material.reflection_loss() * cos_incidence).max(Db::new(2.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::room::Material;

    fn room() -> Room {
        Room::rectangular(6.0, 4.0, Material::Drywall)
    }

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn empty_room_yields_los_plus_four_reflections() {
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let paths = t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[]);
        // LoS + 4 wall bounces + floor + ceiling.
        assert_eq!(paths.len(), 7);
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
        assert_eq!(
            paths
                .iter()
                .filter(|p| matches!(p.kind, PathKind::Reflected { .. }))
                .count(),
            4
        );
    }

    #[test]
    fn los_geometry() {
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let paths = t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[]);
        let los = &paths[0];
        close(los.length_m, 4.0, 1e-12);
        close(los.departure.value(), 0.0, 1e-12);
        close(los.arrival.value(), 180.0, 1e-12);
        assert_eq!(los.reflection_loss, Db::ZERO);
        assert_eq!(los.obstruction_loss, Db::ZERO);
    }

    #[test]
    fn wall_reflection_geometry() {
        // Node and AP both at y=2; floor wall (y=0) bounce: image at
        // (1,-2), specular point where the image-AP line hits y=0.
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let paths = t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[]);
        let floor_bounce = paths
            .iter()
            .find(|p| matches!(p.kind, PathKind::Reflected { .. }) && p.departure.value() < 0.0)
            .expect("floor bounce");
        // Total length = |image - ap| = sqrt(16 + 16) = 5.657.
        close(floor_bounce.length_m, 32f64.sqrt(), 1e-9);
        // 45° incidence: the drywall loss is scaled by cos 45°.
        close(
            floor_bounce.reflection_loss.value(),
            Material::Drywall.reflection_loss().value() / 2f64.sqrt(),
            1e-9,
        );
        // Departure bearing: down toward (3, 0) from (1, 2) = -45°.
        close(floor_bounce.departure.value(), -45.0, 1e-9);
        // Arrival: the wavefront comes from (3,0) seen from (5,2): bearing
        // of (3,0)-(5,2) = atan2(-2,-2) = -135°.
        close(floor_bounce.arrival.value(), -135.0, 1e-9);
    }

    #[test]
    fn reflection_longer_than_los() {
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let paths = t.trace(Vec2::new(0.7, 1.2), Vec2::new(5.2, 3.1), &[]);
        let los_len = paths[0].length_m;
        for p in &paths[1..] {
            assert!(p.length_m > los_len);
        }
    }

    #[test]
    fn blocker_on_los_adds_loss_only_there() {
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let blocker = HumanBlocker::typical(Vec2::new(3.0, 2.0));
        let paths = t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[blocker]);
        assert_eq!(paths[0].obstruction_loss, Db::new(25.0));
        assert!(paths[0].is_obstructed());
        // Floor (surface 0) and ceiling (surface 2) bounces route around
        // the person. (The side-wall bounces are collinear with the LoS
        // here and legitimately hit the blocker too.)
        for p in &paths[1..] {
            if matches!(p.kind, PathKind::Reflected { surface: 0 | 2 }) {
                assert_eq!(p.obstruction_loss, Db::ZERO, "path {:?}", p.kind);
            }
        }
    }

    #[test]
    fn metal_reflector_gives_cheaper_bounce() {
        let mut r = room();
        r.add_surface(crate::room::Surface {
            segment: Segment::new(Vec2::new(2.0, 3.99), Vec2::new(4.0, 3.99)),
            material: Material::Metal,
        });
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let paths = t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[]);
        let metal = paths
            .iter()
            .find(|p| matches!(p.kind, PathKind::Reflected { surface: 4 }))
            .expect("metal bounce");
        let drywall_ceiling = paths
            .iter()
            .find(|p| matches!(p.kind, PathKind::Reflected { surface: 2 }))
            .expect("ceiling bounce");
        assert!(t.total_loss(metal) < t.total_loss(drywall_ceiling));
    }

    #[test]
    fn total_loss_orders_by_length_for_same_kind() {
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let near = t.trace(Vec2::new(2.0, 2.0), Vec2::new(3.0, 2.0), &[]);
        let far = t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[]);
        assert!(t.total_loss(&near[0]) < t.total_loss(&far[0]));
    }

    #[test]
    fn paper_lab_has_extra_paths() {
        let lab = Room::paper_lab();
        let t = Tracer::new(&lab, Hertz::from_ghz(24.0), 2.0);
        let paths = t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[]);
        // LoS + 4 walls + floor + ceiling + whiteboard and/or window
        // when specular points exist.
        assert!(paths.len() >= 8, "got {} paths", paths.len());
    }

    #[test]
    fn vertical_bounces_survive_human_blockage() {
        // The pseudo-3D mechanism: a torso on the LoS does not block the
        // floor/ceiling bounces, which share the LoS azimuth.
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let blocker = HumanBlocker::typical(Vec2::new(3.0, 2.0));
        let paths = t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[blocker]);
        let floor = paths
            .iter()
            .find(|p| p.kind == PathKind::FloorBounce)
            .expect("floor bounce");
        // Partial body loss (0.4 × 25 dB), far below the LoS's full 25.
        close(floor.obstruction_loss.value(), 10.0, 1e-9);
        assert!(floor.obstruction_loss < paths[0].obstruction_loss);
        assert!((floor.departure.value() - 0.0).abs() < 1e-9);
        // Longer than the LoS by the vertical detour.
        assert!(floor.length_m > 4.0 && floor.length_m < 6.0);
        let ceiling = paths
            .iter()
            .find(|p| p.kind == PathKind::CeilingBounce)
            .expect("ceiling bounce");
        close(ceiling.obstruction_loss.value(), 10.0, 1e-9);
    }

    #[test]
    fn no_specular_point_no_path() {
        // A short surface far off to the side produces no bounce for this
        // geometry.
        let mut r = room();
        r.add_surface(crate::room::Surface {
            segment: Segment::new(Vec2::new(0.1, 3.9), Vec2::new(0.2, 3.9)),
            material: Material::Metal,
        });
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let paths = t.trace(Vec2::new(4.0, 1.0), Vec2::new(5.5, 1.0), &[]);
        assert!(paths
            .iter()
            .all(|p| !matches!(p.kind, PathKind::Reflected { surface: 4 })));
    }

    #[test]
    fn second_order_off_by_default() {
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let paths = t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[]);
        assert!(paths
            .iter()
            .all(|p| !matches!(p.kind, PathKind::Reflected2 { .. })));
    }

    #[test]
    fn second_order_paths_exist_and_are_longer() {
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0).with_second_order(true);
        let node = Vec2::new(1.0, 2.0);
        let ap = Vec2::new(5.0, 2.0);
        let paths = t.trace(node, ap, &[]);
        let doubles: Vec<&PropPath> = paths
            .iter()
            .filter(|p| matches!(p.kind, PathKind::Reflected2 { .. }))
            .collect();
        assert!(!doubles.is_empty(), "no two-bounce paths found");
        for p in &doubles {
            // Longer than the LoS and double the reflection price.
            assert!(p.length_m > node.distance(ap));
            assert!(
                p.reflection_loss.value() >= 4.0,
                "loss {}",
                p.reflection_loss
            );
        }
        // The classic floor↔ceiling zig-zag must be present.
        assert!(doubles.iter().any(|p| matches!(
            p.kind,
            PathKind::Reflected2 {
                first: 0,
                second: 2
            }
        )));
    }

    #[test]
    fn second_order_geometry_is_specular() {
        // For the y=0 then y=4 wall pair with symmetric endpoints, the
        // double image is at (x, -(4*2-2)) = reflect twice: the total
        // length equals |double-image − ap|.
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0).with_second_order(true);
        let node = Vec2::new(1.0, 2.0);
        let ap = Vec2::new(5.0, 2.0);
        let paths = t.trace(node, ap, &[]);
        let p = paths
            .iter()
            .find(|p| {
                matches!(
                    p.kind,
                    PathKind::Reflected2 {
                        first: 0,
                        second: 2
                    }
                )
            })
            .expect("floor-then-ceiling path");
        // Image of node across y=0 is (1,−2); across y=4 is (1,10).
        let double_image = Vec2::new(1.0, 10.0);
        close(p.length_m, double_image.distance(ap), 1e-9);
    }

    #[test]
    fn trace_into_reuses_the_buffer_and_matches_trace() {
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let mut buf = Vec::new();
        t.trace_into(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[], &mut buf);
        assert_eq!(buf, t.trace(Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0), &[]));
        let cap = buf.capacity();
        // A second, shorter trace must clear the old contents and reuse
        // the allocation.
        t.trace_into(Vec2::new(2.0, 2.0), Vec2::new(3.0, 2.0), &[], &mut buf);
        assert_eq!(buf, t.trace(Vec2::new(2.0, 2.0), Vec2::new(3.0, 2.0), &[]));
        assert!(buf.capacity() >= cap);
    }

    #[test]
    #[should_panic(expected = "co-located")]
    fn colocated_endpoints_rejected() {
        let r = room();
        let t = Tracer::new(&r, Hertz::from_ghz(24.0), 2.0);
        let p = Vec2::new(1.0, 1.0);
        let _ = t.trace(p, p, &[]);
    }
}
