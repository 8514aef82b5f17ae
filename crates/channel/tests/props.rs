//! Property-based tests for the propagation substrate.

use mmx_antenna::beams::NodeBeams;
use mmx_antenna::element::Element;
use mmx_channel::blockage::HumanBlocker;
use mmx_channel::geometry::{Segment, Vec2};
use mmx_channel::pathloss::{fspl, log_distance};
use mmx_channel::response::{beam_channel, beam_channel_into, LinkPlans, Pose};
use mmx_channel::room::{Material, Obstacle, Room, Surface};
use mmx_channel::trace::{PathKind, Tracer};
use mmx_units::{Db, Degrees, Hertz};
use proptest::prelude::*;

fn freq() -> Hertz {
    Hertz::from_ghz(24.0)
}

fn inside() -> impl Strategy<Value = Vec2> {
    (0.3f64..5.7, 0.3f64..3.7).prop_map(|(x, y)| Vec2::new(x, y))
}

proptest! {
    #[test]
    fn fspl_monotone_in_distance(d1 in 0.1f64..50.0, d2 in 0.1f64..50.0) {
        prop_assume!((d1 - d2).abs() > 1e-9);
        let (lo, hi) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(fspl(freq(), lo) < fspl(freq(), hi));
    }

    #[test]
    fn log_distance_at_least_fspl_for_exponent_ge_2(d in 1.0f64..50.0, n in 2.0f64..4.0) {
        prop_assert!(log_distance(freq(), d, n).value() >= fspl(freq(), d).value() - 1e-9);
    }

    #[test]
    fn mirror_preserves_distance_to_line(px in -10.0f64..10.0, py in -10.0f64..10.0) {
        let wall = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(6.0, 0.0));
        let p = Vec2::new(px, py);
        let img = wall.mirror(p);
        prop_assert!((wall.distance_to_point(p) - wall.distance_to_point(img)).abs() < 1e-9);
    }

    #[test]
    fn traced_paths_satisfy_geometry(node in inside(), ap in inside()) {
        prop_assume!(node.distance(ap) > 0.2);
        let room = Room::rectangular(6.0, 4.0, Material::Drywall);
        let tracer = Tracer::new(&room, freq(), 2.0);
        let paths = tracer.trace(node, ap, &[]);
        prop_assert!(!paths.is_empty());
        prop_assert_eq!(paths[0].kind, PathKind::LineOfSight);
        let los_len = paths[0].length_m;
        prop_assert!((los_len - node.distance(ap)).abs() < 1e-9);
        for p in &paths {
            // Every path at least as long as the LoS, every loss
            // non-negative.
            prop_assert!(p.length_m >= los_len - 1e-9);
            prop_assert!(p.reflection_loss.value() >= 0.0);
            prop_assert!(p.obstruction_loss.value() >= 0.0);
        }
    }

    #[test]
    fn reflection_count_bounded_by_surfaces(node in inside(), ap in inside()) {
        prop_assume!(node.distance(ap) > 0.2);
        let room = Room::paper_lab();
        let tracer = Tracer::new(&room, freq(), 2.0);
        let paths = tracer.trace(node, ap, &[]);
        // LoS + per-surface bounces + floor + ceiling.
        prop_assert!(paths.len() <= 3 + room.surfaces().len());
    }

    #[test]
    fn blockers_never_reduce_any_path_loss(
        node in inside(), ap in inside(), bx in 0.3f64..5.7, by in 0.3f64..3.7
    ) {
        // (The *coherent* beam gain can go up when a blocker removes a
        // destructively-interfering path — that is real physics. The true
        // invariant is per-path: a blocker can only add loss.)
        prop_assume!(node.distance(ap) > 0.2);
        let room = Room::rectangular(6.0, 4.0, Material::Drywall);
        let tracer = Tracer::new(&room, freq(), 2.0);
        let blocker = HumanBlocker::typical(Vec2::new(bx, by));
        let clear = tracer.trace(node, ap, &[]);
        let blocked = tracer.trace(node, ap, &[blocker]);
        prop_assert_eq!(clear.len(), blocked.len());
        for (c, b) in clear.iter().zip(&blocked) {
            prop_assert!(b.obstruction_loss.value() >= c.obstruction_loss.value() - 1e-12);
            prop_assert!((c.length_m - b.length_m).abs() < 1e-12);
        }
    }

    #[test]
    fn channel_reciprocal_under_pose_swap_magnitudes(node in inside(), ap in inside()) {
        // Not full EM reciprocity (different antennas at each end), but
        // the traced path set must be symmetric: same lengths both ways.
        prop_assume!(node.distance(ap) > 0.2);
        let room = Room::rectangular(6.0, 4.0, Material::Drywall);
        let tracer = Tracer::new(&room, freq(), 2.0);
        let fwd = tracer.trace(node, ap, &[]);
        let rev = tracer.trace(ap, node, &[]);
        prop_assert_eq!(fwd.len(), rev.len());
        let mut fl: Vec<f64> = fwd.iter().map(|p| p.length_m).collect();
        let mut rl: Vec<f64> = rev.iter().map(|p| p.length_m).collect();
        fl.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rl.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (a, b) in fl.iter().zip(&rl) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn beam_channel_finite_everywhere(node in inside(), ap in inside(), az in -180.0f64..180.0) {
        prop_assume!(node.distance(ap) > 0.2);
        let room = Room::paper_lab();
        let tracer = Tracer::new(&room, freq(), 2.0);
        let beams = NodeBeams::orthogonal(freq());
        let np = Pose::new(node, Degrees::new(az));
        let app = Pose::facing_toward(ap, node);
        let ch = beam_channel(&tracer, np, app, &beams, Element::ApDipole, &[]);
        prop_assert!(ch.h0.is_finite());
        prop_assert!(ch.h1.is_finite());
    }
}

/// The paper lab plus random metal reflectors and static obstacles
/// (segments shorter than 10 cm are skipped).
fn random_room(metal: &[(f64, f64, f64, f64)], obstacles: &[(f64, f64, f64, f64, f64)]) -> Room {
    let mut room = Room::paper_lab();
    let seg = |x0, y0, x1, y1| {
        let (a, b) = (Vec2::new(x0, y0), Vec2::new(x1, y1));
        (a.distance(b) > 0.1).then(|| Segment::new(a, b))
    };
    for &(x0, y0, x1, y1) in metal {
        if let Some(segment) = seg(x0, y0, x1, y1) {
            let material = Material::Metal;
            room.add_surface(Surface { segment, material });
        }
    }
    for &(x0, y0, x1, y1, loss) in obstacles {
        if let Some(segment) = seg(x0, y0, x1, y1) {
            let penetration_loss = Db::new(loss);
            room.add_obstacle(Obstacle {
                segment,
                penetration_loss,
            });
        }
    }
    room
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A link planned once gives, under any blocker constellation, the
    /// channel a fresh trace gives — bit for bit. Blockers land anywhere
    /// in the room, or on the first leg (from the node along a path's
    /// departure) or the last leg (from the AP along its arrival) of a
    /// random path, within a torso radius of the ray.
    #[test]
    fn link_plan_matches_beam_channel_into(
        node in inside(),
        ap in inside(),
        facing in (-180.0f64..180.0, -180.0f64..180.0),
        metal in prop::collection::vec((0.2f64..5.8, 0.2f64..3.8, 0.2f64..5.8, 0.2f64..3.8), 0..3),
        obstacles in prop::collection::vec(
            (0.2f64..5.8, 0.2f64..3.8, 0.2f64..5.8, 0.2f64..3.8, 1.0f64..30.0),
            0..3,
        ),
        spots in prop::collection::vec(
            (0u8..3, 0usize..64, (0.05f64..1.0, -0.3f64..0.3), (inside(), 0.5f64..40.0)),
            0..5,
        ),
        model in (any::<bool>(), 1.6f64..3.0, 0u8..3),
    ) {
        prop_assume!(node.distance(ap) > 0.2);
        let ((node_az, ap_az), (second_order, exponent, element)) = (facing, model);
        let room = random_room(&metal, &obstacles);
        let tracer = Tracer::new(&room, freq(), exponent).with_second_order(second_order);
        let beams = NodeBeams::orthogonal(freq());
        let element = [Element::ApDipole, Element::Patch, Element::Isotropic][element as usize];
        let (np, app) = (Pose::new(node, Degrees::new(node_az)), Pose::new(ap, Degrees::new(ap_az)));
        let paths = tracer.trace(node, ap, &[]);
        let blockers: Vec<HumanBlocker> = spots
            .iter()
            .map(|&(on, k, (t, off), (anywhere, loss))| {
                let p = &paths[k % paths.len()];
                let (from, bearing) = match on {
                    0 => (node, p.departure),
                    1 => (ap, p.arrival),
                    _ => return HumanBlocker { loss: Db::new(loss), ..HumanBlocker::typical(anywhere) },
                };
                let dir = Vec2::from_bearing(bearing);
                let at = from + dir * (t * p.length_m) + Vec2::new(-dir.y, dir.x) * off;
                HumanBlocker { loss: Db::new(loss), ..HumanBlocker::typical(at) }
            })
            .collect();

        let (mut plans, mut still) = (LinkPlans::new(true), LinkPlans::new(false));
        // The link under test is the second one: terms of an earlier
        // link sit before its own in the shared buffer.
        let other = Pose::new(Vec2::new(3.0, 2.0), Degrees::new(0.0));
        prop_assume!(other.position.distance(ap) > 0.2);
        for p in [&mut plans, &mut still] {
            p.push(&tracer, other, app, &beams, element);
            p.push(&tracer, np, app, &beams, element);
        }
        let mut scratch = Vec::new();
        let traced = beam_channel_into(&tracer, np, app, &beams, element, &blockers, &mut scratch);
        prop_assert_eq!(plans.channel(1, &blockers), traced);
        let clear = beam_channel_into(&tracer, np, app, &beams, element, &[], &mut scratch);
        prop_assert_eq!(plans.channel(1, &[]), clear);
        prop_assert_eq!(still.channel(1, &[]), clear);
    }
}
