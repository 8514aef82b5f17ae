//! Human-body blockage.
//!
//! mmWave links die when a person steps into the beam: the paper quotes
//! 10–15 dB of extra loss for a blocked path (§6.1) and runs its SNR
//! experiments with "one person blocking the line-of-sight path for the
//! entire duration of the experiment" while others walk around.
//! [`HumanBlocker`] models that person as a geometric disc (torso
//! cross-section) that attenuates any path leg passing through it; the
//! simulators carry these discs on random-waypoint walkers and on the
//! §9.2 pacer ([`crate::mobility`]).

use crate::geometry::{Segment, Vec2};
use mmx_units::Db;

/// A person standing in (or walking through) the room, modeled as an
/// attenuating disc of torso radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HumanBlocker {
    /// Torso center.
    pub position: Vec2,
    /// Torso radius in meters (~0.25 m).
    pub radius: f64,
    /// Loss added to a path leg passing through the torso. The paper's
    /// 10–15 dB blockage margin (§6.1).
    pub loss: Db,
}

impl HumanBlocker {
    /// A typical adult: 0.25 m radius, 25 dB loss.
    ///
    /// §6.1's margins compose: an NLoS path runs 10–20 dB hotter than
    /// LoS and a *blocked* path another 10–15 dB hotter than NLoS, so a
    /// body on the direct path costs ≈20–35 dB; we use the middle.
    pub fn typical(position: Vec2) -> Self {
        HumanBlocker {
            position,
            radius: 0.25,
            loss: Db::new(25.0),
        }
    }

    /// True when the straight leg `a -> b` passes through the torso.
    pub fn blocks(&self, a: Vec2, b: Vec2) -> bool {
        if a.distance(b) < 1e-12 {
            return a.distance(self.position) < self.radius;
        }
        Segment::new(a, b).distance_to_point(self.position) < self.radius
    }

    /// Loss this blocker adds to the leg `a -> b`.
    pub fn leg_loss(&self, a: Vec2, b: Vec2) -> Db {
        if self.blocks(a, b) {
            self.loss
        } else {
            Db::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocker_blocks_crossing_leg() {
        let b = HumanBlocker::typical(Vec2::new(1.0, 1.0));
        assert!(b.blocks(Vec2::new(0.0, 1.0), Vec2::new(2.0, 1.0)));
        assert_eq!(
            b.leg_loss(Vec2::new(0.0, 1.0), Vec2::new(2.0, 1.0)),
            Db::new(25.0)
        );
    }

    #[test]
    fn blocker_misses_distant_leg() {
        let b = HumanBlocker::typical(Vec2::new(1.0, 1.0));
        assert!(!b.blocks(Vec2::new(0.0, 2.0), Vec2::new(2.0, 2.0)));
        assert_eq!(
            b.leg_loss(Vec2::new(0.0, 2.0), Vec2::new(2.0, 2.0)),
            Db::ZERO
        );
    }

    #[test]
    fn grazing_leg_just_outside_radius() {
        let b = HumanBlocker::typical(Vec2::new(1.0, 1.0));
        assert!(!b.blocks(Vec2::new(0.0, 1.26), Vec2::new(2.0, 1.26)));
        assert!(b.blocks(Vec2::new(0.0, 1.24), Vec2::new(2.0, 1.24)));
    }

    #[test]
    fn degenerate_leg_checks_point() {
        let b = HumanBlocker::typical(Vec2::new(1.0, 1.0));
        assert!(b.blocks(Vec2::new(1.1, 1.0), Vec2::new(1.1, 1.0)));
        assert!(!b.blocks(Vec2::new(2.0, 2.0), Vec2::new(2.0, 2.0)));
    }
}
