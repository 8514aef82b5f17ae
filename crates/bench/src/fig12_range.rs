//! Fig. 12 — "mmX's coverage": SNR at the AP versus node–AP distance for
//! two orientations.
//!
//! Scenario 1: the node faces the AP (Beam 1's LoS). Scenario 2: the
//! node does not face the AP (one arm of Beam 0 carries the link). Paper
//! shape: scenario 1 falls from ~40 dB at close range to ≥15 dB at 18 m;
//! scenario 2 runs a few dB lower but still ≥9 dB at 18 m.

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_core::report::TextTable;
use mmx_core::Testbed;
use mmx_units::Degrees;

/// One distance point.
#[derive(Debug, Clone, Copy)]
pub struct RangePoint {
    /// Node–AP distance in meters.
    pub distance_m: f64,
    /// Scenario 1 SNR (facing the AP), dB.
    pub snr_facing: f64,
    /// Scenario 2 SNR (rotated 30°: the AP sits on a Beam-0 arm), dB.
    pub snr_not_facing: f64,
}

/// Builds the range testbed: a 20 m corridor so 18 m links exist.
pub fn corridor() -> Testbed {
    let room = Room::rectangular(20.0, 4.0, Material::Drywall);
    let ap = Pose::new(Vec2::new(19.5, 2.0), Degrees::new(180.0));
    Testbed::new(room, ap)
}

/// Sweeps distance 1–18 m in both scenarios. Distance points are
/// independent and run on the parallel engine (no randomness involved).
pub fn sweep() -> Vec<RangePoint> {
    let testbed = corridor();
    let ap = testbed.ap().position;
    crate::par::run_indexed(18, |i| {
        let d = i + 1;
        let pos = Vec2::new(ap.x - d as f64, 2.0);
        let facing = (ap - pos).bearing();
        let s1 = testbed.observe(Pose::new(pos, facing), &[]);
        // Scenario 2: rotate 30° so the AP is on a Beam-0 arm.
        let s2 = testbed.observe(Pose::new(pos, facing + Degrees::new(30.0)), &[]);
        RangePoint {
            distance_m: d as f64,
            snr_facing: s1.snr_otam.value(),
            snr_not_facing: s2.snr_otam.value(),
        }
    })
}

/// Renders the figure's two series.
pub fn table(points: &[RangePoint]) -> TextTable {
    let mut t = TextTable::new(["distance m", "scenario 1 SNR dB", "scenario 2 SNR dB"]);
    for p in points {
        t.row([
            format!("{:.0}", p.distance_m),
            format!("{:.1}", p.snr_facing),
            format!("{:.1}", p.snr_not_facing),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facing_scenario_matches_paper_anchors() {
        let pts = sweep();
        let d1 = &pts[0];
        let d18 = &pts[17];
        // Paper: ~40 dB near, ≥15 dB at 18 m.
        assert!(
            (34.0..46.0).contains(&d1.snr_facing),
            "SNR(1 m) = {}",
            d1.snr_facing
        );
        assert!(d18.snr_facing >= 15.0, "SNR(18 m) = {}", d18.snr_facing);
    }

    #[test]
    fn not_facing_scenario_still_works_at_18m() {
        // Paper: "even at 18 meters, mmX still achieves SNRs as high as
        // 9 dB" in scenario 2.
        let pts = sweep();
        assert!(
            pts[17].snr_not_facing >= 9.0,
            "SNR(18 m, rotated) = {}",
            pts[17].snr_not_facing
        );
    }

    #[test]
    fn snr_decays_with_distance() {
        let pts = sweep();
        // The curve rides the free-space 20·log10(d) trend with the
        // classic two-ray multipath ripple on top (the LoS and the
        // floor/ceiling bounces alternate between constructive and
        // destructive as the path-length difference sweeps the carrier
        // phase). Check the trend, not point-wise monotonicity.
        let anchor = pts[0].snr_facing;
        for p in &pts {
            let trend = anchor - 20.0 * p.distance_m.log10();
            assert!(
                (p.snr_facing - trend).abs() < 8.0,
                "{} m: {} dB vs trend {} dB",
                p.distance_m,
                p.snr_facing,
                trend
            );
        }
        assert!(pts[0].snr_facing - pts[17].snr_facing > 15.0);
    }

    #[test]
    fn facing_beats_not_facing_on_average() {
        // "The SNR slightly degrades when the node does not face toward
        // the AP."
        let pts = sweep();
        let mean_gap: f64 = pts
            .iter()
            .map(|p| p.snr_facing - p.snr_not_facing)
            .sum::<f64>()
            / pts.len() as f64;
        assert!(mean_gap > 0.0, "mean gap = {mean_gap}");
        assert!(mean_gap < 15.0, "gap implausibly large: {mean_gap}");
    }

    #[test]
    fn table_has_18_rows() {
        assert_eq!(table(&sweep()).len(), 18);
    }
}
