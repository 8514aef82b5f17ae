//! Extension experiment: rate adaptation vs distance.
//!
//! The paper runs a fixed 100 Mbps to 18 m. With the switch clocked
//! slower, every halving of the symbol rate buys 3 dB — so the same
//! hardware reaches much farther at camera-grade rates. This sweep
//! produces the rate-vs-distance staircase.

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_core::report::TextTable;
use mmx_core::Testbed;
use mmx_phy::rate::RateAdapter;
use mmx_units::Degrees;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct RatePoint {
    /// Node–AP distance, meters.
    pub distance_m: f64,
    /// SNR at the 100 Mbps reference symbol bandwidth, dB.
    pub snr_ref_db: f64,
    /// Selected rate, Mbps (0 = link down even at the lowest rung).
    pub rate_mbps: f64,
}

/// Sweeps a long hall from 1 to `max_m` meters.
pub fn sweep(max_m: usize) -> Vec<RatePoint> {
    assert!(max_m >= 2, "sweep needs some range");
    let room = Room::rectangular(max_m as f64 + 2.0, 4.0, Material::Drywall);
    let ap = Pose::new(Vec2::new(max_m as f64 + 1.5, 2.0), Degrees::new(180.0));
    let testbed = Testbed::new(room, ap);
    let adapter = RateAdapter::standard();
    (1..=max_m)
        .map(|d| {
            let pos = Vec2::new(ap.position.x - d as f64, 2.0);
            let obs = testbed.observe(testbed.node_pose_at(pos), &[]);
            // The testbed reports SNR in the 25 MHz channel; refer it to
            // the 100 Mbps symbol band (the ladder's reference):
            // 1 bit/symbol OOK at 100 Mbps occupies ~100 MHz, i.e. 6 dB
            // more noise than the 25 MHz channel measurement.
            let snr_ref = obs.snr_otam - mmx_units::Db::new(6.0);
            let rate = adapter
                .select(snr_ref, obs.separation)
                .map(|r| r.mbps())
                .unwrap_or(0.0);
            RatePoint {
                distance_m: d as f64,
                snr_ref_db: snr_ref.value(),
                rate_mbps: rate,
            }
        })
        .collect()
}

/// Renders the staircase.
pub fn table(points: &[RatePoint]) -> TextTable {
    let mut t = TextTable::new(["distance m", "SNR@100MHz dB", "selected rate Mbps"]);
    for p in points {
        t.row([
            format!("{:.0}", p.distance_m),
            format!("{:.1}", p.snr_ref_db),
            format!("{:.0}", p.rate_mbps),
        ]);
    }
    t
}

/// The farthest distance sustaining at least `mbps`.
pub fn range_at_rate(points: &[RatePoint], mbps: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.rate_mbps >= mbps)
        .map(|p| p.distance_m)
        .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.max(d))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<RatePoint> {
        sweep(40)
    }

    #[test]
    fn full_rate_near_the_ap() {
        let p = pts();
        assert!(
            (p[0].rate_mbps - 100.0).abs() < 1e-9,
            "1 m rate = {}",
            p[0].rate_mbps
        );
    }

    #[test]
    fn rate_staircase_is_monotone_decreasing() {
        // Within the two-ray ripple, the selected rate must not *grow*
        // with distance by more than one ladder step.
        // The two-ray ripple (±6 dB) can bounce the selection between
        // adjacent rungs, so check the trend, not point-wise steps.
        let p = pts();
        let head: f64 = p[..5].iter().map(|x| x.rate_mbps).sum::<f64>() / 5.0;
        let tail: f64 = p[p.len() - 5..].iter().map(|x| x.rate_mbps).sum::<f64>() / 5.0;
        assert!(tail < head, "tail {tail} Mbps ≥ head {head} Mbps");
        assert!(p.last().unwrap().rate_mbps <= p[0].rate_mbps);
    }

    #[test]
    fn camera_rate_reaches_beyond_the_papers_18m() {
        // The payoff: 10 Mbps (an HD camera) should survive well past
        // the fixed-rate 18 m range.
        let p = pts();
        let r10 = range_at_rate(&p, 10.0).expect("10 Mbps somewhere");
        assert!(r10 > 18.0, "10 Mbps range = {r10} m");
    }

    #[test]
    fn adaptation_extends_range_over_fixed_rate() {
        let p = pts();
        let fixed = range_at_rate(&p, 100.0).unwrap_or(0.0);
        let adapted = range_at_rate(&p, 1.0).unwrap_or(0.0);
        assert!(adapted > fixed, "adapted {adapted} m vs fixed {fixed} m");
    }

    #[test]
    fn table_matches_sweep() {
        let p = pts();
        assert_eq!(table(&p).len(), p.len());
    }
}
