//! Extension experiment: waveform-level BER validation.
//!
//! The paper converts measured SNR to BER through standard tables
//! (§9.3). This experiment closes the loop *within the reproduction*: it
//! pushes millions of bits through the sample-level OTAM chain (beam
//! switching → channel gains → AWGN → envelope/FSK demodulation) at
//! controlled SNRs and compares the measured BER against the closed
//! forms in `mmx_phy::ber` — validating both the DSP chain and the
//! tables at once.

use mmx_channel::response::BeamChannel;
use mmx_core::report::TextTable;
use mmx_dsp::Complex;
use mmx_phy::ber::{fsk_ber, ook_ber_matched};
use mmx_phy::bits::bit_error_rate;
use mmx_phy::otam::{OtamConfig, OtamLink};
use mmx_phy::packet::PREAMBLE;
use mmx_units::Db;

/// One validation point.
#[derive(Debug, Clone, Copy)]
pub struct BerPoint {
    /// Target mark SNR (symbol band), dB.
    pub snr_db: f64,
    /// Measured BER over the simulated bits.
    pub measured: f64,
    /// Closed-form prediction.
    pub theory: f64,
    /// Bits simulated.
    pub bits: usize,
}

/// Builds a link whose *symbol-band* mark SNR is exactly `snr_db`, with
/// either a deep ASK separation (OOK-like) or near-equal levels (FSK).
fn calibrated_link(snr_db: f64, separation_db: f64) -> OtamLink {
    let mut cfg = OtamConfig::standard();
    // Choose the mark gain so that theoretical_snr() == snr_db:
    // snr = tx − impl + gain − (noise_fs/sps) ⇒ solve for gain.
    let noise_sym = mmx_units::thermal_noise_dbm(cfg.sample_rate, cfg.noise_figure)
        - Db::new(10.0 * (cfg.samples_per_symbol as f64).log10());
    let mark_dbm = noise_sym + Db::new(snr_db);
    let mark_gain = mark_dbm - (cfg.tx_power - cfg.implementation_loss);
    cfg.min_ask_separation = Db::new(2.0);
    let h1 = 10f64.powf(mark_gain.value() / 20.0);
    let h0 = h1 * 10f64.powf(-separation_db / 20.0);
    OtamLink::new(
        cfg,
        BeamChannel {
            h1: Complex::from_polar(h1, 0.3),
            h0: Complex::from_polar(h0, -1.2),
        },
    )
}

/// Runs the ASK branch (deep separation ⇒ effectively OOK) over an SNR
/// sweep. Theory column: the matched-filter midpoint-threshold OOK curve
/// (the correct analytic form for this receiver; the paper's empirical
/// table quotes SNR in the channel band and sits ~6 dB to the left).
pub fn ask_sweep(bits_per_point: usize, seed: u64) -> Vec<BerPoint> {
    sweep(bits_per_point, seed, 40.0, |snr| {
        ook_ber_matched(Db::new(snr))
    })
}

/// Runs the FSK branch (0.5 dB separation ⇒ joint demod falls back to
/// tones).
pub fn fsk_sweep(bits_per_point: usize, seed: u64) -> Vec<BerPoint> {
    sweep(bits_per_point, seed, 0.5, |snr| fsk_ber(Db::new(snr)))
}

fn sweep(
    bits_per_point: usize,
    seed: u64,
    separation_db: f64,
    theory: impl Fn(f64) -> f64 + Sync,
) -> Vec<BerPoint> {
    let snrs = [6.0, 8.0, 10.0, 12.0, 14.0];
    // Each SNR point accumulates its own bits with its own
    // `(seed, index)`-derived noise RNG, so points fan out across the
    // parallel engine with bit-identical results at any thread count.
    crate::par::run_trials(seed, snrs.len(), |i, rng| {
        let snr = snrs[i];
        let link = calibrated_link(snr, separation_db);
        let mut errors = 0usize;
        let mut total = 0usize;
        let chunk = 2000;
        while total < bits_per_point {
            let mut prbs = mmx_dsp::prbs::Prbs::prbs15((seed as u32) | 1);
            let mut bits = PREAMBLE.to_vec();
            let payload = prbs.bits(chunk);
            bits.extend(&payload);
            let wave = link.waveform(&bits, rng);
            if let Some(rx) = link.receive(&wave) {
                let n = payload.len().min(rx.bits.len());
                errors +=
                    (bit_error_rate(&payload[..n], &rx.bits[..n]) * n as f64).round() as usize;
                total += n;
            } else {
                // Sync loss at very low SNR: count the chunk as lost.
                errors += chunk / 2;
                total += chunk;
            }
        }
        BerPoint {
            snr_db: snr,
            measured: errors as f64 / total as f64,
            theory: theory(snr),
            bits: total,
        }
    })
}

/// Renders a sweep.
pub fn table(label: &str, points: &[BerPoint]) -> TextTable {
    let mut t = TextTable::new(["SNR dB", &format!("{label} measured"), "theory", "bits"]);
    for p in points {
        t.row([
            format!("{:.0}", p.snr_db),
            format!("{:.2e}", p.measured.max(1e-9)),
            format!("{:.2e}", p.theory.max(1e-9)),
            p.bits.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "Within `penalty_db` of the table": the measured BER must fall
    /// between the theory curve evaluated at `snr` (an upper bound on
    /// performance — no receiver beats the coherent table by much) and
    /// at `snr − penalty_db` (the allowed implementation loss).
    fn within_penalty(
        measured: f64,
        snr_db: f64,
        penalty_db: f64,
        curve: impl Fn(f64) -> f64,
    ) -> bool {
        let best = curve(snr_db);
        let worst = curve(snr_db - penalty_db);
        measured <= worst * 2.0 && measured >= best / 5.0
    }

    #[test]
    fn calibrated_link_hits_target_snr() {
        for snr in [6.0, 10.0, 14.0] {
            let l = calibrated_link(snr, 40.0);
            let got = l.theoretical_snr().value();
            assert!((got - snr).abs() < 0.01, "target {snr}, got {got}");
        }
    }

    #[test]
    fn ask_chain_tracks_the_ook_curve() {
        // The matched-tone envelope receiver runs within ~2 dB of the
        // coherent OOK table (noncoherent dual-bin combining plus the
        // midpoint threshold cost the difference).
        let pts = ask_sweep(30_000, 3);
        for p in &pts {
            if p.theory > 1e-4 {
                assert!(
                    within_penalty(p.measured, p.snr_db, 2.0, |s| ook_ber_matched(Db::new(s))),
                    "SNR {}: measured {:.2e} vs theory {:.2e}",
                    p.snr_db,
                    p.measured,
                    p.theory
                );
            }
        }
        // And the curve must fall with SNR.
        assert!(pts[0].measured > pts.last().unwrap().measured);
    }

    #[test]
    fn fsk_chain_tracks_the_fsk_curve() {
        let pts = fsk_sweep(30_000, 4);
        for p in &pts {
            if p.theory > 1e-4 {
                assert!(
                    within_penalty(p.measured, p.snr_db, 2.0, |s| fsk_ber(Db::new(s))),
                    "SNR {}: measured {:.2e} vs theory {:.2e}",
                    p.snr_db,
                    p.measured,
                    p.theory
                );
            }
        }
    }

    #[test]
    fn tables_render() {
        let pts = ask_sweep(6_000, 5);
        assert_eq!(table("ASK", &pts).len(), pts.len());
    }
}
