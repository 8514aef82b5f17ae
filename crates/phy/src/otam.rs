//! Over-The-Air Modulation: the end-to-end mmX link.
//!
//! §6.1: "instead of modulating the signal first and then transmitting it
//! to the beam direction with the best channel quality, we intelligently
//! transmit a sine wave to different beams, and since each beam
//! experiences different attenuations, the signal is modulated over the
//! air."
//!
//! [`OtamLink`] simulates the whole chain at sample level:
//!
//! 1. Bits select a beam (bit → switch port → array) and a slightly
//!    different carrier frequency (joint ASK–FSK, §6.3).
//! 2. The per-beam complex channel gain (`BeamChannel` from
//!    `mmx-channel`) scales and rotates each symbol's tone — this *is*
//!    the over-the-air amplitude modulation.
//! 3. Switch leakage injects −65 dB of the inactive beam (ADRF5020).
//! 4. Calibrated AWGN at the AP's cascaded noise figure is added.
//! 5. The receiver runs AGC → envelope → frame sync (offset + polarity)
//!    → joint ASK/FSK demodulation → packet parse, and reports the
//!    measured SNR.

use crate::ask::AskConfig;
use crate::ber;
use crate::framing::find_preamble;
use crate::fsk::FskConfig;
use crate::joint::{demodulate_with_envelopes, DemodPath, JointConfig};
use crate::packet::{Packet, PacketError, PREAMBLE};
use crate::snr::estimate_snr;
use mmx_channel::response::BeamChannel;
use mmx_dsp::agc::Agc;
use mmx_dsp::awgn::AwgnSource;
use mmx_dsp::goertzel::GoertzelPair;
use mmx_dsp::{Complex, IqBuffer};
use mmx_rf::switch::SpdtSwitch;
use mmx_units::{thermal_noise_dbm, Db, DbmPower, Hertz};
use rand::Rng;

/// Link-level parameters of an OTAM transmission.
#[derive(Debug, Clone, Copy)]
pub struct OtamConfig {
    /// Complex baseband sample rate (= simulated channel bandwidth).
    pub sample_rate: Hertz,
    /// Samples per symbol.
    pub samples_per_symbol: usize,
    /// FSK tone separation between the two beams.
    pub fsk_deviation: Hertz,
    /// Envelope-level separation below which the receiver trusts FSK
    /// over ASK.
    pub min_ask_separation: Db,
    /// Power delivered to the active antenna array (10 dBm, §8.1).
    pub tx_power: DbmPower,
    /// AP cascaded noise figure (≈2.6 dB, `mmx-rf`).
    pub noise_figure: Db,
    /// Implementation loss (see DESIGN.md §5).
    pub implementation_loss: Db,
    /// Carrier frequency offset between the node's free-running VCO and
    /// the AP's LO (VCO drift; the node has no closed-loop reference).
    pub cfo: Hertz,
}

impl OtamConfig {
    /// The paper's operating point: 25 MHz channel, 1 Msym/s, 2 MHz
    /// deviation.
    pub fn standard() -> Self {
        OtamConfig {
            sample_rate: Hertz::from_mhz(25.0),
            samples_per_symbol: 25,
            fsk_deviation: Hertz::from_mhz(2.0),
            min_ask_separation: Db::new(2.0),
            tx_power: DbmPower::new(10.0),
            noise_figure: Db::new(2.6),
            implementation_loss: Db::new(18.0),
            cfo: Hertz::new(0.0),
        }
    }

    /// Symbol (= bit) rate.
    pub fn bit_rate_hz(&self) -> f64 {
        self.sample_rate.hz() / self.samples_per_symbol as f64
    }

    fn joint(&self) -> JointConfig {
        let mut ask = AskConfig::default_ook(self.samples_per_symbol);
        ask.smooth_fraction = 0.25;
        JointConfig::new(
            ask,
            FskConfig::centered(self.fsk_deviation, self.samples_per_symbol),
            self.min_ask_separation,
        )
    }
}

/// Result of receiving one OTAM frame.
#[derive(Debug, Clone)]
pub struct OtamRxResult {
    /// Decoded post-preamble bits.
    pub bits: Vec<bool>,
    /// Which demodulation path decided the bits.
    pub used: DemodPath,
    /// Whether the frame arrived polarity-inverted (blocked LoS).
    pub inverted: bool,
    /// Frame-start offset in symbols.
    pub sync_offset: usize,
    /// Data-aided SNR estimate from the preamble symbols (mark SNR in
    /// the symbol band).
    pub snr: Option<Db>,
}

/// A point-to-point OTAM link over a fixed beam channel.
#[derive(Debug, Clone)]
pub struct OtamLink {
    cfg: OtamConfig,
    channel: BeamChannel,
    switch: SpdtSwitch,
}

impl OtamLink {
    /// Creates a link over `channel` with the given configuration.
    pub fn new(cfg: OtamConfig, channel: BeamChannel) -> Self {
        assert!(cfg.samples_per_symbol >= 4, "too few samples per symbol");
        OtamLink {
            cfg,
            channel,
            switch: SpdtSwitch::adrf5020(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OtamConfig {
        &self.cfg
    }

    /// The channel this link runs over.
    pub fn channel(&self) -> &BeamChannel {
        &self.channel
    }

    /// Transmit amplitude in √mW at the antenna, implementation loss
    /// folded in.
    fn tx_amplitude(&self) -> f64 {
        (self.cfg.tx_power - self.cfg.implementation_loss)
            .milliwatts()
            .sqrt()
    }

    /// Complex AWGN power (mW) in the simulated band.
    fn noise_power_mw(&self) -> f64 {
        thermal_noise_dbm(self.cfg.sample_rate, self.cfg.noise_figure).milliwatts()
    }

    /// The analytic mark SNR in the *symbol* band: stronger-beam receive
    /// power over `N0·Rs`. This is the SNR that [`crate::ber`] consumes
    /// and the quantity the paper plots.
    pub fn theoretical_snr(&self) -> Db {
        let mark_gain = self.channel.gain(self.channel.stronger_beam());
        let rx_mw = (self.cfg.tx_power - self.cfg.implementation_loss + mark_gain).milliwatts();
        // N0·Rs = (noise over fs)/fs · Rs — simplifies to noise/sps.
        let noise = self.noise_power_mw() / self.cfg.samples_per_symbol as f64;
        Db::from_linear(rx_mw / noise)
    }

    /// The analytic joint-demodulation BER of this link (the paper's
    /// SNR→BER table method, §9.3).
    pub fn theoretical_ber(&self) -> f64 {
        ber::joint_ber(
            self.theoretical_snr(),
            self.channel.level_separation(),
            self.cfg.min_ask_separation,
        )
    }

    /// Synthesizes the received complex baseband waveform for a bit
    /// sequence (preamble included by the caller), with AWGN.
    pub fn waveform<R: Rng + ?Sized>(&self, bits: &[bool], rng: &mut R) -> IqBuffer {
        let mut buf = self.clean_waveform(bits);
        AwgnSource::with_power(self.noise_power_mw()).add_to(&mut buf, rng);
        buf
    }

    /// The noiseless received waveform (for Fig. 9-style plots).
    pub fn clean_waveform(&self, bits: &[bool]) -> IqBuffer {
        let fs = self.cfg.sample_rate;
        let sps = self.cfg.samples_per_symbol;
        let a_tx = self.tx_amplitude();
        let leak = self.switch.leakage_amplitude() / self.switch.active_amplitude();
        // The CFO rides on both tones identically: the node's VCO is
        // free-running, so drift shifts the whole emission.
        let cfo = self.cfg.cfo.hz();
        let w0 = 2.0 * std::f64::consts::PI * (cfo - self.cfg.fsk_deviation.hz() / 2.0) / fs.hz();
        let w1 = 2.0 * std::f64::consts::PI * (cfo + self.cfg.fsk_deviation.hz() / 2.0) / fs.hz();
        let mut out = IqBuffer::empty(fs);
        let mut n = 0usize;
        for &bit in bits {
            let (h_active, h_leak, w_active, w_leak) = if bit {
                (self.channel.h1, self.channel.h0, w1, w0)
            } else {
                (self.channel.h0, self.channel.h1, w0, w1)
            };
            for _ in 0..sps {
                let t = n as f64;
                let s = Complex::cis(w_active * t) * h_active.scale(a_tx)
                    + Complex::cis(w_leak * t) * h_leak.scale(a_tx * leak);
                out.push(s);
                n += 1;
            }
        }
        out
    }

    /// Matched-tone per-symbol envelopes: each symbol is coherently
    /// integrated at both candidate tone frequencies and the energies
    /// combined. This is what a software receiver (the USRP baseband)
    /// actually computes, and it keeps the full within-symbol processing
    /// gain that a plain sample-magnitude envelope loses at low SNR.
    /// Both tone bins are integrated in a single pass per symbol
    /// ([`GoertzelPair`]).
    pub fn matched_envelopes(&self, buf: &IqBuffer) -> Vec<f64> {
        let fs = buf.sample_rate();
        let pair = GoertzelPair::new(
            Hertz::new(self.cfg.cfo.hz() - self.cfg.fsk_deviation.hz() / 2.0),
            Hertz::new(self.cfg.cfo.hz() + self.cfg.fsk_deviation.hz() / 2.0),
            fs,
        );
        let sps = self.cfg.samples_per_symbol;
        buf.samples()
            .chunks_exact(sps)
            .map(|sym| {
                let (e0, e1) = pair.energies(sym);
                ((e0 + e1) / sps as f64).sqrt()
            })
            .collect()
    }

    /// Receives a waveform: AGC, matched-tone envelopes, frame sync,
    /// joint demodulation, SNR estimate.
    ///
    /// Frame sync runs on the envelope first; when the envelope carries
    /// no preamble signature (the equal-loss regime of Fig. 9b) it falls
    /// back to correlating the per-symbol FSK discrimination metric —
    /// the tones always carry the bit pattern even when the amplitudes
    /// do not.
    pub fn receive(&self, buf: &IqBuffer) -> Option<OtamRxResult> {
        if buf.is_empty() {
            return None;
        }
        // Energy-detection carrier sense: with no carrier the buffer is
        // pure receiver noise and the sync correlators can false-lock on
        // it. The receiver knows its own noise floor, so require the band
        // power to sit measurably above it (~0.2 dB) before attempting
        // sync. The weakest link this chain must demodulate — deep-
        // separation ASK at 6 dB symbol-band SNR, where the space symbols
        // carry almost no power — still shows ~8% excess band power.
        if buf.mean_power() <= self.noise_power_mw() * 1.05 {
            return None;
        }
        let mut work = buf.clone();
        Agc::default_rx().apply(&mut work);
        let joint = self.cfg.joint();
        let sym = self.matched_envelopes(&work);
        let env_sync = find_preamble(&sym);
        let fsk_sync = {
            let disc = crate::fsk::discrimination(&joint.fsk, &work);
            find_preamble(&disc).map(|mut s| {
                // FSK discrimination is polarity-true by construction
                // (the tone, not the level, encodes the bit).
                s.inverted = false;
                s
            })
        };
        // A flat-envelope frame can false-lock the envelope correlator
        // near threshold; trust whichever domain correlates harder.
        let sync = match (env_sync, fsk_sync) {
            (Some(e), Some(f)) => {
                if f.correlation.abs() > e.correlation.abs() {
                    Some(f)
                } else {
                    Some(e)
                }
            }
            (e, f) => e.or(f),
        }?;
        // Trim to the frame start (symbol-aligned).
        let start_sample = sync.offset * self.cfg.samples_per_symbol;
        let frame = IqBuffer::new(work.samples()[start_sample..].to_vec(), work.sample_rate());
        let frame_env = self.matched_envelopes(&frame);
        let result = demodulate_with_envelopes(&joint, &frame, &frame_env, &PREAMBLE)?;
        let snr = estimate_snr(&frame_env[..PREAMBLE.len().min(frame_env.len())], &PREAMBLE);
        // Polarity is a statement about the envelope levels; derive it
        // from the trained slicer (transmitted 1 ⇒ weaker level means
        // inverted), falling back to the sync correlator's sign.
        let inverted = result
            .slicer
            .map(|s| s.high < s.low)
            .unwrap_or(sync.inverted);
        Some(OtamRxResult {
            bits: result.bits,
            used: result.used,
            inverted,
            sync_offset: sync.offset,
            snr,
        })
    }

    /// [`OtamLink::receive`] with observability: counts which
    /// demodulation path decided the frame (`otam_rx{ask}` /
    /// `otam_rx{fsk}` — the FSK count is the §6.3 fallback rate), sync
    /// failures (`otam_no_sync`), and feeds three accumulators: the
    /// preamble SNR estimate (`otam_snr_db`), the link's decision margin
    /// — envelope level separation over the ASK-trust threshold
    /// (`otam_margin_db`) — and the analytic joint BER of the channel
    /// the frame crossed (`otam_ber`). A disabled recorder makes this
    /// exactly `receive`.
    pub fn receive_observed(
        &self,
        buf: &IqBuffer,
        rec: &mut mmx_obs::Recorder,
    ) -> Option<OtamRxResult> {
        let rx = self.receive(buf);
        if !rec.is_enabled() {
            return rx;
        }
        match &rx {
            Some(r) => {
                let path = match r.used {
                    DemodPath::Ask => "ask",
                    DemodPath::Fsk => "fsk",
                };
                rec.inc("otam_rx", path);
                if let Some(snr) = r.snr {
                    rec.observe("otam_snr_db", "", snr.value());
                }
                let margin = self.channel.level_separation() - self.cfg.min_ask_separation;
                rec.observe("otam_margin_db", "", margin.value());
                rec.observe("otam_ber", "", self.theoretical_ber());
            }
            None => rec.inc("otam_no_sync", ""),
        }
        rx
    }

    /// End-to-end packet transfer: serialize, push through the channel
    /// with noise, receive, parse. Returns the receive diagnostics and
    /// the parse outcome.
    pub fn send_packet<R: Rng + ?Sized>(
        &self,
        packet: &Packet,
        rng: &mut R,
    ) -> (Option<OtamRxResult>, Result<Packet, PacketError>) {
        let bits = packet.to_bits();
        let wave = self.waveform(&bits, rng);
        match self.receive(&wave) {
            Some(rx) => {
                let parsed = Packet::from_bits(&rx.bits);
                (Some(rx), parsed)
            }
            None => (None, Err(PacketError::Truncated)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x07A4)
    }

    /// A strong-LoS channel: Beam 1 ~ −65 dB, Beam 0 ~ −80 dB.
    fn los_channel() -> BeamChannel {
        BeamChannel {
            h1: Complex::from_polar(10f64.powf(-65.0 / 20.0), 0.7),
            h0: Complex::from_polar(10f64.powf(-80.0 / 20.0), -1.1),
        }
    }

    /// A blocked-LoS channel: Beam 1 crushed, Beam 0 healthy.
    fn blocked_channel() -> BeamChannel {
        BeamChannel {
            h1: Complex::from_polar(10f64.powf(-95.0 / 20.0), 0.2),
            h0: Complex::from_polar(10f64.powf(-75.0 / 20.0), 2.0),
        }
    }

    /// The pathological equal-loss channel that forces FSK.
    fn equal_channel() -> BeamChannel {
        BeamChannel {
            h1: Complex::from_polar(10f64.powf(-70.0 / 20.0), 0.4),
            h0: Complex::from_polar(10f64.powf(-70.2 / 20.0), -0.9),
        }
    }

    fn link(ch: BeamChannel) -> OtamLink {
        OtamLink::new(OtamConfig::standard(), ch)
    }

    fn packet() -> Packet {
        Packet::new(3, 99, &b"over-the-air modulation test payload"[..])
    }

    #[test]
    fn los_packet_roundtrip_uses_ask() {
        let l = link(los_channel());
        let (rx, parsed) = l.send_packet(&packet(), &mut rng());
        let rx = rx.expect("sync");
        assert_eq!(parsed.expect("parse"), packet());
        assert_eq!(rx.used, DemodPath::Ask);
        assert!(!rx.inverted);
    }

    #[test]
    fn blocked_los_roundtrip_inverted() {
        let l = link(blocked_channel());
        let (rx, parsed) = l.send_packet(&packet(), &mut rng());
        let rx = rx.expect("sync");
        assert_eq!(parsed.expect("parse"), packet());
        assert!(rx.inverted, "blocked LoS must invert polarity");
    }

    #[test]
    fn equal_loss_roundtrip_uses_fsk() {
        let l = link(equal_channel());
        let (rx, parsed) = l.send_packet(&packet(), &mut rng());
        let rx = rx.expect("sync");
        assert_eq!(parsed.expect("parse"), packet());
        assert_eq!(rx.used, DemodPath::Fsk);
    }

    #[test]
    fn observed_receive_counts_paths_and_margins() {
        let mut rec = mmx_obs::Recorder::enabled();
        let ask_link = link(los_channel());
        let fsk_link = link(equal_channel());
        let bits = packet().to_bits();
        let r = rng();
        for l in [&ask_link, &fsk_link] {
            let wave = l.waveform(&bits, &mut r.clone());
            let plain = l.receive(&wave).expect("sync");
            let observed = l.receive_observed(&wave, &mut rec).expect("sync");
            assert_eq!(plain.bits, observed.bits, "observation changed decode");
            assert_eq!(plain.used, observed.used);
        }
        let reg = rec.registry();
        assert_eq!(reg.counter(mmx_obs::Key::labelled("otam_rx", "ask")), 1);
        assert_eq!(reg.counter(mmx_obs::Key::labelled("otam_rx", "fsk")), 1);
        assert_eq!(rec.histogram("otam_snr_db").unwrap().count(), 2);
        let margins = rec.histogram("otam_margin_db").expect("recorded");
        assert_eq!(margins.count(), 2);
        // LoS separation clears the trust threshold; equal-loss doesn't.
        assert!(margins.max() > 0.0);
        assert!(margins.min() < 0.0);
        assert_eq!(rec.histogram("otam_ber").unwrap().count(), 2);
        // No-sync path: pure noise channel.
        let dead = link(BeamChannel {
            h0: Complex::ZERO,
            h1: Complex::ZERO,
        });
        let wave = dead.waveform(&bits, &mut rng());
        assert!(dead.receive_observed(&wave, &mut rec).is_none());
        assert_eq!(reg_count(&rec, "otam_no_sync"), 1);
    }

    fn reg_count(rec: &mmx_obs::Recorder, name: &'static str) -> u64 {
        rec.registry().counter(mmx_obs::Key::plain(name))
    }

    #[test]
    fn theoretical_snr_is_sane() {
        // −65 dB mark channel: 10 dBm − 18 − 65 = −73 dBm received;
        // noise in 1 MHz symbol band ≈ −111.4 dBm ⇒ SNR ≈ 38 dB.
        let snr = link(los_channel()).theoretical_snr().value();
        assert!((32.0..42.0).contains(&snr), "snr = {snr}");
    }

    #[test]
    fn measured_snr_tracks_theory() {
        let l = link(los_channel());
        let (rx, _) = l.send_packet(&packet(), &mut rng());
        let measured = rx.unwrap().snr.expect("estimate").value();
        let theory = l.theoretical_snr().value();
        assert!(
            (measured - theory).abs() < 6.0,
            "measured {measured} vs theory {theory}"
        );
    }

    #[test]
    fn no_signal_no_sync() {
        let l = link(BeamChannel {
            h0: Complex::ZERO,
            h1: Complex::ZERO,
        });
        let bits = packet().to_bits();
        let wave = l.waveform(&bits, &mut rng());
        assert!(l.receive(&wave).is_none());
    }

    #[test]
    fn theoretical_ber_tiny_for_good_link() {
        assert!(link(los_channel()).theoretical_ber() < 1e-12);
    }

    #[test]
    fn clean_waveform_has_two_levels() {
        let l = link(los_channel());
        let bits = [true, false, true, false];
        let w = l.clean_waveform(&bits);
        let sps = l.config().samples_per_symbol;
        let p1: f64 = w.samples()[..sps].iter().map(|s| s.norm_sq()).sum::<f64>() / sps as f64;
        let p0: f64 = w.samples()[sps..2 * sps]
            .iter()
            .map(|s| s.norm_sq())
            .sum::<f64>()
            / sps as f64;
        let depth_db = 10.0 * (p1 / p0).log10();
        assert!((depth_db - 15.0).abs() < 1.0, "depth = {depth_db} dB");
    }

    #[test]
    fn ask_decoding_is_cfo_immune() {
        // Envelope detection does not care about carrier offset: a
        // 200 kHz VCO drift must not cost a single bit on an ASK link.
        let mut cfg = OtamConfig::standard();
        cfg.cfo = Hertz::from_khz(200.0);
        let l = OtamLink::new(cfg, los_channel());
        let (rx, parsed) = l.send_packet(&packet(), &mut rng());
        assert_eq!(parsed.expect("parse"), packet());
        assert_eq!(rx.expect("sync").used, DemodPath::Ask);
    }

    #[test]
    fn fsk_tolerates_moderate_cfo() {
        // The Goertzel discriminator compares the two tone bins; drift
        // up to ~deviation/4 keeps the decision margin.
        let mut cfg = OtamConfig::standard();
        cfg.cfo = Hertz::from_khz(300.0); // deviation is 2 MHz
        let l = OtamLink::new(cfg, equal_channel());
        let (rx, parsed) = l.send_packet(&packet(), &mut rng());
        assert_eq!(parsed.expect("parse"), packet());
        assert_eq!(rx.expect("sync").used, DemodPath::Fsk);
    }

    #[test]
    fn excessive_cfo_breaks_fsk_but_not_ask() {
        // Past half the deviation, the tones swap bins: the FSK path
        // cannot work — but the amplitude path is unaffected, so the
        // unequal-loss link still delivers.
        let mut cfg = OtamConfig::standard();
        cfg.cfo = Hertz::from_mhz(1.2);
        let ask_link = OtamLink::new(cfg, los_channel());
        let (_, parsed) = ask_link.send_packet(&packet(), &mut rng());
        assert_eq!(parsed.expect("ASK survives"), packet());

        let fsk_link = OtamLink::new(cfg, equal_channel());
        let (_, parsed) = fsk_link.send_packet(&packet(), &mut rng());
        assert!(parsed.is_err(), "FSK should fail at 1.2 MHz CFO");
    }

    #[test]
    fn bit_rate_formula() {
        let cfg = OtamConfig::standard();
        assert!((cfg.bit_rate_hz() - 1e6).abs() < 1e-6);
    }
}
