//! Time-Modulated Array (TMA) — the AP-side spatial multiplexer.
//!
//! §7(b) of the paper: instead of multiple mmWave chains, the AP connects
//! each antenna element through an RF switch into a single combiner. With a
//! periodic switching sequence `wₙ(t)` the combined output is (Eq. 4)
//!
//! ```text
//! y(θ,t) = r(θ,t) · Σₘ e^(j(ω₀+mωₚ)t) · Σₙ aₘₙ · e^(j·k·n·d·sin θ)
//! ```
//!
//! so the signal arriving from direction `θ` is copied onto harmonics of
//! the switching frequency, and **which harmonic carries the strong copy
//! depends on `θ`**: the TMA hashes directions into frequency channels.
//!
//! We implement the classic progressive sequence (element `n` on for
//! `Tp/N` starting at `n·Tp/N`), for which the harmonic-`m` coefficients
//! form a progressive phase `e^(-j2πmn/N)` — i.e. harmonic `m` is a beam
//! steered to `sin θₘ = mλ/(Nd)`. Both the analytic coefficients and a
//! time-domain sample-level simulation are provided; the tests check they
//! agree.

use crate::element::Element;
use mmx_dsp::{Complex, IqBuffer};
use mmx_units::{Db, Degrees, Hertz};

/// A time-modulated array with the progressive switching sequence.
#[derive(Debug, Clone)]
pub struct Tma {
    n: usize,
    spacing_m: f64,
    freq: Hertz,
    switch_freq: Hertz,
    element: Element,
}

impl Tma {
    /// Creates an `n`-element, λ/2-spaced TMA at carrier `freq`, switching
    /// with fundamental `switch_freq` (`ωₚ = 2π·switch_freq`).
    pub fn new(n: usize, freq: Hertz, switch_freq: Hertz) -> Self {
        assert!(n >= 2, "TMA needs at least 2 elements");
        assert!(switch_freq.hz() > 0.0, "switch frequency must be positive");
        Tma {
            n,
            spacing_m: freq.wavelength_m() / 2.0,
            freq,
            switch_freq,
            element: Element::ApDipole,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Cannot be empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The switching fundamental frequency `fₚ`.
    pub fn switch_freq(&self) -> Hertz {
        self.switch_freq
    }

    /// Harmonic indices this array can usefully resolve:
    /// `m ∈ [-N/2, N/2)` map to distinct steering directions.
    pub fn harmonics(&self) -> Vec<i32> {
        let half = self.n as i32 / 2;
        (-half..half).collect()
    }

    /// Fourier coefficient `aₘₙ` of element `n`'s switching waveform
    /// (Eq. 3), for the progressive sequence with duty `1/N`.
    pub fn fourier_coeff(&self, m: i32, elem: usize) -> Complex {
        assert!(elem < self.n, "element index out of range");
        let nn = self.n as f64;
        let duty = 1.0 / nn;
        if m == 0 {
            return Complex::real(duty);
        }
        let mf = m as f64;
        // a_mn = duty · sinc(π m/N) · e^(-jπm/N) · e^(-j2πmn/N)
        let x = std::f64::consts::PI * mf / nn;
        let sinc = x.sin() / x;
        let phase = -x - 2.0 * std::f64::consts::PI * mf * elem as f64 / nn;
        Complex::from_polar(duty * sinc, phase)
    }

    /// Complex response of harmonic `m` toward azimuth `az` (the inner sum
    /// of Eq. 4, times the element pattern).
    pub fn harmonic_response(&self, m: i32, az: Degrees) -> Complex {
        let k = 2.0 * std::f64::consts::PI / self.freq.wavelength_m();
        let s = az.to_radians().sin();
        let sum: Complex = (0..self.n)
            .map(|elem| {
                self.fourier_coeff(m, elem) * Complex::cis(k * elem as f64 * self.spacing_m * s)
            })
            .sum();
        sum.scale(self.element.amplitude(az))
    }

    /// Power gain of harmonic `m` toward `az`, relative to a single
    /// isotropic element receiving continuously.
    pub fn harmonic_gain(&self, m: i32, az: Degrees) -> Db {
        Db::from_linear(self.harmonic_response(m, az).norm_sq())
    }

    /// The azimuth at which harmonic `m` has its principal beam, when one
    /// exists (`|sin θ| ≤ 1`).
    pub fn harmonic_direction(&self, m: i32) -> Option<Degrees> {
        let s = m as f64 * self.freq.wavelength_m() / (self.n as f64 * self.spacing_m);
        if s.abs() <= 1.0 {
            Some(Degrees::new(s.asin().to_degrees()))
        } else {
            None
        }
    }

    /// Assigns each arrival direction the harmonic whose beam is nearest —
    /// the direction→channel hash used by SDM. Directions map independently
    /// (two nodes in the same beam collide; the SDM scheduler in `mmx-net`
    /// must give them different FDM channels instead).
    pub fn assign_harmonics(&self, directions: &[Degrees]) -> Vec<i32> {
        directions
            .iter()
            .map(|&az| {
                self.harmonics()
                    .into_iter()
                    .filter_map(|m| self.harmonic_direction(m).map(|d| (m, d)))
                    .min_by(|a, b| {
                        az.distance(a.1)
                            .value()
                            .partial_cmp(&az.distance(b.1).value())
                            .expect("angles are finite")
                    })
                    .map(|(m, _)| m)
                    .expect("harmonic set is non-empty")
            })
            .collect()
    }

    /// Gain matrix `G[i][j]`: gain of a signal arriving from
    /// `directions[i]` into the harmonic assigned to `directions[j]`.
    /// Diagonal = wanted signal; off-diagonal = inter-harmonic leakage.
    pub fn gain_matrix(&self, directions: &[Degrees]) -> Vec<Vec<Db>> {
        let assignment = self.assign_harmonics(directions);
        directions
            .iter()
            .map(|&from| {
                assignment
                    .iter()
                    .map(|&m| self.harmonic_gain(m, from))
                    .collect()
            })
            .collect()
    }

    /// Time-domain simulation: applies the switching sequence to a plane
    /// wave arriving from `az` carrying baseband `signal`, producing the
    /// combined output stream. The sample rate must be an integer multiple
    /// of `N·switch_freq` so that switching instants align with samples.
    pub fn modulate_block(&self, signal: &IqBuffer, az: Degrees) -> IqBuffer {
        let fs = signal.sample_rate();
        let samples_per_slot = fs.hz() / (self.switch_freq.hz() * self.n as f64);
        assert!(
            (samples_per_slot - samples_per_slot.round()).abs() < 1e-6 && samples_per_slot >= 1.0,
            "sample rate must be an integer multiple of N·fp (got {samples_per_slot} samples/slot)"
        );
        let slot = samples_per_slot.round() as usize;
        let k = 2.0 * std::f64::consts::PI / self.freq.wavelength_m();
        let s = az.to_radians().sin();
        let elem_amp = self.element.amplitude(az);
        // Per-element spatial phase.
        let spatial: Vec<Complex> = (0..self.n)
            .map(|e| Complex::cis(k * e as f64 * self.spacing_m * s).scale(elem_amp))
            .collect();
        let mut out = IqBuffer::empty(fs);
        for (i, &x) in signal.samples().iter().enumerate() {
            // Which element is on during this sample?
            let active = (i / slot) % self.n;
            out.push(x * spatial[active]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_dsp::fft::{bin_frequency, peak_bin, power_spectrum};

    fn tma8() -> Tma {
        Tma::new(8, Hertz::from_ghz(24.0), Hertz::from_mhz(1.0))
    }

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn dc_coefficient_is_duty_cycle() {
        let t = tma8();
        for e in 0..8 {
            let a = t.fourier_coeff(0, e);
            close(a.re, 1.0 / 8.0, 1e-12);
            close(a.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn coefficients_have_progressive_phase() {
        let t = tma8();
        let m = 1;
        for e in 0..7 {
            let d = (t.fourier_coeff(m, e + 1) / t.fourier_coeff(m, e)).arg();
            // Phase step must be -2πm/N.
            close(d, -2.0 * std::f64::consts::PI / 8.0, 1e-9);
        }
    }

    #[test]
    fn harmonic_directions_follow_sine_grid() {
        let t = tma8();
        // sinθ_m = 2m/N = m/4 for λ/2 spacing.
        close(t.harmonic_direction(0).unwrap().value(), 0.0, 1e-12);
        close(
            t.harmonic_direction(1).unwrap().value(),
            (0.25f64).asin().to_degrees(),
            1e-9,
        );
        close(
            t.harmonic_direction(-2).unwrap().value(),
            (-0.5f64).asin().to_degrees(),
            1e-9,
        );
        assert!(t.harmonic_direction(5).is_none()); // |sin| > 1
    }

    #[test]
    fn harmonic_beam_peaks_at_its_direction() {
        // For every in-range harmonic, the argmax of the harmonic beam
        // over the field of view must sit at the predicted direction.
        let t = tma8();
        for m in t.harmonics() {
            let dir = t.harmonic_direction(m).expect("in range");
            if dir.value().abs() > 40.0 {
                continue; // the element taper skews far-out beams
            }
            let best = (-800..=800)
                .map(|d| Degrees::new(d as f64 / 10.0))
                .max_by(|a, b| {
                    t.harmonic_gain(m, *a)
                        .partial_cmp(&t.harmonic_gain(m, *b))
                        .unwrap()
                })
                .unwrap();
            assert!(
                best.distance(dir).value() < 4.0,
                "m={m}: beam peaks at {best}, predicted {dir}"
            );
        }
    }

    #[test]
    fn cross_harmonic_copies_are_20_to_30_db_down() {
        // Paper: "only one copy has significant amplitude and the rest are
        // negligible (20-30 dB weaker)".
        let t = tma8();
        let dir = t.harmonic_direction(1).unwrap();
        let wanted = t.harmonic_gain(1, dir);
        for m in t.harmonics() {
            if m == 1 {
                continue;
            }
            let copy = t.harmonic_gain(m, dir);
            assert!(
                (wanted - copy).value() > 10.0,
                "copy at m={m} only {} below",
                (wanted - copy)
            );
        }
    }

    #[test]
    fn assignment_picks_nearest_beam() {
        let t = tma8();
        let dirs = [Degrees::new(0.0), Degrees::new(14.5), Degrees::new(-30.0)];
        let asg = t.assign_harmonics(&dirs);
        assert_eq!(asg[0], 0);
        assert_eq!(asg[1], 1); // sin(14.5°) = 0.25 → m=1
        assert_eq!(asg[2], -2); // sin(-30°) = -0.5 → m=-2
    }

    #[test]
    fn gain_matrix_diagonal_dominates() {
        let t = tma8();
        let dirs = [Degrees::new(0.0), Degrees::new(14.5), Degrees::new(-30.0)];
        let g = t.gain_matrix(&dirs);
        for (i, row) in g.iter().enumerate() {
            for (j, &leak) in row.iter().enumerate() {
                if i != j {
                    assert!(
                        (row[i] - leak).value() > 10.0,
                        "leakage {i}->{j}: {leak} vs {}",
                        row[i]
                    );
                }
            }
        }
    }

    #[test]
    fn time_domain_matches_analytic_harmonic() {
        // A plane wave from θ_m must come out concentrated at offset m·fp.
        let t = tma8();
        let fp = t.switch_freq();
        let fs = Hertz::from_mhz(64.0); // 8 samples per slot
        let az = t.harmonic_direction(2).unwrap();
        let tone = IqBuffer::tone(1.0, Hertz::new(0.0), 8192, fs);
        let out = t.modulate_block(&tone, az);
        let spec = power_spectrum(out.samples());
        let k = peak_bin(&spec);
        let f_peak = bin_frequency(k, spec.len()) * fs.hz();
        close(f_peak, 2.0 * fp.hz(), fp.hz() * 0.2);
    }

    #[test]
    fn time_domain_broadside_stays_at_dc() {
        let t = tma8();
        let fs = Hertz::from_mhz(64.0);
        let tone = IqBuffer::tone(1.0, Hertz::new(0.0), 8192, fs);
        let out = t.modulate_block(&tone, Degrees::new(0.0));
        let spec = power_spectrum(out.samples());
        assert_eq!(peak_bin(&spec), 0);
    }

    #[test]
    fn time_domain_amplitude_matches_coefficients() {
        // The DC-harmonic output amplitude for a broadside wave equals
        // N·|a₀|·E(0) = 1·E(0) per sample on average.
        let t = tma8();
        let fs = Hertz::from_mhz(64.0);
        let tone = IqBuffer::tone(1.0, Hertz::new(0.0), 8192, fs);
        let out = t.modulate_block(&tone, Degrees::new(0.0));
        let analytic = t.harmonic_response(0, Degrees::new(0.0)).abs();
        // Mean complex output (= DC bin amplitude).
        let mean: Complex = out
            .samples()
            .iter()
            .fold(Complex::ZERO, |a, &b| a + b)
            .scale(1.0 / out.len() as f64);
        close(mean.abs(), analytic, 1e-6);
    }

    #[test]
    #[should_panic(expected = "integer multiple")]
    fn misaligned_sample_rate_rejected() {
        let t = tma8();
        let tone = IqBuffer::tone(1.0, Hertz::new(0.0), 100, Hertz::from_mhz(10.0));
        let _ = t.modulate_block(&tone, Degrees::new(0.0));
    }

    #[test]
    fn harmonics_list_spans_half_open_range() {
        assert_eq!(tma8().harmonics(), vec![-4, -3, -2, -1, 0, 1, 2, 3]);
        let t4 = Tma::new(4, Hertz::from_ghz(24.0), Hertz::from_mhz(1.0));
        assert_eq!(t4.harmonics(), vec![-2, -1, 0, 1]);
    }
}
