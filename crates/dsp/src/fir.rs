//! FIR filters: windowed-sinc design and streaming convolution.
//!
//! The AP's channelizer isolates each node's FDM channel with a low-pass
//! filter after shifting the channel to DC; this module provides that
//! filter.

use crate::complex::Complex;
use crate::window::Window;
use mmx_units::Hertz;

/// A finite-impulse-response filter with real taps.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Designs a windowed-sinc low-pass filter.
    ///
    /// * `cutoff` — the −6 dB cutoff frequency.
    /// * `sample_rate` — sample rate the filter will run at.
    /// * `num_taps` — filter order + 1 (odd counts give a symmetric,
    ///   linear-phase filter; even counts are bumped up by one).
    pub fn low_pass(cutoff: Hertz, sample_rate: Hertz, num_taps: usize, window: Window) -> Self {
        assert!(
            cutoff.hz() > 0.0 && cutoff.hz() < sample_rate.hz() / 2.0,
            "cutoff must lie in (0, fs/2)"
        );
        let n = if num_taps.is_multiple_of(2) {
            num_taps + 1
        } else {
            num_taps
        }
        .max(3);
        let fc = cutoff.hz() / sample_rate.hz(); // cycles per sample
        let mid = (n / 2) as isize;
        let mut taps: Vec<f64> = (0..n)
            .map(|i| {
                let k = i as isize - mid;
                let sinc = if k == 0 {
                    2.0 * fc
                } else {
                    (2.0 * std::f64::consts::PI * fc * k as f64).sin()
                        / (std::f64::consts::PI * k as f64)
                };
                sinc * window.coeff(i, n)
            })
            .collect();
        // Normalize to unit DC gain.
        let dc: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= dc;
        }
        Fir { taps }
    }

    /// The filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Group delay in samples (symmetric filters only).
    pub fn group_delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// Filters a complex signal, returning a same-length output (zero
    /// initial state; the first `group_delay()` samples are transient).
    pub fn filter(&self, x: &[Complex]) -> Vec<Complex> {
        let mut y = vec![Complex::ZERO; x.len()];
        for (n, out) in y.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (k, &t) in self.taps.iter().enumerate() {
                if n >= k {
                    acc += x[n - k].scale(t);
                }
            }
            *out = acc;
        }
        y
    }

    /// Complex frequency response at `freq` for a given sample rate.
    pub fn response(&self, freq: Hertz, sample_rate: Hertz) -> Complex {
        let w = 2.0 * std::f64::consts::PI * freq.hz() / sample_rate.hz();
        self.taps
            .iter()
            .enumerate()
            .map(|(k, &t)| Complex::cis(-w * k as f64).scale(t))
            .sum()
    }

    /// Magnitude response in dB at `freq`.
    pub fn response_db(&self, freq: Hertz, sample_rate: Hertz) -> f64 {
        20.0 * self.response(freq, sample_rate).abs().log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::IqBuffer;

    fn rate() -> Hertz {
        Hertz::from_mhz(100.0)
    }

    #[test]
    fn dc_gain_is_unity() {
        let f = Fir::low_pass(Hertz::from_mhz(10.0), rate(), 63, Window::Hamming);
        let g = f.response(Hertz::new(0.0), rate()).abs();
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn passband_tone_survives() {
        let f = Fir::low_pass(Hertz::from_mhz(10.0), rate(), 101, Window::Hamming);
        let x = IqBuffer::tone(1.0, Hertz::from_mhz(2.0), 2000, rate());
        let y = f.filter(x.samples());
        // Skip the transient, measure steady-state power.
        let steady = &y[200..];
        let p: f64 = steady.iter().map(|c| c.norm_sq()).sum::<f64>() / steady.len() as f64;
        assert!(p > 0.95, "passband power = {p}");
    }

    #[test]
    fn stopband_tone_is_attenuated() {
        let f = Fir::low_pass(Hertz::from_mhz(10.0), rate(), 101, Window::Hamming);
        let x = IqBuffer::tone(1.0, Hertz::from_mhz(30.0), 2000, rate());
        let y = f.filter(x.samples());
        let steady = &y[200..];
        let p: f64 = steady.iter().map(|c| c.norm_sq()).sum::<f64>() / steady.len() as f64;
        assert!(p < 1e-4, "stopband power = {p}");
    }

    #[test]
    fn cutoff_is_minus_6db() {
        let f = Fir::low_pass(Hertz::from_mhz(10.0), rate(), 201, Window::Hamming);
        let db = f.response_db(Hertz::from_mhz(10.0), rate());
        assert!((db + 6.0).abs() < 0.5, "cutoff response = {db} dB");
    }

    #[test]
    fn taps_are_symmetric_linear_phase() {
        let f = Fir::low_pass(Hertz::from_mhz(5.0), rate(), 31, Window::Hann);
        let t = f.taps();
        for i in 0..t.len() {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-15);
        }
        assert_eq!(f.group_delay(), 15);
    }

    #[test]
    fn even_tap_count_is_bumped_to_odd() {
        let f = Fir::low_pass(Hertz::from_mhz(5.0), rate(), 32, Window::Hann);
        assert_eq!(f.taps().len() % 2, 1);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn cutoff_beyond_nyquist_panics() {
        let _ = Fir::low_pass(Hertz::from_mhz(60.0), rate(), 31, Window::Hann);
    }

    #[test]
    fn negative_frequencies_mirror_magnitude() {
        let f = Fir::low_pass(Hertz::from_mhz(10.0), rate(), 63, Window::Hamming);
        let pos = f.response(Hertz::from_mhz(7.0), rate()).abs();
        let neg = f.response(Hertz::from_mhz(-7.0), rate()).abs();
        assert!((pos - neg).abs() < 1e-12);
    }
}
