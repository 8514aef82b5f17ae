//! Sample-rate-tagged IQ buffers.

use crate::complex::Complex;
use mmx_units::{Hertz, Seconds};

/// A buffer of complex baseband samples tagged with its sample rate.
///
/// Tagging the rate onto the buffer prevents an entire class of bugs where
/// a demodulator is run at the wrong rate: every consumer asserts or reads
/// the rate instead of assuming it.
#[derive(Debug, Clone, PartialEq)]
pub struct IqBuffer {
    samples: Vec<Complex>,
    sample_rate: Hertz,
}

impl IqBuffer {
    /// Creates a buffer from samples and their rate.
    pub fn new(samples: Vec<Complex>, sample_rate: Hertz) -> Self {
        assert!(sample_rate.hz() > 0.0, "sample rate must be positive");
        IqBuffer {
            samples,
            sample_rate,
        }
    }

    /// An empty buffer at the given rate.
    pub fn empty(sample_rate: Hertz) -> Self {
        Self::new(Vec::new(), sample_rate)
    }

    /// A zero-filled buffer of `len` samples.
    pub fn zeros(len: usize, sample_rate: Hertz) -> Self {
        Self::new(vec![Complex::ZERO; len], sample_rate)
    }

    /// Synthesizes a complex tone `amp·e^(j2πft)` of `len` samples.
    ///
    /// This is the node's carrier as seen at complex baseband after the
    /// AP's down-converter: a tone at the offset `f` from the LO.
    pub fn tone(amp: f64, freq: Hertz, len: usize, sample_rate: Hertz) -> Self {
        let w = 2.0 * std::f64::consts::PI * freq.hz() / sample_rate.hz();
        let samples = (0..len)
            .map(|n| Complex::from_polar(amp, w * n as f64))
            .collect();
        Self::new(samples, sample_rate)
    }

    /// The sample rate.
    pub fn sample_rate(&self) -> Hertz {
        self.sample_rate
    }

    /// The samples.
    pub fn samples(&self) -> &[Complex] {
        &self.samples
    }

    /// Mutable access to the samples.
    pub fn samples_mut(&mut self) -> &mut [Complex] {
        &mut self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The wall-clock duration the buffer spans.
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.samples.len() as f64 / self.sample_rate.hz())
    }

    /// Appends another buffer. Panics if the rates differ.
    pub fn extend(&mut self, other: &IqBuffer) {
        assert_eq!(
            self.sample_rate, other.sample_rate,
            "cannot concatenate buffers with different sample rates"
        );
        self.samples.extend_from_slice(&other.samples);
    }

    /// Pushes a single sample.
    pub fn push(&mut self, s: Complex) {
        self.samples.push(s);
    }

    /// Adds `other` element-wise (superposition of two signals at the same
    /// antenna). Panics if rates or lengths differ.
    pub fn mix_in(&mut self, other: &IqBuffer) {
        assert_eq!(self.sample_rate, other.sample_rate, "rate mismatch");
        assert_eq!(self.len(), other.len(), "length mismatch");
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a += *b;
        }
    }

    /// Multiplies every sample by a complex gain (flat channel).
    pub fn apply_gain(&mut self, g: Complex) {
        for s in &mut self.samples {
            *s *= g;
        }
    }

    /// Frequency-shifts the buffer by `offset` (multiplies by
    /// `e^(j2π·offset·t)`).
    pub fn frequency_shift(&mut self, offset: Hertz) {
        let w = 2.0 * std::f64::consts::PI * offset.hz() / self.sample_rate.hz();
        for (n, s) in self.samples.iter_mut().enumerate() {
            *s *= Complex::cis(w * n as f64);
        }
    }

    /// Mean power of the buffer (`mean(|x|²)`), 0.0 for an empty buffer.
    pub fn mean_power(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.norm_sq()).sum::<f64>() / self.samples.len() as f64
    }

    /// Total energy of the buffer (`sum(|x|²) / fs`).
    pub fn energy(&self) -> f64 {
        self.samples.iter().map(|s| s.norm_sq()).sum::<f64>() / self.sample_rate.hz()
    }

    /// A view of `count` samples starting at `start`, clamped to the
    /// buffer.
    pub fn slice(&self, start: usize, count: usize) -> &[Complex] {
        let end = (start + count).min(self.samples.len());
        let start = start.min(end);
        &self.samples[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    fn rate() -> Hertz {
        Hertz::from_mhz(25.0)
    }

    #[test]
    fn tone_has_unit_power() {
        let buf = IqBuffer::tone(1.0, Hertz::from_mhz(1.0), 1000, rate());
        close(buf.mean_power(), 1.0, 1e-12);
    }

    #[test]
    fn tone_amplitude_scales_power_quadratically() {
        let buf = IqBuffer::tone(2.0, Hertz::from_mhz(1.0), 256, rate());
        close(buf.mean_power(), 4.0, 1e-12);
    }

    #[test]
    fn duration_matches_len_over_rate() {
        let buf = IqBuffer::zeros(2500, rate());
        close(buf.duration().micros(), 100.0, 1e-9);
    }

    #[test]
    fn mix_in_superposes() {
        let mut a = IqBuffer::tone(1.0, Hertz::from_mhz(1.0), 64, rate());
        let b = a.clone();
        a.mix_in(&b);
        close(a.mean_power(), 4.0, 1e-12); // coherent sum doubles amplitude
    }

    #[test]
    fn frequency_shift_moves_tone() {
        let mut buf = IqBuffer::tone(1.0, Hertz::from_mhz(1.0), 4096, rate());
        buf.frequency_shift(Hertz::from_mhz(2.0));
        // The shifted buffer should equal a 3 MHz tone.
        let want = IqBuffer::tone(1.0, Hertz::from_mhz(3.0), 4096, rate());
        for (a, b) in buf.samples().iter().zip(want.samples()) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_gain_scales_power() {
        let mut buf = IqBuffer::tone(1.0, Hertz::from_mhz(1.0), 128, rate());
        buf.apply_gain(Complex::from_polar(0.5, 1.0));
        close(buf.mean_power(), 0.25, 1e-12);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = IqBuffer::zeros(10, rate());
        let b = IqBuffer::zeros(5, rate());
        a.extend(&b);
        assert_eq!(a.len(), 15);
    }

    #[test]
    #[should_panic(expected = "different sample rates")]
    fn extend_rejects_rate_mismatch() {
        let mut a = IqBuffer::zeros(10, rate());
        let b = IqBuffer::zeros(5, Hertz::from_mhz(10.0));
        a.extend(&b);
    }

    #[test]
    fn slice_clamps() {
        let buf = IqBuffer::zeros(10, rate());
        assert_eq!(buf.slice(8, 100).len(), 2);
        assert_eq!(buf.slice(20, 10).len(), 0);
    }

    #[test]
    fn energy_equals_power_times_duration() {
        let buf = IqBuffer::tone(1.0, Hertz::from_mhz(1.0), 1000, rate());
        close(
            buf.energy(),
            buf.mean_power() * buf.duration().value(),
            1e-15,
        );
    }
}
