//! Iterative radix-2 FFT with cached plans.
//!
//! Used by the FSK discriminator (to separate the Beam-0 and Beam-1 carrier
//! offsets), the TMA harmonic analysis, and the spectrum plots in the
//! evaluation harness. For non-power-of-two lengths callers should zero-pad
//! with [`next_pow2`].
//!
//! [`FftPlan`] precomputes the bit-reversal permutation and per-stage
//! twiddle tables for one transform size; the free [`fft`]/[`ifft`]
//! functions are thin wrappers over a thread-local plan cache, so repeated
//! transforms of the same size (the common case in the demodulators) pay
//! the trigonometry only once. The tables are generated with the exact
//! recurrence the direct loop used, so planned and unplanned results are
//! bit-identical.

use crate::complex::Complex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Returns the smallest power of two `>= n` (and `>= 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// A reusable FFT plan for one power-of-two size: the bit-reversal
/// permutation plus forward and inverse per-stage twiddle tables.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed counterpart of each index.
    rev: Vec<u32>,
    /// Forward twiddles, stages concatenated: `len = 2, 4, …, n`, each
    /// stage contributing `len/2` factors (`n − 1` entries total).
    fwd: Vec<Complex>,
    /// Inverse twiddles, same layout.
    inv: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for `n`-point transforms. Panics unless `n` is a
    /// power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| {
                if n <= 1 {
                    i
                } else {
                    i.reverse_bits() >> (u32::BITS - bits)
                }
            })
            .collect();
        // Per-stage tables via the same `w *= wlen` recurrence as the
        // original in-loop computation, so results stay bit-identical.
        let table = |sign: f64| -> Vec<Complex> {
            let mut t = Vec::with_capacity(n.saturating_sub(1));
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
                let wlen = Complex::cis(ang);
                let mut w = Complex::ONE;
                for _ in 0..len / 2 {
                    t.push(w);
                    w *= wlen;
                }
                len <<= 1;
            }
            t
        };
        FftPlan {
            n,
            rev,
            fwd: table(-1.0),
            inv: table(1.0),
        }
    }

    /// The transform size this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate zero-point plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT. No scaling is applied (matching the usual
    /// convention; [`FftPlan::ifft`] applies `1/N`). Panics unless
    /// `x.len()` matches the plan.
    pub fn fft(&self, x: &mut [Complex]) {
        self.dispatch(x, false);
    }

    /// In-place inverse FFT with `1/N` normalization. Panics unless
    /// `x.len()` matches the plan.
    pub fn ifft(&self, x: &mut [Complex]) {
        self.dispatch(x, true);
        let scale = 1.0 / self.n as f64;
        for v in x.iter_mut() {
            *v = *v * scale;
        }
    }

    fn dispatch(&self, x: &mut [Complex], inverse: bool) {
        assert_eq!(x.len(), self.n, "buffer length does not match FFT plan");
        let n = self.n;
        if n <= 1 {
            return;
        }

        // Bit-reversal permutation from the cached table.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if j > i {
                x.swap(i, j);
            }
        }

        // Iterative butterflies with cached twiddles.
        let twiddles = if inverse { &self.inv } else { &self.fwd };
        let mut len = 2;
        let mut stage_base = 0;
        while len <= n {
            let half = len / 2;
            let stage = &twiddles[stage_base..stage_base + half];
            for chunk in x.chunks_mut(len) {
                for (i, &w) in stage.iter().enumerate() {
                    let u = chunk[i];
                    let v = chunk[i + half] * w;
                    chunk[i] = u + v;
                    chunk[i + half] = u - v;
                }
            }
            stage_base += half;
            len <<= 1;
        }
    }
}

thread_local! {
    /// Per-thread plan cache keyed by transform size. The workspace's
    /// transforms cluster on a handful of sizes (symbol windows, spectrum
    /// plots), so this stays tiny while removing all repeated twiddle
    /// trigonometry.
    static PLAN_CACHE: RefCell<HashMap<usize, Rc<FftPlan>>> = RefCell::new(HashMap::new());
}

/// The cached plan for `n`-point transforms on this thread, building it
/// on first use. Panics unless `n` is a power of two.
pub fn plan(n: usize) -> Rc<FftPlan> {
    PLAN_CACHE.with(|cache| {
        Rc::clone(
            cache
                .borrow_mut()
                .entry(n)
                .or_insert_with(|| Rc::new(FftPlan::new(n))),
        )
    })
}

/// In-place forward FFT. Panics unless `x.len()` is a power of two.
///
/// Uses the standard bit-reversal permutation followed by iterative
/// Cooley–Tukey butterflies, via the thread-local plan cache. No scaling
/// is applied (matching the usual convention; [`ifft`] applies `1/N`).
pub fn fft(x: &mut [Complex]) {
    plan(x.len()).fft(x);
}

/// In-place inverse FFT with `1/N` normalization. Panics unless the length
/// is a power of two.
pub fn ifft(x: &mut [Complex]) {
    plan(x.len()).ifft(x);
}

/// Forward FFT of a borrowed slice, zero-padded to the next power of two.
pub fn fft_padded(x: &[Complex]) -> Vec<Complex> {
    let n = next_pow2(x.len());
    let mut buf = Vec::with_capacity(n);
    buf.extend_from_slice(x);
    buf.resize(n, Complex::ZERO);
    fft(&mut buf);
    buf
}

/// Power spectrum `|X[k]|²/N` of a signal (zero-padded to a power of two).
pub fn power_spectrum(x: &[Complex]) -> Vec<f64> {
    let spec = fft_padded(x);
    let n = spec.len() as f64;
    spec.iter().map(|c| c.norm_sq() / n).collect()
}

/// The frequency (in cycles/sample, range `[-0.5, 0.5)`) of FFT bin `k` for
/// an `n`-point transform.
pub fn bin_frequency(k: usize, n: usize) -> f64 {
    let k = k % n;
    if k < n / 2 {
        k as f64 / n as f64
    } else {
        k as f64 / n as f64 - 1.0
    }
}

/// Index of the strongest bin of a power spectrum.
pub fn peak_bin(power: &[f64]) -> usize {
    power
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN in spectrum"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::IqBuffer;
    use mmx_units::Hertz;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let mut x = vec![Complex::ONE; 8];
        fft(&mut x);
        close(x[0].re, 8.0, 1e-12);
        for v in &x[1..] {
            close(v.abs(), 0.0, 1e-12);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        fft(&mut x);
        for v in &x {
            close(v.abs(), 1.0, 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_its_bin() {
        let n = 64;
        let k0 = 5;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64))
            .collect();
        fft(&mut x);
        close(x[k0].abs(), n as f64, 1e-9);
        for (k, v) in x.iter().enumerate() {
            if k != k0 {
                close(v.abs(), 0.0, 1e-9);
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let orig: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut x = orig.clone();
        fft(&mut x);
        ifft(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let orig: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let time_energy: f64 = orig.iter().map(|c| c.norm_sq()).sum();
        let mut x = orig.clone();
        fft(&mut x);
        let freq_energy: f64 = x.iter().map(|c| c.norm_sq()).sum::<f64>() / x.len() as f64;
        close(time_energy, freq_energy, 1e-8);
    }

    #[test]
    fn bin_frequency_wraps_negative() {
        close(bin_frequency(0, 8), 0.0, 1e-15);
        close(bin_frequency(1, 8), 0.125, 1e-15);
        close(bin_frequency(4, 8), -0.5, 1e-15);
        close(bin_frequency(7, 8), -0.125, 1e-15);
    }

    #[test]
    fn peak_bin_finds_tone() {
        let buf = IqBuffer::tone(1.0, Hertz::from_mhz(2.0), 1024, Hertz::from_mhz(16.0));
        let p = power_spectrum(buf.samples());
        let k = peak_bin(&p);
        // 2 MHz / 16 MHz = 0.125 cycles/sample -> bin 128 of 1024.
        assert_eq!(k, 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        let mut x = vec![Complex::ZERO; 12];
        fft(&mut x);
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex> = (0..16).map(|i| Complex::real(i as f64)).collect();
        let b: Vec<Complex> = (0..16).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let mut sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft(&mut sum);
        fft(&mut fa);
        fft(&mut fb);
        for k in 0..16 {
            assert!((sum[k] - (fa[k] + fb[k])).abs() < 1e-9);
        }
    }
}
