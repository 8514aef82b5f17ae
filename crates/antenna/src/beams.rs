//! The mmX node's two orthogonal transmit beams.
//!
//! §6.2 of the paper: *"Each antenna array includes two patch antennas.
//! The array with the broadside beam (Beam 1) excites the patches with the
//! same phase, while the array with null on the broadside (Beam 0) excites
//! the two patches with 180° phase difference. The 180° phase difference
//! creates a null in the broadside and produces two peaks at about ±30°.
//! In addition, the distance between antenna elements corresponding to
//! Beam 1 is properly designed to create a null at ±30°, so that the two
//! beams are orthogonal to each other."*
//!
//! With λ element spacing the two array factors are `√2·cos(π·sin θ)`
//! (Beam 1: broadside peak, nulls at ±30°) and `√2·sin(π·sin θ)` (Beam 0:
//! broadside null, peaks at ±30°) — mutually orthogonal by construction.

use crate::array::UniformLinearArray;
use crate::element::Element;
use mmx_dsp::Complex;
use mmx_units::{Db, Degrees, Hertz};

/// Which of the node's two beams the SPDT switch currently feeds.
///
/// OTAM maps data bits directly onto this choice: bit `1` → `Beam1`,
/// bit `0` → `Beam0` (§6.1, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OtamBeam {
    /// Two-arm beam peaking at ±30° with a broadside null — carries bit 0.
    Beam0,
    /// Broadside beam — carries bit 1.
    Beam1,
}

impl OtamBeam {
    /// The beam that encodes a data bit.
    pub fn for_bit(bit: bool) -> OtamBeam {
        if bit {
            OtamBeam::Beam1
        } else {
            OtamBeam::Beam0
        }
    }

    /// The data bit this beam encodes.
    pub fn bit(self) -> bool {
        matches!(self, OtamBeam::Beam1)
    }
}

/// The node's antenna assembly: two fixed arrays behind an SPDT switch.
#[derive(Debug, Clone)]
pub struct NodeBeams {
    beam0: UniformLinearArray,
    beam1: UniformLinearArray,
    freq: Hertz,
}

impl NodeBeams {
    /// The paper's orthogonal design at carrier `freq`: λ-spaced patch
    /// pairs, in-phase (Beam 1) and anti-phase (Beam 0).
    pub fn orthogonal(freq: Hertz) -> Self {
        let beam1 = UniformLinearArray::with_lambda_spacing(
            Element::Patch,
            1.0,
            freq,
            vec![Complex::ONE, Complex::ONE],
        );
        let beam0 = UniformLinearArray::with_lambda_spacing(
            Element::Patch,
            1.0,
            freq,
            vec![Complex::ONE, -Complex::ONE],
        );
        NodeBeams { beam0, beam1, freq }
    }

    /// The non-orthogonal strawman of Fig. 5(a), used as the §6.2
    /// ablation: two mirror-image beams phase-steered to +30° and −30°.
    /// When the node roughly faces the AP — the overwhelmingly common
    /// orientation — the AP sits *between* the beams and both arrive with
    /// the same loss, so the ASK levels collapse. The orthogonal design
    /// prevents exactly this.
    pub fn non_orthogonal(freq: Hertz) -> Self {
        let steer = |target_deg: f64| {
            let k = 2.0 * std::f64::consts::PI / freq.wavelength_m();
            let d = 0.5 * freq.wavelength_m();
            let phi = k * d * Degrees::new(target_deg).to_radians().sin();
            UniformLinearArray::with_lambda_spacing(
                Element::Patch,
                0.5,
                freq,
                vec![Complex::ONE, Complex::cis(-phi)],
            )
        };
        NodeBeams {
            beam1: steer(30.0),
            beam0: steer(-30.0),
            freq,
        }
    }

    /// Carrier frequency the beams were designed for.
    pub fn freq(&self) -> Hertz {
        self.freq
    }

    /// The array behind a given switch position.
    pub fn array(&self, beam: OtamBeam) -> &UniformLinearArray {
        match beam {
            OtamBeam::Beam0 => &self.beam0,
            OtamBeam::Beam1 => &self.beam1,
        }
    }

    /// Power gain of `beam` toward azimuth `az` (relative to the node's
    /// boresight).
    pub fn gain(&self, beam: OtamBeam, az: Degrees) -> Db {
        self.array(beam).gain(az, self.freq)
    }

    /// Complex field response of `beam` toward `az`.
    pub fn response(&self, beam: OtamBeam, az: Degrees) -> Complex {
        self.array(beam).response(az, self.freq)
    }

    /// Orthogonality leakage: the gain of each beam at the other's peak,
    /// power-summed. Near −∞ dB for the orthogonal design; large for the
    /// non-orthogonal strawman.
    pub fn leakage(&self) -> Db {
        let b1_at_b0_peak = self.gain(OtamBeam::Beam1, Degrees::new(30.0));
        let b0_at_b1_peak = self.gain(OtamBeam::Beam0, Degrees::new(0.0));
        Db::power_sum([b1_at_b0_peak, b0_at_b1_peak])
    }

    /// The node's usable field of view: the paper reports 120° centered on
    /// boresight (±60°).
    pub fn field_of_view(&self) -> Degrees {
        Degrees::new(120.0)
    }

    /// True when azimuth `az` falls inside the field of view.
    pub fn in_field_of_view(&self, az: Degrees) -> bool {
        az.wrapped().value().abs() <= self.field_of_view().value() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beams() -> NodeBeams {
        NodeBeams::orthogonal(Hertz::from_ghz(24.0))
    }

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn beam1_peaks_broadside() {
        let b = beams();
        let peak = b.gain(OtamBeam::Beam1, Degrees::new(0.0));
        // Element 6.3 dBi + 3 dB array gain.
        close(peak.value(), 9.3, 0.1);
    }

    #[test]
    fn beam0_peaks_near_30_degrees() {
        let b = beams();
        let p30 = b.gain(OtamBeam::Beam0, Degrees::new(30.0));
        let pm30 = b.gain(OtamBeam::Beam0, Degrees::new(-30.0));
        close(p30.value(), pm30.value(), 1e-9);
        // Peak ≈ element gain at 30° (cos² → −1.25 dB) + 3 dB.
        assert!(p30.value() > 6.0, "Beam 0 peak = {p30}");
    }

    #[test]
    fn mutual_nulls_make_beams_orthogonal() {
        let b = beams();
        // Beam 0 has a null at Beam 1's peak...
        assert!(b.gain(OtamBeam::Beam0, Degrees::new(0.0)).value() < -100.0);
        // ...and Beam 1 has nulls at Beam 0's peaks (Fig. 8).
        assert!(b.gain(OtamBeam::Beam1, Degrees::new(30.0)).value() < -100.0);
        assert!(b.gain(OtamBeam::Beam1, Degrees::new(-30.0)).value() < -100.0);
        assert!(!b.leakage().is_finite() || b.leakage().value() < -60.0);
    }

    #[test]
    fn non_orthogonal_design_leaks() {
        let b = NodeBeams::non_orthogonal(Hertz::from_ghz(24.0));
        // Both beams have substantial gain at broadside: no nulls.
        assert!(b.gain(OtamBeam::Beam0, Degrees::new(0.0)).value() > 0.0);
        assert!(b.gain(OtamBeam::Beam1, Degrees::new(0.0)).value() > 0.0);
        assert!(b.leakage().value() > 0.0);
    }

    #[test]
    fn beam_for_bit_mapping() {
        assert_eq!(OtamBeam::for_bit(true), OtamBeam::Beam1);
        assert_eq!(OtamBeam::for_bit(false), OtamBeam::Beam0);
        assert!(OtamBeam::Beam1.bit());
        assert!(!OtamBeam::Beam0.bit());
    }

    #[test]
    fn beam1_hpbw_is_about_40_degrees() {
        // Paper §9.1: "The azimuth 3 dB beamwidth of each beam is 40°."
        let b = beams();
        let peak = b.gain(OtamBeam::Beam1, Degrees::new(0.0));
        let mut theta = 0.0;
        while theta < 90.0 {
            if b.gain(OtamBeam::Beam1, Degrees::new(theta)) < peak - Db::new(3.0) {
                break;
            }
            theta += 0.05;
        }
        // The analytic 2-element λ-spaced pattern gives ≈28°; the paper
        // measured 40° on fabricated hardware (mutual coupling widens the
        // lobe). Accept the analytic value, flag anything pathological.
        let hpbw = 2.0 * theta;
        assert!((20.0..=45.0).contains(&hpbw), "Beam 1 HPBW = {hpbw}");
    }

    #[test]
    fn field_of_view_is_120_degrees() {
        let b = beams();
        close(b.field_of_view().value(), 120.0, 1e-12);
        assert!(b.in_field_of_view(Degrees::new(59.0)));
        assert!(b.in_field_of_view(Degrees::new(-60.0)));
        assert!(!b.in_field_of_view(Degrees::new(75.0)));
        assert!(!b.in_field_of_view(Degrees::new(180.0)));
    }

    #[test]
    fn beams_radiate_equal_total_power() {
        // The SPDT feeds the same carrier into either array, so the
        // azimuth-integrated radiated power must match (within the
        // numerical integral).
        let b = beams();
        let integrate = |beam: OtamBeam| -> f64 {
            (-180..180)
                .map(|d| b.gain(beam, Degrees::new(d as f64)).linear())
                .sum::<f64>()
        };
        let p0 = integrate(OtamBeam::Beam0);
        let p1 = integrate(OtamBeam::Beam1);
        let ratio = p0 / p1;
        assert!((0.6..=1.6).contains(&ratio), "power ratio = {ratio}");
    }

    #[test]
    fn responses_at_oblique_angles_differ_between_beams() {
        // At a generic angle the two beams must present *different* gains:
        // this difference is the ASK depth OTAM relies on.
        let b = beams();
        // (15° is the crossover where the beams intersect; 8° is firmly in
        // Beam 1 territory.)
        let az = Degrees::new(8.0);
        let g0 = b.gain(OtamBeam::Beam0, az);
        let g1 = b.gain(OtamBeam::Beam1, az);
        assert!((g1 - g0).value() > 3.0);
    }
}
