//! The shared mmX operating point: the paper's prototype, used by the
//! link evaluator. The calibration rationale is in DESIGN.md §5.

use mmx_units::{Db, DbmPower, Hertz};

/// Carrier frequency (24 GHz ISM center).
pub const CARRIER: Hertz = Hertz::from_ghz(24.125);
/// Per-node channel bandwidth (the paper's 25 MHz sub-bands).
pub const CHANNEL_BANDWIDTH: Hertz = Hertz::from_mhz(25.0);
/// Power at the node's antenna (VCO − switch loss = 10 dBm).
pub const TX_POWER: DbmPower = DbmPower::new(10.0);
/// AP cascaded noise figure (LNA-first chain ≈ 2.6 dB).
pub const NOISE_FIGURE: Db = Db::new(2.6);
/// Implementation loss calibrating absolute SNR (DESIGN.md §5).
pub const IMPLEMENTATION_LOSS: Db = Db::new(18.0);
/// LoS path-loss exponent.
pub const PATH_LOSS_EXPONENT: f64 = 2.0;
/// ASK/FSK decision threshold on envelope-level separation.
pub const ASK_THRESHOLD: Db = Db::new(2.0);

/// The receiver noise floor in the channel bandwidth.
pub fn noise_floor() -> DbmPower {
    mmx_units::thermal_noise_dbm(CHANNEL_BANDWIDTH, NOISE_FIGURE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_prototype() {
        assert!((CARRIER.ghz() - 24.125).abs() < 1e-9);
        assert!((TX_POWER.dbm() - 10.0).abs() < 1e-9);
        assert!((CHANNEL_BANDWIDTH.mhz() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_in_25mhz() {
        let n = noise_floor().dbm();
        assert!((n + 97.4).abs() < 0.2, "noise floor = {n} dBm");
    }
}
