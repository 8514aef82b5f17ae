//! Absolute power levels: dBm and watts.

use crate::db::Db;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute RF power level in dBm (dB relative to 1 mW).
///
/// Arithmetic rules mirror the physics:
///
/// * `DbmPower ± Db` applies a gain/loss and yields another level.
/// * `DbmPower - DbmPower` yields a ratio ([`Db`]) — this is how SNR is
///   formed from a signal level and a noise level.
/// * Two levels cannot be added with `+` (that would be meaningless);
///   incoherent combining goes through [`DbmPower::power_sum`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct DbmPower(f64);

impl DbmPower {
    /// Creates a level from a dBm value.
    pub const fn new(dbm: f64) -> Self {
        DbmPower(dbm)
    }

    /// A level carrying no power at all (−∞ dBm).
    pub const ZERO_POWER: DbmPower = DbmPower(f64::NEG_INFINITY);

    /// Creates a level from linear milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        DbmPower(10.0 * mw.log10())
    }

    /// Creates a level from linear watts.
    pub fn from_watts(w: f64) -> Self {
        Self::from_milliwatts(w * 1e3)
    }

    /// The dBm value.
    pub const fn dbm(self) -> f64 {
        self.0
    }

    /// Linear power in milliwatts.
    pub fn milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Linear power in watts.
    pub fn watts(self) -> Watts {
        Watts(self.milliwatts() / 1e3)
    }

    /// True when the level is finite (i.e. carries some power and is not a
    /// NaN artifact).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// `max(self, other)` — useful when picking the stronger of two paths.
    pub fn max(self, other: DbmPower) -> DbmPower {
        DbmPower(self.0.max(other.0))
    }

    /// `min(self, other)`.
    pub fn min(self, other: DbmPower) -> DbmPower {
        DbmPower(self.0.min(other.0))
    }

    /// Incoherently combines power levels (linear-domain sum).
    ///
    /// This models what a receiver actually sees when several uncorrelated
    /// signals (or noise contributions) land in the same band.
    pub fn power_sum<I: IntoIterator<Item = DbmPower>>(items: I) -> DbmPower {
        let mw: f64 = items.into_iter().map(|p| p.milliwatts()).sum();
        DbmPower::from_milliwatts(mw)
    }
}

impl Add<Db> for DbmPower {
    type Output = DbmPower;
    fn add(self, rhs: Db) -> DbmPower {
        DbmPower(self.0 + rhs.value())
    }
}

impl AddAssign<Db> for DbmPower {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.value();
    }
}

impl Sub<Db> for DbmPower {
    type Output = DbmPower;
    fn sub(self, rhs: Db) -> DbmPower {
        DbmPower(self.0 - rhs.value())
    }
}

impl SubAssign<Db> for DbmPower {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.value();
    }
}

impl Sub for DbmPower {
    type Output = Db;
    fn sub(self, rhs: DbmPower) -> Db {
        Db::new(self.0 - rhs.0)
    }
}

impl fmt::Display for DbmPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} dBm", prec, self.0)
        } else {
            write!(f, "{:.2} dBm", self.0)
        }
    }
}

/// Linear power in watts — used for the DC power-consumption and energy
/// ledgers (a node "consumes 1.1 W", not "consumes 30.4 dBm").
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Watts(pub f64);

impl Watts {
    /// Creates a power from watts.
    pub const fn new(w: f64) -> Self {
        Watts(w)
    }

    /// Creates a power from milliwatts.
    pub const fn from_milliwatts(mw: f64) -> Self {
        Watts(mw / 1e3)
    }

    /// The value in watts.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The value in milliwatts.
    pub fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

impl std::iter::Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts(0.0), |a, b| a + b)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.1} mW", self.milliwatts())
        } else {
            write!(f, "{:.2} W", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn dbm_linear_roundtrip() {
        close(DbmPower::from_milliwatts(1.0).dbm(), 0.0, 1e-12);
        close(DbmPower::new(30.0).watts().value(), 1.0, 1e-12);
        close(DbmPower::from_watts(2.0).dbm(), 33.0103, 1e-3);
    }

    #[test]
    fn gain_and_loss_application() {
        let p = DbmPower::new(10.0) + Db::new(9.0) - Db::new(60.0);
        close(p.dbm(), -41.0, 1e-12);
    }

    #[test]
    fn snr_from_level_difference() {
        let snr: Db = DbmPower::new(-60.0) - DbmPower::new(-90.0);
        close(snr.value(), 30.0, 1e-12);
    }

    #[test]
    fn power_sum_doubles() {
        let s = DbmPower::power_sum([DbmPower::new(-30.0), DbmPower::new(-30.0)]);
        close(s.dbm(), -26.9897, 1e-3);
    }

    #[test]
    fn zero_power_absorbs_gains() {
        let p = DbmPower::ZERO_POWER + Db::new(100.0);
        assert!(!p.is_finite());
        assert_eq!(
            DbmPower::power_sum([DbmPower::ZERO_POWER, DbmPower::new(-50.0)]).dbm(),
            -50.0
        );
    }

    #[test]
    fn watts_arithmetic_and_display() {
        let total: Watts = [Watts::new(0.41), Watts::new(0.10), Watts::new(0.59)]
            .into_iter()
            .sum();
        close(total.value(), 1.1, 1e-12);
        assert_eq!(format!("{}", total), "1.10 W");
        assert_eq!(format!("{}", Watts::from_milliwatts(29.0)), "29.0 mW");
    }

    #[test]
    fn max_min_pick_extremes() {
        let a = DbmPower::new(-40.0);
        let b = DbmPower::new(-55.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }
}
