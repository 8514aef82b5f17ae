//! DC power and energy ledgers.
//!
//! §9.1: "mmX's node consumes 1.1 W which results in an energy efficiency
//! of 11 nJ/bit at 100 Mbps." The ledger itemizes where those watts go and
//! computes energy per bit for any sustained rate.

use mmx_units::{BitRate, Watts};
use serde::{Deserialize, Serialize};

/// An itemized DC power ledger.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PowerLedger {
    entries: Vec<(String, Watts)>,
}

impl PowerLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        PowerLedger::default()
    }

    /// Adds an entry (builder style).
    pub fn entry(mut self, name: impl Into<String>, power: Watts) -> Self {
        assert!(power.value() >= 0.0, "power draw cannot be negative");
        self.entries.push((name.into(), power));
        self
    }

    /// The mmX node's ledger: VCO + switch + controller/SPI = 1.1 W.
    pub fn mmx_node() -> Self {
        PowerLedger::new()
            .entry("VCO (HMC533)", Watts::new(0.41))
            .entry("SPDT switch (ADRF5020) + driver", Watts::new(0.10))
            .entry("digital controller + SPI", Watts::new(0.59))
    }

    /// The itemized entries.
    pub fn entries(&self) -> &[(String, Watts)] {
        &self.entries
    }

    /// Total power draw.
    pub fn total(&self) -> Watts {
        self.entries.iter().map(|(_, w)| *w).sum()
    }

    /// Energy per bit in nanojoules at a sustained rate.
    pub fn energy_per_bit_nj(&self, rate: BitRate) -> f64 {
        rate.energy_per_bit_nj(self.total())
    }

    /// Energy consumed over a transmission of `bits` at `rate`, in
    /// joules.
    pub fn energy_for_bits_j(&self, bits: u64, rate: BitRate) -> f64 {
        self.total().value() * rate.time_for_bits(bits).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn node_totals_1_1_watts() {
        close(PowerLedger::mmx_node().total().value(), 1.1, 1e-12);
    }

    #[test]
    fn node_hits_11nj_per_bit_at_100mbps() {
        let nj = PowerLedger::mmx_node().energy_per_bit_nj(BitRate::from_mbps(100.0));
        close(nj, 11.0, 1e-9);
    }

    #[test]
    fn lower_rates_cost_more_energy_per_bit() {
        let l = PowerLedger::mmx_node();
        // At the 8-10 Mbps an HD camera needs, energy/bit is 10x worse —
        // the switch-rate headroom is what makes mmX efficient.
        let nj_10 = l.energy_per_bit_nj(BitRate::from_mbps(10.0));
        close(nj_10, 110.0, 1e-9);
    }

    #[test]
    fn energy_for_transfer() {
        let l = PowerLedger::mmx_node();
        // 1 Gbit at 100 Mbps = 10 s × 1.1 W = 11 J.
        close(
            l.energy_for_bits_j(1_000_000_000, BitRate::from_mbps(100.0)),
            11.0,
            1e-9,
        );
    }

    #[test]
    fn ledger_is_itemized() {
        let l = PowerLedger::mmx_node();
        assert_eq!(l.entries().len(), 3);
        assert!(l.entries().iter().any(|(n, _)| n.contains("VCO")));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_power_rejected() {
        let _ = PowerLedger::new().entry("anti-resistor", Watts::new(-1.0));
    }
}
