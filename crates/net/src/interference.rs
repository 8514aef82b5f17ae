//! SINR computation for concurrent uplinks.
//!
//! A node's signal at the AP competes with (a) other nodes leaking across
//! TMA harmonics (the 20–30 dB-down copies of Eq. 4), (b) adjacent-channel
//! leakage of OOK spectra, and (c) thermal noise. Fig. 13's "SNR slightly
//! decreases" with node count is exactly these terms growing.
//!
//! Under multiple APs ([`crate::multi_ap`]) a fourth term appears:
//! co-channel uplinks *served by other APs* still arrive at this AP's
//! antenna and leak through its TMA sidelobes. [`sinr_at_ap`] accounts
//! for all four with global channel indices, so cross-AP interference
//! falls out of the same arithmetic as intra-AP interference.

use crate::sdm::SdmSlot;
use mmx_antenna::tma::Tma;
use mmx_units::{thermal_noise_dbm, Db, DbmPower, Degrees, Hertz};

/// Adjacent-channel leakage of an OOK transmitter into a channel `k`
/// steps away (guard bands included in the plan): −30 dB for the first
/// neighbor, −45 beyond, −60 floor.
pub fn adjacent_channel_leakage(channel_distance: usize) -> Db {
    Db::new(match channel_distance {
        0 => 0.0,
        1 => -30.0,
        2 => -45.0,
        _ => -60.0,
    })
}

/// SINR of node `me` at one AP of a multi-AP deployment.
///
/// Every node in the deployment — not just this AP's members —
/// contributes an interference term: `rx_of(j)` is node `j`'s arrival
/// power *at this AP's antenna*, `aoa_of(j)` its arrival angle there,
/// and `slots[j].channel` a **global** channel index from the shared
/// [`crate::multi_ap::HarmonicReusePlan`] grid. Co-channel reuse
/// between APs whose coverage cones the plan judged disjoint therefore
/// shows up here as an ordinary (weak, because distant and in the
/// sidelobes) interference term rather than as a special case — and a
/// bad reuse plan shows up as collapsed SINR instead of being silently
/// ignored.
///
/// This is the reference implementation: it calls the TMA for every
/// term. Both simulators compute the same quantity from a per-run H×N
/// gain table instead, and a property test pins the two bit-equal
/// (silent nodes, at zero power, add exactly nothing).
#[allow(clippy::too_many_arguments)]
pub fn sinr_at_ap(
    tma: &Tma,
    noise_figure: Db,
    bandwidth: Hertz,
    me: usize,
    nodes: usize,
    slots: &[SdmSlot],
    rx_of: impl Fn(usize) -> DbmPower,
    aoa_of: impl Fn(usize) -> Degrees,
) -> Db {
    let noise = thermal_noise_dbm(bandwidth, noise_figure);
    let wanted = rx_of(me) + tma.harmonic_gain(slots[me].harmonic, aoa_of(me));
    let interference = (0..nodes).filter(|&j| j != me).map(|j| {
        let gain = tma.harmonic_gain(slots[me].harmonic, aoa_of(j));
        let acl = adjacent_channel_leakage(slots[me].channel.abs_diff(slots[j].channel));
        rx_of(j) + gain + acl
    });
    wanted - DbmPower::power_sum(std::iter::once(noise).chain(interference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net;
    use proptest::prelude::*;

    fn tma() -> Tma {
        Tma::new(8, Hertz::from_ghz(24.0), Hertz::from_mhz(1.0))
    }

    fn bw() -> Hertz {
        Hertz::from_mhz(25.0)
    }

    fn nf() -> Db {
        Db::new(2.6)
    }

    fn slot(channel: usize, harmonic: i32) -> SdmSlot {
        SdmSlot { channel, harmonic }
    }

    /// SINR of every node of a one-AP deployment through the reference
    /// [`sinr_at_ap`]; each uplink is (receive power dBm, AoA, slot).
    fn sinr_each(t: &Tma, ups: &[(f64, Degrees, SdmSlot)]) -> Vec<Db> {
        let slots: Vec<SdmSlot> = ups.iter().map(|u| u.2).collect();
        (0..ups.len())
            .map(|me| {
                let rx = |j: usize| DbmPower::new(ups[j].0);
                sinr_at_ap(t, nf(), bw(), me, ups.len(), &slots, rx, |j| ups[j].1)
            })
            .collect()
    }

    #[test]
    fn lone_node_sinr_is_snr() {
        let t = tma();
        let aoa = t.harmonic_direction(0).unwrap();
        let sinr = sinr_each(&t, &[(-60.0, aoa, slot(0, 0))])[0];
        // Noise floor ≈ −97.4 dBm; wanted −60 + harmonic gain.
        let expect = DbmPower::new(-60.0) + t.harmonic_gain(0, aoa) - thermal_noise_dbm(bw(), nf());
        assert!((sinr - expect).value().abs() < 0.1, "sinr {sinr}");
    }

    #[test]
    fn spatially_separated_cochannel_nodes_barely_interfere() {
        let t = tma();
        let d0 = t.harmonic_direction(0).unwrap();
        let d2 = t.harmonic_direction(2).unwrap();
        let sinr = sinr_each(&t, &[(-60.0, d0, slot(0, 0)), (-60.0, d2, slot(0, 2))]);
        // Both nodes keep >20 dB despite sharing the channel.
        for (i, s) in sinr.iter().enumerate() {
            assert!(s.value() > 20.0, "node {i} sinr = {s}");
        }
    }

    #[test]
    fn cochannel_same_direction_collides() {
        let t = tma();
        let d0 = t.harmonic_direction(0).unwrap();
        let sinr = sinr_each(&t, &[(-60.0, d0, slot(0, 0)), (-60.0, d0, slot(0, 0))]);
        // Equal-power co-channel, co-beam: SINR pinned near 0 dB.
        for s in &sinr {
            assert!(s.value() < 3.0, "sinr = {s}");
        }
    }

    #[test]
    fn adjacent_channel_isolation_restores_link() {
        let t = tma();
        let d0 = t.harmonic_direction(0).unwrap();
        let mk = |ch: usize| sinr_each(&t, &[(-60.0, d0, slot(0, 0)), (-60.0, d0, slot(ch, 0))])[0];
        let (same, adjacent, far) = (mk(0), mk(1), mk(3));
        assert!((adjacent - same).value() > 25.0);
        assert!(far > adjacent);
    }

    #[test]
    fn leakage_table_is_monotone() {
        for k in 0..5 {
            assert!(
                adjacent_channel_leakage(k + 1) <= adjacent_channel_leakage(k),
                "ACL not monotone at {k}"
            );
        }
        assert_eq!(adjacent_channel_leakage(0), Db::ZERO);
    }

    #[test]
    fn cross_ap_cochannel_interference_is_counted() {
        // Two nodes on the same global channel, "served" by different
        // APs: from this AP's perspective the foreign node is just an
        // interference term. Same direction → collision; a distant
        // harmonic direction → barely any loss. The one-AP physics of
        // the tests above, with the foreign node as one more term.
        let t = tma();
        let d0 = t.harmonic_direction(0).unwrap();
        let d3 = t.harmonic_direction(3).unwrap();
        let slots = [slot(0, 0), slot(0, 0)];
        let rx = [DbmPower::new(-60.0), DbmPower::new(-60.0)];
        let collide = sinr_at_ap(&t, nf(), bw(), 0, 2, &slots, |j| rx[j], |_| d0);
        let aoa = [d0, d3];
        let separated = sinr_at_ap(&t, nf(), bw(), 0, 2, &slots, |j| rx[j], |j| aoa[j]);
        assert!(collide.value() < 3.0, "co-beam co-channel: {collide}");
        assert!(
            separated.value() > 20.0,
            "cross-beam co-channel: {separated}"
        );
        // Moving the foreign node to a distant channel restores the
        // link even co-beam (the reuse plan's channel partition case).
        let slots = [slot(0, 0), slot(3, 0)];
        let far = sinr_at_ap(&t, nf(), bw(), 0, 2, &slots, |j| rx[j], |_| d0);
        assert!(far > collide);
    }

    #[test]
    fn stronger_interferer_hurts_more() {
        let t = tma();
        let d0 = t.harmonic_direction(0).unwrap();
        // Slightly off-grid so the leakage into harmonic 0 is finite
        // (exactly on-grid directions sit in the DFT beam's null).
        let d1 = t.harmonic_direction(1).unwrap() + Degrees::new(3.0);
        let mk = |p: f64| sinr_each(&t, &[(-60.0, d0, slot(0, 0)), (p, d1, slot(0, 1))])[0];
        assert!(mk(-70.0) > mk(-40.0));
    }

    proptest! {
        /// The kernel over an exact gain table is bit-equal to the
        /// reference `sinr_at_ap` (which calls the TMA per term), and a
        /// silenced node adds exactly nothing: the reference, run over
        /// the audible nodes only, still agrees.
        #[test]
        fn kernel_matches_sinr_at_ap(
            nodes in prop::collection::vec(
                (-80.0f64..80.0, -90.0f64..-30.0, 0usize..6, any::<bool>()),
                1..24,
            ),
            me_pick in 0usize..1000,
        ) {
            let tma = Tma::new(16, Hertz::from_ghz(24.0), Hertz::from_mhz(1.0));
            let (bw, nf) = (Hertz::from_mhz(25.0), Db::new(2.6));
            let aoa: Vec<Degrees> = nodes.iter().map(|n| Degrees::new(n.0)).collect();
            let harmonics = tma.assign_harmonics(&aoa);
            let slots: Vec<SdmSlot> = nodes
                .iter()
                .zip(&harmonics)
                .map(|(n, &harmonic)| SdmSlot { channel: n.2, harmonic })
                .collect();
            // Node `me` is always audible; the others are silenced at random.
            let me = me_pick % nodes.len();
            let silent = |j: usize| j != me && nodes[j].3;
            let rx: Vec<DbmPower> = (0..nodes.len())
                .map(|j| if silent(j) { DbmPower::ZERO_POWER } else { DbmPower::new(nodes[j].1) })
                .collect();
            let table = net::GainTable::exact(&tma, &aoa, &harmonics);
            let noise = thermal_noise_dbm(bw, nf);
            let got = net::sinr(table.row(slots[me].harmonic), noise, me, &slots, |j| rx[j]);
            let full = sinr_at_ap(&tma, nf, bw, me, nodes.len(), &slots, |j| rx[j], |j| aoa[j]);
            prop_assert_eq!(got.value().to_bits(), full.value().to_bits());
            let live: Vec<usize> = (0..nodes.len()).filter(|&j| !silent(j)).collect();
            let live_slots: Vec<SdmSlot> = live.iter().map(|&j| slots[j]).collect();
            let k = live.iter().position(|&j| j == me).expect("me is audible");
            let audible = sinr_at_ap(
                &tma,
                nf,
                bw,
                k,
                live.len(),
                &live_slots,
                |l| rx[live[l]],
                |l| aoa[live[l]],
            );
            prop_assert_eq!(got.value().to_bits(), audible.value().to_bits());
        }
    }
}
