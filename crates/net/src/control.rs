//! The initialization protocol.
//!
//! §7(a): "The channels are specified by the AP to each node in the
//! initialization stage. The initialization takes place only once using a
//! WiFi or Bluetooth module." We model that out-of-band exchange as a
//! tiny request/grant protocol with explicit message types, a per-message
//! latency, and an energy cost — so the network simulator can account for
//! the (one-time) overhead that beam-search systems pay *continuously*.
//!
//! Beyond the paper, the protocol is hardened for a lossy control plane
//! and dynamic membership (the "billions of things" regime):
//!
//! * every [`Grant`](ControlMsg::Grant) carries a monotonically
//!   increasing **epoch**, so a reordered or duplicated stale grant is
//!   detectable and discarded by the node;
//! * grants are held under a **lease** ([`LeaseConfig`]) refreshed by
//!   [`Keepalive`](ControlMsg::Keepalive)s — a crashed node's spectrum
//!   reclaims after expiry instead of leaking forever;
//! * a [`GrantAck`](ControlMsg::GrantAck) closes the loop, so the AP
//!   knows when a re-packed node has actually moved to its new center
//!   frequency.

use crate::fdm::{AllocError, BandPlan, ChannelAssignment};
use mmx_units::{BitRate, Hertz, Seconds};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A node's identifier on the control plane.
///
/// `u16` so one AP's admission bookkeeping scales past 256 nodes (the
/// fig13_scale sweep runs 500+ under a single AP). The over-the-air
/// OTAM header (`mmx_phy::packet`) still carries one id byte; the
/// control plane rides BLE/WiFi and is not bound by that header.
pub type NodeId = u16;

/// Control-plane messages (carried over BLE/WiFi, not over mmWave).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlMsg {
    /// Node → AP: request admission with a data-rate demand.
    JoinRequest {
        /// Requesting node.
        node: NodeId,
        /// Demanded sustained data rate in bit/s.
        demand_bps: f64,
    },
    /// AP → node: the granted channel.
    Grant {
        /// Addressed node.
        node: NodeId,
        /// Channel center frequency in Hz.
        center_hz: f64,
        /// Channel width in Hz.
        width_hz: f64,
        /// FSK deviation to use within the channel, in Hz.
        fsk_deviation_hz: f64,
        /// Re-pack generation this grant belongs to. Strictly increases
        /// with every admission event; a node discards any grant whose
        /// epoch is not newer than the last one it accepted.
        epoch: u64,
    },
    /// Node → AP: confirms the node retuned to the granted center
    /// frequency (closes the re-pack loop).
    GrantAck {
        /// Acknowledging node.
        node: NodeId,
        /// The epoch being acknowledged.
        epoch: u64,
    },
    /// Node → AP: lease refresh; proof of life.
    Keepalive {
        /// Refreshing node.
        node: NodeId,
    },
    /// AP → node: admission denied (band exhausted and SDM cannot
    /// help), or the AP no longer holds a lease for this node (lease
    /// expiry or AP restart) — the node must rejoin.
    Reject {
        /// Addressed node.
        node: NodeId,
    },
    /// Node → AP: leaving the network; the channel returns to the pool.
    Leave {
        /// Departing node.
        node: NodeId,
    },
}

/// Latency of one control-plane round trip (BLE connection-event scale).
pub const CONTROL_RTT: Seconds = Seconds::from_millis(30.0);

/// Energy a node spends per control message (BLE TX burst), joules.
pub const CONTROL_MSG_ENERGY_J: f64 = 30e-6;

/// Lease policy: how long a grant survives without a keepalive, and how
/// often nodes refresh.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LeaseConfig {
    /// A grant expires this long after its last refresh.
    pub duration: Seconds,
    /// How often a granted node sends a keepalive.
    pub keepalive_interval: Seconds,
}

impl LeaseConfig {
    /// Standard policy: 400 ms leases refreshed every 100 ms — four
    /// keepalives must vanish back-to-back before a live node's lease
    /// lapses, while a crashed node's spectrum reclaims well under a
    /// second.
    pub const fn standard() -> Self {
        LeaseConfig {
            duration: Seconds::from_millis(400.0),
            keepalive_interval: Seconds::from_millis(100.0),
        }
    }
}

impl Default for LeaseConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// The AP-side admission state machine.
#[derive(Debug, Clone)]
pub struct Admission {
    plan: BandPlan,
    granted: BTreeMap<NodeId, (BitRate, ChannelAssignment)>,
    /// Last lease refresh per admitted node.
    last_refresh: BTreeMap<NodeId, Seconds>,
    /// Newest grant epoch each node acknowledged.
    acked: BTreeMap<NodeId, u64>,
    /// Monotonic re-pack generation counter. Survives [`restart`]
    /// (Self::restart) so post-restart grants still supersede
    /// pre-restart ones.
    epoch: u64,
    /// Leases reclaimed by expiry so far.
    reclaimed: u64,
}

impl Admission {
    /// Creates an admission controller over a band plan.
    pub fn new(plan: BandPlan) -> Self {
        Admission {
            plan,
            granted: BTreeMap::new(),
            last_refresh: BTreeMap::new(),
            acked: BTreeMap::new(),
            epoch: 0,
            reclaimed: 0,
        }
    }

    /// Handles a join request, re-packing all grants. On success,
    /// returns the **full set** of grant messages — the new node plus
    /// every existing node whose center moved in the re-pack — all
    /// stamped with a fresh, strictly increasing epoch so stale grants
    /// from earlier re-packs are detectable.
    pub fn join(&mut self, node: NodeId, demand: BitRate) -> Result<Vec<ControlMsg>, AllocError> {
        self.join_at(node, demand, Seconds::ZERO)
    }

    /// [`join`](Self::join) with an explicit clock, starting the new
    /// node's lease at `now`.
    pub fn join_at(
        &mut self,
        node: NodeId,
        demand: BitRate,
        now: Seconds,
    ) -> Result<Vec<ControlMsg>, AllocError> {
        let mut demands: Vec<(NodeId, BitRate)> =
            self.granted.iter().map(|(&id, &(d, _))| (id, d)).collect();
        demands.retain(|(id, _)| *id != node);
        demands.push((node, demand));
        let rates: Vec<BitRate> = demands.iter().map(|(_, d)| *d).collect();
        let assignments = self.plan.allocate(&rates)?;
        self.granted = demands
            .iter()
            .zip(&assignments)
            .map(|(&(id, d), &a)| (id, (d, a)))
            .collect();
        self.last_refresh.insert(node, now);
        self.epoch += 1;
        let epoch = self.epoch;
        // Every fresh grant awaits a new ack.
        for (id, _) in &demands {
            self.acked.remove(id);
        }
        Ok(demands
            .iter()
            .zip(&assignments)
            .map(|(&(id, _), &a)| ControlMsg::Grant {
                node: id,
                center_hz: a.center.hz(),
                width_hz: a.width.hz(),
                fsk_deviation_hz: (a.width.hz() * 0.08).min(2e6),
                epoch,
            })
            .collect())
    }

    /// Handles a leave, freeing the node's spectrum.
    pub fn leave(&mut self, node: NodeId) {
        self.granted.remove(&node);
        self.last_refresh.remove(&node);
        self.acked.remove(&node);
    }

    /// Refreshes a node's lease. Returns `false` when the AP holds no
    /// lease for the node (expired, or the AP restarted) — the caller
    /// should tell the node to rejoin.
    pub fn refresh(&mut self, node: NodeId, now: Seconds) -> bool {
        if !self.granted.contains_key(&node) {
            return false;
        }
        self.last_refresh.insert(node, now);
        true
    }

    /// Records a node's acknowledgement of the grant epoch it retuned
    /// to.
    pub fn ack(&mut self, node: NodeId, epoch: u64) {
        if self.granted.contains_key(&node) {
            self.acked.insert(node, epoch);
        }
    }

    /// True when the node has acknowledged the newest re-pack it was
    /// part of (i.e., it is confirmed on its current center frequency).
    pub fn is_acked(&self, node: NodeId) -> bool {
        self.acked.contains_key(&node)
    }

    /// Expires every lease not refreshed within `lease` of `now`,
    /// reclaiming the spectrum. Returns the expired nodes in id order.
    pub fn expire_stale(&mut self, now: Seconds, lease: Seconds) -> Vec<NodeId> {
        let dead: Vec<NodeId> = self
            .last_refresh
            .iter()
            .filter(|&(_, &t)| now - t > lease)
            .map(|(&id, _)| id)
            .collect();
        for &id in &dead {
            self.leave(id);
            self.reclaimed += 1;
        }
        dead
    }

    /// The AP restarts: all grants and leases are lost, but the epoch
    /// counter survives (it is persisted) so post-restart grants still
    /// supersede anything in flight from before.
    pub fn restart(&mut self) {
        self.granted.clear();
        self.last_refresh.clear();
        self.acked.clear();
    }

    /// Leases reclaimed by expiry so far.
    pub fn reclaimed_leases(&self) -> u64 {
        self.reclaimed
    }

    /// The current epoch (the newest grant generation issued).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current grant for a node.
    pub fn grant_of(&self, node: NodeId) -> Option<ChannelAssignment> {
        self.granted.get(&node).map(|&(_, a)| a)
    }

    /// Number of admitted nodes.
    pub fn admitted(&self) -> usize {
        self.granted.len()
    }

    /// Total spectrum currently granted (signal bandwidth, no guards).
    pub fn spectrum_in_use(&self) -> Hertz {
        self.granted
            .values()
            .fold(Hertz::new(0.0), |acc, &(_, a)| acc + a.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admission() -> Admission {
        Admission::new(BandPlan::ism_24ghz())
    }

    #[test]
    fn single_join_grants_a_channel() {
        let mut a = admission();
        let msgs = a.join(1, BitRate::from_mbps(10.0)).expect("admitted");
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            ControlMsg::Grant { node, width_hz, .. } => {
                assert_eq!(*node, 1);
                assert!(*width_hz >= 10e6);
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert_eq!(a.admitted(), 1);
        assert!(a.grant_of(1).is_some());
    }

    #[test]
    fn grants_are_disjoint() {
        let mut a = admission();
        for id in 1..=5 {
            a.join(id, BitRate::from_mbps(10.0)).expect("admitted");
        }
        let grants: Vec<ChannelAssignment> =
            (1..=5).map(|id| a.grant_of(id).expect("granted")).collect();
        for i in 0..grants.len() {
            for j in i + 1..grants.len() {
                assert!(!grants[i].band().overlaps(&grants[j].band()));
            }
        }
    }

    #[test]
    fn rejoin_updates_demand() {
        let mut a = admission();
        a.join(1, BitRate::from_mbps(10.0)).unwrap();
        a.join(1, BitRate::from_mbps(50.0)).unwrap();
        assert_eq!(a.admitted(), 1);
        assert!(a.grant_of(1).unwrap().width.mhz() >= 50.0);
    }

    #[test]
    fn band_exhaustion_rejects_join() {
        let mut a = admission();
        a.join(1, BitRate::from_mbps(90.0)).unwrap();
        a.join(2, BitRate::from_mbps(90.0)).unwrap();
        // A third 90 Mbps stream does not fit in 250 MHz with roll-off.
        assert_eq!(
            a.join(3, BitRate::from_mbps(90.0)),
            Err(AllocError::BandExhausted)
        );
        // The failed join must not disturb existing grants.
        assert_eq!(a.admitted(), 2);
        assert!(a.grant_of(3).is_none());
    }

    #[test]
    fn leave_frees_spectrum() {
        let mut a = admission();
        a.join(1, BitRate::from_mbps(90.0)).unwrap();
        a.join(2, BitRate::from_mbps(90.0)).unwrap();
        a.leave(1);
        assert_eq!(a.admitted(), 1);
        // Now the third join fits.
        assert!(a.join(3, BitRate::from_mbps(90.0)).is_ok());
    }

    #[test]
    fn spectrum_accounting() {
        let mut a = admission();
        a.join(1, BitRate::from_mbps(10.0)).unwrap();
        a.join(2, BitRate::from_mbps(20.0)).unwrap();
        let used = a.spectrum_in_use().mhz();
        assert!((used - (12.5 + 25.0)).abs() < 0.1, "used = {used} MHz");
    }

    #[test]
    fn fsk_deviation_scales_with_channel() {
        let mut a = admission();
        let msgs = a.join(1, BitRate::from_mbps(10.0)).unwrap();
        if let ControlMsg::Grant {
            fsk_deviation_hz,
            width_hz,
            ..
        } = msgs[0]
        {
            assert!(fsk_deviation_hz > 0.0);
            assert!(fsk_deviation_hz < width_hz / 2.0);
        } else {
            panic!("expected grant");
        }
    }

    #[test]
    fn join_returns_all_moved_grants_with_fresh_epoch() {
        let mut a = admission();
        a.join(1, BitRate::from_mbps(10.0)).unwrap();
        a.join(2, BitRate::from_mbps(20.0)).unwrap();
        // A third join re-packs everyone: the response must carry a
        // grant for every admitted node, all on the same new epoch.
        let msgs = a.join(3, BitRate::from_mbps(30.0)).unwrap();
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut epochs: Vec<u64> = Vec::new();
        for m in &msgs {
            if let ControlMsg::Grant { node, epoch, .. } = m {
                nodes.push(*node);
                epochs.push(*epoch);
            }
        }
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 2, 3]);
        assert!(epochs.iter().all(|&e| e == epochs[0]));
        assert_eq!(epochs[0], a.epoch());
    }

    #[test]
    fn epochs_increase_monotonically() {
        let mut a = admission();
        let epoch_of = |msgs: &[ControlMsg]| match msgs.last() {
            Some(ControlMsg::Grant { epoch, .. }) => *epoch,
            other => panic!("expected grant, got {other:?}"),
        };
        let e1 = epoch_of(&a.join(1, BitRate::from_mbps(10.0)).unwrap());
        let e2 = epoch_of(&a.join(2, BitRate::from_mbps(10.0)).unwrap());
        a.leave(2);
        let e3 = epoch_of(&a.join(3, BitRate::from_mbps(10.0)).unwrap());
        assert!(e1 < e2 && e2 < e3, "epochs {e1}, {e2}, {e3}");
    }

    #[test]
    fn leases_expire_without_keepalives() {
        let mut a = admission();
        a.join_at(1, BitRate::from_mbps(10.0), Seconds::ZERO)
            .unwrap();
        a.join_at(2, BitRate::from_mbps(10.0), Seconds::ZERO)
            .unwrap();
        let lease = Seconds::from_millis(400.0);
        // Node 1 keeps refreshing; node 2 goes silent.
        assert!(a.refresh(1, Seconds::from_millis(300.0)));
        assert!(a
            .expire_stale(Seconds::from_millis(350.0), lease)
            .is_empty());
        let dead = a.expire_stale(Seconds::from_millis(500.0), lease);
        assert_eq!(dead, vec![2]);
        assert_eq!(a.admitted(), 1);
        assert_eq!(a.reclaimed_leases(), 1);
        // The reclaimed spectrum is genuinely free again.
        assert!(a.grant_of(2).is_none());
        assert!(!a.refresh(2, Seconds::from_millis(600.0)));
    }

    #[test]
    fn ack_tracks_the_retune_loop() {
        let mut a = admission();
        a.join(1, BitRate::from_mbps(10.0)).unwrap();
        assert!(!a.is_acked(1), "fresh grant awaits its ack");
        a.ack(1, a.epoch());
        assert!(a.is_acked(1));
        // A re-pack (node 2 joining) invalidates node 1's ack until it
        // confirms the new center.
        a.join(2, BitRate::from_mbps(10.0)).unwrap();
        assert!(!a.is_acked(1));
        // Acks for unknown nodes are ignored.
        a.ack(77, 1);
        assert!(!a.is_acked(77));
    }

    #[test]
    fn restart_clears_grants_but_not_the_epoch() {
        let mut a = admission();
        a.join(1, BitRate::from_mbps(10.0)).unwrap();
        a.join(2, BitRate::from_mbps(10.0)).unwrap();
        let epoch_before = a.epoch();
        a.restart();
        assert_eq!(a.admitted(), 0);
        assert!(!a.refresh(1, Seconds::new(1.0)));
        // Post-restart grants must supersede in-flight pre-restart ones.
        let msgs = a.join(1, BitRate::from_mbps(10.0)).unwrap();
        if let Some(ControlMsg::Grant { epoch, .. }) = msgs.first() {
            assert!(*epoch > epoch_before);
        } else {
            panic!("expected grant");
        }
    }

    #[test]
    fn lease_config_is_sane() {
        let l = LeaseConfig::standard();
        assert!(l.duration > l.keepalive_interval * 2.0);
        assert!(l.duration.value() < 1.0, "reclaim within a second");
    }

    #[test]
    fn control_constants_are_sane() {
        let rtt = CONTROL_RTT.millis();
        let energy = CONTROL_MSG_ENERGY_J;
        assert!(rtt < 100.0, "RTT {rtt} ms");
        assert!(energy < 1e-3, "energy {energy} J");
    }
}
