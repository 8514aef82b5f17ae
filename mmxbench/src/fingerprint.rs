//! Report fingerprints: a 64-bit FNV-1a hash over every simulated
//! statistic a run reports, floats by bit pattern. A speed-only change
//! to an engine must leave it unchanged.

use mmx_net::multi_ap::MultiApReport;
use mmx_net::sdm::SdmSlot;
use mmx_net::NetworkReport;

/// The recorded fingerprint of each workload at [`crate::DEFAULT_SEED`],
/// one `name hex` pair per line (re-record with `--record`).
pub const RECORDED: &str = include_str!("../fingerprints.txt");

/// Where `--record` writes, relative to the repository root.
pub const RECORDED_PATH: &str = "mmxbench/fingerprints.txt";

/// The recorded fingerprint of `workload`, if there is one.
pub fn recorded(workload: &str) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload)
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn slot(&mut self, s: SdmSlot) {
        self.u64(s.channel as u64);
        self.u64(s.harmonic as i64 as u64);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Per-node `sent`/`delivered`/SINR/slot plus the control-plane
    /// [`mmx_net::RecoveryReport`].
    pub fn network(&mut self, r: &NetworkReport) {
        self.u64(r.nodes.len() as u64);
        for n in &r.nodes {
            self.u64(u64::from(n.id));
            self.u64(n.sent);
            self.u64(n.delivered);
            self.f64(n.mean_sinr_db);
            self.f64(n.min_sinr_db);
            self.slot(n.slot);
        }
        self.u64(u64::from(r.used_sdm));
        let c = &r.recovery;
        for v in [
            c.control_sent,
            c.control_lost,
            c.control_retries,
            c.stale_grants_discarded,
            c.reclaimed_leases,
            c.packets_lost_to_churn,
            c.crashes,
            c.outages,
            c.joins,
            c.recoveries,
            c.granted_at_end as u64,
            c.streaming_at_end as u64,
            c.alive_at_end as u64,
        ] {
            self.u64(v);
        }
        for v in [c.mean_join_s, c.mean_recovery_s, c.max_recovery_s] {
            self.f64(v);
        }
    }

    /// Per-node outcome, serving AP and slot plus the
    /// [`mmx_net::multi_ap::HandoffReport`].
    pub fn multi_ap(&mut self, r: &MultiApReport) {
        self.u64(r.nodes.len() as u64);
        for n in &r.nodes {
            self.u64(u64::from(n.id));
            self.u64(u64::from(n.admitted));
            self.u64(n.ap.index() as u64);
            self.u64(n.sent);
            self.u64(n.delivered);
            self.f64(n.mean_sinr_db);
            self.f64(n.min_sinr_db);
            self.u64(n.handoffs);
            self.slot(n.slot);
        }
        for &a in &r.per_ap_admitted {
            self.u64(a as u64);
        }
        let h = &r.handoff;
        for v in [
            h.attempts,
            h.transfers_sent,
            h.transfers_lost,
            h.transfer_retries,
            h.completed,
            h.aborted,
            h.denied,
            h.stale_transfer_msgs,
            h.stale_grants_discarded,
            h.grant_resyncs,
            h.dual_decodes,
            h.duplicate_deliveries,
        ] {
            self.u64(v);
        }
        self.f64(h.mean_handoff_s);
        self.f64(h.max_handoff_s);
    }
}
