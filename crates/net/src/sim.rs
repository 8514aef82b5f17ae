//! The network simulator: many nodes streaming to one AP.
//!
//! This is the engine behind Fig. 13 (and the network-level examples):
//! admission, FDM channel allocation with SDM fallback, per-packet
//! channel tracing with walking blockers, SINR → BER → packet-error
//! conversion, and energy accounting. It runs on the gather→commit event
//! loop (DESIGN.md §9) that [`crate::multi_ap::sim`] runs on too; this
//! module holds only the single-AP control plane, which
//! `SimConfig::faults` picks — instant admission, or the lossy
//! join/grant/lease protocol — plus set-up and reports. Under SDM a TMA
//! harmonic beam admits at most one node per channel; the overflow is
//! rejected in node order and stays silent (`NodeReport::admitted`),
//! exactly as in the multi-AP engine.

use crate::ap::{ApId, ApStation};
use crate::control::{
    Admission, ControlMsg, LeaseConfig, NodeId, CONTROL_MSG_ENERGY_J, CONTROL_RTT,
};
use crate::energy::EnergyMeter;
use crate::faults::FaultConfig;
use crate::fdm::BandPlan;
use crate::link::{LinkAction, LinkState, NodeLink};
use crate::net::{self, Event, Fabric, GainTable, Gather, Link, Live, Mobility, Plane, Planned};
use crate::net::{NodeStats, RunPlan, State};
use crate::node::NodeStation;
use crate::pool;
use crate::sdm::{SdmError, SdmSlot};
use mmx_channel::mobility::LinearWalker;
use mmx_channel::room::Room;
use mmx_channel::Vec2;
use mmx_obs::Recorder;
use mmx_units::{thermal_noise_dbm, BitRate, Db, DbmPower, Degrees, Hertz, Seconds};
use std::collections::BTreeMap;

/// Static tag for a link state, used in `fsm` trace events and
/// `fsm_time_in_state_s` gauge labels (shared with the multi-AP
/// engine's trace, which is where `Handoff` actually occurs).
pub(crate) fn state_name(s: LinkState) -> &'static str {
    match s {
        LinkState::Idle => "Idle",
        LinkState::Joining => "Joining",
        LinkState::Granted => "Granted",
        LinkState::Outage => "Outage",
        LinkState::Rejoining => "Rejoining",
        LinkState::Handoff { .. } => "Handoff",
    }
}

/// Run-local accumulators for the per-packet metrics.
///
/// The packet arm is the simulator's hot loop, so samples land in local
/// histograms and flush into the recorder's keyed registry once per run
/// — exactly equivalent, by the histogram merge law, to observing each
/// sample directly, but without a keyed map lookup per packet. Packet
/// counters come from the per-node statistics at flush time.
///
/// Samples arrive per node in runs: a packet whose samples repeat its
/// node's previous ones bit for bit only lengthens the run, and a run is
/// recorded at once ([`mmx_obs::Histogram::record_n`]) when it ends — in
/// a still room most do, because a node's planned channel and its
/// batch's snapshot rarely change between its packets.
struct PacketMetrics {
    fsk_fallback: u64,
    sinr_db: mmx_obs::Histogram,
    margin_db: mmx_obs::Histogram,
    ber: mmx_obs::Histogram,
    /// Per node: the open run's samples (SINR, margin — NaN when not
    /// recorded, which histograms ignore — and BER) and its length.
    runs: Vec<([f64; 3], u64)>,
}

impl PacketMetrics {
    fn new(n: usize) -> Self {
        PacketMetrics {
            fsk_fallback: 0,
            sinr_db: mmx_obs::Histogram::new(),
            margin_db: mmx_obs::Histogram::new(),
            ber: mmx_obs::Histogram::new(),
            runs: vec![([0.0; 3], 0); n],
        }
    }

    /// Records one transmitted packet's samples: its SINR, its decision
    /// margin against `threshold` (when the control plane is faulted),
    /// and its BER.
    fn record(&mut self, g: &Gather, threshold: Option<Db>) {
        let margin = threshold.map_or(f64::NAN, |th| (g.decision_snr - th).value());
        let samples = [g.sinr.value(), margin, g.ber];
        let (open, k) = &mut self.runs[g.i];
        if *k > 0 && open.map(f64::to_bits) == samples.map(f64::to_bits) {
            *k += 1;
            return;
        }
        let closed = std::mem::replace(&mut self.runs[g.i], (samples, 1));
        self.close(closed);
    }

    fn close(&mut self, ([sinr, margin, ber], k): ([f64; 3], u64)) {
        self.sinr_db.record_n(sinr, k);
        self.margin_db.record_n(margin, k);
        self.ber.record_n(ber, k);
    }

    fn flush(&mut self, rec: &mut Recorder, stats: &[NodeStats], lost_to_churn: u64) {
        let counters = [
            ("packets_sent", stats.iter().map(|s| s.sent).sum()),
            ("packets_delivered", stats.iter().map(|s| s.delivered).sum()),
            ("packets_lost_to_churn", lost_to_churn),
            ("fsk_fallback_packets", self.fsk_fallback),
        ];
        for (name, v) in counters.into_iter().filter(|&(_, v)| v > 0) {
            rec.add(name, "", v);
        }
        for run in std::mem::take(&mut self.runs) {
            self.close(run);
        }
        rec.observe_hist("sinr_db", "", &self.sinr_db);
        rec.observe_hist("decision_margin_db", "", &self.margin_db);
        rec.observe_hist("ber", "", &self.ber);
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated duration.
    pub duration: Seconds,
    /// RNG seed — same seed, same run.
    pub seed: u64,
    /// The band plan for FDM.
    pub plan: BandPlan,
    /// Fixed channel width when SDM kicks in (the paper's 25 MHz
    /// sub-bands, §9.5).
    pub sdm_channel_width: Hertz,
    /// LoS path-loss exponent.
    pub path_loss_exponent: f64,
    /// Implementation loss (DESIGN.md §5).
    pub implementation_loss: Db,
    /// Number of random-waypoint walkers perturbing the channel.
    pub walkers: usize,
    /// Whether one person paces across the room center (§9.2's permanent
    /// LoS blocker).
    pub pacing_blocker: bool,
    /// Mobility/blockage update period.
    pub step: Seconds,
    /// Uplink power control: during initialization each node backs its
    /// transmit power off (up to `max_backoff`) so that all nodes arrive
    /// at the AP with similar power — the classic near-far fix, and an
    /// extension over the paper (DESIGN.md §6).
    pub power_control: bool,
    /// Maximum power-control backoff.
    pub max_backoff: Db,
    /// Rician small-scale fading on top of the specular geometry
    /// (per-packet, time-correlated). `None` = specular only.
    pub fading: Option<FadingConfig>,
    /// Rate adaptation: each node picks the fastest switch speed whose
    /// predicted BER meets 1e-6 given its initial SINR (extension;
    /// `mmx-phy::rate`). Slower symbols gain post-detection SNR.
    pub rate_adaptation: bool,
    /// Trace two-bounce specular paths (worth it in metallic rooms like
    /// vehicle cabins; off for the paper's drywall lab).
    pub second_order_reflections: bool,
    /// Record a per-packet trace in the report.
    pub record_trace: bool,
    /// Fault injection (`None` = instant admission: the control
    /// handshake is abstracted into a one-shot allocation before t = 0
    /// and nodes never lose their grants).
    pub faults: Option<FaultConfig>,
    /// Lease policy when faults are enabled.
    pub lease: LeaseConfig,
    /// Consecutive undecodable packets before a node declares an outage
    /// and falls back to FSK-only (§6.2).
    pub outage_window: u32,
    /// Decision-SNR threshold below which a packet counts as
    /// undecodable for outage detection.
    pub decode_threshold: Db,
    /// Ignored. A simulation runs on one thread; batches of independent
    /// sims parallelise across sims instead ([`run_batch`], DESIGN.md
    /// §9). The field stays only because the `mmxbench` benchmark
    /// package still sets it; it goes when that package next changes.
    pub threads: usize,
}

/// Small-scale fading parameters for the simulator.
#[derive(Debug, Clone, Copy)]
pub struct FadingConfig {
    /// Rician K-factor in dB (7 dB ≈ indoor mmWave).
    pub k_db: f64,
    /// Per-packet correlation of the diffuse component (0..1).
    pub rho: f64,
}

impl FadingConfig {
    /// Indoor defaults: K = 7 dB, slowly varying (ρ = 0.9).
    pub fn indoor() -> Self {
        FadingConfig {
            k_db: 7.0,
            rho: 0.9,
        }
    }
}

impl SimConfig {
    /// Defaults matching the paper's testbed conditions.
    pub fn standard() -> Self {
        SimConfig {
            duration: Seconds::new(2.0),
            seed: 1,
            plan: BandPlan::ism_24ghz(),
            sdm_channel_width: Hertz::from_mhz(25.0),
            path_loss_exponent: 2.0,
            implementation_loss: Db::new(18.0),
            walkers: 1,
            pacing_blocker: false,
            step: Seconds::from_millis(100.0),
            power_control: true,
            max_backoff: Db::new(20.0),
            fading: None,
            rate_adaptation: false,
            second_order_reflections: false,
            record_trace: false,
            faults: None,
            lease: LeaseConfig::standard(),
            outage_window: 8,
            decode_threshold: Db::new(5.0),
            threads: 1,
        }
    }
}

/// Why a simulation could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The AP has no TMA, so SDM cannot separate a load the band cannot
    /// carry.
    Sdm(SdmError),
    /// No nodes were added.
    Empty,
    /// Two nodes share this id.
    DuplicateNode(NodeId),
}

/// Per-node outcome of a run.
///
/// `PartialEq` compares floats by bit pattern, so two reports from the
/// same seed compare equal even when a node never transmitted
/// (`mean_sinr_db` = NaN).
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node id.
    pub id: NodeId,
    /// Whether the node was admitted (false = the TMA harmonic beam it
    /// hashes into was full under SDM; the node stayed silent).
    pub admitted: bool,
    /// Packets transmitted.
    pub sent: u64,
    /// Packets delivered (CRC-clean).
    pub delivered: u64,
    /// Mean SINR over transmissions (dB).
    pub mean_sinr_db: f64,
    /// Worst observed SINR (dB).
    pub min_sinr_db: f64,
    /// Packet error rate.
    pub per: f64,
    /// Application goodput, bit/s.
    pub goodput_bps: f64,
    /// Total energy spent, joules.
    pub energy_j: f64,
    /// Delivered-bit efficiency, nJ/bit.
    pub nj_per_bit: Option<f64>,
    /// The SDM slot the node ran on (channel 0, harmonic 0 when it was
    /// not admitted).
    pub slot: SdmSlot,
}

/// Bit-pattern float equality: `NaN == NaN`, `-0.0 != 0.0`. Exactly
/// what a determinism check wants.
#[inline]
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

impl PartialEq for NodeReport {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.admitted == other.admitted
            && self.sent == other.sent
            && self.delivered == other.delivered
            && bits_eq(self.mean_sinr_db, other.mean_sinr_db)
            && bits_eq(self.min_sinr_db, other.min_sinr_db)
            && bits_eq(self.per, other.per)
            && bits_eq(self.goodput_bps, other.goodput_bps)
            && bits_eq(self.energy_j, other.energy_j)
            && match (self.nj_per_bit, other.nj_per_bit) {
                (None, None) => true,
                (Some(a), Some(b)) => bits_eq(a, b),
                _ => false,
            }
            && self.slot == other.slot
    }
}

/// One recorded packet transmission (when `record_trace` is on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketSample {
    /// Transmission start time.
    pub t: Seconds,
    /// Transmitting node index.
    pub node: usize,
    /// SINR at the AP, dB.
    pub sinr_db: f64,
    /// Whether the packet survived.
    pub delivered: bool,
}

/// Control-plane resilience metrics of a faulted run. All zero for a
/// fault-free run (`SimConfig::faults = None`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Control messages offered to the (lossy) control plane.
    pub control_sent: u64,
    /// Control messages the injector dropped.
    pub control_lost: u64,
    /// Join retransmissions forced by loss (backoff timer firings that
    /// resent a request).
    pub control_retries: u64,
    /// Stale (reordered/duplicated) grants nodes discarded by epoch.
    pub stale_grants_discarded: u64,
    /// Leases the AP reclaimed by expiry (crashed or silenced nodes).
    pub reclaimed_leases: u64,
    /// Packet slots that passed while a node was down or waiting on
    /// re-admission.
    pub packets_lost_to_churn: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Outages declared (decision SNR below threshold for the window).
    pub outages: u64,
    /// First-time admissions completed.
    pub joins: u64,
    /// Mean time from first join attempt to Granted, seconds.
    pub mean_join_s: f64,
    /// Recoveries completed (rejoin after crash/restart/lease loss, or
    /// an outage healing).
    pub recoveries: u64,
    /// Mean time-to-recover, seconds.
    pub mean_recovery_s: f64,
    /// Worst time-to-recover, seconds.
    pub max_recovery_s: f64,
    /// Nodes in `Granted` when the run ended.
    pub granted_at_end: usize,
    /// Nodes streaming (Granted or FSK-fallback Outage) at the end.
    pub streaming_at_end: usize,
    /// Nodes alive (not crashed, not departed) at the end.
    pub alive_at_end: usize,
}

/// Aggregate outcome of a run. `PartialEq` compares bit-exactly
/// (floats by bit pattern, so NaN fields from never-transmitting nodes
/// still compare equal across identically seeded runs).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Per-node reports, in node order.
    pub nodes: Vec<NodeReport>,
    /// Whether the run needed SDM (demand exceeded the band).
    pub used_sdm: bool,
    /// Simulated duration.
    pub duration: Seconds,
    /// Per-packet trace (empty unless `record_trace`).
    pub trace: Vec<PacketSample>,
    /// Control-plane resilience metrics (all zero without faults).
    pub recovery: RecoveryReport,
}

impl NetworkReport {
    /// Mean of the per-node mean SINRs.
    pub fn mean_sinr_db(&self) -> f64 {
        if self.nodes.is_empty() {
            return f64::NAN;
        }
        self.nodes.iter().map(|n| n.mean_sinr_db).sum::<f64>() / self.nodes.len() as f64
    }

    /// The worst per-node mean SINR.
    pub fn min_mean_sinr_db(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.mean_sinr_db)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total delivered goodput.
    pub fn total_goodput(&self) -> BitRate {
        BitRate::new(self.nodes.iter().map(|n| n.goodput_bps).sum())
    }
}

/// The network simulator.
pub struct NetworkSim {
    room: Room,
    ap: ApStation,
    nodes: Vec<NodeStation>,
    cfg: SimConfig,
}

/// The single-AP control plane: instant admission (`faults = None`) or
/// the lossy join/grant/lease protocol, with everything it accounts.
struct Control<'a> {
    sim: &'a NetworkSim,
    idx_of: BTreeMap<NodeId, usize>,
    rates: Vec<BitRate>,
    admission: Admission,
    links: Vec<NodeLink>,
    alive: Vec<bool>,
    keepalive_on: Vec<bool>,
    packets_on: Vec<bool>,
    meters: Vec<EnergyMeter>,
    recovery: RecoveryReport,
    burst_depth: u32,
    /// FSM observability cursor: (state, entered-at) per node, so each
    /// transition charges the dwell time to the state just left.
    fsm_cursor: Vec<(LinkState, f64)>,
    pm: PacketMetrics,
    trace: Vec<PacketSample>,
}

impl Plane for Control<'_> {
    fn classify(&self, t: Seconds, i: usize) -> Planned {
        if !self.sim.nodes[i].is_active(t) {
            Planned::Inactive
        } else if self.sim.cfg.faults.is_some() && (!self.alive[i] || !self.links[i].is_streaming())
        {
            Planned::Churn
        } else {
            let fsk = self.links[i].state() == LinkState::Outage;
            Planned::Tx { fsk }
        }
    }

    fn on_silent(&mut self, t: Seconds, i: usize, planned: Planned, st: &mut State) {
        // The node is silent: it left, or its radio is down or waiting
        // on re-admission while the application clock keeps ticking.
        st.live.rx[0][i] = DbmPower::ZERO_POWER;
        if planned == Planned::Inactive {
            self.packets_on[i] = false;
            return;
        }
        self.recovery.packets_lost_to_churn += 1;
        let next = t + self.sim.nodes[i].packet_interval();
        st.fab
            .q
            .schedule_at(next, Event::Packet(i))
            .expect("reschedule lands inside the batch horizon");
    }

    fn on_event(&mut self, t: Seconds, ev: Event, st: &mut State, rec: &mut Recorder) {
        let (cfg, nodes, n) = (&self.sim.cfg, &self.sim.nodes, self.sim.nodes.len());
        let fab = &mut st.fab;
        match ev {
            Event::Wake(i) | Event::Rejoin(i) => {
                // A rejoin is spurious when the matching crash was
                // skipped (node already inactive at crash time).
                let rejoin = matches!(ev, Event::Rejoin(_));
                if !nodes[i].is_active(t) || (rejoin && self.alive[i]) {
                    return;
                }
                self.alive[i] |= rejoin;
                let was = self.links[i].state();
                self.links[i].start_join(t);
                self.note_fsm(rec, t, i, was);
                self.send_join(fab, t, i, rec);
            }
            Event::Depart(i) | Event::Crash(i) => {
                let crash = matches!(ev, Event::Crash(_));
                if crash && (!self.alive[i] || !nodes[i].is_active(t)) {
                    return;
                }
                self.alive[i] = false;
                let was = self.links[i].state();
                self.links[i].on_crash();
                self.note_fsm(rec, t, i, was);
                let what = if crash { "crash" } else { "depart" };
                rec.event(t.value(), "fault", i as i64, what, "", 0.0);
                if crash {
                    rec.inc("faults", "crash");
                    self.recovery.crashes += 1;
                } else {
                    self.meters[i].record_fixed(CONTROL_MSG_ENERGY_J);
                    let node = nodes[i].id;
                    fab.send(t, Event::ToAp(ControlMsg::Leave { node }), rec);
                }
                st.live.rx[0][i] = DbmPower::ZERO_POWER;
            }
            Event::RetryJoin(i, attempt) => {
                if self.alive[i] && self.links[i].retry_join(attempt) == LinkAction::SendJoin {
                    self.send_join(fab, t, i, rec);
                }
            }
            Event::KeepaliveTick(i) => {
                if !self.alive[i] || !self.links[i].is_streaming() {
                    self.keepalive_on[i] = false;
                    return;
                }
                self.meters[i].record_fixed(CONTROL_MSG_ENERGY_J);
                let node = nodes[i].id;
                fab.send(t, Event::ToAp(ControlMsg::Keepalive { node }), rec);
                fab.q
                    .schedule_in(cfg.lease.keepalive_interval, Event::KeepaliveTick(i))
                    .expect("keepalive interval is positive");
            }
            Event::LeaseCheck => {
                for id in self.admission.expire_stale(t, cfg.lease.duration) {
                    rec.event(t.value(), "lease", id as i64, "expired", "", 0.0);
                    rec.inc("leases_expired", "");
                    // The node may still believe it is granted (all its
                    // keepalives were lost): tell it to rejoin.
                    if let Some(&i) = self.idx_of.get(&id) {
                        if self.alive[i] && self.links[i].is_streaming() {
                            let reject = ControlMsg::Reject { node: id };
                            fab.send(t, Event::ToNode(i, reject), rec);
                        }
                    }
                }
                fab.q
                    .schedule_in(cfg.lease.keepalive_interval, Event::LeaseCheck)
                    .expect("lease scan interval is positive");
            }
            Event::ApRestart => {
                rec.event(t.value(), "fault", -1, "ap_restart", "", 0.0);
                rec.inc("faults", "ap_restart");
                self.admission.restart();
            }
            Event::BurstStart => {
                if self.burst_depth == 0 {
                    rec.span_begin(t.value(), "burst", -1);
                }
                self.burst_depth += 1;
                let f = cfg.faults.as_ref().expect("bursts are injected faults");
                st.live.extra_loss = f.burst_loss;
            }
            Event::BurstEnd => {
                self.burst_depth = self.burst_depth.saturating_sub(1);
                if self.burst_depth == 0 {
                    rec.span_end(t.value(), "burst", -1);
                    st.live.extra_loss = Db::ZERO;
                }
            }
            Event::ToAp(msg) => {
                let admission = &mut self.admission;
                let reject = match msg {
                    ControlMsg::JoinRequest { node, demand_bps } => {
                        match admission.join_at(node, BitRate::new(demand_bps), t) {
                            Ok(grants) => {
                                for g in grants {
                                    if let ControlMsg::Grant { node: gid, .. } = &g {
                                        if let Some(&i) = self.idx_of.get(gid) {
                                            fab.send(t, Event::ToNode(i, g), rec);
                                        }
                                    }
                                }
                                None
                            }
                            Err(_) => Some(node),
                        }
                    }
                    ControlMsg::GrantAck { node, epoch } => {
                        admission.ack(node, epoch);
                        None
                    }
                    ControlMsg::Keepalive { node } => (!admission.refresh(node, t)).then_some(node),
                    ControlMsg::Leave { node } => {
                        admission.leave(node);
                        None
                    }
                    ControlMsg::Grant { .. } | ControlMsg::Reject { .. } => None,
                };
                if let Some(node) = reject {
                    if let Some(&i) = self.idx_of.get(&node) {
                        let msg = ControlMsg::Reject { node };
                        fab.send(t, Event::ToNode(i, msg), rec);
                    }
                }
            }
            Event::ToNode(i, msg) => {
                if !self.alive[i] {
                    return; // delivered to a crashed radio
                }
                let was = self.links[i].state();
                match msg {
                    ControlMsg::Grant {
                        epoch, center_hz, ..
                    } => {
                        let (act, healed) = self.links[i].on_grant(epoch, center_hz, t);
                        self.note_fsm(rec, t, i, was);
                        if act == LinkAction::AckGrant {
                            self.meters[i].record_fixed(CONTROL_MSG_ENERGY_J);
                            let node = nodes[i].id;
                            let ack = ControlMsg::GrantAck { node, epoch };
                            fab.send(t, Event::ToAp(ack), rec);
                            if !self.keepalive_on[i] {
                                self.keepalive_on[i] = true;
                                let every = cfg.lease.keepalive_interval;
                                fab.q
                                    .schedule_in(every, Event::KeepaliveTick(i))
                                    .expect("keepalive interval is positive");
                            }
                            if !self.packets_on[i] {
                                self.packets_on[i] = true;
                                let offset = nodes[i].packet_interval() * (i as f64 / n as f64);
                                fab.q
                                    .schedule_at(t + offset, Event::Packet(i))
                                    .expect("first packet is ahead");
                            }
                        }
                        match healed {
                            Some(d) if was == LinkState::Joining => {
                                self.recovery.joins += 1;
                                self.recovery.mean_join_s += d.value();
                                let d = d.value();
                                rec.event(t.value(), "recover", i as i64, "join", "", d);
                                rec.observe("join_s", "", d);
                            }
                            Some(d) => self.note_recovery(rec, t, i, d),
                            None => {}
                        }
                    }
                    ControlMsg::Reject { .. } => {
                        let act = self.links[i].on_reject(t);
                        self.note_fsm(rec, t, i, was);
                        if act == LinkAction::SendJoin {
                            self.send_join(fab, t, i, rec);
                        }
                    }
                    _ => {}
                }
            }
            _ => unreachable!("not a single-AP control event"),
        }
    }

    fn on_packet(&mut self, t: Seconds, g: &mut Gather, st: &mut State, rec: &mut Recorder) {
        let ok = g.ok;
        let (cfg, i, node) = (&self.sim.cfg, g.i, &self.sim.nodes[g.i]);
        if cfg.faults.is_some() {
            let decodable = g.decision_snr >= cfg.decode_threshold;
            // `was` is the state the drain classified by, so the gather
            // ran FSK-only exactly when it is `Outage`.
            let was = self.links[i].state();
            let (act, healed) = self.links[i].on_packet_sinr(decodable, cfg.outage_window, t);
            self.note_fsm(rec, t, i, was);
            if act == LinkAction::SendJoin {
                // Outage declared: FSK fallback + re-admission.
                self.recovery.outages += 1;
                rec.event(t.value(), "recover", i as i64, "outage", "", 0.0);
                self.send_join(&mut st.fab, t, i, rec);
            }
            if let Some(d) = healed {
                self.note_recovery(rec, t, i, d);
            }
            self.pm.fsk_fallback += (was == LinkState::Outage) as u64;
        }
        if rec.is_enabled() {
            let threshold = cfg.faults.as_ref().map(|_| cfg.decode_threshold);
            self.pm.record(g, threshold);
        }
        let airtime = node.packet_airtime(self.rates[i]);
        self.meters[i].record_airtime(airtime, node.tx_power_draw());
        if ok {
            self.meters[i].record_delivered(node.payload_bytes as u64 * 8);
            // The data plane is proof of liveness: a decoded packet
            // refreshes the lease like a keepalive, so a streaming node
            // can't lose its spectrum to an unlucky run of lost
            // keepalives. Keepalives still carry nodes through idle gaps
            // longer than the lease.
            if cfg.faults.is_some() {
                self.admission.refresh(node.id, t);
            }
        }
        if cfg.record_trace {
            self.trace.push(PacketSample {
                t,
                node: i,
                sinr_db: g.sinr.value(),
                delivered: ok,
            });
        }
    }
}

impl Control<'_> {
    /// Sends node `i`'s `JoinRequest` and arms the retransmit timer for
    /// the attempt its link is currently on. Retransmissions (any attempt
    /// past the first) leave a `retry` trace event with the attempt
    /// number and count into `join_retries`.
    fn send_join(&mut self, fab: &mut Fabric, t: Seconds, i: usize, rec: &mut Recorder) {
        let (node, attempt) = (&self.sim.nodes[i], self.links[i].attempt());
        self.meters[i].record_fixed(CONTROL_MSG_ENERGY_J);
        if attempt > 0 {
            self.recovery.control_retries += 1;
            rec.inc("join_retries", "");
            rec.event(t.value(), "retry", i as i64, "join", "", attempt as f64);
        }
        let (node, demand_bps) = (node.id, node.demand.bps());
        fab.send(
            t,
            Event::ToAp(ControlMsg::JoinRequest { node, demand_bps }),
            rec,
        );
        let retry = t + fab.backoff.delay(attempt, fab.inj.jitter());
        fab.q
            .schedule_at(retry, Event::RetryJoin(i, attempt))
            .expect("retry timer is ahead");
    }

    /// Per-node FSM bookkeeping for observability, after node `i` left
    /// state `was`: charges the stretch since its last transition to
    /// `was` (gauge + outage histogram) and emits the `fsm` trace event.
    /// No-op (beyond updating the cursor) when the state did not change
    /// or the recorder is disabled.
    fn note_fsm(&mut self, rec: &mut Recorder, t: Seconds, i: usize, was: LinkState) {
        let now = self.links[i].state();
        if was == now {
            return;
        }
        let since = self.fsm_cursor[i].1;
        self.fsm_cursor[i] = (now, t.value());
        let dwell = (t.value() - since).max(0.0);
        rec.gauge_add("fsm_time_in_state_s", state_name(was), dwell);
        if was == LinkState::Outage {
            rec.observe("outage_s", "", dwell);
        }
        let (from, to) = (state_name(was), state_name(now));
        rec.event(t.value(), "fsm", i as i64, from, to, 0.0);
    }

    /// Counts one completed recovery (a rejoin after a crash, restart or
    /// lost lease, or a healed outage) that took `d`.
    fn note_recovery(&mut self, rec: &mut Recorder, t: Seconds, i: usize, d: Seconds) {
        self.recovery.recoveries += 1;
        self.recovery.mean_recovery_s += d.value();
        self.recovery.max_recovery_s = self.recovery.max_recovery_s.max(d.value());
        rec.event(t.value(), "recover", i as i64, "rejoin", "", d.value());
        rec.observe("recovery_s", "", d.value());
    }
}

impl NetworkSim {
    /// Creates a simulator.
    pub fn new(room: Room, ap: ApStation, cfg: SimConfig) -> Self {
        NetworkSim {
            room,
            ap,
            nodes: Vec::new(),
            cfg,
        }
    }

    /// Adds a node.
    pub fn add_node(&mut self, node: NodeStation) -> &mut Self {
        self.nodes.push(node);
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable configuration (tweak faults, trace recording, seeds).
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.cfg
    }

    /// Angle of arrival of each node's LoS at the AP, relative to the
    /// AP's facing.
    fn arrival_angles(&self) -> Vec<Degrees> {
        self.nodes.iter().map(|n| net::aoa(&self.ap, n)).collect()
    }

    /// Plans slots and PHY rates: FDM when the band fits the demand, SDM
    /// otherwise. Under SDM, nodes beyond what one TMA harmonic beam can
    /// carry are rejected in node order (the same cap as the multi-AP
    /// engine's); a rejected node keeps the unscheduled slot and its
    /// `admitted` flag is cleared.
    fn plan_slots(
        &self,
        admitted: &mut [bool],
    ) -> Result<(Vec<SdmSlot>, Vec<BitRate>, bool), SimError> {
        let n = self.nodes.len();
        let demands: Vec<BitRate> = self.nodes.iter().map(|n| n.demand).collect();
        let mut admission = Admission::new(self.cfg.plan.clone());
        if self
            .nodes
            .iter()
            .all(|n| admission.join(n.id, n.demand).is_ok())
        {
            let slots = (0..n)
                .map(|i| SdmSlot {
                    channel: i,
                    harmonic: 0,
                })
                .collect();
            return Ok((slots, demands, false));
        }
        // SDM fallback: equal channels + TMA spatial reuse.
        let tma = self
            .ap
            .tma()
            .ok_or(SimError::Sdm(SdmError::NotEnoughResources {
                harmonic: 0,
                nodes: n,
            }))?;
        let capacity = self.cfg.plan.capacity(self.cfg.sdm_channel_width).max(1);
        let channels: Vec<usize> = (0..capacity).collect();
        let mut slots = vec![SdmSlot::UNSCHEDULED; n];
        let harmonic = tma.assign_harmonics(&self.arrival_angles());
        net::admit(&harmonic, 0..n, &channels, admitted, &mut slots).map_err(SimError::Sdm)?;
        let rate = self.cfg.plan.rate_for(self.cfg.sdm_channel_width);
        let rates = demands.iter().map(|&d| d.min(rate)).collect();
        Ok((slots, rates, true))
    }

    /// Runs the simulation.
    ///
    /// Without faults (`SimConfig::faults = None`) admission happens
    /// once, instantly and losslessly, before t = 0. With faults the
    /// control plane runs for real — join/grant over a lossy channel
    /// with retransmit backoff, epoch-stamped grants, leases with
    /// keepalives, churn, blockage bursts and AP restarts — and fills
    /// [`NetworkReport::recovery`]. Both are the same event loop.
    pub fn run(&self) -> Result<NetworkReport, SimError> {
        self.run_observed(&mut Recorder::disabled())
    }

    /// [`NetworkSim::run`] with observability: metrics, FSM/control
    /// trace events and blockage spans flow into `rec`.
    ///
    /// Every trace timestamp is the **simulated** event-queue clock, and
    /// nothing about the run's RNG stream or outcome depends on the
    /// recorder, so (a) `run_observed(&mut Recorder::disabled())` is
    /// exactly `run()` with zero added allocations, and (b) the recorded
    /// trace is a pure function of the scenario — byte-identical whichever
    /// batch worker runs it.
    pub fn run_observed(&self, rec: &mut Recorder) -> Result<NetworkReport, SimError> {
        if self.nodes.is_empty() {
            return Err(SimError::Empty);
        }
        let idx_of = net::index_nodes(&self.nodes).map_err(SimError::DuplicateNode)?;
        let n = self.nodes.len();
        let faults = self.cfg.faults.clone();
        let mut admitted = vec![true; n];
        let (slots, rates, used_sdm) = self.plan_slots(&mut admitted)?;
        rec.event(0.0, "run", -1, "begin", "", n as f64);
        let gains = match self.ap.tma().filter(|_| used_sdm) {
            Some(tma) => {
                let used: Vec<i32> = slots.iter().map(|s| s.harmonic).collect();
                GainTable::exact(tma, &self.arrival_angles(), &used)
            }
            None => GainTable::flat(n),
        };
        let bandwidth = if used_sdm {
            self.cfg.sdm_channel_width
        } else {
            self.cfg.plan.width_for(self.nodes[0].demand)
        };
        let noise = thermal_noise_dbm(bandwidth, self.ap.noise_figure());
        let pacer = self.cfg.pacing_blocker.then(|| {
            let x = self.room.width() / 2.0;
            let (from, to) = (Vec2::new(x, 0.5), Vec2::new(x, self.room.depth() - 0.5));
            LinearWalker::new(from, to, 1.0)
        });
        let mobility = Mobility::new(&self.room, self.cfg.walkers, pacer, self.cfg.seed);
        let blockers = mobility.blockers();

        // Every link is traced once, here. Initialization-phase
        // measurement through the plans: per-node arrival power for power
        // control and rate adaptation.
        let link = Link {
            room: &self.room,
            path_loss_exponent: self.cfg.path_loss_exponent,
            second_order: self.cfg.second_order_reflections,
            implementation_loss: self.cfg.implementation_loss,
        };
        let aps = std::slice::from_ref(&self.ap);
        let channels = link.plan(aps, &self.nodes, !mobility.still());
        let (mut meas, seps): (Vec<DbmPower>, Vec<Db>) = (self.nodes.iter().enumerate())
            .map(|(i, node)| {
                let (p, ch) = link.arrival(node, &channels, i, &blockers, None);
                (p, ch.level_separation())
            })
            .unzip();
        // Power control (set once at initialization): back strong nodes
        // off toward the weakest admitted arrival, bounded by
        // max_backoff.
        let backoff: Vec<Db> = if self.cfg.power_control && n > 1 {
            let floor = (meas.iter().zip(&admitted))
                .filter(|&(_, &ok)| ok)
                .fold(DbmPower::new(f64::INFINITY), |f, (&p, _)| f.min(p));
            meas.iter()
                .map(|&p| (p - floor).clamp(Db::ZERO, self.cfg.max_backoff))
                .collect()
        } else {
            vec![Db::ZERO; n]
        };
        // Rejected nodes never transmit: they hold zero power.
        for ((m, &b), &ok) in meas.iter_mut().zip(&backoff).zip(&admitted) {
            *m = if ok { *m - b } else { DbmPower::ZERO_POWER };
        }
        // Rate adaptation (set once at initialization, like the grants):
        // drop to a slower switch speed when the initial SINR cannot
        // carry the granted rate at the target BER.
        let mut rates = rates;
        if self.cfg.rate_adaptation {
            let adapter = mmx_phy::rate::RateAdapter::standard();
            // Refers the channel-band SINR to the granted symbol band.
            let ref_gain =
                Db::new(10.0 * (bandwidth.hz() / adapter.reference_rate().bps()).log10());
            for i in (0..n).filter(|&i| admitted[i]) {
                let row = gains.row(slots[i].harmonic);
                let sinr = net::sinr(row, noise, i, &slots, |j| meas[j]);
                if let Some(r) = adapter.select(sinr + ref_gain, seps[i]) {
                    rates[i] = rates[i].min(r);
                }
            }
        }
        let plan = RunPlan {
            link,
            channels,
            aps,
            nodes: &self.nodes,
            duration: self.cfg.duration,
            step: self.cfg.step,
            gains: vec![gains],
            noise: vec![noise],
            proc_gain: rates
                .iter()
                .map(|&r| net::proc_gain(bandwidth, r))
                .collect(),
            backoff,
            in_cone: Vec::new(),
            cand_harmonic: Vec::new(),
        };

        // Control plane. Without faults it stays idle: the fabric's
        // injector is quiet and no control event is ever scheduled.
        let quiet = faults.clone().unwrap_or_else(FaultConfig::none);
        let mut fab = Fabric::new(quiet, self.cfg.seed);
        let (crashes, bursts) = match &faults {
            Some(_) => (
                fab.inj.crash_schedule(n, self.cfg.duration),
                fab.inj.burst_windows(self.cfg.duration),
            ),
            None => (Vec::new(), Vec::new()),
        };
        let mut meters: Vec<EnergyMeter> = vec![EnergyMeter::new(); n];
        let mut at = |t: Seconds, ev: Event| {
            fab.q
                .schedule_at(t, ev)
                .expect("set-up events are ahead of t = 0")
        };
        at(Seconds::ZERO + self.cfg.step, Event::Step);
        let members = self.nodes.iter().enumerate().filter(|&(i, _)| admitted[i]);
        match &faults {
            None => {
                for (i, node) in members {
                    // Join handshake: request + grant.
                    meters[i].record_fixed(2.0 * CONTROL_MSG_ENERGY_J);
                    // Stagger starts to avoid artificial phase alignment,
                    // and honor the node's activity window (churn).
                    let offset = node.packet_interval() * (i as f64 / n as f64);
                    at(node.active_from.max(offset), Event::Packet(i));
                }
            }
            Some(f) => {
                let first_scan = Seconds::ZERO + self.cfg.lease.keepalive_interval;
                at(first_scan, Event::LeaseCheck);
                for (i, node) in members {
                    // Stagger the joins over one control RTT so the
                    // thundering herd at t = 0 stays deterministic but not
                    // simultaneous.
                    let wake = node.active_from + CONTROL_RTT * (i as f64 / n as f64);
                    at(wake, Event::Wake(i));
                    if let Some(until) = node.active_until {
                        at(until, Event::Depart(i));
                    }
                }
                // Rejected nodes never wake, so their crashes are no-ops.
                for c in crashes.iter().filter(|c| admitted[c.node]) {
                    at(c.at, Event::Crash(c.node));
                    at(c.at + f.rejoin_delay, Event::Rejoin(c.node));
                }
                for (start, end) in bursts {
                    at(start, Event::BurstStart);
                    at(end, Event::BurstEnd);
                }
                if let Some(restart) = f.ap_restart_at {
                    at(restart, Event::ApRestart);
                }
            }
        }

        // Live arrival powers: with instant admission everyone admitted
        // streams from t = 0; under faults everyone is silent until
        // granted.
        let rx = match faults {
            None => meas,
            Some(_) => vec![DbmPower::ZERO_POWER; n],
        };
        let live = Live {
            blockers,
            rx: vec![rx],
            slots,
            serving: vec![ApId(0); n],
            extra_loss: Db::ZERO,
        };
        let mut st = State::new(fab, live, mobility, self.cfg.seed, self.cfg.fading);
        let mut control = Control {
            sim: self,
            admission: Admission::new(if used_sdm {
                net::admission_plan(&self.cfg.plan, &self.nodes)
            } else {
                self.cfg.plan.clone()
            }),
            idx_of,
            alive: admitted.clone(),
            rates,
            links: vec![NodeLink::new(); n],
            keepalive_on: vec![false; n],
            packets_on: vec![false; n],
            meters,
            recovery: RecoveryReport::default(),
            burst_depth: 0,
            fsm_cursor: vec![(LinkState::Idle, 0.0); n],
            pm: PacketMetrics::new(if rec.is_enabled() { n } else { 0 }),
            trace: Vec::new(),
        };
        net::run(&plan, &mut st, &mut control, rec);

        let (links, mut recovery) = (&control.links, control.recovery);
        (control.pm).flush(rec, &st.stats, recovery.packets_lost_to_churn);
        if self.cfg.faults.is_some() {
            // Close out the FSM dwell accounting at the horizon.
            for &(state, since) in &control.fsm_cursor {
                let dwell = (self.cfg.duration.value() - since).max(0.0);
                rec.gauge_add("fsm_time_in_state_s", state_name(state), dwell);
            }
            recovery.control_sent = st.fab.control_sent;
            recovery.control_lost = st.fab.inj.stats().control_lost;
            recovery.stale_grants_discarded = links.iter().map(NodeLink::stale_discarded).sum();
            recovery.reclaimed_leases = control.admission.reclaimed_leases();
            // The means have summed their samples so far.
            if recovery.joins > 0 {
                recovery.mean_join_s /= recovery.joins as f64;
            }
            if recovery.recoveries > 0 {
                recovery.mean_recovery_s /= recovery.recoveries as f64;
            }
            recovery.granted_at_end = links
                .iter()
                .filter(|l| l.state() == LinkState::Granted)
                .count();
            recovery.streaming_at_end = links.iter().filter(|l| l.is_streaming()).count();
            recovery.alive_at_end = (0..n)
                .filter(|&i| control.alive[i] && self.nodes[i].is_active(self.cfg.duration))
                .count();
        }
        rec.event(self.cfg.duration.value(), "run", -1, "end", "", 0.0);

        let stats = &st.stats;
        let reports = (0..n)
            .map(|i| NodeReport {
                id: self.nodes[i].id,
                admitted: admitted[i],
                sent: stats[i].sent,
                delivered: stats[i].delivered,
                mean_sinr_db: stats[i].mean_sinr(f64::NAN),
                min_sinr_db: stats[i].min_sinr(f64::INFINITY),
                per: stats[i].per(),
                goodput_bps: stats[i].goodput_bps(&self.nodes[i], self.cfg.duration),
                energy_j: control.meters[i].joules(),
                nj_per_bit: control.meters[i].nj_per_bit(),
                slot: st.live.slots[i],
            })
            .collect();
        Ok(NetworkReport {
            nodes: reports,
            used_sdm,
            duration: self.cfg.duration,
            trace: control.trace,
            recovery,
        })
    }
}

/// Runs `run_one` over every scenario on up to `threads` workers
/// ([`pool::run_indexed`]) and returns the results in index order — so
/// the output never depends on scheduling. The batch runners below are
/// this with `run_one` a plain run. For an observed batch give each
/// scenario its own enabled [`Recorder`] in `run_one`: per-run traces
/// then never interleave, and concatenating them in index order gives a
/// batch trace that is byte-identical at any thread count (the `run`
/// begin/end markers delimit the scenarios). Post-processing done in
/// `run_one` (rendering the trace, say) runs on the worker that ran the
/// scenario.
pub fn run_batch_map<T: Send>(
    sims: &[NetworkSim],
    threads: usize,
    run_one: impl Fn(&NetworkSim) -> T + Sync,
) -> Vec<T> {
    pool::run_indexed(sims.len(), threads, |i| run_one(&sims[i]))
}

/// Runs a batch of independent scenarios across worker threads.
///
/// Each simulation is fully self-seeded (`SimConfig::seed`), so the
/// reports do not depend on scheduling: the result at index `i` is
/// bit-identical to `sims[i].run()`, at any thread count including 1.
/// Thread count comes from the `MMX_THREADS` environment variable when
/// set, otherwise the machine's available parallelism
/// ([`pool::resolve_threads`]).
pub fn run_batch(sims: &[NetworkSim]) -> Vec<Result<NetworkReport, SimError>> {
    run_batch_with_threads(sims, pool::resolve_threads(0))
}

/// [`run_batch`] with an explicit worker count — the determinism
/// contract made testable: for any `threads >= 1` the result vector is
/// bit-identical.
pub fn run_batch_with_threads(
    sims: &[NetworkSim],
    threads: usize,
) -> Vec<Result<NetworkReport, SimError>> {
    run_batch_map(sims, threads, NetworkSim::run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_channel::response::Pose;
    use mmx_channel::room::Material;
    use mmx_channel::Vec2;

    fn room() -> Room {
        Room::rectangular(6.0, 4.0, Material::Drywall)
    }

    fn ap() -> ApStation {
        ApStation::with_tma(
            Pose::new(Vec2::new(5.7, 2.0), Degrees::new(180.0)),
            8,
            Hertz::from_mhz(1.0),
        )
    }

    fn sim_with_nodes(n: usize) -> NetworkSim {
        let mut cfg = SimConfig::standard();
        cfg.duration = Seconds::new(0.5);
        let mut sim = NetworkSim::new(room(), ap(), cfg);
        // Nodes on an arc around the AP spanning its field of view, like
        // the random placements of §9.5.
        let ap_pos = Vec2::new(5.7, 2.0);
        for i in 0..n {
            let frac = (i as f64 + 0.5) / n as f64;
            let bearing = Degrees::new(180.0 - 35.0 + 70.0 * frac);
            let radius = 3.2 + 1.3 * ((i * 7) % 3) as f64 / 2.0;
            let mut pos = ap_pos + Vec2::from_bearing(bearing) * radius;
            pos.x = pos.x.clamp(0.3, 5.4);
            pos.y = pos.y.clamp(0.3, 3.7);
            let pose = Pose::facing_toward(pos, ap_pos);
            sim.add_node(NodeStation::hd_camera(i as u16, pose));
        }
        sim
    }

    #[test]
    fn single_node_delivers_everything() {
        let report = sim_with_nodes(1).run().expect("runs");
        assert!(!report.used_sdm);
        let n = &report.nodes[0];
        assert!(n.sent > 0);
        assert_eq!(n.delivered, n.sent, "PER = {}", n.per);
        assert!(n.mean_sinr_db > 20.0, "SINR = {}", n.mean_sinr_db);
    }

    #[test]
    fn five_nodes_fit_in_fdm() {
        // No walkers: a deterministic check that FDM keeps every node
        // clean. (Blockage effects are exercised separately below.)
        let mut sim = sim_with_nodes(5);
        sim.cfg.walkers = 0;
        let report = sim.run().expect("runs");
        assert!(!report.used_sdm);
        for n in &report.nodes {
            assert!(n.per < 0.05, "node {} PER = {}", n.id, n.per);
        }
    }

    #[test]
    fn twenty_nodes_need_sdm_and_survive() {
        // 20 × 12.5 MHz channels exceed 250 MHz → SDM path.
        let report = sim_with_nodes(20).run().expect("runs");
        assert!(report.used_sdm);
        assert!(
            report.mean_sinr_db() > 15.0,
            "mean SINR = {}",
            report.mean_sinr_db()
        );
    }

    #[test]
    fn more_nodes_less_sinr() {
        let one = sim_with_nodes(1).run().unwrap().mean_sinr_db();
        let twenty = sim_with_nodes(20).run().unwrap().mean_sinr_db();
        assert!(twenty < one, "1 node {one} dB vs 20 nodes {twenty} dB");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sim_with_nodes(3).run().unwrap();
        let b = sim_with_nodes(3).run().unwrap();
        assert_eq!(a.mean_sinr_db(), b.mean_sinr_db());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.sent, y.sent);
            assert_eq!(x.delivered, y.delivered);
        }
    }

    #[test]
    fn batch_matches_serial_runs() {
        // Scenarios with different sizes and seeds: the batch result at
        // index i must be bit-identical to sims[i].run().
        let mut sims = Vec::new();
        for (n, seed) in [(1usize, 3u64), (3, 7), (5, 11), (2, 3)] {
            let mut sim = sim_with_nodes(n);
            sim.cfg.walkers = 1;
            sim.cfg.seed = seed;
            sims.push(sim);
        }
        let batch = run_batch(&sims);
        for (sim, got) in sims.iter().zip(&batch) {
            let want = sim.run().expect("scenario runs");
            let got = got.as_ref().expect("batch scenario runs");
            assert_eq!(got.used_sdm, want.used_sdm);
            assert_eq!(got.nodes.len(), want.nodes.len());
            for (g, w) in got.nodes.iter().zip(&want.nodes) {
                assert_eq!(g.sent, w.sent);
                assert_eq!(g.delivered, w.delivered);
                assert_eq!(g.mean_sinr_db, w.mean_sinr_db);
                assert_eq!(g.energy_j, w.energy_j);
            }
        }
    }

    #[test]
    fn batch_propagates_errors_in_place() {
        let sims = vec![NetworkSim::new(room(), ap(), SimConfig::standard())];
        let batch = run_batch(&sims);
        assert_eq!(batch[0].as_ref().err(), Some(&SimError::Empty));
    }

    #[test]
    fn energy_efficiency_reported() {
        let report = sim_with_nodes(1).run().unwrap();
        let nj = report.nodes[0].nj_per_bit.expect("delivered bits");
        // A 10 Mbps camera on a ~10 Mbps PHY stays ~always on: ~110
        // nJ/bit plus overheads.
        assert!((50.0..500.0).contains(&nj), "nj/bit = {nj}");
    }

    #[test]
    fn goodput_approaches_demand() {
        let report = sim_with_nodes(2).run().unwrap();
        for n in &report.nodes {
            assert!(
                n.goodput_bps > 8e6,
                "node {} goodput = {}",
                n.id,
                n.goodput_bps
            );
        }
    }

    #[test]
    fn empty_network_rejected() {
        let sim = NetworkSim::new(room(), ap(), SimConfig::standard());
        assert_eq!(sim.run().err(), Some(SimError::Empty));
    }

    #[test]
    fn duplicate_node_ids_are_rejected() {
        let mut sim = sim_with_nodes(2);
        sim.nodes[1].id = sim.nodes[0].id;
        assert_eq!(sim.run().unwrap_err(), SimError::DuplicateNode(0));
        sim.cfg.faults = Some(FaultConfig::lossy(0.1));
        assert_eq!(sim.run().unwrap_err(), SimError::DuplicateNode(0));
    }

    /// More nodes than a harmonic beam has channels: the single-AP
    /// engine caps admission exactly as a one-AP `MultiApSim` over the
    /// same room, AP, nodes and band plan does, and the rejected nodes
    /// stay silent — with or without a lossy control plane.
    #[test]
    fn tma_overload_rejects_the_same_nodes_as_a_one_ap_multi_ap_sim() {
        use crate::multi_ap::{MultiApConfig, MultiApSim};
        let mut single = sim_with_nodes(20);
        // 80 MHz channels leave room for 3 nodes per harmonic beam.
        single.cfg.sdm_channel_width = Hertz::from_mhz(80.0);
        let mut mcfg = MultiApConfig::standard();
        mcfg.plan = single.cfg.plan.clone();
        mcfg.sdm_channel_width = single.cfg.sdm_channel_width;
        let mut multi = MultiApSim::new(room(), mcfg);
        multi.add_ap(ap());
        for node in &single.nodes {
            multi.add_node(node.clone());
        }
        let want: Vec<bool> = multi
            .run()
            .expect("runs")
            .nodes
            .iter()
            .map(|n| n.admitted)
            .collect();
        assert!(want.contains(&false), "the scenario must overload a beam");
        for faults in [
            None,
            Some(FaultConfig::lossy(0.1).with_churn(5.0, Seconds::from_millis(50.0))),
        ] {
            single.cfg.faults = faults;
            let report = single.run().expect("overload degrades instead of failing");
            let got: Vec<bool> = report.nodes.iter().map(|n| n.admitted).collect();
            assert_eq!(got, want);
            for n in report.nodes.iter().filter(|n| !n.admitted) {
                assert_eq!((n.sent, n.energy_j), (0, 0.0), "node {} spoke", n.id);
            }
            assert!(report.nodes.iter().any(|n| n.admitted && n.delivered > 0));
        }
    }

    #[test]
    fn sdm_without_tma_fails_gracefully() {
        let mut cfg = SimConfig::standard();
        cfg.duration = Seconds::new(0.2);
        let mut sim = NetworkSim::new(
            room(),
            ApStation::dipole(Pose::new(Vec2::new(5.7, 2.0), Degrees::new(180.0))),
            cfg,
        );
        for i in 0..20 {
            let pos = Vec2::new(0.5 + 0.2 * i as f64, 1.0);
            sim.add_node(NodeStation::hd_camera(
                i as u16,
                Pose::facing_toward(pos, Vec2::new(5.7, 2.0)),
            ));
        }
        assert!(matches!(sim.run(), Err(SimError::Sdm(_))));
    }

    #[test]
    fn second_order_reflections_help_in_metal_rooms() {
        // A metal cabin with the LoS blocked: two-bounce paths add real
        // energy (each bounce only ~6 dB there).
        let run = |second: bool| {
            let mut cfg = SimConfig::standard();
            cfg.duration = Seconds::from_millis(200.0);
            cfg.walkers = 0;
            cfg.pacing_blocker = true;
            cfg.second_order_reflections = second;
            let room = Room::rectangular(4.8, 1.9, mmx_channel::room::Material::Metal);
            let ap = ApStation::dipole(Pose::new(Vec2::new(4.3, 0.95), Degrees::new(180.0)));
            let mut sim = NetworkSim::new(room, ap, cfg);
            let pose = Pose::facing_toward(Vec2::new(0.3, 0.95), Vec2::new(4.3, 0.95));
            sim.add_node(NodeStation::hd_camera(0, pose));
            sim.run().unwrap().nodes[0].mean_sinr_db
        };
        let single = run(false);
        let double = run(true);
        // More paths ⇒ more (incoherently expected) energy; allow for
        // coherent wiggle but demand no catastrophic regression.
        assert!(
            double > single - 3.0,
            "second-order hurt: {double} vs {single}"
        );
    }

    #[test]
    fn rate_adaptation_rescues_weak_nodes() {
        // Put one camera at the far corner behind the desk with a
        // pacing blocker: fixed-rate PER suffers; adaptation trades rate
        // for reliability.
        let build = |adapt: bool| {
            let mut cfg = SimConfig::standard();
            cfg.duration = Seconds::new(2.0);
            cfg.walkers = 0;
            cfg.pacing_blocker = true;
            cfg.rate_adaptation = adapt;
            cfg.seed = 9;
            let mut sim = NetworkSim::new(Room::paper_lab(), ap(), cfg);
            let pose = Pose::facing_toward(Vec2::new(0.4, 3.6), Vec2::new(5.7, 2.0));
            sim.add_node(NodeStation::hd_camera(0, pose));
            sim
        };
        let fixed = build(false).run().unwrap().nodes[0].per;
        let adapted = build(true).run().unwrap().nodes[0].per;
        assert!(
            adapted <= fixed,
            "adaptation worsened PER: {adapted} vs {fixed}"
        );
    }

    #[test]
    fn churned_node_stops_and_frees_the_medium() {
        // Two co-channel-ish nodes; node 1 leaves halfway. Node 0's
        // later packets must see the interferer gone.
        let mut sim = sim_with_nodes(2);
        sim.cfg.walkers = 0;
        sim.cfg.record_trace = true;
        sim.cfg.duration = Seconds::new(1.0);
        sim.nodes[1] = sim.nodes[1]
            .clone()
            .with_activity(Seconds::ZERO, Some(Seconds::new(0.5)));
        let report = sim.run().unwrap();
        // Node 1 sent roughly half of node 0's packets.
        let sent0 = report.nodes[0].sent as f64;
        let sent1 = report.nodes[1].sent as f64;
        assert!(
            (sent1 / sent0 - 0.5).abs() < 0.1,
            "sent0 {sent0}, sent1 {sent1}"
        );
        // Node 0's SINR after the departure ≥ before it.
        let (mut before, mut after) = (Vec::new(), Vec::new());
        for s in report.trace.iter().filter(|s| s.node == 0) {
            if s.t < Seconds::new(0.5) {
                before.push(s.sinr_db);
            } else {
                after.push(s.sinr_db);
            }
        }
        let mb = mmx_dsp::stats::mean(&before).unwrap();
        let ma = mmx_dsp::stats::mean(&after).unwrap();
        assert!(ma >= mb - 0.1, "before {mb} dB, after {ma} dB");
    }

    #[test]
    fn late_joiner_starts_on_time() {
        let mut sim = sim_with_nodes(1);
        sim.cfg.walkers = 0;
        sim.cfg.record_trace = true;
        sim.cfg.duration = Seconds::new(1.0);
        sim.nodes[0] = sim.nodes[0].clone().with_activity(Seconds::new(0.4), None);
        let report = sim.run().unwrap();
        assert!(report.trace.iter().all(|s| s.t >= Seconds::new(0.4)));
        assert!(report.nodes[0].sent > 0);
    }

    #[test]
    fn trace_records_every_packet() {
        let mut sim = sim_with_nodes(2);
        sim.cfg.record_trace = true;
        sim.cfg.walkers = 0;
        let report = sim.run().unwrap();
        let total: u64 = report.nodes.iter().map(|n| n.sent).sum();
        assert_eq!(report.trace.len() as u64, total);
        // Timestamps are non-decreasing and node ids valid.
        for w in report.trace.windows(2) {
            assert!(w[1].t >= w[0].t);
        }
        assert!(report.trace.iter().all(|s| s.node < 2));
        let delivered: u64 = report.trace.iter().filter(|s| s.delivered).count() as u64;
        let reported: u64 = report.nodes.iter().map(|n| n.delivered).sum();
        assert_eq!(delivered, reported);
    }

    #[test]
    fn trace_off_by_default() {
        let report = sim_with_nodes(1).run().unwrap();
        assert!(report.trace.is_empty());
    }

    #[test]
    fn fading_adds_sinr_spread() {
        let run = |fading| {
            let mut sim = sim_with_nodes(1);
            sim.cfg.walkers = 0;
            sim.cfg.record_trace = true;
            sim.cfg.fading = fading;
            let report = sim.run().unwrap();
            let sinrs: Vec<f64> = report.trace.iter().map(|s| s.sinr_db).collect();
            mmx_dsp::stats::std_dev(&sinrs).unwrap_or(0.0)
        };
        let frozen = run(None);
        let faded = run(Some(FadingConfig::indoor()));
        assert!(frozen < 0.01, "specular-only spread = {frozen}");
        assert!(faded > 0.1, "faded spread = {faded}");
    }

    #[test]
    fn fading_is_deterministic_per_seed() {
        let run = || {
            let mut sim = sim_with_nodes(2);
            sim.cfg.fading = Some(FadingConfig::indoor());
            sim.run().unwrap().mean_sinr_db()
        };
        assert_eq!(run(), run());
    }

    fn faulted_sim(n: usize, faults: FaultConfig, duration: Seconds, seed: u64) -> NetworkSim {
        let mut sim = sim_with_nodes(n);
        sim.cfg.faults = Some(faults);
        sim.cfg.duration = duration;
        sim.cfg.seed = seed;
        sim.cfg.walkers = 0;
        sim
    }

    #[test]
    fn quiet_faults_still_run_the_control_plane() {
        let report = faulted_sim(3, FaultConfig::none(), Seconds::new(1.0), 1)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert_eq!(r.joins, 3, "every node admitted exactly once");
        assert_eq!(r.granted_at_end, 3);
        assert_eq!(r.alive_at_end, 3);
        assert_eq!(r.control_lost, 0);
        assert_eq!(r.control_retries, 0);
        assert_eq!(r.crashes, 0);
        assert_eq!(r.outages, 0);
        assert!(r.control_sent > 10, "joins + acks + keepalives flow");
        assert!(r.mean_join_s > 0.0, "admission takes a control RTT");
        for node in &report.nodes {
            assert!(node.sent > 0);
            assert!(node.per < 0.05, "node {} PER {}", node.id, node.per);
        }
    }

    #[test]
    fn lossy_control_plane_still_admits_everyone() {
        let report = faulted_sim(4, FaultConfig::lossy(0.3), Seconds::new(2.0), 7)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert_eq!(r.granted_at_end, 4, "all nodes granted: {r:?}");
        assert!(r.control_lost > 0, "30% loss must bite: {r:?}");
        assert!(r.control_retries > 0, "loss must force retries: {r:?}");
        assert!(r.mean_join_s > 0.0);
        for node in &report.nodes {
            assert!(node.sent > 0, "node {} never streamed", node.id);
        }
    }

    #[test]
    fn crashes_reclaim_leases_and_nodes_rejoin() {
        // Rejoin delay (600 ms) longer than the lease (400 ms): each
        // crash must reclaim spectrum before the node returns.
        let faults = FaultConfig::lossy(0.2).with_churn(0.6, Seconds::from_millis(600.0));
        let report = faulted_sim(3, faults, Seconds::new(4.0), 5)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert!(r.crashes > 0, "0.6 Hz × 3 nodes × 4 s must crash: {r:?}");
        assert!(r.reclaimed_leases > 0, "crashed leases must expire: {r:?}");
        assert!(r.recoveries > 0, "crashed nodes must re-admit: {r:?}");
        assert!(r.packets_lost_to_churn > 0);
        assert!(r.mean_recovery_s > 0.0);
        assert!(r.max_recovery_s >= r.mean_recovery_s);
        assert_eq!(r.granted_at_end, 3, "survivors re-reach Granted: {r:?}");
    }

    #[test]
    fn ap_restart_forces_rejoin() {
        let faults = FaultConfig::none().with_ap_restart(Seconds::new(0.5));
        let report = faulted_sim(2, faults, Seconds::new(2.0), 3)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert_eq!(r.joins, 2);
        assert!(
            r.recoveries >= 2,
            "every node must recover from the restart: {r:?}"
        );
        assert_eq!(r.granted_at_end, 2, "{r:?}");
    }

    #[test]
    fn blockage_burst_triggers_outage_and_heals() {
        // One deep correlated burst: the node must fall into the FSK
        // fallback and heal once the burst passes.
        let faults =
            FaultConfig::none().with_bursts(0.45, Seconds::from_millis(400.0), Db::new(45.0));
        let report = faulted_sim(1, faults, Seconds::new(3.0), 11)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert!(r.outages > 0, "a 45 dB burst must break decode: {r:?}");
        assert!(r.recoveries > 0, "the outage must heal: {r:?}");
        assert_eq!(r.granted_at_end, 1, "{r:?}");
        assert!(report.nodes[0].per > 0.0, "burst packets are lost");
    }

    #[test]
    fn stale_grants_are_discarded_under_duplication() {
        let mut faults = FaultConfig::lossy(0.1);
        faults.control_dup = 0.4;
        faults.control_delay_max = Seconds::from_millis(25.0);
        let report = faulted_sim(4, faults, Seconds::new(2.0), 2)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert!(
            r.stale_grants_discarded > 0,
            "40% duplication must produce stale grants: {r:?}"
        );
        assert_eq!(r.granted_at_end, 4, "{r:?}");
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let faults = FaultConfig::lossy(0.25).with_churn(0.4, Seconds::from_millis(300.0));
        let run = || {
            let mut sim = faulted_sim(3, faults.clone(), Seconds::new(2.0), 13);
            sim.cfg.record_trace = true;
            sim.run().expect("runs")
        };
        let a = run();
        let b = run();
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn faults_keep_channel_stream_independent() {
        // The same seed with and without faults: the walker/fading
        // draws come from the channel stream, so the *initial* SINR
        // (first packet, before any fault perturbs timing) matches.
        let clean = sim_with_nodes(2).run().expect("runs");
        let mut sim = sim_with_nodes(2);
        sim.cfg.faults = Some(FaultConfig::none());
        let faulted = sim.run().expect("runs");
        for (c, f) in clean.nodes.iter().zip(&faulted.nodes) {
            // Same channel model, admission overhead aside.
            assert!(
                (c.mean_sinr_db - f.mean_sinr_db).abs() < 1.0,
                "clean {} vs faulted {}",
                c.mean_sinr_db,
                f.mean_sinr_db
            );
        }
    }

    #[test]
    fn faulted_batch_identical_at_any_thread_count() {
        let mk = |seed| {
            let faults = FaultConfig::lossy(0.2).with_churn(0.5, Seconds::from_millis(400.0));
            faulted_sim(3, faults, Seconds::new(1.5), seed)
        };
        let sims: Vec<NetworkSim> = (1..=4).map(mk).collect();
        let serial = run_batch_with_threads(&sims, 1);
        let parallel = run_batch_with_threads(&sims, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().expect("serial runs");
            let p = p.as_ref().expect("parallel runs");
            assert_eq!(s.recovery, p.recovery);
            assert_eq!(s.nodes, p.nodes);
        }
    }

    #[test]
    fn sdm_load_survives_faults() {
        // 20 HD cameras exceed the band → SDM + virtual lease plan.
        let mut sim = sim_with_nodes(20);
        sim.cfg.faults = Some(FaultConfig::lossy(0.15));
        sim.cfg.duration = Seconds::new(1.0);
        sim.cfg.walkers = 0;
        let report = sim.run().expect("runs");
        assert!(report.used_sdm);
        assert_eq!(report.recovery.granted_at_end, 20, "{:?}", report.recovery);
        assert!(report.mean_sinr_db() > 15.0);
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let faults = FaultConfig::lossy(0.25).with_churn(0.4, Seconds::from_millis(300.0));
        let sim = faulted_sim(3, faults, Seconds::new(2.0), 13);
        let plain = sim.run().expect("runs");
        let mut rec = Recorder::enabled();
        let observed = sim.run_observed(&mut rec).expect("runs");
        assert_eq!(plain.nodes, observed.nodes, "observation changed the run");
        assert_eq!(plain.recovery, observed.recovery);
        assert!(!rec.trace().is_empty(), "faulted run must trace");
    }

    #[test]
    fn observed_trace_is_deterministic_and_structured() {
        let faults = FaultConfig::lossy(0.3).with_churn(0.5, Seconds::from_millis(400.0));
        let jsonl = || {
            let mut rec = Recorder::enabled();
            faulted_sim(3, faults.clone(), Seconds::new(2.0), 7)
                .run_observed(&mut rec)
                .expect("runs");
            rec.trace_jsonl()
        };
        let a = jsonl();
        assert_eq!(a, jsonl(), "same seed, same trace bytes");
        assert!(a.starts_with(r#"{"t":0,"kind":"run","node":-1,"a":"begin""#));
        assert!(a
            .trim_end()
            .lines()
            .last()
            .unwrap()
            .contains(r#""kind":"run""#));
        // The trace replays into a per-node FSM timeline covering the
        // whole horizon.
        let (events, bad) = mmx_obs::parse_jsonl(&a);
        assert_eq!(bad, 0, "every line parses");
        let runs = mmx_obs::replay(&events);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].nodes.len(), 3, "all three nodes transitioned");
        for (node, tl) in &runs[0].nodes {
            assert!(tl.transitions > 0, "node {node} never moved");
            assert!(tl.time_in_state.values().sum::<f64>() <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn observed_metrics_cross_check_the_report() {
        let faults = FaultConfig::lossy(0.2).with_churn(0.6, Seconds::from_millis(600.0));
        let sim = faulted_sim(3, faults, Seconds::new(4.0), 5);
        let mut rec = Recorder::enabled();
        let report = sim.run_observed(&mut rec).expect("runs");
        let reg = rec.registry();
        let sent: u64 = report.nodes.iter().map(|n| n.sent).sum();
        let delivered: u64 = report.nodes.iter().map(|n| n.delivered).sum();
        assert_eq!(reg.counter(mmx_obs::Key::plain("packets_sent")), sent);
        assert_eq!(
            reg.counter(mmx_obs::Key::plain("packets_delivered")),
            delivered
        );
        assert_eq!(
            reg.counter(mmx_obs::Key::labelled("faults", "crash")),
            report.recovery.crashes
        );
        assert_eq!(
            reg.counter(mmx_obs::Key::plain("join_retries")),
            report.recovery.control_retries
        );
        assert_eq!(rec.histogram("sinr_db").unwrap().count(), sent);
        // The per-state dwell gauges sum to nodes × duration.
        let dwell: f64 = reg
            .gauges()
            .filter(|(k, _)| k.name == "fsm_time_in_state_s")
            .map(|(_, v)| v)
            .sum();
        assert!(
            (dwell - 3.0 * 4.0).abs() < 1e-6,
            "dwell accounting leaked: {dwell}"
        );
    }

    #[test]
    fn observed_batch_matches_serial_and_any_thread_count() {
        let mk = |seed| {
            let faults = FaultConfig::lossy(0.2).with_churn(0.5, Seconds::from_millis(400.0));
            faulted_sim(3, faults, Seconds::new(1.5), seed)
        };
        let sims: Vec<NetworkSim> = (1..=4).map(mk).collect();
        let observed = |sim: &NetworkSim| {
            let mut rec = Recorder::enabled();
            (sim.run_observed(&mut rec), rec)
        };
        let serial = run_batch_map(&sims, 1, observed);
        let parallel = run_batch_map(&sims, 4, observed);
        for ((sr, srec), (pr, prec)) in serial.iter().zip(&parallel) {
            assert_eq!(
                sr.as_ref().expect("serial runs").nodes,
                pr.as_ref().expect("parallel runs").nodes
            );
            assert_eq!(srec.trace_jsonl(), prec.trace_jsonl(), "trace bytes differ");
            assert_eq!(srec.registry().render(), prec.registry().render());
        }
    }

    #[test]
    fn pacing_blocker_degrades_minimum_sinr() {
        let mk = |pacing: bool| {
            let mut cfg = SimConfig::standard();
            // Long enough for the pacer to cross the LoS at 1 m/s.
            cfg.duration = Seconds::new(4.0);
            cfg.walkers = 0;
            cfg.pacing_blocker = pacing;
            let mut sim = NetworkSim::new(room(), ap(), cfg);
            let pose = Pose::facing_toward(Vec2::new(0.5, 2.0), Vec2::new(5.7, 2.0));
            sim.add_node(NodeStation::hd_camera(0, pose));
            sim.run().unwrap().nodes[0].min_sinr_db
        };
        let clear = mk(false);
        let paced = mk(true);
        assert!(
            paced < clear,
            "pacing blocker should hurt: clear {clear} vs paced {paced}"
        );
    }
}
