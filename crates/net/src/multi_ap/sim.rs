//! The multi-AP network simulator: N APs sharing the 24 GHz ISM band,
//! hundreds of nodes, cross-AP SDM slot arbitration and roaming.
//!
//! Architecture (DESIGN.md §10):
//!
//! * **Spectrum**: one global equal-width channel grid
//!   ([`crate::fdm::BandPlan::channel_table`]) partitioned by a
//!   [`HarmonicReusePlan`] — co-channel reuse only between APs whose
//!   coverage cones do not overlap.
//! * **Per-AP stack**: every AP runs its own
//!   [`crate::sdm::SdmScheduler`] over its TMA (behind the TMA admission
//!   cap both engines share) and its own [`Admission`] bookkeeping; the
//!   inter-AP
//!   [`SlotArbiter`] owns the (node → AP, epoch) map.
//! * **Roaming**: per-packet SINR-margin hysteresis arms a
//!   make-before-break handoff
//!   ([`crate::link::NodeLink::begin_handoff`]); the `Transfer` and the
//!   returning grant both cross a lossy inter-AP/control link through
//!   the same message fabric and [`crate::faults::FaultInjector`] as the
//!   single-AP control plane, with retransmit backoff and monotonic
//!   epochs discarding stale grants.
//! * **Determinism**: the single-AP engine's §9 gather→commit event
//!   loop, with arbitration and roaming as its control plane — every
//!   packet of a batch is gathered (A planned channels each) against the
//!   same batch snapshot before any commits; all protocol and
//!   bookkeeping mutations happen in the commit phase in drained event
//!   order.
//!
//! The physics is the single-AP engine's, run once per AP through the
//! same private core: mobility, batch drain, gather, link function, H×N
//! gain tables and the one SINR kernel (which also computes the traced
//! `assoc` SINR). Deliberate simplifications: no
//! power control, rate adaptation, churn/crash injection, second-order
//! reflections or energy metering; nodes are always active; fading is
//! stepped on the serving-AP channel only. Candidate-AP SINR uses the
//! node's *current* channel as a proxy for the slot the target AP will
//! assign when the arbiter applies the move.

use crate::ap::{ApId, ApStation};
use crate::control::{Admission, NodeId, CONTROL_RTT};
use crate::faults::FaultConfig;
use crate::fdm::{AllocError, BandPlan, ChannelAssignment};
use crate::link::{LinkAction, LinkState, NodeLink};
use crate::multi_ap::plan::{ApCoverage, HarmonicReusePlan, ReusePlanError};
use crate::multi_ap::proto::{ApMsg, ArbiterVerdict, SlotArbiter};
use crate::net::{self, Event, Fabric, GainTable, Gather, Link, Live, Mobility, Plane, Planned};
use crate::net::{RunPlan, State};
use crate::node::NodeStation;
use crate::sdm::{SdmError, SdmSlot};
use crate::sim::{state_name, FadingConfig};
use mmx_channel::mobility::LinearWalker;
use mmx_channel::room::Room;
use mmx_channel::Vec2;
use mmx_obs::Recorder;
use mmx_units::{thermal_noise_dbm, BitRate, Db, DbmPower, Degrees, Hertz, Seconds};
use std::collections::BTreeMap;

/// A scripted straight-line blocker walking `from` → `to` and back at
/// `speed_mps` — the §9.2 pacing person, with the route under test
/// control so handoff scenarios can cut a specific AP–node ray.
#[derive(Debug, Clone, Copy)]
pub struct PacerRoute {
    /// Route start.
    pub from: Vec2,
    /// Route end.
    pub to: Vec2,
    /// Walking speed, m/s.
    pub speed_mps: f64,
}

/// Multi-AP simulator configuration.
#[derive(Debug, Clone)]
pub struct MultiApConfig {
    /// Simulated duration.
    pub duration: Seconds,
    /// RNG seed — same seed, same run.
    pub seed: u64,
    /// The shared band all APs carve their channel grid from.
    pub plan: BandPlan,
    /// Width of one grid channel (every AP link runs SDM over these).
    pub sdm_channel_width: Hertz,
    /// LoS path-loss exponent.
    pub path_loss_exponent: f64,
    /// Implementation loss (DESIGN.md §5).
    pub implementation_loss: Db,
    /// Number of random-waypoint walkers perturbing the channel.
    pub walkers: usize,
    /// A scripted linear blocker (handoff scenarios).
    pub pacer: Option<PacerRoute>,
    /// Mobility/blockage update period.
    pub step: Seconds,
    /// Rician small-scale fading on the serving-AP channel.
    pub fading: Option<FadingConfig>,
    /// Record a per-packet trace in the report.
    pub record_trace: bool,
    /// Fault injection on the inter-AP/control backhaul (`None` =
    /// reliable, instant-fate backhaul; the injector still runs with a
    /// quiet config so RNG draw counts match across fault intensities).
    pub inter_ap_faults: Option<FaultConfig>,
    /// Decision-SNR threshold below which a packet does not decode.
    pub decode_threshold: Db,
    /// How much better (dB) a neighbor AP must look than the serving AP
    /// before the hysteresis counter advances.
    pub handoff_hysteresis: Db,
    /// Consecutive better-neighbor packets required to arm a handoff.
    pub handoff_window: u32,
    /// Transfer retransmissions before the node gives up (the
    /// coordinator then either resyncs the grant over the reliable
    /// backhaul — if ownership already moved — or the node aborts back
    /// to its serving AP).
    pub max_transfer_retries: u32,
    /// Half-opening angle of each AP's coverage cone.
    pub coverage_half_angle: Degrees,
    /// Radius of each AP's coverage cone, meters.
    pub coverage_range_m: f64,
    /// Ignored, like [`crate::sim::SimConfig::threads`]: a simulation
    /// runs on one thread. The field stays only because the `mmxbench`
    /// benchmark package still sets it; it goes when that package next
    /// changes.
    pub threads: usize,
}

impl MultiApConfig {
    /// Defaults matching the single-AP testbed conditions, with the
    /// roaming knobs at their DESIGN.md §10 values.
    pub fn standard() -> Self {
        MultiApConfig {
            duration: Seconds::new(1.0),
            seed: 1,
            plan: BandPlan::ism_24ghz(),
            sdm_channel_width: Hertz::from_mhz(25.0),
            path_loss_exponent: 2.0,
            implementation_loss: Db::new(18.0),
            walkers: 0,
            pacer: None,
            step: Seconds::from_millis(100.0),
            fading: None,
            record_trace: false,
            inter_ap_faults: None,
            decode_threshold: Db::new(5.0),
            handoff_hysteresis: Db::new(3.0),
            handoff_window: 4,
            max_transfer_retries: 5,
            coverage_half_angle: Degrees::new(55.0),
            coverage_range_m: 6.0,
            threads: 1,
        }
    }
}

/// Why a multi-AP simulation could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiApError {
    /// No APs were added.
    NoAps,
    /// No nodes were added.
    Empty,
    /// The named AP has no TMA (every multi-AP member schedules by
    /// harmonic).
    NeedsTma(ApId),
    /// The reuse plan could not be built.
    Plan(ReusePlanError),
    /// An AP's SDM scheduler could not separate its members.
    Sdm(SdmError),
    /// Admission bookkeeping rejected a node at setup.
    Admission(AllocError),
    /// Two nodes share this id.
    DuplicateNode(NodeId),
}

/// One recorded packet transmission (when `record_trace` is on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiApPacketSample {
    /// Transmission start time.
    pub t: Seconds,
    /// Transmitting node index.
    pub node: usize,
    /// The AP serving the node at transmission time.
    pub ap: ApId,
    /// SINR at the serving AP, dB.
    pub sinr_db: f64,
    /// Whether the packet survived.
    pub delivered: bool,
}

/// Roaming/coordination outcome of a run. All handoff counters are zero
/// when no node ever saw a better neighbor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandoffReport {
    /// Handoffs armed (hysteresis tripped and the FSM entered
    /// `Handoff`).
    pub attempts: u64,
    /// `Transfer` messages offered to the backhaul (first sends and
    /// retries).
    pub transfers_sent: u64,
    /// `Transfer` messages the injector dropped.
    pub transfers_lost: u64,
    /// Transfer retransmissions forced by loss.
    pub transfer_retries: u64,
    /// Handoffs completed (node accepted the new grant and retuned).
    pub completed: u64,
    /// Handoffs abandoned with ownership unmoved (every transfer copy
    /// lost): the node fell back to its serving AP.
    pub aborted: u64,
    /// Transfers the arbiter or target admission refused.
    pub denied: u64,
    /// Stale inter-AP messages the arbiter discarded by epoch
    /// (duplicates, reordered stragglers).
    pub stale_transfer_msgs: u64,
    /// Stale grants nodes discarded by their epoch watermark.
    pub stale_grants_discarded: u64,
    /// Grants re-delivered over the reliable backhaul after the lossy
    /// path dropped every copy (ownership had already moved).
    pub grant_resyncs: u64,
    /// Mid-handoff packets that would have decoded at *both* the old
    /// and the new AP — the make-before-break overlap window.
    pub dual_decodes: u64,
    /// Packets credited to more than one AP. The monotonic-epoch rules
    /// guarantee at most one AP holds a node's current grant, so this
    /// is asserted zero by the soak tests; it is counted, not assumed.
    pub duplicate_deliveries: u64,
    /// Mean time from arming a handoff to accepting the new grant, s.
    pub mean_handoff_s: f64,
    /// Worst handoff time, s.
    pub max_handoff_s: f64,
}

/// Per-node outcome of a multi-AP run. Floats are plain (0.0, not NaN,
/// when a node never transmitted) so `PartialEq` derives cleanly for
/// the byte-determinism soaks.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiApNodeReport {
    /// Node id.
    pub id: NodeId,
    /// Whether the node was admitted (false = its AP's TMA schedule
    /// had no slot for it; the node stayed silent).
    pub admitted: bool,
    /// The AP serving the node when the run ended (for a rejected
    /// node: the AP that turned it away).
    pub ap: ApId,
    /// Packets transmitted.
    pub sent: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Mean SINR over transmissions, dB (0.0 if none).
    pub mean_sinr_db: f64,
    /// Worst observed SINR, dB (0.0 if none).
    pub min_sinr_db: f64,
    /// Packet error rate.
    pub per: f64,
    /// Application goodput, bit/s.
    pub goodput_bps: f64,
    /// Completed handoffs.
    pub handoffs: u64,
    /// The (global channel, harmonic) slot at run end.
    pub slot: SdmSlot,
}

/// Aggregate outcome of a multi-AP run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiApReport {
    /// Per-node reports, in node order.
    pub nodes: Vec<MultiApNodeReport>,
    /// Nodes admitted per AP at setup (initial association).
    pub per_ap_admitted: Vec<usize>,
    /// Aggregate frequency reuse achieved by the coordinator.
    pub reuse_gain: f64,
    /// Colors the coverage conflict graph needed.
    pub num_colors: usize,
    /// Size of the global channel grid.
    pub capacity: usize,
    /// Simulated duration.
    pub duration: Seconds,
    /// Per-packet trace (empty unless `record_trace`).
    pub trace: Vec<MultiApPacketSample>,
    /// Roaming/coordination counters.
    pub handoff: HandoffReport,
}

impl MultiApReport {
    /// Mean of the per-node mean SINRs, dB.
    pub fn mean_sinr_db(&self) -> f64 {
        if self.nodes.is_empty() {
            return f64::NAN;
        }
        self.nodes.iter().map(|n| n.mean_sinr_db).sum::<f64>() / self.nodes.len() as f64
    }

    /// Aggregate delivery rate (delivered / sent).
    pub fn delivery_rate(&self) -> f64 {
        let sent: u64 = self.nodes.iter().map(|n| n.sent).sum();
        let del: u64 = self.nodes.iter().map(|n| n.delivered).sum();
        if sent == 0 {
            return 0.0;
        }
        del as f64 / sent as f64
    }

    /// Total application goodput, bit/s.
    pub fn total_goodput_bps(&self) -> f64 {
        self.nodes.iter().map(|n| n.goodput_bps).sum()
    }

    /// Nodes whose delivery rate meets `threshold` (the sweep's
    /// "sustained" criterion).
    pub fn sustained(&self, threshold: f64) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.sent > 0 && n.delivered as f64 / n.sent as f64 >= threshold)
            .count()
    }
}

/// The roaming control plane: per-AP admission, the inter-AP arbiter
/// and the node links, with everything it accounts.
struct Roaming<'a> {
    sim: &'a MultiApSim,
    plan: &'a RunPlan<'a>,
    table: Vec<ChannelAssignment>,
    reuse: HarmonicReusePlan,
    idx_of: BTreeMap<NodeId, usize>,
    admitted: Vec<bool>,
    adm: Vec<Admission>,
    arb: SlotArbiter,
    links: Vec<NodeLink>,
    better_run: Vec<u32>,
    /// Slot reserved at the target AP while its grant is in flight.
    pending: BTreeMap<usize, (ApId, SdmSlot)>,
    handoff_took: Vec<f64>,
    ho: HandoffReport,
    trace: Vec<MultiApPacketSample>,
}

impl Fabric {
    /// Sends node `i`'s `Transfer` as try number `attempt` over the
    /// backhaul and arms its retransmit timer, counting the send (and
    /// any loss) into `ho`.
    fn send_transfer(
        &mut self,
        now: Seconds,
        i: usize,
        msg: ApMsg,
        attempt: u32,
        ho: &mut HandoffReport,
        rec: &mut Recorder,
    ) {
        ho.transfers_sent += 1;
        if !self.send(now, Event::Arbit(msg), rec) {
            ho.transfers_lost += 1;
        }
        let at = now + self.backoff.delay(attempt, self.inj.jitter());
        let retry = Event::RetryTransfer { node: i, attempt };
        self.q
            .schedule_at(at, retry)
            .expect("backoff delay is positive");
    }
}

/// Emits a `handoff` trace event: step `what` of node `id`'s move, with
/// the AP it concerns.
fn note_handoff(rec: &mut Recorder, t: Seconds, id: NodeId, what: &'static str, ap: ApId) {
    rec.event(t.value(), "handoff", id as i64, what, "", ap.index() as f64);
}

/// Emits an `fsm` trace event for node `id`'s `[from, to]` walk at grant
/// epoch `epoch`.
fn note_fsm(rec: &mut Recorder, t: Seconds, id: NodeId, walk: [&'static str; 2], epoch: u64) {
    rec.event(t.value(), "fsm", id as i64, walk[0], walk[1], epoch as f64);
}

/// The multi-AP network simulator.
pub struct MultiApSim {
    room: Room,
    aps: Vec<ApStation>,
    nodes: Vec<NodeStation>,
    cfg: MultiApConfig,
}

impl MultiApSim {
    /// Creates a simulator.
    pub fn new(room: Room, cfg: MultiApConfig) -> Self {
        MultiApSim {
            room,
            aps: Vec::new(),
            nodes: Vec::new(),
            cfg,
        }
    }

    /// Adds an AP. Deployment ids are positional: the k-th AP added is
    /// re-tagged `ApId(k)` regardless of any id on the station, so
    /// `ApId::index` always addresses the engine's arrays.
    pub fn add_ap(&mut self, ap: ApStation) -> &mut Self {
        let id = ApId(self.aps.len() as u16);
        self.aps.push(ap.with_id(id));
        self
    }

    /// Adds a node.
    pub fn add_node(&mut self, node: NodeStation) -> &mut Self {
        self.nodes.push(node);
        self
    }

    /// Number of APs.
    pub fn ap_count(&self) -> usize {
        self.aps.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configuration.
    pub fn config(&self) -> &MultiApConfig {
        &self.cfg
    }

    /// Mutable configuration.
    pub fn config_mut(&mut self) -> &mut MultiApConfig {
        &mut self.cfg
    }

    /// Runs the simulation.
    pub fn run(&self) -> Result<MultiApReport, MultiApError> {
        self.run_observed(&mut Recorder::disabled())
    }

    /// [`MultiApSim::run`] with observability: `fsm`, `handoff` and
    /// `apmsg` trace events plus coordination counters flow into `rec`.
    /// Nothing about the run depends on the recorder, so the trace is a
    /// pure function of the scenario.
    pub fn run_observed(&self, rec: &mut Recorder) -> Result<MultiApReport, MultiApError> {
        // ---- validation ----
        if self.aps.is_empty() {
            return Err(MultiApError::NoAps);
        }
        if self.nodes.is_empty() {
            return Err(MultiApError::Empty);
        }
        let idx_of = net::index_nodes(&self.nodes).map_err(MultiApError::DuplicateNode)?;
        for ap in &self.aps {
            if ap.tma().is_none() {
                return Err(MultiApError::NeedsTma(ap.id()));
            }
        }
        let na = self.aps.len();
        let nn = self.nodes.len();

        // ---- spectrum coordination ----
        let capacity = self.cfg.plan.capacity(self.cfg.sdm_channel_width).max(1);
        let table: Vec<ChannelAssignment> = self.cfg.plan.channel_table(self.cfg.sdm_channel_width);
        debug_assert!(self.cfg.plan.validate_channels(&table).is_ok());
        let (half_angle, range) = (self.cfg.coverage_half_angle, self.cfg.coverage_range_m);
        let coverage: Vec<ApCoverage> = (self.aps.iter())
            .map(|ap| ApCoverage::new(ap.pose, half_angle, range))
            .collect();
        let reuse = HarmonicReusePlan::new(&coverage, capacity).map_err(MultiApError::Plan)?;
        let bandwidth = self.cfg.sdm_channel_width;
        let rate = self.cfg.plan.rate_for(bandwidth);
        let rates: Vec<BitRate> = self.nodes.iter().map(|n| n.demand.min(rate)).collect();

        // ---- geometry tables (frozen for the run) ----
        let aoa_at = |ap| self.nodes.iter().map(|n| net::aoa(ap, n)).collect();
        let aoa: Vec<Vec<Degrees>> = self.aps.iter().map(aoa_at).collect();
        let tma = |a: usize| self.aps[a].tma().expect("validated above");
        // Per-AP harmonic the TMA would hash each node into: the only
        // rows SINR ever reads (slots are scheduled onto these too).
        let cand_harmonic: Vec<Vec<i32>> =
            (0..na).map(|a| tma(a).assign_harmonics(&aoa[a])).collect();
        // ---- mobility, and every link traced once ----
        let pacer = self
            .cfg
            .pacer
            .map(|r| LinearWalker::new(r.from, r.to, r.speed_mps));
        let mobility = Mobility::new(&self.room, self.cfg.walkers, pacer, self.cfg.seed);
        let link = Link {
            room: &self.room,
            path_loss_exponent: self.cfg.path_loss_exponent,
            second_order: false,
            implementation_loss: self.cfg.implementation_loss,
        };
        let channels = link.plan(&self.aps, &self.nodes, !mobility.still());
        let plan = RunPlan {
            link,
            channels,
            aps: &self.aps,
            nodes: &self.nodes,
            duration: self.cfg.duration,
            step: self.cfg.step,
            gains: (0..na)
                .map(|a| GainTable::exact(tma(a), &aoa[a], &cand_harmonic[a]))
                .collect(),
            noise: (0..na)
                .map(|a| thermal_noise_dbm(bandwidth, self.aps[a].noise_figure()))
                .collect(),
            proc_gain: rates
                .iter()
                .map(|&r| net::proc_gain(bandwidth, r))
                .collect(),
            backoff: vec![Db::ZERO; nn],
            in_cone: (0..na)
                .map(|a| {
                    (0..nn)
                        .map(|i| coverage[a].contains(self.nodes[i].pose.position))
                        .collect()
                })
                .collect(),
            cand_harmonic,
        };

        // ---- initial channel state ----
        let blockers = mobility.blockers();
        let arrival = |k: usize| {
            let node = &self.nodes[k % nn];
            (plan.link)
                .arrival(node, &plan.channels, k, &blockers, None)
                .0
        };
        let mut rx: Vec<Vec<DbmPower>> = (0..na)
            .map(|a| (a * nn..(a + 1) * nn).map(arrival).collect())
            .collect();

        // ---- initial association: in-cone first, then arrival power,
        // ties to the lower AP id (the last maximum of the reversed
        // order) ----
        let serving: Vec<ApId> = (0..nn)
            .map(|i| {
                let key = |a: usize| (plan.in_cone[a][i], rx[a][i]);
                let best = (0..na)
                    .rev()
                    .max_by(|&a, &b| key(a).partial_cmp(&key(b)).expect("powers are ordered"))
                    .expect("validated: at least one AP");
                ApId(best as u16)
            })
            .collect();

        // ---- TMA admission control and per-AP SDM schedules over each
        // AP's channel share. Rejected nodes stay silent — no grant, no
        // packets, zero arrival power. ----
        let mut admitted = vec![true; nn];
        let mut slots = vec![SdmSlot::UNSCHEDULED; nn];
        let per_ap_admitted = (0..na)
            .map(|a| {
                let members = (0..nn).filter(|&i| serving[i].index() == a);
                let (harmonic, chs) = (&plan.cand_harmonic[a], reuse.channels_of(ApId(a as u16)));
                net::admit(harmonic, members, chs, &mut admitted, &mut slots)
            })
            .collect::<Result<Vec<usize>, _>>()
            .map_err(MultiApError::Sdm)?;
        for i in (0..nn).filter(|&i| !admitted[i]) {
            rx.iter_mut()
                .for_each(|rx_a| rx_a[i] = DbmPower::ZERO_POWER);
        }

        // ---- control plane setup: per-AP admission, arbiter claims,
        // node links granted ----
        let wide = net::admission_plan(&self.cfg.plan, &self.nodes);
        let mut adm: Vec<Admission> = (0..na).map(|_| Admission::new(wide.clone())).collect();
        let mut arb = SlotArbiter::new();
        let mut links: Vec<NodeLink> = Vec::with_capacity(nn);
        rec.event(0.0, "run", -1, "begin", "multi_ap", nn as f64);
        for i in 0..nn {
            let id = self.nodes[i].id;
            let a = serving[i].index();
            let mut link = NodeLink::new();
            link.set_serving(serving[i]);
            if !admitted[i] {
                // Rejected at admission: the link stays Idle, tagged
                // with the AP that turned it away.
                links.push(link);
                rec.event(0.0, "assoc", id as i64, "rejected", "", a as f64);
                continue;
            }
            adm[a]
                .join(id, self.nodes[i].demand)
                .map_err(MultiApError::Admission)?;
            let verdict = arb.handle(&ApMsg::Claim {
                ap: serving[i],
                node: id,
                epoch: 0,
            });
            let ArbiterVerdict::Granted { epoch } = verdict else {
                unreachable!("setup claims are in node order over fresh state");
            };
            link.start_join(Seconds::ZERO);
            let center = table[slots[i].channel].center.hz();
            link.on_grant(epoch, center, Seconds::ZERO);
            // Initial SINR through the engine's kernel (rejected nodes
            // are silent, so they add nothing).
            if rec.is_enabled() {
                let row = plan.gains[a].row(slots[i].harmonic);
                let s0 = net::sinr(row, plan.noise[a], i, &slots, |j| rx[a][j]);
                rec.event(0.0, "assoc", id as i64, "granted", "", s0.value());
            }
            links.push(link);
        }

        // ---- the event loop: one `Step`, then the admitted nodes'
        // first packets in node order ----
        let faults = self
            .cfg
            .inter_ap_faults
            .clone()
            .unwrap_or_else(FaultConfig::none);
        let mut fab = Fabric::new(faults, self.cfg.seed);
        let q = &mut fab.q;
        q.schedule_at(Seconds::ZERO + self.cfg.step, Event::Step)
            .expect("first step is ahead of t = 0");
        for (i, n) in self.nodes.iter().enumerate().filter(|&(i, _)| admitted[i]) {
            let offset = n.packet_interval() * (i as f64 / nn as f64);
            q.schedule_at(offset, Event::Packet(i))
                .expect("first packet is ahead of t = 0");
        }
        let live = Live {
            blockers,
            rx,
            slots,
            serving,
            extra_loss: Db::ZERO,
        };
        let mut st = State::new(fab, live, mobility, self.cfg.seed, self.cfg.fading);
        let mut roaming = Roaming {
            sim: self,
            plan: &plan,
            table,
            reuse,
            idx_of,
            admitted,
            adm,
            arb,
            links,
            better_run: vec![0; nn],
            pending: BTreeMap::new(),
            handoff_took: Vec::new(),
            ho: HandoffReport::default(),
            trace: Vec::new(),
        };
        net::run(&plan, &mut st, &mut roaming, rec);

        // ---- wrap up ----
        let (links, handoff_took, mut ho) = (&roaming.links, &roaming.handoff_took, roaming.ho);
        ho.stale_transfer_msgs = roaming.arb.stale_discarded();
        ho.stale_grants_discarded = links.iter().map(|l| l.stale_discarded()).sum();
        if !handoff_took.is_empty() {
            ho.mean_handoff_s = handoff_took.iter().sum::<f64>() / handoff_took.len() as f64;
            ho.max_handoff_s = handoff_took.iter().cloned().fold(0.0, f64::max);
        }
        rec.add("handoff_attempts", "", ho.attempts);
        rec.add("handoff_completed", "", ho.completed);
        rec.add("handoff_aborted", "", ho.aborted);
        rec.add("apmsg_stale", "", ho.stale_transfer_msgs);
        rec.event(self.cfg.duration.value(), "run", -1, "end", "multi_ap", 0.0);
        let stats = &st.stats;
        let nodes = (0..nn)
            .map(|i| MultiApNodeReport {
                id: self.nodes[i].id,
                admitted: roaming.admitted[i],
                ap: links[i].serving(),
                sent: stats[i].sent,
                delivered: stats[i].delivered,
                mean_sinr_db: stats[i].mean_sinr(0.0),
                min_sinr_db: stats[i].min_sinr(0.0),
                per: stats[i].per(),
                goodput_bps: stats[i].goodput_bps(&self.nodes[i], self.cfg.duration),
                handoffs: links[i].handoffs(),
                slot: st.live.slots[i],
            })
            .collect();
        Ok(MultiApReport {
            nodes,
            per_ap_admitted,
            reuse_gain: roaming.reuse.reuse_gain(),
            num_colors: roaming.reuse.num_colors(),
            capacity,
            duration: self.cfg.duration,
            trace: roaming.trace,
            handoff: ho,
        })
    }
}

impl Plane for Roaming<'_> {
    fn classify(&self, _: Seconds, _: usize) -> Planned {
        Planned::Tx { fsk: false }
    }

    fn on_silent(&mut self, _: Seconds, _: usize, _: Planned, _: &mut State) {
        unreachable!("multi-AP nodes are always active")
    }

    fn on_event(&mut self, t: Seconds, ev: Event, st: &mut State, rec: &mut Recorder) {
        let (cfg, nodes, ho) = (&self.sim.cfg, &self.sim.nodes, &mut self.ho);
        let links = &mut self.links;
        match ev {
            Event::Arbit(msg) => {
                let verdict = self.arb.handle(&msg);
                let (kind, vstr) = (
                    match msg {
                        ApMsg::Claim { .. } => "claim",
                        ApMsg::Release { .. } => "release",
                        ApMsg::Transfer { .. } => "transfer",
                    },
                    match verdict {
                        ArbiterVerdict::Granted { .. } => "granted",
                        ArbiterVerdict::Denied { .. } => "denied",
                        ArbiterVerdict::Stale => "stale",
                    },
                );
                let (node, epoch) = (msg.node() as i64, msg.epoch() as f64);
                rec.event(t.value(), "apmsg", node, kind, vstr, epoch);
                let ApMsg::Transfer { from, to, node, .. } = msg else {
                    return;
                };
                let i = self.idx_of[&node];
                match verdict {
                    ArbiterVerdict::Granted { epoch } => {
                        // Move the admission record and reserve a slot
                        // at the target.
                        self.adm[from.index()].leave(node);
                        let joined = self.adm[to.index()].join(node, nodes[i].demand).is_ok();
                        // First target channel free of a (channel,
                        // harmonic) collision among members and
                        // in-flight reservations.
                        let h = self.plan.cand_harmonic[to.index()][i];
                        let (live, pending) = (&st.live, &self.pending);
                        let at_to = |j: usize| {
                            live.serving[j] == to
                                || pending.get(&j).is_some_and(|&(ap, _)| ap == to)
                        };
                        let taken = |slot: SdmSlot| {
                            (0..nodes.len()).any(|j| {
                                j != i && self.admitted[j] && at_to(j) && live.slots[j] == slot
                            })
                        };
                        let free = (self.reuse.channels_of(to).iter())
                            .map(|&channel| SdmSlot {
                                channel,
                                harmonic: h,
                            })
                            .find(|&slot| joined && !taken(slot));
                        match free {
                            Some(slot) => {
                                self.pending.insert(i, (to, slot));
                                let ev = Event::TransferGrant {
                                    node: i,
                                    to,
                                    epoch,
                                    slot,
                                };
                                // A lost grant is resynced by the retry
                                // path.
                                st.fab.send(t, ev, rec);
                            }
                            None => {
                                // No room at the target: hand ownership
                                // back.
                                if joined {
                                    self.adm[to.index()].leave(node);
                                }
                                self.adm[from.index()].join(node, nodes[i].demand).ok();
                                self.arb.handle(&ApMsg::Claim {
                                    ap: from,
                                    node,
                                    epoch,
                                });
                                ho.denied += 1;
                                note_handoff(rec, t, node, "denied", to);
                            }
                        }
                    }
                    ArbiterVerdict::Denied { .. } => ho.denied += 1,
                    ArbiterVerdict::Stale => {
                        // A retried transfer for a move that already
                        // applied is the node telling us its grant never
                        // arrived: re-deliver it.
                        if let (Some((owner, ep)), Some(&(pto, slot))) =
                            (self.arb.owner_of(node), self.pending.get(&i))
                        {
                            if owner == to && pto == to {
                                let ev = Event::TransferGrant {
                                    node: i,
                                    to,
                                    epoch: ep,
                                    slot,
                                };
                                st.fab.send(t, ev, rec);
                            }
                        }
                    }
                }
            }
            Event::TransferGrant {
                node: i,
                to,
                epoch,
                slot,
            } => {
                let id = nodes[i].id;
                let center = self.table[slot.channel].center.hz();
                let old = links[i].state();
                let (action, took) = links[i].on_transfer_grant(epoch, center, to, t);
                if action == LinkAction::AckGrant {
                    // The break: retune and switch.
                    let live = &mut st.live;
                    live.slots[i] = slot;
                    live.serving[i] = to;
                    self.pending.remove(&i);
                    self.better_run[i] = 0;
                    ho.completed += 1;
                    if let Some(d) = took {
                        self.handoff_took.push(d.value());
                    }
                    let new = state_name(links[i].state());
                    note_fsm(rec, t, id, [state_name(old), new], epoch);
                    note_handoff(rec, t, id, "commit", to);
                }
            }
            Event::RetryTransfer { node: i, attempt } => {
                let id = nodes[i].id;
                let LinkState::Handoff { from, to } = links[i].state() else {
                    return; // already resolved
                };
                if attempt != links[i].attempt() {
                    return; // superseded timer
                }
                if attempt >= cfg.max_transfer_retries {
                    match self.arb.owner_of(id) {
                        Some((owner, ep)) if owner == to => {
                            // Ownership moved but every grant copy was
                            // lost: the coordinator re-delivers over the
                            // reliable backhaul, one hop (half an RTT)
                            // later.
                            ho.grant_resyncs += 1;
                            let (_, slot) =
                                self.pending.get(&i).copied().expect("reserved at apply");
                            let ev = Event::TransferGrant {
                                node: i,
                                to,
                                epoch: ep,
                                slot,
                            };
                            st.fab
                                .q
                                .schedule_at(t + CONTROL_RTT * 0.5, ev)
                                .expect("resync is ahead of now");
                            note_handoff(rec, t, id, "resync", to);
                        }
                        _ => {
                            // Ownership never moved: give up and stay
                            // home.
                            links[i].abort_handoff();
                            ho.aborted += 1;
                            let epoch = links[i].epoch_seen();
                            note_fsm(rec, t, id, ["Handoff", "Granted"], epoch);
                            note_handoff(rec, t, id, "abort", from);
                        }
                    }
                } else if links[i].retry_transfer(attempt) == LinkAction::SendTransfer {
                    ho.transfer_retries += 1;
                    let epoch = links[i].epoch_seen();
                    let msg = ApMsg::Transfer {
                        from,
                        to,
                        node: id,
                        epoch,
                    };
                    st.fab.send_transfer(t, i, msg, attempt + 1, ho, rec);
                }
            }
            _ => unreachable!("not a roaming control event"),
        }
    }

    fn on_packet(&mut self, t: Seconds, g: &mut Gather, st: &mut State, rec: &mut Recorder) {
        let ok = g.ok;
        let (cfg, i) = (&self.sim.cfg, g.i);
        let (id, link) = (self.sim.nodes[i].id, &mut self.links[i]);
        let serving = st.live.serving[i];
        // Delivery crediting: the serving AP holds the node's current
        // grant and is the only forwarder; a mid-handoff target forwards
        // only once the node has accepted its grant — at which point it
        // *is* the serving AP. Count credits honestly and flag any
        // double.
        let mut credits = ok as u32;
        if let LinkState::Handoff { to, .. } = link.state() {
            if let Some(&(_, s)) = g.alt.iter().find(|&&(b, _)| ApId(b) == to) {
                let cand_decodes = Db::new(s) + self.plan.proc_gain[i] >= cfg.decode_threshold;
                if ok && cand_decodes {
                    self.ho.dual_decodes += 1;
                    if link.serving() == to {
                        credits += 1;
                    }
                }
            }
        }
        if credits > 1 {
            self.ho.duplicate_deliveries += 1;
        }
        if cfg.record_trace {
            self.trace.push(MultiApPacketSample {
                t,
                node: i,
                ap: serving,
                sinr_db: g.sinr.value(),
                delivered: ok,
            });
        }
        // Roaming hysteresis: only a cleanly granted node arms a
        // handoff.
        if !matches!(link.state(), LinkState::Granted) {
            return;
        }
        let best = g
            .alt
            .iter()
            .copied()
            .fold(None, |acc: Option<(u16, f64)>, (b, s)| match acc {
                Some((_, bs)) if bs >= s => acc,
                _ => Some((b, s)),
            });
        match best {
            Some((b, s)) if s > g.sinr.value() + cfg.handoff_hysteresis.value() => {
                self.better_run[i] += 1;
                if self.better_run[i] >= cfg.handoff_window {
                    let to = ApId(b);
                    if link.begin_handoff(to, t) == LinkAction::SendTransfer {
                        self.better_run[i] = 0;
                        self.ho.attempts += 1;
                        let epoch = link.epoch_seen();
                        note_fsm(rec, t, id, ["Granted", "Handoff"], epoch);
                        note_handoff(rec, t, id, "begin", to);
                        let msg = ApMsg::Transfer {
                            from: serving,
                            to,
                            node: id,
                            epoch,
                        };
                        st.fab.send_transfer(t, i, msg, 0, &mut self.ho, rec);
                    }
                }
            }
            _ => self.better_run[i] = 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_channel::response::Pose;

    fn room() -> Room {
        Room::rectangular(8.0, 4.0, mmx_channel::room::Material::Drywall)
    }

    fn ap_at(x: f64, y: f64) -> ApStation {
        ApStation::with_tma(
            Pose::new(Vec2::new(x, y), Degrees::new(270.0)),
            8,
            Hertz::from_mhz(1.0),
        )
    }

    fn node_at(id: NodeId, x: f64, y: f64) -> NodeStation {
        NodeStation::hd_camera(id, Pose::new(Vec2::new(x, y), Degrees::new(90.0)))
    }

    fn two_ap_sim(duration: Seconds) -> MultiApSim {
        let mut cfg = MultiApConfig::standard();
        cfg.duration = duration;
        cfg.coverage_half_angle = Degrees::new(60.0);
        cfg.coverage_range_m = 7.0;
        let mut sim = MultiApSim::new(room(), cfg);
        sim.add_ap(ap_at(1.0, 3.7)).add_ap(ap_at(7.0, 3.7));
        sim.add_node(node_at(0, 1.2, 1.5))
            .add_node(node_at(1, 0.8, 2.0))
            .add_node(node_at(2, 7.2, 1.5))
            .add_node(node_at(3, 6.8, 2.0));
        sim
    }

    #[test]
    fn two_aps_serve_their_own_nodes() {
        let sim = two_ap_sim(Seconds::from_millis(200.0));
        let rep = sim.run().expect("runs");
        assert_eq!(rep.per_ap_admitted, vec![2, 2]);
        assert_eq!(rep.nodes[0].ap, ApId(0));
        assert_eq!(rep.nodes[2].ap, ApId(1));
        for n in &rep.nodes {
            assert!(n.sent > 0, "node {} never transmitted", n.id);
            assert!(n.delivered > 0, "node {} never delivered", n.id);
        }
        assert_eq!(rep.handoff.duplicate_deliveries, 0);
    }

    #[test]
    fn single_ap_degenerates_to_one_cell() {
        let mut cfg = MultiApConfig::standard();
        cfg.duration = Seconds::from_millis(100.0);
        let mut sim = MultiApSim::new(room(), cfg);
        sim.add_ap(ap_at(4.0, 3.7));
        sim.add_node(node_at(0, 3.0, 1.0))
            .add_node(node_at(1, 5.0, 1.0));
        let rep = sim.run().expect("runs");
        assert_eq!(rep.num_colors, 1);
        assert_eq!(rep.per_ap_admitted, vec![2]);
        assert!(rep.handoff.attempts == 0, "nowhere to roam");
    }

    #[test]
    fn setup_errors_are_typed() {
        let cfg = MultiApConfig::standard();
        let mut sim = MultiApSim::new(room(), cfg.clone());
        assert_eq!(sim.run().unwrap_err(), MultiApError::NoAps);
        sim.add_ap(ap_at(4.0, 3.7));
        assert_eq!(sim.run().unwrap_err(), MultiApError::Empty);

        let mut dip = MultiApSim::new(room(), cfg);
        dip.add_ap(ApStation::dipole(Pose::new(
            Vec2::new(4.0, 3.7),
            Degrees::new(270.0),
        )));
        dip.add_node(node_at(0, 3.0, 1.0));
        assert_eq!(dip.run().unwrap_err(), MultiApError::NeedsTma(ApId(0)));
    }

    #[test]
    fn duplicate_node_ids_are_rejected() {
        let mut sim = MultiApSim::new(room(), MultiApConfig::standard());
        sim.add_ap(ap_at(4.0, 3.7));
        sim.add_node(node_at(3, 3.0, 1.0))
            .add_node(node_at(3, 5.0, 1.0));
        assert_eq!(sim.run().unwrap_err(), MultiApError::DuplicateNode(3));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let sim = two_ap_sim(Seconds::from_millis(200.0));
        let a = sim.run().expect("runs");
        let b = sim.run().expect("runs");
        assert_eq!(a, b);
    }

    #[test]
    fn reports_and_traces_identical_at_1_and_nproc_batch_workers() {
        // Two seeds through the shared across-sim fan-out: the worker
        // count must not reach into any run's report or trace.
        let batch = |workers: usize| {
            crate::pool::run_indexed(2, workers, |k| {
                let mut sim = two_ap_sim(Seconds::from_millis(300.0));
                let cfg = sim.config_mut();
                cfg.seed = 1 + k as u64;
                cfg.record_trace = true;
                cfg.walkers = 2;
                cfg.fading = Some(FadingConfig::indoor());
                let mut rec = Recorder::enabled();
                let report = sim.run_observed(&mut rec).expect("runs");
                (report, rec.trace_jsonl())
            })
        };
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let serial = batch(1);
        assert_ne!(serial[0], serial[1], "the two seeds must differ");
        assert_eq!(serial, batch(nproc.max(2)));
    }

    /// A scripted blocker cuts the serving ray: the node must roam to
    /// the other AP, transfer the grant exactly once per move, and
    /// never get double-credited.
    fn handoff_sim(faults: Option<FaultConfig>) -> MultiApSim {
        let mut cfg = MultiApConfig::standard();
        cfg.duration = Seconds::new(3.0);
        cfg.coverage_half_angle = Degrees::new(60.0);
        cfg.coverage_range_m = 7.0;
        cfg.handoff_hysteresis = Db::new(4.0);
        cfg.step = Seconds::from_millis(50.0);
        cfg.pacer = Some(PacerRoute {
            from: Vec2::new(2.5, 0.8),
            to: Vec2::new(2.5, 3.5),
            speed_mps: 0.9,
        });
        cfg.inter_ap_faults = faults;
        let mut sim = MultiApSim::new(room(), cfg);
        sim.add_ap(ap_at(1.0, 3.7)).add_ap(ap_at(7.0, 3.7));
        sim.add_node(node_at(0, 3.9, 1.0));
        sim
    }

    #[test]
    fn blockage_triggers_a_clean_handoff() {
        let sim = handoff_sim(None);
        let rep = sim.run().expect("runs");
        assert!(
            rep.handoff.completed >= 1,
            "no handoff completed: {:?}",
            rep.handoff
        );
        assert_eq!(rep.handoff.duplicate_deliveries, 0);
        assert!(rep.nodes[0].handoffs >= 1);
        assert!(rep.handoff.mean_handoff_s > 0.0);
        assert!(rep.handoff.mean_handoff_s <= rep.handoff.max_handoff_s);
    }

    #[test]
    fn handoff_survives_a_lossy_backhaul() {
        let faults = FaultConfig::lossy(0.3);
        let sim = handoff_sim(Some(faults));
        let rep = sim.run().expect("runs");
        // Loss forces retries (or outright aborts); epochs keep it safe.
        assert!(rep.handoff.attempts >= 1);
        assert!(
            rep.handoff.completed + rep.handoff.aborted >= 1,
            "every armed handoff resolves: {:?}",
            rep.handoff
        );
        assert_eq!(rep.handoff.duplicate_deliveries, 0);
    }

    #[test]
    fn handoff_trace_shows_the_fsm_walk() {
        let sim = handoff_sim(None);
        let mut rec = Recorder::enabled();
        let rep = sim.run_observed(&mut rec).expect("runs");
        assert!(rep.handoff.completed >= 1);
        let jsonl = rec.trace_jsonl();
        assert!(jsonl.contains("\"Handoff\""), "fsm events missing");
        assert!(jsonl.contains("\"handoff\""), "handoff events missing");
        assert!(jsonl.contains("\"apmsg\""), "apmsg events missing");
    }
}
