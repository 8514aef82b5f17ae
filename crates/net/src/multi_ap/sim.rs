//! The multi-AP network simulator: N APs sharing the 24 GHz ISM band,
//! hundreds of nodes, cross-AP SDM slot arbitration and roaming.
//!
//! Architecture (DESIGN.md §10):
//!
//! * **Spectrum**: one global equal-width channel grid
//!   ([`crate::fdm::BandPlan::channel_table`]) partitioned by a
//!   [`HarmonicReusePlan`] — co-channel reuse only between APs whose
//!   coverage cones do not overlap.
//! * **Per-AP stack**: every AP runs its own [`SdmScheduler`] over its
//!   TMA and its own [`Admission`] bookkeeping; the inter-AP
//!   [`SlotArbiter`] owns the (node → AP, epoch) map.
//! * **Roaming**: per-packet SINR-margin hysteresis arms a
//!   make-before-break handoff
//!   ([`crate::link::NodeLink::begin_handoff`]); the `Transfer` and the
//!   returning grant both cross a lossy inter-AP/control link through
//!   the same [`FaultInjector`] machinery as the single-AP control
//!   plane, with retransmit backoff and monotonic epochs discarding
//!   stale grants.
//! * **Determinism**: the §9 gather→commit event loop — packet gathers
//!   (A ray traces each) fan out across worker threads against a frozen
//!   batch snapshot; all protocol and bookkeeping mutations happen in
//!   the single-threaded commit phase in drained event order. Reports,
//!   traces and recovery counters are byte-identical at any
//!   [`MultiApConfig::threads`].
//!
//! The physics is the single-AP engine's, run once per AP through the
//! same private core: mobility, batch drain, gather context, link
//! function, H×N gain tables and the one SINR kernel (which also
//! computes the traced `assoc` SINR). Deliberate simplifications: no
//! power control, rate adaptation, churn/crash injection, second-order
//! reflections or energy metering; nodes are always active; fading is
//! stepped on the serving-AP channel only. Candidate-AP SINR uses the
//! node's *current* channel as a proxy for the slot the target AP will
//! assign when the arbiter applies the move.

use crate::ap::{ApId, ApStation};
use crate::control::{Admission, NodeId, CONTROL_RTT};
use crate::event::EventQueue;
use crate::faults::{FaultConfig, FaultInjector};
use crate::fdm::{AllocError, BandPlan, ChannelAssignment};
use crate::link::{Backoff, LinkAction, LinkState, NodeLink};
use crate::multi_ap::plan::{ApCoverage, HarmonicReusePlan, ReusePlanError};
use crate::multi_ap::proto::{ApMsg, ArbiterVerdict, SlotArbiter};
use crate::net::{self, GainTable, Link, Mobility, NodeCtx, NodeStats, PacketEvent};
use crate::node::NodeStation;
use crate::pool;
use crate::sdm::{SdmError, SdmScheduler, SdmSlot};
use crate::sim::{state_name, FadingConfig};
use mmx_channel::blockage::HumanBlocker;
use mmx_channel::mobility::LinearWalker;
use mmx_channel::room::Room;
use mmx_channel::Vec2;
use mmx_obs::Recorder;
use mmx_phy::ber::joint_ber;
use mmx_units::{thermal_noise_dbm, BitRate, Db, DbmPower, Degrees, Hertz, Seconds};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One-way latency of a control/backhaul hop (half the end-to-end
/// control RTT the single-AP plane budgets).
const HOP: f64 = 0.5;

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
    /// Worker threads for the gather phase (`0` = auto, same convention
    /// as [`crate::sim::SimConfig::threads`]). Any value produces
    /// byte-identical reports and traces.
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

/// Events of the multi-AP engine. `Packet`s batch; everything else ends
/// a batch, exactly like the single-AP faulted engine, so protocol
/// mutations never race a gather snapshot.
#[derive(Debug, Clone, Copy)]
enum MEvent {
    /// Mobility step: walkers and the pacer move, blockers rebuild.
    Step,
    /// Node `i` transmits one packet.
    Packet(usize),
    /// An inter-AP message reaches the coordinator.
    Arbit(ApMsg),
    /// A (transfer) grant reaches node `node`.
    TransferGrant {
        node: usize,
        to: ApId,
        epoch: u64,
        slot: SdmSlot,
    },
    /// A transfer retransmit timer fires.
    RetryTransfer { node: usize, attempt: u32 },
}

impl PacketEvent for MEvent {
    fn packet(&self) -> Option<usize> {
        match self {
            MEvent::Packet(i) => Some(*i),
            _ => None,
        }
    }
}

/// Per-run tables frozen before the event loop starts.
struct MPlan {
    /// Per-AP exact TMA gain tables.
    gains: Vec<GainTable>,
    /// Per-AP thermal noise in one grid channel.
    noise_at: Vec<DbmPower>,
    /// `cand_harmonic[a][i]`: the harmonic AP `a`'s TMA hashes node `i`
    /// into.
    cand_harmonic: Vec<Vec<i32>>,
    /// `in_cone[a][i]`: node `i` sits in AP `a`'s coverage cone.
    in_cone: Vec<Vec<bool>>,
    /// Per-node processing gain of the granted rate.
    proc_gain: Vec<Db>,
}

/// Frozen per-batch snapshot the gather tasks read.
struct MShared {
    blockers: Arc<Vec<HumanBlocker>>,
    /// rx[a][j]: arrival power of node j at AP a (silent nodes carry
    /// zero power).
    rx: Vec<Vec<DbmPower>>,
    slots: Vec<SdmSlot>,
    serving: Vec<ApId>,
}

struct MTask {
    i: usize,
    ctx: NodeCtx,
    shared: Arc<MShared>,
}

/// The pure result of one gather task.
struct MGather {
    i: usize,
    ctx: NodeCtx,
    /// Fresh arrival power at every AP (fading applied on the serving
    /// one).
    pwr_at: Vec<DbmPower>,
    sinr: Db,
    per: f64,
    draw: f64,
    /// Candidate SINR at each in-cone non-serving AP: (ap index, dB).
    alt: Vec<(u16, f64)>,
}

/// The (possibly lossy) inter-AP/control backhaul: the event queue and
/// the injector that decides each message's fate.
struct Backhaul {
    q: EventQueue<MEvent>,
    inj: FaultInjector,
    backoff: Backoff,
}

impl Backhaul {
    /// Offers one inter-AP event: decides its fate, schedules delivery
    /// after the one-way hop latency, and schedules the duplicate copy
    /// slightly later when the injector says so — the same send
    /// discipline as the single-AP control fabric. False when lost.
    fn offer(&mut self, now: Seconds, ev: MEvent) -> bool {
        let fate = self.inj.control_fate();
        if fate.lost {
            return false;
        }
        let at = now + CONTROL_RTT * HOP + fate.extra_delay;
        self.q
            .schedule_at(at, ev)
            .expect("backhaul delivery is ahead of now");
        if fate.duplicated {
            self.q
                .schedule_at(at + CONTROL_RTT * 0.1, ev)
                .expect("duplicate lands after the original");
        }
        true
    }

    /// Sends node `i`'s `Transfer` as try number `attempt` and arms its
    /// retransmit timer, counting the send (and any loss) into `ho`.
    fn send_transfer(
        &mut self,
        now: Seconds,
        i: usize,
        msg: ApMsg,
        attempt: u32,
        ho: &mut HandoffReport,
    ) {
        ho.transfers_sent += 1;
        if !self.offer(now, MEvent::Arbit(msg)) {
            ho.transfers_lost += 1;
        }
        let at = now + self.backoff.delay(attempt, self.inj.jitter());
        let retry = MEvent::RetryTransfer { node: i, attempt };
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

/// Emits an `fsm` trace event for node `id` at grant epoch `epoch`.
fn note_fsm(
    rec: &mut Recorder,
    t: Seconds,
    id: NodeId,
    from: &'static str,
    to: &'static str,
    epoch: u64,
) {
    rec.event(t.value(), "fsm", id as i64, from, to, epoch as f64);
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

    /// The coverage cone of AP `a` under this configuration.
    fn coverage(&self, a: usize) -> ApCoverage {
        ApCoverage::new(
            self.aps[a].pose,
            self.cfg.coverage_half_angle,
            self.cfg.coverage_range_m,
        )
    }

    /// Angle of arrival of node `i`'s LoS at AP `a`, relative to that
    /// AP's facing.
    fn aoa_at(&self, a: usize, i: usize) -> Degrees {
        ((self.nodes[i].pose.position - self.aps[a].pose.position).bearing()
            - self.aps[a].pose.facing)
            .wrapped()
    }

    /// The run's propagation model (first-order reflections only).
    fn link(&self) -> Link<'_> {
        Link {
            room: &self.room,
            path_loss_exponent: self.cfg.path_loss_exponent,
            second_order: false,
            implementation_loss: self.cfg.implementation_loss,
        }
    }

    /// The gather phase for one packet: A ray traces, a fading step on
    /// the serving channel, serving SINR against the batch snapshot,
    /// candidate SINR at every in-cone neighbor, BER → PER and the
    /// delivery draw. Pure per-node work over frozen data.
    fn gather_packet(&self, mut task: MTask, plan: &MPlan) -> MGather {
        let i = task.i;
        let sh = &task.shared;
        let a_serving = sh.serving[i].index();
        let link = self.link();
        let mut sep = Db::ZERO;
        let pwr_at: Vec<DbmPower> = (0..self.aps.len())
            .map(|a| {
                // Fading perturbs the serving link only; exactly one
                // step per packet keeps the node-stream draw count
                // independent of the serving AP.
                let serving = a == a_serving;
                let node = &self.nodes[i];
                let (p, ch) = task
                    .ctx
                    .arrival(&link, node, &self.aps[a], &sh.blockers, serving);
                if serving {
                    sep = ch.level_separation();
                }
                p
            })
            .collect();
        // SINR at AP `b` through harmonic `h`, on the node's current
        // channel, with its fresh power in place of its snapshot one.
        let sinr_at = |b: usize, h: i32| {
            let rx_of = |j| if j == i { pwr_at[b] } else { sh.rx[b][j] };
            net::sinr(plan.gains[b].row(h), plan.noise_at[b], i, &sh.slots, rx_of)
        };
        let sinr = sinr_at(a_serving, sh.slots[i].harmonic);
        let decision_snr = sinr + plan.proc_gain[i];
        let ber = joint_ber(decision_snr, sep, Db::new(2.0));
        let per = 1.0 - (1.0 - ber).powi(self.nodes[i].packet_air_bits() as i32);
        let draw = task.ctx.rng.gen::<f64>();
        // Candidate view: what would each in-cone neighbor hear, on the
        // node's current channel, through the harmonic that AP's TMA
        // would assign it?
        let alt = (0..self.aps.len())
            .filter(|&b| b != a_serving && plan.in_cone[b][i])
            .map(|b| (b as u16, sinr_at(b, plan.cand_harmonic[b][i]).value()))
            .collect();
        MGather {
            i,
            ctx: task.ctx,
            pwr_at,
            sinr,
            per,
            draw,
            alt,
        }
    }

    /// Runs the simulation.
    pub fn run(&self) -> Result<MultiApReport, MultiApError> {
        self.run_observed(&mut Recorder::disabled())
    }

    /// [`MultiApSim::run`] with observability: `fsm`, `handoff` and
    /// `apmsg` trace events plus coordination counters flow into `rec`.
    /// Nothing about the run depends on the recorder, so the trace is a
    /// pure function of the scenario — byte-identical across thread
    /// counts.
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
        let coverage: Vec<ApCoverage> = (0..na).map(|a| self.coverage(a)).collect();
        let reuse = HarmonicReusePlan::new(&coverage, capacity).map_err(MultiApError::Plan)?;
        let bandwidth = self.cfg.sdm_channel_width;
        let rate = self.cfg.plan.rate_for(bandwidth);
        let rates: Vec<BitRate> = self.nodes.iter().map(|n| n.demand.min(rate)).collect();

        // ---- geometry tables (frozen for the run) ----
        let aoa: Vec<Vec<Degrees>> = (0..na)
            .map(|a| (0..nn).map(|i| self.aoa_at(a, i)).collect())
            .collect();
        let tma = |a: usize| self.aps[a].tma().expect("validated above");
        // Per-AP harmonic the TMA would hash each node into: the only
        // rows SINR ever reads (slots are scheduled onto these too).
        let cand_harmonic: Vec<Vec<i32>> =
            (0..na).map(|a| tma(a).assign_harmonics(&aoa[a])).collect();
        let plan = MPlan {
            gains: (0..na)
                .map(|a| GainTable::exact(tma(a), &aoa[a], &cand_harmonic[a]))
                .collect(),
            noise_at: (0..na)
                .map(|a| thermal_noise_dbm(bandwidth, self.aps[a].noise_figure()))
                .collect(),
            cand_harmonic,
            in_cone: (0..na)
                .map(|a| {
                    (0..nn)
                        .map(|i| coverage[a].contains(self.nodes[i].pose.position))
                        .collect()
                })
                .collect(),
            proc_gain: rates
                .iter()
                .map(|&r| net::proc_gain(bandwidth, r))
                .collect(),
        };
        let (in_cone, cand_harmonic) = (&plan.in_cone, &plan.cand_harmonic);

        // ---- mobility + initial channel state ----
        let pacer = self
            .cfg
            .pacer
            .map(|r| LinearWalker::new(r.from, r.to, r.speed_mps));
        let mut mobility = Mobility::new(&self.room, self.cfg.walkers, pacer, self.cfg.seed);
        let mut cur_blockers = mobility.blockers();
        let link = self.link();
        let mut scratch = Vec::new();
        let mut rx: Vec<Vec<DbmPower>> = self
            .aps
            .iter()
            .map(|ap| {
                let at = |node| link.arrival(node, ap, &cur_blockers, &mut scratch, None).0;
                self.nodes.iter().map(at).collect()
            })
            .collect();

        // ---- initial association: in-cone first, then arrival power,
        // ties to the lower AP id ----
        let mut serving: Vec<ApId> = (0..nn)
            .map(|i| {
                let mut best = 0usize;
                for a in 1..na {
                    let better = match (in_cone[a][i], in_cone[best][i]) {
                        (true, false) => true,
                        (false, true) => false,
                        _ => rx[a][i] > rx[best][i],
                    };
                    if better {
                        best = a;
                    }
                }
                ApId(best as u16)
            })
            .collect();

        // ---- TMA admission control: an AP can carry at most one node
        // per (channel, harmonic) pair of its share, so each harmonic
        // beam admits at most `channels` members; overload is rejected
        // deterministically in node order. Rejected nodes stay silent —
        // no grant, no packets, zero arrival power. ----
        let mut is_admitted = vec![true; nn];
        let mut per_ap_admitted = vec![0usize; na];
        for (a, cand_a) in cand_harmonic.iter().enumerate() {
            let cap = reuse.channels_of(ApId(a as u16)).len();
            let mut per_h: BTreeMap<i32, usize> = BTreeMap::new();
            for i in 0..nn {
                if serving[i].index() != a {
                    continue;
                }
                let c = per_h.entry(cand_a[i]).or_insert(0usize);
                if *c >= cap {
                    is_admitted[i] = false;
                    rx.iter_mut()
                        .for_each(|rx_a| rx_a[i] = DbmPower::ZERO_POWER);
                } else {
                    *c += 1;
                    per_ap_admitted[a] += 1;
                }
            }
        }

        // ---- per-AP SDM schedules over each AP's channel share ----
        let mut slots: Vec<SdmSlot> = vec![
            SdmSlot {
                channel: 0,
                harmonic: 0
            };
            nn
        ];
        for (a, aoa_a) in aoa.iter().enumerate() {
            let members: Vec<usize> = (0..nn)
                .filter(|&i| serving[i].index() == a && is_admitted[i])
                .collect();
            if members.is_empty() {
                continue;
            }
            let chs = reuse.channels_of(ApId(a as u16));
            let member_aoa: Vec<Degrees> = members.iter().map(|&i| aoa_a[i]).collect();
            let scheduler = SdmScheduler::new(self.aps[a].tma().expect("validated").clone());
            // The per-harmonic cap above is exactly the scheduler's
            // feasibility condition, so this cannot fail.
            let local = scheduler
                .schedule(&member_aoa, chs.len())
                .map_err(MultiApError::Sdm)?;
            for (k, &i) in members.iter().enumerate() {
                slots[i] = SdmSlot {
                    channel: chs[local[k].channel],
                    harmonic: local[k].harmonic,
                };
            }
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
            if !is_admitted[i] {
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
                let s0 = net::sinr(row, plan.noise_at[a], i, &slots, |j| rx[a][j]);
                rec.event(0.0, "assoc", id as i64, "granted", "", s0.value());
            }
            links.push(link);
        }

        // ---- run state ----
        let faults = self
            .cfg
            .inter_ap_faults
            .clone()
            .unwrap_or_else(FaultConfig::none);
        let mut bh = Backhaul {
            q: EventQueue::new(),
            inj: FaultInjector::new(faults, self.cfg.seed),
            backoff: Backoff::standard(),
        };
        let mut ho = HandoffReport::default();
        let mut better_run = vec![0u32; nn];
        // Slot reserved at the target AP while its grant is in flight.
        let mut pending: BTreeMap<usize, (ApId, SdmSlot)> = BTreeMap::new();
        let mut handoff_took: Vec<f64> = Vec::new();
        let mut stats = NodeStats::all(nn);
        let mut trace: Vec<MultiApPacketSample> = Vec::new();
        let mut ctxs = NodeCtx::all(self.cfg.seed, nn, self.cfg.fading);

        let q = &mut bh.q;
        q.schedule_at(Seconds::ZERO + self.cfg.step, MEvent::Step)
            .expect("first step is ahead of t = 0");
        for (i, n) in self.nodes.iter().enumerate() {
            if !is_admitted[i] {
                continue; // rejected nodes never transmit
            }
            let offset = n.packet_interval() * (i as f64 / nn as f64);
            q.schedule_at(offset, MEvent::Packet(i))
                .expect("first packet is ahead of t = 0");
        }

        // ---- the gather→commit event loop ----
        let threads = pool::resolve_threads(self.cfg.threads);
        pool::scoped(
            threads,
            |task: MTask| self.gather_packet(task, &plan),
            |disp| {
                let mut batch: Vec<(Seconds, usize, ())> = Vec::new();
                let mut results: Vec<Option<MGather>> = Vec::new();
                while let Some((t, ev)) = bh.q.pop() {
                    if t > self.cfg.duration {
                        break;
                    }
                    match ev {
                        MEvent::Step => {
                            mobility.step(&self.room, self.cfg.step);
                            cur_blockers = mobility.blockers();
                            bh.q.schedule_in(self.cfg.step, MEvent::Step)
                                .expect("step period is positive");
                        }
                        MEvent::Arbit(msg) => {
                            let verdict = arb.handle(&msg);
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
                            rec.event(
                                t.value(),
                                "apmsg",
                                msg.node() as i64,
                                kind,
                                vstr,
                                msg.epoch() as f64,
                            );
                            let ApMsg::Transfer { from, to, node, .. } = msg else {
                                continue;
                            };
                            let i = idx_of[&node];
                            match verdict {
                                ArbiterVerdict::Granted { epoch } => {
                                    // Move the admission record and
                                    // reserve a slot at the target.
                                    adm[from.index()].leave(node);
                                    let joined =
                                        adm[to.index()].join(node, self.nodes[i].demand).is_ok();
                                    // First target channel free of a
                                    // (channel, harmonic) collision among
                                    // members and in-flight reservations.
                                    let h = cand_harmonic[to.index()][i];
                                    let at_to = |j: usize| {
                                        serving[j] == to
                                            || pending.get(&j).is_some_and(|&(ap, _)| ap == to)
                                    };
                                    let taken = |slot: SdmSlot| {
                                        (0..nn).any(|j| {
                                            j != i && is_admitted[j] && at_to(j) && slots[j] == slot
                                        })
                                    };
                                    let free = reuse
                                        .channels_of(to)
                                        .iter()
                                        .map(|&channel| SdmSlot {
                                            channel,
                                            harmonic: h,
                                        })
                                        .find(|&slot| joined && !taken(slot));
                                    match free {
                                        Some(slot) => {
                                            pending.insert(i, (to, slot));
                                            let ev = MEvent::TransferGrant {
                                                node: i,
                                                to,
                                                epoch,
                                                slot,
                                            };
                                            // A lost grant is resynced
                                            // by the retry path.
                                            bh.offer(t, ev);
                                        }
                                        None => {
                                            // No room at the target:
                                            // hand ownership back.
                                            if joined {
                                                adm[to.index()].leave(node);
                                            }
                                            adm[from.index()].join(node, self.nodes[i].demand).ok();
                                            arb.handle(&ApMsg::Claim {
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
                                    // A retried transfer for a move
                                    // that already applied is the node
                                    // telling us its grant never
                                    // arrived: re-deliver it.
                                    if let (Some((owner, ep)), Some(&(pto, slot))) =
                                        (arb.owner_of(node), pending.get(&i))
                                    {
                                        if owner == to && pto == to {
                                            let ev = MEvent::TransferGrant {
                                                node: i,
                                                to,
                                                epoch: ep,
                                                slot,
                                            };
                                            bh.offer(t, ev);
                                        }
                                    }
                                }
                            }
                        }
                        MEvent::TransferGrant {
                            node: i,
                            to,
                            epoch,
                            slot,
                        } => {
                            let id = self.nodes[i].id;
                            let center = table[slot.channel].center.hz();
                            let old = links[i].state();
                            let (action, took) = links[i].on_transfer_grant(epoch, center, to, t);
                            if action == LinkAction::AckGrant {
                                // The break: retune and switch.
                                slots[i] = slot;
                                serving[i] = to;
                                pending.remove(&i);
                                better_run[i] = 0;
                                ho.completed += 1;
                                if let Some(d) = took {
                                    handoff_took.push(d.value());
                                }
                                let new = state_name(links[i].state());
                                note_fsm(rec, t, id, state_name(old), new, epoch);
                                note_handoff(rec, t, id, "commit", to);
                            }
                        }
                        MEvent::RetryTransfer { node: i, attempt } => {
                            let id = self.nodes[i].id;
                            let LinkState::Handoff { from, to } = links[i].state() else {
                                continue; // already resolved
                            };
                            if attempt != links[i].attempt() {
                                continue; // superseded timer
                            }
                            if attempt >= self.cfg.max_transfer_retries {
                                match arb.owner_of(id) {
                                    Some((owner, ep)) if owner == to => {
                                        // Ownership moved but every grant
                                        // copy was lost: the coordinator
                                        // re-delivers over the reliable
                                        // backhaul.
                                        ho.grant_resyncs += 1;
                                        let (_, slot) =
                                            pending.get(&i).copied().expect("reserved at apply");
                                        bh.q.schedule_at(
                                            t + CONTROL_RTT * HOP,
                                            MEvent::TransferGrant {
                                                node: i,
                                                to,
                                                epoch: ep,
                                                slot,
                                            },
                                        )
                                        .expect("resync is ahead of now");
                                        note_handoff(rec, t, id, "resync", to);
                                    }
                                    _ => {
                                        // Ownership never moved: give up
                                        // and stay home.
                                        links[i].abort_handoff();
                                        ho.aborted += 1;
                                        let epoch = links[i].epoch_seen();
                                        note_fsm(rec, t, id, "Handoff", "Granted", epoch);
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
                                bh.send_transfer(t, i, msg, attempt + 1, &mut ho);
                            }
                        }
                        MEvent::Packet(first) => {
                            // -- drain: a lookahead window of packets --
                            let (end, nodes) = (self.cfg.duration, &self.nodes);
                            net::drain(&mut bh.q, (t, first), end, nodes, |_, _| (), &mut batch);
                            // -- gather: per-node work, in parallel --
                            let shared = Arc::new(MShared {
                                blockers: Arc::clone(&cur_blockers),
                                rx: rx.clone(),
                                slots: slots.clone(),
                                serving: serving.clone(),
                            });
                            let tasks: Vec<MTask> = batch
                                .iter()
                                .map(|&(_, i, ())| MTask {
                                    i,
                                    ctx: ctxs[i].take().expect("one packet per node per batch"),
                                    shared: Arc::clone(&shared),
                                })
                                .collect();
                            disp.run(tasks, &mut results);
                            // -- commit: apply in drained order --
                            for (slot_idx, &(tb, i, ())) in batch.iter().enumerate() {
                                let g = results[slot_idx].take().expect("gather result");
                                debug_assert_eq!(g.i, i);
                                let id = self.nodes[i].id;
                                for (rx_a, &p) in rx.iter_mut().zip(&g.pwr_at) {
                                    rx_a[i] = p;
                                }
                                stats[i].record(g.sinr);
                                let ok = g.draw >= g.per;
                                // Delivery crediting: the serving AP
                                // holds the node's current grant and is
                                // the only forwarder; a mid-handoff
                                // target forwards only once the node has
                                // accepted its grant — at which point it
                                // *is* the serving AP. Count credits
                                // honestly and flag any double.
                                let mut credits = 0u32;
                                if ok {
                                    credits += 1;
                                    stats[i].delivered += 1;
                                }
                                if let LinkState::Handoff { to, .. } = links[i].state() {
                                    if let Some(&(_, s)) =
                                        g.alt.iter().find(|&&(b, _)| ApId(b) == to)
                                    {
                                        let cand_decodes = Db::new(s) + plan.proc_gain[i]
                                            >= self.cfg.decode_threshold;
                                        if ok && cand_decodes {
                                            ho.dual_decodes += 1;
                                            if links[i].serving() == to {
                                                credits += 1;
                                            }
                                        }
                                    }
                                }
                                if credits > 1 {
                                    ho.duplicate_deliveries += 1;
                                }
                                if self.cfg.record_trace {
                                    trace.push(MultiApPacketSample {
                                        t: tb,
                                        node: i,
                                        ap: serving[i],
                                        sinr_db: g.sinr.value(),
                                        delivered: ok,
                                    });
                                }
                                // Roaming hysteresis: only a cleanly
                                // granted node arms a handoff.
                                if matches!(links[i].state(), LinkState::Granted) {
                                    let best = g.alt.iter().copied().fold(
                                        None,
                                        |acc: Option<(u16, f64)>, (b, s)| match acc {
                                            Some((_, bs)) if bs >= s => acc,
                                            _ => Some((b, s)),
                                        },
                                    );
                                    match best {
                                        Some((b, s))
                                            if s > g.sinr.value()
                                                + self.cfg.handoff_hysteresis.value() =>
                                        {
                                            better_run[i] += 1;
                                            if better_run[i] >= self.cfg.handoff_window {
                                                let to = ApId(b);
                                                if links[i].begin_handoff(to, tb)
                                                    == LinkAction::SendTransfer
                                                {
                                                    better_run[i] = 0;
                                                    ho.attempts += 1;
                                                    let epoch = links[i].epoch_seen();
                                                    note_fsm(
                                                        rec, tb, id, "Granted", "Handoff", epoch,
                                                    );
                                                    note_handoff(rec, tb, id, "begin", to);
                                                    let msg = ApMsg::Transfer {
                                                        from: serving[i],
                                                        to,
                                                        node: id,
                                                        epoch,
                                                    };
                                                    bh.send_transfer(tb, i, msg, 0, &mut ho);
                                                }
                                            }
                                        }
                                        _ => better_run[i] = 0,
                                    }
                                }
                                ctxs[i] = Some(g.ctx);
                                bh.q.schedule_at(
                                    tb + self.nodes[i].packet_interval(),
                                    MEvent::Packet(i),
                                )
                                .expect("reschedule lands inside the batch horizon");
                            }
                        }
                    }
                }
            },
        );

        // ---- wrap up ----
        ho.stale_transfer_msgs = arb.stale_discarded();
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
        let nodes = (0..nn)
            .map(|i| MultiApNodeReport {
                id: self.nodes[i].id,
                admitted: is_admitted[i],
                ap: links[i].serving(),
                sent: stats[i].sent,
                delivered: stats[i].delivered,
                mean_sinr_db: stats[i].mean_sinr(0.0),
                min_sinr_db: stats[i].min_sinr(0.0),
                per: stats[i].per(),
                goodput_bps: stats[i].goodput_bps(&self.nodes[i], self.cfg.duration),
                handoffs: links[i].handoffs(),
                slot: slots[i],
            })
            .collect();
        Ok(MultiApReport {
            nodes,
            per_ap_admitted,
            reuse_gain: reuse.reuse_gain(),
            num_colors: reuse.num_colors(),
            capacity,
            duration: self.cfg.duration,
            trace,
            handoff: ho,
        })
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
    fn thread_count_does_not_change_the_report_or_trace() {
        let mut sim = two_ap_sim(Seconds::from_millis(300.0));
        sim.config_mut().record_trace = true;
        sim.config_mut().walkers = 2;
        sim.config_mut().fading = Some(FadingConfig::indoor());
        let mut rec1 = Recorder::enabled();
        sim.config_mut().threads = 1;
        let r1 = sim.run_observed(&mut rec1).expect("runs");
        let mut rec8 = Recorder::enabled();
        sim.config_mut().threads = 8;
        let r8 = sim.run_observed(&mut rec8).expect("runs");
        assert_eq!(r1, r8);
        assert_eq!(rec1.trace_jsonl(), rec8.trace_jsonl());
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
        // And the faulted run stays byte-deterministic across threads.
        let mut t8 = handoff_sim(Some(FaultConfig::lossy(0.3)));
        t8.config_mut().threads = 8;
        let r8 = t8.run().expect("runs");
        assert_eq!(rep, r8);
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
