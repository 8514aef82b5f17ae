//! The engine shared by [`crate::sim`] and [`crate::multi_ap::sim`].
//!
//! Both simulators run one gather→commit event loop (DESIGN.md §9),
//! [`run`], over one event type ([`Event`]) and one message fabric
//! ([`Fabric`]). Only the control plane ([`Plane`]) differs: instant
//! admission or the lossy join/grant/lease protocol for one AP, or
//! coordinated roaming across several. A single-AP run is the one-AP
//! case of the same loop: its arrival-power snapshot is 1×N and, with no
//! neighbouring AP, its packets carry no candidate SINRs. The rest lives
//! here once too:
//!
//! * [`Mobility`] — walkers and the pacer on the run's mobility RNG;
//! * [`gather`] over a [`NodeCtx`] — one packet's link to every AP, its
//!   SINR, BER and delivery draw;
//! * [`Link`] — every (AP, node) link traced once per run into
//!   [`LinkPlans`], then per packet: blockage → beam channel → optional
//!   fading → arrival power;
//! * [`GainTable`] and [`sinr`] — the H×N TMA gain table and the one
//!   SINR kernel over it;
//! * set-up helpers ([`index_nodes`], [`aoa`], [`admit`],
//!   [`admission_plan`], [`proc_gain`]) and per-node packet statistics
//!   ([`NodeStats`]).

use crate::ap::{ApId, ApStation};
use crate::control::{ControlMsg, NodeId, CONTROL_RTT};
use crate::event::EventQueue;
use crate::faults::{FaultConfig, FaultInjector};
use crate::fdm::BandPlan;
use crate::interference::adjacent_channel_leakage;
use crate::link::Backoff;
use crate::multi_ap::proto::ApMsg;
use crate::node::NodeStation;
use crate::sdm::{SdmError, SdmScheduler, SdmSlot};
use crate::sim::FadingConfig;
use crate::streams;
use mmx_antenna::tma::Tma;
use mmx_channel::blockage::HumanBlocker;
use mmx_channel::fading::{FadingProcess, Rician};
use mmx_channel::mobility::{LinearWalker, RandomWaypoint};
use mmx_channel::response::{BeamChannel, LinkPlans};
use mmx_channel::room::Room;
use mmx_channel::trace::Tracer;
use mmx_channel::Vec2;
use mmx_obs::Recorder;
use mmx_phy::ber::{fsk_ber, joint_ber};
use mmx_units::{Band, BitRate, Db, DbmPower, Degrees, Hertz, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Upper bound on one gather batch (bounds per-batch gather memory; far
/// above any realistic same-window packet census).
pub(crate) const MAX_BATCH: usize = 4096;

/// Maps node ids to engine indices, or names the first id that repeats.
pub(crate) fn index_nodes(nodes: &[NodeStation]) -> Result<BTreeMap<NodeId, usize>, NodeId> {
    let mut map = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        if map.insert(n.id, i).is_some() {
            return Err(n.id);
        }
    }
    Ok(map)
}

/// Angle of arrival of `node`'s LoS at `ap`, relative to the AP's
/// facing.
pub(crate) fn aoa(ap: &ApStation, node: &NodeStation) -> Degrees {
    ((node.pose.position - ap.pose.position).bearing() - ap.pose.facing).wrapped()
}

/// Admission and SDM slots for one AP's `members`, in node order;
/// returns how many were admitted.
///
/// First the TMA admission cap (DESIGN.md §10): a harmonic beam carries
/// at most one node per channel, so of the members the AP's TMA hashes
/// into one beam (`harmonic[i]`), the first `channels.len()` are
/// admitted and the rest rejected — their `admitted` flag is cleared.
/// The cap is exactly the scheduler's feasibility condition, so the
/// admitted members then always schedule onto `channels`.
pub(crate) fn admit(
    harmonic: &[i32],
    members: impl Iterator<Item = usize>,
    channels: &[usize],
    admitted: &mut [bool],
    slots: &mut [SdmSlot],
) -> Result<usize, SdmError> {
    let mut per_h: BTreeMap<i32, usize> = BTreeMap::new();
    let kept: Vec<usize> = members
        .filter(|&i| {
            let count = per_h.entry(harmonic[i]).or_insert(0);
            *count += 1;
            admitted[i] = *count <= channels.len();
            admitted[i]
        })
        .collect();
    if kept.is_empty() {
        return Ok(0);
    }
    let kept_h: Vec<i32> = kept.iter().map(|&i| harmonic[i]).collect();
    for (&i, s) in kept
        .iter()
        .zip(SdmScheduler::place(&kept_h, channels.len())?)
    {
        slots[i] = SdmSlot {
            channel: channels[s.channel],
            harmonic: s.harmonic,
        };
    }
    Ok(kept.len())
}

/// The people moving through the room: random-waypoint walkers and an
/// optional straight-line pacer, all stepped on the run's mobility RNG
/// (seeded from the run seed; the walkers draw from it in index order).
pub(crate) struct Mobility {
    rng: StdRng,
    walkers: Vec<RandomWaypoint>,
    pacer: Option<LinearWalker>,
}

impl Mobility {
    /// `count` walkers spread across the room's middle, plus `pacer`.
    pub(crate) fn new(room: &Room, count: usize, pacer: Option<LinearWalker>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let walkers = (0..count)
            .map(|k| {
                let start = Vec2::new(
                    room.width() * (0.25 + 0.5 * (k as f64 / count.max(1) as f64)),
                    room.depth() * 0.5,
                );
                RandomWaypoint::new(room, start, 1.4, 0.3, &mut rng)
            })
            .collect();
        Mobility {
            rng,
            walkers,
            pacer,
        }
    }

    /// Advances everyone by `dt`.
    pub(crate) fn step(&mut self, room: &Room, dt: Seconds) {
        for w in &mut self.walkers {
            w.step(room, dt.value(), &mut self.rng);
        }
        if let Some(p) = self.pacer.as_mut() {
            p.step(dt.value());
        }
    }

    /// True when nobody moves through the room: no walker and no pacer,
    /// so the blocker constellation stays empty for the whole run.
    pub(crate) fn still(&self) -> bool {
        self.walkers.is_empty() && self.pacer.is_none()
    }

    /// The blocker constellation as it stands now.
    pub(crate) fn blockers(&self) -> Vec<HumanBlocker> {
        let walkers = self.walkers.iter().map(|w| w.position());
        let pacer = self.pacer.iter().map(|p| p.position());
        walkers.chain(pacer).map(HumanBlocker::typical).collect()
    }
}

/// Events of both engines: mobility steps, data packets, and the
/// messages, timers and injected failures of each control plane. A
/// fault-free single-AP run schedules only `Step` and `Packet`.
#[derive(Clone)]
pub(crate) enum Event {
    /// Mobility/blockage update.
    Step,
    /// Node `i` transmits its next data packet.
    Packet(usize),
    /// A control message arrives at the AP.
    ToAp(ControlMsg),
    /// A control message arrives at node `i`.
    ToNode(usize, ControlMsg),
    /// Node `i`'s retransmit timer for join attempt `a` fired.
    RetryJoin(usize, u32),
    /// Node `i`'s keepalive timer fired.
    KeepaliveTick(usize),
    /// The AP scans for expired leases.
    LeaseCheck,
    /// Node `i` crashes.
    Crash(usize),
    /// Node `i` reboots and rejoins.
    Rejoin(usize),
    /// Node `i` becomes active and starts its first join.
    Wake(usize),
    /// Node `i` leaves the network for good.
    Depart(usize),
    /// A correlated blockage burst begins.
    BurstStart,
    /// The burst ends.
    BurstEnd,
    /// The AP restarts, losing all admission state.
    ApRestart,
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

/// Trace tags of a control message in flight: message name, subject
/// node id, and the numeric payload worth keeping (the grant epoch).
fn ctl_meta(ev: &Event) -> Option<(&'static str, i64, f64)> {
    let msg = match ev {
        Event::ToAp(m) => m,
        Event::ToNode(_, m) => m,
        _ => return None,
    };
    Some(match msg {
        ControlMsg::JoinRequest { node, .. } => ("join", *node as i64, 0.0),
        ControlMsg::Grant { node, epoch, .. } => ("grant", *node as i64, *epoch as f64),
        ControlMsg::GrantAck { node, epoch } => ("ack", *node as i64, *epoch as f64),
        ControlMsg::Keepalive { node } => ("keepalive", *node as i64, 0.0),
        ControlMsg::Reject { node } => ("reject", *node as i64, 0.0),
        ControlMsg::Leave { node } => ("leave", *node as i64, 0.0),
    })
}

/// The (possibly lossy) control fabric: the event queue and the fault
/// injector that decides every message's fate, so each send draws it
/// deterministically. Both control links run over it: node ↔ AP and
/// the inter-AP backhaul.
pub(crate) struct Fabric {
    pub(crate) q: EventQueue<Event>,
    pub(crate) inj: FaultInjector,
    pub(crate) backoff: Backoff,
    /// Control messages offered.
    pub(crate) control_sent: u64,
}

impl Fabric {
    /// An empty queue over an injector seeded from `seed`.
    pub(crate) fn new(faults: FaultConfig, seed: u64) -> Self {
        Fabric {
            q: EventQueue::new(),
            inj: FaultInjector::new(faults, seed),
            backoff: Backoff::standard(),
            control_sent: 0,
        }
    }

    /// Sends a message: it arrives after half the control RTT plus
    /// injected delay, unless the injector drops it (then this returns
    /// false); duplicates arrive shortly after the original. Every
    /// offered node ↔ AP message leaves a `ctl` trace event carrying its
    /// fate (`sent`/`lost`/`dup`).
    pub(crate) fn send(&mut self, now: Seconds, ev: Event, rec: &mut Recorder) -> bool {
        self.control_sent += 1;
        let meta = ctl_meta(&ev);
        let fate = self.inj.control_fate();
        if fate.lost {
            if let Some((name, node, v)) = meta {
                rec.event(now.value(), "ctl", node, name, "lost", v);
            }
            return false;
        }
        if let Some((name, node, v)) = meta {
            let tag = if fate.duplicated { "dup" } else { "sent" };
            rec.event(now.value(), "ctl", node, name, tag, v);
        }
        let at = now + CONTROL_RTT * 0.5 + fate.extra_delay;
        self.q
            .schedule_at(at, ev.clone())
            .expect("arrival is ahead");
        if fate.duplicated {
            self.q
                .schedule_at(at + CONTROL_RTT * 0.1, ev)
                .expect("duplicate arrival is ahead");
        }
        true
    }
}

/// Per-run data frozen before the event loop starts; the gather phase
/// reads only this and the batch's [`Live`] snapshot.
pub(crate) struct RunPlan<'a> {
    pub(crate) link: Link<'a>,
    /// Every (AP, node) link, traced once ([`Link::plan`]).
    pub(crate) channels: LinkPlans,
    pub(crate) aps: &'a [ApStation],
    pub(crate) nodes: &'a [NodeStation],
    pub(crate) duration: Seconds,
    /// Mobility update period.
    pub(crate) step: Seconds,
    /// Per-AP TMA gain tables.
    pub(crate) gains: Vec<GainTable>,
    /// Per-AP thermal noise in one channel.
    pub(crate) noise: Vec<DbmPower>,
    /// Per-node processing gain of the granted symbol rate.
    pub(crate) proc_gain: Vec<Db>,
    /// Per-node power-control backoff.
    pub(crate) backoff: Vec<Db>,
    /// `in_cone[a][i]`: AP `a` would consider taking node `i` over
    /// (roaming only; empty otherwise).
    pub(crate) in_cone: Vec<Vec<bool>>,
    /// `cand_harmonic[a][i]`: the harmonic AP `a`'s TMA hashes node `i`
    /// into (roaming only; empty otherwise).
    pub(crate) cand_harmonic: Vec<Vec<i32>>,
}

/// What the gather phase reads besides the [`RunPlan`]. Every packet of
/// a batch is gathered before the first one commits, so the whole batch
/// sees this snapshot as it stood when the batch was drained.
pub(crate) struct Live {
    /// The blocker constellation (rebuilt on mobility `Step`s).
    pub(crate) blockers: Vec<HumanBlocker>,
    /// `rx[a][j]`: node `j`'s arrival power at AP `a` (silent nodes —
    /// departed, crashed, never admitted — carry zero power).
    pub(crate) rx: Vec<Vec<DbmPower>>,
    pub(crate) slots: Vec<SdmSlot>,
    pub(crate) serving: Vec<ApId>,
    /// Blockage-burst penalty in force.
    pub(crate) extra_loss: Db,
}

/// The mutable core of a run that every control plane shares.
pub(crate) struct State {
    pub(crate) fab: Fabric,
    /// The snapshot the gather phase reads.
    pub(crate) live: Live,
    pub(crate) stats: Vec<NodeStats>,
    ctxs: Vec<NodeCtx>,
    mobility: Mobility,
}

impl State {
    /// A run over `live`, with every node's gather context. With fading
    /// on, each process is seeded from its node's own stream, so
    /// construction is order-independent.
    pub(crate) fn new(
        fab: Fabric,
        live: Live,
        mobility: Mobility,
        seed: u64,
        fading: Option<FadingConfig>,
    ) -> Self {
        let n = live.slots.len();
        State {
            fab,
            live,
            stats: NodeStats::all(n),
            ctxs: (0..n)
                .map(|i| {
                    let mut rng = streams::node_stream(seed, i);
                    let fader = fading
                        .map(|f| FadingProcess::new(Rician::new(Db::new(f.k_db)), f.rho, &mut rng));
                    NodeCtx { rng, fader }
                })
                .collect(),
            mobility,
        }
    }
}

/// How the drain classified one batched packet event.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Planned {
    /// Transmit (FSK-only when the node rides out an outage, §6.2): gets
    /// gathered.
    Tx { fsk: bool },
    /// The node left the network (activity window closed).
    Inactive,
    /// Radio down or lease lost: the application clock ticks, the
    /// packet is lost to churn.
    Churn,
}

/// A control plane of the event loop. [`run`] owns mobility, the drain,
/// the gather and the per-packet bookkeeping every plane shares; the
/// plane owns everything else.
pub(crate) trait Plane {
    /// How node `i`'s packet at `t` goes out.
    fn classify(&self, t: Seconds, i: usize) -> Planned;
    /// Handles an event other than a mobility step or a packet.
    fn on_event(&mut self, t: Seconds, ev: Event, st: &mut State, rec: &mut Recorder);
    /// Handles a drained packet that does not transmit.
    fn on_silent(&mut self, t: Seconds, i: usize, planned: Planned, st: &mut State);
    /// Commits node `g.i`'s transmitted packet, after its arrival powers
    /// and statistics and before its reschedule.
    fn on_packet(&mut self, t: Seconds, g: &mut Gather, st: &mut State, rec: &mut Recorder);
}

/// Runs the gather→commit event loop (DESIGN.md §9) until the queue
/// passes `plan.duration`.
///
/// Each batch is gathered in full before any of it commits, so every
/// packet of the batch reads the same snapshot; commits then run in
/// drained (serial event) order.
pub(crate) fn run(plan: &RunPlan, st: &mut State, plane: &mut impl Plane, rec: &mut Recorder) {
    let mut batch: Vec<(Seconds, usize, Planned)> = Vec::new();
    let mut gathered: Vec<Gather> = Vec::new();
    while let Some((t, ev)) = st.fab.q.pop() {
        if t > plan.duration {
            break;
        }
        let first = match ev {
            Event::Step => {
                st.mobility.step(plan.link.room, plan.step);
                st.live.blockers = st.mobility.blockers();
                st.fab
                    .q
                    .schedule_in(plan.step, Event::Step)
                    .expect("step period is positive");
                continue;
            }
            Event::Packet(first) => first,
            ev => {
                plane.on_event(t, ev, st, rec);
                continue;
            }
        };
        // -- drain: a lookahead window of packets. It keeps draining
        // while the next event is a packet strictly inside the batch
        // horizon — the earliest time any drained packet's reschedule
        // could land — so the drained prefix matches the serial pop
        // order exactly (see the `event` module docs). Classifying at
        // drain time equals classifying at commit time: classification
        // inputs change only on non-packet events, which end batches, or
        // on a node's own commit, and a node appears at most once per
        // batch. --
        batch.clear();
        batch.push((t, first, plane.classify(t, first)));
        let mut horizon = t + plan.nodes[first].packet_interval();
        while batch.len() < MAX_BATCH {
            match st.fab.q.peek() {
                Some((tn, &Event::Packet(j))) if tn < horizon && tn <= plan.duration => {
                    st.fab.q.pop();
                    horizon = horizon.min(tn + plan.nodes[j].packet_interval());
                    batch.push((tn, j, plane.classify(tn, j)));
                }
                _ => break,
            }
        }
        // -- gather: every transmitting packet against the snapshot as
        // drained, before any of them commits --
        gathered.clear();
        for &(_, i, planned) in &batch {
            if let Planned::Tx { fsk } = planned {
                gathered.push(gather(plan, &st.live, &mut st.ctxs[i], i, fsk));
            }
        }
        // -- commit: in the drained (serial event) order --
        let mut gathered = gathered.drain(..);
        for &(tb, i, planned) in &batch {
            if !matches!(planned, Planned::Tx { .. }) {
                plane.on_silent(tb, i, planned, st);
                continue;
            }
            let mut g = gathered.next().expect("one gather per transmitted packet");
            debug_assert_eq!(g.i, i);
            for (rx_a, &p) in st.live.rx.iter_mut().zip(&g.pwr_at) {
                rx_a[i] = p;
            }
            st.stats[i].record(g.sinr);
            st.stats[i].delivered += g.ok as u64;
            plane.on_packet(tb, &mut g, st, rec);
            st.fab
                .q
                .schedule_at(tb + plan.nodes[i].packet_interval(), Event::Packet(i))
                .expect("reschedule lands inside the batch horizon");
        }
    }
}

/// What the commit phase needs from one gathered packet, and nothing it
/// has to recompute.
pub(crate) struct Gather {
    pub(crate) i: usize,
    /// Fresh arrival power at every AP (fading applied on the serving
    /// one).
    pwr_at: Vec<DbmPower>,
    pub(crate) sinr: Db,
    pub(crate) decision_snr: Db,
    pub(crate) ber: f64,
    /// Whether the packet survived: the node-stream uniform draw against
    /// its PER.
    pub(crate) ok: bool,
    /// Candidate SINR at each in-cone non-serving AP: (AP index, dB).
    pub(crate) alt: Vec<(u16, f64)>,
}

/// The gather phase for node `i`'s packet: the planned channel to every
/// AP under the batch's blockers, a fading step on the serving link,
/// SINR against the batch snapshot `live`, BER → PER, the delivery draw,
/// and the candidate SINR at every in-cone neighbour. It reads only the
/// frozen plan and the snapshot and mutates only the node's own `ctx`,
/// so its result does not depend on which other packets of the batch
/// were gathered first.
fn gather(plan: &RunPlan, live: &Live, ctx: &mut NodeCtx, i: usize, fsk: bool) -> Gather {
    let node = &plan.nodes[i];
    let serving = live.serving[i].index();
    let mut sep = Db::ZERO;
    let pwr_at: Vec<DbmPower> = (0..plan.aps.len())
        .map(|a| {
            // Fading perturbs the serving link only; exactly one step
            // per packet keeps the node-stream draw count independent
            // of the serving AP.
            let fader = ctx.fader.as_mut().filter(|_| a == serving);
            let fading = fader.map(|f| (f, &mut ctx.rng));
            let k = a * plan.nodes.len() + i;
            let (p, ch) = (plan.link).arrival(node, &plan.channels, k, &live.blockers, fading);
            if a == serving {
                sep = ch.level_separation();
            }
            p - plan.backoff[i] - live.extra_loss
        })
        .collect();
    // SINR at AP `b` through harmonic `h`, on the node's current
    // channel, with its fresh power in place of its snapshot one.
    let sinr_at = |b: usize, h: i32| {
        let (rx, pwr) = (&live.rx[b], pwr_at[b]);
        let rx_of = |j| if j == i { pwr } else { rx[j] };
        sinr(plan.gains[b].row(h), plan.noise[b], i, &live.slots, rx_of)
    };
    let sinr = sinr_at(serving, live.slots[i].harmonic);
    // Decision SNR: the channel-band SINR plus the processing gain of
    // running the symbols slower than the channel width.
    let decision_snr = sinr + plan.proc_gain[i];
    // §6.2: in an outage the node drops the ASK bits and keeps only the
    // (more robust) FSK stream.
    let ber = if fsk {
        fsk_ber(decision_snr)
    } else {
        joint_ber(decision_snr, sep, Db::new(2.0))
    };
    let per = 1.0 - (1.0 - ber).powi(node.packet_air_bits() as i32);
    let ok = ctx.rng.gen::<f64>() >= per;
    // Candidate view: what would each in-cone neighbour hear, on the
    // node's current channel, through the harmonic its TMA would assign?
    let alt = (0..plan.aps.len())
        .filter(|&b| b != serving && plan.in_cone[b][i])
        .map(|b| (b as u16, sinr_at(b, plan.cand_harmonic[b][i]).value()))
        .collect();
    Gather {
        i,
        pwr_at,
        sinr,
        decision_snr,
        ber,
        ok,
        alt,
    }
}

/// Per-node gather context: the node's private RNG stream
/// ([`streams::node_stream`]) and its time-correlated fading state.
pub(crate) struct NodeCtx {
    /// The node's private RNG stream.
    pub(crate) rng: StdRng,
    fader: Option<FadingProcess>,
}

/// The propagation model of one run.
pub(crate) struct Link<'a> {
    /// The room the rays bounce in.
    pub(crate) room: &'a Room,
    /// LoS path-loss exponent.
    pub(crate) path_loss_exponent: f64,
    /// Trace two-bounce specular paths too.
    pub(crate) second_order: bool,
    /// Implementation loss (DESIGN.md §5).
    pub(crate) implementation_loss: Db,
}

impl Link<'_> {
    /// Traces every (AP, node) link once: link `a * nodes.len() + i` is
    /// node `i`'s link to AP `aps[a]`. Per-path terms are kept only when
    /// someone `walks` through the room — a still room's blocker set is
    /// always empty, so its links need only their clear channel.
    pub(crate) fn plan(&self, aps: &[ApStation], nodes: &[NodeStation], walks: bool) -> LinkPlans {
        let mut plans = LinkPlans::new(walks);
        for ap in aps {
            for node in nodes {
                let freq = node.front_end().channel();
                let tracer = Tracer::new(self.room, freq, self.path_loss_exponent)
                    .with_second_order(self.second_order);
                plans.push(&tracer, node.pose, ap.pose, node.beams(), ap.element());
            }
        }
        plans
    }

    /// Arrival power of `node` over link `k` of `plans` under
    /// `blockers`: the beam channel, an optional fading step, then the
    /// power behind the stronger beam.
    pub(crate) fn arrival(
        &self,
        node: &NodeStation,
        plans: &LinkPlans,
        k: usize,
        blockers: &[HumanBlocker],
        fading: Option<(&mut FadingProcess, &mut StdRng)>,
    ) -> (DbmPower, BeamChannel) {
        let ch = plans.channel(k, blockers);
        let ch = match fading {
            Some((f, rng)) => f.step(&ch, rng),
            None => ch,
        };
        let mark = ch.gain(ch.stronger_beam());
        (
            node.front_end().antenna_power() - self.implementation_loss + mark,
            ch,
        )
    }
}

/// One AP's TMA gains for one run: `row(m)[j]` is harmonic `m`'s gain
/// toward node `j`'s arrival angle. Slots and angles are fixed for the
/// run, so the H×N table replaces every per-packet array-factor
/// evaluation — exact, since each entry *is* `Tma::harmonic_gain`.
pub(crate) struct GainTable {
    half: i32,
    rows: Vec<Vec<Db>>,
}

impl GainTable {
    /// The exact table of `tma` over the arrival angles `aoa`. Only the
    /// rows of the harmonics in `used` are filled (the others stay
    /// empty), so a small network never pays for all H rows.
    pub(crate) fn exact(tma: &Tma, aoa: &[Degrees], used: &[i32]) -> Self {
        let half = tma.len() as i32 / 2;
        let mut rows = vec![Vec::new(); tma.len()];
        for &m in used {
            let row = &mut rows[(m + half) as usize];
            if row.is_empty() {
                *row = aoa.iter().map(|&az| tma.harmonic_gain(m, az)).collect();
            }
        }
        GainTable { half, rows }
    }

    /// 0 dB toward all `n` nodes on harmonic 0: an AP listening through
    /// its dipole (pure FDM).
    pub(crate) fn flat(n: usize) -> Self {
        GainTable {
            half: 0,
            rows: vec![vec![Db::ZERO; n]],
        }
    }

    /// Harmonic `m`'s gains toward every node.
    pub(crate) fn row(&self, m: i32) -> &[Db] {
        &self.rows[(m + self.half) as usize]
    }
}

/// SINR of node `me` received through the gain row `row` (its AP's
/// harmonic toward every node) on channel `slots[me].channel`, against
/// thermal `noise` and every other node's arrival power `rx_of(j)` at
/// that AP, with adjacent-channel leakage on the global channel grid.
///
/// Silent nodes (departed, crashed, never admitted) carry
/// [`DbmPower::ZERO_POWER`] and add exactly 0 mW to the sum. The
/// accessor lets the gather phase substitute a freshly traced power for
/// `me` into the frozen batch snapshot without building a `Vec`.
/// [`crate::interference::sinr_at_ap`] is the reference this is pinned
/// bit-equal to.
pub(crate) fn sinr(
    row: &[Db],
    noise: DbmPower,
    me: usize,
    slots: &[SdmSlot],
    rx_of: impl Fn(usize) -> DbmPower,
) -> Db {
    let wanted = rx_of(me) + row[me];
    let interference = (0..slots.len()).filter(|&j| j != me).map(|j| {
        let acl = adjacent_channel_leakage(slots[me].channel.abs_diff(slots[j].channel));
        rx_of(j) + row[j] + acl
    });
    wanted - DbmPower::power_sum(std::iter::once(noise).chain(interference))
}

/// Processing gain of running `rate` symbols in a `bandwidth` channel
/// (zero for a demand-matched channel, positive under rate adaptation
/// or SDM's fixed-width channels).
pub(crate) fn proc_gain(bandwidth: Hertz, rate: BitRate) -> Db {
    Db::new(10.0 * (bandwidth.hz() / (1.25 * rate.bps())).log10()).max(Db::ZERO)
}

/// The virtual band SDM admission bookkeeping runs over. Under SDM,
/// spatial reuse means spectral packing is not the binding constraint
/// (the TMA schedule is), so leases and epochs are tracked over a plan
/// wide enough for every demand.
pub(crate) fn admission_plan(plan: &BandPlan, nodes: &[NodeStation]) -> BandPlan {
    let width: f64 = nodes
        .iter()
        .map(|n| plan.width_for(n.demand).hz() + 2e6)
        .sum();
    let center = plan.band().low + plan.band().bandwidth() / 2.0;
    BandPlan::new(
        Band::centered(center, Hertz::new(width * 2.0)),
        Hertz::from_mhz(1.0),
    )
}

/// One node's packet statistics.
#[derive(Debug, Clone)]
pub(crate) struct NodeStats {
    /// Packets transmitted.
    pub(crate) sent: u64,
    /// Packets delivered.
    pub(crate) delivered: u64,
    sinr_sum: f64,
    sinr_min: f64,
}

impl NodeStats {
    /// `n` nodes' empty statistics.
    pub(crate) fn all(n: usize) -> Vec<NodeStats> {
        vec![
            NodeStats {
                sent: 0,
                delivered: 0,
                sinr_sum: 0.0,
                sinr_min: f64::INFINITY,
            };
            n
        ]
    }

    /// Counts one transmission at `sinr`.
    pub(crate) fn record(&mut self, sinr: Db) {
        self.sent += 1;
        self.sinr_sum += sinr.value();
        self.sinr_min = self.sinr_min.min(sinr.value());
    }

    /// Mean SINR over transmissions, or `none` if there were none.
    pub(crate) fn mean_sinr(&self, none: f64) -> f64 {
        if self.sent > 0 {
            self.sinr_sum / self.sent as f64
        } else {
            none
        }
    }

    /// Worst SINR over transmissions, or `none` if there were none.
    pub(crate) fn min_sinr(&self, none: f64) -> f64 {
        if self.sent > 0 {
            self.sinr_min
        } else {
            none
        }
    }

    /// Packet error rate (0 if nothing was sent).
    pub(crate) fn per(&self) -> f64 {
        if self.sent > 0 {
            1.0 - self.delivered as f64 / self.sent as f64
        } else {
            0.0
        }
    }

    /// Delivered application bits per second of `duration`.
    pub(crate) fn goodput_bps(&self, node: &NodeStation, duration: Seconds) -> f64 {
        self.delivered as f64 * node.payload_bytes as f64 * 8.0 / duration.value()
    }
}
