//! The engine core shared by [`crate::sim`] and [`crate::multi_ap::sim`].
//!
//! Both simulators run the same physics on the same gather→commit loop
//! (DESIGN.md §9); only their control planes differ. What they share
//! lives here, once:
//!
//! * [`Mobility`] — walkers and the pacer on the run's mobility RNG,
//!   and the blocker snapshot the gather phase reads;
//! * [`drain`] — the lookahead batch drain, generic over the event type;
//! * [`NodeCtx`] — a node's gather context (RNG stream, fading, scratch);
//! * [`Link`] — one link: ray trace → beam channel → optional fading →
//!   arrival power;
//! * [`GainTable`] and [`sinr`] — the H×N TMA gain table and the one
//!   SINR kernel over it;
//! * set-up helpers ([`index_nodes`], [`admission_plan`], [`proc_gain`])
//!   and per-node packet statistics ([`NodeStats`]).

use crate::ap::ApStation;
use crate::control::NodeId;
use crate::event::EventQueue;
use crate::fdm::BandPlan;
use crate::interference::adjacent_channel_leakage;
use crate::node::NodeStation;
use crate::sdm::SdmSlot;
use crate::sim::FadingConfig;
use crate::streams;
use mmx_antenna::tma::Tma;
use mmx_channel::blockage::HumanBlocker;
use mmx_channel::fading::{FadingProcess, Rician};
use mmx_channel::mobility::{LinearWalker, RandomWaypoint};
use mmx_channel::response::{beam_channel_into, BeamChannel};
use mmx_channel::room::Room;
use mmx_channel::trace::{PropPath, Tracer};
use mmx_channel::Vec2;
use mmx_units::{Band, BitRate, Db, DbmPower, Degrees, Hertz, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Upper bound on one gather batch (bounds per-batch task memory; far
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

    /// The blocker constellation as it stands now.
    pub(crate) fn blockers(&self) -> Arc<Vec<HumanBlocker>> {
        let walkers = self.walkers.iter().map(|w| w.position());
        let pacer = self.pacer.iter().map(|p| p.position());
        Arc::new(walkers.chain(pacer).map(HumanBlocker::typical).collect())
    }
}

/// An event type whose `Packet(i)` variant the drain batches.
pub(crate) trait PacketEvent {
    /// The transmitting node, when this is a data packet.
    fn packet(&self) -> Option<usize>;
}

/// Drains a lookahead window of packet events, starting with the just
/// popped `(t, first)`, into `batch` (tagged by `classify`).
///
/// It keeps draining while the next event is a packet strictly inside
/// the batch horizon — the earliest time any drained packet's
/// reschedule could land — so the drained prefix matches the serial pop
/// order exactly (see the `event` module docs). Classifying at drain
/// time equals classifying at commit time: classification inputs change
/// only on non-packet events, which end batches, or on a node's own
/// commit, and a node appears at most once per batch.
pub(crate) fn drain<E: PacketEvent, C>(
    q: &mut EventQueue<E>,
    (t, first): (Seconds, usize),
    end: Seconds,
    nodes: &[NodeStation],
    classify: impl Fn(Seconds, usize) -> C,
    batch: &mut Vec<(Seconds, usize, C)>,
) {
    batch.clear();
    batch.push((t, first, classify(t, first)));
    let mut horizon = t + nodes[first].packet_interval();
    while batch.len() < MAX_BATCH {
        match q.peek() {
            Some((tn, e)) if e.packet().is_some() && tn < horizon && tn <= end => {
                let (tn, e) = q.pop().expect("peeked an event");
                let j = e.packet().expect("peeked a packet");
                horizon = horizon.min(tn + nodes[j].packet_interval());
                batch.push((tn, j, classify(tn, j)));
            }
            _ => break,
        }
    }
}

/// Per-node worker context for the gather phase: the node's private RNG
/// stream ([`streams::node_stream`]), its time-correlated fading state,
/// and reusable ray-trace scratch. Exactly one in-flight gather task
/// owns a node's context at a time (a node appears at most once per
/// batch), so no locking is needed — the context travels with the task
/// and comes back with the result.
pub(crate) struct NodeCtx {
    /// The node's private RNG stream.
    pub(crate) rng: StdRng,
    fader: Option<FadingProcess>,
    paths: Vec<PropPath>,
}

impl NodeCtx {
    /// Every node's context. With fading on, each process is seeded from
    /// its node's own stream, so construction is order-independent.
    pub(crate) fn all(seed: u64, n: usize, fading: Option<FadingConfig>) -> Vec<Option<NodeCtx>> {
        (0..n)
            .map(|i| {
                let mut rng = streams::node_stream(seed, i);
                let fader = fading
                    .map(|f| FadingProcess::new(Rician::new(Db::new(f.k_db)), f.rho, &mut rng));
                Some(NodeCtx {
                    rng,
                    fader,
                    paths: Vec::new(),
                })
            })
            .collect()
    }

    /// [`Link::arrival`] through this context's scratch, stepping its
    /// fading process (when there is one) if `fade`.
    pub(crate) fn arrival(
        &mut self,
        link: &Link,
        node: &NodeStation,
        ap: &ApStation,
        blockers: &[HumanBlocker],
        fade: bool,
    ) -> (DbmPower, BeamChannel) {
        let fader = self.fader.as_mut().filter(|_| fade);
        link.arrival(
            node,
            ap,
            blockers,
            &mut self.paths,
            fader.map(|f| (f, &mut self.rng)),
        )
    }
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
    /// Arrival power of `node` at `ap` under `blockers`: ray trace, beam
    /// channel, an optional fading step, then the power behind the
    /// stronger beam. `paths` is caller-owned scratch, so any number of
    /// gather workers may call this concurrently.
    pub(crate) fn arrival(
        &self,
        node: &NodeStation,
        ap: &ApStation,
        blockers: &[HumanBlocker],
        paths: &mut Vec<PropPath>,
        fading: Option<(&mut FadingProcess, &mut StdRng)>,
    ) -> (DbmPower, BeamChannel) {
        let tracer = Tracer::new(
            self.room,
            node.front_end().channel(),
            self.path_loss_exponent,
        )
        .with_second_order(self.second_order);
        let ch = beam_channel_into(
            &tracer,
            node.pose,
            ap.pose,
            node.beams(),
            ap.element(),
            blockers,
            paths,
        );
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
