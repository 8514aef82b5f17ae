//! The traced run: the per-layer split of one workload.
//!
//! The engines carry no span hooks, so the layers are measured from
//! outside. Each cycle runs the engine untraced at one thread (the
//! `engine.wall_ms` base), at `nproc` intra-sim threads (`pool.speedup`),
//! fanned over `nproc` sims (`batch.speedup`) and once with an enabled
//! `Recorder` (`obs.*`). It then replays the same inputs — topology,
//! seed, blocker walk and the engine's own per-node packet counts —
//! through each layer's public function, one timed pass per layer.
//!
//! Exact, and checked: the SDM schedule (a replayed schedule that differs
//! from the slots the engine reported fails the run, which shows the
//! replay was fed the engine's real inputs) and every count. Approximate:
//! the order packets are traced in and the interference snapshot each one
//! sees follow the fault-free schedule (the faulted engine starts a node
//! at its grant; the multi-AP engine moves nodes on handoff). A layer's
//! time is therefore its cost per call on this workload's inputs times
//! the engine's call count. `engine.unaccounted_ms` is what no pass
//! covers: drain, commit, per-batch snapshots, report and allocation.
//!
//! Every pass is a span (name, id, parent, start, end), kept in memory
//! and written to [`SPANS_PATH`] when the run ends.

use crate::stats::{median, Metric};
use crate::workloads::{MultiAp, Reports, Scenario, SingleAp, Workload};
use crate::{nproc, Tally};
use mmx_antenna::Tma;
use mmx_channel::blockage::HumanBlocker;
use mmx_channel::fading::{FadingProcess, Rician};
use mmx_channel::mobility::RandomWaypoint;
use mmx_channel::room::Room;
use mmx_channel::{beam_channel_into, BeamChannel, PropPath, Tracer, Vec2};
use mmx_net::ap::ApStation;
use mmx_net::control::Admission;
use mmx_net::event::EventQueue;
use mmx_net::interference::adjacent_channel_leakage;
use mmx_net::multi_ap::{ApCoverage, HarmonicReusePlan, MultiApConfig, MultiApReport};
use mmx_net::node::NodeStation;
use mmx_net::sdm::{SdmScheduler, SdmSlot};
use mmx_net::sim::FadingConfig;
use mmx_net::streams::node_stream;
use mmx_net::{ApId, NetworkReport};
use mmx_obs::Recorder;
use mmx_phy::ber::joint_ber;
use mmx_units::{thermal_noise_dbm, BitRate, Db, DbmPower, Degrees, Hertz, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Where the spans are written when the run ends, relative to the
/// working directory.
pub const SPANS_PATH: &str = "mmxbench-spans.jsonl";

/// The ASK/FSK separation threshold every engine passes to `joint_ber`.
const ASK_THRESHOLD_DB: f64 = 2.0;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// Host-time spans, kept in memory until the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`; returns its length
    /// in ms.
    fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        (end_us - span.start_us) / 1e3
    }

    /// Runs `f` inside a span; returns its result and the span's length
    /// in ms.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// One JSON line per span, with its self time: its length minus the
    /// part its children cover.
    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"name":"{}","start_us":{:.3},"end_us":{:.3},"self_us":{:.3}}}"#,
                s.name,
                s.start_us,
                s.end_us,
                s.end_us - s.start_us - child_us[id]
            )?;
        }
        out.flush()
    }
}

/// The replayed layers, each named by its module.
#[derive(Clone, Copy)]
enum L {
    /// `net::sdm`: FDM admission or the TMA slot schedule.
    Sdm,
    /// `net::multi_ap`: reuse plan, association and admission caps.
    Plan,
    /// `antenna::tma`: the harmonic gain table.
    Gain,
    /// `net::event`: the packet and control event queue.
    Event,
    /// `channel::trace` + `response`: one ray trace per node and AP.
    Trace,
    /// `channel::fading`: one Rician step per packet.
    Fading,
    /// `net::interference`: the O(N) power sum per SINR.
    Interf,
    /// `phy::ber`: BER → PER per packet.
    Ber,
}

const LAYERS: usize = 8;

#[derive(Default, Clone, Copy)]
struct Stat {
    ms: f64,
    calls: u64,
}

/// One replay's layer times and call counts.
#[derive(Default, Clone)]
struct Layers {
    stat: [Stat; LAYERS],
    /// Distinct (harmonic, node) pairs among the gain-table calls.
    gain_pairs: u64,
    /// Fading steps the engine takes (the pass steps every packet even
    /// where the engine does not fade, to price the call).
    fading_calls: u64,
    /// Replayed time of the layers the engine itself runs.
    accounted_ms: f64,
}

impl Layers {
    fn record(&mut self, l: L, ms: f64, calls: u64) {
        let s = &mut self.stat[l as usize];
        s.ms += ms;
        s.calls += calls;
    }

    fn ms(&self, l: L) -> f64 {
        self.stat[l as usize].ms
    }

    fn calls(&self, l: L) -> u64 {
        self.stat[l as usize].calls
    }

    fn add(&mut self, o: &Layers) {
        for (s, t) in self.stat.iter_mut().zip(&o.stat) {
            s.ms += t.ms;
            s.calls += t.calls;
        }
        self.gain_pairs += o.gain_pairs;
        self.fading_calls += o.fading_calls;
        self.accounted_ms += o.accounted_ms;
    }

    /// Sums the passes the engine runs: the multi-AP planner only for the
    /// multi-AP engine, fading only where the engine fades.
    fn account(&mut self, multi: bool) {
        let mut run = vec![L::Sdm, L::Gain, L::Event, L::Trace, L::Interf, L::Ber];
        if multi {
            run.push(L::Plan);
        }
        if self.fading_calls > 0 {
            run.push(L::Fading);
        }
        self.accounted_ms = run.into_iter().map(|l| self.ms(l)).sum();
    }
}

fn aoa_at(ap: &ApStation, node: &NodeStation) -> Degrees {
    ((node.pose.position - ap.pose.position).bearing() - ap.pose.facing).wrapped()
}

fn ap_id(a: usize) -> ApId {
    ApId(u16::try_from(a).expect("workload AP counts fit an ApId"))
}

fn trace_one(
    room: &Room,
    exponent: f64,
    second_order: bool,
    node: &NodeStation,
    ap: &ApStation,
    blockers: &[HumanBlocker],
    paths: &mut Vec<PropPath>,
) -> BeamChannel {
    let tracer =
        Tracer::new(room, node.front_end().channel(), exponent).with_second_order(second_order);
    beam_channel_into(
        &tracer,
        node.pose,
        ap.pose,
        node.beams(),
        ap.element(),
        blockers,
        paths,
    )
}

/// Arrival power through the stronger beam, as the engines compute it.
fn arrival(node: &NodeStation, loss: Db, ch: &BeamChannel) -> DbmPower {
    node.front_end().antenna_power() - loss + ch.gain(ch.stronger_beam())
}

/// The engines' SINR: node `i`'s own power through its harmonic row
/// against thermal noise plus every other active node's arrival power,
/// harmonic gain and adjacent-channel leakage.
fn sinr_at(
    row: &[Db],
    noise: DbmPower,
    i: usize,
    own: DbmPower,
    rx: &[DbmPower],
    slots: &[SdmSlot],
    active: &[bool],
) -> Db {
    let interference = (0..rx.len()).filter(|&j| j != i && active[j]).map(|j| {
        rx[j] + row[j] + adjacent_channel_leakage(slots[i].channel.abs_diff(slots[j].channel))
    });
    own + row[i] - DbmPower::power_sum(std::iter::once(noise).chain(interference))
}

/// Row `h` of AP `a`'s gain table, which holds every harmonic from −N/2.
fn gain_row<'a>(gains: &'a [Vec<Vec<Db>>], tmas: &[&Tma], a: usize, h: i32) -> &'a [Db] {
    let half = i32::try_from(tmas[a].len() / 2).expect("TMA sizes fit an i32");
    let k = usize::try_from(h + half).expect("harmonics lie in [-N/2, N/2)");
    &gains[a][k]
}

/// Gain of running symbols slower than the channel is wide.
fn processing_gain(bandwidth: Hertz, rate: BitRate) -> Db {
    Db::new(10.0 * (bandwidth.hz() / (1.25 * rate.bps())).log10()).max(Db::ZERO)
}

fn packet_error(snr: Db, separation: Db, air_bits: usize) -> f64 {
    let ber = joint_ber(snr, separation, Db::new(ASK_THRESHOLD_DB));
    1.0 - (1.0 - ber).powi(i32::try_from(air_bits).expect("packet sizes fit an i32"))
}

/// Blockers in force after each mobility step, walked as the engines walk
/// them: same start points, same master-seed stream.
fn blocker_timeline(
    room: &Room,
    walkers: usize,
    seed: u64,
    step: Seconds,
    duration: Seconds,
) -> Vec<Vec<HumanBlocker>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws: Vec<RandomWaypoint> = (0..walkers)
        .map(|k| {
            let start = Vec2::new(
                room.width() * (0.25 + 0.5 * (k as f64 / walkers.max(1) as f64)),
                room.depth() * 0.5,
            );
            RandomWaypoint::new(room, start, 1.4, 0.3, &mut rng)
        })
        .collect();
    let snapshot = |ws: &[RandomWaypoint]| -> Vec<HumanBlocker> {
        ws.iter()
            .map(|w| HumanBlocker::typical(w.position()))
            .collect()
    };
    let steps = (duration.value() / step.value()) as usize;
    let mut out = vec![snapshot(&ws)];
    for _ in 0..steps {
        for w in &mut ws {
            w.step(room, step.value(), &mut rng);
        }
        out.push(snapshot(&ws));
    }
    out
}

enum Ev {
    Step,
    Packet(usize),
    Control,
}

/// Replays the packet schedule through `EventQueue`: each node from its
/// start at its packet interval until it has sent what the engine
/// reported, the mobility steps, and `control` control-plane deliveries
/// spread evenly over the run. Returns each packet's (node, mobility
/// epoch) in pop order and the queue operations made.
fn schedule(
    nodes: &[NodeStation],
    starts: &[Option<Seconds>],
    sent: &[u64],
    step: Seconds,
    duration: Seconds,
    control: u64,
) -> (Vec<(usize, usize)>, u64) {
    let mut q = EventQueue::new();
    let mut ops = 1u64;
    q.schedule_at(Seconds::ZERO + step, Ev::Step)
        .expect("the first step is ahead of t = 0");
    for (i, &start) in starts.iter().enumerate() {
        if let Some(t0) = start.filter(|_| sent[i] > 0) {
            q.schedule_at(t0, Ev::Packet(i))
                .expect("starts are ahead of t = 0");
            ops += 1;
        }
    }
    for k in 0..control {
        q.schedule_at(duration * ((k as f64 + 0.5) / control as f64), Ev::Control)
            .expect("control deliveries are inside the run");
        ops += 1;
    }
    let mut left = sent.to_vec();
    let mut epoch = 0;
    let mut seq = Vec::with_capacity(sent.iter().sum::<u64>() as usize);
    while let Some((t, ev)) = q.pop() {
        ops += 1;
        if t > duration {
            break;
        }
        match ev {
            Ev::Step => {
                epoch += 1;
                q.schedule_in(step, Ev::Step).expect("the step is positive");
                ops += 1;
            }
            Ev::Packet(i) => {
                seq.push((i, epoch));
                left[i] -= 1;
                if left[i] > 0 {
                    q.schedule_at(t + nodes[i].packet_interval(), Ev::Packet(i))
                        .expect("the interval is positive");
                    ops += 1;
                }
            }
            Ev::Control => {}
        }
    }
    (seq, ops)
}

/// Fades each packet's channel with its node's own stream; the channels
/// keep the faded value only when the engine fades.
fn fading_pass(
    fading: Option<FadingConfig>,
    seed: u64,
    nodes: usize,
    seq: &[(usize, usize)],
    chans: &mut [BeamChannel],
    sp: &mut Spans,
    l: &mut Layers,
) {
    let f = fading.unwrap_or_else(FadingConfig::indoor);
    let mut faders: Vec<(StdRng, FadingProcess)> = (0..nodes)
        .map(|i| {
            let mut rng = node_stream(seed, i);
            let p = FadingProcess::new(Rician::new(Db::new(f.k_db)), f.rho, &mut rng);
            (rng, p)
        })
        .collect();
    let ((), ms) = sp.time("channel::fading", || {
        for (ch, &(i, _)) in chans.iter_mut().zip(seq) {
            let (rng, p) = &mut faders[i];
            let faded = p.step(ch, rng);
            if fading.is_some() {
                *ch = faded;
            } else {
                black_box(faded);
            }
        }
    });
    l.record(L::Fading, ms, seq.len() as u64);
    if fading.is_some() {
        l.fading_calls += seq.len() as u64;
    }
}

fn replay_single(t: &SingleAp, report: &NetworkReport, sp: &mut Spans) -> Result<Layers, String> {
    let cfg = &t.cfg;
    let (ap, nodes) = (&t.ap, &t.nodes);
    let n = nodes.len();
    let mut l = Layers::default();
    let aoa: Vec<Degrees> = nodes.iter().map(|nd| aoa_at(ap, nd)).collect();
    let capacity = cfg.plan.capacity(cfg.sdm_channel_width).max(1);

    let (planned, ms) = sp.time("net::sdm", || -> Result<(Vec<SdmSlot>, bool), String> {
        let mut admission = Admission::new(cfg.plan.clone());
        if nodes
            .iter()
            .all(|nd| admission.join(nd.id, nd.demand).is_ok())
        {
            let fdm = (0..n)
                .map(|i| SdmSlot {
                    channel: i,
                    harmonic: 0,
                })
                .collect();
            return Ok((fdm, false));
        }
        let tma = ap
            .tma()
            .cloned()
            .ok_or_else(|| "SDM is needed but the AP has no TMA".to_string())?;
        let slots = SdmScheduler::new(tma)
            .schedule(&aoa, capacity)
            .map_err(|e| format!("{e:?}"))?;
        Ok((slots, true))
    });
    let (slots, used_sdm) = planned?;
    l.record(L::Sdm, ms, 1);
    if !slots.iter().eq(report.nodes.iter().map(|r| &r.slot)) {
        return Err("replayed SDM schedule differs from the slots the engine reported".into());
    }

    // The reuse planner a one-AP `MultiApSim` would run here. The
    // single-AP engine does not run it, so it prices the call only.
    let std_cfg = MultiApConfig::standard();
    let cover = [ApCoverage::new(
        ap.pose,
        std_cfg.coverage_half_angle,
        std_cfg.coverage_range_m,
    )];
    let (plan, ms) = sp.time("net::multi_ap", || HarmonicReusePlan::new(&cover, capacity));
    black_box(plan.map_err(|e| format!("{e:?}"))?);
    l.record(L::Plan, ms, 0);

    let (gains, ms) = sp.time("antenna::tma", || {
        let tma = ap.tma().filter(|_| used_sdm)?;
        Some(
            slots
                .iter()
                .map(|s| {
                    aoa.iter()
                        .map(|&az| tma.harmonic_gain(s.harmonic, az))
                        .collect()
                })
                .collect::<Vec<Vec<Db>>>(),
        )
    });
    if gains.is_some() {
        let harmonics: BTreeSet<i32> = slots.iter().map(|s| s.harmonic).collect();
        l.record(L::Gain, ms, (n * n) as u64);
        l.gain_pairs += (harmonics.len() * n) as u64;
    } else {
        l.record(L::Gain, ms, 0);
    }

    let sent: Vec<u64> = report.nodes.iter().map(|r| r.sent).collect();
    let starts: Vec<Option<Seconds>> = nodes
        .iter()
        .enumerate()
        .map(|(i, nd)| {
            Some(
                nd.active_from
                    .max(nd.packet_interval() * (i as f64 / n as f64)),
            )
        })
        .collect();
    let control = report.recovery.control_sent;
    let ((seq, ops), ms) = sp.time("net::event", || {
        schedule(nodes, &starts, &sent, cfg.step, cfg.duration, control)
    });
    l.record(L::Event, ms, ops);

    let blockers = blocker_timeline(&t.room, cfg.walkers, cfg.seed, cfg.step, cfg.duration);
    let last = blockers.len() - 1;
    let mut paths = Vec::new();
    let (ple, second) = (cfg.path_loss_exponent, cfg.second_order_reflections);
    let ((initial, mut chans), ms) = sp.time("channel::trace", || {
        let initial: Vec<BeamChannel> = nodes
            .iter()
            .map(|nd| trace_one(&t.room, ple, second, nd, ap, &blockers[0], &mut paths))
            .collect();
        let chans: Vec<BeamChannel> = seq
            .iter()
            .map(|&(i, e)| {
                let b = &blockers[e.min(last)];
                trace_one(&t.room, ple, second, &nodes[i], ap, b, &mut paths)
            })
            .collect();
        (initial, chans)
    });
    l.record(L::Trace, ms, (n + seq.len()) as u64);

    fading_pass(cfg.fading, cfg.seed, n, &seq, &mut chans, sp, &mut l);

    // Power control, set once from the initial arrivals.
    let loss = cfg.implementation_loss;
    let rx0: Vec<DbmPower> = nodes
        .iter()
        .zip(&initial)
        .map(|(nd, ch)| arrival(nd, loss, ch))
        .collect();
    let backoff: Vec<Db> = if cfg.power_control && n > 1 {
        let floor = rx0
            .iter()
            .copied()
            .fold(DbmPower::new(f64::INFINITY), DbmPower::min);
        rx0.iter()
            .map(|&p| (p - floor).clamp(Db::ZERO, cfg.max_backoff))
            .collect()
    } else {
        vec![Db::ZERO; n]
    };
    let mut rx: Vec<DbmPower> = rx0.iter().zip(&backoff).map(|(&p, &b)| p - b).collect();
    let bandwidth = if used_sdm {
        cfg.sdm_channel_width
    } else {
        cfg.plan.width_for(nodes[0].demand)
    };
    let noise = thermal_noise_dbm(bandwidth, ap.noise_figure());
    let active = vec![true; n];
    let flat = vec![Db::ZERO; n];
    let (sinr, ms) = sp.time("net::interference", || {
        seq.iter()
            .zip(&chans)
            .map(|(&(i, _), ch)| {
                let own = arrival(&nodes[i], loss, ch) - backoff[i];
                let row = gains.as_ref().map_or(&flat[..], |g| &g[i][..]);
                let s = sinr_at(row, noise, i, own, &rx, &slots, &active);
                rx[i] = own;
                s
            })
            .collect::<Vec<Db>>()
    });
    l.record(L::Interf, ms, seq.len() as u64);

    let rate_cap = cfg.plan.rate_for(cfg.sdm_channel_width);
    let proc_gain: Vec<Db> = nodes
        .iter()
        .map(|nd| {
            let rate = if used_sdm {
                nd.demand.min(rate_cap)
            } else {
                nd.demand
            };
            processing_gain(bandwidth, rate)
        })
        .collect();
    let (per, ms) = sp.time("phy::ber", || {
        seq.iter()
            .zip(&chans)
            .zip(&sinr)
            .map(|((&(i, _), ch), &s)| {
                packet_error(
                    s + proc_gain[i],
                    ch.level_separation(),
                    nodes[i].packet_air_bits(),
                )
            })
            .sum::<f64>()
    });
    black_box(per);
    l.record(L::Ber, ms, seq.len() as u64);

    l.account(false);
    Ok(l)
}

fn replay_multi(
    m: &MultiAp,
    report: &MultiApReport,
    arbiter_msgs: u64,
    sp: &mut Spans,
) -> Result<Layers, String> {
    let cfg = &m.cfg;
    let (aps, nodes) = (&m.aps, &m.nodes);
    let (na, nn) = (aps.len(), nodes.len());
    let mut l = Layers::default();
    let tmas: Vec<&Tma> = aps
        .iter()
        .map(|a| {
            a.tma()
                .ok_or_else(|| "every multi-AP member needs a TMA".to_string())
        })
        .collect::<Result<_, _>>()?;
    let capacity = cfg.plan.capacity(cfg.sdm_channel_width).max(1);
    let (ple, loss) = (cfg.path_loss_exponent, cfg.implementation_loss);
    let blockers = blocker_timeline(&m.room, cfg.walkers, cfg.seed, cfg.step, cfg.duration);
    let last = blockers.len() - 1;
    let mut paths = Vec::new();

    let (geometry, plan_ms) = sp.time("net::multi_ap", || -> Result<_, String> {
        let coverage: Vec<ApCoverage> = aps
            .iter()
            .map(|a| ApCoverage::new(a.pose, cfg.coverage_half_angle, cfg.coverage_range_m))
            .collect();
        let reuse = HarmonicReusePlan::new(&coverage, capacity).map_err(|e| format!("{e:?}"))?;
        let aoa: Vec<Vec<Degrees>> = aps
            .iter()
            .map(|a| nodes.iter().map(|nd| aoa_at(a, nd)).collect())
            .collect();
        let in_cone: Vec<Vec<bool>> = coverage
            .iter()
            .map(|c| {
                nodes
                    .iter()
                    .map(|nd| c.contains(nd.pose.position))
                    .collect()
            })
            .collect();
        let cand: Vec<Vec<i32>> = tmas
            .iter()
            .zip(&aoa)
            .map(|(t, a)| t.assign_harmonics(a))
            .collect();
        Ok((reuse, aoa, in_cone, cand))
    });
    let (reuse, aoa, in_cone, cand) = geometry?;

    let (rx0, trace0_ms) = sp.time("channel::trace", || {
        aps.iter()
            .map(|a| {
                nodes
                    .iter()
                    .map(|nd| {
                        let ch = trace_one(&m.room, ple, false, nd, a, &blockers[0], &mut paths);
                        arrival(nd, loss, &ch)
                    })
                    .collect::<Vec<DbmPower>>()
            })
            .collect::<Vec<_>>()
    });

    // Association (in-cone first, then arrival power, ties to the lower
    // AP) and the per-harmonic admission cap, in node order.
    let ((serving, admitted), assoc_ms) = sp.time("net::multi_ap", || {
        let serving: Vec<usize> = (0..nn)
            .map(|i| {
                let mut best = 0;
                for a in 1..na {
                    let better = match (in_cone[a][i], in_cone[best][i]) {
                        (true, false) => true,
                        (false, true) => false,
                        _ => rx0[a][i] > rx0[best][i],
                    };
                    if better {
                        best = a;
                    }
                }
                best
            })
            .collect();
        let mut admitted = vec![true; nn];
        for (a, cand_a) in cand.iter().enumerate() {
            let cap = reuse.channels_of(ap_id(a)).len();
            let mut per_h: BTreeMap<i32, usize> = BTreeMap::new();
            for i in (0..nn).filter(|&i| serving[i] == a) {
                let c = per_h.entry(cand_a[i]).or_insert(0);
                if *c >= cap {
                    admitted[i] = false;
                } else {
                    *c += 1;
                }
            }
        }
        (serving, admitted)
    });
    l.record(L::Plan, plan_ms + assoc_ms, 1);

    let (slots, ms) = sp.time("net::sdm", || -> Result<Vec<SdmSlot>, String> {
        let mut slots = vec![
            SdmSlot {
                channel: 0,
                harmonic: 0
            };
            nn
        ];
        for a in 0..na {
            let members: Vec<usize> = (0..nn)
                .filter(|&i| serving[i] == a && admitted[i])
                .collect();
            if members.is_empty() {
                continue;
            }
            let chs = reuse.channels_of(ap_id(a));
            let member_aoa: Vec<Degrees> = members.iter().map(|&i| aoa[a][i]).collect();
            let local = SdmScheduler::new(tmas[a].clone())
                .schedule(&member_aoa, chs.len())
                .map_err(|e| format!("{e:?}"))?;
            for (k, &i) in members.iter().enumerate() {
                slots[i] = SdmSlot {
                    channel: chs[local[k].channel],
                    harmonic: local[k].harmonic,
                };
            }
        }
        Ok(slots)
    });
    let slots = slots?;
    l.record(L::Sdm, ms, na as u64);
    // A node that never handed off still holds its set-up slot and AP.
    for (i, r) in report.nodes.iter().enumerate() {
        let unmoved = r.handoffs == 0 && admitted[i];
        if r.admitted != admitted[i]
            || (unmoved && (r.slot != slots[i] || r.ap.index() != serving[i]))
        {
            return Err(format!(
                "replayed SDM schedule differs from the engine's at node {i}"
            ));
        }
    }

    let (gains, ms) = sp.time("antenna::tma", || {
        tmas.iter()
            .zip(&aoa)
            .map(|(t, a)| {
                t.harmonics()
                    .into_iter()
                    .map(|h| {
                        a.iter()
                            .map(|&az| t.harmonic_gain(h, az))
                            .collect::<Vec<Db>>()
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let calls: u64 = tmas.iter().map(|t| (t.harmonics().len() * nn) as u64).sum();
    l.record(L::Gain, ms, calls);
    l.gain_pairs += calls;

    let sent: Vec<u64> = report.nodes.iter().map(|r| r.sent).collect();
    let starts: Vec<Option<Seconds>> = nodes
        .iter()
        .enumerate()
        .map(|(i, nd)| admitted[i].then(|| nd.packet_interval() * (i as f64 / nn as f64)))
        .collect();
    let ((seq, ops), ms) = sp.time("net::event", || {
        schedule(nodes, &starts, &sent, cfg.step, cfg.duration, arbiter_msgs)
    });
    l.record(L::Event, ms, ops);

    let (mut chans, ms) = sp.time("channel::trace", || {
        seq.iter()
            .map(|&(i, e)| {
                let b = &blockers[e.min(last)];
                aps.iter()
                    .map(|a| trace_one(&m.room, ple, false, &nodes[i], a, b, &mut paths))
                    .collect::<Vec<BeamChannel>>()
            })
            .collect::<Vec<_>>()
    });
    l.record(L::Trace, trace0_ms + ms, ((nn + seq.len()) * na) as u64);

    // Fading perturbs the serving link only.
    let mut serving_chans: Vec<BeamChannel> = seq
        .iter()
        .zip(&chans)
        .map(|(&(i, _), c)| c[serving[i]])
        .collect();
    fading_pass(
        cfg.fading,
        cfg.seed,
        nn,
        &seq,
        &mut serving_chans,
        sp,
        &mut l,
    );
    for ((&(i, _), c), s) in seq.iter().zip(&mut chans).zip(&serving_chans) {
        c[serving[i]] = *s;
    }

    let noise: Vec<DbmPower> = aps
        .iter()
        .map(|a| thermal_noise_dbm(cfg.sdm_channel_width, a.noise_figure()))
        .collect();
    let mut rx = rx0;
    let ((sinr, evals), ms) = sp.time("net::interference", || {
        let mut evals = 0u64;
        let sinr: Vec<Db> = seq
            .iter()
            .zip(&chans)
            .map(|(&(i, _), chs)| {
                let p: Vec<DbmPower> = chs.iter().map(|ch| arrival(&nodes[i], loss, ch)).collect();
                let a = serving[i];
                let row = gain_row(&gains, &tmas, a, slots[i].harmonic);
                let s = sinr_at(row, noise[a], i, p[a], &rx[a], &slots, &admitted);
                evals += 1;
                // The roaming view: SINR at every other AP covering the node.
                for b in (0..na).filter(|&b| b != a && in_cone[b][i]) {
                    let row = gain_row(&gains, &tmas, b, cand[b][i]);
                    black_box(sinr_at(row, noise[b], i, p[b], &rx[b], &slots, &admitted));
                    evals += 1;
                }
                for (rx_a, &pa) in rx.iter_mut().zip(&p) {
                    rx_a[i] = pa;
                }
                s
            })
            .collect();
        (sinr, evals)
    });
    l.record(L::Interf, ms, evals);

    let rate = cfg.plan.rate_for(cfg.sdm_channel_width);
    let proc_gain: Vec<Db> = nodes
        .iter()
        .map(|nd| processing_gain(cfg.sdm_channel_width, nd.demand.min(rate)))
        .collect();
    let (per, ms) = sp.time("phy::ber", || {
        seq.iter()
            .zip(&serving_chans)
            .zip(&sinr)
            .map(|((&(i, _), ch), &s)| {
                packet_error(
                    s + proc_gain[i],
                    ch.level_separation(),
                    nodes[i].packet_air_bits(),
                )
            })
            .sum::<f64>()
    });
    black_box(per);
    l.record(L::Ber, ms, seq.len() as u64);

    l.account(true);
    Ok(l)
}

/// Inter-AP messages the arbiter handled, counted from the trace.
fn arbiter_msgs(rec: &Recorder) -> u64 {
    rec.trace().iter().filter(|e| e.kind == "apmsg").count() as u64
}

fn replay(
    sc: &Scenario,
    reports: &Reports,
    recs: &[Recorder],
    sp: &mut Spans,
) -> Result<Layers, String> {
    match (sc, reports) {
        (Scenario::Single(ts), Reports::Single(rs)) => {
            let mut sum = Layers::default();
            for (t, r) in ts.iter().zip(rs) {
                sum.add(&replay_single(t, r, sp)?);
            }
            Ok(sum)
        }
        (Scenario::Multi(m), Reports::Multi(r)) => replay_multi(m, r, arbiter_msgs(&recs[0]), sp),
        _ => unreachable!("a scenario's reports have its kind"),
    }
}

struct Cycle {
    engine_ms: f64,
    pool_ms: f64,
    batch_ms: f64,
    traced_ms: f64,
    layers: Layers,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: cycles of engine runs and a layer replay until
/// `seconds` are spent (at least one cycle); reports medians.
pub fn traced(w: Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    crate::check_recorded(w, tally);
    let scenario = Scenario::build(w, seed);
    let serial = scenario.clone().with_threads(1).prepare();
    let intra = scenario.clone().with_threads(nproc()).prepare();
    tally.attempted += 1;
    let reference = match serial.run_reports(1) {
        Ok(r) => r,
        Err(e) => {
            tally.fail(format!("reference run: engine error {e}"));
            return Vec::new();
        }
    };
    let expected = Some(reference.outcome().fingerprint);

    let mut sp = Spans::new();
    let mut cycles = Vec::new();
    let mut obs = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let root = sp.open("cycle");
        let (got, engine_ms) = sp.time("engine.run", || serial.run(1));
        tally.check("1-thread run", &got, expected);
        let (got, pool_ms) = sp.time("engine.run.intra_par", || intra.run(1));
        tally.check("intra-sim nproc-thread run", &got, expected);
        let (got, batch_ms) = sp.time("engine.run.batch_par", || serial.run(nproc()));
        tally.check("across-sim nproc-thread run", &got, expected);
        let mut recs = serial.recorders();
        let (got, traced_ms) = sp.time("engine.run_observed", || serial.run_observed(&mut recs));
        tally.check("traced run", &got, expected);
        let replay_span = sp.open("replay");
        let layers = replay(&scenario, &reference, &recs, &mut sp);
        sp.close(replay_span);
        sp.close(root);
        match layers {
            Ok(layers) => cycles.push(Cycle {
                engine_ms,
                pool_ms,
                batch_ms,
                traced_ms,
                layers,
            }),
            Err(e) => {
                tally.fail(e);
                break;
            }
        }
        obs = recs.iter().fold((0, 0, 0), |(e, b, a), r| {
            (
                e + r.trace().len() as u64 + r.trace().dropped(),
                b + r.trace_jsonl().len() as u64,
                a + arbiter_msgs(r),
            )
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    match sp.write(SPANS_PATH) {
        Ok(()) => println!("spans: {} written to {SPANS_PATH}", sp.spans.len()),
        Err(e) => eprintln!("mmxbench: could not write {SPANS_PATH}: {e}"),
    }
    if cycles.is_empty() {
        return Vec::new();
    }
    println!("cycles: {}", cycles.len());

    let med = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let ms = |k: L| med(&|c: &Cycle| c.layers.ms(k));
    let l = &cycles[0].layers;
    let calls = |k: L| l.calls(k);
    let per_call_us = |k: L| {
        if calls(k) == 0 {
            0.0
        } else {
            ms(k) * 1e3 / calls(k) as f64
        }
    };
    let engine_ms = med(&|c: &Cycle| c.engine_ms);
    let (ctl_sent, ctl_lost, retries, recoveries, sims) = match &reference {
        Reports::Single(rs) => rs.iter().fold((0, 0, 0, 0, 0u32), |(s, lo, re, rc, n), r| {
            let c = &r.recovery;
            (
                s + c.control_sent,
                lo + c.control_lost,
                re + c.control_retries,
                rc + c.recoveries,
                n + 1,
            )
        }),
        Reports::Multi(_) => (0, 0, 0, 0, 1),
    };
    let (completed, attempts) = match &reference {
        Reports::Multi(r) => (r.handoff.completed, r.handoff.attempts),
        Reports::Single(_) => (0, 0),
    };
    let (events, bytes, apmsgs) = obs;
    vec![
        Metric::new("sdm.schedule_ms", "ms", ms(L::Sdm)),
        Metric::new("tma.gain_table_ms", "ms", ms(L::Gain)),
        Metric::new("tma.gain_calls", "count", calls(L::Gain) as f64),
        Metric::new("tma.us_per_call", "us", per_call_us(L::Gain)),
        Metric::new(
            "tma.useful_call_frac",
            "ratio",
            ratio(l.gain_pairs, calls(L::Gain)),
        ),
        Metric::new("trace.calls", "count", calls(L::Trace) as f64),
        Metric::new("trace.us_per_call", "us", per_call_us(L::Trace)),
        Metric::new("trace.ms", "ms", ms(L::Trace)),
        Metric::new("fading.calls", "count", l.fading_calls as f64),
        Metric::new("fading.us_per_call", "us", per_call_us(L::Fading)),
        Metric::new("interference.calls", "count", calls(L::Interf) as f64),
        Metric::new("interference.us_per_call", "us", per_call_us(L::Interf)),
        Metric::new("interference.ms", "ms", ms(L::Interf)),
        Metric::new("ber.calls", "count", calls(L::Ber) as f64),
        Metric::new("ber.us_per_call", "us", per_call_us(L::Ber)),
        Metric::new("event.ops", "count", calls(L::Event) as f64),
        Metric::new("event.us_per_op", "us", per_call_us(L::Event)),
        Metric::new("control.msgs", "count", ctl_sent as f64),
        Metric::new("control.loss_frac", "ratio", ratio(ctl_lost, ctl_sent)),
        Metric::new("control.retries", "count", retries as f64),
        Metric::new("control.recoveries", "count", recoveries as f64),
        Metric::new("multi_ap.plan_ms", "ms", ms(L::Plan)),
        Metric::new("multi_ap.arbiter_msgs", "count", apmsgs as f64),
        Metric::new("multi_ap.handoffs", "count", completed as f64),
        Metric::new("multi_ap.handoff_attempts", "count", attempts as f64),
        Metric::new(
            "multi_ap.handoff_success_frac",
            "ratio",
            ratio(completed, attempts),
        ),
        Metric::new("pool.threads", "count", nproc() as f64),
        Metric::new(
            "pool.speedup",
            "ratio",
            engine_ms / med(&|c: &Cycle| c.pool_ms),
        ),
        Metric::new("batch.sims", "count", f64::from(sims)),
        Metric::new(
            "batch.speedup",
            "ratio",
            engine_ms / med(&|c: &Cycle| c.batch_ms),
        ),
        Metric::new(
            "obs.overhead_pct",
            "%",
            (med(&|c: &Cycle| c.traced_ms) / engine_ms - 1.0) * 100.0,
        ),
        Metric::new("obs.trace_events", "count", events as f64),
        Metric::new("obs.trace_bytes", "bytes", bytes as f64),
        Metric::new("engine.wall_ms", "ms", engine_ms),
        Metric::new(
            "engine.unaccounted_ms",
            "ms",
            med(&|c: &Cycle| c.engine_ms - c.layers.accounted_ms),
        ),
    ]
}
