//! The benchmark's workloads: every topology is built here from the
//! engines' public constructors and is a pure function of the seed.
//!
//! | workload | engine | what it stresses |
//! |---|---|---|
//! | `single_ap_500` | `NetworkSim` fault-free | the O(N²) TMA gain table in set-up |
//! | `faulted_200` | `NetworkSim` faulted | control plane and per-packet gather |
//! | `multi_ap_4x600` | `MultiApSim` | gather, interference and roaming |
//! | `fig13_batch` | 100 small `NetworkSim`s | per-sim fixed cost and across-sim fan-out |

use crate::fingerprint::Fnv;
use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_net::ap::ApStation;
use mmx_net::multi_ap::{MultiApConfig, MultiApReport, MultiApSim};
use mmx_net::node::NodeStation;
use mmx_net::sim::{run_batch_with_threads, FadingConfig, NetworkSim, SimConfig};
use mmx_net::{FaultConfig, NetworkReport};
use mmx_obs::Recorder;
use mmx_units::{BitRate, Degrees, Hertz, Seconds};
use rand::{Rng, SeedableRng};

/// The workloads, by the name the command line takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 500 × 1 Mbps sensors, one AP with a 32-element TMA, 50 ms.
    SingleAp500,
    /// 200 sensors on the same AP with a lossy control plane, Rician
    /// fading and two walkers, 1 s.
    Faulted200,
    /// The multi-AP corridor: 4 APs, 600 nodes, 250 ms.
    MultiAp4x600,
    /// The paper's Fig. 13: 20 topologies each of 1/2/5/10/20 nodes.
    Fig13Batch,
}

const ALL: [Workload; 4] = [
    Workload::SingleAp500,
    Workload::Faulted200,
    Workload::MultiAp4x600,
    Workload::Fig13Batch,
];

/// Fig. 13's x-axis and its topologies per point (§9.5: 100 experiments).
const FIG13_COUNTS: [usize; 5] = [1, 2, 5, 10, 20];
const FIG13_TOPOLOGIES: u64 = 20;

const CORRIDOR_W: f64 = 16.0;
const CORRIDOR_D: f64 = 4.0;

impl Workload {
    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleAp500 => "single_ap_500",
            Workload::Faulted200 => "faulted_200",
            Workload::MultiAp4x600 => "multi_ap_4x600",
            Workload::Fig13Batch => "fig13_batch",
        }
    }
}

/// A single-AP topology kept as its parts, so the traced replay can walk
/// exactly the inputs the engine was given.
#[derive(Clone)]
pub struct SingleAp {
    pub room: Room,
    pub ap: ApStation,
    pub nodes: Vec<NodeStation>,
    pub cfg: SimConfig,
}

impl SingleAp {
    fn sim(&self) -> NetworkSim {
        let mut sim = NetworkSim::new(self.room.clone(), self.ap.clone(), self.cfg.clone());
        for n in &self.nodes {
            sim.add_node(n.clone());
        }
        sim
    }
}

/// A multi-AP topology kept as its parts.
#[derive(Clone)]
pub struct MultiAp {
    pub room: Room,
    pub aps: Vec<ApStation>,
    pub nodes: Vec<NodeStation>,
    pub cfg: MultiApConfig,
}

impl MultiAp {
    fn sim(&self) -> MultiApSim {
        let mut sim = MultiApSim::new(self.room.clone(), self.cfg.clone());
        for ap in &self.aps {
            sim.add_ap(ap.clone());
        }
        for n in &self.nodes {
            sim.add_node(n.clone());
        }
        sim
    }
}

/// One workload instance: the single-AP topologies it runs (one, or
/// Fig. 13's hundred), or one multi-AP topology.
#[derive(Clone)]
pub enum Scenario {
    Single(Vec<SingleAp>),
    Multi(MultiAp),
}

/// What one run of a scenario produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Hash of every simulated statistic the run reported.
    pub fingerprint: u64,
    /// Simulated packet transmissions across all sims.
    pub packets: u64,
}

/// Every report of one run of a scenario.
pub enum Reports {
    Single(Vec<NetworkReport>),
    Multi(MultiApReport),
}

impl Reports {
    pub fn outcome(&self) -> Outcome {
        let mut h = Fnv::new();
        let packets = match self {
            Reports::Single(rs) => rs
                .iter()
                .map(|r| {
                    h.network(r);
                    r.nodes.iter().map(|n| n.sent).sum::<u64>()
                })
                .sum(),
            Reports::Multi(r) => {
                h.multi_ap(r);
                r.nodes.iter().map(|n| n.sent).sum()
            }
        };
        Outcome {
            fingerprint: h.finish(),
            packets,
        }
    }
}

/// Built engines, ready to run: building stays outside the timed region.
pub enum Prepared {
    Single(Vec<NetworkSim>),
    Multi(MultiApSim),
}

impl Scenario {
    /// The workload's topology for `seed`.
    pub fn build(w: Workload, seed: u64) -> Self {
        match w {
            Workload::SingleAp500 => Scenario::Single(vec![scale_topology(500, seed)]),
            Workload::Faulted200 => {
                let mut t = scale_topology(200, seed);
                t.cfg.duration = Seconds::new(1.0);
                t.cfg.faults = Some(FaultConfig::lossy(0.1));
                t.cfg.fading = Some(FadingConfig::indoor());
                t.cfg.walkers = 2;
                Scenario::Single(vec![t])
            }
            Workload::MultiAp4x600 => Scenario::Multi(corridor(4, 600, seed)),
            Workload::Fig13Batch => Scenario::Single(
                FIG13_COUNTS
                    .iter()
                    .flat_map(|&n| {
                        (0..FIG13_TOPOLOGIES).map(move |t| {
                            fig13_topology(n, seed.wrapping_mul(10_000) + t * 100 + n as u64)
                        })
                    })
                    .collect(),
            ),
        }
    }

    /// The same topology with a different simulated duration (`0` leaves
    /// only set-up: slot planning, gain tables, context build).
    pub fn with_duration(mut self, d: Seconds) -> Self {
        match &mut self {
            Scenario::Single(ts) => ts.iter_mut().for_each(|t| t.cfg.duration = d),
            Scenario::Multi(m) => m.cfg.duration = d,
        }
        self
    }

    /// The same topology with `threads` intra-sim gather workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        match &mut self {
            Scenario::Single(ts) => ts.iter_mut().for_each(|t| t.cfg.threads = threads),
            Scenario::Multi(m) => m.cfg.threads = threads,
        }
        self
    }

    /// Builds the engines.
    pub fn prepare(&self) -> Prepared {
        match self {
            Scenario::Single(ts) => Prepared::Single(ts.iter().map(SingleAp::sim).collect()),
            Scenario::Multi(m) => Prepared::Multi(m.sim()),
        }
    }
}

impl Prepared {
    /// Runs every engine once, fanning independent sims over
    /// `batch_threads` workers.
    pub fn run_reports(&self, batch_threads: usize) -> Result<Reports, String> {
        match self {
            Prepared::Single(sims) => run_batch_with_threads(sims, batch_threads)
                .into_iter()
                .collect::<Result<_, _>>()
                .map(Reports::Single)
                .map_err(|e| format!("{e:?}")),
            Prepared::Multi(sim) => sim.run().map(Reports::Multi).map_err(|e| format!("{e:?}")),
        }
    }

    /// [`Prepared::run_reports`], fingerprinted.
    pub fn run(&self, batch_threads: usize) -> Result<Outcome, String> {
        self.run_reports(batch_threads).map(|r| r.outcome())
    }

    /// One enabled recorder per engine, for [`Prepared::run_observed`].
    pub fn recorders(&self) -> Vec<Recorder> {
        let n = match self {
            Prepared::Single(sims) => sims.len(),
            Prepared::Multi(_) => 1,
        };
        (0..n).map(|_| Recorder::enabled()).collect()
    }

    /// Runs every engine once, serially, tracing into `recs`.
    pub fn run_observed(&self, recs: &mut [Recorder]) -> Result<Outcome, String> {
        let reports = match self {
            Prepared::Single(sims) => sims
                .iter()
                .zip(recs.iter_mut())
                .map(|(s, r)| s.run_observed(r))
                .collect::<Result<_, _>>()
                .map(Reports::Single)
                .map_err(|e| format!("{e:?}"))?,
            Prepared::Multi(sim) => sim
                .run_observed(&mut recs[0])
                .map(Reports::Multi)
                .map_err(|e| format!("{e:?}"))?,
        };
        Ok(reports.outcome())
    }
}

/// A node in the single AP's ±55° field of view, at least 1 m out,
/// facing the AP within ±30° (the layout of the repository's Fig. 13
/// sweeps).
fn node_in_view(rng: &mut rand::rngs::StdRng, ap_pos: Vec2) -> Pose {
    let pos = loop {
        let p = Vec2::new(rng.gen_range(0.4..4.8), rng.gen_range(0.4..3.6));
        let bearing = (p - ap_pos).bearing() - Degrees::new(180.0);
        if bearing.wrapped().value().abs() < 55.0 && p.distance(ap_pos) > 1.0 {
            break p;
        }
    };
    let facing = (ap_pos - pos).bearing() + Degrees::new(rng.gen_range(-30.0..30.0));
    Pose::new(pos, facing)
}

/// `n` nodes of `rate` around one AP with a `tma`-element TMA in the
/// paper's 6 m × 4 m room, 50 ms, no walkers.
fn room_topology(n: usize, rate: BitRate, tma: usize, seed: u64, layout_seed: u64) -> SingleAp {
    let ap_pos = Vec2::new(5.7, 2.0);
    let mut cfg = SimConfig::standard();
    cfg.duration = Seconds::from_millis(50.0);
    cfg.walkers = 0;
    cfg.seed = seed;
    let mut rng = rand::rngs::StdRng::seed_from_u64(layout_seed);
    SingleAp {
        room: Room::rectangular(6.0, 4.0, Material::Drywall),
        ap: ApStation::with_tma(
            Pose::new(ap_pos, Degrees::new(180.0)),
            tma,
            Hertz::from_mhz(1.0),
        ),
        nodes: (0..n)
            .map(|i| {
                let id = u16::try_from(i).expect("workload node counts fit a NodeId");
                NodeStation::new(id, node_in_view(&mut rng, ap_pos), rate)
            })
            .collect(),
        cfg,
    }
}

/// The §7 scale-out AP: `n` 1 Mbps sensors, 32-element TMA, 3 MHz SDM
/// channels.
fn scale_topology(n: usize, seed: u64) -> SingleAp {
    let mut t = room_topology(n, BitRate::from_mbps(1.0), 32, seed, seed ^ 0x5CA1E);
    t.cfg.sdm_channel_width = Hertz::from_mhz(3.0);
    t
}

/// One Fig. 13 experiment: `n` 20 Mbps nodes, 16-element TMA.
fn fig13_topology(n: usize, seed: u64) -> SingleAp {
    room_topology(n, BitRate::from_mbps(20.0), 16, seed, seed ^ 0xF13)
}

/// The multi-AP corridor of the repository's `fig13_multi_ap` sweep:
/// `a` ceiling APs with 16-element TMAs along a 16 m × 4 m corridor and
/// `n` nodes on a golden-ratio fan whose phase the seed shifts.
fn corridor(a: usize, n: usize, seed: u64) -> MultiAp {
    let mut cfg = MultiApConfig::standard();
    cfg.seed = seed;
    cfg.duration = Seconds::from_millis(250.0);
    cfg.sdm_channel_width = Hertz::from_mhz(1.5);
    cfg.path_loss_exponent = 2.6;
    cfg.coverage_range_m = 4.5;
    let phase: f64 = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0_441D).gen_range(0.0..1.0);
    MultiAp {
        room: Room::rectangular(CORRIDOR_W, CORRIDOR_D, Material::Drywall),
        aps: (0..a)
            .map(|k| {
                let x = CORRIDOR_W * (k as f64 + 0.5) / a as f64;
                ApStation::with_tma(
                    Pose::new(Vec2::new(x, CORRIDOR_D - 0.3), Degrees::new(270.0)),
                    16,
                    Hertz::from_mhz(1.0),
                )
            })
            .collect(),
        nodes: (0..n)
            .map(|i| {
                let fx = ((i as f64 + phase) * 0.618_033_988_75).fract();
                let fy = ((i as f64 + phase) * 0.381_966_011_25).fract();
                let pos = Vec2::new(0.6 + fx * (CORRIDOR_W - 1.2), 0.6 + fy * 2.0);
                let id = u16::try_from(i).expect("workload node counts fit a NodeId");
                NodeStation::new(
                    id,
                    Pose::new(pos, Degrees::new(90.0)),
                    BitRate::from_mbps(1.0),
                )
            })
            .collect(),
        cfg,
    }
}
