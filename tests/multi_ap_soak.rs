//! Multi-AP coordination soak: a 4-cell corridor with fading, walker
//! blockage and a lossy inter-AP backhaul, run through the multi-AP
//! engine (DESIGN.md §10). Two seeds run as a batch through the shared
//! across-sim fan-out (DESIGN.md §9) at 1 and `nproc` workers and are
//! byte-diffed on everything each run produces — per-node reports, the
//! packet trace, the handoff/coordination counters, the observability
//! JSONL, the rendered metrics registry, and a CSV rendering of the
//! reports.
//!
//! The same seeded scenarios are the acceptance check for roaming: in
//! each, at least one handoff completes mid-run (its grant transferred
//! over the faulted backhaul) and make-before-break never
//! double-delivers.
//!
//! The node count defaults to a tier-1-friendly 64; the CI
//! `multi_ap_soak` job widens it to the acceptance point's 300 via the
//! `MMX_SOAK_NODES` environment variable.

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_net::ap::ApStation;
use mmx_net::multi_ap::{MultiApConfig, MultiApReport, MultiApSim};
use mmx_net::node::NodeStation;
use mmx_net::pool;
use mmx_net::sim::FadingConfig;
use mmx_net::FaultConfig;
use mmx_units::{BitRate, Degrees, Hertz, Seconds};

fn soak_nodes() -> usize {
    std::env::var("MMX_SOAK_NODES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(64)
}

const CORRIDOR_W: f64 = 16.0;
const CORRIDOR_D: f64 = 4.0;

/// The 4-AP corridor under stress: every multi-AP gather-phase code
/// path at once — fading, walker blockage, cross-cell interference,
/// roaming hysteresis, and a lossy epoch-stamped backhaul.
fn corridor(n: usize, seed: u64) -> MultiApSim {
    let room = Room::rectangular(CORRIDOR_W, CORRIDOR_D, Material::Drywall);
    let mut cfg = MultiApConfig::standard();
    cfg.seed = seed;
    cfg.duration = Seconds::new(2.0);
    cfg.sdm_channel_width = Hertz::from_mhz(1.5);
    cfg.path_loss_exponent = 2.6;
    cfg.coverage_range_m = 4.5;
    cfg.walkers = 2;
    cfg.fading = Some(FadingConfig::indoor());
    cfg.inter_ap_faults = Some(FaultConfig::lossy(0.25));
    cfg.record_trace = true;
    let mut sim = MultiApSim::new(room, cfg);
    for k in 0..4 {
        let x = CORRIDOR_W * (k as f64 + 0.5) / 4.0;
        sim.add_ap(ApStation::with_tma(
            Pose::new(Vec2::new(x, CORRIDOR_D - 0.3), Degrees::new(270.0)),
            16,
            Hertz::from_mhz(1.0),
        ));
    }
    for i in 0..n {
        let fx = ((i as f64 + 0.5) * 0.618_033_988_75).fract();
        let fy = ((i as f64 + 0.5) * 0.381_966_011_25).fract();
        let pos = Vec2::new(0.6 + fx * (CORRIDOR_W - 1.2), 0.6 + fy * 2.0);
        sim.add_node(NodeStation::new(
            i as u16,
            Pose::new(pos, Degrees::new(90.0)),
            BitRate::from_mbps(1.0),
        ));
    }
    sim
}

/// CSV rendering of the per-node reports — the byte-diff surface for
/// the "CSVs identical" acceptance check (floats print via Rust's
/// shortest-round-trip formatter, a pure function of the bit pattern).
fn to_csv(report: &MultiApReport) -> String {
    let mut out =
        String::from("id,admitted,ap,sent,delivered,mean_sinr_db,per,goodput_bps,handoffs\n");
    for r in &report.nodes {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.id,
            r.admitted,
            r.ap.index(),
            r.sent,
            r.delivered,
            r.mean_sinr_db,
            r.per,
            r.goodput_bps,
            r.handoffs
        ));
    }
    out
}

/// Runs seeds 23 and 24 as one batch on `workers` threads: per run, the
/// report, the JSONL trace and the rendered registry.
fn run_at(n: usize, workers: usize) -> Vec<(MultiApReport, String, String)> {
    pool::run_indexed(2, workers, |k| {
        let mut rec = mmx_obs::Recorder::enabled();
        let report = corridor(n, 23 + k as u64)
            .run_observed(&mut rec)
            .expect("soak sim runs");
        (report, rec.trace_jsonl(), rec.registry().render())
    })
}

#[test]
fn soak_byte_identical_at_1_and_nproc_workers() {
    let n = soak_nodes();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let serial = run_at(n, 1);
    let parallel = run_at(n, nproc.max(2));
    assert_ne!(serial[0].0, serial[1].0, "the two seeds must differ");
    for ((s, s_jsonl, s_registry), (p, p_jsonl, p_registry)) in serial.iter().zip(&parallel) {
        assert!(!s.trace.is_empty(), "soak run must trace packets");
        assert!(!s_jsonl.is_empty(), "soak run must trace events");

        // The seeded roaming acceptance: fading + blockage push at
        // least one node across the hysteresis, its grant transfers
        // over the lossy backhaul, and make-before-break never
        // double-delivers.
        assert!(
            s.handoff.completed >= 1,
            "soak scenario must complete a mid-run handoff: {:?}",
            s.handoff
        );
        assert_eq!(
            s.handoff.duplicate_deliveries, 0,
            "make-before-break must not double-deliver"
        );

        assert_eq!(s.nodes, p.nodes, "{n}-node per-node reports diverge");
        assert_eq!(s.trace, p.trace, "{n}-node packet traces diverge");
        assert_eq!(s.handoff, p.handoff, "{n}-node handoff counters diverge");
        assert_eq!(
            s.per_ap_admitted, p.per_ap_admitted,
            "{n}-node admission split diverges"
        );
        assert_eq!(s_jsonl, p_jsonl, "{n}-node observability JSONL diverges");
        assert_eq!(
            s_registry, p_registry,
            "{n}-node metrics registries diverge"
        );
        assert_eq!(to_csv(s), to_csv(p), "{n}-node CSVs diverge");
    }
}
