//! Across-sim batch soak: two seeds of one large faulted, fading,
//! walker-heavy simulation run as a batch through the shared fan-out
//! (DESIGN.md §9) at 1 and `nproc` workers, byte-diffing everything each
//! run produces — the packet trace, the recovery metrics, the
//! observability JSONL, the rendered metrics registry, and a CSV
//! rendering of the per-node reports.
//!
//! The node count defaults to a tier-1-friendly 48; the CI `batch_soak`
//! job widens it to 200 via the `MMX_SOAK_NODES` environment variable.

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_net::ap::ApStation;
use mmx_net::node::NodeStation;
use mmx_net::sim::{run_batch_map, FadingConfig, NetworkReport, NetworkSim, SimConfig};
use mmx_net::FaultConfig;
use mmx_units::{BitRate, Degrees, Hertz, Seconds};

fn soak_nodes() -> usize {
    std::env::var("MMX_SOAK_NODES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(48)
}

/// A dense sensor network exercising every gather-phase code path:
/// control-plane faults, Rician fading, walker blockage, SDM spatial
/// reuse and per-node RNG streams.
fn scale_network(n: usize, seed: u64) -> NetworkSim {
    let room = Room::rectangular(6.0, 4.0, Material::Drywall);
    let ap_pos = Vec2::new(5.7, 2.0);
    let ap = ApStation::with_tma(
        Pose::new(ap_pos, Degrees::new(180.0)),
        32,
        Hertz::from_mhz(1.0),
    );
    let mut cfg = SimConfig::standard();
    cfg.duration = Seconds::new(0.5);
    cfg.seed = seed;
    cfg.walkers = 2;
    cfg.fading = Some(FadingConfig::indoor());
    cfg.faults = Some(FaultConfig::lossy(0.1));
    cfg.sdm_channel_width = Hertz::from_mhz(3.0);
    cfg.record_trace = true;
    let mut sim = NetworkSim::new(room, ap, cfg);
    for i in 0..n {
        // A deterministic fan of positions inside the AP's field of
        // view (golden-angle spiral keeps neighbors apart).
        let frac = (i as f64 + 0.5) / n as f64;
        let bearing = Degrees::new(180.0 - 50.0 + 100.0 * frac);
        let dist = 1.2 + 2.4 * ((i as f64 * 0.618_033_988_75).fract());
        let pos = ap_pos + Vec2::from_bearing(bearing) * dist;
        let pose = Pose::facing_toward(pos, ap_pos);
        sim.add_node(NodeStation::new(i as u16, pose, BitRate::from_mbps(1.0)));
    }
    sim
}

/// CSV rendering of the per-node reports — the byte-diff surface for
/// the "CSVs identical" acceptance check (floats print via Rust's
/// shortest-round-trip formatter, a pure function of the bit pattern).
fn to_csv(report: &NetworkReport) -> String {
    let mut out = String::from("id,sent,delivered,mean_sinr_db,min_sinr_db,per,goodput_bps\n");
    for r in &report.nodes {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.id, r.sent, r.delivered, r.mean_sinr_db, r.min_sinr_db, r.per, r.goodput_bps
        ));
    }
    out
}

/// Runs seeds 23 and 24 as one batch on `workers` threads: per run, the
/// report, the JSONL trace and the rendered registry.
fn run_at(n: usize, workers: usize) -> Vec<(NetworkReport, String, String)> {
    let sims: Vec<NetworkSim> = (23..25).map(|seed| scale_network(n, seed)).collect();
    run_batch_map(&sims, workers, |sim| {
        let mut rec = mmx_obs::Recorder::enabled();
        let report = sim.run_observed(&mut rec).expect("soak sim runs");
        (report, rec.trace_jsonl(), rec.registry().render())
    })
}

#[test]
fn soak_byte_identical_at_1_and_nproc_workers() {
    let n = soak_nodes();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let serial = run_at(n, 1);
    let parallel = run_at(n, nproc.max(2));
    assert_ne!(
        serial[0].0.nodes, serial[1].0.nodes,
        "the two seeds must differ"
    );
    for ((s, s_jsonl, s_registry), (p, p_jsonl, p_registry)) in serial.iter().zip(&parallel) {
        assert!(!s.trace.is_empty(), "soak run must trace packets");
        assert!(!s_jsonl.is_empty(), "soak run must trace events");
        assert_eq!(s.nodes, p.nodes, "{n}-node per-node reports diverge");
        assert_eq!(s.trace, p.trace, "{n}-node packet traces diverge");
        assert_eq!(s.recovery, p.recovery, "{n}-node recovery metrics diverge");
        assert_eq!(s_jsonl, p_jsonl, "{n}-node observability JSONL diverges");
        assert_eq!(
            s_registry, p_registry,
            "{n}-node metrics registries diverge"
        );
        assert_eq!(to_csv(s), to_csv(p), "{n}-node CSVs diverge");
    }
}
