//! Golden reports: bit-exact hashes of whole simulation runs, pinned so
//! that an engine refactor which claims "same behaviour" has to prove it.
//!
//! Each case runs one `SimConfig` switch (or a `MultiApSim` scenario)
//! with an enabled recorder and hashes three things with FNV-1a:
//! the report (every float by its bit pattern), the JSONL trace and the
//! rendered metrics registry. The single-AP switches are the ones that
//! neither `results/` nor the benchmark fingerprints all reach — power
//! control, rate adaptation, fading, the pacing blocker, second-order
//! reflections and a churn window — each run fault-free and with a 10%
//! lossy control plane, on an SDM load (the TMA gain table path) and on
//! an FDM load (the flat-gain path).
//!
//! The expected values were recorded from the engines as they stood
//! before the single-AP event loops were merged; the two handoff cases
//! (`multi_ap+abort`, which reaches handoff abort and grant resync, and
//! `handoff`, which reaches dual decodes) were recorded before the
//! multi-AP loop was folded into the same loop. The four
//! `mmx_core::scenario` cases (smart home with and without walkers, the
//! mall, the car cabin) were recorded while the presets were still built
//! through a separate builder API. If a change is *meant*
//! to alter behaviour, re-record them from the assertion message and say
//! so in CHANGES.md.

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_core::scenario;
use mmx_net::ap::ApStation;
use mmx_net::multi_ap::{MultiApConfig, MultiApReport, MultiApSim, PacerRoute};
use mmx_net::node::NodeStation;
use mmx_net::sim::{FadingConfig, NetworkReport, NetworkSim, SimConfig};
use mmx_net::FaultConfig;
use mmx_obs::Recorder;
use mmx_units::{Db, Degrees, Hertz, Seconds};

/// FNV-1a, 64 bit: a stable hash that does not depend on the toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn hash_single(r: &NetworkReport) -> u64 {
    let mut h = Fnv::new();
    for n in &r.nodes {
        h.u64(n.id as u64);
        h.u64(n.sent);
        h.u64(n.delivered);
        h.f64(n.mean_sinr_db);
        h.f64(n.min_sinr_db);
        h.f64(n.per);
        h.f64(n.goodput_bps);
        h.f64(n.energy_j);
        match n.nj_per_bit {
            Some(v) => {
                h.u64(1);
                h.f64(v);
            }
            None => h.u64(0),
        }
        h.u64(n.slot.channel as u64);
        h.u64(n.slot.harmonic as i64 as u64);
    }
    h.u64(r.used_sdm as u64);
    h.f64(r.duration.value());
    for s in &r.trace {
        h.f64(s.t.value());
        h.u64(s.node as u64);
        h.f64(s.sinr_db);
        h.u64(s.delivered as u64);
    }
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
        h.u64(v);
    }
    for v in [c.mean_join_s, c.mean_recovery_s, c.max_recovery_s] {
        h.f64(v);
    }
    h.0
}

fn hash_multi(r: &MultiApReport) -> u64 {
    let mut h = Fnv::new();
    for n in &r.nodes {
        h.u64(n.id as u64);
        h.u64(n.admitted as u64);
        h.u64(n.ap.index() as u64);
        h.u64(n.sent);
        h.u64(n.delivered);
        h.f64(n.mean_sinr_db);
        h.f64(n.min_sinr_db);
        h.f64(n.per);
        h.f64(n.goodput_bps);
        h.u64(n.handoffs);
        h.u64(n.slot.channel as u64);
        h.u64(n.slot.harmonic as i64 as u64);
    }
    for &k in &r.per_ap_admitted {
        h.u64(k as u64);
    }
    h.f64(r.reuse_gain);
    h.u64(r.num_colors as u64);
    h.u64(r.capacity as u64);
    h.f64(r.duration.value());
    for s in &r.trace {
        h.f64(s.t.value());
        h.u64(s.node as u64);
        h.u64(s.ap.index() as u64);
        h.f64(s.sinr_db);
        h.u64(s.delivered as u64);
    }
    let o = &r.handoff;
    for v in [
        o.attempts,
        o.transfers_sent,
        o.transfers_lost,
        o.transfer_retries,
        o.completed,
        o.aborted,
        o.denied,
        o.stale_transfer_msgs,
        o.stale_grants_discarded,
        o.grant_resyncs,
        o.dual_decodes,
        o.duplicate_deliveries,
    ] {
        h.u64(v);
    }
    h.f64(o.mean_handoff_s);
    h.f64(o.max_handoff_s);
    h.0
}

fn hash_obs(rec: &Recorder) -> u64 {
    let mut h = Fnv::new();
    h.bytes(rec.trace_jsonl().as_bytes());
    h.bytes(rec.registry().render().as_bytes());
    h.0
}

/// Builds a single-AP scenario: `n` HD cameras on an arc around an
/// 8-element TMA AP (20 of them exceed the band and need SDM, 6 fit
/// it), with one named switch applied.
fn single_case(switch: &str, faulted: bool) -> NetworkSim {
    let n = if switch == "fdm" { 6 } else { 20 };
    let ap_pos = Vec2::new(5.7, 2.0);
    let ap = ApStation::with_tma(
        Pose::new(ap_pos, Degrees::new(180.0)),
        8,
        Hertz::from_mhz(1.0),
    );
    let mut cfg = SimConfig::standard();
    cfg.duration = Seconds::new(0.3);
    cfg.seed = 7;
    cfg.record_trace = true;
    if faulted {
        cfg.faults = Some(FaultConfig::lossy(0.1));
    }
    match switch {
        "base" | "fdm" | "churn" => {}
        "chaos" => {
            // Every injected fault at once: crashes and rejoins, blockage
            // bursts and an AP restart, on top of the churn window.
            let f = FaultConfig::lossy(0.1)
                .with_churn(2.0, Seconds::from_millis(50.0))
                .with_bursts(5.0, Seconds::from_millis(40.0), Db::new(25.0))
                .with_ap_restart(Seconds::new(0.15));
            cfg.faults = Some(f);
            cfg.walkers = 2;
        }
        "no_power_control" => cfg.power_control = false,
        "rate_adaptation" => {
            // A lossy front end, so the initial SINR cannot carry every
            // granted rate and adaptation has to slow some nodes down.
            cfg.rate_adaptation = true;
            cfg.implementation_loss = Db::new(40.0);
        }
        "fading" => cfg.fading = Some(FadingConfig::indoor()),
        "pacing_blocker" => cfg.pacing_blocker = true,
        "second_order_reflections" => cfg.second_order_reflections = true,
        other => panic!("unknown switch {other}"),
    }
    let mut sim = NetworkSim::new(Room::rectangular(6.0, 4.0, Material::Drywall), ap, cfg);
    for i in 0..n {
        let frac = (i as f64 + 0.5) / n as f64;
        let bearing = Degrees::new(180.0 - 35.0 + 70.0 * frac);
        let radius = 2.2 + 1.3 * ((i * 7) % 3) as f64 / 2.0;
        let mut pos = ap_pos + Vec2::from_bearing(bearing) * radius;
        pos.x = pos.x.clamp(0.3, 5.4);
        pos.y = pos.y.clamp(0.3, 3.7);
        let node = NodeStation::hd_camera(i as u16, Pose::facing_toward(pos, ap_pos));
        // The churn case: one late joiner and one early leaver.
        let node = match (switch, i) {
            ("churn" | "chaos", 3) => node.with_activity(Seconds::new(0.08), None),
            ("churn" | "chaos", 7) => node.with_activity(Seconds::ZERO, Some(Seconds::new(0.15))),
            _ => node,
        };
        sim.add_node(node);
    }
    sim
}

/// Two overlapping cells with a scripted pacer, fading, one walker and
/// a lossy backhaul. `overload` narrows the channel grid so each
/// harmonic beam has room for fewer nodes than it attracts, and some
/// nodes are rejected at admission.
fn multi_case(overload: bool) -> MultiApSim {
    let mut cfg = MultiApConfig::standard();
    cfg.duration = Seconds::new(0.6);
    cfg.seed = 5;
    cfg.coverage_half_angle = Degrees::new(60.0);
    cfg.coverage_range_m = 7.0;
    cfg.handoff_hysteresis = Db::new(4.0);
    cfg.step = Seconds::from_millis(50.0);
    cfg.walkers = 1;
    cfg.fading = Some(FadingConfig::indoor());
    cfg.inter_ap_faults = Some(FaultConfig::lossy(0.2));
    cfg.record_trace = true;
    cfg.pacer = Some(PacerRoute {
        from: Vec2::new(2.5, 0.8),
        to: Vec2::new(2.5, 3.5),
        speed_mps: 0.9,
    });
    if overload {
        cfg.sdm_channel_width = Hertz::from_mhz(80.0);
    }
    let mut sim = MultiApSim::new(Room::rectangular(8.0, 4.0, Material::Drywall), cfg);
    for x in [1.0, 7.0] {
        sim.add_ap(ApStation::with_tma(
            Pose::new(Vec2::new(x, 3.7), Degrees::new(270.0)),
            8,
            Hertz::from_mhz(1.0),
        ));
    }
    for i in 0..12u16 {
        let x = 0.6 + 6.8 * (i as f64 + 0.5) / 12.0;
        let y = 0.8 + 1.2 * ((i * 5) % 3) as f64 / 2.0;
        sim.add_node(NodeStation::hd_camera(
            i,
            Pose::new(Vec2::new(x, y), Degrees::new(90.0)),
        ));
    }
    sim
}

/// The §10 handoff scenario: a scripted pacer cuts one node's serving
/// ray, and the node roams between two APs over a backhaul that loses
/// half its messages (dual decodes during the make-before-break window).
fn handoff_case() -> MultiApSim {
    let mut cfg = MultiApConfig::standard();
    cfg.duration = Seconds::new(3.0);
    cfg.seed = 2;
    cfg.coverage_half_angle = Degrees::new(60.0);
    cfg.coverage_range_m = 7.0;
    cfg.handoff_hysteresis = Db::new(4.0);
    cfg.step = Seconds::from_millis(50.0);
    cfg.pacer = Some(PacerRoute {
        from: Vec2::new(2.5, 0.8),
        to: Vec2::new(2.5, 3.5),
        speed_mps: 0.9,
    });
    cfg.inter_ap_faults = Some(FaultConfig::lossy(0.5));
    let mut sim = MultiApSim::new(Room::rectangular(8.0, 4.0, Material::Drywall), cfg);
    for x in [1.0, 7.0] {
        sim.add_ap(ApStation::with_tma(
            Pose::new(Vec2::new(x, 3.7), Degrees::new(270.0)),
            8,
            Hertz::from_mhz(1.0),
        ));
    }
    sim.add_node(NodeStation::hd_camera(
        0,
        Pose::new(Vec2::new(3.9, 1.0), Degrees::new(90.0)),
    ));
    sim
}

/// The `mmx_core::scenario` presets, each at its example's seed and
/// walker count, cut to 0.3 s.
fn scenario_case(name: &str) -> NetworkSim {
    let (mut sim, seed, walkers) = match name {
        "smart_home" => (scenario::smart_home(6), 7, 0),
        "smart_home+walkers" => (scenario::smart_home(6), 7, 2),
        "surveillance" => (scenario::surveillance(12), 3, 3),
        "vehicle" => (scenario::vehicle(), 11, 0),
        other => panic!("unknown scenario {other}"),
    };
    let cfg = sim.config_mut();
    cfg.duration = Seconds::new(0.3);
    cfg.seed = seed;
    cfg.walkers = walkers;
    cfg.record_trace = true;
    sim
}

const SCENARIOS: [&str; 4] = [
    "smart_home",
    "smart_home+walkers",
    "surveillance",
    "vehicle",
];

const SWITCHES: [&str; 8] = [
    "base",
    "fdm",
    "no_power_control",
    "rate_adaptation",
    "fading",
    "pacing_blocker",
    "second_order_reflections",
    "churn",
];

/// (case, report hash, trace + metrics hash), recorded before the
/// single-AP engines were merged (the scenario cases: before the presets
/// returned a `NetworkSim`).
const GOLDEN: &[(&str, u64, u64)] = &[
    ("base", 0x2080c47a176daf9c, 0x439719ca168413c7),
    ("fdm", 0x07b6a0e3a15d81c0, 0xa6d7fdb9d36c2312),
    ("no_power_control", 0x8d01b4aaeb8ec9a9, 0x585e24d225edea21),
    ("rate_adaptation", 0x55228f00d0660fb2, 0xa1fe68451b81a3ee),
    ("fading", 0xfa5f1b572743cd82, 0xdc0c9c3c17b13fe5),
    ("pacing_blocker", 0xb61de6dd56967d99, 0x98ad613c39817975),
    (
        "second_order_reflections",
        0x902bdc151f99b0d0,
        0x3f3aab6dd74092ca,
    ),
    ("churn", 0xf34582a81cf372b4, 0xdcb82d9a52d4f7f8),
    ("base+lossy", 0x6e787658a80e0b18, 0x5540b9c73533036c),
    ("fdm+lossy", 0xe7583ff51cc3d147, 0x0cd0812924f761bc),
    (
        "no_power_control+lossy",
        0x2281d32c10c47dac,
        0x65d962ed08929c35,
    ),
    (
        "rate_adaptation+lossy",
        0x9c827f6733da869d,
        0xa9bededefcb92b2f,
    ),
    ("fading+lossy", 0xe36a204f9fe314f2, 0x03c699757e1939aa),
    (
        "pacing_blocker+lossy",
        0xf74c53617afcff9e,
        0xaf4cecf3238dbb37,
    ),
    (
        "second_order_reflections+lossy",
        0x4fc941d5712c027f,
        0xda15ca4933e2a0ae,
    ),
    ("churn+lossy", 0xc3a15bdf4696d202, 0x2b5fc4a2de3b81f5),
    ("chaos", 0x8787cdcff0b27a95, 0xc6664a2e534fdaa9),
    ("multi_ap", 0x1991c5affa7d2732, 0x8c2f0c8db1aca84e),
    ("multi_ap+overload", 0xf1264b7ba2e832d7, 0x70afe2421dcaf242),
    ("multi_ap+abort", 0x348af43f2a3f6f45, 0x9b1c056df7afcedc),
    ("handoff", 0xbfeb6227b6f541c0, 0xf1293e506a5ebb22),
    ("smart_home", 0x5877ab655b25aec2, 0x127bdd928e6e2a9b),
    ("smart_home+walkers", 0xd2869edea4963169, 0xcfd8dedfade6fa0d),
    ("surveillance", 0x1bb3c20737c237af, 0x43b7b3384211166b),
    ("vehicle", 0xb704967570855a43, 0x219249928dba1112),
];

#[test]
fn reports_match_the_recorded_hashes() {
    let mut got: Vec<(String, u64, u64)> = Vec::new();
    for faulted in [false, true] {
        for sw in SWITCHES {
            let mut rec = Recorder::enabled();
            let r = single_case(sw, faulted)
                .run_observed(&mut rec)
                .unwrap_or_else(|e| panic!("{sw}: {e:?}"));
            let name = format!("{sw}{}", if faulted { "+lossy" } else { "" });
            got.push((name, hash_single(&r), hash_obs(&rec)));
        }
    }
    let mut rec = Recorder::enabled();
    let r = single_case("chaos", true)
        .run_observed(&mut rec)
        .expect("chaos case runs");
    assert!(r.recovery.crashes > 0, "the chaos case must crash someone");
    got.push(("chaos".to_string(), hash_single(&r), hash_obs(&rec)));
    for overload in [false, true] {
        let mut rec = Recorder::enabled();
        let r = multi_case(overload)
            .run_observed(&mut rec)
            .expect("multi-AP case runs");
        if overload {
            assert!(
                r.nodes.iter().any(|n| !n.admitted),
                "the overload case must reject someone"
            );
        }
        let name = if overload {
            "multi_ap+overload"
        } else {
            "multi_ap"
        };
        got.push((name.to_string(), hash_multi(&r), hash_obs(&rec)));
    }
    // A backhaul that loses half its messages and one transfer retry:
    // handoffs abort (ownership never moved) or resync their grant
    // (ownership moved, every grant copy lost).
    let mut lossy = multi_case(false);
    lossy.config_mut().inter_ap_faults = Some(FaultConfig::lossy(0.5));
    lossy.config_mut().max_transfer_retries = 1;
    lossy.config_mut().seed = 1;
    lossy.config_mut().duration = Seconds::new(1.0);
    let mut rec = Recorder::enabled();
    let r = lossy.run_observed(&mut rec).expect("lossy case runs");
    let ho = &r.handoff;
    assert!(
        ho.aborted > 0,
        "the lossy case must abort a handoff: {ho:?}"
    );
    assert!(
        ho.grant_resyncs > 0,
        "the lossy case must resync a grant: {ho:?}"
    );
    got.push(("multi_ap+abort".to_string(), hash_multi(&r), hash_obs(&rec)));
    let mut rec = Recorder::enabled();
    let r = handoff_case()
        .run_observed(&mut rec)
        .expect("handoff case runs");
    let ho = &r.handoff;
    assert!(
        ho.dual_decodes > 0,
        "the handoff case must dual-decode: {ho:?}"
    );
    got.push(("handoff".to_string(), hash_multi(&r), hash_obs(&rec)));
    for name in SCENARIOS {
        let mut rec = Recorder::enabled();
        let r = scenario_case(name)
            .run_observed(&mut rec)
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        got.push((name.to_string(), hash_single(&r), hash_obs(&rec)));
    }
    let table: String = got
        .iter()
        .map(|(n, a, b)| format!("    (\"{n}\", {a:#018x}, {b:#018x}),\n"))
        .collect();
    let expect: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(n, a, b)| (n.to_string(), a, b))
        .collect();
    assert_eq!(got, expect, "golden hashes changed; now:\n{table}");
}
