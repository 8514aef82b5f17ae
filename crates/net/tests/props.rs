//! Property-based tests for the network layer.

use mmx_antenna::tma::Tma;
use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_channel::{beam_channel_into, Tracer};
use mmx_net::ap::ApStation;
use mmx_net::control::Admission;
use mmx_net::fdm::{BandPlan, ChannelAssignment};
use mmx_net::interference::{adjacent_channel_leakage, sinr_at_ap};
use mmx_net::link::Backoff;
use mmx_net::multi_ap::{MultiApConfig, MultiApSim};
use mmx_net::node::NodeStation;
use mmx_net::sdm::{SdmScheduler, SdmSlot};
use mmx_net::sim::{
    run_batch_map, run_batch_with_threads, NetworkReport, NetworkSim, SimConfig, SimError,
};
use mmx_net::{EventQueue, FaultConfig};
use mmx_obs::Recorder;
use mmx_units::{BitRate, DbmPower, Degrees, Hertz, Seconds};
use proptest::prelude::*;

/// A small faulted network: `n` low-rate sensors on an arc around the
/// AP (low demand keeps the packet count — and the test runtime —
/// bounded even over long simulated durations).
fn faulted_network(n: usize, faults: FaultConfig, duration: Seconds, seed: u64) -> NetworkSim {
    let mut cfg = SimConfig::standard();
    cfg.faults = Some(faults);
    cfg.duration = duration;
    cfg.seed = seed;
    cfg.walkers = 0;
    let room = Room::rectangular(6.0, 4.0, Material::Drywall);
    let ap = ApStation::with_tma(
        Pose::new(Vec2::new(5.7, 2.0), Degrees::new(180.0)),
        8,
        Hertz::from_mhz(1.0),
    );
    let ap_pos = Vec2::new(5.7, 2.0);
    let mut sim = NetworkSim::new(room, ap, cfg);
    for i in 0..n {
        let frac = (i as f64 + 0.5) / n as f64;
        let bearing = Degrees::new(180.0 - 30.0 + 60.0 * frac);
        let pos = ap_pos + Vec2::from_bearing(bearing) * 3.0;
        let pose = Pose::facing_toward(pos, ap_pos);
        sim.add_node(NodeStation::new(i as u16, pose, BitRate::new(50_000.0)));
    }
    sim
}

proptest! {
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0.0f64..1000.0, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Seconds::new(t), i).expect("fresh queue accepts any finite time");
        }
        let mut prev = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t.value() >= prev);
            prev = t.value();
        }
    }

    #[test]
    fn fdm_allocations_always_disjoint(
        demands_mbps in prop::collection::vec(1.0f64..40.0, 1..8)
    ) {
        let plan = BandPlan::ism_24ghz();
        let demands: Vec<BitRate> = demands_mbps.iter().map(|&m| BitRate::from_mbps(m)).collect();
        match plan.allocate(&demands) {
            Ok(chs) => {
                for i in 0..chs.len() {
                    prop_assert!(plan.band().contains_band(&chs[i].band()));
                    prop_assert!(chs[i].width.hz() >= plan.width_for(demands[i]).hz() - 1.0);
                    for j in i + 1..chs.len() {
                        prop_assert!(!chs[i].band().overlaps(&chs[j].band()));
                    }
                }
            }
            Err(_) => {
                // Exhaustion must only happen when total demand (plus
                // guards) really exceeds the band.
                let total: f64 = demands.iter().map(|d| plan.width_for(*d).hz()).sum();
                prop_assert!(total + (demands.len() as f64 - 1.0) * 1e6 > plan.band().bandwidth().hz());
            }
        }
    }

    #[test]
    fn sdm_slots_are_unique(
        aoas in prop::collection::vec(-55.0f64..55.0, 1..20),
        channels in 3usize..12,
    ) {
        let tma = Tma::new(8, Hertz::from_ghz(24.0), Hertz::from_mhz(1.0));
        let sched = SdmScheduler::new(tma);
        let dirs: Vec<Degrees> = aoas.iter().map(|&a| Degrees::new(a)).collect();
        if let Ok(slots) = sched.schedule(&dirs, channels) {
            for i in 0..slots.len() {
                prop_assert!(slots[i].channel < channels);
                for j in i + 1..slots.len() {
                    prop_assert!(slots[i] != slots[j], "slot collision {i}/{j}");
                }
            }
            prop_assert!(SdmScheduler::reuse_factor(&slots) >= 1.0);
        }
    }

    #[test]
    fn sdm_same_harmonic_distinct_channels(
        base in -40.0f64..40.0,
        n in 2usize..6,
    ) {
        // All nodes in (nearly) the same direction: one harmonic group.
        let tma = Tma::new(8, Hertz::from_ghz(24.0), Hertz::from_mhz(1.0));
        let sched = SdmScheduler::new(tma);
        let dirs: Vec<Degrees> = (0..n).map(|k| Degrees::new(base + k as f64 * 0.01)).collect();
        let slots = sched.schedule(&dirs, n).expect("fits");
        let mut chans: Vec<usize> = slots.iter().map(|s: &SdmSlot| s.channel).collect();
        chans.sort_unstable();
        chans.dedup();
        prop_assert_eq!(chans.len(), n);
    }

    /// For a fixed jitter draw the retransmit delay never shrinks as
    /// the attempt count grows, never undercuts the base timeout, and
    /// never exceeds the cap plus its jitter allowance — for any
    /// policy, not just [`Backoff::standard`].
    #[test]
    fn backoff_delay_monotone_and_capped(
        base_ms in 1.0f64..200.0,
        max_ms in 200.0f64..2000.0,
        jitter_frac in 0.0f64..1.0,
        u in 0.0f64..1.0,
        attempts in 1u32..40,
    ) {
        let b = Backoff {
            base: Seconds::from_millis(base_ms),
            max: Seconds::from_millis(max_ms),
            jitter_frac,
        };
        let mut prev = 0.0f64;
        for attempt in 0..attempts {
            let d = b.delay(attempt, u).value();
            prop_assert!(d >= prev, "delay shrank at attempt {attempt}: {d} < {prev}");
            prop_assert!(d >= b.base.value(), "attempt {attempt} undercuts the base");
            prop_assert!(
                d <= b.max.value() * (1.0 + jitter_frac) + 1e-12,
                "attempt {attempt} exceeds the jittered cap: {d}"
            );
            prev = d;
        }
    }

    #[test]
    fn acl_monotone(k in 0usize..10) {
        prop_assert!(adjacent_channel_leakage(k + 1) <= adjacent_channel_leakage(k));
        prop_assert!(adjacent_channel_leakage(k).value() <= 0.0);
    }

    /// Per-node RNG stream independence: splitting a master seed into N
    /// node streams yields identical per-node draw sequences whether the
    /// streams are instantiated and drawn in node order, in reverse, or
    /// concurrently on worker threads. This is the property that lets
    /// the gather phase hand each node its own stream with no
    /// cross-node coupling.
    #[test]
    fn node_streams_are_order_independent(
        seed in any::<u64>(),
        n in 2usize..24,
        draws in 1usize..32,
    ) {
        use rand::Rng as _;
        let pull = |i: usize| -> Vec<u64> {
            let mut rng = mmx_net::streams::node_stream(seed, i);
            (0..draws).map(|_| rng.gen::<u64>()).collect()
        };
        let forward: Vec<Vec<u64>> = (0..n).map(pull).collect();
        let mut reversed: Vec<Vec<u64>> = (0..n).rev().map(pull).collect();
        reversed.reverse();
        let parallel: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n).map(|i| s.spawn(move || pull(i))).collect();
            handles.into_iter().map(|h| h.join().expect("stream worker")).collect()
        });
        prop_assert_eq!(&forward, &reversed, "stream draws depend on evaluation order");
        prop_assert_eq!(&forward, &parallel, "stream draws depend on threading");
        // And the streams really are distinct streams.
        for i in 1..n {
            prop_assert!(forward[0] != forward[i], "streams 0 and {} collide", i);
        }
    }

    /// Safety: whatever sequence of joins, leaves, refreshes and expiry
    /// scans hits the AP, no two live leases ever overlap in frequency.
    #[test]
    fn live_leases_never_overlap(
        ops in prop::collection::vec((0u8..4, 0u8..6, 1.0f64..30.0), 1..60)
    ) {
        let mut a = Admission::new(BandPlan::ism_24ghz());
        let lease = Seconds::from_millis(400.0);
        let mut now = Seconds::ZERO;
        for (op, node, mbps) in ops {
            now += Seconds::from_millis(50.0);
            match op {
                0 => { let _ = a.join_at(node.into(), BitRate::from_mbps(mbps), now); }
                1 => a.leave(node.into()),
                2 => { a.refresh(node.into(), now); }
                _ => { a.expire_stale(now, lease); }
            }
            let grants: Vec<ChannelAssignment> =
                (0u16..6).filter_map(|id| a.grant_of(id)).collect();
            for i in 0..grants.len() {
                for j in i + 1..grants.len() {
                    prop_assert!(
                        !grants[i].band().overlaps(&grants[j].band()),
                        "leases overlap after op {op} on node {node}"
                    );
                }
            }
        }
    }
}

mod reuse_factor_edges {
    use super::*;

    #[test]
    fn empty_slot_list_reports_unity() {
        assert_eq!(SdmScheduler::reuse_factor(&[]), 1.0);
    }

    #[test]
    fn colocated_nodes_get_no_reuse() {
        // All nodes in the same direction land in one harmonic group:
        // every slot needs its own channel, so nothing is reused.
        let tma = Tma::new(8, Hertz::from_ghz(24.0), Hertz::from_mhz(1.0));
        let sched = SdmScheduler::new(tma);
        let dirs = vec![Degrees::new(10.0); 5];
        let slots = sched
            .schedule(&dirs, 5)
            .expect("five channels fit five nodes");
        assert_eq!(SdmScheduler::reuse_factor(&slots), 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Liveness: under any control-plane loss rate below 1, every
    /// joining node eventually reaches Granted. The retransmit budget
    /// scales with the loss: at `p = (1-loss)²` per join round trip and
    /// ~1 attempt/s once the backoff caps, `duration` leaves the chance
    /// of a node stuck unadmitted below ~1e-10.
    #[test]
    fn every_node_eventually_granted_under_loss(
        loss in 0.0f64..0.5,
        seed in 1u64..1000,
    ) {
        let sim = faulted_network(2, FaultConfig::lossy(loss), Seconds::new(60.0), seed);
        let report = sim.run().expect("runs");
        prop_assert_eq!(
            report.recovery.granted_at_end, 2,
            "loss {} seed {} left a node unadmitted: {:?}", loss, seed, report.recovery
        );
        prop_assert_eq!(report.recovery.joins, 2);
        for n in &report.nodes {
            prop_assert!(n.sent > 0, "node {} never streamed", n.id);
        }
    }

    /// Determinism: the same seed produces a byte-identical report —
    /// packet trace included — at 1 and 8 worker threads.
    #[test]
    fn faulted_trace_identical_across_thread_counts(seed in 1u64..1000) {
        let mk = |s: u64| {
            let faults = FaultConfig::lossy(0.2)
                .with_churn(0.3, Seconds::from_millis(500.0));
            let mut sim = faulted_network(2, faults, Seconds::new(5.0), s);
            sim.config_mut().record_trace = true;
            sim
        };
        let sims: Vec<NetworkSim> = (0..4).map(|k| mk(seed.wrapping_add(k))).collect();
        let serial = run_batch_with_threads(&sims, 1);
        let parallel = run_batch_with_threads(&sims, 8);
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().expect("serial runs");
            let p = p.as_ref().expect("parallel runs");
            prop_assert_eq!(&s.trace, &p.trace, "event traces diverge across thread counts");
            prop_assert_eq!(&s.recovery, &p.recovery);
            prop_assert_eq!(&s.nodes, &p.nodes);
        }
    }

    /// Observability determinism: the sim-domain JSONL trace (FSM
    /// transitions, control fates, fault markers) of the PR 2 fault
    /// scenario is byte-identical at 1 and 8 worker threads, and the
    /// metrics registries render identically too.
    #[test]
    fn observed_jsonl_trace_identical_across_thread_counts(seed in 1u64..1000) {
        let mk = |s: u64| {
            let faults = FaultConfig::lossy(0.2)
                .with_churn(0.3, Seconds::from_millis(500.0));
            faulted_network(2, faults, Seconds::new(5.0), s)
        };
        let sims: Vec<NetworkSim> = (0..4).map(|k| mk(seed.wrapping_add(k))).collect();
        let observed = |sim: &NetworkSim| {
            let mut rec = Recorder::enabled();
            (sim.run_observed(&mut rec), rec)
        };
        let serial = run_batch_map(&sims, 1, observed);
        let parallel = run_batch_map(&sims, 8, observed);
        let cat = |runs: &[(Result<NetworkReport, SimError>, Recorder)]| {
            runs.iter().map(|(_, r)| r.trace_jsonl()).collect::<String>()
        };
        let s_jsonl = cat(&serial);
        prop_assert_eq!(&s_jsonl, &cat(&parallel), "JSONL traces diverge across thread counts");
        for ((sr, srec), (pr, prec)) in serial.iter().zip(&parallel) {
            prop_assert_eq!(
                &sr.as_ref().expect("serial runs").nodes,
                &pr.as_ref().expect("parallel runs").nodes
            );
            prop_assert_eq!(srec.registry().render(), prec.registry().render());
        }
        // The concatenated batch trace replays into one timeline per
        // scenario, each with both nodes accounted for.
        let (events, bad) = mmx_obs::parse_jsonl(&s_jsonl);
        prop_assert_eq!(bad, 0);
        let runs = mmx_obs::replay(&events);
        prop_assert_eq!(runs.len(), 4);
        for run in &runs {
            prop_assert_eq!(run.nodes.len(), 2);
        }
    }

    /// Across-sim determinism: two faulted, fading, walker-heavy sims
    /// (seeds `seed` and `seed + 1`) run through the shared fan-out at 1
    /// and `nproc` batch workers produce a byte-identical packet trace,
    /// recovery metrics, JSONL observability trace and rendered
    /// registry per sim.
    #[test]
    fn faulted_fading_sims_identical_at_1_and_nproc_batch_workers(seed in 1u64..1000) {
        let sims: Vec<NetworkSim> = (seed..seed + 2)
            .map(|s| {
                let faults = FaultConfig::lossy(0.15)
                    .with_churn(0.2, Seconds::from_millis(500.0));
                let mut sim = faulted_network(4, faults, Seconds::new(3.0), s);
                sim.config_mut().record_trace = true;
                sim.config_mut().walkers = 2;
                sim.config_mut().fading = Some(mmx_net::sim::FadingConfig::indoor());
                sim
            })
            .collect();
        let run_at = |workers: usize| {
            run_batch_map(&sims, workers, |sim| {
                let mut rec = Recorder::enabled();
                let report = sim.run_observed(&mut rec).expect("sim runs");
                (report, rec.trace_jsonl(), rec.registry().render())
            })
        };
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let base = run_at(1);
        for ((base_report, base_jsonl, base_registry), (report, jsonl, registry)) in
            base.iter().zip(run_at(nproc.max(2)))
        {
            prop_assert!(!base_jsonl.is_empty());
            prop_assert_eq!(&base_report.trace, &report.trace, "packet traces diverge");
            prop_assert_eq!(&base_report.recovery, &report.recovery);
            prop_assert_eq!(&base_report.nodes, &report.nodes);
            prop_assert_eq!(base_jsonl, &jsonl, "JSONL traces diverge");
            prop_assert_eq!(base_registry, &registry);
        }
    }
}

/// Arrival power of `node` at `ap` in an empty room of the multi-AP
/// engine's model: first-order ray trace, beam channel, the power
/// behind the stronger beam.
fn multi_ap_arrival(room: &Room, cfg: &MultiApConfig, node: &NodeStation, ap: &ApStation) -> f64 {
    let tracer = Tracer::new(room, node.front_end().channel(), cfg.path_loss_exponent);
    let mut paths = Vec::new();
    let ch = beam_channel_into(
        &tracer,
        node.pose,
        ap.pose,
        node.beams(),
        ap.element(),
        &[],
        &mut paths,
    );
    (node.front_end().antenna_power() - cfg.implementation_loss + ch.gain(ch.stronger_beam())).dbm()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The multi-AP engine's SINR kernel reads its H×N gain table; the
    /// reference `sinr_at_ap` calls the exact TMA. Every traced `assoc`
    /// SINR must equal the reference bit for bit, over random node
    /// positions (so random arrival powers, angles and slots). Wide
    /// channels overload the TMA beams, so some nodes are rejected:
    /// the engine keeps them in the sum at zero power, the reference
    /// leaves them out, and the two must still agree.
    #[test]
    fn traced_assoc_sinr_matches_sinr_at_ap(
        spots in prop::collection::vec((0.3f64..7.7, 0.3f64..3.0), 3..14),
        wide in any::<bool>(),
        seed in 1u64..1000,
    ) {
        let room = Room::rectangular(8.0, 4.0, Material::Drywall);
        let mut cfg = MultiApConfig::standard();
        cfg.duration = Seconds::ZERO;
        cfg.seed = seed;
        cfg.coverage_half_angle = Degrees::new(60.0);
        cfg.coverage_range_m = 7.0;
        cfg.sdm_channel_width = Hertz::from_mhz(if wide { 80.0 } else { 25.0 });
        let aps: Vec<ApStation> = [1.0, 7.0]
            .iter()
            .map(|&x| ApStation::with_tma(
                Pose::new(Vec2::new(x, 3.7), Degrees::new(270.0)),
                8,
                Hertz::from_mhz(1.0),
            ))
            .collect();
        let nodes: Vec<NodeStation> = spots
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                NodeStation::hd_camera(i as u16, Pose::new(Vec2::new(x, y), Degrees::new(90.0)))
            })
            .collect();
        let mut sim = MultiApSim::new(room.clone(), cfg.clone());
        for ap in &aps {
            sim.add_ap(ap.clone());
        }
        for node in &nodes {
            sim.add_node(node.clone());
        }
        let mut rec = mmx_obs::Recorder::enabled();
        let report = sim.run_observed(&mut rec).expect("sim runs");
        let slots: Vec<SdmSlot> = report.nodes.iter().map(|n| n.slot).collect();
        let live: Vec<usize> = (0..nodes.len()).filter(|&i| report.nodes[i].admitted).collect();
        let mut checked = 0;
        for ev in rec.trace().iter().filter(|e| e.kind == "assoc" && e.a == "granted") {
            let me = ev.node as usize;
            let ap = &aps[report.nodes[me].ap.index()];
            let tma = ap.tma().expect("TMA AP");
            let aoa = |j: usize| {
                ((nodes[j].pose.position - ap.pose.position).bearing() - ap.pose.facing).wrapped()
            };
            let reference = sinr_at_ap(
                tma,
                ap.noise_figure(),
                cfg.sdm_channel_width,
                live.iter().position(|&j| j == me).expect("granted nodes are admitted"),
                live.len(),
                &live.iter().map(|&j| slots[j]).collect::<Vec<_>>(),
                |k| DbmPower::new(multi_ap_arrival(&room, &cfg, &nodes[live[k]], ap)),
                |k| aoa(live[k]),
            );
            prop_assert_eq!(ev.v.to_bits(), reference.value().to_bits(),
                "node {} SINR {} vs reference {}", me, ev.v, reference.value());
            checked += 1;
        }
        prop_assert_eq!(checked, live.len());
    }
}
