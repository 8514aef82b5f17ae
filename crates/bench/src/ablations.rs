//! Design-choice ablations: the quantitative case for each piece of the
//! mmX design.
//!
//! * [`beam_ablation`] — orthogonal vs non-orthogonal beams (§6.2's
//!   argument, Fig. 5): how often do the two beams arrive with similar
//!   loss?
//! * [`modulation_ablation`] — ASK-only vs FSK-only vs joint (§6.3's
//!   argument): BER across random placements.
//! * [`search_ablation`] — OTAM vs beam-search baselines: alignment
//!   latency, node energy, and airtime overhead as mobility increases.
//! * [`coding_ablation`] — the §9.3 extension: raw vs Hamming vs
//!   convolutional BER through a binary symmetric channel at the link's
//!   operating points.

use mmx_antenna::beams::NodeBeams;
use mmx_baseline::search::{
    search_overhead_fraction, BeamSearch, ExhaustiveSearch, FixedBeam, HierarchicalSearch,
};
use mmx_baseline::ConventionalNode;
use mmx_channel::response::{beam_channel, Pose};
use mmx_channel::Vec2;
use mmx_core::config::{CARRIER, PATH_LOSS_EXPONENT};
use mmx_core::report::TextTable;
use mmx_core::Testbed;
use mmx_dsp::stats::{mean, median};
use mmx_phy::ber::{ask_ber, fsk_ber, joint_ber};
use mmx_phy::coding::{convolutional, hamming};
use mmx_units::{Db, Degrees, Seconds};
use rand::Rng;

/// How node orientations are drawn for an ablation.
#[derive(Debug, Clone, Copy)]
pub enum OrientationPrior {
    /// Uniform over ±60° (the paper's measurement protocol).
    Uniform,
    /// Concentrated near facing (σ = 15°, clamped to ±60°): how users
    /// actually install devices — "ask the user to point the device
    /// towards the access point" (§6).
    Facing,
}

impl OrientationPrior {
    fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        match self {
            OrientationPrior::Uniform => rng.gen_range(-60.0..60.0),
            OrientationPrior::Facing => {
                // Box–Muller normal, σ = 15°.
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (15.0 * z).clamp(-60.0, 60.0)
            }
        }
    }
}

/// Random placements in the paper testbed, evaluated against a given
/// beam design. Returns (separations dB, mark SNRs dB).
///
/// Each placement is an independent `(seed, index)`-derived trial on the
/// parallel engine, so the vectors are bit-identical at any thread count.
fn placements(
    beams: &NodeBeams,
    count: usize,
    seed: u64,
    prior: OrientationPrior,
) -> (Vec<f64>, Vec<f64>) {
    let testbed = Testbed::paper_default();
    let ap = testbed.ap();
    let tracer = mmx_channel::Tracer::new(testbed.room(), CARRIER, PATH_LOSS_EXPONENT);
    let pairs = crate::par::run_trials(seed, count, |_i, rng| {
        let pos = Vec2::new(rng.gen_range(0.4..5.2), rng.gen_range(0.4..3.6));
        let facing = (ap.position - pos).bearing() + Degrees::new(prior.draw(rng));
        let ch = beam_channel(
            &tracer,
            Pose::new(pos, facing),
            ap,
            beams,
            mmx_antenna::Element::ApDipole,
            &[],
        );
        let mark = ch.gain(ch.stronger_beam());
        let snr = Testbed::snr_of_gain(mark);
        (ch.level_separation().value().min(60.0), snr.value())
    });
    pairs.into_iter().unzip()
}

/// §6.2 ablation: fraction of placements where the two beams arrive with
/// nearly equal loss (ASK-ambiguous), orthogonal vs non-orthogonal.
pub fn beam_ablation(count: usize, seed: u64) -> TextTable {
    let mut t = TextTable::new([
        "beam design",
        "ambiguous (<2 dB) %",
        "median separation dB",
        "mean separation dB",
    ]);
    for (name, beams) in [
        ("orthogonal (mmX)", NodeBeams::orthogonal(CARRIER)),
        (
            "non-orthogonal (Fig. 5a)",
            NodeBeams::non_orthogonal(CARRIER),
        ),
    ] {
        // Users roughly point devices at the AP; the §6.2 failure mode is
        // the AP landing *between* the two beams in that common case.
        let (seps, _) = placements(&beams, count, seed, OrientationPrior::Facing);
        let ambiguous = seps.iter().filter(|&&s| s < 2.0).count() as f64 / seps.len() as f64;
        t.row([
            name.to_string(),
            format!("{:.1}", 100.0 * ambiguous),
            format!("{:.1}", median(&seps).expect("non-empty")),
            format!("{:.1}", mean(&seps).expect("non-empty")),
        ]);
    }
    t
}

/// §6.3 ablation: median BER across placements for ASK-only, FSK-only
/// and the joint rule.
pub fn modulation_ablation(count: usize, seed: u64) -> TextTable {
    let beams = NodeBeams::orthogonal(CARRIER);
    let (seps, snrs) = placements(&beams, count, seed, OrientationPrior::Uniform);
    let ask: Vec<f64> = seps
        .iter()
        .zip(&snrs)
        .map(|(&s, &snr)| ask_ber(Db::new(snr), Db::new(s)))
        .collect();
    let fsk: Vec<f64> = snrs.iter().map(|&snr| fsk_ber(Db::new(snr))).collect();
    let joint: Vec<f64> = seps
        .iter()
        .zip(&snrs)
        .map(|(&s, &snr)| joint_ber(Db::new(snr), Db::new(s), Db::new(2.0)))
        .collect();
    let p90 = |v: &[f64]| mmx_dsp::stats::quantile(v, 0.9).expect("non-empty");
    let mut t = TextTable::new(["demodulation", "median BER", "p90 BER", "worst BER"]);
    for (name, v) in [
        ("ASK only", &ask),
        ("FSK only", &fsk),
        ("joint (mmX)", &joint),
    ] {
        t.row([
            name.to_string(),
            format!("{:.1e}", median(v).expect("non-empty").max(1e-16)),
            format!("{:.1e}", p90(v).max(1e-16)),
            format!("{:.1e}", v.iter().cloned().fold(0.0, f64::max).max(1e-16)),
        ]);
    }
    t
}

/// OTAM vs beam search: per-realignment cost and airtime overhead at
/// three mobility levels.
pub fn search_ablation() -> TextTable {
    let node = ConventionalNode::standard();
    let quality = |steer: Degrees| -> Db { node.array().gain(steer, Degrees::new(-20.0)) };
    let mut t = TextTable::new([
        "scheme",
        "probes",
        "latency µs",
        "energy µJ",
        "overhead @1s",
        "overhead @100ms",
        "overhead @10ms",
    ]);
    let protocols: Vec<Box<dyn BeamSearch>> = vec![
        Box::new(ExhaustiveSearch::standard()),
        Box::new(HierarchicalSearch::standard()),
        Box::new(FixedBeam {
            steering: Degrees::new(0.0),
        }),
    ];
    for p in &protocols {
        let out = p.search(&node, &quality);
        let ov = |s: f64| {
            format!(
                "{:.2}%",
                100.0 * search_overhead_fraction(&out.cost, Seconds::new(s))
            )
        };
        t.row([
            p.name().to_string(),
            out.cost.probes.to_string(),
            format!("{:.0}", out.cost.latency.micros()),
            format!("{:.0}", out.cost.node_energy_j * 1e6),
            ov(1.0),
            ov(0.1),
            ov(0.01),
        ]);
    }
    t.row([
        "OTAM (mmX)".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0.00%".to_string(),
        "0.00%".to_string(),
        "0.00%".to_string(),
    ]);
    t
}

/// Extension ablation: uplink power control on/off at the Fig. 13 scale
/// (20 nodes, SDM). Without it, near nodes bury far ones (the classic
/// near-far problem); with it, arrivals equalize and the worst node's
/// SINR recovers.
pub fn power_control_ablation(seed: u64) -> TextTable {
    use mmx_channel::room::{Material, Room};
    use mmx_net::ap::ApStation;
    use mmx_net::node::NodeStation;
    use mmx_net::sim::{NetworkSim, SimConfig};
    use mmx_units::{BitRate, Hertz, Seconds};
    use rand::SeedableRng;

    let run = |power_control: bool| -> mmx_net::sim::NetworkReport {
        let room = Room::rectangular(6.0, 4.0, Material::Drywall);
        let ap_pos = Vec2::new(5.7, 2.0);
        let ap = ApStation::with_tma(
            Pose::new(ap_pos, Degrees::new(180.0)),
            16,
            Hertz::from_mhz(1.0),
        );
        let mut cfg = SimConfig::standard();
        cfg.duration = Seconds::from_millis(50.0);
        cfg.walkers = 0;
        cfg.seed = seed;
        cfg.power_control = power_control;
        let mut sim = NetworkSim::new(room, ap, cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
        for i in 0..20u16 {
            let pos = loop {
                use rand::Rng;
                let p = Vec2::new(rng.gen_range(0.4..4.8), rng.gen_range(0.4..3.6));
                let bearing = (p - ap_pos).bearing() - Degrees::new(180.0);
                if bearing.wrapped().value().abs() < 55.0 && p.distance(ap_pos) > 1.0 {
                    break p;
                }
            };
            sim.add_node(NodeStation::new(
                i,
                Pose::facing_toward(pos, ap_pos),
                BitRate::from_mbps(20.0),
            ));
        }
        sim.run().expect("20-node topology runs")
    };
    // The two arms share no RNG state (each derives its own from the
    // seed), so they run concurrently on the parallel engine.
    let mut reports = crate::par::run_indexed(2, |i| run(i == 1));
    let on = reports.pop().expect("two runs");
    let off = reports.pop().expect("two runs");
    let mut t = TextTable::new([
        "power control",
        "mean SINR dB",
        "min SINR dB",
        "total goodput Mbps",
    ]);
    for (label, r) in [("off", &off), ("on", &on)] {
        t.row([
            label.to_string(),
            format!("{:.1}", r.mean_sinr_db()),
            format!("{:.1}", r.min_mean_sinr_db()),
            format!("{:.1}", r.total_goodput().mbps()),
        ]);
    }
    t
}

/// The §9.3 coding extension: BER through a BSC at the raw channel's
/// error rate, for uncoded / Hamming(7,4) / convolutional K=7.
///
/// The four operating points are independent trials (each crosses the
/// BSC with its own `(seed, index)`-derived RNG) fanned across the
/// parallel engine.
pub fn coding_ablation(bits_per_point: usize, seed: u64) -> TextTable {
    const RAW_BERS: [f64; 4] = [1e-3, 3e-3, 1e-2, 3e-2];
    let rows = crate::par::run_trials(seed, RAW_BERS.len(), |i, rng| {
        let p = RAW_BERS[i];
        let mut prbs = mmx_dsp::prbs::Prbs::prbs15(seed as u32 | 1);
        let data = prbs.bits(bits_per_point);
        let mut bsc = |bits: &[bool]| -> Vec<bool> {
            bits.iter().map(|&b| b ^ (rng.gen::<f64>() < p)).collect()
        };
        // Uncoded.
        let rx_raw = bsc(&data);
        let ber_raw = mmx_phy::bits::bit_error_rate(&data, &rx_raw);
        // Hamming.
        let ham = hamming::encode(&data);
        let rx_ham = hamming::decode(&bsc(&ham));
        let ber_ham = mmx_phy::bits::bit_error_rate(&data, &rx_ham[..data.len()]);
        // Convolutional.
        let conv = convolutional::encode(&data);
        let rx_conv = convolutional::decode(&bsc(&conv));
        let ber_conv = mmx_phy::bits::bit_error_rate(&data, &rx_conv);
        [
            format!("{p:.0e}"),
            format!("{:.1e}", ber_raw.max(1e-7)),
            format!("{:.1e}", ber_ham.max(1e-7)),
            format!("{:.1e}", ber_conv.max(1e-7)),
        ]
    });
    let mut t = TextTable::new(["raw BER", "uncoded", "Hamming(7,4)", "conv K=7 r=1/2"]);
    for row in rows {
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthogonal_beams_are_less_ambiguous() {
        let t = beam_ablation(200, 5);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let parse = |row: &str| -> f64 { row.split(',').nth(1).unwrap().parse().unwrap() };
        let orth = parse(rows[0]);
        let non = parse(rows[1]);
        assert!(
            orth < non,
            "orthogonal {orth}% should beat non-orthogonal {non}%"
        );
    }

    #[test]
    fn joint_is_never_worse_than_both_pure_schemes_at_median() {
        let t = modulation_ablation(200, 6);
        let csv = t.to_csv();
        let med = |row: &str| -> f64 { row.split(',').nth(1).unwrap().parse().unwrap() };
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let ask = med(rows[0]);
        let joint = med(rows[2]);
        assert!(joint <= ask * 1.001, "joint {joint} vs ask {ask}");
    }

    #[test]
    fn search_table_shows_otam_free() {
        let t = search_ablation();
        let s = t.render();
        assert!(s.contains("OTAM (mmX)"));
        assert!(s.contains("exhaustive"));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn power_control_lifts_the_worst_node() {
        let t = power_control_ablation(7);
        let csv = t.to_csv();
        let min_of = |row: &str| -> f64 { row.split(',').nth(2).unwrap().parse().unwrap() };
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let off_min = min_of(rows[0]);
        let on_min = min_of(rows[1]);
        assert!(
            on_min > off_min,
            "power control did not lift the floor: {on_min} vs {off_min}"
        );
    }

    #[test]
    fn convolutional_code_wins_at_low_ber() {
        let t = coding_ablation(20_000, 4);
        let csv = t.to_csv();
        let first = csv.lines().nth(1).unwrap();
        let cells: Vec<f64> = first
            .split(',')
            .skip(1)
            .map(|c| c.parse().unwrap())
            .collect();
        // conv <= hamming <= uncoded at raw BER 1e-3.
        assert!(
            cells[2] <= cells[0],
            "conv {} vs raw {}",
            cells[2],
            cells[0]
        );
        assert!(cells[1] <= cells[0] * 1.5);
    }
}
