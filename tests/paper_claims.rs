//! The paper's headline claims, as executable assertions.
//!
//! Each test quotes the claim it checks. These are the repository's
//! "did we actually reproduce the paper" gate; EXPERIMENTS.md records the
//! corresponding quantitative comparisons.

use mmx::baseline::Platform;
use mmx::core::prelude::*;
use mmx::rf::power::PowerLedger;
use mmx::rf::vco::Vco;
use mmx::units::Watts;

#[test]
fn claim_node_consumes_1_1w_and_11nj_per_bit() {
    // Abstract: "The maximum data rate of mmX's node is 100 Mbps and it
    // consumes 1.1 W. This results in an energy efficiency of 11 nJ/bit."
    let ledger = PowerLedger::mmx_node();
    assert!((ledger.total().value() - 1.1).abs() < 1e-9);
    assert!((ledger.energy_per_bit_nj(BitRate::from_mbps(100.0)) - 11.0).abs() < 1e-9);
}

#[test]
fn claim_more_efficient_than_wifi() {
    // Abstract: "...which is even lower than existing WiFi modules".
    assert!(Platform::mmx().energy_per_bit_nj() < Platform::wifi_80211n().energy_per_bit_nj());
}

#[test]
fn claim_vco_covers_the_entire_ism_band() {
    // §9.1/Fig. 7: "The VCO covers 23.95 GHz to 24.25 GHz by tuning the
    // control voltage from 3.5 V to 4.9 V. The provided frequency range
    // covers the entire 24 GHz ISM band."
    let vco = Vco::hmc533();
    let band = mmx::units::Band::ism_24ghz();
    assert!(vco.frequency(3.5).hz() <= band.low.hz());
    assert!(vco.frequency(4.9).hz() >= band.high.hz());
}

#[test]
fn claim_switch_limits_rate_to_100mbps() {
    // §9.1: "The maximum operating frequency of the RF switch is 100 MHz,
    // which limits the data rate of mmX's nodes to 100 Mbps."
    let fe = mmx::rf::frontend::NodeFrontEnd::standard();
    assert!((fe.max_bit_rate().mbps() - 100.0).abs() < 1e-9);
}

#[test]
fn claim_snr_10db_or_more_at_18m() {
    // Abstract: "mmX provides wireless links with SNR of 10 dB or more to
    // all nodes even at 18 meters." (§9.4: ≥15 dB facing, ≥9 dB not.)
    // Use a long corridor so an 18 m link exists.
    let room = mmx::channel::Room::rectangular(20.0, 4.0, mmx::channel::room::Material::Drywall);
    let ap = Pose::new(Vec2::new(19.5, 2.0), Degrees::new(180.0));
    let testbed = mmx::core::Testbed::new(room, ap, MmxConfig::paper());
    let pose = testbed.node_pose_at(Vec2::new(1.5, 2.0)); // 18 m away
    let obs = testbed.observe(pose, &[]);
    assert!(obs.snr_otam.value() >= 10.0, "18 m SNR = {}", obs.snr_otam);
}

#[test]
fn claim_otam_beats_no_otam_everywhere_in_the_room() {
    // §9.2/Fig. 10: OTAM's SNR dominates the Beam-1-only baseline at
    // every placement (it picks the stronger beam by construction).
    let testbed = Testbed::paper_default();
    for ix in 0..8 {
        for iy in 0..5 {
            let pos = Vec2::new(0.4 + ix as f64 * 0.6, 0.4 + iy as f64 * 0.75);
            for rot in [-45.0, 0.0, 45.0] {
                let facing = (testbed.ap().position - pos).bearing() + Degrees::new(rot);
                let obs = testbed.observe(Pose::new(pos, facing), &[]);
                assert!(
                    obs.snr_otam >= obs.snr_beam1 - Db::new(1e-9),
                    "OTAM lost at ({pos:?}, rot {rot})"
                );
            }
        }
    }
}

#[test]
fn claim_equal_loss_cases_are_rare_and_fsk_decodable() {
    // §6.3: "our empirical results show that there is still a small
    // chance (<10%) that the received power from Beam 1 and Beam 0
    // experiences the same loss" — and joint modulation decodes those.
    // Random placements and orientations (±60°), as in §9.2. Our
    // analytic two-element patterns have a wider beam-crossover region
    // than the paper's fabricated arrays, so the ambiguous fraction runs
    // above the measured <10% — the deviation is recorded in
    // EXPERIMENTS.md. What must hold: ambiguity is the minority case and
    // every strong-but-ambiguous link is rescued by FSK.
    use rand::{Rng, SeedableRng};
    let testbed = Testbed::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut total = 0;
    let mut ambiguous = 0;
    for _ in 0..400 {
        let pos = Vec2::new(rng.gen_range(0.4..5.2), rng.gen_range(0.4..3.6));
        let facing =
            (testbed.ap().position - pos).bearing() + Degrees::new(rng.gen_range(-60.0..60.0));
        let obs = testbed.observe(Pose::new(pos, facing), &[]);
        total += 1;
        if obs.separation.value() < 2.0 {
            ambiguous += 1;
            // The joint demodulator falls back to FSK and keeps the link
            // usable whenever the mark SNR is healthy.
            if obs.snr_otam.value() > 15.0 {
                assert!(
                    obs.ber_otam < 1e-3,
                    "ambiguous but strong link has BER {}",
                    obs.ber_otam
                );
            }
        }
    }
    let frac = ambiguous as f64 / total as f64;
    assert!(frac < 0.30, "ambiguous fraction = {frac}");
    assert!(ambiguous > 0, "expected some ambiguous placements");
}

#[test]
fn claim_initialization_is_one_shot_not_continuous() {
    // §7(a): "The initialization takes place only once using a WiFi or
    // Bluetooth module" — vs beam search which repeats per coherence
    // time. One exhaustive sweep costs more node energy than the entire
    // mmX control handshake.
    use mmx::baseline::search::{BeamSearch, ExhaustiveSearch};
    use mmx::baseline::ConventionalNode;
    let node = ConventionalNode::standard();
    let out = ExhaustiveSearch::standard()
        .search(&node, &|steer| node.array().gain(steer, Degrees::new(0.0)));
    let mmx_handshake_j = 2.0 * mmx::net::control::CONTROL_MSG_ENERGY_J;
    assert!(out.cost.node_energy_j > 10.0 * mmx_handshake_j);
}

#[test]
fn claim_conventional_radio_power_motivates_mmx() {
    // §1: PA 2.5 W + mixer 1 W + phased array "more than a watt" —
    // versus the whole mmX node at 1.1 W.
    let conventional = mmx::baseline::ConventionalNode::standard().tx_power_draw();
    let node = PowerLedger::mmx_node().total();
    assert!(conventional.value() > 4.0 * node.value());
    assert!((node - Watts::new(1.1)).0.abs() < 1e-9);
}

/// The measured column of EXPERIMENTS.md's Fig. 11 row `quantity`.
fn fig11_doc_cell(quantity: &str) -> String {
    let doc = include_str!("../EXPERIMENTS.md");
    let section = doc
        .split("## Fig. 11")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("EXPERIMENTS.md has a Fig. 11 section");
    let row = section
        .lines()
        .find(|l| l.starts_with(&format!("| {quantity} |")))
        .unwrap_or_else(|| panic!("no Fig. 11 row {quantity:?}"));
    row.split('|')
        .nth(3)
        .expect("measured column")
        .trim()
        .to_string()
}

#[test]
fn fig11_docs_quote_the_artifact() {
    // EXPERIMENTS.md quotes Fig. 11's medians and 90th percentiles;
    // recompute them at the committed CSV's seed and check every quoted
    // number to the precision it is printed with. The recomputed CDF
    // must be the committed one, which pins the sample count too.
    use mmx_bench::fig11_ber_cdf::{samples, summarize, table};
    let csv = include_str!("../results/fig11_ber_cdf.csv");
    let (header, body) = csv.split_once('\n').expect("provenance header");
    let seed: u64 = header
        .strip_prefix("# seed=")
        .and_then(|rest| rest.split(',').next())
        .and_then(|s| s.parse().ok())
        .expect("seed in the provenance header");
    let ber = samples(1000, seed);
    assert_eq!(
        table(&ber).to_csv(),
        body,
        "recomputed CDF differs from the CSV"
    );
    let s = summarize(&ber);
    for (quantity, value) in [
        ("w/o OTAM median", s.median_without),
        ("w/o OTAM p90", s.p90_without),
        ("w/ OTAM median", s.median_with),
        ("w/ OTAM p90", s.p90_with),
    ] {
        assert_eq!(
            fig11_doc_cell(quantity),
            format!("{value:.1e}"),
            "{quantity}"
        );
    }
    let gains = fig11_doc_cell("OTAM improves both statistics by orders of magnitude");
    let quoted = format!(
        "median ≈{:.0}× better, p90 ≈{:.1}× better",
        s.median_without / s.median_with,
        s.p90_without / s.p90_with
    );
    assert_eq!(gains, quoted);
}

/// The body rows of the first table in EXPERIMENTS.md's section whose
/// heading starts with `heading`, each split into trimmed cells.
fn doc_table(heading: &str) -> Vec<Vec<String>> {
    let doc = include_str!("../EXPERIMENTS.md");
    let section = doc
        .split(&format!("\n## {heading}"))
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has a {heading:?} section"));
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and rule
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

/// The data rows of a committed CSV (provenance and column headers
/// skipped), each split into fields.
fn csv_rows(csv: &str) -> Vec<Vec<&str>> {
    csv.lines()
        .filter(|l| !l.starts_with('#'))
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect()
}

/// Asserts that the doc `cell` quotes `value` at the precision it
/// prints: the cell's leading number (a Unicode minus read as `-`,
/// units after it ignored) must equal `value` rounded to as many
/// decimals as the cell shows.
fn assert_quotes(cell: &str, value: f64, what: &str) {
    let ascii = cell.replace('−', "-");
    let num: String = ascii
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    let decimals = num.split_once('.').map_or(0, |(_, frac)| frac.len());
    assert_eq!(
        num,
        format!("{value:.decimals$}"),
        "{what}: EXPERIMENTS.md quotes {cell:?}"
    );
}

fn field(row: &[&str], col: usize) -> f64 {
    row[col].parse().expect("numeric CSV field")
}

#[test]
fn fig13_docs_quote_the_artifact() {
    // Every row of the Fig. 13 table: nodes → measured mean SINR.
    let csv = csv_rows(include_str!("../results/fig13_multinode.csv"));
    let doc = doc_table("Fig. 13 ");
    assert_eq!(doc.len(), csv.len(), "one doc row per CSV row");
    for (d, c) in doc.iter().zip(&csv) {
        assert_eq!(d[0], c[0], "node counts in CSV order");
        assert_quotes(&d[2], field(c, 1), &format!("Fig. 13 mean SINR @{}", c[0]));
    }
}

#[test]
fn scale_out_docs_quote_the_artifact() {
    // nodes | mean SINR | worst node | delivery (%) | goodput
    let csv = csv_rows(include_str!("../results/fig13_scale.csv"));
    let doc = doc_table("§7 scale-out");
    assert_eq!(doc.len(), csv.len(), "one doc row per CSV row");
    for (d, c) in doc.iter().zip(&csv) {
        assert_eq!(d[0], c[0], "node counts in CSV order");
        let what = |q: &str| format!("scale-out {q} @{}", c[0]);
        assert_quotes(&d[1], field(c, 1), &what("mean SINR"));
        assert_quotes(&d[2], field(c, 2), &what("worst node"));
        assert_quotes(&d[3], field(c, 3) * 100.0, &what("delivery"));
        assert_quotes(&d[4], field(c, 4), &what("goodput"));
    }
}

#[test]
fn multi_cell_docs_quote_the_artifact() {
    // APs | colors | reuse | admitted | sustained | mean SINR, all @600
    // nodes; the CSV columns are aps, nodes, admitted, sustained,
    // colors, reuse gain, mean SINR.
    let csv = csv_rows(include_str!("../results/fig13_multi_ap.csv"));
    let at_600 = |aps: &str| {
        csv.iter()
            .find(|c| c[0] == aps && c[1] == "600")
            .unwrap_or_else(|| panic!("no CSV row for {aps} APs @600"))
    };
    let doc = doc_table("§7 multi-cell");
    assert_eq!(doc.len(), 4, "one doc row per AP count");
    for d in &doc {
        let c = at_600(&d[0]);
        let what = |q: &str| format!("multi-cell {q} @{} APs", c[0]);
        assert_quotes(&d[1], field(c, 4), &what("colors"));
        assert_quotes(&d[2], field(c, 5), &what("reuse"));
        assert_quotes(&d[3], field(c, 2), &what("admitted"));
        assert_quotes(&d[4], field(c, 3), &what("sustained"));
        assert_quotes(&d[5], field(c, 6), &what("mean SINR"));
    }
    // The headline sentence quotes the 4-AP vs 1-AP sustained counts.
    let (one, four) = (field(at_600("1"), 3), field(at_600("4"), 3));
    let quoted = format!("sustain **{four} vs {one} — {:.1}×", four / one);
    assert!(
        include_str!("../EXPERIMENTS.md").contains(&quoted),
        "EXPERIMENTS.md should quote {quoted:?}"
    );
}
