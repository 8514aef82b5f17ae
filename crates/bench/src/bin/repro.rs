//! Runs the full reproduction: every figure, the table, the
//! microbenchmarks, the ablations and the extension experiments,
//! writing all CSVs into `results/`, then prints a paper-vs-measured
//! summary. It is the only writer of those CSVs and takes no arguments.
//!
//! Run with: `cargo run --release -p mmx-bench --bin repro`
//! (`MMX_RESULTS_DIR=<dir>` redirects the CSVs).

use mmx_bench::*;

fn main() {
    println!("mmX reproduction harness — every table and figure\n");
    let hash = fig06_tma_hash::run();
    output::emit(
        "Fig. 6 — TMA direction→frequency hash (measured spectrum)",
        "fig06_tma_hash",
        &fig06_tma_hash::table(&hash),
    );
    output::emit(
        "Fig. 7 — VCO carrier frequency vs tuning voltage",
        "fig07_vco",
        &fig07_vco::table(),
    );
    output::emit(
        "Fig. 8 — node beam patterns",
        "fig08_beams",
        &fig08_beams::table(),
    );
    output::emit(
        "Fig. 9 — received waveform examples",
        "fig09_waveforms",
        &fig09_waveforms::table(),
    );
    let map = fig10_snr_map::sweep(1);
    output::emit_seeded(
        "Fig. 10 — SNR map w/o and w/ OTAM",
        "fig10_snr_map",
        1,
        &fig10_snr_map::table(&map),
    );
    let ber = fig11_ber_cdf::samples(1000, 7);
    output::emit_seeded(
        "Fig. 11 — BER CDF",
        "fig11_ber_cdf",
        7,
        &fig11_ber_cdf::table(&ber),
    );
    let range = fig12_range::sweep();
    output::emit(
        "Fig. 12 — SNR vs distance",
        "fig12_range",
        &fig12_range::table(&range),
    );
    let multi = fig13_multinode::sweep(10, 11);
    output::emit_seeded(
        "Fig. 13 — SINR vs concurrent nodes",
        "fig13_multinode",
        11,
        &fig13_multinode::table(&multi),
    );
    let scale = fig13_scale::sweep(11);
    output::emit_seeded(
        "§7 scale-out — 50-500 sensors on one AP",
        "fig13_scale",
        11,
        &fig13_scale::table(&scale),
    );
    let multi_ap = fig13_multi_ap::sweep(11);
    output::emit_seeded(
        "§7 multi-cell — 1-8 coordinated APs over 100-600 nodes",
        "fig13_multi_ap",
        11,
        &fig13_multi_ap::table(&multi_ap),
    );
    output::emit(
        "Table 1 — platform comparison",
        "table1_comparison",
        &table1::table(),
    );
    output::emit(
        "§9.1 microbenchmarks",
        "table1_microbenchmarks",
        &table1::microbenchmarks(),
    );
    output::emit_seeded(
        "Ablation §6.2 — beam orthogonality",
        "ablation_beams",
        5,
        &ablations::beam_ablation(2000, 5),
    );
    output::emit_seeded(
        "Ablation §6.3 — modulation",
        "ablation_modulation",
        6,
        &ablations::modulation_ablation(2000, 6),
    );
    output::emit(
        "Ablation — beam search vs OTAM",
        "ablation_search",
        &ablations::search_ablation(),
    );
    output::emit_seeded(
        "Ablation §9.3 — coding",
        "ablation_coding",
        4,
        &ablations::coding_ablation(100_000, 4),
    );
    output::emit_seeded(
        "Ablation — uplink power control at 20 nodes",
        "ablation_power_control",
        7,
        &ablations::power_control_ablation(7),
    );

    // Extensions beyond the paper's figures.
    let rate = ext_rate::sweep(40);
    output::emit(
        "Extension — rate adaptation vs distance",
        "ext_rate_adaptation",
        &ext_rate::table(&rate),
    );
    output::emit(
        "Extension — 60 GHz band capacity",
        "ext_60ghz_capacity",
        &ext_60ghz::capacity_table(),
    );
    output::emit(
        "Extension — 24 vs 60 GHz link margin",
        "ext_60ghz_range",
        &ext_60ghz::range_table(20),
    );
    output::emit_seeded(
        "Extension — waveform-level BER validation (ASK branch)",
        "ext_ber_ask",
        3,
        &ext_ber_validation::table("ASK", &ext_ber_validation::ask_sweep(100_000, 3)),
    );
    output::emit_seeded(
        "Extension — waveform-level BER validation (FSK branch)",
        "ext_ber_fsk",
        4,
        &ext_ber_validation::table("FSK", &ext_ber_validation::fsk_sweep(100_000, 4)),
    );
    let blockage = ext_blockage::trace(6.8, 0.05);
    output::emit(
        "Extension — blockage dynamics (walker crossing the LoS)",
        "ext_blockage_trace",
        &ext_blockage::table(&blockage),
    );
    let faults = ext_faults::sweep(5, 42);
    output::emit_seeded(
        "Extension — goodput under control loss × node churn",
        "ext_faults_grid",
        42,
        &ext_faults::table(&faults),
    );
    output::emit_seeded(
        "Extension — time-to-recover vs control-loss rate (churn 0.3 Hz)",
        "ext_faults_recovery",
        42,
        &ext_faults::recovery_table(&ext_faults::recovery_cdf(10, 42)),
    );

    // Summary block for EXPERIMENTS.md.
    println!("== paper-vs-measured summary ==");
    let (sa, sb) = fig06_tma_hash::suppressions(&hash);
    println!(
        "fig06: TMA hashes two same-frequency nodes onto harmonics +1/−2 with \
         {sa:.0}/{sb:.0} dB cross-suppression (paper: copies 20-30 dB weaker)"
    );
    let vco = fig07_vco::summarize(&fig07_vco::sweep());
    println!(
        "fig07: sweep {:.4}-{:.4} GHz (paper 23.95-24.25), ISM covered: {}",
        vco.f_min_ghz, vco.f_max_ghz, vco.covers_ism
    );
    let beams = fig08_beams::summarize();
    println!(
        "fig08: beam1 peak {:.1}°, beam0 peaks {:?}, HPBW {:.1}° (paper: 0°, ±30°, 40°); \
         worst cross-gain at the other beam's peak {:.1} dB (mutual nulls)",
        beams.beam1_peak_deg,
        beams.beam0_peaks_deg,
        beams.beam1_hpbw_deg,
        beams.orthogonality_leak_db
    );
    let (a, b) = (
        fig09_waveforms::synthesize(fig09_waveforms::Panel::AskDecodable),
        fig09_waveforms::synthesize(fig09_waveforms::Panel::NeedsFsk),
    );
    println!(
        "fig09: (a) unequal loss decoded via {:?}, bits ok {}; (b) equal loss decoded via {:?}, \
         bits ok {} (paper: ASK / FSK)",
        a.used,
        a.bits == a.tx_bits,
        b.used,
        b.bits == b.tx_bits
    );
    let s10 = fig10_snr_map::summarize(&map);
    println!(
        "fig10: {:.0}% <5 dB w/o OTAM; {:.0}% ≥10 dB, {:.0}% ≥5 dB w/ OTAM, mean gain {:.1} dB \
         (paper: 'many' / 'almost all')",
        100.0 * s10.frac_below_5db_without,
        100.0 * s10.frac_at_least_10db_with,
        100.0 * s10.frac_at_least_5db_with,
        s10.mean_gain_db
    );
    let s11 = fig11_ber_cdf::summarize(&ber);
    println!(
        "fig11: median {:.1e}→{:.1e}, p90 {:.1e}→{:.1e} (paper: 1e-5→1e-12, 0.3→1e-3)",
        s11.median_without, s11.median_with, s11.p90_without, s11.p90_with
    );
    let (near, far) = (&range[0], range.last().expect("non-empty sweep"));
    println!(
        "fig12: facing {:.1}→{:.1} dB over 1–18 m (paper ~40→≥15); \
         rotated {:.1}→{:.1} dB (paper: lower, ≥9 at 18 m)",
        near.snr_facing, far.snr_facing, near.snr_not_facing, far.snr_not_facing
    );
    let m20 = multi.last().expect("non-empty");
    println!(
        "fig13: 20-node mean SINR {:.1} dB with real interference (paper 29 dB, idealized)",
        m20.mean_sinr_db
    );
    let s500 = scale.last().expect("non-empty");
    println!(
        "scale: 500-node mean SINR {:.1} dB, delivery {:.0}% (§7 scale-out, full interference)",
        s500.mean_sinr_db,
        100.0 * s500.delivery_rate
    );
    let (one_ap, four_ap) = fig13_multi_ap::summarize(&multi_ap);
    println!(
        "multi-ap: 4 coordinated APs sustain {four_ap} nodes vs {one_ap} on one AP (≥95% delivery, same layout)"
    );
    println!(
        "ext rate: 10 Mbps (HD camera) range {} m vs the fixed-rate 100 Mbps range of {} m",
        ext_rate::range_at_rate(&rate, 10.0).unwrap_or(0.0),
        ext_rate::range_at_rate(&rate, 100.0).unwrap_or(0.0),
    );
    let s60 = ext_60ghz::summarize();
    println!(
        "ext 60ghz: 60 GHz carries {}x the cameras at {:.1} dB extra loss at 18 m",
        s60.cameras_60 / s60.cameras_24.max(1),
        s60.extra_loss_at_18m_db
    );
    let sb = ext_blockage::summarize(&blockage);
    println!(
        "ext blockage: worst-case SNR during crossing OTAM {:.1} dB vs Beam-1-only {:.1} dB; \
         inverted {:.0}% of the time",
        sb.worst_otam_db,
        sb.worst_beam1_db,
        100.0 * sb.inverted_fraction
    );
    if let (Some(clean), Some(worst)) = (faults.first(), faults.last()) {
        println!(
            "ext faults: goodput keeps {:.0}% of the fault-free level at 40% control loss \
             + 0.5 Hz churn; worst time-to-recover {:.2} s",
            100.0 * worst.goodput_frac / clean.goodput_frac.max(1e-12),
            worst.worst_recovery_s
        );
    }
}
