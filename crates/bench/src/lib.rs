//! # mmx-bench
//!
//! The reproduction harness: one module per table/figure in the paper's
//! evaluation, each producing the same rows/series the paper reports.
//!
//! Binaries under `src/bin/` print the tables and write CSVs into
//! `results/`; the Criterion benches under `benches/` measure the
//! computational hot paths (demodulators, FFT, TMA, tracer, Viterbi,
//! network simulation).
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig06_tma_hash`] | Fig. 6 — the TMA direction→frequency hash, measured |
//! | [`fig07_vco`] | Fig. 7 — VCO frequency vs tuning voltage |
//! | [`fig08_beams`] | Fig. 8 — measured beam patterns of the node |
//! | [`fig09_waveforms`] | Fig. 9 — received signal examples (ASK/FSK) |
//! | [`fig10_snr_map`] | Fig. 10 — SNR map with/without OTAM |
//! | [`fig11_ber_cdf`] | Fig. 11 — BER CDF with/without OTAM |
//! | [`fig12_range`] | Fig. 12 — SNR vs distance, two orientations |
//! | [`fig13_multinode`] | Fig. 13 — SNR vs number of concurrent nodes |
//! | [`fig13_scale`] | §7 scale-out: 50–500 sensors on one AP |
//! | [`fig13_multi_ap`] | §7 multi-cell: 1–8 coordinated APs, 100–600 nodes, roaming |
//! | [`table1`] | Table 1 — platform comparison |
//! | [`ablations`] | §6.2/§6.3 design-choice ablations + beam search |
//! | [`ext_rate`] | extension: rate adaptation vs distance |
//! | [`ext_60ghz`] | extension: the 60 GHz band plan (§7a) |
//! | [`ext_blockage`] | extension: blockage dynamics time series |
//! | [`ext_faults`] | extension: goodput & recovery under injected faults |
//! | [`obs_trace`] | observability: deterministic fault-scenario traces |

pub mod ablations;
pub mod ext_60ghz;
pub mod ext_ber_validation;
pub mod ext_blockage;
pub mod ext_faults;
pub mod ext_rate;
pub mod fig06_tma_hash;
pub mod fig07_vco;
pub mod fig08_beams;
pub mod fig09_waveforms;
pub mod fig10_snr_map;
pub mod fig11_ber_cdf;
pub mod fig12_range;
pub mod fig13_multi_ap;
pub mod fig13_multinode;
pub mod fig13_scale;
pub mod obs_trace;
pub mod output;
pub mod par;
pub mod table1;
