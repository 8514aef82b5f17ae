#![warn(missing_docs)]
//! # mmX — a millimeter-wave network for billions of things
//!
//! A full reimplementation (in simulation) of *"A Millimeter Wave Network
//! for Billions of Things"* (SIGCOMM '19): a 24 GHz network for low-power,
//! low-cost IoT devices built around **Over-The-Air Modulation** — the
//! node transmits a pure carrier and switches it between two orthogonal
//! fixed beams; the channel's unequal per-beam losses create the ASK
//! signal at the receiver, eliminating phased arrays and beam searching.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`units`] | dB/dBm/Hz/bit-rate types, link-budget arithmetic |
//! | [`dsp`] | complex baseband DSP: FFT, Goertzel, envelopes, stats |
//! | [`antenna`] | patch arrays, the orthogonal OTAM beams, phased arrays, TMA |
//! | [`channel`] | geometric room model, path tracing, blockage, mobility |
//! | [`rf`] | VCO/switch/LNA/mixer models, noise cascade, power & cost |
//! | [`phy`] | ASK/FSK/joint modulation, OTAM links, packets, BER, coding |
//! | [`net`] | FDM/SDM, initialization protocol, network simulator |
//! | [`baseline`] | beam-search protocols and Table 1 platforms |
//! | [`core`] | the high-level mmX API: [`core::Testbed`], the operating point, scenario presets |
//!
//! ## Quickstart
//!
//! ```
//! use mmx::core::prelude::*;
//!
//! let testbed = Testbed::paper_default();
//! let node = testbed.node_pose_at(Vec2::new(1.5, 2.0));
//! let obs = testbed.observe(node, &[]);
//! println!("SNR with OTAM: {}, BER: {:.1e}", obs.snr_otam, obs.ber_otam);
//! assert!(obs.snr_otam.value() > 10.0);
//! ```
//!
//! See `examples/` for runnable applications and `crates/bench` for the
//! per-figure reproduction harness.

pub use mmx_antenna as antenna;
pub use mmx_baseline as baseline;
pub use mmx_channel as channel;
pub use mmx_core as core;
pub use mmx_dsp as dsp;
pub use mmx_net as net;
pub use mmx_phy as phy;
pub use mmx_rf as rf;
pub use mmx_units as units;
