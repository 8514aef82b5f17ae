#![warn(missing_docs)]
//! # mmx-core
//!
//! The mmX system as a library: the paper's contribution behind one
//! coherent API.
//!
//! ```
//! use mmx_core::prelude::*;
//!
//! // The paper's 6 m × 4 m testbed with the AP on the east wall.
//! let testbed = Testbed::paper_default();
//! // Drop a node 4 m from the AP, facing it.
//! let obs = testbed.observe(testbed.node_pose_at(Vec2::new(1.5, 2.0)), &[]);
//! assert!(obs.snr_otam.value() > 10.0);
//! assert!(obs.ber_otam < 1e-8);
//! ```
//!
//! * [`config`] — the shared operating point (carrier, bandwidth,
//!   losses) as constants.
//! * [`link`] — the single-link evaluator behind Figs. 10–12: SNR/BER
//!   with and without OTAM at any pose, under any blockers.
//! * [`scenario`] — ready-made deployments: smart home, surveillance,
//!   vehicle (the applications §1 motivates), each a
//!   [`NetworkSim`](mmx_net::sim::NetworkSim) of `mmx-net`'s node and
//!   AP stations.
//! * [`report`] — plain-text table rendering for the experiment
//!   harness.

pub mod config;
pub mod link;
pub mod report;
pub mod scenario;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::link::{LinkObservation, Testbed};
    pub use crate::scenario;
    pub use mmx_channel::response::Pose;
    pub use mmx_channel::Vec2;
    pub use mmx_net::ap::{ApId, ApStation};
    pub use mmx_net::node::NodeStation;
    pub use mmx_net::sim::{NetworkSim, SimConfig};
    pub use mmx_units::{BitRate, Db, Degrees, Hertz, Seconds};
}

pub use link::{LinkObservation, Testbed};
