#![warn(missing_docs)]
//! # mmx-net
//!
//! The mmX network layer: many nodes, one AP (§4, §7).
//!
//! mmX operates in two phases. In the *initialization* phase the AP
//! assigns each node a frequency channel sized to its demand over an
//! out-of-band control link ([`control`]); in the *transmission* phase
//! the nodes stream concurrently, separated by frequency ([`fdm`]) and —
//! when demand exceeds the band — by space via the AP's time-modulated
//! array ([`sdm`]). This crate simulates all of it:
//!
//! * [`event`] — a deterministic discrete-event engine.
//! * [`fdm`] — band plans and the demand-driven channel allocator.
//! * [`sdm`] — TMA harmonic assignment and channel reuse.
//! * [`control`] — the join/grant initialization protocol.
//! * [`interference`] — SINR: co-channel TMA leakage, adjacent-channel
//!   leakage, thermal noise.
//! * [`node`] / [`ap`] — the station models.
//! * [`sim`] — the network simulator producing per-node SNR/PER/goodput
//!   (Fig. 13's engine).
//! * [`energy`] — network-wide energy accounting.
//! * [`arq`] — stop-and-wait link-layer reliability with the ACK on the
//!   out-of-band control plane (extension; keeps the node TX-only).
//! * [`faults`] — seeded, deterministic fault injection: control-plane
//!   loss/duplication/delay, node churn, correlated blockage bursts,
//!   AP restart.
//! * [`link`] — the node-side control-link state machine
//!   (Idle → Joining → Granted → Outage → Rejoining) and retransmit
//!   backoff.
//! * [`pool`] / [`streams`] — the intra-sim worker pool and per-node
//!   RNG streams behind the gather→commit phase-parallel event loop
//!   (DESIGN.md §9).
//! * [`multi_ap`] — cross-AP coordination: coverage-aware channel
//!   reuse planning, the epoch-stamped slot arbiter, roaming handoff
//!   and the multi-cell simulator (DESIGN.md §10).

pub mod ap;
pub mod arq;
pub mod control;
pub mod energy;
pub mod event;
pub mod faults;
pub mod fdm;
pub mod interference;
pub mod link;
pub mod multi_ap;
mod net;
pub mod node;
pub mod pool;
pub mod sdm;
pub mod sim;
pub mod streams;

pub use ap::ApId;
pub use event::{EventQueue, ScheduleError};
pub use faults::{FaultConfig, FaultInjector};
pub use fdm::{BandPlan, ChannelAssignment};
pub use link::{Backoff, LinkState, NodeLink};
pub use sim::{NetworkReport, NetworkSim, NodeReport, RecoveryReport};
