#![warn(missing_docs)]
//! # mmx-channel
//!
//! mmWave propagation substrate for the mmX reproduction.
//!
//! The paper's evaluation lives in a 6 m × 4 m lab: a node transmits
//! through one of two beams, the signal reaches the AP over a sparse set of
//! paths (the direct line of sight plus a few wall/furniture reflections),
//! and people walking through the room block paths. This crate models that
//! world geometrically:
//!
//! * [`geometry`] — 2-D vectors, segments, ray–segment intersection and
//!   mirror reflection.
//! * [`room`] — a rectangular room with walls, extra reflectors and
//!   static obstacles, all carrying material reflection losses.
//! * [`pathloss`] — free-space/log-distance path loss at mmWave carriers,
//!   with the 60 GHz oxygen-absorption term.
//! * [`trace`] — path enumeration: the LoS path and first-order specular
//!   reflections via the image method, with obstruction tests.
//! * [`blockage`] — human-body blockage: geometric torso discs that
//!   attenuate the path legs they cross.
//! * [`mobility`] — random-waypoint node mobility and linear walkers.
//! * [`fading`] — Rician small-scale fading and time-correlated fading
//!   processes on top of the specular geometry.
//! * [`response`] — collapses the traced paths into per-beam complex
//!   channel gains, the quantity OTAM modulates, either per call or from
//!   [`LinkPlans`] that trace each static link once.
//!
//! All randomness flows through caller-provided seeded RNGs; every
//! experiment in the repo is reproducible bit-for-bit.

pub mod blockage;
pub mod fading;
pub mod geometry;
pub mod mobility;
pub mod pathloss;
pub mod response;
pub mod room;
pub mod trace;

pub use geometry::Vec2;
pub use response::{beam_channel, beam_channel_into, BeamChannel, LinkPlans, Pose};
pub use room::Room;
pub use trace::{PathKind, PropPath, Tracer};
