//! `mmx-obs`: deterministic observability for the mmX stack.
//!
//! Two pieces, no external dependencies:
//!
//! * **Metrics** ([`Registry`], [`Histogram`]): counters, gauges, and
//!   fixed-bucket log-scale histograms keyed by static names plus a
//!   small label set. Histograms store only integers and exact
//!   min/max, so [`Histogram::merge`] is exactly order-insensitive and
//!   merging two shards equals recording the concatenated stream.
//! * **Traces** ([`TraceEvent`], [`TraceBuffer`], [`Recorder`]): a
//!   bounded ring of fixed-shape events stamped with the **simulated**
//!   clock (the event-queue time), serialized as JSONL. Because every
//!   payload is `Copy` and the timestamps are sim-domain, traces are
//!   byte-identical across worker thread counts for the same seed.
//!
//! The disabled mode ([`Recorder::disabled`]) adds **zero allocations**
//! on instrumented hot paths — every recording method checks one bool
//! and returns (enforced by `tests/zero_alloc.rs`).
//!
//! [`replay()`] turns a JSONL trace back into per-node time-in-state
//! timelines for the Idle → Joining → Granted → Outage → Rejoining
//! control-link FSM; the `obs_report` bin in `mmx-bench` fronts it.

pub mod metrics;
pub mod recorder;
pub mod replay;
pub mod trace;

pub use metrics::{Histogram, Key, Registry, HISTOGRAM_BUCKETS};
pub use recorder::{Recorder, DEFAULT_TRACE_CAPACITY};
pub use replay::{parse_jsonl, parse_line, replay, NodeTimeline, ParsedEvent, RunTimeline};
pub use trace::{TraceBuffer, TraceEvent};
