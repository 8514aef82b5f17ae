//! The [`Recorder`]: one run's metrics registry plus trace buffer
//! behind a single enabled/disabled switch.
//!
//! A disabled recorder is a true no-op: every method checks one bool
//! and returns, touching neither the registry nor the ring buffer, so
//! instrumented hot paths cost a branch and **zero allocations** when
//! observability is off (enforced by `tests/zero_alloc.rs`).

use crate::metrics::{Histogram, Key, Registry};
use crate::trace::{TraceBuffer, TraceEvent};

/// Default ring capacity: enough for the full control-plane trace of
/// the bench scenarios while bounding a pathological run to ~6 MB.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A per-run observability sink.
///
/// Timestamps are **simulation-domain**: callers pass the event-queue
/// clock (as seconds), never a wall clock, so the trace is a pure
/// function of the run's seed and config — byte-identical at any worker
/// thread count. Host-domain (wall-clock) timings are kept out of the
/// trace on purpose.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    enabled: bool,
    registry: Registry,
    trace: TraceBuffer,
}

impl Recorder {
    /// An enabled recorder with the default trace capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled recorder bounding the trace to `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            enabled: true,
            registry: Registry::new(),
            trace: TraceBuffer::with_capacity(capacity),
        }
    }

    /// A disabled recorder: every recording call is a no-op and
    /// allocates nothing — constructing one is free too (empty maps and
    /// a zero-capacity ring).
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            registry: Registry::new(),
            trace: TraceBuffer::with_capacity(0),
        }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&mut self, name: &'static str, label: &'static str) {
        self.add(name, label, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, name: &'static str, label: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        self.registry.add(
            Key {
                name,
                label,
                index: -1,
            },
            n,
        );
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, name: &'static str, label: &'static str, v: f64) {
        if !self.enabled {
            return;
        }
        self.registry.set(
            Key {
                name,
                label,
                index: -1,
            },
            v,
        );
    }

    /// Adds to an accumulating gauge (e.g. seconds spent in a state).
    #[inline]
    pub fn gauge_add(&mut self, name: &'static str, label: &'static str, v: f64) {
        if !self.enabled {
            return;
        }
        self.registry.gauge_add(
            Key {
                name,
                label,
                index: -1,
            },
            v,
        );
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&mut self, name: &'static str, label: &'static str, v: f64) {
        if !self.enabled {
            return;
        }
        self.registry.observe(
            Key {
                name,
                label,
                index: -1,
            },
            v,
        );
    }

    /// Folds a locally accumulated histogram into the named one.
    ///
    /// Hot loops (per-packet paths) record into a stack-local
    /// [`Histogram`] — one array index per sample, no keyed map lookup —
    /// and flush it here once; by the merge law this is exactly
    /// equivalent to calling [`Self::observe`] per sample.
    #[inline]
    pub fn observe_hist(&mut self, name: &'static str, label: &'static str, h: &Histogram) {
        if !self.enabled || h.count() == 0 {
            return;
        }
        self.registry.observe_merge(
            Key {
                name,
                label,
                index: -1,
            },
            h,
        );
    }

    /// Appends a trace event at simulation time `t` (seconds).
    #[inline]
    pub fn event(
        &mut self,
        t: f64,
        kind: &'static str,
        node: i64,
        a: &'static str,
        b: &'static str,
        v: f64,
    ) {
        if !self.enabled {
            return;
        }
        self.trace.push(TraceEvent {
            t,
            kind,
            node,
            a,
            b,
            v,
        });
    }

    /// Opens a simulation-domain span (e.g. a blockage burst): a
    /// `span`/`begin` trace event.
    #[inline]
    pub fn span_begin(&mut self, t: f64, name: &'static str, node: i64) {
        self.event(t, "span", node, name, "begin", 0.0);
    }

    /// Closes a simulation-domain span: a `span`/`end` trace event.
    #[inline]
    pub fn span_end(&mut self, t: f64, name: &'static str, node: i64) {
        self.event(t, "span", node, name, "end", 0.0);
    }

    /// The metrics recorded so far.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// The whole trace as JSONL.
    pub fn trace_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }

    /// A named histogram (unlabelled key), if recorded.
    pub fn histogram(&self, name: &'static str) -> Option<&Histogram> {
        self.registry.histogram(Key::plain(name))
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut r = Recorder::disabled();
        r.inc("a", "");
        r.observe("h", "", 1.0);
        r.event(0.0, "fsm", 0, "Idle", "Joining", 0.0);
        r.set_gauge("g", "", 5.0);
        assert_eq!(r.registry().counter(Key::plain("a")), 0);
        assert!(r.trace().is_empty());
        assert!(r.registry().gauge(Key::plain("g")).is_none());
    }

    #[test]
    fn enabled_records_everything() {
        let mut r = Recorder::enabled();
        r.inc("pkts", "");
        r.add("pkts", "", 2);
        r.observe("sinr_db", "", 20.0);
        r.span_begin(1.0, "burst", -1);
        r.span_end(1.5, "burst", -1);
        assert_eq!(r.registry().counter(Key::plain("pkts")), 3);
        assert_eq!(r.histogram("sinr_db").unwrap().count(), 1);
        assert_eq!(r.trace().len(), 2);
        let jsonl = r.trace_jsonl();
        assert!(jsonl.contains(r#""a":"burst","b":"begin""#));
    }
}
