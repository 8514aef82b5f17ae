//! The structured trace: a bounded ring buffer of fixed-shape events
//! serialized as JSONL.
//!
//! Events carry only `Copy` payloads (`f64` time, `&'static str` names,
//! an `i64` node index), so recording one allocates at most the ring
//! buffer's amortised growth toward its capacity, and two identically
//! seeded runs produce byte-identical serializations — floats print via
//! Rust's shortest-round-trip formatter, which is a pure function of the
//! bit pattern.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// One trace event.
///
/// The field meaning depends on `kind` (the conventions the mmX stack
/// uses are documented on the wiring sites):
///
/// | kind | `a` | `b` | `v` |
/// |---|---|---|---|
/// | `fsm` | from-state | to-state | 0 |
/// | `ctl` | message (`join`/`grant`/…) | fate (`sent`/`lost`/`dup`) | epoch or 0 |
/// | `retry` | `join` | — | attempt |
/// | `fault` | `crash`/`depart`/`ap_restart` | — | 0 |
/// | `lease` | `expired` | — | 0 |
/// | `recover` | `join`/`outage`/`rejoin` | — | duration (s) |
/// | `span` | span name | `begin`/`end` | 0 |
/// | `run` | `begin`/`end` | — | node count / 0 |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation-domain timestamp, seconds.
    pub t: f64,
    /// Event kind (static tag).
    pub kind: &'static str,
    /// Node index the event concerns (`-1` = network-wide).
    pub node: i64,
    /// First payload tag (see table).
    pub a: &'static str,
    /// Second payload tag (see table).
    pub b: &'static str,
    /// Numeric payload (epoch, attempt, duration, …).
    pub v: f64,
}

impl TraceEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }

    /// Appends the JSON form to `out` (no trailing newline). Static
    /// tags never need escaping by construction; they are appended
    /// as-is. The bytes equal one `format!` of the line with `{}` for
    /// every number.
    pub fn write_json(&self, out: &mut String) {
        self.write_json_at(out, &mut TimeText::default());
    }

    /// [`Self::write_json`] with the timestamp's text taken from `time`.
    fn write_json_at(&self, out: &mut String, time: &mut TimeText) {
        out.push_str(r#"{"t":"#);
        out.push_str(time.text(self.t));
        out.push_str(r#","kind":""#);
        out.push_str(self.kind);
        out.push_str(r#"","node":"#);
        push_i64(out, self.node);
        out.push_str(r#","a":""#);
        out.push_str(self.a);
        out.push_str(r#"","b":""#);
        out.push_str(self.b);
        out.push_str(r#"","v":"#);
        push_f64(out, self.v);
        out.push('}');
    }
}

/// The text of the last timestamp rendered, kept while consecutive
/// events repeat it: a control exchange traces several events at one
/// instant (58% of the events in `results/trace_fig13.jsonl` repeat the
/// previous event's timestamp).
#[derive(Default)]
struct TimeText {
    bits: Option<u64>,
    text: String,
}

impl TimeText {
    fn text(&mut self, t: f64) -> &str {
        if self.bits != Some(t.to_bits()) {
            self.bits = Some(t.to_bits());
            self.text.clear();
            push_f64(&mut self.text, t);
        }
        &self.text
    }
}

/// Whole numbers up to this magnitude print the same through `{}` and
/// as integer digits; above it `{}` prints the shortest round-trip
/// digits padded with zeros (2^59 → `576460752303423500`), not the
/// exact integer.
const EXACT_INTEGRAL: f64 = 9_007_199_254_740_992.0; // 2^53

/// Appends `v` exactly as `{}` formats it. Whole numbers within
/// [`EXACT_INTEGRAL`] — 95% of the `v` payloads in
/// `results/trace_fig13.jsonl` (zero, epochs, attempts) — print their
/// integer digits without the float formatter; `-0.0` keeps its sign
/// through the formatter.
fn push_f64(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() <= EXACT_INTEGRAL && !(v == 0.0 && v.is_sign_negative()) {
        push_i64(out, v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `v`'s decimal digits.
fn push_i64(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// A bounded ring of trace events: when full, the oldest event is
/// dropped and counted, so a long run degrades to "most recent window"
/// instead of unbounded memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` events (0 = record nothing).
    /// Storage grows with the trace, up to `capacity`: most runs record
    /// far fewer events than the bound allows.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            ring: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted (or refused at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Serializes the buffer as JSONL (one event per line, trailing
    /// newline after the last).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.ring.len() * 96);
        let mut time = TimeText::default();
        for ev in &self.ring {
            ev.write_json_at(&mut out, &mut time);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64) -> TraceEvent {
        TraceEvent {
            t,
            kind: "fsm",
            node: 3,
            a: "Idle",
            b: "Joining",
            v: 0.0,
        }
    }

    #[test]
    fn json_shape_is_fixed() {
        assert_eq!(
            ev(0.25).to_json(),
            r#"{"t":0.25,"kind":"fsm","node":3,"a":"Idle","b":"Joining","v":0}"#
        );
        let odd = TraceEvent {
            t: 1e-7,
            node: -1,
            v: -2.5e21,
            ..ev(0.0)
        };
        assert_eq!(
            odd.to_json(),
            r#"{"t":0.0000001,"kind":"fsm","node":-1,"a":"Idle","b":"Joining","v":-2500000000000000000000}"#
        );
    }

    #[test]
    fn writer_matches_one_format_template() {
        // The single-template form the trace has always been written in.
        let template = |e: &TraceEvent| {
            format!(
                r#"{{"t":{},"kind":"{}","node":{},"a":"{}","b":"{}","v":{}}}"#,
                e.t, e.kind, e.node, e.a, e.b, e.v
            )
        };
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -2.25,
            1e-7,
            0.1 + 0.2,
            123456.789,
            1e15,
            -1e17,
            EXACT_INTEGRAL - 1.0,
            EXACT_INTEGRAL,
            -EXACT_INTEGRAL,
            EXACT_INTEGRAL + 2.0,
            2f64.powi(57),
            2f64.powi(59),
            2.5e21,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut ring = TraceBuffer::with_capacity(2 * values.len());
        let mut lines = String::new();
        for (i, &x) in values.iter().enumerate() {
            let e = TraceEvent {
                t: x,
                node: [0, -1, 9, 10, 12345, i64::MAX, i64::MIN][i % 7],
                v: values[values.len() - 1 - i],
                ..ev(0.0)
            };
            assert_eq!(e.to_json(), template(&e), "t = {x:e}");
            // Twice, so the ring renders a repeated timestamp.
            ring.push(e);
            ring.push(e);
            lines.push_str(&(template(&e) + "\n").repeat(2));
        }
        assert_eq!(ring.to_jsonl(), lines);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut b = TraceBuffer::with_capacity(3);
        for i in 0..5 {
            b.push(ev(i as f64));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 2);
        let ts: Vec<f64> = b.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn lazily_grown_ring_evicts_like_a_pre_grown_one() {
        for capacity in [1, 3, 8] {
            let mut lazy = TraceBuffer::with_capacity(capacity);
            let mut grown = TraceBuffer {
                ring: VecDeque::with_capacity(capacity),
                capacity,
                dropped: 0,
            };
            for i in 0..3 * capacity + 2 {
                lazy.push(ev(i as f64));
                grown.push(ev(i as f64));
                assert_eq!(lazy, grown, "capacity {capacity}, after {} pushes", i + 1);
                assert!(lazy.ring.capacity() >= lazy.len());
            }
            assert_eq!(lazy.len(), capacity);
            assert_eq!(lazy.to_jsonl(), grown.to_jsonl());
        }
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut b = TraceBuffer::with_capacity(0);
        b.push(ev(1.0));
        assert!(b.is_empty());
        assert_eq!(b.dropped(), 1);
        assert_eq!(b.to_jsonl(), "");
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let mut b = TraceBuffer::with_capacity(8);
        for t in [1.0, 0.125, 0.125, 2.0, 0.125] {
            b.push(ev(t));
        }
        let text = b.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        assert!(text.ends_with('\n'));
        let each: String = b.iter().map(|e| e.to_json() + "\n").collect();
        assert_eq!(text, each);
    }
}
