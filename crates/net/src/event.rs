//! A deterministic discrete-event engine.
//!
//! The simulator schedules packet transmissions, mobility steps and
//! blockage transitions as timestamped events.
//!
//! # Total order
//!
//! The queue defines a *total* order over events, which is the spec the
//! gather→commit drain in `net` batches against:
//!
//! 1. earlier `time` first (times are finite by construction, so the
//!    comparison is total), and
//! 2. among events sharing a timestamp, **insertion order** (FIFO):
//!    every `schedule_*` call stamps a monotonically increasing sequence
//!    number, and ties break by the lower sequence number.
//!
//! Consequently `pop` is deterministic: two queues fed the same sequence
//! of `schedule_*` calls pop the same `(time, event)` sequence,
//! bit-for-bit, and any batching scheme that (a) drains a prefix of that
//! order and (b) performs the *scheduling* side effects of the drained
//! events in the same drained order assigns exactly the sequence numbers
//! the un-batched loop would have — so the batched and serial engines
//! stay byte-identical. [`peek`](EventQueue::peek) exposes the head
//! without popping so a drain can decide where a batch ends.
//!
//! Scheduling is fallible: an event in the past or at a non-finite time
//! is a caller bug the queue reports as a [`ScheduleError`] instead of
//! panicking, so a simulation driven by injected faults can surface the
//! problem as data rather than tearing the process down.

use mmx_units::Seconds;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Why an event could not be scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError {
    /// The requested time precedes the queue's current time.
    PastTime {
        /// The rejected timestamp.
        time: Seconds,
        /// The queue's clock when the request was made.
        now: Seconds,
    },
    /// The requested time (or delay) was NaN or infinite.
    NonFinite,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::PastTime { time, now } => write!(
                f,
                "cannot schedule into the past ({} < {})",
                time.value(),
                now.value()
            ),
            ScheduleError::NonFinite => write!(f, "event time must be finite"),
        }
    }
}

impl std::error::Error for ScheduleError {}

struct Entry<E> {
    time: Seconds,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. Times are
        // guaranteed finite by `schedule_at`, so the comparison is total.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite by construction")
            .then(other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue.
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Seconds,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Seconds::ZERO,
        }
    }

    /// The current simulation time (the timestamp of the last popped
    /// event).
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules an event at an absolute time. Fails on a non-finite
    /// time or one before [`now`](Self::now).
    pub fn schedule_at(&mut self, time: Seconds, event: E) -> Result<(), ScheduleError> {
        if !time.value().is_finite() {
            return Err(ScheduleError::NonFinite);
        }
        if time < self.now {
            return Err(ScheduleError::PastTime {
                time,
                now: self.now,
            });
        }
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        Ok(())
    }

    /// Schedules an event `delay` after the current time. Fails on a
    /// negative or non-finite delay.
    pub fn schedule_in(&mut self, delay: Seconds, event: E) -> Result<(), ScheduleError> {
        if !delay.value().is_finite() {
            return Err(ScheduleError::NonFinite);
        }
        if delay.value() < 0.0 {
            return Err(ScheduleError::PastTime {
                time: self.now + delay,
                now: self.now,
            });
        }
        self.schedule_at(self.now + delay, event)
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(Seconds, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now, "heap yielded an out-of-order event");
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// The next event in the total order — `(time, seq-FIFO)`, see the
    /// module docs — without popping it or advancing the clock.
    pub fn peek(&self) -> Option<(Seconds, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(3.0), "c").unwrap();
        q.schedule_at(Seconds::new(1.0), "a").unwrap();
        q.schedule_at(Seconds::new(2.0), "b").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule_at(Seconds::new(1.0), label).unwrap();
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(5.0), ()).unwrap();
        assert_eq!(q.now(), Seconds::ZERO);
        q.pop();
        assert_eq!(q.now(), Seconds::new(5.0));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(2.0), "base").unwrap();
        q.pop();
        q.schedule_in(Seconds::new(1.5), "later").unwrap();
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Seconds::new(3.5));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(1.0), ()).unwrap();
        assert_eq!(q.peek(), Some((Seconds::new(1.0), &())));
        assert_eq!(q.now(), Seconds::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn scheduling_into_the_past_is_an_error() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(2.0), ()).unwrap();
        q.pop();
        assert_eq!(
            q.schedule_at(Seconds::new(1.0), ()),
            Err(ScheduleError::PastTime {
                time: Seconds::new(1.0),
                now: Seconds::new(2.0),
            })
        );
        // The failed schedule left the queue untouched.
        assert!(q.is_empty());
    }

    #[test]
    fn non_finite_times_are_errors() {
        let mut q = EventQueue::new();
        assert_eq!(
            q.schedule_at(Seconds::new(f64::NAN), ()),
            Err(ScheduleError::NonFinite)
        );
        assert_eq!(
            q.schedule_at(Seconds::new(f64::INFINITY), ()),
            Err(ScheduleError::NonFinite)
        );
        assert_eq!(
            q.schedule_in(Seconds::new(f64::NAN), ()),
            Err(ScheduleError::NonFinite)
        );
        assert!(q.is_empty());
    }

    #[test]
    fn negative_delay_is_an_error() {
        let mut q = EventQueue::new();
        assert!(matches!(
            q.schedule_in(Seconds::new(-1.0), ()),
            Err(ScheduleError::PastTime { .. })
        ));
    }

    #[test]
    fn schedule_error_displays() {
        let past = ScheduleError::PastTime {
            time: Seconds::new(1.0),
            now: Seconds::new(2.0),
        };
        assert!(past.to_string().contains("past"));
        assert!(ScheduleError::NonFinite.to_string().contains("finite"));
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(2.0), "b").unwrap();
        q.schedule_at(Seconds::new(1.0), "a").unwrap();
        while let Some((pt, &pe)) = q.peek() {
            let before = q.now();
            let (t, e) = q.pop().unwrap();
            assert_eq!((pt, pe), (t, e));
            assert!(before <= t, "peek must not advance the clock");
        }
        assert!(q.peek().is_none());
    }

    #[test]
    fn total_order_is_time_then_fifo() {
        // The spec the batched drain relies on: same-timestamp events pop
        // in insertion order even when their scheduling interleaves with
        // other timestamps and with pops.
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(2.0), "t2-first").unwrap();
        q.schedule_at(Seconds::new(1.0), "t1").unwrap();
        q.schedule_at(Seconds::new(2.0), "t2-second").unwrap();
        assert_eq!(q.pop().unwrap().1, "t1");
        // A tie scheduled *after* pops still lands behind earlier ties:
        // sequence numbers are global, not per-timestamp.
        q.schedule_at(Seconds::new(2.0), "t2-third").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["t2-first", "t2-second", "t2-third"]);
    }

    #[test]
    fn interleaved_scheduling_and_popping() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(1.0), 1).unwrap();
        q.schedule_at(Seconds::new(10.0), 10).unwrap();
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        q.schedule_in(Seconds::new(2.0), 3).unwrap(); // at t=3
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 3);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 10);
        assert!(q.pop().is_none());
    }
}
