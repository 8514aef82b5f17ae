//! The metrics registry: counters, gauges and fixed-bucket log-scale
//! histograms, keyed by static names plus a small label set.
//!
//! Everything here is deterministic and order-insensitive where the
//! contract demands it: keys sort in a `BTreeMap` (stable iteration for
//! rendering), and histograms store only integer bucket counts plus
//! exact min/max, so [`Histogram::merge`] of two histograms equals
//! recording the concatenated stream — bit for bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of histogram buckets between [`Histogram::MIN_EDGE`] and
/// [`Histogram::MAX_EDGE`]: 20 per decade over 20 decades.
pub const HISTOGRAM_BUCKETS: usize = 400;

/// Buckets per decade (bucket width ≈ 12.2% relative).
const BUCKETS_PER_DECADE: f64 = 20.0;

/// A metric key: a static name, an optional static label value and an
/// optional small integer index (node id, channel, …; `-1` = none).
///
/// Both strings must be `'static` so that recording a sample on a hot
/// path never allocates for the key itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name, e.g. `"fsm_time_in_state_s"`.
    pub name: &'static str,
    /// Label value, e.g. `"Granted"` (empty = unlabelled).
    pub label: &'static str,
    /// Small integer dimension, e.g. a node index (`-1` = none).
    pub index: i64,
}

impl Key {
    /// An unlabelled key.
    pub fn plain(name: &'static str) -> Self {
        Key {
            name,
            label: "",
            index: -1,
        }
    }

    /// A labelled key with no index dimension.
    pub fn labelled(name: &'static str, label: &'static str) -> Self {
        Key {
            name,
            label,
            index: -1,
        }
    }
}

/// A fixed-bucket log-scale histogram over positive values.
///
/// Values map to one of [`HISTOGRAM_BUCKETS`] geometric buckets between
/// 10⁻¹² and 10⁸ (20 buckets per decade); values at or below the lower
/// edge land in an underflow bucket, values above the upper edge in an
/// overflow bucket. Exact minimum, maximum and count are kept on the
/// side, so `max()` is exact and quantile estimates come with hard
/// bracket guarantees ([`Self::quantile_bounds`]).
///
/// The struct holds only integers and exact min/max — no running float
/// sum — so merging is associative and [`PartialEq`] is meaningful:
/// `merge(a, b)` compares equal to the histogram of the concatenated
/// stream.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64; HISTOGRAM_BUCKETS]>,
    underflow: u64,
    overflow: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.counts[..] == other.counts[..]
            && self.underflow == other.underflow
            && self.overflow == other.overflow
            && self.count == other.count
            && self.min.to_bits() == other.min.to_bits()
            && self.max.to_bits() == other.max.to_bits()
    }
}

impl Histogram {
    /// Lower edge of the first bucket.
    pub const MIN_EDGE: f64 = 1e-12;
    /// Upper edge of the last bucket (20 decades above [`Self::MIN_EDGE`]).
    pub const MAX_EDGE: f64 = 1e8;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; HISTOGRAM_BUCKETS]),
            underflow: 0,
            overflow: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest recorded value (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest recorded value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    fn bucket_of(v: f64) -> Option<usize> {
        if v <= Self::MIN_EDGE {
            return None; // underflow (incl. zero and negatives)
        }
        let b = ((v / Self::MIN_EDGE).log10() * BUCKETS_PER_DECADE).floor();
        if b >= HISTOGRAM_BUCKETS as f64 {
            Some(HISTOGRAM_BUCKETS) // overflow sentinel
        } else {
            Some(b as usize)
        }
    }

    /// Geometric edges `(lo, hi]` of bucket `b`.
    fn bucket_edges(b: usize) -> (f64, f64) {
        let lo = Self::MIN_EDGE * 10f64.powf(b as f64 / BUCKETS_PER_DECADE);
        let hi = Self::MIN_EDGE * 10f64.powf((b + 1) as f64 / BUCKETS_PER_DECADE);
        (lo, hi)
    }

    /// Records one sample. NaN samples are ignored.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `k` copies of one sample: equal — by `PartialEq` — to `k`
    /// calls of [`Self::record`], with one bucket computation. NaN
    /// samples and `k = 0` are ignored.
    pub fn record_n(&mut self, v: f64, k: u64) {
        if v.is_nan() || k == 0 {
            return;
        }
        match Self::bucket_of(v) {
            None => self.underflow += k,
            Some(HISTOGRAM_BUCKETS) => self.overflow += k,
            Some(b) => self.counts[b] += k,
        }
        self.count += k;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Equivalent — by `PartialEq` — to
    /// having recorded both streams into one histogram, in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Hard bracket for the `q`-quantile (nearest-rank): the true
    /// rank-⌈q·n⌉ sample is guaranteed to lie in `[lo, hi]`. Returns
    /// `None` when empty.
    pub fn quantile_bounds(&self, q: f64) -> Option<(f64, f64)> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.underflow;
        if rank <= seen {
            // All underflow values are ≤ MIN_EDGE; min is exact.
            return Some((self.min, Self::MIN_EDGE.min(self.max)));
        }
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                let (lo, hi) = Self::bucket_edges(b);
                // The exact extremes can only tighten the bracket.
                return Some((lo.max(self.min), hi.min(self.max)));
            }
        }
        Some((Self::MAX_EDGE.max(self.min), self.max))
    }

    /// Point estimate of the `q`-quantile: the geometric midpoint of the
    /// bracket from [`Self::quantile_bounds`], clamped to the exact
    /// observed range. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (lo, hi) = self.quantile_bounds(q)?;
        let mid = if lo > 0.0 && hi > 0.0 {
            (lo * hi).sqrt()
        } else {
            0.5 * (lo + hi)
        };
        Some(mid.clamp(self.min, self.max))
    }

    /// `(p50, p90, p99, max)` — the quantile set every summary line
    /// reports. `None` when empty.
    pub fn summary(&self) -> Option<(f64, f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.90)?,
            self.quantile(0.99)?,
            self.max,
        ))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The registry: every metric the stack records during one run.
///
/// Not thread-safe by design — each simulation owns its recorder and
/// runs its event loop on one thread (the determinism contract), and
/// cross-run aggregation happens by merging registries afterwards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

impl Registry {
    /// An empty registry. Allocates nothing until the first sample.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, key: Key, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Sets a gauge to `v`.
    pub fn set(&mut self, key: Key, v: f64) {
        self.gauges.insert(key, v);
    }

    /// Adds `v` to a gauge (accumulating, e.g. time-in-state seconds).
    pub fn gauge_add(&mut self, key: Key, v: f64) {
        *self.gauges.entry(key).or_insert(0.0) += v;
    }

    /// Records `v` into a histogram.
    pub fn observe(&mut self, key: Key, v: f64) {
        self.histograms.entry(key).or_default().record(v);
    }

    /// Folds a locally accumulated histogram into the keyed one — the
    /// bulk form of [`Self::observe`] for hot loops that record into a
    /// stack-local [`Histogram`] and flush once. Exactly equivalent (by
    /// [`Histogram::merge`]'s law) to observing every sample directly.
    pub fn observe_merge(&mut self, key: Key, h: &Histogram) {
        self.histograms.entry(key).or_default().merge(h);
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, key: Key) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, key: Key) -> Option<f64> {
        self.gauges.get(&key).copied()
    }

    /// A histogram, if any sample was recorded.
    pub fn histogram(&self, key: Key) -> Option<&Histogram> {
        self.histograms.get(&key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, &u64)> {
        self.counters.iter()
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&Key, &f64)> {
        self.gauges.iter()
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&Key, &Histogram)> {
        self.histograms.iter()
    }

    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge. Deterministic regardless of merge order.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.add(*k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_add(*k, *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(*k).or_default().merge(h);
        }
    }

    /// Renders every metric as stable, diff-friendly text (one line per
    /// metric, key order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let key = |k: &Key| {
            let mut s = String::from(k.name);
            if !k.label.is_empty() {
                let _ = write!(s, "{{{}}}", k.label);
            }
            if k.index >= 0 {
                let _ = write!(s, "[{}]", k.index);
            }
            s
        };
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {} = {v}", key(k));
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {} = {v}", key(k));
        }
        for (k, h) in &self.histograms {
            match h.summary() {
                Some((p50, p90, p99, max)) => {
                    let _ = writeln!(
                        out,
                        "hist {} n={} p50={p50:.4e} p90={p90:.4e} p99={p99:.4e} max={max:.4e}",
                        key(k),
                        h.count()
                    );
                }
                None => {
                    let _ = writeln!(out, "hist {} n=0", key(k));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let mut r = Registry::new();
        let k = Key::plain("pkts");
        r.add(k, 3);
        r.add(k, 4);
        assert_eq!(r.counter(k), 7);
        let g = Key {
            name: "t",
            label: "Granted",
            index: 2,
        };
        r.set(g, 1.5);
        r.gauge_add(g, 0.5);
        assert_eq!(r.gauge(g), Some(2.0));
        assert_eq!(r.counter(Key::plain("missing")), 0);
    }

    #[test]
    fn histogram_quantiles_bracket_known_stream() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let (lo, hi) = h.quantile_bounds(0.5).unwrap();
        assert!(lo <= 500.0 && 500.0 <= hi, "p50 bracket [{lo}, {hi}]");
        let (lo, hi) = h.quantile_bounds(0.99).unwrap();
        assert!(lo <= 990.0 && 990.0 <= hi, "p99 bracket [{lo}, {hi}]");
        assert_eq!(h.max(), 1000.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(1e20);
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 1e20);
        // Quantiles stay inside the exact observed range.
        let p50 = h.quantile(0.5).unwrap();
        assert!((-5.0..=1e20).contains(&p50));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert!(h.quantile(0.5).is_none());
        assert!(h.summary().is_none());
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..500 {
            let v = (i as f64 * 0.77).exp() % 1e6;
            a.record(v);
            both.record(v);
        }
        for i in 0..300 {
            let v = (i as f64).sqrt() * 1e-3;
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn registry_merge_accumulates() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let k = Key::plain("x");
        a.add(k, 1);
        b.add(k, 2);
        a.observe(k, 1.0);
        b.observe(k, 2.0);
        let mut whole = Registry::new();
        whole.add(k, 3);
        whole.observe(k, 1.0);
        whole.observe(k, 2.0);
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn render_is_stable_and_labelled() {
        let mut r = Registry::new();
        r.add(
            Key {
                name: "ctl",
                label: "grant",
                index: -1,
            },
            2,
        );
        r.observe(Key::plain("sinr_db"), 25.0);
        let text = r.render();
        assert!(text.contains("counter ctl{grant} = 2"));
        assert!(text.contains("hist sinr_db n=1"));
        assert_eq!(text, r.render());
    }
}
