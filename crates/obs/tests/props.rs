//! Property tests for the log-scale histogram: quantile bounds bracket
//! the true (nearest-rank) quantile, merging two shards is exactly the
//! same as recording the concatenated stream, and a run of `k` copies
//! recorded at once is exactly `k` single records.

use mmx_obs::Histogram;
use proptest::prelude::*;

/// Nearest-rank quantile of a sorted sample set.
fn true_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn record_all(values: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantile_bounds_bracket_true_quantile(
        values in prop::collection::vec(1e-9f64..1e6, 1..200),
        q in 0.01f64..1.0,
    ) {
        let h = record_all(&values);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let truth = true_quantile(&sorted, q);
        let (lo, hi) = h.quantile_bounds(q).expect("non-empty");
        prop_assert!(lo <= truth, "lo {} > truth {}", lo, truth);
        prop_assert!(hi >= truth, "hi {} < truth {}", hi, truth);
        // The point estimate stays inside its own bracket.
        let est = h.quantile(q).expect("non-empty");
        prop_assert!(lo <= est && est <= hi);
    }

    #[test]
    fn merge_equals_concatenated_recording(
        a in prop::collection::vec(0f64..1e7, 0..120),
        b in prop::collection::vec(-10f64..1e-3, 0..120),
    ) {
        let mut merged = record_all(&a);
        merged.merge(&record_all(&b));

        let concat: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let direct = record_all(&concat);

        prop_assert_eq!(merged, direct);
    }

    #[test]
    fn merge_is_order_insensitive(
        a in prop::collection::vec(1e-12f64..1e8, 0..100),
        b in prop::collection::vec(1e-12f64..1e8, 0..100),
    ) {
        let (ha, hb) = (record_all(&a), record_all(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn count_min_max_are_exact(
        values in prop::collection::vec(1e-6f64..1e6, 1..200),
    ) {
        let h = record_all(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
    }

    #[test]
    fn record_n_equals_k_records(
        runs in prop::collection::vec((0u8..6, 1e-12f64..1e8, 0u64..20), 0..40),
    ) {
        let mut batched = Histogram::new();
        let mut single = Histogram::new();
        for &(kind, x, k) in &runs {
            // In range, underflow, zero, overflow, NaN.
            let v = match kind {
                0 | 1 => x,
                2 => -x,
                3 => 0.0,
                4 => x * 1e9,
                _ => f64::NAN,
            };
            batched.record_n(v, k);
            for _ in 0..k {
                single.record(v);
            }
        }
        prop_assert_eq!(batched, single);
    }
}
