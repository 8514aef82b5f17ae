//! Medians, tail percentiles and the result line.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (NaN for no samples).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The highest whole percentile with at least ten samples beyond it, and
/// its nearest-rank value; `None` below 20 samples, where that
/// percentile would not exceed the median.
pub fn tail(v: &[f64]) -> Option<(usize, f64)> {
    let n = v.len();
    if n < 20 {
        return None;
    }
    let p = (n - 10) * 100 / n;
    let rank = (p * n).div_ceil(100);
    Some((p, sorted(v)[rank - 1]))
}

/// The benchmark's last stdout line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}
