//! Sample summaries and the result line.
//!
//! Every timing is summarised as a median plus the highest percentile
//! that still has at least ten samples beyond it, with the sample count
//! stated. The query percentiles are the median over short windows of
//! each window's percentile, so one host stall cannot swing a whole run.

use std::fmt::Write as _;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of the usual percentiles with at least ten of `n` samples
/// beyond it, or `None` when there are fewer than twenty samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0)
}

/// One-line summary: `n=…, median …, p… …`.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mut s = format!("n={}, median {:.4} {unit}", v.len(), median(&v));
    match tail_quantile(v.len()) {
        Some(q) => {
            let _ = write!(s, ", p{} {:.4} {unit}", q * 100.0, quantile(&v, q));
        }
        None => {
            let _ = write!(
                s,
                ", max {:.4} {unit} (too few samples for a tail)",
                v.last().unwrap_or(&f64::NAN)
            );
        }
    }
    s
}

/// Latency samples tagged with the window they fall in.
#[derive(Default)]
pub struct Windowed {
    windows: Vec<Vec<f64>>,
}

impl Windowed {
    /// Records `value` into window `w` (windows may arrive out of order).
    pub fn record(&mut self, w: usize, value: f64) {
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, Vec::new);
        }
        self.windows[w].push(value);
    }

    /// Every sample, in no particular order.
    pub fn all(&self) -> Vec<f64> {
        self.windows.iter().flatten().copied().collect()
    }

    /// The median over windows of each window's `q` quantile. A window
    /// counts only if it holds enough samples for ten beyond `q`; when no
    /// window does, the pooled samples are used instead.
    pub fn median_of(&self, q: f64) -> f64 {
        let need = (10.0 / (1.0 - q)).ceil() as usize;
        let per: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.len() >= need)
            .map(|w| {
                let mut v = w.clone();
                v.sort_by(f64::total_cmp);
                quantile(&v, q)
            })
            .collect();
        if per.is_empty() {
            let mut v = self.all();
            v.sort_by(f64::total_cmp);
            return quantile(&v, q);
        }
        median(&per)
    }

    /// Windows that qualify for `q` (see [`Windowed::median_of`]).
    pub fn qualifying(&self, q: f64) -> usize {
        let need = (10.0 / (1.0 - q)).ceil() as usize;
        self.windows.iter().filter(|w| w.len() >= need).count()
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // JSON has no NaN or infinity; a metric that could not be measured
        // is reported as -1 so the line stays parseable.
        let v = if m.value.is_finite() { m.value } else { -1.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(19), None);
    }

    #[test]
    fn windowed_median_skips_thin_windows() {
        let mut w = Windowed::default();
        for i in 0..2000 {
            w.record(0, f64::from(i % 100));
            w.record(2, f64::from(i % 100) + 1000.0);
        }
        w.record(1, 5.0);
        assert_eq!(w.qualifying(0.99), 2);
        let p99 = w.median_of(0.99);
        assert!(p99 > 99.0 && p99 < 1100.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric {
                    name: "a_s",
                    value: 1.5,
                    unit: "s",
                },
                Metric {
                    name: "b",
                    value: f64::NAN,
                    unit: "count",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": -1.0, \"unit\": \"count\"}}}"
        );
    }
}
