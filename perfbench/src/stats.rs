//! Order statistics and the metric list a run prints.

use crate::spec::Listed;

/// Latency recorded for an operation that failed or was refused: it
/// misses every latency limit, so it sorts above every real sample.
pub const FAILED_NS: u64 = u64::MAX;

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted `f64` values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    median(&v)
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-estimate latency summary of one run.
pub struct Latency {
    pub p99_us: f64,
    /// Samples strictly above p99 (the guide wants at least ten).
    pub beyond_p99: usize,
    pub samples: usize,
    /// Percentiles around p99 in µs, to show whether it sits in one mode.
    pub tail: String,
}

impl Latency {
    pub fn of(mut ns: Vec<u64>) -> Latency {
        ns.sort_unstable();
        let p99 = percentile(&ns, 0.99);
        let tail = [0.9, 0.95, 0.97, 0.98, 0.985, 0.99, 0.995, 0.999]
            .iter()
            .map(|&p| format!("p{}={:.0}", p * 100.0, percentile(&ns, p) as f64 / 1e3))
            .collect::<Vec<_>>()
            .join(" ");
        Latency {
            p99_us: p99 as f64 / 1e3,
            beyond_p99: ns.iter().filter(|&&x| x > p99).count(),
            samples: ns.len(),
            tail,
        }
    }
}

/// Fewest estimates a pass must hold for its own p99 to have ten
/// samples beyond it.
const PASS_P99_MIN: usize = 1_000;

/// The timed passes of one run.
///
/// The host's speed drifts by ±20% from one second to the next on a
/// shared machine, so throughput, the median and — where every pass
/// holds enough estimates — p99 are taken per pass and their median
/// across passes is reported. A pooled p99 follows the run's slowest
/// stretch of host time; the median of per-pass p99s follows its typical
/// one. Where a pass is too small, p99 is taken over every estimate of
/// the run.
#[derive(Default)]
pub struct Passes {
    /// Every estimate's latency; `FAILED_NS` for failed ones.
    pooled: Vec<u64>,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    /// Estimates in the run's smallest pass.
    smallest: Option<usize>,
    pub completed: u64,
    pub failed: u64,
}

impl Passes {
    /// Records one pass: each estimate's latency (`FAILED_NS` when it
    /// failed) and the wall time all of its estimate operations took.
    pub fn push(&mut self, mut latencies: Vec<u64>, busy_ns: u64) {
        let failed = latencies.iter().filter(|&&n| n == FAILED_NS).count() as u64;
        let completed = latencies.len() as u64 - failed;
        self.rates.push(completed as f64 / (busy_ns as f64 / 1e9));
        self.pooled.extend_from_slice(&latencies);
        latencies.sort_unstable();
        self.p50s.push(percentile(&latencies, 0.5) as f64 / 1e3);
        self.p99s.push(percentile(&latencies, 0.99) as f64 / 1e3);
        let n = latencies.len();
        self.smallest = Some(self.smallest.map_or(n, |s| s.min(n)));
        self.completed += completed;
        self.failed += failed;
    }

    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// Every estimate's latency in ns, in the order measured.
    pub fn latencies(&self) -> &[u64] {
        &self.pooled
    }

    /// Puts `est_per_s`, `p50_us` and `p99_us`, with diagnostics.
    pub fn put(&self, m: &mut Metrics, notes: &mut Vec<String>) {
        let lat = Latency::of(self.pooled.clone());
        m.put("est_per_s", median(&self.rates), "1/s");
        m.put("p50_us", median(&self.p50s), "us");
        let p99 = if self.smallest >= Some(PASS_P99_MIN) {
            median(&self.p99s)
        } else {
            lat.p99_us
        };
        m.put("p99_us", p99, "us");
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        notes.push(format!(
            "{} passes, {} estimates, {} beyond the pooled p99 ({:.1} us); tail {}",
            self.count(),
            lat.samples,
            lat.beyond_p99,
            lat.p99_us,
            lat.tail
        ));
        notes.push(format!("estimates/s per pass: {}", list(&self.rates)));
        notes.push(format!("p50 per pass (us): {}", list(&self.p50s)));
        notes.push(format!("p99 per pass (us): {}", list(&self.p99s)));
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The metrics as a JSON object: every value printed with all its
    /// digits (Rust's shortest round-trip form).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// Exactly the metrics of `spec`, in its order; a metric the run did
    /// not measure reads 0. Panics on a metric missing from `spec`, or
    /// with another unit — a mismatch with `BENCHMARK.json`.
    pub fn conform(self, spec: &'static [Listed]) -> Metrics {
        for (name, _, unit) in &self.0 {
            let listed = spec.iter().find(|m| m.name == *name);
            assert!(
                listed.is_some_and(|m| m.unit == *unit),
                "metric {name} ({unit}) is not listed in BENCHMARK.json"
            );
        }
        let mut out = Metrics::default();
        for m in spec {
            let value = self
                .0
                .iter()
                .find(|(n, ..)| *n == m.name)
                .map_or(0.0, |x| x.1);
            out.put(m.name.as_str(), value, m.unit.as_str());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p99_is_the_median_of_per_pass_p99s_only_when_every_pass_is_large() {
        // One pass all at 1 µs, one with its top 2% at 9 µs: per pass the
        // p99s are 1 and 9 µs, pooled the p99 is 1 µs.
        let p99 = |size: usize| {
            let mut passes = Passes::default();
            let slow = size / 50;
            for tail in [0, slow] {
                let ns: Vec<u64> = (0..size)
                    .map(|i| if i < tail { 9_000 } else { 1_000 })
                    .collect();
                let busy = ns.iter().sum();
                passes.push(ns, busy);
            }
            let mut m = Metrics::default();
            passes.put(&mut m, &mut Vec::new());
            let p99 = m.iter().find(|x| x.0 == "p99_us").expect("p99 is put").1;
            p99
        };
        assert_eq!(p99(PASS_P99_MIN), 5.0);
        assert_eq!(p99(PASS_P99_MIN / 2), 1.0);
    }

    #[test]
    fn failures_sort_above_every_sample() {
        let l = Latency::of(vec![10_000; 99].into_iter().chain([FAILED_NS]).collect());
        assert_eq!(l.p99_us, 10.0);
        assert_eq!(l.beyond_p99, 1);
    }
}
