//! `MetricsSink` — a per-request instrumentation seam threaded through the
//! engine and the service layers — and [`LatencyHistogram`], the one
//! latency histogram type.
//!
//! The pattern follows SpacetimeDB's `ExecutionMetrics`: the hot path is
//! handed a sink *trait object* and reports what it did (which ladder rung
//! answered, how wide the safety envelope was, which catalog epoch it
//! observed); the sink decides what to aggregate. Every estimation service
//! reports into its own aggregating sink (`sqe_service::ServiceStats`)
//! unless a caller installs another; bare engine calls run with
//! [`NullSink`], whose methods are no-op defaults the optimizer erases.
//!
//! Sinks **observe** — they must never influence an answer. Every method
//! takes `&self` (sinks are shared across threads) and has an empty
//! default body, so implementors opt into exactly the events they care
//! about. All counters are recorded with relaxed atomics by the provided
//! implementations: these are monitoring signals, not synchronization.
//!
//! ## Latency histogram
//!
//! [`LatencyHistogram`] is log-linear over microseconds: exact 1 µs
//! buckets below 4 µs, then four sub-buckets per octave (a bucket's upper
//! edge overstates its smallest member by at most 25%), up through every
//! `u64` microsecond value — 252 buckets, no overflow bucket. Quantiles
//! walk the cumulative counts and report the *upper* edge of the
//! containing bucket, so a reported quantile is conservative — never
//! better than reality. A running sum of the raw nanoseconds gives the
//! exact mean.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::budget::{DegradeReason, Quality};

/// Observer for per-request engine and service events.
///
/// Implementations must be cheap and non-blocking: methods are called on
/// the estimate hot path (once per rung attempt / answer, not per DP
/// node). The default for every method is a no-op, so a sink implements
/// only what it aggregates.
///
/// **Answered versus served.** [`MetricsSink::rung_answered`] counts rung
/// *outcomes*; [`MetricsSink::estimate_served`] counts *requests*. They
/// differ in two ways: a whole-query cache hit is served without any rung
/// running, and a request that panics after a rung answered (say, in the
/// bound sketch) reports that rung's answer and then the independence
/// floor's attempt and answer, yet is served once — from the floor.
pub trait MetricsSink: Send + Sync {
    /// The degradation ladder is about to try a rung. Called once per
    /// attempted rung in descending-quality order; an unbudgeted (or
    /// unlimited-budget) estimate reports a single attempt at its top
    /// rung.
    fn rung_attempted(&self, _quality: Quality) {}

    /// The ladder answered from `quality`; `reason` is why anything below
    /// the top rung was needed (`None` for undegraded answers).
    fn rung_answered(&self, _quality: Quality, _reason: Option<DegradeReason>) {}

    /// One estimate completed end-to-end in `latency_ns`, answered from
    /// `quality` (`cached` = the whole-query cache answered). Reported
    /// exactly once per request, after the whole answer is built.
    fn estimate_served(&self, _latency_ns: u64, _quality: Quality, _cached: bool) {}

    /// A request was refused by admission control or a quota, with this
    /// retry hint (nanoseconds).
    fn shed(&self, _retry_after_ns: u64) {}

    /// A panicking request quarantined its snapshot's cache.
    fn quarantine(&self) {}

    /// Width of the safety envelope for one answer: the guaranteed upper
    /// bound divided by the (max(1) clamped) point cardinality estimate —
    /// `1.0` means the bound is tight against the estimate, larger means
    /// a wider envelope. Only reported when the bound is known and finite.
    fn bound_width(&self, _ratio: f64) {}

    /// The catalog epoch that answered one request (monotone per tenant;
    /// sinks typically keep the max, exposing the ingest generation the
    /// tenant's traffic has observed).
    fn ingest_epoch_observed(&self, _epoch: u64) {}

    /// One batch call was admitted (its queries report one
    /// [`MetricsSink::estimate_served`] each).
    fn batch(&self) {}

    /// A full catalog snapshot was installed (a new pool, or the
    /// replacement after a panic quarantined the old one).
    fn install(&self) {}

    /// A delta-ingested partial snapshot was installed: `ops` row ops
    /// applied, `refreshed` SITs rebuilt, `carried` cache entries carried
    /// into the new snapshot and `dropped` invalidated.
    fn partial_install(&self, _ops: u64, _refreshed: u64, _carried: u64, _dropped: u64) {}
}

/// The default sink: ignores every event. Zero-sized, so threading it
/// through costs one vtable pointer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl MetricsSink for NullSink {}

const RELAXED: Ordering = Ordering::Relaxed;

/// Log-linear latency histogram with a running sum (see the module docs).
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LatencyHistogram::BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Bucket count: four exact buckets below 4 µs, then four per octave
    /// for octaves 2‥=63, so the last bucket ends at `u64::MAX` µs.
    const BUCKETS: usize = 4 + 4 * 62;

    /// Records one latency.
    pub fn record(&self, latency_ns: u64) {
        self.counts[bucket_of_us(latency_ns / 1_000)].fetch_add(1, RELAXED);
        self.sum_ns.fetch_add(latency_ns, RELAXED);
    }

    /// Point-in-time copy of the counts and the sum.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(RELAXED)),
            sum_ns: self.sum_ns.load(RELAXED),
        }
    }
}

/// A copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    counts: [u64; LatencyHistogram::BUCKETS],
    sum_ns: u64,
}

impl LatencySnapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean latency; zero when nothing was recorded.
    pub fn mean(&self) -> Duration {
        self.sum_ns
            .checked_div(self.count())
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Conservative latency quantile in microseconds: the upper edge of
    /// the bucket containing the `q`-quantile observation (`q` in 0..=1).
    /// Returns 0 when nothing was recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return upper_edge_us(idx);
            }
        }
        unreachable!("rank {rank} ≤ total {total}")
    }
}

/// Bucket index for a latency of `us` microseconds.
fn bucket_of_us(us: u64) -> usize {
    if us < 4 {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros() as u64; // floor(log2(us)) ≥ 2
    let sub = (us >> (octave - 2)) - 4; // 0..4 within the octave
    (4 * (octave - 1) + sub) as usize
}

/// Exclusive upper edge of bucket `idx`, in microseconds; the last
/// bucket's edge, 2⁶⁴, saturates to `u64::MAX`.
fn upper_edge_us(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64 + 1;
    }
    let octave = idx as u64 / 4 + 1;
    let sub = idx as u64 % 4;
    (sub + 5).saturating_mul(1 << (octave - 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        attempts: AtomicU64,
        answers: AtomicU64,
    }

    impl MetricsSink for Counting {
        fn rung_attempted(&self, _q: Quality) {
            self.attempts.fetch_add(1, Ordering::Relaxed);
        }
        fn rung_answered(&self, _q: Quality, _r: Option<DegradeReason>) {
            self.answers.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn null_sink_accepts_every_event() {
        let s = NullSink;
        s.rung_attempted(Quality::Full);
        s.rung_answered(Quality::Independence, Some(DegradeReason::Deadline));
        s.estimate_served(1_000, Quality::Full, false);
        s.shed(5_000_000);
        s.quarantine();
        s.bound_width(2.5);
        s.ingest_epoch_observed(7);
        s.batch();
        s.install();
        s.partial_install(3, 1, 10, 2);
    }

    #[test]
    fn custom_sinks_override_only_what_they_need() {
        let s = Counting::default();
        s.rung_attempted(Quality::Full);
        s.rung_attempted(Quality::Pruned);
        s.rung_answered(Quality::Pruned, Some(DegradeReason::Deadline));
        s.estimate_served(10, Quality::Pruned, false); // default no-op
        assert_eq!(s.attempts.load(Ordering::Relaxed), 2);
        assert_eq!(s.answers.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn buckets_are_monotone_and_edges_cover_them() {
        let mut prev = 0usize;
        for us in 0..100_000u64 {
            let b = bucket_of_us(us);
            assert!(b >= prev, "bucket regressed at {us}µs");
            assert!(us < upper_edge_us(b), "{us}µs ≥ edge of its bucket {b}");
            // A bucket's upper edge overstates its smallest member by at
            // most one sub-bucket width: 25% of the octave start, +1µs.
            let edge = upper_edge_us(b) as f64;
            assert!(edge <= us as f64 * 1.25 + 1.0, "edge {edge} vs {us}");
            prev = b;
        }
    }

    #[test]
    fn buckets_cover_every_microsecond_value() {
        assert_eq!(bucket_of_us(u64::MAX), LatencyHistogram::BUCKETS - 1);
        assert_eq!(upper_edge_us(LatencyHistogram::BUCKETS - 1), u64::MAX);
        // Each bucket starts where the one before it ends.
        for idx in 1..LatencyHistogram::BUCKETS {
            assert_eq!(bucket_of_us(upper_edge_us(idx - 1)), idx, "bucket {idx}");
        }
    }

    #[test]
    fn quantiles_are_conservative() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(1_000); // 1µs
        }
        h.record(1_000_000); // 1ms
        let s = h.snapshot();
        let p50 = s.quantile_us(0.50);
        assert!(p50 <= 2, "p50 {p50}µs");
        let p999 = s.quantile_us(0.999);
        assert!((1000..=1300).contains(&p999), "p999 {p999}µs");
        assert_eq!(s.quantile_us(0.0), 2); // upper edge of 1µs bucket
        assert_eq!(s.count(), 100);
        assert_eq!(s.mean(), Duration::from_nanos(1_099_000 / 100));
    }

    #[test]
    fn a_slow_sample_is_never_reported_faster() {
        let h = LatencyHistogram::default();
        assert_eq!(h.snapshot().quantile_us(0.99), 0);
        h.record(10_000_000_000); // 10 s
        let p99 = h.snapshot().quantile_us(0.99);
        assert!(p99 >= 10_000_000, "10 s reported as {p99}µs");
        assert!(p99 <= 12_500_000, "p99 {p99}µs");
    }
}
