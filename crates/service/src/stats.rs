//! Service-level metrics: [`ServiceStats`], the one aggregating
//! [`MetricsSink`] — relaxed atomic counters plus the log-linear
//! [`LatencyHistogram`], cheap enough to update on every estimate — and
//! its point-in-time copy, [`ServiceStatsSnapshot`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sqe_core::{DegradeReason, LatencyHistogram, LatencySnapshot, MetricsSink, Quality};

use crate::cache::CacheCounters;

/// Number of quality tiers ([`Quality::ALL`]).
pub const QUALITY_TIERS: usize = Quality::ALL.len();

const RELAXED: Ordering = Ordering::Relaxed;

/// Index of a tier in the per-quality arrays (worst-to-best order).
fn quality_idx(q: Quality) -> usize {
    Quality::ALL
        .iter()
        .position(|&t| t == q)
        .expect("tier in ALL")
}

/// Index of a degrade reason in the outcome array.
fn reason_idx(r: DegradeReason) -> usize {
    match r {
        DegradeReason::Deadline => 0,
        DegradeReason::WorkQuota => 1,
        DegradeReason::Cancelled => 2,
        DegradeReason::Panic => 3,
    }
}

/// Aggregates one service's request stream: every [`EstimationService`]
/// reports into its own `ServiceStats` unless
/// [`EstimationService::with_metrics`] installs another sink. All
/// counters are relaxed atomics — monitoring, not coordination.
///
/// [`EstimationService`]: crate::EstimationService
/// [`EstimationService::with_metrics`]: crate::EstimationService::with_metrics
#[derive(Debug, Default)]
pub struct ServiceStats {
    // Field meanings: see the same-named `ServiceStatsSnapshot` fields.
    attempted: [AtomicU64; QUALITY_TIERS],
    skipped: [AtomicU64; QUALITY_TIERS],
    answered: [AtomicU64; QUALITY_TIERS],
    served: [AtomicU64; QUALITY_TIERS],
    served_latency_ns: [AtomicU64; QUALITY_TIERS],
    degraded: [AtomicU64; 4],
    cached: AtomicU64,
    latency: LatencyHistogram,
    sheds: AtomicU64,
    shed_retry_ns_sum: AtomicU64,
    shed_retry_ns_max: AtomicU64,
    quarantines: AtomicU64,
    bound_widths: AtomicU64,
    bound_width_sum_milli: AtomicU64,
    bound_width_max_milli: AtomicU64,
    max_epoch: AtomicU64,
    batches: AtomicU64,
    installs: AtomicU64,
    partial_installs: AtomicU64,
    ingest_ops: AtomicU64,
    sits_refreshed: AtomicU64,
    cache_carried: AtomicU64,
    cache_dropped: AtomicU64,
}

impl MetricsSink for ServiceStats {
    fn rung_attempted(&self, quality: Quality) {
        self.attempted[quality_idx(quality)].fetch_add(1, RELAXED);
    }

    fn rung_skipped(&self, quality: Quality, _predicted_ns: u64) {
        self.skipped[quality_idx(quality)].fetch_add(1, RELAXED);
    }

    fn rung_answered(&self, quality: Quality, reason: Option<DegradeReason>) {
        self.answered[quality_idx(quality)].fetch_add(1, RELAXED);
        if let Some(r) = reason {
            self.degraded[reason_idx(r)].fetch_add(1, RELAXED);
        }
    }

    fn estimate_served(&self, latency_ns: u64, quality: Quality, cached: bool) {
        let i = quality_idx(quality);
        self.served[i].fetch_add(1, RELAXED);
        self.served_latency_ns[i].fetch_add(latency_ns, RELAXED);
        if cached {
            self.cached.fetch_add(1, RELAXED);
        }
        self.latency.record(latency_ns);
    }

    fn shed(&self, retry_after_ns: u64) {
        self.sheds.fetch_add(1, RELAXED);
        self.shed_retry_ns_sum.fetch_add(retry_after_ns, RELAXED);
        self.shed_retry_ns_max.fetch_max(retry_after_ns, RELAXED);
    }

    fn quarantine(&self) {
        self.quarantines.fetch_add(1, RELAXED);
    }

    fn bound_width(&self, ratio: f64) {
        let milli = (ratio * 1000.0).min(u64::MAX as f64) as u64;
        self.bound_widths.fetch_add(1, RELAXED);
        self.bound_width_sum_milli.fetch_add(milli, RELAXED);
        self.bound_width_max_milli.fetch_max(milli, RELAXED);
    }

    fn ingest_epoch_observed(&self, epoch: u64) {
        self.max_epoch.fetch_max(epoch, RELAXED);
    }

    fn batch(&self) {
        self.batches.fetch_add(1, RELAXED);
    }

    fn install(&self) {
        self.installs.fetch_add(1, RELAXED);
    }

    fn partial_install(&self, ops: u64, refreshed: u64, carried: u64, dropped: u64) {
        self.installs.fetch_add(1, RELAXED);
        self.partial_installs.fetch_add(1, RELAXED);
        self.ingest_ops.fetch_add(ops, RELAXED);
        self.sits_refreshed.fetch_add(refreshed, RELAXED);
        self.cache_carried.fetch_add(carried, RELAXED);
        self.cache_dropped.fetch_add(dropped, RELAXED);
    }
}

impl ServiceStats {
    /// Mean latency over everything served so far — the load-shed
    /// retry-after hint. Zero when nothing was served yet.
    pub(crate) fn mean_latency_hint(&self) -> Duration {
        self.latency.snapshot().mean()
    }

    /// Point-in-time copy of every counter, with `cache` (the current
    /// snapshot's cache counters, which live on the snapshot) attached.
    pub fn snapshot(&self, cache: CacheCounters) -> ServiceStatsSnapshot {
        fn load<const N: usize>(arr: &[AtomicU64; N]) -> [u64; N] {
            std::array::from_fn(|i| arr[i].load(RELAXED))
        }
        let quality_counts = load(&self.served);
        ServiceStatsSnapshot {
            estimates: quality_counts.iter().sum(),
            batches: self.batches.load(RELAXED),
            query_cache_hits: self.cached.load(RELAXED),
            installs: self.installs.load(RELAXED),
            latency: self.latency.snapshot(),
            rung_attempted: load(&self.attempted),
            rung_skipped: load(&self.skipped),
            rung_answered: load(&self.answered),
            quality_counts,
            quality_latency_ns: load(&self.served_latency_ns),
            degrade_reasons: load(&self.degraded),
            sheds: self.sheds.load(RELAXED),
            shed_retry_ns_sum: self.shed_retry_ns_sum.load(RELAXED),
            shed_retry_ns_max: self.shed_retry_ns_max.load(RELAXED),
            quarantines: self.quarantines.load(RELAXED),
            bound_widths: self.bound_widths.load(RELAXED),
            bound_width_sum_milli: self.bound_width_sum_milli.load(RELAXED),
            bound_width_max_milli: self.bound_width_max_milli.load(RELAXED),
            max_epoch: self.max_epoch.load(RELAXED),
            ingest: IngestCounters {
                partial_installs: self.partial_installs.load(RELAXED),
                ops: self.ingest_ops.load(RELAXED),
                sits_refreshed: self.sits_refreshed.load(RELAXED),
                cache_carried: self.cache_carried.load(RELAXED),
                cache_dropped: self.cache_dropped.load(RELAXED),
            },
            cache,
        }
    }
}

/// Point-in-time delta-ingest counters (partial snapshot installs, one
/// per ingested batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounters {
    /// Partial snapshot installs published.
    pub partial_installs: u64,
    /// Row ops those installs' batches applied.
    pub ops: u64,
    /// SITs rebuilt across all ingests.
    pub sits_refreshed: u64,
    /// Cache entries carried across partial installs.
    pub cache_carried: u64,
    /// Cache entries invalidated by partial installs.
    pub cache_dropped: u64,
}

/// Point-in-time service metrics, as returned by
/// [`crate::EstimationService::stats`]. Per-tier arrays are indexed in
/// [`Quality::ALL`] order, worst to best: bound, independence, greedy,
/// pruned, beam, full. No ladder rung answers `pruned`, so its slots
/// stay zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStatsSnapshot {
    /// Estimates served, cache hits included (the sum of
    /// `quality_counts`).
    pub estimates: u64,
    /// Batch calls served (`estimate_batch` and its budgeted sibling).
    pub batches: u64,
    /// Estimates answered entirely from the whole-query cache.
    pub query_cache_hits: u64,
    /// Catalog snapshots installed after the initial one: full installs,
    /// partial installs, and replacements after a panic.
    pub installs: u64,
    /// Latency of every served estimate.
    pub latency: LatencySnapshot,
    /// Rungs the ladder tried, per tier. A cache hit tries none.
    pub rung_attempted: [u64; QUALITY_TIERS],
    /// Dense rungs the ladder skipped instead of trying, per tier: their
    /// exact work could not fit their budget slice.
    pub rung_skipped: [u64; QUALITY_TIERS],
    /// Rungs that produced an answer, per tier. This counts rung
    /// outcomes, not requests (see [`MetricsSink`]).
    pub rung_answered: [u64; QUALITY_TIERS],
    /// Estimates served, per tier.
    pub quality_counts: [u64; QUALITY_TIERS],
    /// Summed latency of the estimates served, per tier.
    pub quality_latency_ns: [u64; QUALITY_TIERS],
    /// Degraded rung answers per reason: deadline, work-quota,
    /// cancelled, panic.
    pub degrade_reasons: [u64; 4],
    /// Requests refused with a retry hint: by admission control, or by a
    /// front door reporting into this service's sink.
    pub sheds: u64,
    /// Sum of those retry hints, nanoseconds.
    pub shed_retry_ns_sum: u64,
    /// Largest retry hint handed out, nanoseconds (0 when never shed).
    pub shed_retry_ns_max: u64,
    /// Panicking requests isolated; each quarantined a snapshot cache.
    pub quarantines: u64,
    /// Answers whose safety-envelope width was known and finite.
    pub bound_widths: u64,
    /// Sum of those widths, in milli-units (×1000).
    pub bound_width_sum_milli: u64,
    /// Widest envelope, in milli-units (×1000).
    pub bound_width_max_milli: u64,
    /// Highest catalog epoch any served answer observed.
    pub max_epoch: u64,
    /// Delta-ingest counters (partial snapshot installs).
    pub ingest: IngestCounters,
    /// Counters of the *current* snapshot's sharded cache (reset on every
    /// install, since the cache is per snapshot).
    pub cache: CacheCounters,
}

impl ServiceStatsSnapshot {
    /// Mean estimate latency; zero when nothing was served.
    pub fn mean_latency(&self) -> Duration {
        self.latency.mean()
    }

    /// Estimates served from one quality tier.
    pub fn quality_count(&self, q: Quality) -> u64 {
        self.quality_counts[quality_idx(q)]
    }

    /// Mean latency of answers in one quality tier; zero when none.
    pub fn quality_mean_latency(&self, q: Quality) -> Duration {
        let i = quality_idx(q);
        self.quality_latency_ns[i]
            .checked_div(self.quality_counts[i])
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Degraded rung answers attributed to one reason.
    pub fn degraded_by(&self, r: DegradeReason) -> u64 {
        self.degrade_reasons[reason_idx(r)]
    }

    /// Fraction of served answers at full quality (1.0 when nothing was
    /// served — an idle service is not a degraded one).
    pub fn full_fraction(&self) -> f64 {
        if self.estimates == 0 {
            return 1.0;
        }
        self.quality_count(Quality::Full) as f64 / self.estimates as f64
    }
}

impl fmt::Display for ServiceStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (latency, ingest, cache) = (&self.latency, &self.ingest, &self.cache);
        writeln!(
            f,
            "estimates: {} ({} query-cache hits), batches: {}, installs: {}",
            self.estimates, self.query_cache_hits, self.batches, self.installs
        )?;
        writeln!(
            f,
            "latency: mean {:?}, p50 ≤ {} µs, p99 ≤ {} µs, p99.9 ≤ {} µs",
            latency.mean(),
            latency.quantile_us(0.50),
            latency.quantile_us(0.99),
            latency.quantile_us(0.999)
        )?;
        write!(f, "served:")?;
        for &q in Quality::ALL.iter().rev() {
            let (n, mean) = (self.quality_count(q), self.quality_mean_latency(q));
            if n > 0 {
                write!(f, " {}={n} ({mean:?})", q.label())?;
            }
        }
        writeln!(f, " sheds={} quarantines={}", self.sheds, self.quarantines)?;
        if ingest.partial_installs > 0 {
            writeln!(
                f,
                "ingest: {} partial installs ({} ops), {} SIT refreshes, \
                 cache carried {} / dropped {}",
                ingest.partial_installs,
                ingest.ops,
                ingest.sits_refreshed,
                ingest.cache_carried,
                ingest.cache_dropped
            )?;
        }
        write!(
            f,
            "shared cache: {} hits / {} misses ({:.1}% hit rate), {} insertions, {} evictions",
            cache.hits,
            cache.misses,
            100.0 * cache.hit_rate(),
            cache.insertions,
            cache.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_means_hits_and_rung_mix() {
        let s = ServiceStats::default();
        assert_eq!(s.snapshot(CacheCounters::default()).full_fraction(), 1.0); // idle ≠ degraded
        s.rung_attempted(Quality::Full);
        s.rung_skipped(Quality::Pruned, 40_000_000);
        s.rung_answered(Quality::Pruned, Some(DegradeReason::Deadline));
        s.estimate_served(10_000, Quality::Pruned, false);
        s.estimate_served(30_000, Quality::Full, true);
        s.batch();
        let snap = s.snapshot(CacheCounters::default());
        assert_eq!(
            (snap.estimates, snap.query_cache_hits, snap.batches),
            (2, 1, 1)
        );
        assert_eq!(snap.mean_latency(), Duration::from_micros(20));
        assert_eq!(s.mean_latency_hint(), Duration::from_micros(20));
        assert_eq!(snap.quality_count(Quality::Pruned), 1);
        assert_eq!(snap.rung_attempted[quality_idx(Quality::Full)], 1);
        assert_eq!(snap.rung_skipped[quality_idx(Quality::Pruned)], 1);
        assert_eq!(snap.rung_attempted[quality_idx(Quality::Pruned)], 0);
        assert_eq!(snap.rung_answered[quality_idx(Quality::Pruned)], 1);
        assert_eq!(snap.degraded_by(DegradeReason::Deadline), 1);
        assert!((snap.full_fraction() - 0.5).abs() < 1e-9);
        // Display must not panic and must mention the headline counter.
        assert!(snap.to_string().contains("estimates: 2"));
    }

    #[test]
    fn sheds_epochs_widths_and_installs_aggregate() {
        let s = ServiceStats::default();
        for (hint, epoch, width) in [(4_000_000, 3, 2.0), (2_000_000, 1, 6.0)] {
            s.shed(hint);
            s.ingest_epoch_observed(epoch);
            s.bound_width(width);
        }
        s.install();
        s.partial_install(7, 1, 5, 2);
        let snap = s.snapshot(CacheCounters::default());
        assert_eq!((snap.sheds, snap.shed_retry_ns_sum), (2, 6_000_000));
        assert_eq!((snap.shed_retry_ns_max, snap.max_epoch), (4_000_000, 3));
        let widths = (snap.bound_widths, snap.bound_width_sum_milli);
        assert_eq!((widths, snap.bound_width_max_milli), ((2, 8_000), 6_000));
        assert_eq!(snap.installs, 2, "partial installs count as installs");
        let ingest = IngestCounters {
            partial_installs: 1,
            ops: 7,
            sits_refreshed: 1,
            cache_carried: 5,
            cache_dropped: 2,
        };
        assert_eq!(snap.ingest, ingest);
    }
}
