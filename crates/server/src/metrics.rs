//! A tenant's metrics on the wire: the Prometheus-style `GET /metrics`
//! text and the `GET /v1/<tenant>/stats` JSON. Both read the tenant
//! service's [`ServiceStatsSnapshot`] — the service's own aggregating
//! sink — so the front door keeps no counters of its own. Latency
//! quantiles are the conservative upper bucket edges of
//! [`sqe_core::LatencyHistogram`].

use std::fmt::Write;

use sqe_core::Quality;
use sqe_service::ServiceStatsSnapshot;

/// Degrade-reason labels, in [`ServiceStatsSnapshot::degrade_reasons`]
/// order.
const REASON_LABELS: [&str; 4] = ["deadline", "work_quota", "cancelled", "panic"];

/// Appends one tenant's series to `out`, one line per series, all
/// labeled `tenant="<name>"`. Rungs that never ran are left out, and so
/// is a zero skip count.
pub(crate) fn render(tenant: &str, snap: &ServiceStatsSnapshot, out: &mut String) {
    let mut line = |name: &str, label: &str, value: u64| {
        let _ = writeln!(out, "sqe_{name}{{tenant=\"{tenant}\"{label}}} {value}");
    };
    for (i, q) in Quality::ALL.iter().enumerate() {
        let rung = format!(",rung=\"{}\"", q.label());
        let counts = [
            ("rung_attempted_total", snap.rung_attempted[i]),
            ("rung_answered_total", snap.rung_answered[i]),
            ("estimates_served_total", snap.quality_counts[i]),
        ];
        if counts.iter().any(|&(_, n)| n > 0) {
            for (name, n) in counts {
                line(name, &rung, n);
            }
        }
        if snap.rung_skipped[i] > 0 {
            line("rung_skipped_total", &rung, snap.rung_skipped[i]);
        }
    }
    for (reason, &n) in REASON_LABELS.iter().zip(&snap.degrade_reasons) {
        if n > 0 {
            line("degraded_total", &format!(",reason=\"{reason}\""), n);
        }
    }
    line("estimates_cached_total", "", snap.query_cache_hits);
    line("sheds_total", "", snap.sheds);
    line("quarantines_total", "", snap.quarantines);
    line("ingest_epoch", "", snap.max_epoch);
    for (q, name) in [(0.50, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
        let quantile = format!(",quantile=\"{name}\"");
        line("latency_us", &quantile, snap.latency.quantile_us(q));
    }
}

/// Per-rung counts inside a [`StatsResponse`], worst rung first.
#[derive(serde::Serialize)]
struct RungCounts {
    rung: &'static str,
    attempted: u64,
    skipped: u64,
    answered: u64,
    served: u64,
}

/// Per-degrade-reason count inside a [`StatsResponse`].
#[derive(serde::Serialize)]
struct ReasonCount {
    reason: &'static str,
    count: u64,
}

/// Wire shape of `GET /v1/<tenant>/stats`: the snapshot's counters, with
/// retry hints in milliseconds, bound widths as ratios and latency as
/// conservative quantiles in microseconds.
#[derive(serde::Serialize)]
pub(crate) struct StatsResponse {
    rungs: Vec<RungCounts>,
    degraded: Vec<ReasonCount>,
    served_total: u64,
    cached: u64,
    full_fraction: f64,
    sheds: u64,
    shed_retry_ms_mean: f64,
    shed_retry_ms_max: f64,
    quarantines: u64,
    bound_width_mean: f64,
    bound_width_max: f64,
    max_epoch: u64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
}

impl StatsResponse {
    pub(crate) fn new(snap: &ServiceStatsSnapshot) -> Self {
        let mean = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        StatsResponse {
            rungs: Quality::ALL
                .iter()
                .enumerate()
                .map(|(i, q)| RungCounts {
                    rung: q.label(),
                    attempted: snap.rung_attempted[i],
                    skipped: snap.rung_skipped[i],
                    answered: snap.rung_answered[i],
                    served: snap.quality_counts[i],
                })
                .collect(),
            degraded: REASON_LABELS
                .iter()
                .zip(&snap.degrade_reasons)
                .map(|(&reason, &count)| ReasonCount { reason, count })
                .collect(),
            served_total: snap.estimates,
            cached: snap.query_cache_hits,
            full_fraction: snap.full_fraction(),
            sheds: snap.sheds,
            shed_retry_ms_mean: mean(snap.shed_retry_ns_sum, snap.sheds) / 1e6,
            shed_retry_ms_max: snap.shed_retry_ns_max as f64 / 1e6,
            quarantines: snap.quarantines,
            bound_width_mean: mean(snap.bound_width_sum_milli, snap.bound_widths) / 1000.0,
            bound_width_max: snap.bound_width_max_milli as f64 / 1000.0,
            max_epoch: snap.max_epoch,
            p50_us: snap.latency.quantile_us(0.50),
            p99_us: snap.latency.quantile_us(0.99),
            p999_us: snap.latency.quantile_us(0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqe_core::{DegradeReason, MetricsSink};
    use sqe_service::{CacheCounters, ServiceStats};

    #[test]
    fn render_and_stats_read_the_service_snapshot() {
        let s = ServiceStats::default();
        s.rung_attempted(Quality::Full);
        s.rung_answered(Quality::Full, None);
        s.estimate_served(5_000, Quality::Full, false);
        s.rung_skipped(Quality::Full, 30_000_000);
        s.rung_answered(Quality::Greedy, Some(DegradeReason::WorkQuota));
        for (hint, width) in [(1_000_000, 2.0), (3_000_000, 6.0)] {
            s.shed(hint);
            s.bound_width(width);
        }
        let snap = s.snapshot(CacheCounters::default());
        let mut out = String::new();
        render("acme", &snap, &mut out);
        for series in [
            "sqe_rung_answered_total{tenant=\"acme\",rung=\"full\"} 1",
            "sqe_rung_answered_total{tenant=\"acme\",rung=\"greedy\"} 1",
            "sqe_rung_skipped_total{tenant=\"acme\",rung=\"full\"} 1",
            "sqe_degraded_total{tenant=\"acme\",reason=\"work_quota\"} 1",
            "sqe_sheds_total{tenant=\"acme\"} 2",
            "sqe_latency_us{tenant=\"acme\",quantile=\"0.99\"} 6",
        ] {
            assert!(out.contains(series), "{series} not in {out}");
        }
        assert!(!out.contains("rung=\"pruned\""), "idle rungs are left out");

        let wire = StatsResponse::new(&snap);
        assert_eq!((wire.served_total, wire.sheds), (1, 2));
        let derived = [
            wire.shed_retry_ms_mean,
            wire.shed_retry_ms_max,
            wire.bound_width_mean,
            wire.bound_width_max,
        ];
        assert_eq!(derived, [2.0, 3.0, 4.0, 6.0]);
        assert_eq!(wire.degraded[1].count, 1); // work_quota
    }
}
