//! Per-technique sub-query evaluation — the §5 "Metrics" procedure.
//!
//! For each workload query the paper (i) estimates the cardinality of
//! *every sub-query*, (ii) computes each sub-query's actual cardinality,
//! and (iii) averages the absolute error; the per-workload number is the
//! mean over queries. [`eval_query`] implements one query's worth of that
//! for a chosen [`Technique`].

use std::sync::Mutex;
use std::time::{Duration, Instant};

use sqe_core::{
    ErrorMode, GreedyViewMatching, NoSitEstimator, PredSet, QueryContext, SelectivityEstimator,
    SharedEstimatorCache, SitCatalog, SitId,
};
use sqe_engine::{CardinalityOracle, Database, SpjQuery};
use sqe_histogram::Histogram;

/// An estimation technique from §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Base-table statistics only (a conventional optimizer).
    NoSit,
    /// Greedy view matching of \[4\].
    Gvm,
    /// `getSelectivity` with the given error function.
    Gs(ErrorMode),
}

impl Technique {
    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Technique::NoSit => "noSit",
            Technique::Gvm => "GVM",
            Technique::Gs(m) => m.label(),
        }
    }

    /// The five techniques of Figure 7, in the paper's order.
    pub fn all() -> [Technique; 5] {
        [
            Technique::NoSit,
            Technique::Gvm,
            Technique::Gs(ErrorMode::NInd),
            Technique::Gs(ErrorMode::Diff),
            Technique::Gs(ErrorMode::Opt),
        ]
    }
}

/// Result of evaluating one query under one technique.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryEval {
    /// Mean absolute cardinality error over the query's sub-queries.
    pub avg_abs_error: f64,
    /// Number of sub-queries evaluated.
    pub subqueries: usize,
    /// View-matching calls issued while answering all requests.
    pub vm_calls: u64,
    /// Wall time for all estimation requests (excludes truth computation).
    pub wall: Duration,
    /// Portion of `wall` spent computing SIT-pair join and `H3` products
    /// (Figure 8's histogram-manipulation component, timed through the
    /// estimator's shared-cache seam; zero for GVM, which runs no such
    /// estimator).
    pub histogram_time: Duration,
}

/// A [`SharedEstimatorCache`] that stores nothing and times the products
/// computed beneath it. Every lookup misses, and the estimator then
/// computes the product and writes it back, so the span from a
/// `get_join`/`get_h3` miss to its `put_*` is the time one histogram join
/// took. Attaching it changes no value: a cache that never hits leaves
/// every path as it is without one.
#[derive(Debug, Default)]
struct ProductClock {
    /// When the pending miss happened, and the summed spans.
    state: Mutex<(Option<Instant>, Duration)>,
}

impl ProductClock {
    fn miss(&self) {
        self.state.lock().expect("clock lock").0 = Some(Instant::now());
    }

    fn computed(&self) {
        let mut state = self.state.lock().expect("clock lock");
        if let Some(missed) = state.0.take() {
            state.1 += missed.elapsed();
        }
    }

    fn total(&self) -> Duration {
        self.state.lock().expect("clock lock").1
    }
}

impl SharedEstimatorCache for ProductClock {
    fn get_join(&self, _pair: (SitId, SitId)) -> Option<f64> {
        self.miss();
        None
    }

    fn put_join(&self, _pair: (SitId, SitId), _selectivity: f64) {
        self.computed();
    }

    fn get_h3(&self, _pair: (SitId, SitId)) -> Option<(Histogram, f64)> {
        self.miss();
        None
    }

    fn put_h3(&self, _pair: (SitId, SitId), _value: (Histogram, f64)) {
        self.computed();
    }
}

/// Evaluates one query: estimates the cardinality of every non-empty
/// predicate subset and compares with the truth from `oracle`.
pub fn eval_query(
    db: &Database,
    oracle: &mut CardinalityOracle<'_>,
    query: &SpjQuery,
    catalog: &SitCatalog,
    technique: Technique,
) -> QueryEval {
    let ctx = QueryContext::new(db, query);
    let all = ctx.all();
    let subsets: Vec<PredSet> = all.subsets().collect();

    // Truth first (not timed — it is the metric, not the technique).
    let truths: Vec<f64> = subsets
        .iter()
        .map(|&p| {
            let tables = ctx.tables_of(p);
            let preds = ctx.predicates_of(p);
            oracle.cardinality(&tables, &preds).unwrap_or(0) as f64
        })
        .collect();

    let clock = ProductClock::default();
    let start = Instant::now();
    let (estimates, vm_calls, histogram_time) = match technique {
        Technique::NoSit => {
            let nosit = NoSitEstimator::from_catalog(catalog);
            let mut est = nosit.estimator(db, query).with_shared_cache(&clock);
            let cards: Vec<f64> = subsets.iter().map(|&p| est.cardinality(p)).collect();
            (cards, est.stats().vm_calls, clock.total())
        }
        Technique::Gs(mode) => {
            let mut est =
                SelectivityEstimator::new(db, query, catalog, mode).with_shared_cache(&clock);
            let cards: Vec<f64> = subsets.iter().map(|&p| est.cardinality(p)).collect();
            (cards, est.stats().vm_calls, clock.total())
        }
        Technique::Gvm => {
            let mut gvm = GreedyViewMatching::new(db, query, catalog);
            let cards: Vec<f64> = subsets.iter().map(|&p| gvm.cardinality(p)).collect();
            (cards, gvm.stats().vm_calls, Duration::ZERO)
        }
    };
    let wall = start.elapsed();

    let total_err: f64 = estimates
        .iter()
        .zip(&truths)
        .map(|(e, t)| (e - t).abs())
        .sum();
    QueryEval {
        avg_abs_error: total_err / subsets.len() as f64,
        subqueries: subsets.len(),
        vm_calls,
        wall,
        histogram_time,
    }
}

/// Convenience: mean of per-query average errors over a workload.
pub fn eval_workload(
    db: &Database,
    oracle: &mut CardinalityOracle<'_>,
    workload: &[SpjQuery],
    catalog: &SitCatalog,
    technique: Technique,
) -> (f64, Vec<QueryEval>) {
    let evals: Vec<QueryEval> = workload
        .iter()
        .map(|q| eval_query(db, oracle, q, catalog, technique))
        .collect();
    let mean = evals.iter().map(|e| e.avg_abs_error).sum::<f64>() / evals.len().max(1) as f64;
    (mean, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{Setup, SetupConfig};

    fn tiny_setup() -> Setup {
        Setup::new(SetupConfig {
            scale: 0.002,
            queries: 3,
            ..SetupConfig::default()
        })
    }

    #[test]
    fn all_techniques_produce_finite_errors() {
        let s = tiny_setup();
        let wl = s.workload(3);
        let pool = s.pool(&wl, 2);
        let mut oracle = CardinalityOracle::new(&s.snowflake.db);
        for technique in Technique::all() {
            let e = eval_query(&s.snowflake.db, &mut oracle, &wl[0], &pool, technique);
            assert!(e.avg_abs_error.is_finite(), "{technique:?}");
            assert_eq!(e.subqueries, (1 << wl[0].predicates.len()) - 1);
        }
    }

    #[test]
    fn gs_with_sits_beats_nosit_on_average() {
        let s = tiny_setup();
        let wl = s.workload(3);
        let pool = s.pool(&wl, 3);
        let mut oracle = CardinalityOracle::new(&s.snowflake.db);
        let (nosit, _) = eval_workload(&s.snowflake.db, &mut oracle, &wl, &pool, Technique::NoSit);
        let (gs, _) = eval_workload(
            &s.snowflake.db,
            &mut oracle,
            &wl,
            &pool,
            Technique::Gs(ErrorMode::Diff),
        );
        assert!(
            gs < nosit,
            "GS-Diff ({gs}) should beat noSit ({nosit}) with a J3 pool"
        );
    }

    #[test]
    fn opt_is_at_least_as_good_as_nind() {
        let s = tiny_setup();
        let wl = s.workload(3);
        let pool = s.pool(&wl, 2);
        let mut oracle = CardinalityOracle::new(&s.snowflake.db);
        let (nind, _) = eval_workload(
            &s.snowflake.db,
            &mut oracle,
            &wl,
            &pool,
            Technique::Gs(ErrorMode::NInd),
        );
        let (opt, _) = eval_workload(
            &s.snowflake.db,
            &mut oracle,
            &wl,
            &pool,
            Technique::Gs(ErrorMode::Opt),
        );
        // Opt optimizes per-factor truth, which strongly correlates with —
        // but does not strictly dominate — whole-query error. Allow a thin
        // margin.
        assert!(
            opt <= nind * 1.25 + 1e-6,
            "GS-Opt ({opt}) should not lose badly to GS-nInd ({nind})"
        );
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = Technique::all().iter().map(|t| t.label()).collect();
        assert_eq!(labels, vec!["noSit", "GVM", "GS-nInd", "GS-Diff", "GS-Opt"]);
    }
}
