//! The graceful-degradation ladder: budgeted estimation that always
//! answers.
//!
//! A [`Budget`] bounds how much an estimation request may spend; this
//! module turns "the budget ran out" from an error into a *coarser
//! answer*. The [`Ladder`] walks five rungs, best to worst:
//!
//! 1. **Full** — the complete `getSelectivity` DP, identical bit-for-bit
//!    to an unbudgeted run;
//! 2. **Beam** — the [`crate::beam`] bounded-frontier approximate DP:
//!    width-limited best-first decomposition search, far cheaper than the
//!    full walk but carrying a real (approximate) error model;
//! 3. **Pruned** — the DP restricted by §3.4 SIT-driven pruning (the
//!    paper's own answer to "too many atomic decompositions");
//! 4. **Greedy** — the [`crate::gvm`] greedy view-matching chain: one
//!    pass, no subset enumeration;
//! 5. **Independence** — [`crate::baseline::independence_selectivity`]:
//!    an O(n) product of base-histogram estimates. This floor always
//!    completes, so every request gets *some* answer with an honest
//!    [`Quality`] label and the [`DegradeReason`] that pushed it down.
//!    When the configured [`crate::backend::SelectivityBackend`] publishes
//!    a guaranteed cardinality upper bound (the pessimistic backend), the
//!    floor caps the independence product by that bound and labels the
//!    answer [`Quality::Bound`] — the rung below independence on the
//!    honesty ladder, since the answer leans on a worst-case sketch.
//!
//! ## Beam routing
//!
//! When the configured [`DpStrategy`] routes the query's width to the
//! beam engine (`Auto` does for `n > 20`, where the exact walk is an
//! O(3ⁿ) cliff), `Beam` *is* the top rung: the ladder starts there with
//! the full rung's budget slice, labels an undegraded success
//! [`Quality::Beam`] with no degrade reason — honest "this is the best
//! the routing allows" — and the pruned rung below runs the *pruned
//! beam* engine. Exact-width queries instead get the beam as a middle
//! rung between full and pruned.
//!
//! ## Budget slicing
//!
//! One caller budget funds the whole ladder, so each DP rung gets a
//! *slice*, not the whole thing — otherwise the full rung would eat the
//! entire allowance and leave the pruned rung nothing. With quota `Q` and
//! deadline `D` (measured from entry), and `R₁ = Q − ⌊Q/2⌋`,
//! `R₂ = R₁ − ⌊R₁/2⌋`:
//!
//! | rung  | work cap            | absolute deadline |
//! |-------|---------------------|-------------------|
//! | full *(or beam when routed)* | `⌊Q/2⌋` | `start + D/2` |
//! | beam *(exact-width queries only)* | `⌊R₁/2⌋` (fresh) | `start + 5D/8` |
//! | pruned| `⌊R₂/2⌋` (fresh; `⌊R₁/2⌋` when routed) | `start + 3D/4` |
//! | greedy| none (fast)         | `start + D` (checked before) |
//! | independence | none         | none              |
//!
//! Each cap is a floor of a monotone nondecreasing function of `Q`, so a
//! *larger* budget can never fail a rung a smaller budget passed: the
//! quality label is monotone in the quota (property-tested in
//! `tests/budget_ladder.rs`). The greedy rung carries no quota — it does
//! one chain pass — and is skipped only if the caller cancelled or the
//! full deadline already passed.

use std::sync::Arc;
use std::time::Instant;

use sqe_engine::{Database, SpjQuery};

use crate::backend::{DiffBackend, SelectivityBackend};
use crate::baseline::independence_selectivity;
use crate::beam::BeamConfig;
use crate::budget::{Budget, BudgetMeter, DegradeReason, Quality};
use crate::cache::SharedEstimatorCache;
use crate::error::ErrorMode;
use crate::estimator::{DpStrategy, EstimatorStats, SelectivityEstimator};
use crate::gvm::GreedyViewMatching;
use crate::metrics::{MetricsSink, NullSink};
use crate::sit::SitCatalog;
use crate::sit2::Sit2Catalog;

/// A budgeted estimation result: always a usable selectivity, honestly
/// labeled with how it was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetedEstimate {
    /// The selectivity estimate for the full predicate set.
    pub selectivity: f64,
    /// The DP's error score for the chosen decomposition — present on the
    /// [`Quality::Full`], [`Quality::Beam`], and [`Quality::Pruned`] rungs,
    /// `None` below (the greedy and independence paths carry no error
    /// model).
    pub error: Option<f64>,
    /// Which rung produced the answer.
    pub quality: Quality,
    /// Why the answer is degraded below the best rung this query can
    /// reach; `None` iff the top rung answered — `Full` for exact-width
    /// queries, `Beam` when the strategy routes the query to the beam
    /// engine (an undegraded beam answer is the best the routing allows).
    pub degraded_reason: Option<DegradeReason>,
    /// Work units spent across the DP rungs (0 for an unlimited run —
    /// the fast path skips accounting entirely).
    pub work: u64,
    /// Instrumentation from the rung that produced the answer (zeroed for
    /// the independence floor, which runs no estimator).
    pub stats: EstimatorStats,
}

/// Reusable ladder configuration for one `(database, catalog)` pair: the
/// estimator knobs every rung shares. Build once, call
/// [`Ladder::estimate`] per query.
pub struct Ladder<'a> {
    db: &'a Database,
    catalog: &'a SitCatalog,
    mode: ErrorMode,
    strategy: DpStrategy,
    pruning: bool,
    beam: BeamConfig,
    sit2: Option<&'a Sit2Catalog>,
    shared: Option<&'a dyn SharedEstimatorCache>,
    backend: Arc<dyn SelectivityBackend>,
    metrics: &'a dyn MetricsSink,
}

/// The shared no-op sink every ladder starts with.
static NULL_SINK: NullSink = NullSink;

impl<'a> Ladder<'a> {
    pub fn new(db: &'a Database, catalog: &'a SitCatalog, mode: ErrorMode) -> Self {
        Ladder {
            db,
            catalog,
            mode,
            strategy: DpStrategy::Auto,
            pruning: false,
            beam: BeamConfig::default(),
            sit2: None,
            shared: None,
            backend: Arc::new(DiffBackend),
            metrics: &NULL_SINK,
        }
    }

    /// Installs a [`MetricsSink`] observing the rung walk: one
    /// [`MetricsSink::rung_attempted`] per rung tried, one
    /// [`MetricsSink::rung_answered`] for the rung that answered. Sinks
    /// observe only — the walk and every answer are bit-identical with or
    /// without one.
    pub fn with_metrics(mut self, sink: &'a dyn MetricsSink) -> Self {
        self.metrics = sink;
        self
    }

    /// Selectivity backend forwarded to every DP rung. A backend that
    /// publishes [`SelectivityBackend::upper_bound`] additionally turns the
    /// independence floor into the [`Quality::Bound`] floor: the floor
    /// answer is capped by the guaranteed bound and labeled accordingly.
    pub fn with_backend(mut self, backend: Arc<dyn SelectivityBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// DP engine selection for the DP rungs (see [`DpStrategy`]).
    pub fn with_strategy(mut self, strategy: DpStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Knobs of the beam rung (and of every DP rung when the strategy
    /// routes the query to the beam engine).
    pub fn with_beam_config(mut self, cfg: BeamConfig) -> Self {
        self.beam = cfg;
        self
    }

    /// Enables §3.4 pruning on the *full* rung too (the pruned rung always
    /// prunes). With this set the first two rungs share a configuration
    /// and differ only in their budget slice.
    pub fn with_sit_driven_pruning(mut self) -> Self {
        self.pruning = true;
        self
    }

    /// Two-attribute SIT catalog, forwarded to the DP rungs.
    pub fn with_sit2_catalog(mut self, catalog: &'a Sit2Catalog) -> Self {
        self.sit2 = Some(catalog);
        self
    }

    /// Cross-query shared cache, forwarded to the DP rungs. Peel factors
    /// written back by a degraded run are still exact (pruning and budget
    /// trips never alter an individual factor, only which ones get
    /// computed), so the cache-validity contract of [`crate::cache`]
    /// holds on every rung.
    pub fn with_shared_cache(mut self, cache: &'a dyn SharedEstimatorCache) -> Self {
        self.shared = Some(cache);
        self
    }

    fn build_estimator(&self, query: &SpjQuery, pruned: bool) -> SelectivityEstimator<'a> {
        self.build_estimator_as(query, pruned, self.strategy)
    }

    fn build_estimator_as(
        &self,
        query: &SpjQuery,
        pruned: bool,
        strategy: DpStrategy,
    ) -> SelectivityEstimator<'a> {
        let mut est = SelectivityEstimator::new(self.db, query, self.catalog, self.mode)
            .with_strategy(strategy)
            .with_beam_config(self.beam);
        if let Some(s2) = self.sit2 {
            est = est.with_sit2_catalog(s2);
        }
        if let Some(c) = self.shared {
            // Beam rungs run cache-free: at the widths that use the beam,
            // per-link cache round-trips cost more wall-clock than the
            // bounded walk saves by reuse (measured 4–5× on the seeded
            // 32-predicate workload), and beam answers never enter the
            // query-level cache anyway — only exact `Full` ones do.
            if !strategy.use_beam(query.predicates.len()) {
                est = est.with_shared_cache(c);
            }
        }
        if pruned || self.pruning {
            est = est.with_sit_driven_pruning();
        }
        est.with_backend(self.backend.clone())
    }

    /// The floor: independence by default, upgraded-in-honesty to the
    /// [`Quality::Bound`] rung when the backend publishes a guaranteed
    /// cardinality upper bound. The bound caps the independence product —
    /// a sound ceiling can only tighten an unconditioned estimate — and the
    /// label records that the answer leans on the bound sketch rather than
    /// on the uniform-independence model alone.
    fn floor(
        &self,
        query: &SpjQuery,
        reason: Option<DegradeReason>,
        work: u64,
    ) -> BudgetedEstimate {
        let independence = independence_selectivity(self.db, self.catalog, query);
        if let Some(bound) = self.backend.upper_bound(query) {
            if let Ok(cross) = self.db.cross_product_size(&query.tables) {
                let cross = cross as f64;
                if cross > 0.0 && bound.is_finite() {
                    let cap = (bound / cross).clamp(0.0, 1.0);
                    self.metrics.rung_attempted(Quality::Bound);
                    self.metrics.rung_answered(Quality::Bound, reason);
                    return BudgetedEstimate {
                        selectivity: independence.min(cap),
                        error: None,
                        quality: Quality::Bound,
                        degraded_reason: reason,
                        work,
                        stats: EstimatorStats::default(),
                    };
                }
            }
        }
        self.metrics.rung_attempted(Quality::Independence);
        self.metrics.rung_answered(Quality::Independence, reason);
        BudgetedEstimate {
            selectivity: independence,
            error: None,
            quality: Quality::Independence,
            degraded_reason: reason,
            work,
            stats: EstimatorStats::default(),
        }
    }

    /// Runs the ladder for `query` under `budget`. Never errors: the
    /// independence floor guarantees an answer. An unlimited budget takes
    /// a meter-free fast path bit-identical to calling the estimator
    /// directly.
    pub fn estimate(&self, query: &SpjQuery, budget: &Budget) -> BudgetedEstimate {
        if budget.is_unlimited() {
            let mut est = self.build_estimator(query, false);
            let all = est.context().all();
            let (selectivity, error) = est.get_selectivity(all);
            let quality = if est.is_beam() {
                Quality::Beam
            } else {
                Quality::Full
            };
            self.metrics.rung_attempted(quality);
            self.metrics.rung_answered(quality, None);
            return BudgetedEstimate {
                selectivity,
                error: Some(error),
                quality,
                degraded_reason: None,
                work: 0,
                stats: est.stats(),
            };
        }

        let start = Instant::now();

        // A budget already exhausted at entry — a pre-cancelled token or a
        // zero deadline — goes straight to the floor. Without this gate a
        // query small enough to finish between amortized polls could still
        // return `Full`, making cancellation nondeterministic.
        let entry = BudgetMeter::from_parts(
            budget.deadline.map(|d| start + d),
            None,
            budget.cancel.clone(),
        );
        if let Err(e) = entry.force_poll() {
            return self.floor(query, Some(e.into()), 0);
        }

        let mut work = 0u64;
        // Whether the strategy routes this query's width to the beam
        // engine: the top rung is then the beam itself (the exact walk is
        // unaffordable by construction) and the dedicated middle rung is
        // redundant.
        let routed = self.strategy.use_beam(query.predicates.len());
        // Why the answer is degraded: the top rung's trip reason (every
        // later rung only runs because the top rung failed).
        let reason: DegradeReason;

        // Rung 1: the best DP this query can get — full exact, or beam
        // when routed — on half the allowance.
        let full_meter = Arc::new(BudgetMeter::from_parts(
            budget.deadline.map(|d| start + d / 2),
            budget.quota.map(|q| q / 2),
            budget.cancel.clone(),
        ));
        {
            let top = if routed { Quality::Beam } else { Quality::Full };
            self.metrics.rung_attempted(top);
            let mut est = self
                .build_estimator(query, false)
                .with_budget_meter(full_meter.clone());
            let all = est.context().all();
            let r = est.try_get_selectivity(all);
            work += full_meter.spent();
            match r {
                Ok((selectivity, error)) => {
                    self.metrics.rung_answered(top, None);
                    return BudgetedEstimate {
                        selectivity,
                        error: Some(error),
                        quality: top,
                        degraded_reason: None,
                        work,
                        stats: est.stats(),
                    };
                }
                Err(e) => reason = e.into(),
            }
        }

        // Rung 2 (exact-width queries only): the beam engine on a fresh
        // half-of-the-remainder slice — an approximate DP answer with a
        // real error model, far cheaper than the full walk that just
        // tripped. Caps are floors of monotone functions of Q — never
        // cumulative windows, which would break quota monotonicity.
        let r1 = budget.quota.map(|q| q - q / 2);
        if !routed {
            self.metrics.rung_attempted(Quality::Beam);
            let beam_meter = Arc::new(BudgetMeter::from_parts(
                budget.deadline.map(|d| start + d.mul_f64(0.625)),
                r1.map(|r| r / 2),
                budget.cancel.clone(),
            ));
            let mut est = self
                .build_estimator_as(query, false, DpStrategy::Beam)
                .with_budget_meter(beam_meter.clone());
            let all = est.context().all();
            let r = est.try_get_selectivity(all);
            work += beam_meter.spent();
            if let Ok((selectivity, error)) = r {
                self.metrics.rung_answered(Quality::Beam, Some(reason));
                return BudgetedEstimate {
                    selectivity,
                    error: Some(error),
                    quality: Quality::Beam,
                    degraded_reason: Some(reason),
                    work,
                    stats: est.stats(),
                };
            }
        }

        // Rung 3: pruned DP (the pruned *beam* engine when routed) on a
        // fresh slice of what the rungs above left notionally unspent.
        let r2 = if routed { r1 } else { r1.map(|r| r - r / 2) };
        let pruned_meter = Arc::new(BudgetMeter::from_parts(
            budget.deadline.map(|d| start + d.mul_f64(0.75)),
            r2.map(|r| r / 2),
            budget.cancel.clone(),
        ));
        {
            self.metrics.rung_attempted(Quality::Pruned);
            let mut est = self
                .build_estimator(query, true)
                .with_budget_meter(pruned_meter.clone());
            let all = est.context().all();
            let r = est.try_get_selectivity(all);
            work += pruned_meter.spent();
            if let Ok((selectivity, error)) = r {
                self.metrics.rung_answered(Quality::Pruned, Some(reason));
                return BudgetedEstimate {
                    selectivity,
                    error: Some(error),
                    quality: Quality::Pruned,
                    degraded_reason: Some(reason),
                    work,
                    stats: est.stats(),
                };
            }
        }

        // Rung 4: greedy view matching — one chain pass, no quota. Only
        // skipped if the caller cancelled or the full deadline already
        // passed (the pass itself is microseconds-to-milliseconds).
        let gate = BudgetMeter::from_parts(
            budget.deadline.map(|d| start + d),
            None,
            budget.cancel.clone(),
        );
        if gate.force_poll().is_ok() {
            self.metrics.rung_attempted(Quality::Greedy);
            let mut gvm = GreedyViewMatching::new(self.db, query, self.catalog);
            let all = gvm.context().all();
            let selectivity = gvm.selectivity(all);
            self.metrics.rung_answered(Quality::Greedy, Some(reason));
            return BudgetedEstimate {
                selectivity,
                error: None,
                quality: Quality::Greedy,
                degraded_reason: Some(reason),
                work,
                stats: gvm.stats(),
            };
        }

        // Rung 5: the floor — independence, or the bound-capped
        // `Quality::Bound` variant when the backend publishes one. O(n);
        // always answers.
        self.floor(query, Some(reason), work)
    }
}
