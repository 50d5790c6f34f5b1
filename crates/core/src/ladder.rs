//! The graceful-degradation ladder: budgeted estimation that always
//! answers.
//!
//! A [`Budget`] bounds how much an estimation request may spend; this
//! module turns "the budget ran out" from an error into a *coarser
//! answer*. The [`Ladder`] walks four rungs, best to worst:
//!
//! 1. **Full** — the complete `getSelectivity` DP, identical bit-for-bit
//!    to an unbudgeted run;
//! 2. **Beam** — the [`crate::beam`] bounded-frontier approximate DP:
//!    width-limited best-first decomposition search, far cheaper than the
//!    full walk but carrying a real (approximate) error model;
//! 3. **Greedy** — the [`crate::gvm`] greedy view-matching chain: one
//!    pass, no subset enumeration;
//! 4. **Independence** — [`crate::baseline::independence_selectivity`]:
//!    an O(n) product of base-histogram estimates. This floor always
//!    completes, so every request gets *some* answer with an honest
//!    [`Quality`] label and the [`DegradeReason`] that pushed it down.
//!    When the configured [`crate::backend::SelectivityBackend`] publishes
//!    a guaranteed cardinality upper bound (the pessimistic backend), the
//!    floor caps the independence product by that bound and labels the
//!    answer [`Quality::Bound`] — the rung below independence on the
//!    honesty ladder, since the answer leans on a worst-case sketch.
//!
//! §3.4's SIT-driven pruning is a ladder-wide option:
//! [`Ladder::with_sit_driven_pruning`] prunes every DP rung.
//!
//! ## Beam routing
//!
//! When the configured [`DpStrategy`] routes the query's width to the
//! beam engine (`Auto` does for `n > 20`, where the exact walk is an
//! O(3ⁿ) cliff), `Beam` *is* the top rung: the ladder starts there with
//! the full rung's budget slice, labels an undegraded success
//! [`Quality::Beam`] with no degrade reason — honest "this is the best
//! the routing allows" — and falls to greedy below it. Exact-width
//! queries instead get the beam as the rung between full and greedy.
//!
//! ## Budget slicing
//!
//! One caller budget funds the whole ladder, so each DP rung gets a
//! *slice*, not the whole thing — otherwise the full rung would eat the
//! entire allowance and leave the rungs below nothing. With quota `Q` and
//! deadline `D` (measured from entry), and `R₁ = Q − ⌊Q/2⌋`:
//!
//! | rung  | work cap            | absolute deadline | skipped when (dense engine) |
//! |-------|---------------------|-------------------|-----------------------------|
//! | full *(or beam when routed)* | `⌊Q/2⌋` | `start + D/2` | masks > cap, or predicted end > deadline |
//! | beam *(exact-width queries only)* | `⌊R₁/2⌋` (fresh) | `start + 5D/8` | never |
//! | greedy| none (fast)         | `start + D` (checked before) | deadline already passed |
//! | independence | none         | none              | never |
//!
//! Each cap is a floor of a monotone nondecreasing function of `Q`, so a
//! *larger* budget can never fail a rung a smaller budget passed: the
//! quality label is monotone in the quota (property-tested in
//! `tests/budget_ladder.rs`). The greedy rung carries no quota — it does
//! one chain pass — and is skipped only if the caller cancelled or the
//! full deadline already passed.
//!
//! ## Skipping a rung that cannot finish
//!
//! Before the full rung runs the dense engine (under `Auto`, every exact
//! width: `n ≤ 20`), the ladder takes the rung's exact work from the
//! estimator it is about to run: [`SelectivityEstimator::dense_work`]
//! counts the masks the fill solves and the submask iterations it walks,
//! on the estimator's own component table, which the fill then reuses.
//! The rung is skipped — reported through
//! [`MetricsSink::rung_skipped`] in place of
//! [`MetricsSink::rung_attempted`] — in two cases:
//!
//! * **Quota**: its mask count exceeds its cap. A rung charges one unit
//!   per mask, so it would trip; skipping it charges nothing and changes
//!   no rung's outcome, so quality stays monotone in the quota. The
//!   reason is [`DegradeReason::WorkQuota`].
//! * **Deadline**: `now + submasks × rate` passes its absolute deadline,
//!   where `rate` is the rung's learned cost in ns per submask iteration
//!   (see [`RungCosts`]). The reason is [`DegradeReason::Deadline`].
//!
//! The slices keep their absolute deadlines, so a skipped full rung hands
//! its whole share of the deadline to the beam rung. The rate is an
//! exponentially weighted mean (weight ¼ per run) over every dense run of
//! the full rung, finished or tripped, read from
//! [`EstimatorStats::submasks`]. It lives outside the ladder, in a
//! [`RungCosts`] attached with [`Ladder::with_rung_costs`]; the service
//! keeps one per catalog snapshot, beside the shared cache whose hits and
//! misses it includes. Without a rate yet — on a fresh snapshot, or in a
//! ladder without [`RungCosts`] — the rung is never skipped for its
//! deadline. A skipped rung teaches its rate nothing, so one predicted
//! deadline skip in 32 (per [`RungCosts`]) runs the rung anyway and
//! refreshes it. The rule never extrapolates from a rung's own progress:
//! the first masks of a fill are peel-heavy, so a projection from early
//! progress reads several times too high.
//!
//! Unlimited budgets and the beam engine never reach the rule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqe_engine::{Database, SpjQuery};

use crate::backend::{DiffBackend, SelectivityBackend};
use crate::baseline::independence_selectivity;
use crate::beam::BeamConfig;
use crate::budget::{Budget, BudgetMeter, CancelToken, DegradeReason, Quality};
use crate::cache::SharedEstimatorCache;
use crate::error::ErrorMode;
use crate::estimator::{DenseWork, DpStrategy, EstimatorStats, SelectivityEstimator};
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
    /// [`Quality::Full`] and [`Quality::Beam`] rungs, `None` below (the
    /// greedy and independence paths carry no error model).
    pub error: Option<f64>,
    /// Which rung produced the answer.
    pub quality: Quality,
    /// Why the answer is degraded below the best rung this query can
    /// reach; `None` iff the top rung answered — `Full` for exact-width
    /// queries, `Beam` when the strategy routes the query to the beam
    /// engine (an undegraded beam answer is the best the routing allows).
    pub degraded_reason: Option<DegradeReason>,
    /// Work units spent across the DP rungs: the sum of their
    /// [`EstimatorStats::work`] (0 for an unlimited run, which attaches no
    /// meter).
    pub work: u64,
    /// Instrumentation from the rung that produced the answer (zeroed for
    /// the independence floor, which runs no estimator).
    pub stats: EstimatorStats,
}

/// A DP rung's answer, before the ladder labels it.
struct DpAnswer {
    selectivity: f64,
    error: f64,
    stats: EstimatorStats,
}

impl DpAnswer {
    fn label(
        self,
        quality: Quality,
        reason: Option<DegradeReason>,
        work: u64,
        metrics: &dyn MetricsSink,
    ) -> BudgetedEstimate {
        metrics.rung_answered(quality, reason);
        BudgetedEstimate {
            selectivity: self.selectivity,
            error: Some(self.error),
            quality,
            degraded_reason: reason,
            work,
            stats: self.stats,
        }
    }
}

/// Predicted deadline skips of the full rung between two runs of it that
/// refresh its rate (see [`RungCosts`]).
const REPROBE_EVERY: u64 = 32;

/// Weight of a new sample in the full rung's rate.
const RATE_WEIGHT: f64 = 0.25;

/// What the full rung's dense fill costs per submask iteration, as
/// learned from its runs: the rate behind the ladder's skip rule (see
/// the module docs). Owned by whatever shares a cache and a catalog among
/// requests — the service keeps one per catalog snapshot, because the
/// snapshot's shared cache makes up part of the cost — and handed to
/// [`Ladder::with_rung_costs`]. Share one only among ladders with one
/// configuration. All state is relaxed atomics: two racing updates may
/// lose one sample, never tear the rate.
#[derive(Debug, Default)]
pub struct RungCosts {
    /// Exponentially weighted mean of ns per submask iteration, as `f64`
    /// bits; 0 until the full rung has run.
    ns_per_submask: AtomicU64,
    predicted_skips: AtomicU64,
}

impl RungCosts {
    pub fn new() -> Self {
        Self::default()
    }

    /// The full rung's learned rate, in nanoseconds per submask
    /// iteration; `None` before the rung has run.
    pub fn ns_per_submask(&self) -> Option<f64> {
        let rate = f64::from_bits(self.ns_per_submask.load(Ordering::Relaxed));
        (rate > 0.0).then_some(rate)
    }

    /// Folds in one run — finished or tripped — that walked `submasks`
    /// iterations in `elapsed`.
    fn learn(&self, elapsed: Duration, submasks: u64) {
        if submasks == 0 {
            return;
        }
        let sample = elapsed.as_nanos() as f64 / submasks as f64;
        let rate = self
            .ns_per_submask()
            .map_or(sample, |r| r + RATE_WEIGHT * (sample - r));
        self.ns_per_submask.store(rate.to_bits(), Ordering::Relaxed);
    }

    /// Counts a predicted deadline skip; true for one in
    /// [`REPROBE_EVERY`], which runs the rung anyway: a skipped rung
    /// teaches its rate nothing.
    fn reprobe(&self) -> bool {
        let n = self.predicted_skips.fetch_add(1, Ordering::Relaxed);
        n % REPROBE_EVERY == REPROBE_EVERY - 1
    }
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
    costs: Option<&'a RungCosts>,
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
            costs: None,
        }
    }

    /// Installs a [`MetricsSink`] observing the rung walk: one
    /// [`MetricsSink::rung_attempted`] per rung tried, one
    /// [`MetricsSink::rung_skipped`] per rung skipped, one
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

    /// Enables §3.4 SIT-driven pruning on every DP rung (see
    /// [`SelectivityEstimator::with_sit_driven_pruning`]).
    pub fn with_sit_driven_pruning(mut self) -> Self {
        self.pruning = true;
        self
    }

    /// Two-attribute SIT catalog, forwarded to the DP rungs.
    pub fn with_sit2_catalog(mut self, catalog: &'a Sit2Catalog) -> Self {
        self.sit2 = Some(catalog);
        self
    }

    /// The full rung's learned rate: under a deadline, a dense full rung
    /// predicted to overrun its slice is skipped (see the module docs).
    /// Without it every rung runs whenever its quota allows.
    pub fn with_rung_costs(mut self, costs: &'a RungCosts) -> Self {
        self.costs = Some(costs);
        self
    }

    /// Cross-query shared cache, forwarded to the dense DP rungs. Products
    /// written back by a degraded run are still exact (pruning and budget
    /// trips never alter an individual product, only which ones get
    /// computed), so the cache-validity contract of [`crate::cache`]
    /// holds on every rung.
    pub fn with_shared_cache(mut self, cache: &'a dyn SharedEstimatorCache) -> Self {
        self.shared = Some(cache);
        self
    }

    fn build_estimator(&self, query: &SpjQuery, strategy: DpStrategy) -> SelectivityEstimator<'a> {
        let mut est = SelectivityEstimator::new(self.db, query, self.catalog, self.mode)
            .with_strategy(strategy)
            .with_beam_config(self.beam);
        if let Some(s2) = self.sit2 {
            est = est.with_sit2_catalog(s2);
        }
        if let Some(c) = self.shared {
            // Beam rungs run cache-free. With the product cache attached
            // they run faster on `deadline-wide`, but the products they
            // leave behind also let the full rung answer more requests
            // inside its slice, which pushes that rung's traced time
            // (`ladder.rung_us.full`, answering and wasted time alike) to
            // CI's bound. Attaching them waits until that metric is split
            // by outcome (ROADMAP.md). Beam answers never enter the
            // query-level cache either way — only exact `Full` ones do.
            if !est.is_beam() {
                est = est.with_shared_cache(c);
            }
        }
        if self.pruning {
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

    /// Runs one DP rung on `est` within its `(deadline, quota)` slice,
    /// adding the work it charged to `work`. `dense` is the rung's exact
    /// work when it runs the dense engine: the rung is then skipped if it
    /// cannot finish in its slice, and with [`RungCosts`] attached a run
    /// that finishes or trips teaches the learned rate. `Err` carries the
    /// trip or skip reason.
    fn dp_rung(
        &self,
        rung: Quality,
        est: SelectivityEstimator<'a>,
        dense: Option<DenseWork>,
        (deadline, cap): (Option<Instant>, Option<u64>),
        cancel: &Option<CancelToken>,
        work: &mut u64,
    ) -> Result<DpAnswer, DegradeReason> {
        let costs = dense.and(self.costs);
        let start = Instant::now();
        if let Some(d) = dense {
            if let Some(reason) = self.skip_reason(rung, d, costs, start, deadline, cap) {
                return Err(reason);
            }
        }
        self.metrics.rung_attempted(rung);
        let mut est = est.with_budget_meter(BudgetMeter::new(deadline, cap, cancel.clone()));
        let all = est.context().all();
        let result = est.try_get_selectivity(all);
        let stats = est.stats();
        *work += stats.work;
        if let Some(costs) = costs {
            costs.learn(start.elapsed(), stats.submasks);
        }
        let (selectivity, error) = result?;
        Ok(DpAnswer {
            selectivity,
            error,
            stats,
        })
    }

    /// Why a dense rung of exact work `d`, about to start at `now`,
    /// cannot finish in its slice — if it cannot — reported to the sink
    /// as a skip. Quota side: the rung charges at least one unit per mask,
    /// so more masks than its cap means it would trip; a larger quota
    /// never skips a rung a smaller one ran. Deadline side: once the rung
    /// has a learned rate, `now + submasks × rate` past its deadline
    /// predicts a trip, and all but one in [`REPROBE_EVERY`] such
    /// predictions skip.
    fn skip_reason(
        &self,
        rung: Quality,
        d: DenseWork,
        costs: Option<&RungCosts>,
        now: Instant,
        deadline: Option<Instant>,
        cap: Option<u64>,
    ) -> Option<DegradeReason> {
        let predicted_ns = costs
            .and_then(RungCosts::ns_per_submask)
            .map_or(0, |r| (d.submasks as f64 * r) as u64);
        let overruns = |deadline: Instant| {
            now.checked_add(Duration::from_nanos(predicted_ns))
                .is_none_or(|end| end > deadline)
        };
        let reason = if cap.is_some_and(|c| d.masks > c) {
            DegradeReason::WorkQuota
        } else if predicted_ns > 0
            && deadline.is_some_and(overruns)
            && !costs.is_some_and(RungCosts::reprobe)
        {
            DegradeReason::Deadline
        } else {
            return None;
        };
        self.metrics.rung_skipped(rung, predicted_ns);
        Some(reason)
    }

    /// Runs the ladder for `query` under `budget`. Never errors: the
    /// independence floor guarantees an answer. An unlimited budget takes
    /// a meter-free fast path bit-identical to calling the estimator
    /// directly.
    pub fn estimate(&self, query: &SpjQuery, budget: &Budget) -> BudgetedEstimate {
        if budget.is_unlimited() {
            let mut est = self.build_estimator(query, self.strategy);
            let all = est.context().all();
            let (selectivity, error) = est.get_selectivity(all);
            let quality = if est.is_beam() {
                Quality::Beam
            } else {
                Quality::Full
            };
            self.metrics.rung_attempted(quality);
            let answer = DpAnswer {
                selectivity,
                error,
                stats: est.stats(),
            };
            return answer.label(quality, None, 0, self.metrics);
        }

        let start = Instant::now();

        // A budget already exhausted at entry — a pre-cancelled token or a
        // zero deadline — goes straight to the floor. Without this gate a
        // query small enough to finish between amortized polls could still
        // return `Full`, making cancellation nondeterministic.
        let entry = BudgetMeter::new(
            budget.deadline.map(|d| start + d),
            None,
            budget.cancel.clone(),
        );
        if let Err(e) = entry.force_poll() {
            return self.floor(query, Some(e.into()), 0);
        }

        let mut work = 0u64;
        let cancel = &budget.cancel;

        // Rung 1: the best DP this query can get — full exact, or beam
        // when the strategy routes the query's width to the beam engine —
        // on half the allowance. When routed, the top rung is the beam
        // itself (the exact walk is unaffordable by construction) and the
        // dedicated beam rung below is redundant.
        let mut est = self.build_estimator(query, self.strategy);
        let routed = est.is_beam();
        let top = if routed { Quality::Beam } else { Quality::Full };
        let dense = est.dense_work(est.context().all());
        let slice = (
            budget.deadline.map(|d| start + d / 2),
            budget.quota.map(|q| q / 2),
        );
        // Why the answer is degraded: the top rung's trip or skip reason
        // (every later rung only runs because the top rung failed).
        let reason = match self.dp_rung(top, est, dense, slice, cancel, &mut work) {
            Ok(answer) => return answer.label(top, None, work, self.metrics),
            Err(r) => r,
        };

        // Rung 2 (exact-width queries only): the beam engine on a fresh
        // half-of-the-remainder slice — an approximate DP answer with a
        // real error model, far cheaper than the full walk that just
        // tripped. Caps are floors of monotone functions of Q — never
        // cumulative windows, which would break quota monotonicity.
        if !routed {
            let est = self.build_estimator(query, DpStrategy::Beam);
            let slice = (
                budget.deadline.map(|d| start + d.mul_f64(0.625)),
                budget.quota.map(|q| (q - q / 2) / 2),
            );
            if let Ok(answer) = self.dp_rung(Quality::Beam, est, None, slice, cancel, &mut work) {
                return answer.label(Quality::Beam, Some(reason), work, self.metrics);
            }
        }

        // Rung 3: greedy view matching — one chain pass, no quota. Only
        // skipped if the caller cancelled or the full deadline already
        // passed (the pass itself is microseconds-to-milliseconds).
        let gate = BudgetMeter::new(
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

        // Rung 4: the floor — independence, or the bound-capped
        // `Quality::Bound` variant when the backend publishes one. O(n);
        // always answers.
        self.floor(query, Some(reason), work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rate_starts_at_its_first_run_and_moves_a_quarter_per_run() {
        let costs = RungCosts::new();
        assert_eq!(costs.ns_per_submask(), None);
        costs.learn(Duration::from_nanos(4_000), 100);
        assert_eq!(costs.ns_per_submask(), Some(40.0));
        costs.learn(Duration::from_nanos(8_000), 100);
        assert_eq!(costs.ns_per_submask(), Some(50.0));
        // A run that walked nothing carries no rate.
        costs.learn(Duration::from_millis(5), 0);
        assert_eq!(costs.ns_per_submask(), Some(50.0));
    }

    #[test]
    fn one_predicted_skip_in_thirty_two_runs_the_rung() {
        let costs = RungCosts::new();
        let runs: Vec<u64> = (0..3 * REPROBE_EVERY).filter(|_| costs.reprobe()).collect();
        assert_eq!(runs, [31, 63, 95]);
    }
}
