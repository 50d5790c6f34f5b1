//! The measurement pass: every estimator variant against oracle truth.
//!
//! For each scenario in the tier, the harness computes the *true*
//! selectivity of every workload query (engine [`CardinalityOracle`],
//! cross-checked against the independent [`ExactExecutor`] on every third
//! query) and then runs a fixed grid of estimator variants — error mode ×
//! SIT pool × §3.4 pruning — recording per-query q-error and relative
//! error. Both DP engines are run for every estimate and must agree bit
//! for bit; the measurement doubles as a differential test.
//!
//! Aggregates use the *nearest-rank* percentile (deterministic, no
//! interpolation) and every reported float is rounded to six decimals so
//! the committed `ACCURACY.json` is byte-stable across platforms with
//! identical math.
//!
//! [`CardinalityOracle`]: sqe_engine::CardinalityOracle

use std::sync::Arc;

use sqe_core::{
    build_pool, BackendKind, BnBackend, BnCatalog, BoundSketch, Budget, DiffBackend, DpStrategy,
    ErrorMode, Ladder, PessimisticBackend, PoolSpec, Quality, SelectivityBackend,
    SelectivityEstimator, SitCatalog,
};
use sqe_engine::CardinalityOracle;

use crate::exec::ExactExecutor;
use crate::workload::{scenarios, OracleScenario, OracleTier};

/// Accuracy of one estimator variant over one scenario's workload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VariantResult {
    /// Variant key, e.g. `"diff-j2-pruned"` (error mode, SIT pool,
    /// pruning).
    pub variant: String,
    /// Number of queries measured.
    pub queries: usize,
    /// Median q-error (`max(est/true, true/est)`), nearest rank.
    pub median_q_error: f64,
    /// 95th-percentile q-error, nearest rank.
    pub p95_q_error: f64,
    /// Worst q-error in the scenario.
    pub max_q_error: f64,
    /// Median relative error `|est − true| / true`, nearest rank.
    pub median_rel_error: f64,
    /// 95th-percentile relative error, nearest rank.
    pub p95_rel_error: f64,
    /// Estimates that came back below `Full` quality from the budgeted
    /// path. Accuracy is only meaningful for unbudgeted answers, so the
    /// gate rejects any report where this is nonzero.
    pub non_full_samples: u64,
}

/// All variant results for one generated scenario.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioAccuracy {
    /// Scenario name from [`crate::workload`].
    pub scenario: String,
    /// Database fingerprint; the gate refuses to compare runs that
    /// measured different data.
    pub fingerprint: u64,
    /// One entry per estimator variant, in the fixed grid order.
    pub variants: Vec<VariantResult>,
}

/// The full report, serialized as `ACCURACY.json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AccuracyReport {
    /// `"smoke"` or `"full"` — reports from different tiers are not
    /// comparable (different query counts and scenario sets).
    pub tier: String,
    /// One entry per scenario.
    pub scenarios: Vec<ScenarioAccuracy>,
    /// Accuracy under incremental maintenance: one mutation-stream replay
    /// per scenario family (see [`crate::staleness`]).
    pub staleness: Vec<crate::staleness::StalenessScenario>,
    /// Beam-search error envelope on the wide scenarios (see
    /// [`crate::beam_envelope`]). Defaults empty so reports written before
    /// the beam engine existed still deserialize.
    #[serde(default)]
    pub beam: Vec<crate::beam_envelope::BeamEnvelopeScenario>,
    /// Soundness audit of the pessimistic bound sketch: one entry per
    /// scenario, counting queries whose "guaranteed" upper bound came in
    /// below the true cardinality (must be zero — `gate_bound`). Defaults
    /// empty so pre-backend reports still deserialize.
    #[serde(default)]
    pub bounds: Vec<BoundsScenario>,
}

/// Pessimistic-bound soundness and tightness over one scenario's workload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BoundsScenario {
    /// Scenario name from [`crate::workload`].
    pub scenario: String,
    /// Database fingerprint (comparability check, as for accuracy).
    pub fingerprint: u64,
    /// Number of queries audited.
    pub queries: usize,
    /// Queries with `bound < true cardinality`. Any nonzero value means
    /// the sketch is unsound; the gate fails the run.
    pub underestimates: u64,
    /// Worst `bound / truth` ratio — tightness, `>= 1` whenever sound.
    pub max_ratio: f64,
    /// Median `bound / truth` ratio, nearest rank.
    pub median_ratio: f64,
}

struct VariantSpec {
    name: &'static str,
    mode: ErrorMode,
    pool_joins: usize,
    pruned: bool,
    backend: BackendKind,
}

/// The fixed variant grid. `nind-j0` is the no-SIT floor (base histograms
/// with independence), `nind-j2` isolates what SITs buy the syntactic
/// ranking, `diff-j2` the paper's best practical mode, `diff-j2-pruned`
/// proves §3.4 pruning does not wreck accuracy, and `bn-j2` swaps in the
/// Bayesian-network backend over the same pool — `gate_bn` holds it to a
/// better worst case than `diff-j2` on the `corr-*` family.
const VARIANTS: &[VariantSpec] = &[
    VariantSpec {
        name: "nind-j0",
        mode: ErrorMode::NInd,
        pool_joins: 0,
        pruned: false,
        backend: BackendKind::Diff,
    },
    VariantSpec {
        name: "nind-j2",
        mode: ErrorMode::NInd,
        pool_joins: 2,
        pruned: false,
        backend: BackendKind::Diff,
    },
    VariantSpec {
        name: "diff-j2",
        mode: ErrorMode::Diff,
        pool_joins: 2,
        pruned: false,
        backend: BackendKind::Diff,
    },
    VariantSpec {
        name: "diff-j2-pruned",
        mode: ErrorMode::Diff,
        pool_joins: 2,
        pruned: true,
        backend: BackendKind::Diff,
    },
    VariantSpec {
        name: "bn-j2",
        mode: ErrorMode::Diff,
        pool_joins: 2,
        pruned: false,
        backend: BackendKind::Bn,
    },
];

/// Runs the whole measurement for a tier. Panics on any internal
/// inconsistency (executor disagreement, engine divergence, empty truth) —
/// in this harness an inconsistency is a bug, not a data point.
pub fn measure_accuracy(tier: OracleTier) -> AccuracyReport {
    let mut report_scenarios = Vec::new();
    let mut bounds = Vec::new();
    for sc in &scenarios(tier) {
        let (acc, bd) = measure_scenario(sc);
        report_scenarios.push(acc);
        bounds.push(bd);
    }
    AccuracyReport {
        tier: tier.label().to_string(),
        scenarios: report_scenarios,
        staleness: crate::staleness::measure_staleness(tier),
        beam: crate::beam_envelope::measure_beam_envelope(tier),
        bounds,
    }
}

fn measure_scenario(sc: &OracleScenario) -> (ScenarioAccuracy, BoundsScenario) {
    let db = &sc.db;
    let pool_j0 = build_pool(db, &sc.queries, PoolSpec::ji(0)).expect("J0 pool");
    let pool_j2 = build_pool(db, &sc.queries, PoolSpec::ji(2)).expect("J2 pool");
    // Backend state, built once per scenario database.
    let bn = Arc::new(BnCatalog::build(db));
    let sketch = Arc::new(BoundSketch::build(db));

    // True selectivities and cardinalities, differentially validated.
    let mut oracle = CardinalityOracle::new(db);
    let mut exact = ExactExecutor::new(db);
    let mut truths = Vec::with_capacity(sc.queries.len());
    let mut cards = Vec::with_capacity(sc.queries.len());
    for (i, q) in sc.queries.iter().enumerate() {
        let card = oracle
            .cardinality(&q.tables, &q.predicates)
            .expect("oracle cardinality");
        if i % 3 == 0 {
            let mine = exact.cardinality(&q.tables, &q.predicates);
            assert_eq!(mine, card, "{}: executors disagree on query {i}", sc.name);
        }
        let cross = db.cross_product_size(&q.tables).expect("cross product");
        assert!(card > 0, "{}: workload query {i} is empty", sc.name);
        truths.push(card as f64 / cross as f64);
        cards.push(card as f64);
    }

    let variants = VARIANTS
        .iter()
        .map(|v| {
            let pool = if v.pool_joins == 0 {
                &pool_j0
            } else {
                &pool_j2
            };
            let backend: Arc<dyn SelectivityBackend> = match v.backend {
                BackendKind::Diff => Arc::new(DiffBackend),
                BackendKind::Bn => Arc::new(BnBackend::new(Arc::clone(&bn))),
                BackendKind::Pessimistic => Arc::new(PessimisticBackend::new(Arc::clone(&sketch))),
            };
            measure_variant(sc, pool, v, &truths, &backend)
        })
        .collect();

    let accuracy = ScenarioAccuracy {
        scenario: sc.name.to_string(),
        fingerprint: sc.fingerprint,
        variants,
    };
    (accuracy, measure_bounds(sc, &sketch, &cards))
}

/// Audits the bound sketch against true cardinalities: soundness means
/// every ratio is `>= 1`; the aggregate ratios track tightness over time.
fn measure_bounds(sc: &OracleScenario, sketch: &BoundSketch, cards: &[f64]) -> BoundsScenario {
    let mut underestimates = 0u64;
    let mut ratios = Vec::with_capacity(cards.len());
    for (q, &card) in sc.queries.iter().zip(cards) {
        let bound = sketch
            .upper_bound(q)
            .expect("sketch was built from the scenario database");
        if bound < card {
            underestimates += 1;
        }
        ratios.push(bound / card);
    }
    ratios.sort_by(f64::total_cmp);
    BoundsScenario {
        scenario: sc.name.to_string(),
        fingerprint: sc.fingerprint,
        queries: cards.len(),
        underestimates,
        max_ratio: round6(*ratios.last().expect("non-empty workload")),
        median_ratio: round6(percentile(&ratios, 50.0)),
    }
}

fn measure_variant(
    sc: &OracleScenario,
    pool: &SitCatalog,
    spec: &VariantSpec,
    truths: &[f64],
    backend: &Arc<dyn SelectivityBackend>,
) -> VariantResult {
    let mut q_errors = Vec::with_capacity(truths.len());
    let mut rel_errors = Vec::with_capacity(truths.len());
    let mut non_full_samples = 0u64;
    for (q, &truth) in sc.queries.iter().zip(truths) {
        let dense = estimate(sc, pool, spec, q, DpStrategy::Dense, backend);
        let recursive = estimate(sc, pool, spec, q, DpStrategy::Recursive, backend);
        assert_eq!(
            dense.to_bits(),
            recursive.to_bits(),
            "{}/{}: DP engines diverged",
            sc.name,
            spec.name
        );
        // Third leg of the differential: the budgeted ladder with an
        // unlimited budget must answer at Full quality, bit-identical to
        // the direct estimator. Anything else is either a ladder bug or a
        // sign the measurement ran under a budget — the gate rejects it.
        let budgeted = budgeted_estimate(sc, pool, spec, q, backend);
        if budgeted.quality == Quality::Full {
            assert_eq!(
                budgeted.selectivity.to_bits(),
                dense.to_bits(),
                "{}/{}: budgeted Full answer diverged from the direct estimator",
                sc.name,
                spec.name
            );
        } else {
            non_full_samples += 1;
        }
        // q-error is undefined at 0; clamp the estimate to a subnormal
        // floor so a (wrong) zero estimate shows up as a huge-but-finite
        // q-error instead of poisoning the aggregate with inf.
        let est = dense.max(1e-300);
        q_errors.push((est / truth).max(truth / est));
        rel_errors.push((dense - truth).abs() / truth);
    }
    q_errors.sort_by(f64::total_cmp);
    rel_errors.sort_by(f64::total_cmp);
    VariantResult {
        variant: spec.name.to_string(),
        queries: truths.len(),
        median_q_error: round6(percentile(&q_errors, 50.0)),
        p95_q_error: round6(percentile(&q_errors, 95.0)),
        max_q_error: round6(*q_errors.last().expect("non-empty workload")),
        median_rel_error: round6(percentile(&rel_errors, 50.0)),
        p95_rel_error: round6(percentile(&rel_errors, 95.0)),
        non_full_samples,
    }
}

fn budgeted_estimate(
    sc: &OracleScenario,
    pool: &SitCatalog,
    spec: &VariantSpec,
    q: &sqe_engine::SpjQuery,
    backend: &Arc<dyn SelectivityBackend>,
) -> sqe_core::BudgetedEstimate {
    let mut ladder = Ladder::new(&sc.db, pool, spec.mode)
        .with_strategy(DpStrategy::Dense)
        .with_backend(Arc::clone(backend));
    if spec.pruned {
        ladder = ladder.with_sit_driven_pruning();
    }
    ladder.estimate(q, &Budget::unlimited())
}

fn estimate(
    sc: &OracleScenario,
    pool: &SitCatalog,
    spec: &VariantSpec,
    q: &sqe_engine::SpjQuery,
    strategy: DpStrategy,
    backend: &Arc<dyn SelectivityBackend>,
) -> f64 {
    let mut est = SelectivityEstimator::new(&sc.db, q, pool, spec.mode)
        .with_strategy(strategy)
        .with_backend(Arc::clone(backend));
    if spec.pruned {
        est = est.with_sit_driven_pruning();
    }
    let all = est.context().all();
    est.get_selectivity(all).0
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Rounds to six decimals so reports are byte-stable to serialize.
pub(crate) fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 95.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn rounding_is_stable_and_lossless_for_large_values() {
        assert_eq!(round6(0.123_456_789), 0.123_457);
        assert_eq!(round6(1e15), 1e15);
        let r = round6(2.0);
        assert_eq!(r.to_bits(), 2.0f64.to_bits());
    }
}
