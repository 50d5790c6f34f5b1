//! Beam-search error envelope: the approximate engine measured against
//! truth on the wide scenario family.
//!
//! The beam engine answers widths the exact engines cannot afford — but at
//! widths the exact engines *can* still handle (`n ≤ 16`), its error is
//! measurable against both the oracle truth and the exact `getSelectivity`
//! answer. This module sweeps [`BeamConfig::width`] over each wide
//! scenario and records, per width, the beam-vs-truth q-error aggregates
//! plus the worst per-query ratio of beam q-error to exact q-error — the
//! *envelope* CI gates against the committed baseline (see
//! [`crate::gate`]), so a regression in the beam's candidate generation or
//! selection shows up as a gate failure, not a silent accuracy drift at
//! the widths nobody can double-check.

use sqe_core::{build_pool, BeamConfig, DpStrategy, ErrorMode, PoolSpec, SelectivityEstimator};
use sqe_engine::CardinalityOracle;

use crate::accuracy::{percentile, round6};
use crate::workload::{scenarios, OracleScenario, OracleTier};

/// The width sweep every wide scenario is measured at. Includes the
/// default width and both cheaper and pricier settings so the committed
/// envelope shows the knob's whole accuracy curve.
pub const BEAM_WIDTHS: &[usize] = &[1, 2, 4, 8];

/// One beam width's accuracy on one wide scenario.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BeamEnvelopePoint {
    /// [`BeamConfig::width`] this point was measured at.
    pub width: usize,
    /// [`BeamConfig::expansions_cap`] in force (the default cap).
    pub expansions_cap: u64,
    /// Median beam-vs-truth q-error, nearest rank.
    pub median_q_error: f64,
    /// 95th-percentile beam-vs-truth q-error, nearest rank.
    pub p95_q_error: f64,
    /// Worst beam-vs-truth q-error in the scenario.
    pub max_q_error: f64,
    /// Worst per-query `beam q-error / exact q-error` — how much the
    /// bounded frontier gives up against the full DP on the same query,
    /// at the query where it gives up the most.
    pub max_q_ratio_vs_exact: f64,
}

/// The beam envelope of one wide scenario: the exact engine's reference
/// accuracy plus one [`BeamEnvelopePoint`] per swept width.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BeamEnvelopeScenario {
    /// Scenario name from [`crate::workload`].
    pub scenario: String,
    /// Database fingerprint; the gate refuses to compare runs that
    /// measured different data.
    pub fingerprint: u64,
    /// Predicates per query (uniform within a wide scenario).
    pub n: usize,
    /// Number of queries measured.
    pub queries: usize,
    /// Median exact-vs-truth q-error (the reference the ratio column is
    /// against), nearest rank.
    pub exact_median_q_error: f64,
    /// Worst exact-vs-truth q-error in the scenario.
    pub exact_max_q_error: f64,
    /// One entry per entry of [`BEAM_WIDTHS`], ascending.
    pub points: Vec<BeamEnvelopePoint>,
}

/// Measures the beam envelope for every wide scenario of the tier (the
/// scenarios whose name starts with `wide-`; only those carry widths
/// where the beam's bounded frontier actually bites).
pub fn measure_beam_envelope(tier: OracleTier) -> Vec<BeamEnvelopeScenario> {
    scenarios(tier)
        .iter()
        .filter(|s| s.name.starts_with("wide-"))
        .map(measure_scenario)
        .collect()
}

fn measure_scenario(sc: &OracleScenario) -> BeamEnvelopeScenario {
    let pool = build_pool(&sc.db, &sc.queries, PoolSpec::ji(2)).expect("J2 pool");
    let n = sc.queries[0].predicates.len();
    assert!(
        sc.queries.iter().all(|q| q.predicates.len() == n),
        "{}: wide scenarios are uniform-width",
        sc.name
    );

    let mut oracle = CardinalityOracle::new(&sc.db);
    let truths: Vec<f64> = sc
        .queries
        .iter()
        .map(|q| {
            let card = oracle
                .cardinality(&q.tables, &q.predicates)
                .expect("oracle cardinality");
            let cross = sc.db.cross_product_size(&q.tables).expect("cross product");
            assert!(card > 0, "{}: workload query is empty", sc.name);
            card as f64 / cross as f64
        })
        .collect();

    // Exact reference: the full DP in the paper's best practical mode.
    let exact_q: Vec<f64> = sc
        .queries
        .iter()
        .zip(&truths)
        .map(|(q, &truth)| {
            let mut est = SelectivityEstimator::new(&sc.db, q, &pool, ErrorMode::Diff);
            let all = est.context().all();
            q_error(est.get_selectivity(all).0, truth)
        })
        .collect();
    let mut exact_sorted = exact_q.clone();
    exact_sorted.sort_by(f64::total_cmp);

    let cap = BeamConfig::default().expansions_cap;
    let points = BEAM_WIDTHS
        .iter()
        .map(|&width| {
            let cfg = BeamConfig {
                width,
                expansions_cap: cap,
            };
            let mut beam_q = Vec::with_capacity(truths.len());
            let mut max_ratio = 0.0f64;
            for ((q, &truth), &eq) in sc.queries.iter().zip(&truths).zip(&exact_q) {
                let mut est = SelectivityEstimator::new(&sc.db, q, &pool, ErrorMode::Diff)
                    .with_strategy(DpStrategy::Beam)
                    .with_beam_config(cfg);
                let all = est.context().all();
                let bq = q_error(est.get_selectivity(all).0, truth);
                max_ratio = max_ratio.max(bq / eq);
                beam_q.push(bq);
            }
            beam_q.sort_by(f64::total_cmp);
            BeamEnvelopePoint {
                width,
                expansions_cap: cap,
                median_q_error: round6(percentile(&beam_q, 50.0)),
                p95_q_error: round6(percentile(&beam_q, 95.0)),
                max_q_error: round6(*beam_q.last().expect("non-empty workload")),
                max_q_ratio_vs_exact: round6(max_ratio),
            }
        })
        .collect();

    BeamEnvelopeScenario {
        scenario: sc.name.to_string(),
        fingerprint: sc.fingerprint,
        n,
        queries: truths.len(),
        exact_median_q_error: round6(percentile(&exact_sorted, 50.0)),
        exact_max_q_error: round6(*exact_sorted.last().expect("non-empty")),
        points,
    }
}

/// `max(est/true, true/est)` with the zero-estimate clamp of
/// [`crate::accuracy`].
fn q_error(est: f64, truth: f64) -> f64 {
    let est = est.max(1e-300);
    (est / truth).max(truth / est)
}
