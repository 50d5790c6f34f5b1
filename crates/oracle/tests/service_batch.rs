//! Pins `estimate_batch` against a fresh single-threaded
//! [`SelectivityEstimator`] over the same catalog, field by field, and
//! against oracle ground truth.

use std::sync::Arc;

use sqe_core::{build_pool, ErrorMode, PoolSpec, SelectivityEstimator};
use sqe_engine::CardinalityOracle;
use sqe_oracle::{scenarios, OracleTier};
use sqe_service::{EstimationService, ServiceConfig};

#[test]
fn batch_matches_a_fresh_single_threaded_estimator_and_oracle_truth() {
    let sc = scenarios(OracleTier::Smoke)
        .into_iter()
        .next()
        .expect("baseline scenario exists");
    let catalog = build_pool(&sc.db, &sc.queries, PoolSpec::ji(2)).expect("J2 pool");
    let db = Arc::new(sc.db);
    // The default service runs `ErrorMode::Diff`, the mode compared below.
    let service =
        EstimationService::new(Arc::clone(&db), catalog.clone(), ServiceConfig::default());
    let estimates = service.estimate_batch(&sc.queries);

    let mut oracle = CardinalityOracle::new(&db);
    for (q, est) in sc.queries.iter().zip(&estimates) {
        // Bit-identical to a from-scratch estimator over the same catalog:
        // the service's sharing layers must not perturb the math.
        let mut solo = SelectivityEstimator::new(&db, q, &catalog, ErrorMode::Diff);
        let all = solo.context().all();
        let (sel, err) = solo.get_selectivity(all);
        assert_eq!(est.selectivity.to_bits(), sel.to_bits());
        assert_eq!(est.error.to_bits(), err.to_bits());
        assert_eq!(est.cardinality.to_bits(), solo.cardinality(all).to_bits());
        assert_eq!(est.epoch, 0, "fresh service answers from epoch 0");

        // Sane against ground truth: on this tiny seeded scenario the
        // J2 Diff estimator stays within a generous q-error envelope.
        let truth = oracle
            .cardinality(&q.tables, &q.predicates)
            .expect("oracle cardinality") as f64;
        assert!(
            truth > 0.0,
            "workload queries are non-empty by construction"
        );
        let q_error =
            (est.cardinality.max(1e-300) / truth).max(truth / est.cardinality.max(1e-300));
        assert!(
            q_error < 50.0,
            "estimate {} vs truth {truth}: q-error {q_error}",
            est.cardinality
        );
    }
}
