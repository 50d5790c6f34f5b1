//! Differential tests for the pluggable atomic-estimate backends.
//!
//! The [`sqe::core::SelectivityBackend`] seam refactored the peel path of
//! every DP engine; this file holds the refactor to its two contracts:
//!
//! * **bit-identity of the default** — an estimator handed an explicit
//!   [`DiffBackend`] is indistinguishable from one built before the trait
//!   existed: same `(selectivity, error)` bits over the whole subset
//!   lattice *and* the same memo/peel/view-matching instrumentation,
//!   on the dense engine and the beam, under budget cancellation, and
//!   with failpoints armed;
//! * **engine-independence of every backend** — the BN backend intercepts
//!   peels, so the dense engine and the unbounded beam must still agree
//!   bit for bit with it installed;
//! * **soundness of the pessimistic backend** — `upper_bound` dominates
//!   the true cardinality on every seeded oracle scenario (truth from the
//!   independent [`ExactExecutor`]), including the dangling-FK scenario
//!   and mutation-drained databases.

use std::sync::Arc;

use proptest::prelude::*;

use sqe::core::failpoint::{self, Action};
use sqe::core::{
    BnBackend, BnCatalog, BoundSketch, BudgetMeter, DiffBackend, ExhaustReason, PessimisticBackend,
    SelectivityBackend,
};
use sqe::datagen::{generate_mutations, MutationConfig};
use sqe::engine::table::TableBuilder;
use sqe::oracle::{scenarios, ExactExecutor, OracleTier};
use sqe::prelude::*;

/// Strategy: a 4-table database with 2 columns each, narrow value domain so
/// joins match, histograms are non-trivial, and column pairs carry enough
/// spurious mutual information that the BN backend actually intercepts.
fn small_db() -> impl Strategy<Value = Database> {
    prop::collection::vec(prop::collection::vec(0i64..8, 2..14), 8).prop_map(|cols| {
        let mut db = Database::new();
        for (t, pair) in cols.chunks(2).enumerate() {
            let n = pair[0].len().min(pair[1].len());
            db.add_table(
                TableBuilder::new(format!("t{t}"))
                    .column("a", pair[0][..n].to_vec())
                    .column("b", pair[1][..n].to_vec())
                    .build()
                    .expect("consistent"),
            );
        }
        db
    })
}

/// Strategy: a predicate over the 4-table schema, biased toward filters so
/// same-table conjunctions (the BN interception shape) are common.
fn pred() -> impl Strategy<Value = Predicate> {
    let colref = (0u32..4, 0u16..2).prop_map(|(t, c)| ColRef::new(TableId(t), c));
    prop_oneof![
        (colref.clone(), 0i64..8, 0i64..8).prop_map(|(c, lo, hi)| Predicate::range(
            c,
            lo.min(hi),
            lo.max(hi)
        )),
        (colref.clone(), 0i64..8).prop_map(|(c, v)| Predicate::filter(c, CmpOp::Eq, v)),
        (colref.clone(), 0i64..8).prop_map(|(c, v)| Predicate::filter(c, CmpOp::Le, v)),
        (colref.clone(), colref.clone()).prop_filter_map("self-column join", |(l, r)| {
            (l.table != r.table).then(|| Predicate::join(l, r))
        }),
    ]
}

fn query() -> impl Strategy<Value = SpjQuery> {
    prop::collection::vec(pred(), 1..8).prop_filter_map("degenerate query", |mut preds| {
        preds.sort_unstable();
        preds.dedup();
        SpjQuery::from_predicates(preds).ok()
    })
}

/// Whole-lattice bits plus the instrumentation counters, with an optional
/// explicit backend (`None` = the default construction path).
fn lattice_with_stats(
    db: &Database,
    q: &SpjQuery,
    catalog: &SitCatalog,
    mode: ErrorMode,
    strategy: DpStrategy,
    pruning: bool,
    backend: Option<&Arc<dyn SelectivityBackend>>,
) -> (Vec<(u64, u64)>, (usize, usize, u64)) {
    let mut est = SelectivityEstimator::new(db, q, catalog, mode)
        .with_strategy(strategy)
        .with_beam_config(BeamConfig::UNBOUNDED);
    if let Some(b) = backend {
        est = est.with_backend(Arc::clone(b));
    }
    if pruning {
        est = est.with_sit_driven_pruning();
    }
    let n = q.predicates.len();
    let bits = (1u32..(1 << n))
        .map(|mask| {
            let (s, e) = est.get_selectivity(PredSet(mask));
            (s.to_bits(), e.to_bits())
        })
        .collect();
    let stats = est.stats();
    (
        bits,
        (stats.memo_entries, stats.peel_entries, stats.vm_calls),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole refactor's bit-identity contract: an explicit
    /// [`DiffBackend`] changes nothing — not the `(sel, err)` bits of any
    /// lattice mask, and not the memo/peel/view-matching counts — on the
    /// dense engine and the unbounded beam, either mode, with and without
    /// §3.4 pruning.
    #[test]
    fn explicit_diff_backend_is_bit_identical_to_default(
        db in small_db(),
        q in query(),
        pool_i in 0usize..3,
        pruning in any::<bool>(),
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(pool_i))
            .expect("pool build");
        let diff: Arc<dyn SelectivityBackend> = Arc::new(DiffBackend);
        for mode in [ErrorMode::NInd, ErrorMode::Diff] {
            for strategy in [DpStrategy::Auto, DpStrategy::Beam] {
                let (base_bits, base_stats) =
                    lattice_with_stats(&db, &q, &catalog, mode, strategy, pruning, None);
                let (bits, stats) =
                    lattice_with_stats(&db, &q, &catalog, mode, strategy, pruning, Some(&diff));
                prop_assert_eq!(&bits, &base_bits, "{:?} {:?}", strategy, mode);
                prop_assert_eq!(stats, base_stats, "{:?} {:?}", strategy, mode);
            }
        }
    }

    /// Same identity through the beam engine (full-set evaluation: the
    /// beam walk targets whole queries, not lattice probes).
    #[test]
    fn explicit_diff_backend_is_bit_identical_under_beam(
        db in small_db(),
        q in query(),
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1))
            .expect("pool build");
        for mode in [ErrorMode::NInd, ErrorMode::Diff] {
            let mut base = SelectivityEstimator::new(&db, &q, &catalog, mode)
                .with_strategy(DpStrategy::Beam);
            let want = base.get_selectivity(base.context().all());
            let mut est = SelectivityEstimator::new(&db, &q, &catalog, mode)
                .with_strategy(DpStrategy::Beam)
                .with_backend(Arc::new(DiffBackend));
            let got = est.get_selectivity(est.context().all());
            prop_assert_eq!(got.0.to_bits(), want.0.to_bits(), "{:?}", mode);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "{:?}", mode);
        }
    }

    /// A non-default backend must still be engine-independent: the BN
    /// backend intercepts filter peels, and the dense engine must agree
    /// with the unbounded beam bit for bit over the whole lattice with it
    /// installed.
    #[test]
    fn bn_backend_is_engine_and_schedule_independent(
        db in small_db(),
        q in query(),
        pruning in any::<bool>(),
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1))
            .expect("pool build");
        let bn: Arc<dyn SelectivityBackend> =
            Arc::new(BnBackend::new(Arc::new(BnCatalog::build(&db))));
        for mode in [ErrorMode::NInd, ErrorMode::Diff] {
            let (beam, _) =
                lattice_with_stats(&db, &q, &catalog, mode, DpStrategy::Beam, pruning, Some(&bn));
            let (dense, _) =
                lattice_with_stats(&db, &q, &catalog, mode, DpStrategy::Auto, pruning, Some(&bn));
            prop_assert_eq!(&dense, &beam, "bn dense vs unbounded beam, {:?}", mode);
        }
    }
}

/// Deterministic 12-predicate join chain with filters (the dense engine's
/// target regime): two filters per table so the BN backend has same-table
/// conditioning to intercept.
fn chain_db_and_query() -> (Database, SpjQuery) {
    let mut db = Database::new();
    for t in 0..5 {
        let vals: Vec<i64> = (0..24).map(|i| (i * 7 + t * 3) % 8).collect();
        let vals2: Vec<i64> = (0..24).map(|i| (i * 5 + t * 11) % 8).collect();
        db.add_table(
            TableBuilder::new(format!("t{t}"))
                .column("a", vals)
                .column("b", vals2)
                .build()
                .unwrap(),
        );
    }
    let c = |t: u32, col: u16| ColRef::new(TableId(t), col);
    let mut preds = vec![
        Predicate::join(c(0, 1), c(1, 0)),
        Predicate::join(c(1, 1), c(2, 0)),
        Predicate::join(c(2, 1), c(3, 0)),
        Predicate::join(c(3, 1), c(4, 0)),
    ];
    for t in 0..4u32 {
        preds.push(Predicate::filter(c(t, 0), CmpOp::Le, (t as i64) + 3));
        preds.push(Predicate::range(c(t, 1), 1, (t as i64) + 4));
    }
    let q = SpjQuery::from_predicates(preds).unwrap();
    assert_eq!(q.predicates.len(), 12);
    (db, q)
}

/// Armed failpoints do not break the backend seam's identity: whether or
/// not the injected panic fires, any completed answer from an
/// explicit-`DiffBackend` estimator carries the default path's exact bits,
/// and a fresh estimator after the chaos is unpolluted.
#[test]
fn diff_backend_identity_survives_armed_failpoints() {
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    let mut base = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff);
    let (ss, se) = base.get_selectivity(base.context().all());

    failpoint::arm_with("dp::solve_mask", Action::Panic, 64, None, 9);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut est = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
            .with_backend(Arc::new(DiffBackend));
        est.get_selectivity(est.context().all())
    }));
    failpoint::disarm("dp::solve_mask");
    if let Ok((s, e)) = outcome {
        assert_eq!(s.to_bits(), ss.to_bits(), "survived arm");
        assert_eq!(e.to_bits(), se.to_bits(), "survived arm");
    }
    let mut fresh = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_backend(Arc::new(DiffBackend));
    let (fs, fe) = fresh.get_selectivity(fresh.context().all());
    assert_eq!(fs.to_bits(), ss.to_bits(), "fresh after chaos");
    assert_eq!(fe.to_bits(), se.to_bits(), "fresh after chaos");
}

/// Budget cancellation through the backend seam: the explicit-`DiffBackend`
/// estimator charges exactly what the default one does, a quota of half
/// that charge trips it with `WorkQuota` (or it completes with the exact
/// bits at a fill boundary), and a fresh unlimited run afterward is
/// bit-identical.
#[test]
fn diff_backend_identity_survives_budget_cancellation() {
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    let mut base = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff);
    let (ss, se) = base.get_selectivity(base.context().all());

    // Measure the full cost through the backend-threaded path with a meter
    // that counts but never trips, then grant half: the meter charges must
    // be unchanged by the backend seam too.
    let mut measured = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_backend(Arc::new(DiffBackend))
        .with_budget_meter(BudgetMeter::new(None, None, None));
    measured
        .try_get_selectivity(measured.context().all())
        .expect("a meter without limits cannot trip");
    let mut baseline_measured = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_budget_meter(BudgetMeter::new(None, None, None));
    baseline_measured
        .try_get_selectivity(baseline_measured.context().all())
        .expect("a meter without limits cannot trip");
    let full = measured.stats().work;
    assert!(full > 1, "gauge counted {full} units");
    assert_eq!(
        full,
        baseline_measured.stats().work,
        "backend seam altered the work charge"
    );

    let quota = full / 2;
    let mut est = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_backend(Arc::new(DiffBackend))
        .with_budget_meter(BudgetMeter::new(None, Some(quota), None));
    match est.try_get_selectivity(est.context().all()) {
        Err(reason) => assert_eq!(reason, ExhaustReason::WorkQuota),
        Ok((s, e)) => {
            assert_eq!(s.to_bits(), ss.to_bits(), "boundary Ok must be exact");
            assert_eq!(e.to_bits(), se.to_bits(), "boundary Ok must be exact");
        }
    }
    let mut fresh = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_backend(Arc::new(DiffBackend));
    let (fs, fe) = fresh.get_selectivity(fresh.context().all());
    assert_eq!(fs.to_bits(), ss.to_bits());
    assert_eq!(fe.to_bits(), se.to_bits());
}

/// Soundness of the pessimistic backend on every seeded oracle scenario
/// (the full tier, so the dangling-FK scenario is included): the
/// guaranteed upper bound dominates the true cardinality of every workload
/// query, with truth from the independent [`ExactExecutor`].
#[test]
fn pessimistic_bound_dominates_truth_on_every_oracle_scenario() {
    for sc in scenarios(OracleTier::Full) {
        let sketch = BoundSketch::build(&sc.db);
        let backend = PessimisticBackend::new(Arc::new(sketch));
        let mut exact = ExactExecutor::new(&sc.db);
        for (i, q) in sc.queries.iter().enumerate() {
            let truth = exact.cardinality(&q.tables, &q.predicates) as f64;
            let bound = backend
                .upper_bound(q)
                .expect("sketch built from the scenario database");
            assert!(
                bound >= truth,
                "{} query {i}: bound {bound} < truth {truth}",
                sc.name
            );
        }
    }
}

/// Soundness survives mutation drain: replay each scenario family's seeded
/// delta stream to the end, rebuild the sketch over the drained database,
/// and the bound still dominates exact truth on the original workload
/// (whose queries now hit inserted, updated, and deleted rows).
#[test]
fn pessimistic_bound_dominates_truth_on_mutation_drained_catalogs() {
    for sc in scenarios(OracleTier::Smoke) {
        let stream = generate_mutations(
            &sc.db,
            MutationConfig {
                ops: 300,
                batch_size: 50,
                seed: 0xB0_07ED ^ sc.fingerprint,
                drift: 0.5,
            },
        );
        let drained = &stream.final_db;
        let sketch = BoundSketch::build(drained);
        let mut exact = ExactExecutor::new(drained);
        for (i, q) in sc.queries.iter().enumerate() {
            let truth = exact.cardinality(&q.tables, &q.predicates) as f64;
            let bound = sketch
                .upper_bound(q)
                .expect("sketch built from the drained database");
            assert!(
                bound >= truth,
                "{} drained, query {i}: bound {bound} < truth {truth}",
                sc.name
            );
        }
    }
}
