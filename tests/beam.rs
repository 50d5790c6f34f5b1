//! Beam-search engine guarantees: at unbounded width the beam engine is
//! **bit-identical** to the exact recursive engine — values *and*
//! instrumentation (memo / peel / view-matching counts) — across the whole
//! subset lattice and under budget cancellation (the armed-failpoint case
//! lives in `tests/chaos.rs`);
//! at bounded width it answers in range and reports its work through
//! [`BeamStats`]; and the acceptance headline — a seeded 32-predicate
//! query answers with [`Quality::Beam`] under the service's **default
//! deadline** instead of falling off the exact engines' `O(3ⁿ)` cliff.

use std::sync::Arc;
use std::time::Instant;

use proptest::prelude::*;

use sqe::core::BudgetMeter;
use sqe::engine::table::TableBuilder;
use sqe::prelude::*;
use sqe::service::{EstimationService, ServiceConfig};

/// Strategy: a 4-table database with 2 columns each, narrow value domain so
/// joins match and histograms are non-trivial (tests/dense_engine.rs's
/// generator, reused so the beam anchor covers the same query space).
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

/// Strategy: a predicate over the 4-table schema.
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

/// A query from random predicates (dropping duplicates, which would make
/// subset indexing ambiguous).
fn query() -> impl Strategy<Value = SpjQuery> {
    prop::collection::vec(pred(), 1..8).prop_filter_map("degenerate query", |mut preds| {
        preds.sort_unstable();
        preds.dedup();
        SpjQuery::from_predicates(preds).ok()
    })
}

/// Runs one engine over every non-empty subset of the query, returning the
/// raw bits of each `(sel, err)`.
fn lattice_bits(
    db: &Database,
    q: &SpjQuery,
    catalog: &SitCatalog,
    mode: ErrorMode,
    strategy: DpStrategy,
    beam: BeamConfig,
    pruning: bool,
) -> Vec<(u64, u64)> {
    let mut est = SelectivityEstimator::new(db, q, catalog, mode)
        .with_strategy(strategy)
        .with_beam_config(beam);
    if pruning {
        est = est.with_sit_driven_pruning();
    }
    let n = q.predicates.len();
    (1u32..(1 << n))
        .map(|mask| {
            let (s, e) = est.get_selectivity(PredSet(mask));
            (s.to_bits(), e.to_bits())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Beam at unbounded width ≡ recursive, bit for bit, across the whole
    /// subset lattice, both error modes, with and without §3.4 pruning —
    /// plus identical instrumentation on a full-set evaluation (memo
    /// states, peel links, view-matching calls), so the unbounded beam
    /// visits exactly the exact engine's state set, in its order.
    #[test]
    fn unbounded_beam_is_bit_identical_to_recursive(
        db in small_db(),
        q in query(),
        pool_i in 0usize..3,
        pruning in any::<bool>(),
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(pool_i))
            .expect("pool build");
        for mode in [ErrorMode::NInd, ErrorMode::Diff] {
            let beam = lattice_bits(
                &db, &q, &catalog, mode, DpStrategy::Beam, BeamConfig::UNBOUNDED, pruning,
            );
            let rec = lattice_bits(
                &db, &q, &catalog, mode, DpStrategy::Recursive, BeamConfig::UNBOUNDED, pruning,
            );
            prop_assert_eq!(&beam, &rec, "mode {:?}", mode);

            // Instrumentation identity on a fresh full-set evaluation.
            let mut b_est = SelectivityEstimator::new(&db, &q, &catalog, mode)
                .with_strategy(DpStrategy::Beam)
                .with_beam_config(BeamConfig::UNBOUNDED);
            let _ = b_est.get_selectivity(b_est.context().all());
            let mut r_est = SelectivityEstimator::new(&db, &q, &catalog, mode)
                .with_strategy(DpStrategy::Recursive);
            let _ = r_est.get_selectivity(r_est.context().all());
            prop_assert_eq!(b_est.stats().memo_entries, r_est.stats().memo_entries);
            prop_assert_eq!(b_est.stats().peel_entries, r_est.stats().peel_entries);
            prop_assert_eq!(b_est.stats().vm_calls, r_est.stats().vm_calls);
        }
    }

    /// The dense engine agrees too: unbounded beam ≡ dense values on the
    /// lattice, so all three engines pin one another.
    #[test]
    fn unbounded_beam_matches_dense_values(
        db in small_db(),
        q in query(),
        pruning in any::<bool>(),
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1))
            .expect("pool build");
        let beam = lattice_bits(
            &db, &q, &catalog, ErrorMode::Diff, DpStrategy::Beam, BeamConfig::UNBOUNDED, pruning,
        );
        let dense = lattice_bits(
            &db, &q, &catalog, ErrorMode::Diff, DpStrategy::Dense, BeamConfig::UNBOUNDED, pruning,
        );
        prop_assert_eq!(&beam, &dense);
    }

    /// Bounded beam stays honest on random queries: every lattice answer
    /// is a finite selectivity in `[0, 1]` with a non-negative error, at
    /// the default width and at the narrowest one.
    #[test]
    fn bounded_beam_answers_stay_in_range(
        db in small_db(),
        q in query(),
        width in 0usize..3,
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1))
            .expect("pool build");
        let cfg = BeamConfig { width, expansions_cap: 64 };
        let mut est = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
            .with_strategy(DpStrategy::Beam)
            .with_beam_config(cfg);
        let n = q.predicates.len();
        for mask in 1u32..(1 << n) {
            let (s, e) = est.get_selectivity(PredSet(mask));
            prop_assert!(s.is_finite() && (0.0..=1.0).contains(&s), "sel {} at {:#b}", s, mask);
            prop_assert!(e >= 0.0, "err {} at {:#b}", e, mask);
        }
    }
}

/// Deterministic 12-predicate join chain with filters (the dense-engine
/// regression case, reused as the beam anchor at a width the proptest
/// generator cannot reach).
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

/// n = 12 deterministic anchor: unbounded beam ≡ recursive on values and
/// every instrumentation counter; the bounded default-width beam answers
/// in range and its [`BeamStats`] account for the pruning it did.
#[test]
fn beam_matches_recursive_at_n12_and_reports_bounded_work() {
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    for mode in [ErrorMode::NInd, ErrorMode::Diff] {
        let mut rec =
            SelectivityEstimator::new(&db, &q, &catalog, mode).with_strategy(DpStrategy::Recursive);
        let (sr, er) = rec.get_selectivity(rec.context().all());

        let mut unbounded = SelectivityEstimator::new(&db, &q, &catalog, mode)
            .with_strategy(DpStrategy::Beam)
            .with_beam_config(BeamConfig::UNBOUNDED);
        assert!(unbounded.is_beam());
        let (su, eu) = unbounded.get_selectivity(unbounded.context().all());
        assert_eq!(su.to_bits(), sr.to_bits(), "sel, mode {mode:?}");
        assert_eq!(eu.to_bits(), er.to_bits(), "err, mode {mode:?}");
        assert_eq!(unbounded.stats().memo_entries, rec.stats().memo_entries);
        assert_eq!(unbounded.stats().peel_entries, rec.stats().peel_entries);
        assert_eq!(unbounded.stats().vm_calls, rec.stats().vm_calls);
        let st = unbounded.beam_stats();
        assert!(st.expansions > 0, "the full set is non-separable");
        assert_eq!(st.pruned, 0, "unbounded width never drops a candidate");
        assert_eq!(st.cap_fallbacks, 0);

        // Bounded beam: in-range answer, strictly less exploration, and
        // observable selection pressure.
        let mut bounded = SelectivityEstimator::new(&db, &q, &catalog, mode)
            .with_strategy(DpStrategy::Beam)
            .with_beam_config(BeamConfig::default());
        let (sb, eb) = bounded.get_selectivity(bounded.context().all());
        assert!(sb.is_finite() && (0.0..=1.0).contains(&sb));
        assert!(eb.is_finite() && eb >= 0.0);
        let bs = bounded.beam_stats().clone();
        assert!(bs.expansions > 0);
        assert!(bs.generated >= bs.scored, "pruning only removes candidates");
        assert!(
            bounded.stats().memo_entries <= unbounded.stats().memo_entries,
            "the bounded frontier visits a subset of the exact state space"
        );
        if let Some(t) = bs.bound_tightness() {
            assert!((0.0..=1.0).contains(&t), "tightness {t} out of range");
        }
    }
}

/// Mid-walk budget cancellation: a quota sized to trip halfway through
/// makes the beam engine abort with the sticky reason (committing nothing
/// wrong), and an `Ok` at the boundary is accepted iff bit-exact.
#[test]
fn beam_budget_trip_aborts_cleanly() {
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    let mut serial = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_strategy(DpStrategy::Recursive);
    let (ss, se) = serial.get_selectivity(serial.context().all());

    // Measure the full cost under the beam engine, then grant half.
    let gauge = Arc::new(BudgetMeter::start(&Budget::unlimited()));
    let mut measured = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_strategy(DpStrategy::Beam)
        .with_beam_config(BeamConfig::UNBOUNDED)
        .with_budget_meter(Arc::clone(&gauge));
    measured
        .try_get_selectivity(measured.context().all())
        .expect("unlimited meter cannot trip");
    let quota = (gauge.spent() / 2).max(1);

    let tight = Arc::new(BudgetMeter::start(&Budget::unlimited().with_quota(quota)));
    let mut beam = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_strategy(DpStrategy::Beam)
        .with_beam_config(BeamConfig::UNBOUNDED)
        .with_budget_meter(Arc::clone(&tight));
    match beam.try_get_selectivity(beam.context().all()) {
        Err(_) => {
            assert!(tight.tripped().is_some(), "error implies a tripped meter");
        }
        Ok((s, e)) => {
            assert_eq!(s.to_bits(), ss.to_bits(), "boundary Ok must be exact");
            assert_eq!(e.to_bits(), se.to_bits(), "boundary Ok must be exact");
        }
    }

    // The aborted walk committed nothing it shouldn't have.
    let mut fresh = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_strategy(DpStrategy::Beam)
        .with_beam_config(BeamConfig::UNBOUNDED);
    let (fs, fe) = fresh.get_selectivity(fresh.context().all());
    assert_eq!(fs.to_bits(), ss.to_bits());
    assert_eq!(fe.to_bits(), se.to_bits());
}

/// **Acceptance headline.** A seeded 32-predicate query (7 joins + 25
/// filters over the snowflake) answered through the service's budgeted
/// endpoint under [`EstimationService::default_budget`] — the default
/// deadline — returns [`Quality::Beam`] with no degradation: the Auto
/// strategy routes the width to the beam engine and the beam finishes
/// inside its rung's slice of the deadline, where the exact engines'
/// `O(3ⁿ)` walk would blow through it by orders of magnitude.
#[test]
fn seeded_n32_query_answers_beam_under_default_deadline() {
    let sf = Snowflake::generate(SnowflakeConfig {
        scale: 0.002,
        min_rows: 100,
        ..Default::default()
    });
    let wl = generate_workload(
        &sf.db,
        &sf.join_edges,
        &sf.filter_columns,
        WorkloadConfig {
            queries: 1,
            joins: 7,
            filters: 25,
            target_selectivity: 0.5,
            seed: 0xBEE5,
        },
    );
    let query = &wl[0];
    assert_eq!(query.predicates.len(), 32);

    let pool = build_pool(&sf.db, &wl, PoolSpec::ji(2)).unwrap();
    let db = Arc::new(sf.db);
    let svc = EstimationService::new(db, pool, ServiceConfig::default());

    let start = Instant::now();
    let got = svc
        .estimate_with_budget(query, &svc.default_budget())
        .expect("no admission pressure from a single caller");
    let elapsed = start.elapsed();

    assert_eq!(
        got.quality,
        Quality::Beam,
        "n = 32 must route to the beam engine and finish its rung \
         (degraded to {:?} after {elapsed:?})",
        got.degraded_reason
    );
    assert_eq!(got.degraded_reason, None, "no rung was abandoned");
    assert!(
        got.selectivity.is_finite() && (0.0..=1.0).contains(&got.selectivity),
        "selectivity {}",
        got.selectivity
    );
    assert!(got.cardinality >= 0.0 && got.cardinality.is_finite());
    // Wall-clock sanity: rung deadlines are slices of the 250 ms default
    // budget plus bounded epilogues; anything near the exact engines'
    // runtime means the deadline was ignored.
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "beam answer took {elapsed:?}"
    );
}
