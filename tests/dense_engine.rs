//! Bit-identity of the dense subset-lattice DP engine against the
//! recursive engine (the invariant the estimator rewrite is built on):
//! for random databases, catalogs, and queries, both engines return the
//! exact same `(selectivity, error)` bits for **every** predicate subset,
//! under both error modes, with and without a cross-query shared cache.

use proptest::prelude::*;

use sqe::engine::table::TableBuilder;
use sqe::prelude::*;
use sqe::service::ShardedCache;

/// Strategy: a 4-table database with 2 columns each, narrow value domain so
/// joins match and histograms are non-trivial.
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

/// A query from random predicates (dropping duplicates, which `SpjQuery`
/// rejects-by-merge anyway and which would make subset indexing ambiguous).
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
    cache: Option<&ShardedCache>,
    pruning: bool,
) -> Vec<(u64, u64)> {
    let mut est = SelectivityEstimator::new(db, q, catalog, mode).with_strategy(strategy);
    if let Some(c) = cache {
        est = est.with_shared_cache(c);
    }
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

    /// Dense ≡ recursive, bit for bit, across the whole subset lattice,
    /// both error modes, with and without §3.4 pruning.
    #[test]
    fn dense_engine_is_bit_identical(
        db in small_db(),
        q in query(),
        pool_i in 0usize..3,
        pruning in any::<bool>(),
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(pool_i))
            .expect("pool build");
        for mode in [ErrorMode::NInd, ErrorMode::Diff] {
            let dense = lattice_bits(&db, &q, &catalog, mode, DpStrategy::Dense, None, pruning);
            let rec =
                lattice_bits(&db, &q, &catalog, mode, DpStrategy::Recursive, None, pruning);
            prop_assert_eq!(&dense, &rec, "mode {:?}", mode);
            // Auto must coincide with whichever engine it picked.
            let auto = lattice_bits(&db, &q, &catalog, mode, DpStrategy::Auto, None, pruning);
            prop_assert_eq!(&auto, &dense, "auto, mode {:?}", mode);
        }
    }

    /// Same identity through a shared cross-query cache: values are pure
    /// functions of their keys, so cache warm-up from either engine (or
    /// both, interleaved) never perturbs results.
    #[test]
    fn dense_engine_is_bit_identical_with_shared_cache(
        db in small_db(),
        q in query(),
        pool_i in 0usize..3,
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(pool_i))
            .expect("pool build");
        for mode in [ErrorMode::NInd, ErrorMode::Diff] {
            let baseline = lattice_bits(&db, &q, &catalog, mode, DpStrategy::Recursive, None, false);
            // One shared cache, warmed by the recursive engine, then read by
            // the dense engine — and a fresh cache hit cold by dense.
            let cache = ShardedCache::new(4, 1024);
            let warm =
                lattice_bits(&db, &q, &catalog, mode, DpStrategy::Recursive, Some(&cache), false);
            let dense_warm =
                lattice_bits(&db, &q, &catalog, mode, DpStrategy::Dense, Some(&cache), false);
            let cold = ShardedCache::new(4, 1024);
            let dense_cold =
                lattice_bits(&db, &q, &catalog, mode, DpStrategy::Dense, Some(&cold), false);
            prop_assert_eq!(&warm, &baseline, "recursive+cache, mode {:?}", mode);
            prop_assert_eq!(&dense_warm, &baseline, "dense on warm cache, mode {:?}", mode);
            prop_assert_eq!(&dense_cold, &baseline, "dense on cold cache, mode {:?}", mode);
        }
    }
}

/// Deterministic 12-predicate join chain with filters: a 4096-mask
/// lattice, the regime the dense engine targets.
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

/// Deterministic larger case (n = 12): a join chain with filters, too slow
/// to random-sample under proptest but exactly the regime the dense engine
/// targets.
#[test]
fn dense_engine_matches_recursive_at_n12() {
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    for mode in [ErrorMode::NInd, ErrorMode::Diff] {
        let mut dense =
            SelectivityEstimator::new(&db, &q, &catalog, mode).with_strategy(DpStrategy::Dense);
        let mut rec =
            SelectivityEstimator::new(&db, &q, &catalog, mode).with_strategy(DpStrategy::Recursive);
        let (sd, ed) = dense.get_selectivity(dense.context().all());
        let (sr, er) = rec.get_selectivity(rec.context().all());
        assert_eq!(sd.to_bits(), sr.to_bits(), "sel, mode {mode:?}");
        assert_eq!(ed.to_bits(), er.to_bits(), "err, mode {mode:?}");
        assert_eq!(
            dense.stats().memo_entries,
            rec.stats().memo_entries,
            "both engines visit the identical state set"
        );
        assert_eq!(dense.stats().peel_entries, rec.stats().peel_entries);
    }
}
