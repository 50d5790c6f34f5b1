//! Integration tests for the `sqe-service` estimation service: concurrent
//! estimates must be **bit-identical** to a fresh single-threaded
//! [`SelectivityEstimator`] over the same catalog, cold and warm, and the
//! cache-key canonicalization must be injective on distinct
//! `(predicate set, error mode)` inputs.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::Arc;

use proptest::prelude::*;

use sqe::core::cache::CacheKey;
use sqe::core::{
    build_pool_threaded, DeltaConfig, IngestReport, LiveCatalog, PoolSpec, SitOptions,
};
use sqe::datagen::{generate_mutations, MutationConfig};
use sqe::prelude::*;
use sqe::service::{EstimationService, ServiceConfig};

fn service_setup(mode: ErrorMode) -> (Arc<Database>, Vec<SpjQuery>, EstimationService) {
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
            queries: 12,
            joins: 3,
            ..Default::default()
        },
    );
    let pool = build_pool(&sf.db, &wl, PoolSpec::ji(2)).unwrap();
    let db = Arc::new(sf.db);
    let svc = EstimationService::new(
        Arc::clone(&db),
        pool,
        ServiceConfig {
            mode,
            ..ServiceConfig::default()
        },
    );
    (db, wl, svc)
}

/// Reference results from fresh single-threaded estimators, one per query.
fn reference(db: &Database, wl: &[SpjQuery], catalog: &SitCatalog, mode: ErrorMode) -> Vec<u64> {
    wl.iter()
        .map(|q| {
            let mut est = SelectivityEstimator::new(db, q, catalog, mode);
            est.selectivity().to_bits()
        })
        .collect()
}

/// 8 threads stream the whole workload through the service concurrently;
/// every returned selectivity is compared bit-for-bit against the fresh
/// single-threaded estimator. Runs twice without resetting the service, so
/// the second round exercises the warm (query + link) cache.
#[test]
fn eight_threads_match_single_threaded_bit_for_bit_cold_and_warm() {
    for mode in [ErrorMode::NInd, ErrorMode::Diff] {
        let (db, wl, svc) = service_setup(mode);
        let expected = reference(&db, &wl, svc.snapshot().sits(), mode);

        for round in ["cold", "warm"] {
            std::thread::scope(|s| {
                for t in 0..8 {
                    let (svc, wl, expected) = (&svc, &wl, &expected);
                    s.spawn(move || {
                        // Each thread walks the stream from a different
                        // offset so threads interleave distinct queries.
                        for i in 0..wl.len() {
                            let j = (i + t * 3) % wl.len();
                            let got = svc.estimate(&wl[j]);
                            assert_eq!(
                                got.selectivity.to_bits(),
                                expected[j],
                                "{mode:?}/{round}: query {j} diverged from single-threaded"
                            );
                        }
                    });
                }
            });
        }
        let stats = svc.stats();
        assert_eq!(stats.estimates, 2 * 8 * wl.len() as u64);
        assert!(
            stats.query_cache_hits > 0,
            "warm round must hit the whole-query cache"
        );
    }
}

/// Batches against a warm cache agree with per-query estimates and with the
/// single-threaded reference.
#[test]
fn warm_batches_are_bit_identical_too() {
    let (db, wl, svc) = service_setup(ErrorMode::Diff);
    let expected = reference(&db, &wl, svc.snapshot().sits(), ErrorMode::Diff);
    let cold: Vec<_> = svc.estimate_batch(&wl);
    let warm: Vec<_> = svc.estimate_batch(&wl);
    for ((c, w), e) in cold.iter().zip(&warm).zip(&expected) {
        assert_eq!(c.selectivity.to_bits(), *e);
        assert_eq!(w.selectivity.to_bits(), *e);
        assert!(w.cached);
    }
}

/// The parallel pool build feeding the service is itself bit-identical to a
/// sequential build, so a service rebuilt on N threads answers exactly like
/// one built on 1 thread.
#[test]
fn service_over_parallel_pool_matches_sequential_pool() {
    let (db, wl, _) = service_setup(ErrorMode::Diff);
    let seq = build_pool_threaded(
        &db,
        &wl,
        PoolSpec::ji(2),
        SitOptions::default(),
        NonZeroUsize::new(1).unwrap(),
    )
    .unwrap();
    let par = build_pool_threaded(
        &db,
        &wl,
        PoolSpec::ji(2),
        SitOptions::default(),
        NonZeroUsize::new(8).unwrap(),
    )
    .unwrap();
    let expected = reference(&db, &wl, &seq, ErrorMode::Diff);
    let svc = EstimationService::new(Arc::clone(&db), par, ServiceConfig::default());
    for (q, e) in wl.iter().zip(&expected) {
        assert_eq!(svc.estimate(q).selectivity.to_bits(), *e);
    }
}

/// The value fields of an [`sqe::service::Estimate`] as raw bits — every
/// deterministic field, i.e. all but the scheduling-dependent `cached` flag.
fn estimate_bits(e: &sqe::service::Estimate) -> (u64, u64, u64, u64) {
    (
        e.selectivity.to_bits(),
        e.error.to_bits(),
        e.cardinality.to_bits(),
        e.epoch,
    )
}

/// A catalog `install` landing mid-batch must not tear a batch: the batch
/// pinned its snapshot up front, so every estimate reports one epoch and
/// the same bits as a quiet-service batch. The installer is
/// un-synchronized (whichever side wins, the invariants hold — both
/// epochs carry the identical catalog here, so bit-identity to the
/// reference is checkable in every interleaving).
#[test]
fn install_landing_mid_batch_never_tears_a_batch() {
    let (db, wl, _) = service_setup(ErrorMode::Diff);
    let pool = || build_pool(&db, &wl, PoolSpec::ji(2)).unwrap();
    let fresh = || EstimationService::new(Arc::clone(&db), pool(), ServiceConfig::default());
    let expected: Vec<_> = fresh()
        .estimate_batch(&wl)
        .iter()
        .map(estimate_bits)
        .collect();
    let svc = fresh();
    let batch = std::thread::scope(|s| {
        let batch = s.spawn(|| svc.estimate_batch(&wl));
        s.spawn(|| svc.install(pool(), None));
        batch.join().expect("batch thread")
    });
    let epoch = batch[0].epoch;
    for (got, want) in batch.iter().zip(&expected) {
        assert_eq!(got.epoch, epoch, "one snapshot answers the whole batch");
        assert_eq!(
            (
                got.selectivity.to_bits(),
                got.error.to_bits(),
                got.cardinality.to_bits()
            ),
            (want.0, want.1, want.2)
        );
    }
}

/// Concurrent estimates racing `partial_install` must never observe a
/// half-installed catalog: every estimate pins one snapshot, and its value
/// bits must match the single-threaded reference for exactly the catalog
/// generation its epoch names. An installer thread flips the service
/// between two fully-known states — the seed catalog (A) and a
/// delta-maintained catalog over a mutated database (B) — while worker
/// threads stream the workload; a torn install (epoch bumped before the
/// catalog/db/cache swap, or a stale cache entry surviving into the wrong
/// generation) would surface as an estimate whose bits belong to neither
/// state, or to the wrong state for its epoch.
#[test]
fn estimates_racing_partial_install_never_see_a_half_installed_catalog() {
    use sqe::core::SitId;
    use std::collections::BTreeSet;

    let (db, wl, svc) = service_setup(ErrorMode::Diff);
    let catalog_a = build_pool(&db, &wl, PoolSpec::ji(2)).unwrap();
    let expected_a = reference(&db, &wl, &catalog_a, ErrorMode::Diff);

    // State B: replay a seeded mutation stream through a live catalog,
    // then force-refresh so B is exactly the cold build over the mutated
    // database. The synthetic install report carries the union of touched
    // tables and every SIT whose histogram ever changed, so the cache
    // carry-over is valid in both install directions (A -> B and B -> A).
    let stream = generate_mutations(
        &db,
        MutationConfig {
            ops: 300,
            batch_size: 50,
            seed: 0x9E10_C4EC,
            drift: 1.5,
        },
    );
    let mut live = LiveCatalog::new((*db).clone(), catalog_a.clone(), DeltaConfig::default());
    let mut touched = BTreeSet::new();
    let mut stale: BTreeSet<SitId> = BTreeSet::new();
    let mut ops = 0usize;
    for batch in &stream.batches {
        let r = live.ingest(batch).unwrap();
        touched.extend(r.tables_touched.iter().copied());
        stale.extend(r.sits_refreshed.iter().copied());
        stale.extend(r.sits_merged.iter().copied());
        ops += r.ops_applied;
    }
    stale.extend(live.refresh_all().unwrap());
    let db_b = Arc::new(live.db().clone());
    let catalog_b = live.catalog().clone();
    let expected_b = reference(&db_b, &wl, &catalog_b, ErrorMode::Diff);
    assert_ne!(
        expected_a, expected_b,
        "the stream must actually change some estimates or the race proves nothing"
    );
    let report = IngestReport {
        ops_applied: ops,
        tables_touched: touched.into_iter().collect(),
        sits_refreshed: stale.into_iter().collect(),
        ..IngestReport::default()
    };

    // Epoch 0 is state A; the installer alternates B, A, B, ... so odd
    // epochs are B and even epochs are A.
    const INSTALLS: usize = 6;
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..INSTALLS {
                if i % 2 == 0 {
                    svc.partial_install(Arc::clone(&db_b), catalog_b.clone(), None, &report);
                } else {
                    svc.partial_install(Arc::clone(&db), catalog_a.clone(), None, &report);
                }
            }
        });
        for _ in 0..4 {
            let (svc, wl, expected_a, expected_b) = (&svc, &wl, &expected_a, &expected_b);
            s.spawn(move || {
                for _pass in 0..4 {
                    for (j, q) in wl.iter().enumerate() {
                        let got = svc.estimate(q);
                        let want = if got.epoch % 2 == 0 {
                            expected_a[j]
                        } else {
                            expected_b[j]
                        };
                        assert_eq!(
                            got.selectivity.to_bits(),
                            want,
                            "query {j} at epoch {}: bits belong to the wrong catalog \
                             generation — the snapshot was torn",
                            got.epoch
                        );
                    }
                }
            });
        }
    });
    assert_eq!(svc.snapshot().epoch(), INSTALLS as u64);
    assert_eq!(svc.stats().ingest.partial_installs, INSTALLS as u64);
}

/// A fixed universe of distinct predicates over a 3-table schema; subsets
/// of it play the role of `PredSet`s in the injectivity property.
fn predicate_universe() -> Vec<Predicate> {
    let c = |t: u32, col: u16| ColRef::new(TableId(t), col);
    vec![
        Predicate::filter(c(0, 0), CmpOp::Eq, 1),
        Predicate::filter(c(0, 0), CmpOp::Eq, 2),
        Predicate::filter(c(1, 1), CmpOp::Le, 5),
        Predicate::join(c(0, 1), c(1, 0)),
        Predicate::join(c(1, 1), c(2, 0)),
        Predicate::range(c(2, 1), 0, 7),
    ]
}

fn subset(universe: &[Predicate], mask: u8) -> Vec<Predicate> {
    universe
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, p)| *p)
        .collect()
}

fn mode_of(i: u8) -> ErrorMode {
    match i % 3 {
        0 => ErrorMode::NInd,
        1 => ErrorMode::Diff,
        _ => ErrorMode::Opt,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonicalization is injective on distinct `(PredSet, ErrorMode)`
    /// inputs: two conditional keys collide iff their predicate *sets* and
    /// modes coincide — permuting or duplicating list entries never
    /// separates equal sets, and distinct sets/modes never merge.
    #[test]
    fn cache_key_canonicalization_is_injective(
        mask_p1 in 0u8..64, mask_q1 in 0u8..64, m1 in 0u8..3,
        mask_p2 in 0u8..64, mask_q2 in 0u8..64, m2 in 0u8..3,
        shuffle in any::<u64>(),
    ) {
        let uni = predicate_universe();
        let (p1, q1) = (subset(&uni, mask_p1), subset(&uni, mask_q1));
        let (mut p2, mut q2) = (subset(&uni, mask_p2), subset(&uni, mask_q2));
        // Permute (and sometimes duplicate an element of) the second pair:
        // canonicalization must erase exactly this kind of difference.
        let p2_rot = (shuffle as usize) % p2.len().max(1);
        let q2_rot = (shuffle as usize / 7) % q2.len().max(1);
        p2.rotate_left(p2_rot);
        q2.rotate_left(q2_rot);
        if shuffle.is_multiple_of(3) {
            if let Some(&first) = p2.first() {
                p2.push(first);
            }
        }
        let k1 = CacheKey::conditional(mode_of(m1), &p1, &q1);
        let k2 = CacheKey::conditional(mode_of(m2), &p2, &q2);
        let same_inputs =
            mask_p1 == mask_p2 && mask_q1 == mask_q2 && mode_of(m1) == mode_of(m2);
        prop_assert_eq!(k1 == k2, same_inputs);
    }

    /// Equal keys as HashMap keys behave set-like: inserting under any
    /// permutation of a predicate list finds the entry under any other.
    #[test]
    fn equal_sets_share_one_map_slot(
        mask in 1u8..64, m in 0u8..3, rot in 0usize..6,
    ) {
        let uni = predicate_universe();
        let preds = subset(&uni, mask);
        let mut rotated = preds.clone();
        let steps = rot % rotated.len();
        rotated.rotate_left(steps);
        let mut map = HashMap::new();
        map.insert(CacheKey::conditional(mode_of(m), &preds, &[]), 42u32);
        let probe = CacheKey::conditional(mode_of(m), &rotated, &[]);
        prop_assert_eq!(map.get(&probe), Some(&42));
    }
}

/// Strategy: a 4-table database with 2 columns each, narrow value domain so
/// joins match and histograms are non-trivial (mirrors the dense-engine
/// property tests).
fn gen_db() -> impl Strategy<Value = Database> {
    use sqe::engine::table::TableBuilder;
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

/// Strategy: a random workload of 2–7 queries over the 4-table schema.
fn gen_workload() -> impl Strategy<Value = Vec<SpjQuery>> {
    let colref = (0u32..4, 0u16..2).prop_map(|(t, c)| ColRef::new(TableId(t), c));
    let pred = prop_oneof![
        (colref.clone(), 0i64..8, 0i64..8).prop_map(|(c, lo, hi)| Predicate::range(
            c,
            lo.min(hi),
            lo.max(hi)
        )),
        (colref.clone(), 0i64..8).prop_map(|(c, v)| Predicate::filter(c, CmpOp::Eq, v)),
        (colref.clone(), 0i64..8).prop_map(|(c, v)| Predicate::filter(c, CmpOp::Le, v)),
        (colref.clone(), colref).prop_filter_map("self-column join", |(l, r)| {
            (l.table != r.table).then(|| Predicate::join(l, r))
        }),
    ];
    let query = prop::collection::vec(pred, 1..6).prop_filter_map("degenerate query", |mut p| {
        p.sort_unstable();
        p.dedup();
        SpjQuery::from_predicates(p).ok()
    });
    prop::collection::vec(query, 2..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `estimate_batch` answers in input order, every deterministic
    /// `Estimate` field bit-identical to one `estimate` per query on a
    /// fresh service, over a cold and then a warm cache (`cached` is not
    /// compared: it follows request order).
    #[test]
    fn batches_are_bit_identical_and_order_stable(
        db in gen_db(),
        wl in gen_workload(),
        pool_i in 0usize..3,
        mode_i in 0u8..2,
    ) {
        let db = Arc::new(db);
        let pool = || build_pool(&db, &wl, PoolSpec::ji(pool_i)).expect("pool build");
        let config = ServiceConfig {
            mode: mode_of(mode_i),
            ..ServiceConfig::default()
        };
        let single = EstimationService::new(Arc::clone(&db), pool(), config);
        let expected: Vec<_> = wl.iter().map(|q| estimate_bits(&single.estimate(q))).collect();
        let svc = EstimationService::new(Arc::clone(&db), pool(), config);
        for round in ["cold", "warm"] {
            let got: Vec<_> = svc.estimate_batch(&wl).iter().map(estimate_bits).collect();
            prop_assert_eq!(&got, &expected, "{}", round);
        }
    }
}
