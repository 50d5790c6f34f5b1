//! Integration tests for the `sqe-service` estimation service: concurrent
//! estimates must be **bit-identical** to a fresh single-threaded
//! [`SelectivityEstimator`] over the same catalog, cold and warm.

use std::num::NonZeroUsize;
use std::sync::Arc;

use proptest::prelude::*;

use sqe::core::{
    build_pool_threaded, DeltaConfig, IngestReport, LiveCatalog, PoolSpec, SitOptions,
};
use sqe::datagen::{generate_mutations, MutationConfig};
use sqe::prelude::*;
use sqe::server::FrontDoor;
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

/// Failpoints are armed per thread. While one thread holds
/// `dp::solve_mask` armed to panic, an unarmed thread's estimate beside it
/// still answers `Full`, bit-identical to a fresh estimator; and a site
/// armed on the thread that spawned a server, after the spawn, still fires
/// on the server's connection threads.
#[test]
fn armed_failpoints_stay_on_their_thread_and_reach_its_server() {
    use sqe::core::failpoint::{self, Action};
    use std::io::{Read as _, Write as _};
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::mpsc::channel;

    let (db, wl, svc) = service_setup(ErrorMode::Diff);
    let want = reference(&db, &wl[..1], svc.snapshot().sits(), ErrorMode::Diff)[0];
    let estimate = |q| {
        svc.estimate_with_budget(q, &Budget::unlimited())
            .expect("admitted")
    };
    let (unarmed, faulty) = std::thread::scope(|s| {
        let ((armed, wait_armed), (answered, wait_answered)) = (channel(), channel::<()>());
        let (estimate, wl) = (&estimate, &wl);
        let faulty = s.spawn(move || {
            failpoint::arm("dp::solve_mask", Action::Panic);
            armed.send(()).unwrap();
            // Stay armed until the other thread has answered.
            let _ = wait_answered.recv();
            estimate(&wl[1])
        });
        wait_armed.recv().unwrap();
        let unarmed = estimate(&wl[0]);
        drop(answered);
        (unarmed, faulty.join().unwrap())
    });
    assert_eq!(
        unarmed.quality,
        Quality::Full,
        "{:?}",
        unarmed.degraded_reason
    );
    assert_eq!(unarmed.selectivity.to_bits(), want);
    assert_eq!(faulty.degraded_reason, Some(DegradeReason::Panic), "armed");

    let server = sqe::server::spawn(Arc::new(FrontDoor::new(0)), "127.0.0.1:0").expect("bind");
    failpoint::arm("server::respond", Action::Error);
    let mut client = std::net::TcpStream::connect(server.addr()).expect("connect");
    client
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut reply = Vec::new();
    let _ = client.read_to_end(&mut reply);
    assert!(reply.is_empty(), "the armed respond site drops the answer");
    assert_eq!(server.stats().respond_failures.load(Relaxed), 1);
}

/// An unbudgeted estimate is panic-isolated like a budgeted one. With
/// `dp::solve_mask` armed to panic on this thread, `estimate` answers
/// from the independence floor, labelled with the panic and without an
/// upper bound, and quarantines the snapshot it ran against; once
/// disarmed, the replacement snapshot answers `Full`, bit-identical to a
/// fresh estimator.
#[test]
fn a_panicking_unbudgeted_estimate_is_answered_from_the_floor_and_quarantines() {
    use sqe::core::failpoint::{self, Action};

    let (db, wl, svc) = service_setup(ErrorMode::Diff);
    let q = &wl[0];
    failpoint::quiet_injected_panics();
    failpoint::arm("dp::solve_mask", Action::Panic);
    let e = svc.estimate(q);
    failpoint::disarm("dp::solve_mask");

    assert_eq!(e.quality, Quality::Independence);
    assert_eq!(e.degraded_reason, Some(DegradeReason::Panic));
    assert_eq!(e.upper_bound, None);
    assert_eq!(e.epoch, 0, "answered against the snapshot that panicked");
    assert_eq!(svc.stats().quarantines, 1);
    assert_eq!(svc.snapshot().epoch(), 1, "a replacement snapshot");

    let want = reference(
        &db,
        std::slice::from_ref(q),
        svc.snapshot().sits(),
        ErrorMode::Diff,
    );
    let e = svc.estimate(q);
    assert_eq!(e.quality, Quality::Full, "{:?}", e.degraded_reason);
    assert_eq!(e.degraded_reason, None);
    assert_eq!(e.selectivity.to_bits(), want[0]);
    assert_eq!(e.epoch, 1);
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

fn mode_of(i: u8) -> ErrorMode {
    match i % 3 {
        0 => ErrorMode::NInd,
        1 => ErrorMode::Diff,
        _ => ErrorMode::Opt,
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

/// Every deterministic field of an [`sqe::service::Estimate`] — all but
/// the request-order-dependent `cached` flag — with floats as raw bits.
type EstimateBits = (
    u64,
    u64,
    u64,
    u64,
    Quality,
    Option<DegradeReason>,
    Option<u64>,
);

fn estimate_bits(e: &sqe::service::Estimate) -> EstimateBits {
    (
        e.selectivity.to_bits(),
        e.error.to_bits(),
        e.cardinality.to_bits(),
        e.epoch,
        e.quality,
        e.degraded_reason,
        e.upper_bound.map(f64::to_bits),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `estimate` and `estimate_with_budget` under an unlimited budget
    /// take one path: on two fresh services over the same catalog, every
    /// deterministic `Estimate` field agrees bit for bit, query by query,
    /// over a cold and then a warm cache.
    #[test]
    fn unbudgeted_and_unlimited_budget_answers_are_bit_identical(
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
        let plain = EstimationService::new(Arc::clone(&db), pool(), config);
        let budgeted = EstimationService::new(Arc::clone(&db), pool(), config);
        for round in ["cold", "warm"] {
            for (j, q) in wl.iter().enumerate() {
                let want = estimate_bits(&plain.estimate(q));
                let got = budgeted
                    .estimate_with_budget(q, &Budget::unlimited())
                    .expect("admitted");
                prop_assert_eq!(estimate_bits(&got), want, "{} query {}", round, j);
            }
        }
    }
}
