//! Chaos suite: randomized failpoints, deadlines, and cancellations under
//! an 8-thread budgeted batch load.
//!
//! Asserts the robustness contract of the resource-governance layer:
//!
//! * **no hang** — the whole run completes under a watchdog;
//! * **no poisoned lock / leaked panic** — every request returns a value
//!   or a clean `Overloaded` shed, never a propagated panic;
//! * **honest labels** — `quality == Full` answers are bit-identical to a
//!   fault-free unbudgeted run; degraded answers carry a reason;
//! * **recovery** — after disarming every failpoint the service serves
//!   `Full`-quality answers again.
//!
//! Failpoint state is process-global: a site one test arms fires in every
//! test of the same binary that reaches it. So the workspace's tests that
//! arm estimator or service sites live in this binary, and every test here
//! holds the shared serial guard.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use sqe::core::failpoint::{self, Action};
use sqe::core::{BackendKind, BnCatalog, DeltaConfig, DiffBackend, LiveCatalog};
use sqe::datagen::database_fingerprint;
use sqe::engine::delta::{DeltaBatch, RowOp, TableDelta};
use sqe::engine::table::TableBuilder;
use sqe::prelude::*;
use sqe::service::Budget;

/// Deterministic xorshift64* for budget/failpoint mixing.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

fn chaos_db() -> Arc<Database> {
    let rows = 256usize;
    let mut db = Database::new();
    for t in 0..3 {
        let a: Vec<i64> = (0..rows).map(|r| ((r * 7 + t * 3) % 23) as i64).collect();
        let b: Vec<i64> = (0..rows).map(|r| ((r * 13 + t * 5) % 17) as i64).collect();
        db.add_table(
            TableBuilder::new(format!("t{t}"))
                .column("a", a)
                .column("b", b)
                .build()
                .unwrap(),
        );
    }
    Arc::new(db)
}

fn chaos_queries(db: &Database) -> Vec<SpjQuery> {
    let mut queries = Vec::new();
    for v in 0..4i64 {
        for (l, r) in [(0u32, 1u32), (1, 2)] {
            queries.push(
                SpjQuery::from_predicates(vec![
                    Predicate::join(ColRef::new(TableId(l), 0), ColRef::new(TableId(r), 0)),
                    Predicate::filter(ColRef::new(TableId(l), 1), CmpOp::Eq, v),
                    Predicate::range(ColRef::new(TableId(r), 1), 0, 8 + v),
                ])
                .unwrap(),
            );
        }
    }
    let _ = db;
    queries
}

fn chaos_service(db: &Arc<Database>, catalog: SitCatalog) -> EstimationService {
    EstimationService::new(
        Arc::clone(db),
        catalog,
        ServiceConfig {
            max_in_flight: 16,
            ..ServiceConfig::default()
        },
    )
}

/// One randomized budget: unlimited / tight deadline / tiny quota /
/// pre-cancelled, in rotation.
fn random_budget(rng: &mut Rng) -> Budget {
    match rng.next() % 4 {
        0 => Budget::unlimited(),
        1 => Budget::unlimited().with_deadline(Duration::from_micros(50 + rng.next() % 2000)),
        2 => Budget::unlimited().with_quota(rng.next() % 200),
        _ => {
            let c = CancelToken::new();
            if rng.next().is_multiple_of(2) {
                c.cancel();
            }
            Budget::unlimited().with_cancel(c)
        }
    }
}

#[test]
fn randomized_faults_never_hang_poison_or_mislabel() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let db = chaos_db();
    let queries = chaos_queries(&db);
    let catalog = sqe::core::build_pool(&db, &queries, PoolSpec::ji(1)).expect("pool");
    let svc = Arc::new(chaos_service(&db, catalog.clone()));

    // Fault-free reference: every query's Full answer, from a fresh
    // service so the chaos run's caches can't influence it.
    let reference: Vec<f64> = {
        let clean = chaos_service(&db, catalog.clone());
        queries
            .iter()
            .map(|q| clean.estimate(q).selectivity)
            .collect()
    };

    // Quiet the panic reports the injected faults produce on purpose —
    // the default hook would spam stderr for every isolated panic.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Arm the whole failpoint surface at low, deterministic rates.
    failpoint::arm_with("dp::solve_mask", Action::Panic, 512, None, 11);
    failpoint::arm_with("service::cache_insert", Action::Sleep(1), 64, None, 33);
    failpoint::arm_with("service::install", Action::Sleep(1), 4, None, 44);

    let full_answers = AtomicU64::new(0);
    let degraded_answers = AtomicU64::new(0);
    let sheds = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);

    // Watchdog: the chaos load runs in its own threads; the main thread
    // fails the test if they don't all finish in time.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        for worker in 0..8u64 {
            let (svc, queries, reference, catalog) = (&svc, &queries, &reference, &catalog);
            let (full_answers, degraded_answers, sheds, mismatches) =
                (&full_answers, &degraded_answers, &sheds, &mismatches);
            let done_tx = done_tx.clone();
            s.spawn(move || {
                let mut rng = Rng(0x9E3779B97F4A7C15 ^ (worker + 1));
                for round in 0..120 {
                    // Periodic concurrent installs keep the whole-query
                    // cache cold — otherwise the chaos load degenerates to
                    // cache hits and stops exercising the DP failpoints —
                    // and race snapshot swaps against in-flight estimates.
                    if worker == 0 && round % 8 == 7 {
                        svc.install(catalog.clone(), None);
                    }
                    let idx = (rng.next() as usize) % queries.len();
                    let budget = random_budget(&mut rng);
                    let outcome = if round % 10 == 9 {
                        // Periodic batch call to chaos the batch path too.
                        svc.estimate_batch_with_budget(&queries[idx..=idx], &budget)
                            .map(|v| v[0])
                    } else {
                        svc.estimate_with_budget(&queries[idx], &budget)
                    };
                    match outcome {
                        Ok(e) => {
                            assert!(
                                e.selectivity.is_finite(),
                                "non-finite selectivity under chaos"
                            );
                            if e.quality == Quality::Full {
                                assert!(e.degraded_reason.is_none());
                                full_answers.fetch_add(1, Ordering::Relaxed);
                                if e.selectivity.to_bits() != reference[idx].to_bits() {
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                            } else {
                                assert!(
                                    e.degraded_reason.is_some(),
                                    "degraded answer without a reason"
                                );
                                degraded_answers.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(ServiceError::Overloaded { retry_after, .. }) => {
                            assert!(retry_after >= Duration::from_millis(1));
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                done_tx.send(()).unwrap();
            });
        }
        drop(done_tx);
        for _ in 0..8 {
            done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("chaos worker hung: watchdog fired");
        }
    });

    failpoint::disarm_all();
    std::panic::set_hook(prev_hook);

    let (full, degraded, shed, bad) = (
        full_answers.load(Ordering::Relaxed),
        degraded_answers.load(Ordering::Relaxed),
        sheds.load(Ordering::Relaxed),
        mismatches.load(Ordering::Relaxed),
    );
    assert_eq!(
        full + degraded + shed,
        8 * 120,
        "every request accounted for"
    );
    assert_eq!(
        bad, 0,
        "{bad} Full-quality answers diverged from the fault-free run"
    );
    assert!(
        full > 0,
        "chaos so aggressive nothing completed at Full quality"
    );

    // Recovery: with faults disarmed and no budget, the service is back
    // to Full-quality, reference-identical answers on a fresh snapshot.
    for (q, want) in queries.iter().zip(&reference) {
        let e = svc
            .estimate_with_budget(q, &Budget::unlimited())
            .expect("no load left to shed");
        assert_eq!(e.quality, Quality::Full);
        assert_eq!(e.selectivity.to_bits(), want.to_bits());
    }
    let stats = svc.stats();
    eprintln!(
        "chaos mix: full={full} degraded={degraded} sheds={shed} \
         quarantines={} degrade_reasons={:?}",
        stats.quarantines, stats.degrade_reasons
    );
    assert!(
        degraded > 0,
        "pre-cancelled budgets guarantee some degraded answers"
    );
    assert_eq!(
        stats.quality_counts.iter().sum::<u64>(),
        stats.estimates,
        "every request was budgeted, so per-quality counters cover them all"
    );
}

/// Queries with two same-table filters, the shape the BN backend
/// intercepts (so an armed `bn::peel` actually fires during the DP).
fn backend_queries() -> Vec<SpjQuery> {
    let mut queries = Vec::new();
    for v in 0..4i64 {
        for (l, r) in [(0u32, 1u32), (1, 2)] {
            queries.push(
                SpjQuery::from_predicates(vec![
                    Predicate::join(ColRef::new(TableId(l), 0), ColRef::new(TableId(r), 0)),
                    Predicate::filter(ColRef::new(TableId(l), 0), CmpOp::Le, 12 + v),
                    Predicate::range(ColRef::new(TableId(l), 1), 0, 8 + v),
                ])
                .unwrap(),
            );
        }
    }
    queries
}

fn backend_service(
    db: &Arc<Database>,
    catalog: SitCatalog,
    backend: BackendKind,
) -> EstimationService {
    EstimationService::new(
        Arc::clone(db),
        catalog,
        ServiceConfig {
            backend,
            max_in_flight: 16,
            ..ServiceConfig::default()
        },
    )
}

/// Chaos on the backend seam: the two backend failpoints (`bn::build`,
/// `pessimistic::bound` — plus `bn::peel` inside the DP) are armed and the
/// contracts hold:
///
/// * an injected `bn::build` panic retries to a network **bit-identical**
///   to a fault-free build (edge set and message-passing probabilities);
/// * a backend panic during a budgeted estimate is caught and lands on
///   the labeled independence floor — `Quality::Independence`,
///   `DegradeReason::Panic`, no upper bound — never a propagated panic;
/// * once the fault budget is exhausted and the sites disarmed, the same
///   service answers `Full` again, bit-identical to a clean service.
#[test]
fn backend_faults_land_on_the_labeled_floor_and_recover() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let db = chaos_db();
    let queries = backend_queries();
    let catalog = sqe::core::build_pool(&db, &queries, PoolSpec::ji(1)).expect("pool");

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Catalog construction: injected panics lose nothing once they stop.
    let clean_bn = BnCatalog::build(&db);
    failpoint::arm_with("bn::build", Action::Panic, 1, Some(2), 77);
    let mut retries = 0u32;
    let bn = loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| BnCatalog::build(&db))) {
            Ok(c) => break c,
            Err(_) => retries += 1,
        }
    };
    failpoint::disarm("bn::build");
    assert_eq!(retries, 2, "a limit of 2 fires exactly twice");
    for t in 0..3u32 {
        assert_eq!(
            bn.edges(TableId(t)),
            clean_bn.edges(TableId(t)),
            "t{t}: retried build diverged from fault-free build"
        );
    }
    let probe = [(0u16, 0i64, 11i64), (1u16, 2i64, 9i64)];
    assert_eq!(
        bn.conjunction_probability(TableId(0), &probe)
            .expect("known columns")
            .to_bits(),
        clean_bn
            .conjunction_probability(TableId(0), &probe)
            .expect("known columns")
            .to_bits(),
        "retried build answers different probabilities"
    );

    // Backend panics inside budgeted estimates: labeled floor, then
    // bit-identical recovery.
    for (kind, site) in [
        (BackendKind::Pessimistic, "pessimistic::bound"),
        (BackendKind::Bn, "bn::peel"),
    ] {
        let clean = backend_service(&db, catalog.clone(), kind);
        let reference: Vec<Estimate> = queries
            .iter()
            .map(|q| {
                clean
                    .estimate_with_budget(q, &Budget::unlimited())
                    .expect("nothing to shed")
            })
            .collect();
        assert!(reference.iter().all(|e| e.quality == Quality::Full));

        let svc = backend_service(&db, catalog.clone(), kind);
        failpoint::arm_with(site, Action::Panic, 1, Some(queries.len() as u32), 88);
        let mut floors = 0u32;
        for (q, want) in queries.iter().zip(&reference) {
            let e = svc
                .estimate_with_budget(q, &Budget::unlimited())
                .expect("nothing to shed");
            assert!(e.selectivity.is_finite(), "{site}: non-finite under chaos");
            if e.quality == Quality::Full {
                // The failpoint did not fire for this query (e.g. no
                // interceptable peel): the answer must be exact.
                assert_eq!(
                    e.selectivity.to_bits(),
                    want.selectivity.to_bits(),
                    "{site}"
                );
            } else {
                assert_eq!(
                    e.quality,
                    Quality::Independence,
                    "{site}: backend panic must land on the independence floor"
                );
                assert_eq!(e.degraded_reason, Some(DegradeReason::Panic), "{site}");
                assert!(
                    e.upper_bound.is_none(),
                    "{site}: no backend code may run after its own panic"
                );
                floors += 1;
            }
        }
        assert!(floors > 0, "{site}: armed failpoint never fired");
        failpoint::disarm(site);

        for (q, want) in queries.iter().zip(&reference) {
            let e = svc
                .estimate_with_budget(q, &Budget::unlimited())
                .expect("nothing to shed");
            assert_eq!(e.quality, Quality::Full, "{site}: no recovery");
            assert_eq!(
                e.selectivity.to_bits(),
                want.selectivity.to_bits(),
                "{site}: recovered answer diverged from the clean service"
            );
            assert_eq!(
                e.upper_bound.map(f64::to_bits),
                want.upper_bound.map(f64::to_bits),
                "{site}: recovered bound diverged from the clean service"
            );
        }
        let stats = svc.stats();
        assert!(
            stats.quarantines >= 1,
            "{site}: panics quarantine snapshots"
        );
    }

    std::panic::set_hook(prev_hook);
}

/// Deterministic mutation batches over the 3-table chaos database:
/// inserts, updates, and deletes in rotation, with row indices tracked
/// against the running row count so every op is valid when it applies.
fn chaos_batches(batches: usize, ops_per_batch: usize) -> Vec<DeltaBatch> {
    let mut rng = Rng(0xC4A0_5BA7C4);
    let mut rows = [256usize; 3];
    (0..batches)
        .map(|seq| {
            // One TableDelta per table per batch (apply_batch rejects
            // duplicates); within a table, ops keep generation order so
            // the tracked row counts stay valid at application time.
            let mut per_table: [Vec<RowOp>; 3] = [Vec::new(), Vec::new(), Vec::new()];
            for _ in 0..ops_per_batch {
                let t = (rng.next() % 3) as usize;
                let op = match rng.next() % 4 {
                    0 | 1 => {
                        rows[t] += 1;
                        RowOp::Insert {
                            values: vec![
                                Some((rng.next() % 23) as i64),
                                Some((rng.next() % 17) as i64),
                            ],
                        }
                    }
                    2 => RowOp::Update {
                        row: (rng.next() as usize) % rows[t],
                        column: (rng.next() % 2) as u16,
                        value: Some((rng.next() % 23) as i64),
                    },
                    _ => {
                        if rows[t] > 64 {
                            rows[t] -= 1;
                            RowOp::Delete {
                                row: (rng.next() as usize) % (rows[t] + 1),
                            }
                        } else {
                            rows[t] += 1;
                            RowOp::Insert {
                                values: vec![Some(0), Some(0)],
                            }
                        }
                    }
                };
                per_table[t].push(op);
            }
            DeltaBatch {
                seq: seq as u64,
                deltas: per_table
                    .into_iter()
                    .enumerate()
                    .filter(|(_, ops)| !ops.is_empty())
                    .map(|(t, ops)| TableDelta {
                        table: TableId(t as u32),
                        ops,
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Chaos on the ingest path: `delta::apply_batch` panics mid-stream and
/// `service::partial_install` stalls, while estimate workers hammer the
/// service across the resulting partial snapshot installs. The contract:
///
/// * an injected ingest panic loses nothing — the batch retries and the
///   drained live catalog is bit-identical to a fault-free replay of the
///   same stream (database fingerprint, every ingest report, every SIT);
/// * the faulty service's final answers — served through a cache that was
///   carried across every partial install — are bit-identical to a clean
///   service built cold over the replayed final state;
/// * recovery is clean: after disarming, the service keeps serving and
///   the snapshot epoch counts exactly one install per batch.
#[test]
fn ingest_faults_retry_cleanly_and_converge_bit_identically() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let db = chaos_db();
    let queries = chaos_queries(&db);
    let catalog = sqe::core::build_pool(&db, &queries, PoolSpec::ji(1)).expect("pool");
    let batches = chaos_batches(30, 12);

    let svc = Arc::new(chaos_service(&db, catalog.clone()));
    let mut live = LiveCatalog::new((*db).clone(), catalog.clone(), DeltaConfig::default());

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    failpoint::arm_with("delta::apply_batch", Action::Panic, 3, None, 55);
    failpoint::arm_with("service::partial_install", Action::Sleep(1), 4, None, 66);

    let retries = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut faulty_reports = Vec::new();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        // Estimate workers run for the whole ingest, racing the partial
        // installs (and their injected stalls).
        for _ in 0..4 {
            let (svc, queries, stop) = (&svc, &queries, &stop);
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let e = svc.estimate(&queries[i % queries.len()]);
                    assert!(e.selectivity.is_finite(), "non-finite under ingest chaos");
                    i += 1;
                }
            });
        }
        // The ingest worker: every batch must land exactly once, however
        // many injected panics it takes.
        {
            let (svc, retries, stop) = (&svc, &retries, &stop);
            let (live, faulty_reports) = (&mut live, &mut faulty_reports);
            let batches = &batches;
            let done_tx = done_tx.clone();
            s.spawn(move || {
                // Raise the flag however this thread exits — if it
                // panics, the estimate workers must still terminate or
                // the scope would deadlock behind a muted panic.
                struct StopOnDrop<'a>(&'a AtomicBool);
                impl Drop for StopOnDrop<'_> {
                    fn drop(&mut self) {
                        self.0.store(true, Ordering::Release);
                    }
                }
                let _stop = StopOnDrop(stop);
                for batch in batches {
                    let report = loop {
                        let attempt =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                live.ingest(batch)
                            }));
                        match attempt {
                            Ok(r) => break r.expect("ingest on a well-formed batch"),
                            Err(_) => {
                                retries.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    };
                    svc.partial_install(
                        Arc::new(live.db().clone()),
                        live.catalog().clone(),
                        None,
                        &report,
                    );
                    faulty_reports.push(report);
                }
                done_tx.send(()).unwrap();
            });
        }
        drop(done_tx);
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("ingest chaos hung: watchdog fired");
    });

    failpoint::disarm_all();
    std::panic::set_hook(prev_hook);
    assert!(
        retries.load(Ordering::Relaxed) > 0,
        "a 1-in-3 panic rate over 30 batches must have fired at least once"
    );

    // Fault-free replay of the identical stream: the faulty run must have
    // lost nothing and duplicated nothing.
    let mut replay = LiveCatalog::new((*db).clone(), catalog, DeltaConfig::default());
    let replay_reports: Vec<_> = batches
        .iter()
        .map(|b| replay.ingest(b).expect("fault-free ingest"))
        .collect();
    assert_eq!(faulty_reports, replay_reports, "ingest reports diverged");
    assert_eq!(
        database_fingerprint(live.db()),
        database_fingerprint(replay.db()),
        "faulty and fault-free runs landed on different databases"
    );
    for ((id, a), (_, b)) in live.catalog().iter().zip(replay.catalog().iter()) {
        assert_eq!(a.histogram, b.histogram, "{id:?} diverged from replay");
        assert_eq!(a.diff.to_bits(), b.diff.to_bits(), "{id:?}");
    }

    // Recovery: the faulty service — whose cache was carried across every
    // partial install — answers bit-identically to a clean service built
    // cold over the replayed final state.
    let final_db = Arc::new(replay.db().clone());
    let clean = chaos_service(&final_db, replay.catalog().clone());
    for q in &queries {
        assert_eq!(
            svc.estimate(q).selectivity.to_bits(),
            clean.estimate(q).selectivity.to_bits(),
            "carried cache served a stale answer after the install stream"
        );
    }
    assert_eq!(svc.snapshot().epoch(), batches.len() as u64);
    assert_eq!(svc.stats().ingest.partial_installs, batches.len() as u64);
}

/// A panic inside the DP is isolated to its request: the budgeted
/// estimate lands on the labeled independence floor, the snapshot it ran
/// on is quarantined and replaced, and the service answers at full
/// quality afterwards with every admission permit released.
#[test]
fn panicking_estimate_is_isolated_and_recovers() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();
    let db = chaos_db();
    let queries = chaos_queries(&db);
    let catalog = sqe::core::build_pool(&db, &queries, PoolSpec::ji(1)).expect("pool");
    let svc = EstimationService::new(Arc::clone(&db), catalog, ServiceConfig::default());
    let q = &queries[0];
    let epoch0 = svc.snapshot().epoch();
    failpoint::arm("dp::solve_mask", Action::Panic);
    let held = svc.snapshot();
    let e = svc
        .estimate_with_budget(q, &Budget::unlimited())
        .expect("panic is isolated, not propagated");
    failpoint::disarm_all();

    assert_eq!(e.quality, Quality::Independence);
    assert_eq!(e.degraded_reason, Some(DegradeReason::Panic));
    assert!(e.selectivity.is_finite());
    assert!(held.cache().is_quarantined(), "panicked snapshot poisoned");

    let now = svc.snapshot();
    assert_eq!(now.epoch(), epoch0 + 1, "fresh snapshot installed");
    assert!(!now.cache().is_quarantined());
    let stats = svc.stats();
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.degraded_by(DegradeReason::Panic), 1);

    // Service keeps working at full quality afterwards.
    let after = svc
        .estimate_with_budget(q, &Budget::unlimited())
        .expect("admitted");
    assert_eq!(after.quality, Quality::Full);
    assert_eq!(after.epoch, epoch0 + 1);
    assert_eq!(
        svc.admission().in_flight(),
        0,
        "permit released on unwind path"
    );
}

/// A request that panics after its answer was computed — here in the
/// bound sketch, which runs after the ladder — is served once, from the
/// floor. The full rung's answer before the panic still counts as a rung
/// outcome: "answered" counts rungs, "served" counts requests.
#[test]
fn panic_after_the_answer_counts_the_request_once() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();
    let db = chaos_db();
    let queries = chaos_queries(&db);
    let catalog = sqe::core::build_pool(&db, &queries, PoolSpec::ji(1)).expect("pool");
    let svc = EstimationService::new(Arc::clone(&db), catalog, ServiceConfig::default());
    assert_eq!(svc.config().backend, BackendKind::Diff);

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    failpoint::arm_with("pessimistic::bound", Action::Panic, 1, Some(1), 5);
    let e = svc
        .estimate_with_budget(&queries[0], &Budget::unlimited())
        .expect("panic is isolated, not propagated");
    failpoint::disarm_all();
    std::panic::set_hook(prev_hook);

    assert_eq!(e.quality, Quality::Independence);
    assert_eq!(e.degraded_reason, Some(DegradeReason::Panic));
    let stats = svc.stats();
    assert_eq!(stats.estimates, 1, "one request, served once");
    assert_eq!(stats.quality_count(Quality::Independence), 1);
    assert_eq!(stats.quality_count(Quality::Full), 0);
    assert_eq!(stats.quality_counts.iter().sum::<u64>(), 1);
    assert_eq!(stats.latency.count(), 1);
    let at = |q: Quality| Quality::ALL.iter().position(|&t| t == q).expect("tier");
    assert_eq!(stats.rung_attempted[at(Quality::Full)], 1);
    assert_eq!(stats.rung_answered[at(Quality::Full)], 1);
    assert_eq!(stats.rung_attempted[at(Quality::Independence)], 1);
    assert_eq!(stats.rung_answered[at(Quality::Independence)], 1);
    assert_eq!(stats.degraded_by(DegradeReason::Panic), 1);
    assert_eq!(stats.quarantines, 1);
}

/// Deterministic 12-predicate join chain with two filters per table: the
/// dense engine's target regime, with same-table conditioning for the BN
/// backend (the fixture of `tests/backends.rs` and `tests/beam.rs`).
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
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    let mut base = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff);
    let (ss, se) = base.get_selectivity(base.context().all());

    failpoint::arm_with("dp::solve_mask", Action::Panic, 64, None, 9);
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
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

/// Armed `dp::solve_mask` failpoints under the beam walk: a panic either
/// propagates cleanly (nothing half-committed) or never fires — and then
/// the answer must still be bit-exact. A fresh estimator afterwards is
/// unpolluted either way.
#[test]
fn beam_survives_armed_failpoints() {
    let _guard = failpoint::test_serial_guard();
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    let mut serial = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff);
    let (ss, se) = serial.get_selectivity(serial.context().all());

    failpoint::arm_with("dp::solve_mask", Action::Panic, 64, None, 7);
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut est = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
            .with_strategy(DpStrategy::Beam)
            .with_beam_config(BeamConfig::UNBOUNDED);
        est.get_selectivity(est.context().all())
    }));
    failpoint::disarm("dp::solve_mask");
    if let Ok((s, e)) = outcome {
        assert_eq!(s.to_bits(), ss.to_bits(), "survived arm must be exact");
        assert_eq!(e.to_bits(), se.to_bits(), "survived arm must be exact");
    }
    let mut fresh = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_strategy(DpStrategy::Beam)
        .with_beam_config(BeamConfig::UNBOUNDED);
    let (fs, fe) = fresh.get_selectivity(fresh.context().all());
    assert_eq!(fs.to_bits(), ss.to_bits(), "fresh after chaos");
    assert_eq!(fe.to_bits(), se.to_bits(), "fresh after chaos");
}
