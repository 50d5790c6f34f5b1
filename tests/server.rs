//! Integration suite for the multi-tenant HTTP front end (`sqe-server`):
//! wire protocol, the three admission gates and their retry hints,
//! quota/permit leak regressions under injected mid-request panics,
//! per-tenant catalog isolation under concurrent ingest, exact request
//! accounting with the server failpoints armed, cross-connection
//! isolation of a stalled ingest, the connection cap, and shutdown.
//!
//! Failpoint state is process-global, so every test here takes the
//! shared serial guard even when it arms nothing — an armed
//! `server::handle` from a concurrently running test would otherwise
//! leak into the unrelated ones.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqe::core::failpoint::{self, Action};
use sqe::core::DeltaConfig;
use sqe::engine::delta::{DeltaBatch, RowOp, TableDelta};
use sqe::engine::table::TableBuilder;
use sqe::prelude::*;
use sqe::server::{FrontDoor, QuotaConfig, Request, TenantConfig};

/// A generous quota nothing in a test trips by accident.
fn open_quota() -> QuotaConfig {
    QuotaConfig {
        rate: 1e6,
        burst: 1e6,
        max_in_flight: 64,
        deadline_ceiling: Duration::from_secs(10),
    }
}

fn tenant_config(quota: QuotaConfig) -> TenantConfig {
    TenantConfig {
        quota,
        service: ServiceConfig::default(),
        delta: DeltaConfig::default(),
    }
}

/// Three small correlated tables; `salt` varies the content so two
/// tenants can hold genuinely different catalogs.
fn small_db(salt: usize) -> Database {
    let rows = 256usize;
    let mut db = Database::new();
    for t in 0..3 {
        let a: Vec<i64> = (0..rows)
            .map(|r| ((r * 7 + t * 3 + salt * 5) % 23) as i64)
            .collect();
        let b: Vec<i64> = (0..rows)
            .map(|r| ((r * 13 + t * 5 + salt * 11) % 17) as i64)
            .collect();
        db.add_table(
            TableBuilder::new(format!("t{t}"))
                .column("a", a)
                .column("b", b)
                .build()
                .unwrap(),
        );
    }
    db
}

fn small_queries() -> Vec<SpjQuery> {
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
    queries
}

/// Registers `name` over a fresh `small_db(salt)` + J1 pool.
fn add_small_tenant(
    door: &FrontDoor,
    name: &str,
    salt: usize,
    quota: QuotaConfig,
) -> Arc<sqe::server::Tenant> {
    let db = small_db(salt);
    let catalog = sqe::core::build_pool(&db, &small_queries(), PoolSpec::ji(1)).expect("pool");
    door.add_tenant(name, db, catalog, tenant_config(quota))
}

/// JSON body for `POST /v1/<t>/estimate`.
fn estimate_body(query: &SpjQuery, deadline_ms: Option<u64>) -> String {
    #[derive(serde::Serialize)]
    struct Wire {
        tables: Vec<u32>,
        predicates: Vec<Predicate>,
        deadline_ms: Option<u64>,
    }
    serde_json::to_string(&Wire {
        tables: query.tables.iter().map(|t| t.0).collect(),
        predicates: query.predicates.clone(),
        deadline_ms,
    })
    .expect("estimate body serializes")
}

/// The wire shape a 200 estimate deserializes back into.
#[derive(serde::Deserialize)]
struct EstimateWire {
    selectivity: f64,
    cardinality: f64,
    error: f64,
    epoch: u64,
    cached: bool,
    quality: String,
    degraded: Option<String>,
    upper_bound: Option<f64>,
}

#[derive(serde::Deserialize)]
struct ErrorWire {
    error: String,
    scope: Option<String>,
    retry_after_ms: Option<f64>,
}

fn body_str(resp: &sqe::server::Response) -> &str {
    std::str::from_utf8(&resp.body).expect("response body is UTF-8")
}

fn parse_estimate(resp: &sqe::server::Response) -> EstimateWire {
    assert_eq!(resp.status, 200, "body: {}", body_str(resp));
    serde_json::from_str(body_str(resp)).expect("estimate response parses")
}

/// Mutation batches over the 3-table schema (inserts + updates only, so
/// row indices stay trivially valid).
fn small_batches(n: usize, ops: usize, seed: u64) -> Vec<DeltaBatch> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    };
    (0..n)
        .map(|seq| {
            let mut per_table: [Vec<RowOp>; 3] = [Vec::new(), Vec::new(), Vec::new()];
            for _ in 0..ops {
                let t = (next() % 3) as usize;
                per_table[t].push(if next() % 2 == 0 {
                    RowOp::Insert {
                        values: vec![Some((next() % 23) as i64), Some((next() % 17) as i64)],
                    }
                } else {
                    RowOp::Update {
                        row: (next() as usize) % 256,
                        column: (next() % 2) as u16,
                        value: Some((next() % 23) as i64),
                    }
                });
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

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

#[test]
fn wire_protocol_is_total_and_answers_match_the_service() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let door = FrontDoor::new(0); // unbounded global pool
    let tenant = add_small_tenant(&door, "acme", 0, open_quota());
    let queries = small_queries();

    // Health route.
    assert_eq!(
        door.handle(&Request::new("GET", "/healthz", "")).status,
        200
    );

    // A valid estimate answers Full, bit-identical to the in-process
    // service under the same (generous) deadline.
    for q in &queries {
        let resp = door.handle(&Request::new(
            "POST",
            "/v1/acme/estimate",
            estimate_body(q, Some(5_000)),
        ));
        let wire = parse_estimate(&resp);
        let reference = tenant.service().estimate(q);
        assert_eq!(wire.quality, "full");
        assert_eq!(wire.degraded, None);
        assert_eq!(wire.epoch, 0);
        assert_eq!(
            wire.selectivity.to_bits(),
            reference.selectivity.to_bits(),
            "wire answer diverged from the service"
        );
        assert!(wire.cardinality.is_finite() && wire.error.is_finite());
        assert!(wire.upper_bound.is_none_or(f64::is_finite));
        let _ = wire.cached;
    }

    // `deadline_ms: null` means "the tenant's ceiling" and still works.
    let resp = door.handle(&Request::new(
        "POST",
        "/v1/acme/estimate",
        estimate_body(&queries[0], None),
    ));
    assert_eq!(parse_estimate(&resp).quality, "full");

    // Metrics route carries per-tenant series for what we just served.
    let metrics = door.handle(&Request::new("GET", "/metrics", ""));
    assert_eq!(metrics.status, 200);
    assert!(
        body_str(&metrics).contains("sqe_rung_answered_total{tenant=\"acme\",rung=\"full\"}"),
        "metrics must carry per-tenant rung series"
    );
    assert!(body_str(&metrics).contains("sqe_global_in_flight 0"));

    // Stats route parses and counts what we just served.
    let stats = door.handle(&Request::new("GET", "/v1/acme/stats", ""));
    assert_eq!(stats.status, 200);
    assert!(body_str(&stats).contains("\"served_total\""));

    // Garbage maps to labeled 4xx, never a panic.
    let deep = format!("{{\"x\":{}", "[".repeat(100_000));
    for (req, want) in [
        (Request::new("POST", "/v1/nobody/estimate", "{}"), 404),
        (Request::new("POST", "/v1/acme/estimate", "not json"), 400),
        // Missing field: the wire protocol has no defaults.
        (
            Request::new("POST", "/v1/acme/estimate", "{\"tables\":[0]}"),
            400,
        ),
        (Request::new("POST", "/v1/acme/ingest", "{\"seq\":0}"), 400),
        // Nesting past the JSON depth bound, even in a skipped field:
        // refused, never a stack overflow.
        (Request::new("POST", "/v1/acme/estimate", deep.clone()), 400),
        (Request::new("POST", "/v1/acme/ingest", deep.clone()), 400),
        // A table or column the tenant's schema does not have.
        (
            Request::new(
                "POST",
                "/v1/acme/estimate",
                "{\"tables\":[99],\"predicates\":[],\"deadline_ms\":null}",
            ),
            400,
        ),
        (
            Request::new(
                "POST",
                "/v1/acme/estimate",
                concat!(
                    "{\"tables\":[0],\"predicates\":[{\"Range\":{\"col\":",
                    "{\"table\":0,\"column\":999},\"lo\":0,\"hi\":5}}],",
                    "\"deadline_ms\":null}"
                ),
            ),
            400,
        ),
        (Request::new("GET", "/v1/acme/estimate", ""), 404),
        (Request::new("DELETE", "/v1/acme/estimate", ""), 405),
        (Request::new("GET", "/no/such/route", ""), 404),
    ] {
        let resp = door.handle(&req);
        assert_eq!(
            resp.status,
            want,
            "{} {}: {}",
            req.method,
            req.target,
            body_str(&resp)
        );
        let err: ErrorWire = serde_json::from_str(body_str(&resp)).expect("error body parses");
        assert!(!err.error.is_empty());
    }
}

// ---------------------------------------------------------------------
// The metrics contract: series names, labels and stats keys
// ---------------------------------------------------------------------

/// `/metrics` and `/v1/<t>/stats` keep every series, label and key for a
/// fixed request sequence driven only through the HTTP routes: estimates
/// with one whole-query cache hit, a quota shed, an ingest, and an
/// estimate at the new epoch. Latency values are masked; the other
/// values pinned here are deterministic.
#[test]
fn metrics_routes_keep_their_series_and_keys() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let door = FrontDoor::new(0);
    add_small_tenant(&door, "acme", 0, open_quota());
    // One token and (almost) no refill: the second request sheds.
    let quota = QuotaConfig {
        rate: 1e-6,
        burst: 1.0,
        max_in_flight: 4,
        deadline_ceiling: Duration::from_secs(60),
    };
    add_small_tenant(&door, "zeta", 1, quota);
    let queries = small_queries();
    let estimate = |tenant: &str, q: &SpjQuery| {
        let target = format!("/v1/{tenant}/estimate");
        door.handle(&Request::new(
            "POST",
            &target,
            estimate_body(q, Some(5_000)),
        ))
    };
    for q in [&queries[0], &queries[1], &queries[0]] {
        assert_eq!(parse_estimate(&estimate("acme", q)).quality, "full");
    }
    assert_eq!(
        parse_estimate(&estimate("zeta", &queries[0])).quality,
        "full"
    );
    assert_eq!(estimate("zeta", &queries[0]).status, 429);
    let batch = serde_json::to_string(&small_batches(1, 8, 0xC0FFEE)[0]).expect("serializes");
    let resp = door.handle(&Request::new("POST", "/v1/acme/ingest", batch));
    assert_eq!(resp.status, 200, "ingest: {}", body_str(&resp));
    let wire = parse_estimate(&estimate("acme", &queries[2]));
    assert_eq!((wire.epoch, wire.quality.as_str()), (1, "full"));

    let metrics = door.handle(&Request::new("GET", "/metrics", ""));
    let masked: String = body_str(&metrics)
        .lines()
        .map(|line| match line.split_once("} ") {
            Some((series, _)) if series.starts_with("sqe_latency_us{") => format!("{series}}} _\n"),
            _ => format!("{line}\n"),
        })
        .collect();
    let want = r#"sqe_rung_attempted_total{tenant="acme",rung="full"} 3
sqe_rung_answered_total{tenant="acme",rung="full"} 3
sqe_estimates_served_total{tenant="acme",rung="full"} 4
sqe_estimates_cached_total{tenant="acme"} 1
sqe_sheds_total{tenant="acme"} 0
sqe_quarantines_total{tenant="acme"} 0
sqe_ingest_epoch{tenant="acme"} 1
sqe_latency_us{tenant="acme",quantile="0.5"} _
sqe_latency_us{tenant="acme",quantile="0.99"} _
sqe_latency_us{tenant="acme",quantile="0.999"} _
sqe_rung_attempted_total{tenant="zeta",rung="full"} 1
sqe_rung_answered_total{tenant="zeta",rung="full"} 1
sqe_estimates_served_total{tenant="zeta",rung="full"} 1
sqe_estimates_cached_total{tenant="zeta"} 0
sqe_sheds_total{tenant="zeta"} 1
sqe_quarantines_total{tenant="zeta"} 0
sqe_ingest_epoch{tenant="zeta"} 0
sqe_latency_us{tenant="zeta",quantile="0.5"} _
sqe_latency_us{tenant="zeta",quantile="0.99"} _
sqe_latency_us{tenant="zeta",quantile="0.999"} _
sqe_global_in_flight 0
sqe_global_max_in_flight 0
"#;
    assert_eq!(masked, want);

    for (tenant, served, cached, sheds, epoch) in [("acme", 4, 1, 0, 1), ("zeta", 1, 0, 1, 0)] {
        let stats = door.handle(&Request::new("GET", &format!("/v1/{tenant}/stats"), ""));
        let body = body_str(&stats);
        let keys = "rungs rung attempted answered served degraded reason count served_total
            cached full_fraction sheds shed_retry_ms_mean shed_retry_ms_max quarantines
            bound_width_mean bound_width_max max_epoch p50_us p99_us p999_us";
        for key in keys.split_whitespace() {
            assert!(body.contains(&format!("\"{key}\":")), "{key} gone: {body}");
        }
        for pinned in [
            r#""rungs":[{"rung":"bound","#.to_string(),
            r#""degraded":[{"reason":"deadline","count":0},"#.to_string(),
            format!(r#""served_total":{served},"cached":{cached},"full_fraction":1.0,"#),
            format!(r#""sheds":{sheds},"#),
            r#""quarantines":0,"bound_width_mean":"#.to_string(),
            format!(r#""max_epoch":{epoch},"#),
        ] {
            assert!(body.contains(&pinned), "{pinned} not in {body}");
        }
    }
}

// ---------------------------------------------------------------------
// The three admission gates and their hints
// ---------------------------------------------------------------------

#[test]
fn each_gate_sheds_with_its_own_scope_and_a_capped_finite_hint() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let door = FrontDoor::new(2);
    let quota = QuotaConfig {
        rate: 50.0,
        burst: 2.0,
        max_in_flight: 1,
        deadline_ceiling: Duration::from_millis(100),
    };
    let tenant = add_small_tenant(&door, "acme", 0, quota);
    let q = &small_queries()[0];
    let shed = |resp: &sqe::server::Response| -> ErrorWire {
        assert_eq!(resp.status, 429, "body: {}", body_str(resp));
        serde_json::from_str(body_str(resp)).expect("429 body parses")
    };
    let cap_ms = tenant.retry_cap().as_secs_f64() * 1e3;

    // Gate 1 — quota: burst of 2 admits two back-to-back requests, the
    // third refuses with the exact bucket refill as its hint.
    let now = Instant::now();
    assert!(tenant.bucket().try_take(now).is_ok());
    assert!(tenant.bucket().try_take(now).is_ok());
    let resp = door.handle(&Request::new(
        "POST",
        "/v1/acme/estimate",
        estimate_body(q, Some(5_000)),
    ));
    let err = shed(&resp);
    assert_eq!(err.error, "overloaded");
    assert_eq!(err.scope.as_deref(), Some("quota"));
    let hint = err.retry_after_ms.expect("shed carries a hint");
    assert!(
        hint > 0.0 && hint <= quota.full_refill().as_secs_f64() * 1e3 + 1.0,
        "quota hint {hint}ms must be within one full refill"
    );

    // Gate 2 — tenant in-flight: hold the tenant's only permit and pay
    // the bucket back so quota passes.
    std::thread::sleep(Duration::from_millis(60)); // refill ≥ 1 token
    let held = tenant.admission().try_acquire().expect("permit free");
    let err = shed(&door.handle(&Request::new(
        "POST",
        "/v1/acme/estimate",
        estimate_body(q, Some(5_000)),
    )));
    assert_eq!(err.scope.as_deref(), Some("tenant"));
    let hint = err.retry_after_ms.expect("hint");
    assert!(
        hint > 0.0 && hint <= cap_ms + 1e-6,
        "tenant hint {hint}ms over cap {cap_ms}ms"
    );
    drop(held);

    // Gate 3 — global: fill the shared pool from outside; the global
    // telemetry hint must still be capped at this tenant's scale.
    std::thread::sleep(Duration::from_millis(60));
    let g1 = door.global_admission().try_acquire().expect("slot");
    let g2 = door.global_admission().try_acquire().expect("slot");
    let err = shed(&door.handle(&Request::new(
        "POST",
        "/v1/acme/estimate",
        estimate_body(q, Some(5_000)),
    )));
    assert_eq!(err.scope.as_deref(), Some("global"));
    let hint = err.retry_after_ms.expect("hint");
    assert!(
        hint > 0.0 && hint <= cap_ms + 1e-6,
        "global hint {hint}ms must be capped per-tenant at {cap_ms}ms"
    );
    drop(g1);
    drop(g2);

    // Recovery: permits back, bucket refilled → Full again.
    std::thread::sleep(Duration::from_millis(60));
    let resp = door.handle(&Request::new(
        "POST",
        "/v1/acme/estimate",
        estimate_body(q, Some(5_000)),
    ));
    assert_eq!(parse_estimate(&resp).quality, "full");
    assert_eq!(tenant.admission().in_flight(), 0);
    assert_eq!(door.global_admission().in_flight(), 0);
}

// ---------------------------------------------------------------------
// Leak regression: mid-request panic with token spent and permits held
// ---------------------------------------------------------------------

#[test]
fn mid_request_panic_leaks_no_quota_token_or_permit() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let door = Arc::new(FrontDoor::new(2));
    let quota = QuotaConfig {
        rate: 1000.0,
        burst: 100.0,
        max_in_flight: 2,
        deadline_ceiling: Duration::from_secs(5),
    };
    let tenant = add_small_tenant(&door, "acme", 0, quota);
    let q = &small_queries()[0];

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // `server::handle` panics after the quota token is spent and the
    // tenant permit is acquired — the worst point to die at. 8 panics,
    // then the site disarms itself.
    failpoint::arm_with("server::handle", Action::Panic, 1, Some(8), 7);
    let mut panics = 0u32;
    for _ in 0..12 {
        let req = Request::new("POST", "/v1/acme/estimate", estimate_body(q, Some(5_000)));
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| door.handle(&req))) {
            Ok(resp) => assert_eq!(resp.status, 200, "body: {}", body_str(&resp)),
            Err(_) => panics += 1,
        }
        // Invariant after *every* request, panicked or not: nothing held.
        assert_eq!(tenant.admission().in_flight(), 0, "tenant permit leaked");
        assert_eq!(
            door.global_admission().in_flight(),
            0,
            "global permit leaked"
        );
    }
    failpoint::disarm_all();
    std::panic::set_hook(prev_hook);
    assert_eq!(panics, 8, "the armed limit fires exactly 8 times");

    // Bucket accounting: every one of the 12 arrivals was admitted (the
    // burst covers them), none refunded, none double-spent.
    assert_eq!(tenant.bucket().admitted(), 12);
    assert_eq!(tenant.bucket().refused(), 0);
    // After one full refill the bucket is back at its burst cap — a
    // leaked token would leave it short, a refund would overflow it.
    let later = Instant::now() + quota.full_refill();
    let tokens = tenant.bucket().tokens(later);
    assert!(
        (tokens - quota.burst).abs() < 1e-6,
        "bucket settled at {tokens}, want burst {}",
        quota.burst
    );

    // Recovery: the same tenant serves Full immediately.
    let resp = door.handle(&Request::new(
        "POST",
        "/v1/acme/estimate",
        estimate_body(q, Some(5_000)),
    ));
    assert_eq!(parse_estimate(&resp).quality, "full");
}

// ---------------------------------------------------------------------
// Isolation: per-tenant installs race cross-tenant estimates
// ---------------------------------------------------------------------

#[test]
fn concurrent_partial_installs_never_bleed_across_tenants() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let door = Arc::new(FrontDoor::new(0));
    let hot = add_small_tenant(&door, "hot", 1, open_quota());
    let cold = add_small_tenant(&door, "cold", 2, open_quota());
    let queries = small_queries();
    let batches = small_batches(24, 10, 0xFEED);

    // Fault-free references: the cold tenant's bits must never move; the
    // hot tenant's final bits must match a clean replay of its stream.
    let cold_reference: Vec<f64> = queries
        .iter()
        .map(|q| cold.service().estimate(q).selectivity)
        .collect();

    let installs_done = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Ingest worker: pushes every batch through the front door.
        {
            let (door, batches, installs_done) = (&door, &batches, &installs_done);
            s.spawn(move || {
                for batch in batches.iter() {
                    let body = serde_json::to_string(batch).expect("batch serializes");
                    let resp = door.handle(&Request::new("POST", "/v1/hot/ingest", body));
                    assert_eq!(resp.status, 200, "ingest: {}", body_str(&resp));
                    installs_done.fetch_add(1, Ordering::Release);
                }
            });
        }
        // Estimate workers race the installs on both tenants.
        for worker in 0..3usize {
            let (door, queries, cold_reference, installs_done) =
                (&door, &queries, &cold_reference, &installs_done);
            s.spawn(move || {
                let mut i = worker;
                while installs_done.load(Ordering::Acquire) < batches_len() {
                    let q = &queries[i % queries.len()];
                    // Cold tenant: epoch 0 and reference bits, always —
                    // someone else's install must never be visible here.
                    let wire = parse_estimate(&door.handle(&Request::new(
                        "POST",
                        "/v1/cold/estimate",
                        estimate_body(q, Some(5_000)),
                    )));
                    assert_eq!(wire.epoch, 0, "cold tenant saw a foreign epoch");
                    if wire.quality == "full" {
                        assert_eq!(
                            wire.selectivity.to_bits(),
                            cold_reference[i % queries.len()].to_bits(),
                            "cold tenant's answer moved during hot tenant's ingest"
                        );
                    }
                    // Hot tenant: the epoch is its own install counter —
                    // never ahead of the installs actually completed.
                    let before = installs_done.load(Ordering::Acquire);
                    let wire = parse_estimate(&door.handle(&Request::new(
                        "POST",
                        "/v1/hot/estimate",
                        estimate_body(q, Some(5_000)),
                    )));
                    let after = installs_done.load(Ordering::Acquire);
                    assert!(
                        wire.epoch >= before.min(wire.epoch) && wire.epoch <= after + 1,
                        "hot epoch {} outside install window [{before}, {after}]",
                        wire.epoch
                    );
                    i += 1;
                }
            });
        }
    });

    // Hot tenant converged: one epoch per batch, and its answers are
    // bit-identical to a clean service over a fault-free replay.
    assert_eq!(hot.service().snapshot().epoch(), batches.len() as u64);
    let mut replay = sqe::core::LiveCatalog::new(
        small_db(1),
        sqe::core::build_pool(&small_db(1), &queries, PoolSpec::ji(1)).expect("pool"),
        DeltaConfig::default(),
    );
    for batch in &batches {
        replay.ingest(batch).expect("replay ingest");
    }
    let clean = EstimationService::new(
        Arc::new(replay.db().clone()),
        replay.catalog().clone(),
        ServiceConfig::default(),
    );
    for q in &queries {
        let wire = parse_estimate(&door.handle(&Request::new(
            "POST",
            "/v1/hot/estimate",
            estimate_body(q, Some(5_000)),
        )));
        assert_eq!(
            wire.selectivity.to_bits(),
            clean.estimate(q).selectivity.to_bits(),
            "hot tenant diverged from a clean replay of its own stream"
        );
    }
    // And the cold tenant still matches its untouched catalog.
    for (q, want) in queries.iter().zip(&cold_reference) {
        let wire = parse_estimate(&door.handle(&Request::new(
            "POST",
            "/v1/cold/estimate",
            estimate_body(q, Some(5_000)),
        )));
        assert_eq!(wire.epoch, 0);
        assert_eq!(wire.selectivity.to_bits(), want.to_bits());
    }
}

/// Number of batches the isolation race drives (shared between the
/// ingest worker and the estimate workers' stop condition).
const fn batches_len() -> u64 {
    24
}

// ---------------------------------------------------------------------
// Server failpoints: lost requests, exact accounting
// ---------------------------------------------------------------------

/// One HTTP exchange over loopback; `None` when the connection was
/// reset/closed without a complete response (an injected loss).
fn tcp_roundtrip(addr: std::net::SocketAddr, raw: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream.write_all(raw).ok()?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out).ok()?;
    let text = String::from_utf8(out).ok()?;
    if text.starts_with("HTTP/1.1 ") {
        Some(text)
    } else {
        None
    }
}

#[test]
fn reactor_failpoints_lose_requests_but_never_accounting() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let door = Arc::new(FrontDoor::new(2));
    let tenant = add_small_tenant(&door, "acme", 0, open_quota());
    let q = &small_queries()[0];
    let handle = sqe::server::spawn(Arc::clone(&door), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    let body = estimate_body(q, Some(5_000));
    let raw = format!(
        "POST /v1/acme/estimate HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );

    // Phase per failpoint: 16 requests at a deterministic 1-in-2 loss.
    let mut ok = [0u32; 3];
    let mut lost = [0u32; 3];
    for (i, site) in ["server::accept", "server::read", "server::respond"]
        .iter()
        .enumerate()
    {
        failpoint::arm_with(site, Action::Error, 2, None, 40 + i as u64);
        for _ in 0..16 {
            match tcp_roundtrip(addr, raw.as_bytes()) {
                Some(resp) => {
                    assert!(resp.contains("200 OK"), "head: {:?}", resp.lines().next());
                    ok[i] += 1;
                }
                None => lost[i] += 1,
            }
        }
        failpoint::disarm(site);
        assert!(ok[i] > 0, "{site}: every request lost at 1-in-2");
        assert!(lost[i] > 0, "{site}: armed failpoint never fired");
    }

    // Drain: the server answers cleanly again after disarming.
    for _ in 0..4 {
        let resp = tcp_roundtrip(addr, raw.as_bytes()).expect("clean after disarm");
        assert!(resp.contains("200 OK"));
    }

    let stats = Arc::clone(handle.stats());
    handle.shutdown();

    // Exact request accounting: every parsed request was either answered
    // or explicitly lost at the respond failpoint; every injected loss
    // was counted at its site.
    let requests = stats.requests.load(Ordering::Relaxed);
    let responses = stats.responses.load(Ordering::Relaxed);
    let respond_failures = stats.respond_failures.load(Ordering::Relaxed);
    let accept_failures = stats.accept_failures.load(Ordering::Relaxed);
    let read_failures = stats.read_failures.load(Ordering::Relaxed);
    let handler_panics = stats.handler_panics.load(Ordering::Relaxed);
    assert_eq!(
        requests,
        responses + respond_failures,
        "a parsed request must be answered or counted lost"
    );
    assert_eq!(handler_panics, 0);
    assert_eq!(accept_failures as u32, lost[0], "accept losses");
    assert_eq!(read_failures as u32, lost[1], "read losses");
    assert_eq!(respond_failures as u32, lost[2], "respond losses");

    // Requests that died at accept/read never reached the bucket; the
    // ones that reached dispatch are all accounted admitted (the open
    // quota refuses nothing), and both permit pools are back to idle.
    assert_eq!(tenant.bucket().admitted(), requests);
    assert_eq!(tenant.bucket().refused(), 0);
    assert_eq!(tenant.admission().in_flight(), 0, "tenant permit leaked");
    assert_eq!(
        door.global_admission().in_flight(),
        0,
        "global permit leaked"
    );
}

// ---------------------------------------------------------------------
// Connections: isolation of a stalled ingest, the cap, and shutdown
// ---------------------------------------------------------------------

/// A keep-alive `POST` of `body` to `path`.
fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads one response off a keep-alive connection: its status and body.
fn read_response(mut stream: &TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..end]).expect("UTF-8 head");
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .expect("Content-Length");
            if buf.len() >= end + 4 + len {
                let status = head[9..12].parse().expect("status code");
                let body = String::from_utf8(buf[end + 4..end + 4 + len].to_vec());
                return (status, body.expect("UTF-8 body"));
            }
        }
        let n = stream.read(&mut chunk).expect("read a response");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Spins until `done` holds; fails after 10 s.
fn wait_until(done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < Duration::from_secs(10), "timed out");
        std::thread::yield_now();
    }
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// One connection's ingest, stalled 500 ms in `delta::apply_batch`, holds
/// only that connection: a warmed estimate for another tenant on a second
/// connection answers while the ingest is still running, within 50 ms.
#[test]
fn stalled_ingest_on_one_connection_never_delays_another() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let door = Arc::new(FrontDoor::new(0));
    let a = add_small_tenant(&door, "a", 1, open_quota());
    add_small_tenant(&door, "b", 2, open_quota());
    let server = sqe::server::spawn(Arc::clone(&door), "127.0.0.1:0").expect("bind");
    let (ingest, estimate) = (connect(server.addr()), connect(server.addr()));
    let estimate_req = post("/v1/b/estimate", &estimate_body(&small_queries()[0], None));
    (&estimate).write_all(&estimate_req).expect("send");
    assert_eq!(read_response(&estimate).0, 200, "warm-up estimate");

    let batch = serde_json::to_string(&small_batches(1, 10, 0xB0B)[0]).expect("batch");
    failpoint::arm_with("delta::apply_batch", Action::Sleep(500), 1, Some(1), 11);
    let sent = Instant::now();
    (&ingest)
        .write_all(&post("/v1/a/ingest", &batch))
        .expect("send");
    // The ingest takes its quota token right before the stall.
    wait_until(|| a.bucket().admitted() == 1);
    let asked = Instant::now();
    (&estimate).write_all(&estimate_req).expect("send");
    let (status, body) = read_response(&estimate);
    let round_trip = asked.elapsed();
    let epoch_meanwhile = a.service().snapshot().epoch();
    let (ingest_status, _) = read_response(&ingest);
    let ingested = sent.elapsed();
    failpoint::disarm_all();

    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "warmed estimate: {body}");
    assert_eq!(epoch_meanwhile, 0, "the estimate waited for the ingest");
    assert_eq!(ingest_status, 200);
    assert_eq!(a.service().snapshot().epoch(), 1);
    assert!(
        ingested >= Duration::from_millis(500),
        "the stall never fired"
    );
    assert!(
        round_trip < Duration::from_millis(50),
        "estimate round trip {round_trip:?} behind a stalled ingest"
    );
    eprintln!("estimate round trip behind a stalled ingest: {round_trip:?}");
}

/// At `MAX_CONNECTIONS` live connections the next one is answered `503`
/// and closed, and once a connection ends its slot serves again.
#[test]
fn connections_past_the_cap_are_refused_until_a_slot_frees() {
    use sqe::server::server::MAX_CONNECTIONS;
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let server = sqe::server::spawn(Arc::new(FrontDoor::new(0)), "127.0.0.1:0").expect("bind");
    let stats = Arc::clone(server.stats());
    let counts = || {
        (
            stats.accepted.load(Ordering::Relaxed),
            stats.refused.load(Ordering::Relaxed),
        )
    };
    let mut held: Vec<_> = (0..MAX_CONNECTIONS)
        .map(|_| connect(server.addr()))
        .collect();
    wait_until(|| counts().0 == MAX_CONNECTIONS as u64);
    let mut refused = connect(server.addr());
    let mut text = String::new();
    refused
        .read_to_string(&mut text)
        .expect("503, then end of stream");
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert_eq!(counts(), (MAX_CONNECTIONS as u64, 1));

    // The freed slot: retry until the server admits instead of refusing.
    drop(held.pop());
    let client = loop {
        let before = counts();
        let client = connect(server.addr());
        wait_until(|| counts() != before);
        if counts().0 > before.0 {
            break client;
        }
    };
    (&client)
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("send");
    assert_eq!(read_response(&client).0, 200);
}

/// `shutdown` and `Drop` return within a second while an idle keep-alive
/// client is connected, bound to loopback and to the unspecified address
/// (where the blocking `accept` is woken through loopback), and the
/// client then reads end of stream.
#[test]
fn shutdown_and_drop_close_idle_clients_promptly() {
    let _guard = failpoint::test_serial_guard();
    failpoint::disarm_all();

    let door = Arc::new(FrontDoor::new(0));
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        for by_drop in [false, true] {
            let server = sqe::server::spawn(Arc::clone(&door), bind).expect("bind");
            let mut client = connect(([127, 0, 0, 1], server.addr().port()).into());
            client
                .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .expect("send");
            assert_eq!(read_response(&client).0, 200);

            let start = Instant::now();
            if by_drop {
                drop(server);
            } else {
                server.shutdown();
            }
            let took = start.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "{bind}, by_drop={by_drop}: took {took:?}"
            );
            let mut rest = Vec::new();
            assert_eq!(client.read_to_end(&mut rest).expect("end of stream"), 0);
        }
    }
}
