//! Multi-tenant server soak: N tenants × sustained mixed estimate/ingest
//! load through the `sqe-server` front door, with one tenant driven to
//! 2× its quota.
//!
//! The soak asserts the front door's operational contract and exits
//! non-zero on any violation (this is the CI `soak-smoke` job):
//!
//! * under 2× overload the hot tenant **degrades instead of failing**:
//!   nonzero non-`full` rungs (the pressure-compressed deadline pushes
//!   its wide queries down the ladder) and nonzero sheds, every shed
//!   carrying a finite, capped `retry_after`;
//! * every other tenant is **isolated**: ≥ 99% of its answers stay at
//!   `full` quality and its p99 latency holds under its deadline-ceiling
//!   SLO throughout the overload;
//! * per-tenant ingest advances per-tenant epochs (observed by that
//!   tenant's answers only);
//! * no accounting leaks: after the load stops, the global admission
//!   pool and every tenant's in-flight pool read zero;
//! * the TCP server answers real sockets (a smoke pass over loopback:
//!   health, metrics, one estimate per tenant).
//!
//! The hot tenant's deadline ceiling is *calibrated*, not hardcoded: the
//! soak measures the median full-DP cost `T` of its wide queries on this
//! machine and sets `ceiling = 3 T`, so at pressure ≈ 2 the compressed
//! deadline (`ceiling / 4 = 0.75 T`) reliably binds while an in-quota
//! request keeps 3× slack — the assertion is about the *mechanism*, not
//! about one machine's speed.
//!
//! ```text
//! cargo run --release -p sqe-bench --bin soak [-- --tenants 4 --baseline-secs 3 --overload-secs 8]
//! ```
//!
//! Results land in `results/soak.json`.

use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqe_bench::report::{render_table, write_json};
use sqe_bench::Args;
use sqe_core::{build_pool, DeltaConfig, PoolSpec, Quality};
use sqe_datagen::{
    generate_mutations, generate_workload, MutationConfig, MutationStream, Tpcc, TpccConfig,
    WorkloadConfig,
};
use sqe_engine::{Predicate, SpjQuery};
use sqe_server::{FrontDoor, QuotaConfig, Request, Tenant, TenantConfig};
use sqe_service::{ServiceConfig, ServiceStatsSnapshot};

/// Wire shape of `POST /v1/<tenant>/estimate` (mirrors the server's
/// request schema; every field is required, `deadline_ms` nullable).
#[derive(serde::Serialize)]
struct WireEstimate {
    tables: Vec<u32>,
    predicates: Vec<Predicate>,
    deadline_ms: Option<u64>,
}

/// One tenant's phase-delta statistics.
#[derive(Debug, Clone, serde::Serialize)]
struct PhaseStats {
    served: u64,
    full_fraction: f64,
    /// Served answers per rung over the phase, worst-to-best.
    rung_mix: Vec<RungShare>,
    sheds: u64,
    shed_retry_ms_max: f64,
    /// Cumulative (run-so-far) latency quantiles at phase end, µs.
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_epoch: u64,
    http_200: u64,
    http_429: u64,
}

#[derive(Debug, Clone, serde::Serialize)]
struct RungShare {
    rung: String,
    served: u64,
}

#[derive(Debug, serde::Serialize)]
struct TenantReport {
    name: String,
    hot: bool,
    rate: f64,
    ceiling_ms: f64,
    baseline: PhaseStats,
    overload: PhaseStats,
}

#[derive(Debug, serde::Serialize)]
struct SoakReport {
    tenants: usize,
    baseline_secs: f64,
    overload_secs: f64,
    calibrated_wide_cost_us: u64,
    global_max_in_flight: usize,
    tenant_reports: Vec<TenantReport>,
    global_in_flight_after: usize,
    tenant_in_flight_after: Vec<usize>,
    tcp_requests: usize,
    tcp_ok: usize,
    violations: Vec<String>,
}

/// Client-side counts for one phase.
#[derive(Debug, Default, Clone, Copy)]
struct ClientCounts {
    http_200: u64,
    http_429: u64,
    http_other: u64,
}

/// Jitters every range predicate's bounds so each request misses the
/// whole-query cache (a fixed workload would be absorbed by it and the
/// soak would measure cache hits, not estimation).
fn jitter(query: &SpjQuery, rng: &mut StdRng) -> Vec<Predicate> {
    query
        .predicates
        .iter()
        .map(|p| match *p {
            Predicate::Range { col, lo, hi } => {
                let shift = rng.gen_range(0..=1_000);
                Predicate::Range {
                    col,
                    lo: lo - shift,
                    hi: hi + rng.gen_range(0..=1_000),
                }
            }
            other => other,
        })
        .collect()
}

/// Drives one tenant at `rate` requests/second for `secs`, mixing one
/// ingest batch every `ingest_every` requests into the estimate stream.
#[allow(clippy::too_many_arguments)]
fn drive(
    door: &FrontDoor,
    tenant: &str,
    queries: &[SpjQuery],
    stream: &MutationStream,
    next_batch: &mut usize,
    rate: f64,
    secs: f64,
    ingest_every: usize,
    seed: u64,
) -> ClientCounts {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = ClientCounts::default();
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut next = start;
    let mut sent = 0usize;
    while start.elapsed().as_secs_f64() < secs {
        sent += 1;
        let req = if sent.is_multiple_of(ingest_every) && !stream.batches.is_empty() {
            let batch = &stream.batches[*next_batch % stream.batches.len()];
            *next_batch += 1;
            let body = serde_json::to_string(batch).expect("batch serializes");
            Request::new("POST", &format!("/v1/{tenant}/ingest"), body)
        } else {
            let q = &queries[rng.gen_range(0..queries.len())];
            let wire = WireEstimate {
                tables: q.tables.iter().map(|t| t.0).collect(),
                predicates: jitter(q, &mut rng),
                deadline_ms: None,
            };
            let body = serde_json::to_string(&wire).expect("estimate serializes");
            Request::new("POST", &format!("/v1/{tenant}/estimate"), body)
        };
        let resp = door.handle(&req);
        match resp.status {
            200 => counts.http_200 += 1,
            429 => counts.http_429 += 1,
            _ => counts.http_other += 1,
        }
        next += period;
        match next.checked_duration_since(Instant::now()) {
            Some(d) => std::thread::sleep(d),
            None => next = Instant::now(), // fell behind; don't burst-catch-up
        }
    }
    counts
}

fn phase_stats(
    before: &ServiceStatsSnapshot,
    after: &ServiceStatsSnapshot,
    counts: ClientCounts,
) -> PhaseStats {
    let rung_mix: Vec<RungShare> = Quality::ALL
        .iter()
        .map(|&q| RungShare {
            rung: q.label().to_string(),
            served: after.quality_count(q) - before.quality_count(q),
        })
        .collect();
    let served = after.estimates - before.estimates;
    let full = after.quality_count(Quality::Full) - before.quality_count(Quality::Full);
    PhaseStats {
        served,
        full_fraction: if served == 0 {
            1.0
        } else {
            full as f64 / served as f64
        },
        rung_mix,
        sheds: after.sheds - before.sheds,
        shed_retry_ms_max: after.shed_retry_ns_max as f64 / 1e6,
        p50_us: after.latency.quantile_us(0.50),
        p99_us: after.latency.quantile_us(0.99),
        p999_us: after.latency.quantile_us(0.999),
        max_epoch: after.max_epoch,
        http_200: counts.http_200,
        http_429: counts.http_429,
    }
}

/// One HTTP exchange over a real loopback socket (Connection: close).
fn tcp_roundtrip(addr: std::net::SocketAddr, raw: &[u8]) -> Option<String> {
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream.write_all(raw).ok()?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out).ok()?;
    String::from_utf8(out).ok()
}

fn main() {
    let args = Args::parse();
    let n_tenants: usize = args.get("tenants", 4);
    let baseline_secs: f64 = args.get("baseline-secs", 3.0);
    let overload_secs: f64 = args.get("overload-secs", 8.0);
    let scale: f64 = args.get("scale", 0.002);
    let cold_rate: f64 = args.get("cold-rate", 40.0);
    assert!(
        n_tenants >= 2,
        "need a hot tenant and at least one cold one"
    );

    let mut failures: Vec<String> = Vec::new();
    let check = |cond: bool, msg: String, failures: &mut Vec<String>| {
        if !cond {
            failures.push(msg);
        }
    };

    // --- Tenants: own TPC-C database + J2 pool each -------------------
    eprintln!("building {n_tenants} tenant catalogs ...");
    let door = Arc::new(FrontDoor::new(16));
    let mut tenants: Vec<Arc<Tenant>> = Vec::new();
    let mut workloads: Vec<Vec<SpjQuery>> = Vec::new();
    let mut streams: Vec<MutationStream> = Vec::new();
    for i in 0..n_tenants {
        let hot = i == 0;
        let t = Tpcc::generate(TpccConfig {
            scale,
            min_rows: 120,
            seed: 0x50AC_0000 + i as u64,
            ..TpccConfig::default()
        });
        // The hot tenant runs wide queries (deep joins + many filters) so
        // its full DP is expensive enough for deadline compression to
        // bite; cold tenants run narrow, fast ones.
        let wl = generate_workload(
            &t.db,
            &t.join_edges,
            &t.filter_columns,
            WorkloadConfig {
                queries: 8,
                joins: if hot { 4 } else { 2 },
                filters: if hot { 8 } else { 2 },
                target_selectivity: 0.05,
                seed: 0x50AC_1000 + i as u64,
            },
        );
        let pool = build_pool(&t.db, &wl, PoolSpec::ji(2)).expect("pool build");
        let stream = generate_mutations(
            &t.db,
            MutationConfig {
                ops: 600,
                batch_size: 20,
                seed: 0x50AC_2000 + i as u64,
                drift: 0.5,
            },
        );
        // Quota filled in below once the hot ceiling is calibrated.
        let tenant = door.add_tenant(
            &format!("t{i}"),
            t.db.clone(),
            pool,
            TenantConfig {
                quota: QuotaConfig {
                    rate: cold_rate,
                    burst: 10.0,
                    max_in_flight: 2,
                    deadline_ceiling: Duration::from_millis(50),
                },
                service: ServiceConfig::default(),
                delta: DeltaConfig::default(),
            },
        );
        tenants.push(tenant);
        workloads.push(wl);
        streams.push(stream);
    }

    // --- Calibrate the hot tenant's ceiling ---------------------------
    // Median uncached full-DP cost of its wide queries on *this* machine.
    let mut rng = StdRng::seed_from_u64(0xCA11);
    let mut costs: Vec<Duration> = (0..6)
        .map(|k| {
            let q = &workloads[0][k % workloads[0].len()];
            let jq = SpjQuery::new(q.tables.clone(), jitter(q, &mut rng)).expect("jittered query");
            let t0 = Instant::now();
            tenants[0].service().estimate(&jq);
            t0.elapsed()
        })
        .collect();
    costs.sort();
    let wide_cost = costs[costs.len() / 2];
    let ceiling = (wide_cost * 3).clamp(Duration::from_millis(1), Duration::from_secs(1));
    // The hot tenant's sustainable rate is tied to the measured cost so a
    // single driver thread can actually reach 2× overload.
    let hot_rate = (0.25 / wide_cost.as_secs_f64()).clamp(5.0, 100.0);
    eprintln!(
        "calibrated: wide full-DP ≈ {wide_cost:?}, hot ceiling {ceiling:?}, hot rate {hot_rate:.1}/s"
    );
    // Re-register the hot tenant with the calibrated quota (same catalog).
    let t0_data = Tpcc::generate(TpccConfig {
        scale,
        min_rows: 120,
        seed: 0x50AC_0000,
        ..TpccConfig::default()
    });
    let pool0 = build_pool(&t0_data.db, &workloads[0], PoolSpec::ji(2)).expect("pool rebuild");
    tenants[0] = door.add_tenant(
        "t0",
        t0_data.db.clone(),
        pool0,
        TenantConfig {
            quota: QuotaConfig {
                rate: hot_rate,
                burst: (hot_rate * 0.25).max(5.0),
                max_in_flight: 2,
                deadline_ceiling: ceiling,
            },
            service: ServiceConfig::default(),
            delta: DeltaConfig::default(),
        },
    );

    let rates: Vec<f64> = (0..n_tenants)
        .map(|i| if i == 0 { hot_rate } else { cold_rate })
        .collect();

    // --- Phase 1: everyone inside quota (0.8×) ------------------------
    eprintln!("phase 1: baseline, {baseline_secs}s ...");
    let snap_before: Vec<_> = tenants.iter().map(|t| t.service().stats()).collect();
    let mut batch_cursors = vec![0usize; n_tenants];
    let baseline_counts: Vec<ClientCounts> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_tenants)
            .map(|i| {
                let door = &door;
                let wl = &workloads[i];
                let stream = &streams[i];
                let rate = rates[i] * 0.8;
                s.spawn(move || {
                    let mut cursor = 0usize;
                    drive(
                        door,
                        &format!("t{i}"),
                        wl,
                        stream,
                        &mut cursor,
                        rate,
                        baseline_secs,
                        10,
                        0xB45E + i as u64,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let snap_mid: Vec<_> = tenants.iter().map(|t| t.service().stats()).collect();

    // --- Phase 2: tenant 0 at 2× its quota ----------------------------
    eprintln!("phase 2: overload t0 at 2x, {overload_secs}s ...");
    let overload_counts: Vec<ClientCounts> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_tenants)
            .map(|i| {
                let door = &door;
                let wl = &workloads[i];
                let stream = &streams[i];
                let cursor0 = batch_cursors[i];
                let rate = if i == 0 {
                    rates[0] * 2.0
                } else {
                    rates[i] * 0.8
                };
                s.spawn(move || {
                    let mut cursor = cursor0;
                    let c = drive(
                        door,
                        &format!("t{i}"),
                        wl,
                        stream,
                        &mut cursor,
                        rate,
                        overload_secs,
                        10,
                        0x0E71 + i as u64,
                    );
                    (c, cursor)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                let (c, cursor) = h.join().expect("client");
                batch_cursors[i] = cursor;
                c
            })
            .collect()
    });
    let snap_after: Vec<_> = tenants.iter().map(|t| t.service().stats()).collect();

    // --- Assemble per-tenant reports ----------------------------------
    let mut tenant_reports = Vec::new();
    for i in 0..n_tenants {
        tenant_reports.push(TenantReport {
            name: format!("t{i}"),
            hot: i == 0,
            rate: rates[i],
            ceiling_ms: if i == 0 {
                ceiling.as_secs_f64() * 1e3
            } else {
                50.0
            },
            baseline: phase_stats(&snap_before[i], &snap_mid[i], baseline_counts[i]),
            overload: phase_stats(&snap_mid[i], &snap_after[i], overload_counts[i]),
        });
    }

    // --- Acceptance: overload degrades the hot tenant only -----------
    let hot = &tenant_reports[0];
    let hot_degraded: u64 = hot
        .overload
        .rung_mix
        .iter()
        .filter(|r| r.rung != Quality::Full.label())
        .map(|r| r.served)
        .sum();
    check(
        hot_degraded > 0,
        format!(
            "hot tenant never degraded under 2x overload (rung mix {:?})",
            hot.overload.rung_mix
        ),
        &mut failures,
    );
    check(
        hot.overload.sheds > 0,
        "hot tenant was never shed under 2x overload".to_string(),
        &mut failures,
    );
    let retry_cap_ms = tenants[0].retry_cap().as_secs_f64() * 1e3;
    check(
        hot.overload.shed_retry_ms_max > 0.0
            && hot.overload.shed_retry_ms_max <= retry_cap_ms + 1e-6,
        format!(
            "hot retry_after {}ms not in (0, cap {retry_cap_ms}ms]",
            hot.overload.shed_retry_ms_max
        ),
        &mut failures,
    );
    for tr in &tenant_reports[1..] {
        check(
            tr.overload.full_fraction >= 0.99,
            format!(
                "cold tenant {} degraded during overload: full fraction {:.4}",
                tr.name, tr.overload.full_fraction
            ),
            &mut failures,
        );
        check(
            tr.overload.p99_us <= 50_000,
            format!(
                "cold tenant {} p99 {}us exceeds its 50ms SLO",
                tr.name, tr.overload.p99_us
            ),
            &mut failures,
        );
        check(
            tr.overload.max_epoch > 0,
            format!("cold tenant {} never advanced its ingest epoch", tr.name),
            &mut failures,
        );
    }
    check(
        hot.overload.max_epoch > 0,
        "hot tenant never advanced its ingest epoch".to_string(),
        &mut failures,
    );

    // --- Leak check: every pool back to idle --------------------------
    let global_in_flight = door.global_admission().in_flight();
    check(
        global_in_flight == 0,
        format!("global admission leaked: {global_in_flight} in flight after load stopped"),
        &mut failures,
    );
    let tenant_in_flight: Vec<usize> = tenants.iter().map(|t| t.admission().in_flight()).collect();
    for (i, &n) in tenant_in_flight.iter().enumerate() {
        check(
            n == 0,
            format!("tenant t{i} admission leaked: {n} in flight"),
            &mut failures,
        );
    }

    // --- TCP smoke: the server answers real sockets -------------------
    // The hot tenant ends phase 2 with its bucket drained: wait one
    // refill period, so its probe below is admitted instead of shed.
    std::thread::sleep(Duration::from_secs_f64(1.0 / hot_rate));
    eprintln!("tcp smoke ...");
    let handle = sqe_server::spawn(Arc::clone(&door), "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr();
    let mut tcp_requests = 0usize;
    let mut tcp_ok = 0usize;
    let mut probe = |raw: &[u8], want: &str, failures: &mut Vec<String>| {
        tcp_requests += 1;
        match tcp_roundtrip(addr, raw) {
            Some(resp) if resp.contains(want) => tcp_ok += 1,
            Some(resp) => failures.push(format!(
                "tcp: missing {want:?} in response head {:?}",
                resp.lines().next().unwrap_or("")
            )),
            None => failures.push("tcp: roundtrip failed".to_string()),
        }
    };
    probe(
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        "200 OK",
        &mut failures,
    );
    probe(
        b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        "sqe_rung_answered_total",
        &mut failures,
    );
    for (i, workload) in workloads.iter().enumerate().take(n_tenants) {
        let q = &workload[0];
        let wire = WireEstimate {
            tables: q.tables.iter().map(|t| t.0).collect(),
            predicates: q.predicates.clone(),
            deadline_ms: Some(1_000),
        };
        let body = serde_json::to_string(&wire).expect("estimate serializes");
        let raw = format!(
            "POST /v1/t{i}/estimate HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        probe(raw.as_bytes(), "\"quality\"", &mut failures);
    }
    handle.shutdown();

    // --- Report --------------------------------------------------------
    let rows: Vec<Vec<String>> = tenant_reports
        .iter()
        .map(|tr| {
            vec![
                tr.name.clone(),
                if tr.hot { "2.0x" } else { "0.8x" }.to_string(),
                format!("{}", tr.overload.served),
                format!("{:.3}", tr.overload.full_fraction),
                format!("{}", tr.overload.sheds),
                format!("{:.1}", tr.overload.shed_retry_ms_max),
                format!("{}", tr.overload.p99_us),
                format!("{}", tr.overload.max_epoch),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["tenant", "drive", "served", "full%", "sheds", "retry_ms", "p99_us", "epoch"],
            &rows
        )
    );

    let report = SoakReport {
        tenants: n_tenants,
        baseline_secs,
        overload_secs,
        calibrated_wide_cost_us: wide_cost.as_micros() as u64,
        global_max_in_flight: door.global_admission().max_in_flight(),
        tenant_reports,
        global_in_flight_after: global_in_flight,
        tenant_in_flight_after: tenant_in_flight,
        tcp_requests,
        tcp_ok,
        violations: failures.clone(),
    };
    match write_json("soak", &report) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write soak.json: {e}");
            failures.push(format!("write soak.json: {e}"));
        }
    }

    if failures.is_empty() {
        eprintln!("soak: all checks passed");
    } else {
        eprintln!("soak: {} violation(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
