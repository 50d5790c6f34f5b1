//! Chaos driver: a timed, randomized fault-injection run against the
//! estimation service, built for the CI `chaos-smoke` job.
//!
//! Arms every workspace failpoint at deterministic rates, then hammers the
//! service from 8 worker threads with randomized budgets (unlimited, tight
//! deadlines, tiny quotas, cancellations) for `--seconds`. A heartbeat
//! watchdog aborts the process if the workers stop making progress — a
//! hang is exactly the failure class this driver exists to catch. The run
//! log goes to stderr and a JSON summary to `results/chaos.json` (the CI
//! artifact).
//!
//! Invariants checked continuously:
//! * every request returns an answer or a clean `Overloaded` shed;
//! * `full`-quality answers are bit-identical to a fault-free reference;
//! * degraded answers always carry a reason;
//!
//! and at the end: with faults disarmed, the service returns to
//! full-quality reference-identical answers.
//!
//! ```text
//! cargo run --release -p sqe-bench --bin chaos [-- --seconds 30]
//! ```

use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::io::{Read, Write};

use serde::Serialize;
use sqe_bench::report::write_json;
use sqe_bench::{Args, Setup, SetupConfig};
use sqe_core::failpoint::{self, Action};
use sqe_core::{CancelToken, DeltaConfig, Quality, SitCatalog};
use sqe_engine::{Database, Predicate, SpjQuery};
use sqe_server::{FrontDoor, QuotaConfig, TenantConfig};
use sqe_service::{Budget, EstimationService, ServiceConfig, ServiceError};

/// Deterministic xorshift64* stream per worker.
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

#[derive(Serialize)]
struct ChaosReport {
    seconds: u64,
    workers: usize,
    requests: u64,
    full: u64,
    degraded: u64,
    sheds: u64,
    quarantines: u64,
    installs: u64,
    /// Full-answer divergences plus label violations observed mid-run.
    violations: u64,
    degrade_reasons: Vec<u64>,
    recovered_full_quality: bool,
    server: ServerPhase,
}

/// Results of the front-end phase: the server's three loss failpoints
/// (`server::accept`, `server::read`, `server::respond`) plus a
/// mid-request `server::handle` panic, driven over real loopback sockets.
#[derive(Serialize)]
struct ServerPhase {
    requests: u64,
    responses: u64,
    lost_accept: u64,
    lost_read: u64,
    lost_respond: u64,
    handler_panics: u64,
    answered_500: u64,
    /// `requests == responses + respond_failures` held exactly.
    accounting_exact: bool,
    /// Tenant + global in-flight pools read zero after the load.
    pools_idle: bool,
    /// A clean request answered 200/full after disarming.
    recovered: bool,
}

/// Drives the TCP front end with all four server failpoints armed and
/// checks that lost requests never corrupt the admission accounting.
fn server_phase(db: &Database, pool: &SitCatalog, workload: &[SpjQuery]) -> ServerPhase {
    #[derive(Serialize)]
    struct Wire {
        tables: Vec<u32>,
        predicates: Vec<Predicate>,
        deadline_ms: Option<u64>,
    }
    let door = Arc::new(FrontDoor::new(8));
    let tenant = door.add_tenant(
        "chaos",
        db.clone(),
        pool.clone(),
        TenantConfig {
            quota: QuotaConfig {
                rate: 1e6,
                burst: 1e6,
                max_in_flight: 8,
                deadline_ceiling: Duration::from_secs(5),
            },
            service: ServiceConfig::default(),
            delta: DeltaConfig::default(),
        },
    );
    let handle = sqe_server::spawn(Arc::clone(&door), "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr();
    let roundtrip = |raw: &[u8]| -> Option<String> {
        let mut stream = std::net::TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        stream.write_all(raw).ok()?;
        let mut out = Vec::new();
        stream.read_to_end(&mut out).ok()?;
        String::from_utf8(out)
            .ok()
            .filter(|t| t.starts_with("HTTP/1.1 "))
    };
    let raw_estimate = |q: &SpjQuery| {
        let body = serde_json::to_string(&Wire {
            tables: q.tables.iter().map(|t| t.0).collect(),
            predicates: q.predicates.clone(),
            deadline_ms: Some(5_000),
        })
        .expect("estimate body");
        format!(
            "POST /v1/chaos/estimate HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };

    // The server threads entered this thread's failpoint scope at
    // `spawn`, so the sites armed here fire on them.
    failpoint::arm_with("server::accept", Action::Error, 4, None, 91);
    failpoint::arm_with("server::read", Action::Error, 4, None, 92);
    failpoint::arm_with("server::respond", Action::Error, 4, None, 93);
    failpoint::arm_with("server::handle", Action::Panic, 6, None, 94);
    let mut ok_200 = 0u64;
    let mut answered_500 = 0u64;
    let mut lost = 0u64;
    for i in 0..160usize {
        let raw = raw_estimate(&workload[i % workload.len()]);
        match roundtrip(raw.as_bytes()) {
            Some(resp) if resp.contains("200 OK") => ok_200 += 1,
            Some(_) => answered_500 += 1,
            None => lost += 1,
        }
    }
    for site in [
        "server::accept",
        "server::read",
        "server::respond",
        "server::handle",
    ] {
        failpoint::disarm(site);
    }

    // Recovery probe after disarming.
    let recovered = roundtrip(raw_estimate(&workload[0]).as_bytes())
        .is_some_and(|r| r.contains("200 OK") && r.contains("\"quality\""));
    let stats = Arc::clone(handle.stats());
    handle.shutdown();

    let requests = stats.requests.load(Ordering::Relaxed);
    let responses = stats.responses.load(Ordering::Relaxed);
    let respond_failures = stats.respond_failures.load(Ordering::Relaxed);
    let phase = ServerPhase {
        requests,
        responses,
        lost_accept: stats.accept_failures.load(Ordering::Relaxed),
        lost_read: stats.read_failures.load(Ordering::Relaxed),
        lost_respond: respond_failures,
        handler_panics: stats.handler_panics.load(Ordering::Relaxed),
        answered_500,
        accounting_exact: requests == responses + respond_failures,
        pools_idle: tenant.admission().in_flight() == 0 && door.global_admission().in_flight() == 0,
        recovered,
    };
    eprintln!(
        "chaos: server phase — {ok_200} ok / {answered_500} 500s / {lost} lost \
         (accept {} read {} respond {} panics {}), accounting_exact={} pools_idle={}",
        phase.lost_accept,
        phase.lost_read,
        phase.lost_respond,
        phase.handler_panics,
        phase.accounting_exact,
        phase.pools_idle
    );
    phase
}

fn random_budget(rng: &mut Rng) -> Budget {
    match rng.next() % 4 {
        0 => Budget::unlimited(),
        1 => Budget::unlimited().with_deadline(Duration::from_micros(50 + rng.next() % 5000)),
        2 => Budget::unlimited().with_quota(rng.next() % 500),
        _ => {
            let c = CancelToken::new();
            if rng.next().is_multiple_of(2) {
                c.cancel();
            }
            Budget::unlimited().with_cancel(c)
        }
    }
}

fn main() {
    let args = Args::parse();
    let seconds: u64 = args.get("seconds", 30);
    let setup = Setup::new(SetupConfig::from_args(&args));
    let joins: usize = args.get("joins", 3);
    let pool_i: usize = args.get("pool", 1);

    eprintln!("chaos: generating workload and J{pool_i} pool ...");
    let workload = setup.workload(joins);
    let pool = setup.pool(&workload, pool_i);
    let db = Arc::new(setup.snowflake.db);
    let svc = Arc::new(EstimationService::new(
        Arc::clone(&db),
        pool.clone(),
        ServiceConfig {
            max_in_flight: 32,
            ..ServiceConfig::default()
        },
    ));

    // Fault-free reference answers, computed before any failpoint arms.
    let reference: Vec<f64> = workload
        .iter()
        .map(|q| svc.estimate(q).selectivity)
        .collect();
    // The reference pass warmed the snapshot cache; start chaos cold.
    svc.install(pool.clone(), None);

    // Silence the panic reports injected faults produce on purpose, but
    // let genuine failures through.
    failpoint::quiet_injected_panics();
    failpoint::arm_with("dp::solve_mask", Action::Panic, 20_000, None, 11);
    failpoint::arm_with("service::cache_insert", Action::Sleep(1), 256, None, 33);
    failpoint::arm_with("service::install", Action::Sleep(2), 4, None, 44);
    // The bound sketch runs on every answer, inside the service's panic
    // isolation, so its failpoint exercises the backend-panic floor under
    // load too.
    failpoint::arm_with("pessimistic::bound", Action::Panic, 10_000, None, 55);
    eprintln!("chaos: armed {:?}", failpoint::armed_sites());

    let heartbeat = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let full = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);
    let sheds = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let workers = 8usize;

    // Watchdog: if no worker completes a request for 30 s, the run is
    // hung — print a diagnosis and abort with a nonzero exit code.
    let watchdog = {
        let heartbeat = Arc::clone(&heartbeat);
        std::thread::spawn(move || {
            let mut last = 0u64;
            loop {
                std::thread::sleep(Duration::from_secs(5));
                let now = heartbeat.load(Ordering::Relaxed);
                if now == u64::MAX {
                    return; // run finished
                }
                if now == last {
                    let mut strikes = 1;
                    while strikes < 6 {
                        std::thread::sleep(Duration::from_secs(5));
                        let again = heartbeat.load(Ordering::Relaxed);
                        if again == u64::MAX {
                            return;
                        }
                        if again != now {
                            break;
                        }
                        strikes += 1;
                    }
                    if strikes >= 6 {
                        eprintln!("chaos: WATCHDOG FIRED — no progress for 30 s, aborting");
                        exit(2);
                    }
                }
                last = heartbeat.load(Ordering::Relaxed);
            }
        })
    };

    let faults = failpoint::Scope::current();
    std::thread::scope(|s| {
        for worker in 0..workers as u64 {
            let (svc, workload, reference, pool) = (&svc, &workload, &reference, &pool);
            let (heartbeat, violations, full, degraded, sheds, stop) =
                (&heartbeat, &violations, &full, &degraded, &sheds, &stop);
            let faults = faults.clone();
            s.spawn(move || {
                faults.enter();
                let mut rng = Rng(0xD1B54A32D192ED03 ^ (worker + 1));
                let mut round = 0u64;
                while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                    round += 1;
                    if worker == 0 && round.is_multiple_of(64) {
                        // Concurrent snapshot swaps keep caches cold and
                        // race installs against in-flight estimates.
                        svc.install(pool.clone(), None);
                    }
                    let idx = (rng.next() as usize) % workload.len();
                    let outcome =
                        svc.estimate_with_budget(&workload[idx], &random_budget(&mut rng));
                    match outcome {
                        Ok(e) => {
                            if e.quality == Quality::Full {
                                full.fetch_add(1, Ordering::Relaxed);
                                if e.selectivity.to_bits() != reference[idx].to_bits() {
                                    eprintln!(
                                        "chaos: VIOLATION — full answer for query {idx} \
                                         diverged from reference"
                                    );
                                    violations.fetch_add(1, Ordering::Relaxed);
                                }
                            } else {
                                degraded.fetch_add(1, Ordering::Relaxed);
                                if e.degraded_reason.is_none() {
                                    eprintln!(
                                        "chaos: VIOLATION — degraded answer without a reason"
                                    );
                                    violations.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(ServiceError::Overloaded { .. }) => {
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    heartbeat.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Progress log every ~2 s while the workers run.
        while Instant::now() < deadline {
            std::thread::sleep(
                Duration::from_secs(2).min(deadline.saturating_duration_since(Instant::now())),
            );
            eprintln!(
                "chaos: t={:>4.1}s requests={} full={} degraded={} sheds={}",
                seconds as f64
                    - deadline
                        .saturating_duration_since(Instant::now())
                        .as_secs_f64(),
                heartbeat.load(Ordering::Relaxed),
                full.load(Ordering::Relaxed),
                degraded.load(Ordering::Relaxed),
                sheds.load(Ordering::Relaxed),
            );
        }
    });
    heartbeat.store(u64::MAX, Ordering::Relaxed);
    let _ = watchdog.join();

    failpoint::disarm_all();

    // Recovery: faults off, no budget — every answer must be Full and
    // bit-identical to the fault-free reference.
    let mut recovered = true;
    for (i, (q, want)) in workload.iter().zip(&reference).enumerate() {
        match svc.estimate_with_budget(q, &Budget::unlimited()) {
            Ok(e) if e.quality == Quality::Full && e.selectivity.to_bits() == want.to_bits() => {}
            Ok(e) => {
                eprintln!(
                    "chaos: VIOLATION — post-chaos query {i} came back {:?} instead of a \
                     reference-identical full answer",
                    e.quality
                );
                recovered = false;
            }
            Err(e) => {
                eprintln!("chaos: VIOLATION — post-chaos query {i} shed: {e}");
                recovered = false;
            }
        }
    }

    // Front-end phase: server failpoints over real sockets.
    let server = server_phase(&db, &pool, &workload);

    let stats = svc.stats();
    let report = ChaosReport {
        seconds,
        workers,
        requests: full.load(Ordering::Relaxed)
            + degraded.load(Ordering::Relaxed)
            + sheds.load(Ordering::Relaxed),
        full: full.load(Ordering::Relaxed),
        degraded: degraded.load(Ordering::Relaxed),
        sheds: sheds.load(Ordering::Relaxed),
        quarantines: stats.quarantines,
        installs: stats.installs,
        violations: violations.load(Ordering::Relaxed),
        degrade_reasons: stats.degrade_reasons.to_vec(),
        recovered_full_quality: recovered,
        server,
    };
    println!(
        "chaos: done — {} requests ({} full / {} degraded / {} sheds), \
         {} quarantines, {} installs",
        report.requests,
        report.full,
        report.degraded,
        report.sheds,
        report.quarantines,
        report.installs
    );
    match write_json("chaos", &report) {
        Ok(p) => println!("chaos: report written to {}", p.display()),
        Err(e) => eprintln!("chaos: could not write report: {e}"),
    }

    let server_ok = report.server.accounting_exact
        && report.server.pools_idle
        && report.server.recovered
        && report.server.lost_accept > 0
        && report.server.lost_read > 0
        && report.server.lost_respond > 0
        && report.server.handler_panics > 0;
    if report.violations > 0 || !recovered || report.full == 0 || !server_ok {
        eprintln!("chaos: FAILED");
        exit(1);
    }
    println!("chaos: PASS — no hangs, no mislabels, exact front-end accounting, clean recovery");
}
