//! `tenants-http`: repeated-plan traffic through the front door.
//!
//! One client thread drives one keep-alive TCP connection to
//! [`sqe_server::spawn`], serving four TPC-C tenants built as the soak
//! bench builds them (a wide "hot" tenant and three narrow ones). The
//! estimates come from each tenant's warmed working set, so the
//! whole-query cache answers them; every [`INGEST_EVERY`] requests one
//! delta batch goes to tenant `t1`, whose partial install drops the
//! cache entries it touched. Each pass re-registers `t1` from its
//! pristine catalog, so every pass applies the same batches to the same
//! data. The reactor runs beneath the client (see [`Placement`]) in the
//! timed run and on a CPU of its own in the traced run.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqe_core::{build_pool, Budget, DeltaConfig, PoolSpec, SelectivityEstimator, SitCatalog};
use sqe_datagen::{
    generate_mutations, generate_workload, MutationConfig, Tpcc, TpccConfig, WorkloadConfig,
};
use sqe_engine::delta::DeltaBatch;
use sqe_engine::{Database, Predicate, SpjQuery};
use sqe_server::http::{parse_request, Parse};
use sqe_server::{spawn, DoorError, FrontDoor, QuotaConfig, ServerHandle, TenantConfig};
use sqe_service::{CatalogSnapshot, ServiceConfig};

use crate::checks::{out_dir, Outcome};
use crate::snow::SetupTimes;
use crate::stats::{median, median_us, ratio, Passes, FAILED_NS};
use crate::trace::Tracer;
use crate::Args;

const TENANTS: usize = 4;
/// Working-set sizes: the wide hot tenant's queries, each narrow
/// tenant's. Enough instances that the seed changes little but the
/// instances.
const HOT_SET: usize = 16;
const COLD_SET: usize = 32;
const PASS_REQUESTS: usize = 5_000;
/// Requests between two ingest batches.
const INGEST_EVERY: usize = 1_000;
/// The tenant receiving every ingest batch.
const INGESTED: usize = 1;
const BATCH_OPS: usize = 20;
/// Generous enough that no request is refused or degraded: this workload
/// measures the serving path, not overload.
const QUOTA: QuotaConfig = QuotaConfig {
    rate: 1e9,
    burst: 1e9,
    max_in_flight: 4,
    deadline_ceiling: Duration::from_secs(10),
};
/// Every this many estimate requests of a traced pass is replayed
/// in-process: enough for steady layer medians, few enough to keep the
/// spans of a run in memory.
const REPLAY_EVERY: usize = 4;
/// A round trip longer than `FrontDoor::handle` by this much waited on
/// the reactor's idle sleep rather than on work.
const IDLE_WAIT: Duration = Duration::from_micros(400);

fn tenant_config() -> TenantConfig {
    TenantConfig {
        quota: QUOTA,
        service: ServiceConfig::default(),
        delta: DeltaConfig::default(),
    }
}

fn name(i: usize) -> String {
    format!("t{i}")
}

/// Wire shape of `POST /v1/<tenant>/estimate`.
#[derive(serde::Serialize)]
struct WireEstimate {
    tables: Vec<u32>,
    predicates: Vec<Predicate>,
    deadline_ms: Option<u64>,
}

#[derive(serde::Deserialize)]
struct EstimateReply {
    selectivity: f64,
    epoch: u64,
    cached: bool,
    quality: String,
    degraded: Option<String>,
}

#[derive(serde::Deserialize)]
struct IngestReply {
    epoch: u64,
}

#[derive(serde::Deserialize)]
struct RefusalReply {
    scope: Option<String>,
}

fn wire_request(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection; a request is sent only after the previous
/// response has been read completely (a closed loop).
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends `request` and returns the status and body of its response.
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end]).map_err(bad_response)?;
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse::<u16>().ok())
                    .ok_or_else(|| bad_response("no status"))?;
                let length = head
                    .lines()
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse::<usize>().ok())?
                    })
                    .ok_or_else(|| bad_response("no content-length"))?;
                let body_start = head_end + 4;
                if self.buf.len() >= body_start + length {
                    return Ok((status, self.buf[body_start..body_start + length].to_vec()));
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad_response("connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn parse<T: serde::Deserialize>(body: &[u8]) -> Option<T> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

fn bad_response(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// The load generator's inputs, made once per run.
struct Inputs {
    working: Vec<Vec<SpjQuery>>,
    /// Wire bytes of every working-set query.
    requests: Vec<Vec<Vec<u8>>>,
    batches: Vec<DeltaBatch>,
    batch_requests: Vec<Vec<u8>>,
}

impl Inputs {
    fn new(seed: u64, working: Vec<Vec<SpjQuery>>, ingested: &Database) -> Inputs {
        let batches = generate_mutations(
            ingested,
            MutationConfig {
                ops: PASS_REQUESTS / INGEST_EVERY * BATCH_OPS,
                batch_size: BATCH_OPS,
                seed: seed ^ 0xD17A,
                drift: 0.5,
            },
        )
        .batches;
        let requests = working
            .iter()
            .enumerate()
            .map(|(i, qs)| {
                qs.iter()
                    .map(|q| {
                        let wire = WireEstimate {
                            tables: q.tables.iter().map(|t| t.0).collect(),
                            predicates: q.predicates.clone(),
                            deadline_ms: None,
                        };
                        let body = serde_json::to_string(&wire).expect("estimate body");
                        wire_request(&format!("/v1/{}/estimate", name(i)), &body)
                    })
                    .collect()
            })
            .collect();
        let batch_requests = batches
            .iter()
            .map(|b| {
                let body = serde_json::to_string(b).expect("ingest body");
                wire_request(&format!("/v1/{}/ingest", name(INGESTED)), &body)
            })
            .collect();
        Inputs {
            working,
            requests,
            batches,
            batch_requests,
        }
    }
}

/// Served state and inputs of the workload.
struct Served {
    door: Arc<FrontDoor>,
    server: ServerHandle,
    /// Each tenant's data as registered: `t1` is re-registered from it.
    data: Vec<(Database, SitCatalog)>,
    inputs: Arc<Inputs>,
}

/// Builds the front door. The first build also makes the inputs.
struct Setup {
    seed: u64,
    inputs: Option<Arc<Inputs>>,
    placement: Placement,
}

/// Where the reactor thread runs relative to the client (README,
/// Steadiness).
#[derive(Clone, Copy, Debug)]
enum Placement {
    /// On the client's CPU at nice 19: the client, woken by a response,
    /// always sends its next request before the reactor can fall asleep.
    /// The timed run, whose figures then follow the front door's work.
    Beneath,
    /// On a CPU of its own, where it sleeps out its idle wait before
    /// nearly every request, as it does for a client on another CPU or
    /// host. The traced run, which measures that wait.
    Apart { client: usize, reactor: usize },
}

impl Setup {
    /// One set-up: datagen, pool builds, front door construction and
    /// reactor spawn are timed; working sets, mutation batches and
    /// request bodies are the load generator's and stay untimed.
    fn build(&mut self, times: &mut SetupTimes) -> Served {
        let (mut datagen, mut pools) = (0.0, 0.0);
        let mut data = Vec::new();
        let mut fresh_working = Vec::new();
        for i in 0..TENANTS {
            let t = Instant::now();
            let tpcc = Tpcc::generate(TpccConfig {
                scale: 0.002,
                min_rows: 120,
                seed: 0x50AC_0000 + i as u64,
                ..TpccConfig::default()
            });
            datagen += t.elapsed().as_secs_f64();
            let hot = i == 0;
            let wl = match &self.inputs {
                Some(inputs) => inputs.working[i].clone(),
                None => generate_workload(
                    &tpcc.db,
                    &tpcc.join_edges,
                    &tpcc.filter_columns,
                    WorkloadConfig {
                        queries: if hot { HOT_SET } else { COLD_SET },
                        joins: if hot { 4 } else { 2 },
                        filters: if hot { 8 } else { 2 },
                        target_selectivity: 0.05,
                        seed: self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ i as u64,
                    },
                ),
            };
            let t = Instant::now();
            let pool = build_pool(&tpcc.db, &wl, PoolSpec::ji(2)).expect("pool build");
            pools += t.elapsed().as_secs_f64();
            data.push((tpcc.db, pool));
            fresh_working.push(wl);
        }
        let seed = self.seed;
        let inputs =
            Arc::clone(self.inputs.get_or_insert_with(|| {
                Arc::new(Inputs::new(seed, fresh_working, &data[INGESTED].0))
            }));

        let t = Instant::now();
        let door = Arc::new(FrontDoor::new(16));
        for (i, (db, pool)) in data.iter().enumerate() {
            door.add_tenant(&name(i), db.clone(), pool.clone(), tenant_config());
        }
        // The reactor thread inherits the spawning thread's CPU and nice.
        let server = match self.placement {
            Placement::Beneath => std::thread::scope(|sc| {
                sc.spawn(|| {
                    assert!(crate::host::lowest_priority(), "renice to 19");
                    spawn(Arc::clone(&door), "127.0.0.1:0")
                })
                .join()
                .expect("the spawning thread does not panic")
            }),
            Placement::Apart { client, reactor } => {
                assert!(crate::host::pin_to(reactor), "pin to cpu {reactor}");
                let server = spawn(Arc::clone(&door), "127.0.0.1:0");
                assert!(crate::host::pin_to(client), "pin to cpu {client}");
                server
            }
        }
        .expect("reactor spawn");
        times.datagen.push(datagen);
        times.pool.push(pools);
        times.service.push(t.elapsed().as_secs_f64());
        Served {
            door,
            server,
            data,
            inputs,
        }
    }
}

/// What the pass's step `k` sends.
enum Step {
    Estimate { tenant: usize, query: usize },
    Ingest { batch: usize },
}

/// The fixed request stream of one pass: tenants round-robin, each
/// cycling through its working set, with an ingest batch every
/// [`INGEST_EVERY`] requests.
fn steps() -> Vec<Step> {
    let mut out = Vec::with_capacity(PASS_REQUESTS);
    let mut estimates = 0;
    for k in 0..PASS_REQUESTS {
        if k % INGEST_EVERY == INGEST_EVERY / 2 {
            out.push(Step::Ingest {
                batch: k / INGEST_EVERY,
            });
        } else {
            let tenant = estimates % TENANTS;
            let set = if tenant == 0 { HOT_SET } else { COLD_SET };
            out.push(Step::Estimate {
                tenant,
                query: (estimates / TENANTS) % set,
            });
            estimates += 1;
        }
    }
    out
}

/// One estimate response of a pass, parsed after the pass.
struct Reply {
    tenant: usize,
    query: usize,
    /// Epoch the tenant was at when the request was sent.
    expected_epoch: u64,
    status: u16,
    body: Vec<u8>,
}

/// Everything the passes recorded.
#[derive(Default)]
struct Log {
    /// Estimate round trips; a non-200 answer counts as failed.
    passes: Passes,
    rank_sum: f64,
    cached: u64,
    ingest_ns: Vec<u64>,
    ingests: u64,
    ingests_failed: u64,
    refused_quota: u64,
    shed: u64,
}

/// Re-registers the ingested tenant from its pristine catalog and warms
/// its working set in-process; returns every tenant's current snapshot.
fn reset_pass(s: &Served) -> Vec<HashMap<u64, Arc<CatalogSnapshot>>> {
    let (db, pool) = &s.data[INGESTED];
    let t = s
        .door
        .add_tenant(&name(INGESTED), db.clone(), pool.clone(), tenant_config());
    for q in &s.inputs.working[INGESTED] {
        t.service().estimate(q);
    }
    (0..TENANTS)
        .map(|i| {
            let snap = s
                .door
                .tenant(&name(i))
                .expect("tenant")
                .service()
                .snapshot();
            HashMap::from([(snap.epoch(), snap)])
        })
        .collect()
}

/// Runs one pass over TCP. When traced, the batches go straight to
/// `Tenant::ingest`, timed, instead of over the wire.
fn pass(
    s: &Served,
    client: &mut Client,
    log: &mut Log,
    out: &mut Outcome,
    tracer: Option<&mut TracedState>,
) -> (Vec<Reply>, Vec<HashMap<u64, Arc<CatalogSnapshot>>>) {
    let mut snaps = reset_pass(s);
    let mut epochs: Vec<u64> = snaps
        .iter()
        .map(|m| *m.keys().next().expect("epoch"))
        .collect();
    let mut replies = Vec::with_capacity(PASS_REQUESTS);
    let mut latencies = Vec::with_capacity(PASS_REQUESTS);
    let mut busy_ns = 0;
    let mut tracer = tracer;
    for step in steps() {
        match step {
            Step::Estimate { tenant, query } => {
                let t = Instant::now();
                let r = client.round_trip(&s.inputs.requests[tenant][query]);
                let ns = t.elapsed().as_nanos() as u64;
                busy_ns += ns;
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.rt_ns.push(ns);
                }
                let (status, body) = r.unwrap_or_else(|e| (0, e.to_string().into_bytes()));
                latencies.push(if status == 200 { ns } else { FAILED_NS });
                replies.push(Reply {
                    tenant,
                    query,
                    expected_epoch: epochs[tenant],
                    status,
                    body,
                });
            }
            Step::Ingest { batch } => {
                let tenant = s.door.tenant(&name(INGESTED)).expect("tenant");
                let ok = match tracer.as_deref_mut() {
                    Some(tr) => {
                        let t = Instant::now();
                        let r = tenant.ingest(&s.inputs.batches[batch], Instant::now());
                        tr.ingest_ns.push(t.elapsed().as_nanos() as u64);
                        match r {
                            Ok((report, outcome)) => {
                                tr.sits_refreshed += report.sits_refreshed.len() as u64;
                                tr.carried += outcome.cache_carried;
                                tr.dropped += outcome.cache_dropped;
                                tr.ingests += 1;
                                Some(outcome.epoch)
                            }
                            Err(e) => {
                                out.check(false, || format!("in-process ingest failed: {e:?}"));
                                None
                            }
                        }
                    }
                    None => {
                        let t = Instant::now();
                        let r = client.round_trip(&s.inputs.batch_requests[batch]);
                        log.ingest_ns.push(t.elapsed().as_nanos() as u64);
                        match r {
                            Ok((200, body)) => parse::<IngestReply>(&body).map(|r| r.epoch),
                            other => {
                                out.check(false, || {
                                    format!("ingest answered {:?}", other.map(|o| o.0))
                                });
                                None
                            }
                        }
                    }
                };
                log.ingests += 1;
                log.ingests_failed += ok.is_none() as u64;
                if let Some(epoch) = ok {
                    out.check(epoch == epochs[INGESTED] + 1, || {
                        format!("ingest published epoch {epoch} after {}", epochs[INGESTED])
                    });
                    epochs[INGESTED] = epoch;
                    snaps[INGESTED].insert(epoch, tenant.service().snapshot());
                }
            }
        }
    }
    log.passes.push(latencies, busy_ns);
    (replies, snaps)
}

/// Parses and checks one pass's estimate replies.
fn check_replies(
    s: &Served,
    replies: &[Reply],
    snaps: &[HashMap<u64, Arc<CatalogSnapshot>>],
    log: &mut Log,
    out: &mut Outcome,
) {
    // Every reply for one (tenant, query, epoch) must carry the same
    // bits; one reply per tenant is also recomputed from scratch.
    let mut seen: HashMap<(usize, usize, u64), u64> = HashMap::new();
    let mut verified = [false; TENANTS];
    for (k, r) in replies.iter().enumerate() {
        if r.status != 200 {
            if r.status == 429 {
                match parse::<RefusalReply>(&r.body).and_then(|b| b.scope) {
                    Some(scope) if scope == "quota" => log.refused_quota += 1,
                    _ => log.shed += 1,
                }
            }
            out.check(false, || {
                format!(
                    "request {k} answered {}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body)
                )
            });
            continue;
        }
        let Some(e) = parse::<EstimateReply>(&r.body) else {
            out.check(false, || format!("request {k}: unparseable reply"));
            continue;
        };
        log.cached += e.cached as u64;
        let quality = sqe_core::Quality::ALL
            .into_iter()
            .find(|q| q.label() == e.quality);
        log.rank_sum += quality.map_or(0.0, crate::snow::rank);
        out.check(e.degraded.is_none() == (e.quality == "full"), || {
            format!(
                "request {k}: {} answer labelled {:?}",
                e.quality, e.degraded
            )
        });
        out.check(e.epoch == r.expected_epoch, || {
            format!(
                "request {k}: epoch {} where {} was current",
                e.epoch, r.expected_epoch
            )
        });
        let bits = e.selectivity.to_bits();
        let first = *seen.entry((r.tenant, r.query, e.epoch)).or_insert(bits);
        out.check(first == bits, || {
            format!("request {k}: answer changed within an epoch")
        });
        if !verified[r.tenant] {
            verified[r.tenant] = true;
            let Some(snap) = snaps[r.tenant].get(&e.epoch) else {
                out.check(false, || {
                    format!("request {k}: no snapshot at epoch {}", e.epoch)
                });
                continue;
            };
            let q = &s.inputs.working[r.tenant][r.query];
            let mode = ServiceConfig::default().mode;
            let mut est = SelectivityEstimator::new(snap.db(), q, snap.sits(), mode);
            let all = est.context().all();
            let fresh = est.get_selectivity(all).0;
            out.check(fresh.to_bits() == bits, || {
                format!(
                    "request {k}: reply differs from a fresh estimator at epoch {}",
                    e.epoch
                )
            });
        }
    }
}

/// Layer timings of the traced passes.
#[derive(Default)]
struct TracedState {
    tracer: Option<Tracer>,
    rt_ns: Vec<u64>,
    parse_ns: Vec<u64>,
    handle_ns: Vec<u64>,
    tenant_ns: Vec<u64>,
    service_ns: Vec<u64>,
    bound_ns: u64,
    replayed: u64,
    ingest_ns: Vec<u64>,
    ingests: u64,
    sits_refreshed: u64,
    carried: u64,
    dropped: u64,
}

/// Replays every [`REPLAY_EVERY`]-th estimate request of a traced pass
/// in-process, timing each layer's public entry point: the HTTP parser,
/// the front door's dispatcher, the tenant's admission stack and the
/// service. Every one is a whole-query cache hit by now.
fn replay_layers(s: &Served, tr: &mut TracedState, log: &mut Log, out: &mut Outcome) {
    let tracer = tr.tracer.get_or_insert_with(Tracer::new);
    let budget = Budget::unlimited().with_deadline(QUOTA.deadline_ceiling);
    let estimates = steps().into_iter().filter_map(|step| match step {
        Step::Estimate { tenant, query } => Some((tenant, query)),
        Step::Ingest { .. } => None,
    });
    for (tenant, query) in estimates.step_by(REPLAY_EVERY) {
        let request = tr.replayed;
        tr.replayed += 1;
        let raw = &s.inputs.requests[tenant][query];
        let q = &s.inputs.working[tenant][query];
        let t = s.door.tenant(&name(tenant)).expect("tenant");

        let span = tracer.open("http.parse", request, None);
        let parsed = parse_request(raw);
        tracer.close(span);
        tr.parse_ns.push(tracer.busy_ns(span));
        let Parse::Done { request: req, .. } = parsed else {
            out.check(false, || {
                "the parser rejected a benchmark request".to_string()
            });
            continue;
        };

        let span = tracer.open("tenant.handle", request, None);
        let resp = s.door.handle(&req);
        tracer.close(span);
        tr.handle_ns.push(tracer.busy_ns(span));
        if resp.status == 429 {
            log.shed += 1;
        }
        out.check(resp.status == 200, || {
            format!("in-process handle answered {}", resp.status)
        });

        let span = tracer.open("tenant.estimate", request, None);
        let r = t.estimate(q, None, Instant::now());
        tracer.close(span);
        tr.tenant_ns.push(tracer.busy_ns(span));
        let tenant_answer = match r {
            Ok(e) => Some(e),
            Err(DoorError::Overloaded { .. }) => {
                log.shed += 1;
                None
            }
            Err(e) => {
                out.check(false, || format!("in-process estimate failed: {e:?}"));
                None
            }
        };

        let span = tracer.open("service.estimate", request, None);
        let r = t.service().estimate_with_budget(q, &budget);
        tracer.close(span);
        tr.service_ns.push(tracer.busy_ns(span));
        if let (Ok(svc), Some(door)) = (r, tenant_answer) {
            out.check(
                svc.cached && svc.selectivity.to_bits() == door.selectivity.to_bits(),
                || "in-process answers disagree, or the service missed its cache".to_string(),
            );
        }

        let snap = t.service().snapshot();
        let span = tracer.open("bound", request, None);
        std::hint::black_box(snap.bound_sketch().upper_bound(q));
        tracer.close(span);
        tr.bound_ns += tracer.busy_ns(span);
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The reactor sleeps 500 µs whenever a loop moved no bytes. Left to
    // race the client at equal priority on one CPU, it fell asleep first
    // on a share of the requests that moved with the host, and
    // `est_per_s` spread 33% over ten runs; on a CPU of its own it sleeps
    // before nearly every request and p99 follows the host's timer
    // wake-ups. So the timed run keeps it beneath the client and the
    // traced run measures the sleep apart (README, Steadiness).
    let cpus = crate::host::allowed_cpus();
    let client = cpus.first().copied().unwrap_or(0);
    let placement = if args.trace {
        Placement::Apart {
            client,
            reactor: cpus.last().copied().unwrap_or(client),
        }
    } else {
        Placement::Beneath
    };
    assert!(crate::host::pin_to(client), "pin to cpu {client}");
    out.note(format!("client on cpu {client}, reactor {placement:?}"));
    let mut times = SetupTimes::default();
    let mut setup = Setup {
        seed: args.seed,
        inputs: None,
        placement,
    };
    let s = setup.build(&mut times);
    let mut client = Client::connect(s.server.addr()).expect("connect to the reactor");

    // Warm-up: the hot tenant's wide queries are computed once here, then
    // one untimed pass exercises the connection and the reactor.
    for (i, qs) in s.inputs.working.iter().enumerate() {
        let t = s.door.tenant(&name(i)).expect("tenant");
        for q in qs {
            t.service().estimate(q);
        }
    }
    let mut scratch = Outcome::default();
    pass(&s, &mut client, &mut Log::default(), &mut scratch, None);

    let mut log = Log::default();
    let mut traced_log = Log::default();
    let mut tr = TracedState::default();
    let start = Instant::now();
    while log.passes.count() == 0 || start.elapsed() < args.seconds {
        let (replies, snaps) = pass(&s, &mut client, &mut log, &mut out, None);
        check_replies(&s, &replies, &snaps, &mut log, &mut out);
        if args.trace {
            let (replies, snaps) = pass(&s, &mut client, &mut traced_log, &mut out, Some(&mut tr));
            check_replies(&s, &replies, &snaps, &mut traced_log, &mut out);
            replay_layers(&s, &mut tr, &mut traced_log, &mut out);
        }
        drop(setup.build(&mut times));
    }
    times.put(&mut out, args.trace);
    drop(client);
    s.server.shutdown();

    let ingest_ms: Vec<f64> = log.ingest_ns.iter().map(|&n| n as f64 / 1e6).collect();
    if !ingest_ms.is_empty() {
        out.note(format!(
            "http ingest median {:.3} ms over {} batches",
            median(&ingest_ms),
            ingest_ms.len()
        ));
    }
    let estimates = log.passes.completed + log.passes.failed;
    if args.trace {
        tr.put(&mut out, &log, &traced_log);
    } else {
        log.passes.put(&mut out.metrics, &mut out.notes);
        out.metrics
            .put("quality_mean", log.rank_sum / estimates as f64, "rank");
    }
    out.attempted += estimates + log.ingests;
    out.failed += log.passes.failed + log.ingests_failed;
    out
}

impl TracedState {
    fn put(&self, out: &mut Outcome, log: &Log, traced: &Log) {
        let handle = median_us(&self.handle_ns);
        let rt: Vec<u64> = log
            .passes
            .latencies()
            .iter()
            .copied()
            .filter(|&n| n != FAILED_NS)
            .collect();
        let idle = rt
            .iter()
            .filter(|&&n| n as f64 / 1e3 > handle + IDLE_WAIT.as_secs_f64() * 1e6)
            .count() as u64;
        let tenant = median_us(&self.tenant_ns);
        let m = &mut out.metrics;
        m.put("reactor.us", median_us(&rt) - handle, "us");
        m.put(
            "reactor.idle_wait_frac",
            ratio(idle, rt.len() as u64),
            "ratio",
        );
        m.put("http.parse_us", median_us(&self.parse_ns), "us");
        m.put("tenant.handle_us", handle, "us");
        m.put("tenant.estimate_us", tenant, "us");
        m.put("tenant.route_json_us", handle - tenant, "us");
        m.put("service.hit_us", median_us(&self.service_ns), "us");
        let ingest_ms: Vec<f64> = self.ingest_ns.iter().map(|&n| n as f64 / 1e6).collect();
        m.put("tenant.ingest_ms", median(&ingest_ms), "ms");
        m.put(
            "quota.refused",
            (log.refused_quota + traced.refused_quota) as f64,
            "count",
        );
        m.put("admission.shed", (log.shed + traced.shed) as f64, "count");
        m.put(
            "delta.sits_refreshed",
            self.sits_refreshed as f64 / self.ingests.max(1) as f64,
            "count",
        );
        m.put(
            "delta.carry_frac",
            ratio(self.carried, self.carried + self.dropped),
            "ratio",
        );
        m.put(
            "query_cache.hit_frac",
            ratio(traced.cached, traced.passes.completed),
            "ratio",
        );
        m.put(
            "bound.us",
            self.bound_ns as f64 / self.replayed.max(1) as f64 / 1e3,
            "us",
        );
        let traced_total: u64 = self.rt_ns.iter().sum();
        m.put(
            "trace.est_us",
            traced_total as f64 / self.rt_ns.len().max(1) as f64 / 1e3,
            "us",
        );
        m.put(
            "trace.overhead_us",
            median_us(&self.rt_ns) - median_us(&rt),
            "us",
        );
        if let Some(tracer) = &self.tracer {
            let path = out_dir().join("tenants-http-spans.jsonl");
            if let Err(e) = tracer.write(&path) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
    }
}
