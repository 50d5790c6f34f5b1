//! The three in-process workloads over one snowflake database.
//!
//! * `cold-stream` — distinct queries through [`EstimationService::estimate`],
//!   the cold path an optimizer pays for every new query. Run by hand
//!   only: it is not in `BENCHMARK.json`, because its figures follow the
//!   host's memory speed further than any bound allows.
//! * `subplans` — every memo group of each base query, bottom-up, the way
//!   a Cascades optimizer asks (§4): the shared caches pay off here.
//! * `deadline-wide` — exact-width queries under a 20 ms deadline through
//!   [`EstimationService::estimate_with_budget`]: the only workload where
//!   a deadline binds and the ladder answers.
//!
//! Every pass runs the same queries on a freshly installed snapshot, so
//! passes do identical work; an untimed warm-up pass over another seed's
//! queries from the same classes runs first.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqe_core::baseline::independence_selectivity;
use sqe_core::{
    build_pool, Budget, CacheKey, DpStrategy, GreedyViewMatching, MetricsSink, PoolSpec, Quality,
    SelectivityEstimator, SitCatalog,
};
use sqe_datagen::{generate_workload, Snowflake, SnowflakeConfig, WorkloadConfig};
use sqe_engine::{Database, SpjQuery};
use sqe_optimizer::{explore, Memo};
use sqe_service::{CatalogSnapshot, Estimate, EstimationService, ServiceConfig, ServiceError};

use crate::checks::{out_dir, Outcome};
use crate::stats::{median, median_us, ratio, Passes, FAILED_NS};
use crate::trace::{RungClock, RungEvent, TimedCache, Tracer};
use crate::Args;

/// Seed offset of the warm-up queries.
const WARMUP_SEED: u64 = 0x5741_524D;
/// Answers compared against a fresh estimator per run.
const SAMPLE: usize = 24;
/// How far a traced pass's shared-cache lookups and insertions may lie
/// from the untraced pass before it. Which entries a full shard evicts
/// varies from pass to pass, and a hit skips the lookups beneath it; the
/// counts differed by at most 0.006% on `cold-stream` and 0.009% on
/// `subplans`.
const TRAFFIC_TOLERANCE: f64 = 0.01;
/// The `deadline-wide` deadline: a fifth of the full DP's cost on these
/// widths (≈ 100 ms), so a DP rung almost never finishes, yet the rungs end
/// (on their deadline slices, plus ≈ 1 ms of overshoot each) about 4 ms
/// before it, so greedy answers nearly every request. Both decisions sit
/// far from their thresholds. At 5 ms the greedy gate fell inside the
/// rungs' spread and greedy answered 2–43% of requests, depending on the
/// host's speed that minute; at 1 ms latency was all set-up and
/// overshoot work and moved 26% with the host between two sets of runs.
const WIDE_DEADLINE: Duration = Duration::from_millis(20);

/// A query class: join and filter counts, and how many per pass.
#[derive(Clone, Copy)]
struct Class {
    joins: usize,
    filters: usize,
    count: usize,
}

const fn class(joins: usize, filters: usize, count: usize) -> Class {
    Class {
        joins,
        filters,
        count,
    }
}

/// J = 3…7 joins × F = 3 filters (n = 6…10, inside the paper's range).
/// An odd number of equal classes keeps the median inside the middle
/// class: with J = 2…7 it fell between the J = 4 and J = 5 modes and
/// moved 13% from seed to seed.
const COLD: [Class; 5] = [
    class(3, 3, 96),
    class(4, 3, 96),
    class(5, 3, 96),
    class(6, 3, 96),
    class(7, 3, 96),
];
/// Base queries whose memo groups `subplans` estimates.
const BASES: [Class; 5] = [
    class(3, 3, 20),
    class(4, 3, 20),
    class(5, 3, 20),
    class(6, 3, 20),
    class(7, 3, 20),
];
/// J = 6…7 × F = 6…7 (n = 12…14).
const WIDE: [Class; 4] = [
    class(6, 6, 50),
    class(6, 7, 50),
    class(7, 6, 50),
    class(7, 7, 50),
];

/// Seconds spent in each part of the run's set-ups: one before the first
/// pass and one more after every timed pass, so that `setup_s`, their
/// median, samples the host across the whole run as the passes do.
#[derive(Default)]
pub struct SetupTimes {
    pub datagen: Vec<f64>,
    pub pool: Vec<f64>,
    pub service: Vec<f64>,
}

impl SetupTimes {
    pub fn put(&self, out: &mut Outcome, trace: bool) {
        let total: Vec<f64> = (0..self.datagen.len())
            .map(|i| self.datagen[i] + self.pool[i] + self.service[i])
            .collect();
        if trace {
            out.metrics
                .put("setup.datagen_s", median(&self.datagen), "s");
            out.metrics.put("setup.pool_s", median(&self.pool), "s");
            out.metrics
                .put("setup.service_s", median(&self.service), "s");
        } else {
            out.metrics.put("setup_s", median(&total), "s");
        }
        out.note(format!("setup totals (s): {total:?}"));
    }
}

/// Distinct queries of every class, interleaved round-robin by class.
fn class_queries(sf: &Snowflake, classes: &[Class], seed: u64) -> Vec<SpjQuery> {
    let mut seen = HashSet::new();
    let per_class: Vec<Vec<SpjQuery>> = classes
        .iter()
        .map(|c| {
            let generated = generate_workload(
                &sf.db,
                &sf.join_edges,
                &sf.filter_columns,
                WorkloadConfig {
                    queries: c.count * 2,
                    joins: c.joins,
                    filters: c.filters,
                    target_selectivity: 0.05,
                    seed: seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((c.joins * 16 + c.filters) as u64),
                },
            );
            let distinct: Vec<SpjQuery> = generated
                .into_iter()
                .filter(|q| seen.insert(q.predicates.clone()))
                .take(c.count)
                .collect();
            assert_eq!(distinct.len(), c.count, "too few distinct queries");
            distinct
        })
        .collect();
    let longest = classes.iter().map(|c| c.count).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| per_class.iter().filter_map(move |qs| qs.get(i).cloned()))
        .collect()
}

/// Every memo group with at least one predicate, as a sub-query: bases
/// in order, each base's groups bottom-up (fewest predicates first).
fn memo_subplans(db: &Database, bases: &[SpjQuery]) -> Vec<SpjQuery> {
    let mut out = Vec::new();
    for base in bases {
        let mut memo = Memo::new(db, base);
        explore(&mut memo);
        let ctx = memo.context();
        let mut groups: Vec<_> = memo
            .group_ids()
            .map(|g| memo.group(g))
            .filter(|g| !g.preds.is_empty())
            .collect();
        groups.sort_by_key(|g| (g.preds.len(), g.preds.0));
        for g in groups {
            let q = SpjQuery::new(
                ctx.tables_of_slots(g.table_mask),
                ctx.predicates_of(g.preds),
            )
            .expect("memo groups are valid sub-queries");
            out.push(q);
        }
    }
    out
}

/// One workload's served state and inputs.
struct Served {
    db: Arc<Database>,
    pool: SitCatalog,
    svc: EstimationService,
    /// The measured operations, in order.
    queries: Arc<[SpjQuery]>,
    /// Same classes, another seed: the untimed warm-up pass.
    warmup: Arc<[SpjQuery]>,
}

/// The load generator's inputs, made once per run.
struct Inputs {
    /// Base queries, from which the pool's SITs are built.
    bases: Vec<SpjQuery>,
    queries: Arc<[SpjQuery]>,
    warmup: Arc<[SpjQuery]>,
}

/// Builds a workload's served state. The first build also makes the
/// inputs, which are load generation and stay untimed.
struct Setup {
    classes: &'static [Class],
    seed: u64,
    expand: fn(&Database, &[SpjQuery]) -> Vec<SpjQuery>,
    inputs: Option<Inputs>,
}

impl Setup {
    /// One set-up, timing datagen, pool build and service construction.
    fn build(&mut self, times: &mut SetupTimes) -> Served {
        let t = Instant::now();
        let sf = Snowflake::generate(SnowflakeConfig::default());
        times.datagen.push(t.elapsed().as_secs_f64());

        let (classes, seed, expand) = (self.classes, self.seed, self.expand);
        let inputs = self.inputs.get_or_insert_with(|| {
            let bases = class_queries(&sf, classes, seed);
            // A quarter of a pass, same class mix (the classes interleave).
            let mut warm_bases = class_queries(&sf, classes, seed ^ WARMUP_SEED);
            warm_bases.truncate(warm_bases.len() / 4);
            Inputs {
                queries: expand(&sf.db, &bases).into(),
                warmup: expand(&sf.db, &warm_bases).into(),
                bases,
            }
        });

        let t = Instant::now();
        let pool = build_pool(&sf.db, &inputs.bases, PoolSpec::ji(2)).expect("pool build");
        times.pool.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let db = Arc::new(sf.db);
        let svc = EstimationService::new(Arc::clone(&db), pool.clone(), ServiceConfig::default());
        times.service.push(t.elapsed().as_secs_f64());
        Served {
            db,
            pool,
            svc,
            queries: Arc::clone(&inputs.queries),
            warmup: Arc::clone(&inputs.warmup),
        }
    }
}

fn no_expand(_: &Database, qs: &[SpjQuery]) -> Vec<SpjQuery> {
    qs.to_vec()
}

/// Rank of an answer's rung, worst to best: bound 1 … full 6. A failed
/// request has no answer and ranks 0.
pub fn rank(q: Quality) -> f64 {
    (rung_index(q) + 1) as f64
}

/// The bits of one answer, compared across passes and paths.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Answer {
    selectivity: u64,
    error: u64,
    cached: bool,
}

impl Answer {
    fn of(e: &Estimate) -> Answer {
        Answer {
            selectivity: e.selectivity.to_bits(),
            error: e.error.to_bits(),
            cached: e.cached,
        }
    }
}

/// Shared-cache traffic of one pass: lookups and insertions, the
/// whole-query ones counted with the link, join and `H3` ones.
#[derive(Debug, Clone, Copy)]
struct Traffic {
    lookups: u64,
    inserts: u64,
}

impl Traffic {
    /// The larger relative difference of the two counts.
    fn distance(self, other: Traffic) -> f64 {
        let rel = |a: u64, b: u64| a.abs_diff(b) as f64 / a.max(b).max(1) as f64;
        rel(self.lookups, other.lookups).max(rel(self.inserts, other.inserts))
    }
}

/// Per-estimate records of the timed passes.
#[derive(Default)]
struct Log {
    passes: Passes,
    rank_sum: f64,
    /// Answers of the first pass, checked against every later pass.
    first: Vec<Answer>,
    /// The snapshot cache's counters after each pass.
    traffic: Vec<Traffic>,
}

impl Log {
    fn put_end_to_end(&self, out: &mut Outcome) {
        let attempted = self.passes.completed + self.passes.failed;
        self.passes.put(&mut out.metrics, &mut out.notes);
        out.metrics
            .put("quality_mean", self.rank_sum / attempted as f64, "rank");
        out.attempted += attempted;
        out.failed += self.passes.failed;
    }
}

/// Records one pass's answers, checking them against the first pass.
fn record_answers(log: &mut Log, out: &mut Outcome, answers: Vec<Answer>) {
    if log.first.is_empty() {
        log.first = answers;
    } else {
        let same = answers == log.first;
        out.check(same, || "answers differ between passes".to_string());
    }
}

/// One untraced pass of unbudgeted estimates on a fresh snapshot.
fn plain_pass(s: &Served, queries: &[SpjQuery], log: &mut Log, out: &mut Outcome, cold: bool) {
    s.svc.install(s.pool.clone(), None);
    let mut answers = Vec::with_capacity(queries.len());
    let mut latencies = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        let e = s.svc.estimate(q);
        latencies.push(t.elapsed().as_nanos() as u64);
        log.rank_sum += rank(e.quality);
        check_label(out, &e, q);
        if cold {
            out.check(!e.cached && e.quality == Quality::Full, || {
                format!(
                    "cold-stream root answered cached={} {:?}",
                    e.cached, e.quality
                )
            });
        }
        answers.push(Answer::of(&e));
    }
    let busy = latencies.iter().sum();
    log.passes.push(latencies, busy);
    record_answers(log, out, answers);
    let c = s.svc.snapshot().cache().counters();
    log.traffic.push(Traffic {
        lookups: c.hits + c.misses,
        inserts: c.insertions,
    });
}

/// `degraded_reason` is `None` exactly when the answer is undegraded.
fn check_label(out: &mut Outcome, e: &Estimate, q: &SpjQuery) {
    let routed = DpStrategy::Auto.use_beam(q.predicates.len());
    let undegraded = e.quality == Quality::Full || (routed && e.quality == Quality::Beam);
    out.check(e.degraded_reason.is_none() == undegraded, || {
        format!("{:?} answer labelled {:?}", e.quality, e.degraded_reason)
    });
}

/// Indices of an even sample over `n` items.
fn sample_indices(n: usize) -> impl Iterator<Item = usize> {
    let step = (n / SAMPLE).max(1);
    (0..n).step_by(step).take(SAMPLE)
}

/// The service's documented guarantee: its answers are bit-identical to
/// a fresh estimator with no shared cache.
fn check_against_fresh(s: &Served, queries: &[SpjQuery], first: &[Answer], out: &mut Outcome) {
    let snap = s.svc.snapshot();
    let mode = s.svc.config().mode;
    for i in sample_indices(queries.len()) {
        let q = &queries[i];
        let mut est = SelectivityEstimator::new(&s.db, q, snap.sits(), mode);
        let all = est.context().all();
        let (sel, err) = est.get_selectivity(all);
        let a = first[i];
        out.check(
            a.selectivity == sel.to_bits() && a.error == err.to_bits(),
            || format!("query {i}: service answer differs from a fresh estimator"),
        );
    }
}

/// Work counts of one traced estimator run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Work {
    vm_calls: u64,
    memo_entries: usize,
    peel_entries: usize,
}

/// Aggregates of the traced passes.
#[derive(Default)]
struct TraceLog {
    tracer: Option<Tracer>,
    root_ns: Vec<u64>,
    estimates: u64,
    cached: u64,
    estimator_runs: u64,
    work_sum: [u64; 3],
    link_calls: u64,
    link_lookups: u64,
    link_hits: u64,
    /// Per traced pass: shared-cache hits seen by the wrapper, evictions.
    pass_hits: Vec<u64>,
    pass_evictions: Vec<u64>,
    /// Estimator counts of the first traced pass, per query.
    first_work: Vec<Option<Work>>,
    vm_calls_differ: u64,
    /// Largest relative difference between a traced pass's shared-cache
    /// traffic and the untraced pass before it.
    traffic_distance: f64,
}

/// One traced pass: repeats `EstimationService::estimate` through public
/// calls — the service's own whole-query cache probe is not public, so a
/// map owned here plays its part and duplicates are still answered
/// without an estimator — with a span around each layer call.
fn traced_pass(s: &Served, queries: &[SpjQuery], tl: &mut TraceLog, log: &Log, out: &mut Outcome) {
    s.svc.install(s.pool.clone(), None);
    let snap: Arc<CatalogSnapshot> = s.svc.snapshot();
    let cfg = *s.svc.config();
    let tracer = tl.tracer.get_or_insert_with(Tracer::new);
    let mut whole: HashMap<CacheKey, (f64, f64)> = HashMap::new();
    let mut answers = Vec::with_capacity(queries.len());
    let mut works = Vec::with_capacity(queries.len());
    let mut pass_hits = 0;
    // The whole-query probes and puts the service makes on the same cache.
    let mut traffic = Traffic {
        lookups: queries.len() as u64,
        inserts: 0,
    };
    for q in queries {
        let request = tl.estimates;
        tl.estimates += 1;
        let root = tracer.open("estimate", request, None);
        let probe = tracer.open("query_cache", request, Some(root));
        let key = CacheKey::query(cfg.mode, &q.predicates);
        let hit = whole.get(&key).copied();
        tracer.close(probe);
        let (result, cached) = match hit {
            Some(r) => (r, true),
            None => {
                let timed = TimedCache::new(snap.cache());
                let setup = tracer.open("estimator.setup", request, Some(root));
                let mut est = SelectivityEstimator::new(snap.db(), q, snap.sits(), cfg.mode)
                    .with_strategy(cfg.dp_strategy)
                    .with_beam_config(cfg.beam)
                    .with_shared_cache(&timed);
                tracer.close(setup);
                let dp = tracer.open("estimator.dp", request, Some(root));
                let all = est.context().all();
                let r = est.get_selectivity(all);
                tracer.close(dp);
                let u = timed.usage();
                tracer.aggregate("link_cache", dp, u.calls, u.busy_ns);
                let put = tracer.open("query_cache", request, Some(root));
                whole.insert(key, r);
                tracer.close(put);
                let st = est.stats();
                works.push(Some(Work {
                    vm_calls: st.vm_calls,
                    memo_entries: st.memo_entries,
                    peel_entries: st.peel_entries,
                }));
                tl.estimator_runs += 1;
                tl.work_sum[0] += st.vm_calls;
                tl.work_sum[1] += st.memo_entries as u64;
                tl.work_sum[2] += st.peel_entries as u64;
                tl.link_calls += u.calls;
                tl.link_lookups += u.lookups;
                tl.link_hits += u.hits;
                pass_hits += u.hits;
                traffic.lookups += u.lookups;
                traffic.inserts += u.calls - u.lookups + 1;
                (r, false)
            }
        };
        if cached {
            works.push(None);
            tl.cached += 1;
        }
        let bound = tracer.open("bound", request, Some(root));
        std::hint::black_box(snap.bound_sketch().upper_bound(q));
        tracer.close(bound);
        tracer.close(root);
        tl.root_ns.push(tracer.busy_ns(root));
        answers.push(Answer {
            selectivity: result.0.to_bits(),
            error: result.1.to_bits(),
            cached,
        });
    }
    tl.pass_hits.push(pass_hits);
    tl.pass_evictions.push(snap.cache().counters().evictions);
    out.check(answers == log.first, || {
        "traced answers differ from the untraced ones".to_string()
    });
    // Bit-identical answers do not show whether the service still uses
    // the shared cache as this path does; its counters do.
    let untraced = *log.traffic.last().expect("an untraced pass ran first");
    let distance = untraced.distance(traffic);
    tl.traffic_distance = tl.traffic_distance.max(distance);
    out.check(distance <= TRAFFIC_TOLERANCE, || {
        format!("shared-cache traffic: service {untraced:?}, traced path {traffic:?}")
    });
    if tl.first_work.is_empty() {
        tl.first_work = works;
    } else {
        for (i, (a, b)) in tl.first_work.iter().zip(&works).enumerate() {
            let (Some(a), Some(b)) = (a, b) else {
                out.check(a.is_none() && b.is_none(), || {
                    format!("query {i}: cached in one pass only")
                });
                continue;
            };
            out.check(
                a.memo_entries == b.memo_entries && a.peel_entries == b.peel_entries,
                || format!("query {i}: estimator work differs between passes: {a:?} vs {b:?}"),
            );
            tl.vm_calls_differ += (a.vm_calls != b.vm_calls) as u64;
        }
    }
}

impl TraceLog {
    fn put(&self, out: &mut Outcome, untraced_ns: &[u64], workload: &str) {
        let tracer = self.tracer.as_ref().expect("at least one traced pass");
        let selfs = tracer.self_times();
        let n = self.estimates as f64;
        let per_est = |name: &str| selfs.get(name).map_or(0.0, |s| s.0 as f64) / n / 1e3;
        let root_total: u64 = self.root_ns.iter().sum();
        let layers = [
            "query_cache",
            "estimator.setup",
            "estimator.dp",
            "link_cache",
            "bound",
        ];
        let layer_ns: f64 = layers
            .iter()
            .map(|l| selfs.get(l).map_or(0.0, |s| s.0 as f64))
            .sum();
        let m = &mut out.metrics;
        m.put(
            "query_cache.hit_frac",
            ratio(self.cached, self.estimates),
            "ratio",
        );
        m.put("query_cache.us", per_est("query_cache"), "us");
        m.put("estimator.setup_us", per_est("estimator.setup"), "us");
        m.put("estimator.dp_us", per_est("estimator.dp"), "us");
        let runs = self.estimator_runs.max(1) as f64;
        m.put(
            "estimator.vm_calls",
            self.work_sum[0] as f64 / runs,
            "count",
        );
        m.put(
            "estimator.memo_entries",
            self.work_sum[1] as f64 / runs,
            "count",
        );
        m.put(
            "estimator.peel_entries",
            self.work_sum[2] as f64 / runs,
            "count",
        );
        m.put("link_cache.us", per_est("link_cache"), "us");
        m.put("link_cache.calls", self.link_calls as f64 / n, "count");
        m.put(
            "link_cache.hit_frac",
            ratio(self.link_hits, self.link_lookups),
            "ratio",
        );
        let hits: Vec<f64> = self.pass_hits.iter().map(|&h| h as f64).collect();
        let evictions: Vec<f64> = self.pass_evictions.iter().map(|&e| e as f64).collect();
        m.put("link_cache.hits", median(&hits), "count");
        let spread =
            self.pass_hits.iter().max().unwrap_or(&0) - self.pass_hits.iter().min().unwrap_or(&0);
        m.put("link_cache.hits_spread", spread as f64, "count");
        m.put("link_cache.evictions", median(&evictions), "count");
        m.put("bound.us", per_est("bound"), "us");
        m.put("trace.est_us", root_total as f64 / n / 1e3, "us");
        m.put(
            "trace.accounted_frac",
            layer_ns / root_total as f64,
            "ratio",
        );
        m.put(
            "trace.overhead_us",
            median_us(&self.root_ns) - median_us(untraced_ns),
            "us",
        );
        out.note(format!(
            "vm_calls differed between traced passes on {} estimates; link-cache hits per pass {:?}",
            self.vm_calls_differ, self.pass_hits
        ));
        out.note(format!(
            "shared-cache traffic of traced and untraced passes differed by at most {:.6}",
            self.traffic_distance
        ));
        let path = out_dir().join(format!("{workload}-spans.jsonl"));
        if let Err(e) = tracer.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

/// Runs `cold-stream` or `subplans`.
fn unbudgeted(
    args: &Args,
    classes: &'static [Class],
    expand: fn(&Database, &[SpjQuery]) -> Vec<SpjQuery>,
    cold: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    let mut setup = Setup {
        classes,
        seed: args.seed,
        expand,
        inputs: None,
    };
    let s = setup.build(&mut times);
    out.note(format!("{} estimates per pass", s.queries.len()));

    let mut warm = Log::default();
    let mut scratch = Outcome::default();
    plain_pass(&s, &s.warmup, &mut warm, &mut scratch, false);

    let mut log = Log::default();
    let mut tl = TraceLog::default();
    let start = Instant::now();
    // A traced run alternates untraced and traced passes, so the
    // overhead is measured on the same host state.
    while log.passes.count() == 0 || start.elapsed() < args.seconds {
        plain_pass(&s, &s.queries, &mut log, &mut out, cold);
        if args.trace {
            traced_pass(&s, &s.queries, &mut tl, &log, &mut out);
        }
        drop(setup.build(&mut times));
    }
    times.put(&mut out, args.trace);
    check_against_fresh(&s, &s.queries, &log.first, &mut out);
    if args.trace {
        tl.put(&mut out, log.passes.latencies(), &args.workload);
        out.attempted += log.passes.completed;
    } else {
        log.put_end_to_end(&mut out);
    }
    out
}

pub fn cold_stream(args: &Args) -> Outcome {
    unbudgeted(args, &COLD, no_expand, true)
}

pub fn subplans(args: &Args) -> Outcome {
    unbudgeted(args, &BASES, memo_subplans, false)
}

/// Recomputes a degraded answer with the rung that gave it, on a fresh
/// estimator without the shared cache.
fn rung_reference(db: &Database, sits: &SitCatalog, q: &SpjQuery, quality: Quality) -> Option<f64> {
    let mode = ServiceConfig::default().mode;
    match quality {
        Quality::Full | Quality::Beam | Quality::Pruned => {
            let mut est = SelectivityEstimator::new(db, q, sits, mode);
            est = match quality {
                Quality::Beam => est.with_strategy(DpStrategy::Beam),
                Quality::Pruned => est.with_sit_driven_pruning(),
                _ => est,
            };
            let all = est.context().all();
            Some(est.get_selectivity(all).0)
        }
        Quality::Greedy => {
            let mut gvm = GreedyViewMatching::new(db, q, sits);
            let all = gvm.context().all();
            Some(gvm.selectivity(all))
        }
        Quality::Independence => Some(independence_selectivity(db, sits, q)),
        Quality::Bound => None,
    }
}

/// Per-rung aggregates of the traced `deadline-wide` passes, indexed
/// like [`Quality::ALL`].
#[derive(Default)]
struct LadderLog {
    estimates: u64,
    attempts: u64,
    answered: [u64; 6],
    rung_ns: [u64; 6],
    overshoot_ns: Vec<i64>,
    late: u64,
    latency_ns: Vec<u64>,
    bound_ns: u64,
}

/// Index of a rung in [`Quality::ALL`] (worst to best).
fn rung_index(q: Quality) -> usize {
    Quality::ALL
        .iter()
        .position(|&x| x == q)
        .expect("every rung is in Quality::ALL")
}

/// One pass of budgeted estimates on a fresh snapshot.
fn budgeted_pass(
    s: &Served,
    queries: &[SpjQuery],
    budget: &Budget,
) -> Vec<(u64, Result<Estimate, ServiceError>)> {
    s.svc.install(s.pool.clone(), None);
    queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            let r = s.svc.estimate_with_budget(q, budget);
            (t.elapsed().as_nanos() as u64, r)
        })
        .collect()
}

pub fn deadline_wide(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    let mut setup = Setup {
        classes: &WIDE,
        seed: args.seed,
        expand: no_expand,
        inputs: None,
    };
    let s = setup.build(&mut times);
    let budget = Budget::unlimited().with_deadline(WIDE_DEADLINE);
    let clock = Arc::new(RungClock::default());
    let traced_svc = args.trace.then(|| {
        EstimationService::new(Arc::clone(&s.db), s.pool.clone(), ServiceConfig::default())
            .with_metrics(Arc::clone(&clock) as Arc<dyn MetricsSink>)
    });

    budgeted_pass(&s, &s.warmup, &budget);
    let mut log = Log::default();
    let mut ll = LadderLog::default();
    let mut late = 0u64;
    let mut last = Vec::new();
    let start = Instant::now();
    while log.passes.count() == 0 || start.elapsed() < args.seconds {
        last = budgeted_pass(&s, &s.queries, &budget);
        let mut latencies = Vec::with_capacity(last.len());
        for ((ns, r), q) in last.iter().zip(s.queries.iter()) {
            match r {
                Ok(e) => {
                    latencies.push(*ns);
                    log.rank_sum += rank(e.quality);
                    late += (*ns > WIDE_DEADLINE.as_nanos() as u64) as u64;
                    check_label(&mut out, e, q);
                    out.check(!e.cached, || "a distinct wide query was cached".to_string());
                }
                Err(err) => {
                    latencies.push(FAILED_NS);
                    out.note(format!("refused: {err}"));
                }
            }
        }
        log.passes
            .push(latencies, last.iter().map(|(ns, _)| ns).sum());
        if let Some(svc) = &traced_svc {
            traced_ladder_pass(svc, &s.pool, &clock, &s.queries, &budget, &mut ll, &mut out);
        }
        drop(setup.build(&mut times));
    }
    times.put(&mut out, args.trace);
    // Degraded answers depend on timing, so each sampled answer is
    // checked against a fresh run of the rung that produced it.
    let snap = s.svc.snapshot();
    for i in sample_indices(s.queries.len()) {
        let Ok(e) = &last[i].1 else { continue };
        if let Some(reference) = rung_reference(&s.db, snap.sits(), &s.queries[i], e.quality) {
            out.check(reference.to_bits() == e.selectivity.to_bits(), || {
                format!(
                    "query {i}: {:?} answer differs from a fresh run of that rung",
                    e.quality
                )
            });
        }
    }
    out.note(format!(
        "late share {:.4} over {} estimates",
        ratio(late, log.passes.completed),
        log.passes.completed
    ));
    if args.trace {
        ll.put(&mut out, log.passes.latencies());
        out.attempted += log.passes.completed + log.passes.failed;
        out.failed += log.passes.failed;
    } else {
        log.put_end_to_end(&mut out);
    }
    out
}

/// One traced pass: the same requests through a service whose metrics
/// sink timestamps every rung event.
fn traced_ladder_pass(
    svc: &EstimationService,
    pool: &SitCatalog,
    clock: &RungClock,
    queries: &[SpjQuery],
    budget: &Budget,
    ll: &mut LadderLog,
    out: &mut Outcome,
) {
    svc.install(pool.clone(), None);
    let snap = svc.snapshot();
    let deadline = WIDE_DEADLINE.as_nanos() as i64;
    clock.drain();
    for q in queries {
        let t = Instant::now();
        let r = svc.estimate_with_budget(q, budget);
        let done = Instant::now();
        let ns = (done - t).as_nanos() as u64;
        let events = clock.drain();
        let b = Instant::now();
        std::hint::black_box(snap.bound_sketch().upper_bound(q));
        ll.bound_ns += b.elapsed().as_nanos() as u64;
        let Ok(e) = r else {
            continue;
        };
        ll.estimates += 1;
        ll.latency_ns.push(ns);
        ll.overshoot_ns.push(ns as i64 - deadline);
        ll.late += (ns as i64 > deadline) as u64;
        for (k, &(at, ev)) in events.iter().enumerate() {
            match ev {
                RungEvent::Attempted(rung) => {
                    ll.attempts += 1;
                    let until = events.get(k + 1).map_or(done, |next| next.0);
                    ll.rung_ns[rung_index(rung)] += (until - at).as_nanos() as u64;
                }
                RungEvent::Answered(rung) => {
                    ll.answered[rung_index(rung)] += 1;
                    out.check(rung == e.quality, || {
                        format!("sink saw {rung:?}, the answer says {:?}", e.quality)
                    });
                }
            }
        }
    }
}

impl LadderLog {
    fn put(&self, out: &mut Outcome, untraced_ns: &[u64]) {
        let n = self.estimates.max(1) as f64;
        let m = &mut out.metrics;
        m.put("ladder.attempts", self.attempts as f64 / n, "count");
        for q in [
            Quality::Full,
            Quality::Beam,
            Quality::Pruned,
            Quality::Greedy,
            Quality::Independence,
        ] {
            let i = rung_index(q);
            m.put(
                format!("ladder.answered.{}", q.label()),
                self.answered[i] as f64 / n,
                "ratio",
            );
            m.put(
                format!("ladder.rung_us.{}", q.label()),
                self.rung_ns[i] as f64 / n / 1e3,
                "us",
            );
        }
        let dp: u64 = [Quality::Full, Quality::Beam, Quality::Pruned]
            .iter()
            .map(|&q| self.answered[rung_index(q)])
            .sum();
        m.put("ladder.dp_frac", dp as f64 / n, "ratio");
        m.put("ladder.late_frac", self.late as f64 / n, "ratio");
        let mut over = self.overshoot_ns.clone();
        over.sort_unstable();
        let pick = |p: f64| {
            let rank = (p * over.len() as f64).ceil() as usize;
            over[rank.clamp(1, over.len()) - 1] as f64 / 1e3
        };
        m.put("ladder.overshoot_p50_us", pick(0.5), "us");
        m.put("ladder.overshoot_p99_us", pick(0.99), "us");
        m.put("bound.us", self.bound_ns as f64 / n / 1e3, "us");
        let total: u64 = self.latency_ns.iter().sum();
        m.put("trace.est_us", total as f64 / n / 1e3, "us");
        m.put(
            "trace.accounted_frac",
            self.rung_ns.iter().sum::<u64>() as f64 / total as f64,
            "ratio",
        );
        m.put(
            "trace.overhead_us",
            median_us(&self.latency_ns) - median_us(untraced_ns),
            "us",
        );
    }
}
