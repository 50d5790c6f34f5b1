//! The estimation service: catalog snapshots and the concurrent
//! `estimate` / `estimate_with_budget` front end.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use sqe_core::{
    build_pool_threaded, BackendKind, BeamConfig, BnBackend, BnCatalog, BoundSketch, Budget,
    CacheKey, DegradeReason, DiffBackend, DpStrategy, ErrorMode, IngestReport, Ladder, MetricsSink,
    PessimisticBackend, PoolSpec, Quality, RungCosts, SelectivityBackend, Sit2Catalog, SitCatalog,
    SitOptions,
};
use sqe_engine::{Database, Result as EngineResult, SpjQuery};

use crate::admission::AdmissionControl;
use crate::cache::ShardedCache;
use crate::stats::{ServiceStats, ServiceStatsSnapshot};

/// Shard count of every snapshot's cross-query cache.
const CACHE_SHARDS: usize = 16;

/// Bound on each per-shard map of that cache (queries, joins and `H3`
/// each hold at most this many entries per shard).
const CACHE_CAPACITY_PER_SHARD: usize = 4096;

/// The deadline [`EstimationService::default_budget`] hands out: the
/// latency envelope a budgeted request is expected to answer within — by
/// degrading, never by erroring. Wide queries routed to the beam engine
/// are tuned ([`BeamConfig::default`]: width 4, see
/// `BENCH_estimator.json`'s wide-`n` rows) to fit a 32-predicate estimate
/// inside it on a single core.
const DEFAULT_DEADLINE: Duration = Duration::from_millis(250);

/// Configuration of an [`EstimationService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Error mode every estimator runs under (part of every cache key, but
    /// fixed per service so concurrent estimates are comparable).
    pub mode: ErrorMode,
    /// Which engine answers each query: under `Auto` (the default) the
    /// exact dense engine up to 20 predicates and the beam above, under
    /// `Beam` the approximate beam at every width. The two answer
    /// differently, but every SIT-pair product they share through the
    /// snapshot's cache is exact under both, and only `Full` answers enter
    /// the whole-query cache.
    pub dp_strategy: DpStrategy,
    /// Admission bound for the *budgeted* endpoint
    /// ([`EstimationService::estimate_with_budget`]): at most this many
    /// requests in flight, the rest shed with
    /// [`ServiceError::Overloaded`]. `0` disables the bound.
    /// [`EstimationService::estimate`] takes no permit.
    pub max_in_flight: usize,
    /// Knobs of the beam-search approximate engine (see
    /// [`sqe_core::BeamConfig`]), used whenever `dp_strategy` routes a
    /// query's width to the beam — under the default `Auto`, every query
    /// wider than 20 predicates.
    pub beam: BeamConfig,
    /// Which [`SelectivityBackend`] every estimator runs with (see the
    /// backend-selection table in the README). `Diff` — the default —
    /// keeps the paper's maxDiff/`diff` machinery and is bit-identical to
    /// a service built before this knob existed. `Bn` conditions
    /// correlated same-table filters through a Chow-Liu Bayesian network
    /// built per snapshot. `Pessimistic` keeps diff point estimates but
    /// drives the degradation floor through the guaranteed bound
    /// ([`Quality::Bound`]). Regardless of the choice, every snapshot
    /// carries a [`BoundSketch`] and every [`Estimate`] reports the sound
    /// [`Estimate::upper_bound`]. Fixed per service, like
    /// [`ServiceConfig::mode`], so cached values stay comparable.
    pub backend: BackendKind,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            mode: ErrorMode::Diff,
            dp_strategy: DpStrategy::Auto,
            max_in_flight: 64,
            beam: BeamConfig::default(),
            backend: BackendKind::Diff,
        }
    }
}
/// Why a budgeted request was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control is at capacity. Retry after the hinted delay,
    /// computed from actual permit-release telemetry — the EWMA of how
    /// long permits are held, scaled by the sheds queued since the last
    /// release (see [`crate::AdmissionControl::retry_hint`]) — clamped to
    /// [1 ms, 1 s]. Before any permit has been released there is no
    /// telemetry, and the hint falls back to the service's mean estimate
    /// latency.
    Overloaded {
        /// In-flight requests at the moment of the shed.
        in_flight: usize,
        /// Suggested back-off before retrying.
        retry_after: Duration,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded {
                in_flight,
                retry_after,
            } => write!(
                f,
                "overloaded: {in_flight} requests in flight, retry after {retry_after:?}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// An immutable view of the statistics state at one point in time.
///
/// Readers obtain an `Arc<CatalogSnapshot>` and keep estimating against it
/// for as long as they hold the `Arc`, entirely unaffected by concurrent
/// pool rebuilds; the writer installs a *new* snapshot and never mutates a
/// published one. The cross-query cache lives inside the snapshot because
/// its join/`H3` entries are keyed by [`sqe_core::SitId`], which is only
/// meaningful relative to this snapshot's catalog. Beside it live the
/// ladder's learned [`RungCosts`], whose rate includes that cache's hits
/// and misses; both start empty on every new snapshot.
pub struct CatalogSnapshot {
    db: Arc<Database>,
    sits: SitCatalog,
    sit2: Option<Sit2Catalog>,
    cache: ShardedCache,
    rung_costs: RungCosts,
    epoch: u64,
    /// Degree-sequence bound sketch over `db` — always present so every
    /// [`Estimate`] can report a sound [`Estimate::upper_bound`].
    bound: Arc<BoundSketch>,
    /// The estimator backend for this snapshot, resolved once from
    /// [`ServiceConfig::backend`] (the Bayesian-network catalog, when
    /// selected, is built here so it always matches `db`).
    backend: Arc<dyn SelectivityBackend>,
}

impl CatalogSnapshot {
    /// The database this snapshot estimates against.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The SIT catalog of this snapshot.
    pub fn sits(&self) -> &SitCatalog {
        &self.sits
    }

    /// The optional two-attribute SIT catalog.
    pub fn sit2(&self) -> Option<&Sit2Catalog> {
        self.sit2.as_ref()
    }

    /// The shared cross-query cache scoped to this snapshot.
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// What the dense ladder rungs have cost per submask iteration
    /// against this snapshot (see [`Ladder::with_rung_costs`]).
    pub fn rung_costs(&self) -> &RungCosts {
        &self.rung_costs
    }

    /// Monotone snapshot generation (0 for the service's initial catalog).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The degree-sequence bound sketch over this snapshot's database.
    pub fn bound_sketch(&self) -> &BoundSketch {
        &self.bound
    }

    /// The selectivity backend estimators against this snapshot run with.
    pub fn backend(&self) -> &dyn SelectivityBackend {
        &*self.backend
    }

    /// The next snapshot over the same database: new catalogs, a cold
    /// cache, the next epoch. The data-derived backend state carries over
    /// by reference — no rescan.
    fn successor(&self, sits: SitCatalog, sit2: Option<Sit2Catalog>) -> CatalogSnapshot {
        CatalogSnapshot {
            db: Arc::clone(&self.db),
            sits,
            sit2,
            cache: ShardedCache::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD),
            rung_costs: RungCosts::new(),
            epoch: self.epoch + 1,
            bound: Arc::clone(&self.bound),
            backend: Arc::clone(&self.backend),
        }
    }
}

/// Per-snapshot backend state: the always-on bound sketch plus the
/// configured backend instance (building the Bayesian-network catalog
/// when — and only when — [`BackendKind::Bn`] is selected).
fn backend_state(
    db: &Database,
    kind: BackendKind,
) -> (Arc<BoundSketch>, Arc<dyn SelectivityBackend>) {
    let bound = Arc::new(BoundSketch::build(db));
    let backend: Arc<dyn SelectivityBackend> = match kind {
        BackendKind::Diff => Arc::new(DiffBackend),
        BackendKind::Bn => Arc::new(BnBackend::new(Arc::new(BnCatalog::build(db)))),
        BackendKind::Pessimistic => Arc::new(PessimisticBackend::new(Arc::clone(&bound))),
    };
    (bound, backend)
}

/// What a [`EstimationService::partial_install`] published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialInstallOutcome {
    /// Epoch of the installed snapshot.
    pub epoch: u64,
    /// Cross-query cache entries carried into the new snapshot.
    pub cache_carried: u64,
    /// Cache entries invalidated (their keys covered mutated tables or
    /// refreshed SITs).
    pub cache_dropped: u64,
}

/// One answered estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Selectivity of the full query (fraction of the cartesian product).
    pub selectivity: f64,
    /// Accumulated error score of the chosen decomposition (lower is
    /// better; the scale depends on the service's [`ErrorMode`]).
    pub error: f64,
    /// `selectivity × |cartesian product|`; infinite if the product
    /// overflows `u128`.
    pub cardinality: f64,
    /// Epoch of the snapshot that answered, so callers can correlate
    /// estimates with catalog generations.
    pub epoch: u64,
    /// True when the whole-query cache answered without constructing an
    /// estimator.
    ///
    /// This is the **only** field that depends on request order: a query
    /// hits only once an earlier request has published its key, and two
    /// concurrent callers can race the same key and both miss — so
    /// `cached` may differ from run to run when callers run
    /// concurrently. `selectivity`, `error`, `cardinality`, and `epoch`
    /// are pure functions of `(query, snapshot)` and are bit-identical
    /// whoever asks first. Don't assert on `cached` in tests that race
    /// callers.
    pub cached: bool,
    /// How the answer was obtained. Every unbudgeted or in-budget request
    /// reports [`Quality::Full`] — or [`Quality::Beam`] when
    /// [`ServiceConfig::dp_strategy`] routes the query's width to the
    /// beam-search approximate engine (under `Auto`, `n > 20`); a
    /// budgeted request that ran out reports the degradation-ladder rung
    /// that answered, and a request whose estimator panicked reports
    /// [`Quality::Independence`] with [`DegradeReason::Panic`].
    pub quality: Quality,
    /// Why the answer is degraded below the best rung the query's routing
    /// allows (`None` iff the answer is undegraded: `Full`, or `Beam` for
    /// beam-routed queries).
    pub degraded_reason: Option<DegradeReason>,
    /// A **guaranteed** upper bound on the query's result cardinality,
    /// from the snapshot's degree-sequence [`BoundSketch`] — reported on
    /// every estimate regardless of [`ServiceConfig::backend`], and sound
    /// no matter how approximate the point estimate above it is. `None`
    /// only when the sketch does not know a referenced table (a
    /// sketch/database mismatch) or the answer came from the
    /// panic-recovery path (where no backend code is trusted to run).
    pub upper_bound: Option<f64>,
}

/// A concurrent selectivity-estimation service over one database.
///
/// Shares one [`CatalogSnapshot`] among any number of estimating threads;
/// [`EstimationService::install`] / [`EstimationService::rebuild_pool`]
/// atomically swap in a fresh snapshot without blocking readers mid-query.
/// Estimates are bit-identical to running a fresh single-threaded
/// [`sqe_core::SelectivityEstimator`] against the same catalog: the shared
/// cache only stores values that are pure functions of `(predicates,
/// conditioning set, mode, snapshot)`.
///
/// Every estimate — budgeted or not — takes one path inside one
/// `catch_unwind`: a whole-query cache probe, then the [`Ladder`], then
/// the upper bound, and one report to the service's [`MetricsSink`]. A
/// panic anywhere on it is answered from the independence floor and
/// quarantines the snapshot's cache.
pub struct EstimationService {
    config: ServiceConfig,
    /// The database lives inside each snapshot (not on the service):
    /// partial installs can evolve it, and a reader's estimates must be
    /// consistent with the database its catalog was built against.
    current: RwLock<Arc<CatalogSnapshot>>,
    /// The service's own aggregator: what [`EstimationService::stats`]
    /// reports, and the sink unless [`EstimationService::with_metrics`]
    /// replaces it.
    stats: Arc<ServiceStats>,
    /// Shared so several services (one per tenant behind a front door)
    /// can draw on one process-wide in-flight budget — see
    /// [`EstimationService::with_shared_admission`].
    admission: Arc<AdmissionControl>,
    /// The one observer every request event goes to.
    metrics: Arc<dyn MetricsSink>,
}

impl EstimationService {
    /// A service answering with `catalog` over `db`.
    pub fn new(db: Arc<Database>, catalog: SitCatalog, config: ServiceConfig) -> Self {
        // Chaos/fault-injection runs configure sites via SQE_FAILPOINTS;
        // a no-op (one Once check) otherwise.
        sqe_core::failpoint::init_from_env();
        let (bound, backend) = backend_state(&db, config.backend);
        let snapshot = Arc::new(CatalogSnapshot {
            db,
            sits: catalog,
            sit2: None,
            cache: ShardedCache::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD),
            rung_costs: RungCosts::new(),
            epoch: 0,
            bound,
            backend,
        });
        let stats = Arc::new(ServiceStats::default());
        EstimationService {
            config,
            current: RwLock::new(snapshot),
            metrics: Arc::clone(&stats) as Arc<dyn MetricsSink>,
            stats,
            admission: Arc::new(AdmissionControl::new(config.max_in_flight)),
        }
    }

    /// Replaces this service's admission control with a shared one, so
    /// several services draw permits from a single process-wide budget.
    /// The multi-tenant front door (`sqe-server`) gives every tenant its
    /// own service — own snapshots, cache, stats — but one global
    /// [`AdmissionControl`], so aggregate in-flight work stays bounded no
    /// matter how many tenants exist. [`ServiceConfig::max_in_flight`] is
    /// ignored in favor of the shared pool's bound. Call before serving
    /// traffic.
    pub fn with_shared_admission(mut self, admission: Arc<AdmissionControl>) -> Self {
        self.admission = admission;
        self
    }

    /// Replaces the service's sink with `sink`, which then observes every
    /// request: per-rung attempts and answers (threaded into the core
    /// [`Ladder`]), served estimates with latency and quality, sheds with
    /// their retry hints, quarantines, bound widths, observed ingest
    /// epochs and installs. Sinks only observe — answers are
    /// bit-identical with or without one. The service's own
    /// [`ServiceStats`] then receives nothing, so
    /// [`EstimationService::stats`] sees only the cache counters. Call
    /// before serving traffic.
    pub fn with_metrics(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.metrics = sink;
        self
    }

    /// The sink every request event of this service goes to — by default
    /// the service's own [`ServiceStats`]. A front end reports the
    /// requests it refuses before they reach the service here.
    pub fn metrics(&self) -> &dyn MetricsSink {
        &*self.metrics
    }

    /// The admission pool this service draws budgeted permits from.
    pub fn admission(&self) -> &Arc<AdmissionControl> {
        &self.admission
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The current snapshot. The returned `Arc` stays valid (and its cache
    /// stays warm) even if a new snapshot is installed concurrently.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(&self.current.read())
    }

    /// Atomically publishes a new catalog (with an optional two-attribute
    /// catalog) as the next snapshot, with a fresh cache and a bumped
    /// epoch. In-flight readers keep their old snapshot; new estimates see
    /// the new one.
    ///
    /// The epoch is computed and the snapshot swapped under **one** write
    /// lock, so racing installs serialize and every published snapshot gets
    /// a distinct, strictly increasing epoch. (Reading the epoch under a
    /// separate read lock would let two racing installs both publish
    /// `epoch + 1`.)
    pub fn install(&self, catalog: SitCatalog, sit2: Option<Sit2Catalog>) {
        sqe_core::failpoint::fire("service::install");
        let mut current = self.current.write();
        *current = Arc::new(current.successor(catalog, sit2));
        drop(current);
        self.metrics.install();
    }

    /// Publishes a delta-ingested catalog as an **epoch-tagged partial
    /// snapshot**: the new snapshot carries the evolved database and
    /// catalog, and — unlike [`EstimationService::install`] — it *carries
    /// over* every cross-query cache entry that the ingest could not have
    /// invalidated. Whole-query entries survive unless one of their
    /// predicates reads a mutated table; join-product and `H3`
    /// entries survive unless either of their SITs was rebuilt (SIT
    /// identities are preserved for untouched SITs, so the keys stay
    /// meaningful).
    ///
    /// Epoch bump, cache carry-over, and snapshot swap all happen under one
    /// write lock: a concurrent [`EstimationService::estimate`] either runs
    /// entirely against the old snapshot or entirely against the new one —
    /// never against a half-installed catalog — and racing installs get
    /// distinct epochs.
    pub fn partial_install(
        &self,
        db: Arc<Database>,
        catalog: SitCatalog,
        sit2: Option<Sit2Catalog>,
        report: &IngestReport,
    ) -> PartialInstallOutcome {
        sqe_core::failpoint::fire("service::partial_install");
        // Both rebuilt *and* incrementally merged SITs carry new
        // histograms under a stable id, so cached SIT-pair products from
        // either are stale; only deferred SITs keep their entries valid.
        let mut stale_sits = report.sits_refreshed.clone();
        stale_sits.extend_from_slice(&report.sits_merged);
        // The ingested database differs from the old snapshot's, so the
        // data-derived backend state must be rebuilt against it — outside
        // the write lock, so readers are never blocked on the rescan.
        let (bound, backend) = backend_state(&db, self.config.backend);
        let mut current = self.current.write();
        let (cache, carry) = ShardedCache::carry_from(
            CACHE_SHARDS,
            CACHE_CAPACITY_PER_SHARD,
            &current.cache,
            &report.tables_touched,
            &stale_sits,
        );
        let epoch = current.epoch + 1;
        *current = Arc::new(CatalogSnapshot {
            db,
            sits: catalog,
            sit2,
            cache,
            rung_costs: RungCosts::new(),
            epoch,
            bound,
            backend,
        });
        drop(current);
        self.metrics.partial_install(
            report.ops_applied as u64,
            report.sits_refreshed.len() as u64,
            carry.carried,
            carry.dropped,
        );
        PartialInstallOutcome {
            epoch,
            cache_carried: carry.carried,
            cache_dropped: carry.dropped,
        }
    }

    /// Builds the `J_i` SIT pool for `workload` on one thread per host CPU
    /// (parallel across SIT expressions) and installs it as the new
    /// snapshot. Readers are never blocked: the build runs outside any
    /// lock, and the final swap is [`EstimationService::install`].
    pub fn rebuild_pool(
        &self,
        workload: &[SpjQuery],
        spec: PoolSpec,
        opts: SitOptions,
    ) -> EngineResult<()> {
        let threads =
            std::thread::available_parallelism().unwrap_or(NonZeroUsize::new(1).expect("non-zero"));
        // Build against the database of the *current* snapshot (partial
        // installs may have evolved it past the one the service started
        // with). A partial install racing the build wins the data race
        // benignly: install() re-reads the then-current db under the write
        // lock, but the catalog built here could be one generation behind —
        // callers serialize rebuilds with ingest for exact results.
        let db = Arc::clone(&self.snapshot().db);
        let catalog = build_pool_threaded(&db, workload, spec, opts, threads)?;
        self.install(catalog, None);
        Ok(())
    }

    /// Estimates one query against the current snapshot: the path of
    /// [`EstimationService::estimate_with_budget`] under
    /// [`Budget::unlimited`], panic isolation included, without its
    /// admission permit. The answer is [`Quality::Full`] — or
    /// [`Quality::Beam`] for beam-routed widths — and reports one attempt
    /// and one answer at that rung to the sink.
    pub fn estimate(&self, query: &SpjQuery) -> Estimate {
        self.answer(query, &Budget::unlimited())
    }

    /// Service metrics, including the current snapshot's cache counters.
    /// Request counters stay zero once [`EstimationService::with_metrics`]
    /// has replaced the service's own sink.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        self.stats.snapshot(self.snapshot().cache.counters())
    }

    /// The budget a caller with no latency requirements of its own should
    /// use: unlimited work, capped by a 250 ms deadline. Under it a
    /// 32-predicate query answers with a [`Quality::Beam`] label on a
    /// single core (`estimator_bench` asserts it in release); narrower
    /// queries answer `Full` as before.
    pub fn default_budget(&self) -> Budget {
        Budget::unlimited().with_deadline(DEFAULT_DEADLINE)
    }

    /// Estimates one query under a [`Budget`], degrading instead of
    /// blocking: if the budget runs out mid-DP the answer comes from a
    /// coarser rung of the [`Ladder`] with an honest [`Estimate::quality`]
    /// label. Unlike [`EstimationService::estimate`], this endpoint is
    /// admission-controlled: at most [`ServiceConfig::max_in_flight`]
    /// concurrent budgeted requests, the rest shed with
    /// [`ServiceError::Overloaded`] and a retry-after hint. Both endpoints
    /// are panic-isolated: a panicking estimator is caught, its
    /// snapshot's cache quarantined, a fresh snapshot installed, and the
    /// request still answered from the independence floor with
    /// [`DegradeReason::Panic`].
    ///
    /// An unlimited budget produces answers bit-identical to
    /// [`EstimationService::estimate`], labeled [`Quality::Full`] (or
    /// [`Quality::Beam`] for beam-routed widths).
    pub fn estimate_with_budget(
        &self,
        query: &SpjQuery,
        budget: &Budget,
    ) -> Result<Estimate, ServiceError> {
        let Some(_permit) = self.admission.try_acquire() else {
            return Err(self.shed());
        };
        Ok(self.answer(query, budget))
    }

    /// Reports a shed and builds the `Overloaded` error with its
    /// retry-after hint: permit-release telemetry (EWMA hold time scaled
    /// by queued demand — see [`AdmissionControl::retry_hint`]) when any
    /// permit has completed, the mean estimate latency before that, both
    /// clamped to [1 ms, 1 s].
    fn shed(&self) -> ServiceError {
        let retry_after = self
            .admission
            .note_shed()
            .unwrap_or_else(|| self.stats.mean_latency_hint())
            .clamp(Duration::from_millis(1), Duration::from_secs(1));
        self.metrics.shed(retry_after.as_nanos() as u64);
        ServiceError::Overloaded {
            in_flight: self.admission.in_flight(),
            retry_after,
        }
    }

    /// The one estimate path, against the current snapshot. Probes the
    /// whole-query cache, runs the [`Ladder`] on a miss, caches a `Full`
    /// answer and computes the upper bound, all inside one
    /// `catch_unwind`; then reports the finished [`Estimate`] once. The
    /// cache holds exact `Full` answers only — the invariant a budgeted
    /// hit relies on — so a query the ladder answers on a lower rung, or
    /// routes to the beam, misses every time. A panic anywhere inside is
    /// caught here, the snapshot recovered, and the request answered from
    /// the independence floor.
    fn answer(&self, query: &SpjQuery, budget: &Budget) -> Estimate {
        let snapshot = self.snapshot();
        let start = Instant::now();
        let estimate = catch_unwind(AssertUnwindSafe(|| {
            let key = CacheKey::query(self.config.mode, &query.predicates);
            let hit = snapshot.cache.get_query(&key);
            let (selectivity, error, quality, reason, cached) = match hit {
                // Only Full answers are ever inserted, so a hit *is* a
                // Full answer regardless of this request's budget.
                Some((s, e)) => (s, e, Quality::Full, None, true),
                None => {
                    let mut ladder = Ladder::new(&snapshot.db, &snapshot.sits, self.config.mode)
                        .with_metrics(&*self.metrics)
                        .with_strategy(self.config.dp_strategy)
                        .with_beam_config(self.config.beam)
                        .with_backend(Arc::clone(&snapshot.backend))
                        .with_shared_cache(&snapshot.cache)
                        .with_rung_costs(&snapshot.rung_costs);
                    if let Some(sit2) = &snapshot.sit2 {
                        ladder = ladder.with_sit2_catalog(sit2);
                    }
                    let b = ladder.estimate(query, budget);
                    if b.quality == Quality::Full {
                        let error = b.error.expect("full answers carry an error");
                        snapshot.cache.put_query(key, (b.selectivity, error));
                    }
                    (
                        b.selectivity,
                        b.error.unwrap_or(f64::INFINITY),
                        b.quality,
                        b.degraded_reason,
                        false,
                    )
                }
            };
            Estimate {
                selectivity,
                error,
                cardinality: cardinality_of(&snapshot, query, selectivity),
                epoch: snapshot.epoch,
                cached,
                quality,
                degraded_reason: reason,
                upper_bound: snapshot.bound.upper_bound(query),
            }
        }))
        .unwrap_or_else(|_| {
            self.recover_after_panic(&snapshot);
            let selectivity =
                sqe_core::baseline::independence_selectivity(&snapshot.db, &snapshot.sits, query);
            self.metrics.rung_attempted(Quality::Independence);
            self.metrics
                .rung_answered(Quality::Independence, Some(DegradeReason::Panic));
            Estimate {
                selectivity,
                error: f64::INFINITY,
                cardinality: cardinality_of(&snapshot, query, selectivity),
                epoch: snapshot.epoch,
                cached: false,
                quality: Quality::Independence,
                degraded_reason: Some(DegradeReason::Panic),
                // The panic may have come from the backend itself (the
                // chaos suite arms exactly that), so no backend code —
                // including the bound sketch — runs on this path.
                upper_bound: None,
            }
        });
        self.observe(&estimate, start.elapsed());
        estimate
    }

    /// Reports one served estimate to the sink: latency + quality, the
    /// safety-envelope width when the bound is known, and the snapshot
    /// epoch that answered.
    fn observe(&self, e: &Estimate, latency: Duration) {
        self.metrics
            .estimate_served(latency.as_nanos() as u64, e.quality, e.cached);
        if let Some(bound) = e.upper_bound {
            if bound.is_finite() && e.cardinality.is_finite() {
                self.metrics.bound_width(bound / e.cardinality.max(1.0));
            }
        }
        self.metrics.ingest_epoch_observed(e.epoch);
    }

    /// Recovery after a request panicked against `snapshot`: quarantine
    /// its cache (the dying estimator may have left it half-written), and
    /// — if that snapshot is still current — install a replacement with
    /// the same catalogs and a cold cache. The epoch check under the
    /// write lock makes concurrent recoveries idempotent: only the first
    /// panic against a given epoch installs; later ones see a newer epoch
    /// and return.
    fn recover_after_panic(&self, snapshot: &CatalogSnapshot) {
        snapshot.cache.quarantine();
        self.metrics.quarantine();
        let mut current = self.current.write();
        if current.epoch != snapshot.epoch {
            return;
        }
        *current = Arc::new(snapshot.successor(snapshot.sits.clone(), snapshot.sit2.clone()));
        drop(current);
        self.metrics.install();
    }
}

/// `selectivity × |cartesian product|`; infinite if the product overflows.
fn cardinality_of(snapshot: &CatalogSnapshot, query: &SpjQuery, selectivity: f64) -> f64 {
    match query.cross_product_size(&snapshot.db) {
        Ok(cross) => selectivity * cross as f64,
        Err(_) => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqe_core::SelectivityEstimator;
    use sqe_engine::table::TableBuilder;
    use sqe_engine::{CmpOp, ColRef, Predicate, TableId};

    fn small_db() -> Arc<Database> {
        let mut db = Database::new();
        db.add_table(
            TableBuilder::new("r")
                .column("a", vec![1, 1, 2, 3, 3, 3])
                .column("x", vec![10, 10, 20, 30, 30, 40])
                .build()
                .unwrap(),
        );
        db.add_table(
            TableBuilder::new("s")
                .column("y", vec![10, 20, 20, 30, 50])
                .column("b", vec![1, 2, 2, 3, 3])
                .build()
                .unwrap(),
        );
        Arc::new(db)
    }

    fn join() -> Predicate {
        Predicate::join(ColRef::new(TableId(0), 1), ColRef::new(TableId(1), 0))
    }

    fn filter(v: i64) -> Predicate {
        Predicate::filter(ColRef::new(TableId(0), 0), CmpOp::Eq, v)
    }

    fn query(v: i64) -> SpjQuery {
        SpjQuery::from_predicates(vec![join(), filter(v)]).unwrap()
    }

    /// The join plus 21 distinct range filters: 22 predicates, which the
    /// default `Auto` strategy routes to the beam engine.
    fn wide_query() -> SpjQuery {
        let mut predicates = vec![join()];
        for k in 0..21i64 {
            let col = ColRef::new(TableId((k % 2) as u32), (k / 2 % 2) as u16);
            predicates.push(Predicate::range(col, -k, 60 + k));
        }
        SpjQuery::from_predicates(predicates).unwrap()
    }

    fn service(db: &Arc<Database>) -> EstimationService {
        let workload = vec![query(1)];
        let catalog = sqe_core::build_pool(db, &workload, PoolSpec::ji(1)).expect("pool build");
        EstimationService::new(Arc::clone(db), catalog, ServiceConfig::default())
    }

    #[test]
    fn estimate_matches_fresh_estimator() {
        let db = small_db();
        let svc = service(&db);
        let q = query(1);
        let got = svc.estimate(&q);
        let snap = svc.snapshot();
        let mut fresh = SelectivityEstimator::new(&db, &q, snap.sits(), svc.config().mode);
        assert_eq!(got.selectivity.to_bits(), fresh.selectivity().to_bits());
        assert!(!got.cached);
    }

    #[test]
    fn repeat_estimates_hit_the_query_cache_bit_identically() {
        let db = small_db();
        let svc = service(&db);
        let q = query(3);
        let cold = svc.estimate(&q);
        let warm = svc.estimate(&q);
        assert!(!cold.cached);
        assert!(warm.cached);
        assert_eq!(cold.selectivity.to_bits(), warm.selectivity.to_bits());
        assert_eq!(cold.error.to_bits(), warm.error.to_bits());
        assert_eq!(svc.stats().query_cache_hits, 1);
    }

    #[test]
    fn install_bumps_epoch_and_resets_cache_without_breaking_held_snapshots() {
        let db = small_db();
        let svc = service(&db);
        let held = svc.snapshot();
        let q = query(1);
        svc.estimate(&q);
        assert!(!svc.snapshot().cache().is_empty());

        let workload = vec![query(1)];
        let catalog = sqe_core::build_pool(&db, &workload, PoolSpec::ji(1)).unwrap();
        svc.install(catalog, None);

        assert_eq!(held.epoch(), 0, "held snapshot untouched");
        let now = svc.snapshot();
        assert_eq!(now.epoch(), 1);
        assert!(now.cache().is_empty(), "new snapshot starts cold");
        assert_eq!(svc.estimate(&q).epoch, 1);
        assert_eq!(svc.stats().installs, 1);
    }

    #[test]
    fn partial_install_carries_untouched_cache_and_drops_touched() {
        let db = small_db();
        let svc = service(&db);
        let q = query(1);
        svc.estimate(&q);
        assert!(!svc.snapshot().cache().is_empty());

        // An ingest touching no tables and refreshing no SITs carries the
        // whole cache across: the repeat estimate still hits.
        let snap = svc.snapshot();
        let out = svc.partial_install(
            Arc::clone(&db),
            snap.sits().clone(),
            None,
            &IngestReport::default(),
        );
        assert_eq!(out.epoch, 1);
        assert_eq!(out.cache_dropped, 0);
        assert!(out.cache_carried > 0);
        let warm = svc.estimate(&q);
        assert!(warm.cached, "query entry survived the partial install");
        assert_eq!(warm.epoch, 1);

        // Touching table 0 invalidates every key reading it — the repeat
        // estimate recomputes.
        let report = IngestReport {
            tables_touched: vec![TableId(0)],
            ..IngestReport::default()
        };
        let out = svc.partial_install(
            Arc::clone(&db),
            svc.snapshot().sits().clone(),
            None,
            &report,
        );
        assert_eq!(out.epoch, 2);
        assert!(out.cache_dropped > 0);
        assert!(!svc.estimate(&q).cached);

        let stats = svc.stats();
        assert_eq!(stats.installs, 2, "partial installs count as installs");
        assert_eq!(stats.ingest.partial_installs, 2);
        assert_eq!(stats.ingest.cache_dropped, out.cache_dropped);
    }

    #[test]
    fn racing_installs_publish_distinct_increasing_epochs() {
        // Regression: install() used to read the epoch under a read lock
        // and swap under a separate write lock, so two racing installs
        // could both publish `epoch + 1`. Epoch now advances under the one
        // write lock that swaps the snapshot.
        let db = small_db();
        let svc = service(&db);
        let catalog = svc.snapshot().sits().clone();
        let svc = &svc;
        std::thread::scope(|s| {
            for i in 0..8 {
                let catalog = catalog.clone();
                let db = Arc::clone(&db);
                s.spawn(move || {
                    if i % 2 == 0 {
                        svc.install(catalog, None);
                    } else {
                        svc.partial_install(db, catalog, None, &IngestReport::default());
                    }
                });
            }
        });
        assert_eq!(svc.snapshot().epoch(), 8, "every install got its own epoch");
        assert_eq!(svc.stats().installs, 8);
    }

    #[test]
    fn rebuild_pool_swaps_in_a_freshly_built_catalog() {
        let db = small_db();
        let svc = service(&db);
        let before = svc.snapshot().sits().len();
        svc.rebuild_pool(&[query(1)], PoolSpec::ji(1), SitOptions::default())
            .unwrap();
        let snap = svc.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.sits().len(), before, "same workload, same pool");
    }

    #[test]
    fn cardinality_scales_selectivity_by_cross_product() {
        let db = small_db();
        let svc = service(&db);
        let q = query(1);
        let e = svc.estimate(&q);
        let cross = q.cross_product_size(&db).unwrap() as f64;
        assert_eq!(e.cardinality.to_bits(), (e.selectivity * cross).to_bits());
    }

    #[test]
    fn unlimited_budget_is_full_quality_and_bit_identical() {
        let db = small_db();
        let svc = service(&db);
        let q = query(1);
        let plain = svc.estimate(&q);
        // Fresh service so the query cache is cold for the budgeted path.
        let svc2 = service(&db);
        let budgeted = svc2
            .estimate_with_budget(&q, &Budget::unlimited())
            .expect("admitted");
        assert_eq!(budgeted.quality, Quality::Full);
        assert_eq!(budgeted.degraded_reason, None);
        assert!(!budgeted.cached);
        assert_eq!(budgeted.selectivity.to_bits(), plain.selectivity.to_bits());
        assert_eq!(budgeted.error.to_bits(), plain.error.to_bits());
        assert_eq!(svc2.stats().quality_count(Quality::Full), 1);

        // A beam-routed width: both endpoints agree on every field.
        let wide = wide_query();
        let plain = svc.estimate(&wide);
        let budgeted = svc2
            .estimate_with_budget(&wide, &Budget::unlimited())
            .expect("admitted");
        assert_eq!(plain.quality, Quality::Beam);
        assert_eq!(budgeted, plain);
        assert_eq!(budgeted.selectivity.to_bits(), plain.selectivity.to_bits());
    }

    #[test]
    fn budgeted_full_answers_populate_and_hit_the_query_cache() {
        let db = small_db();
        let svc = service(&db);
        let q = query(2);
        let cold = svc
            .estimate_with_budget(&q, &Budget::unlimited())
            .expect("admitted");
        let warm = svc
            .estimate_with_budget(&q, &Budget::unlimited())
            .expect("admitted");
        assert!(!cold.cached);
        assert!(warm.cached);
        assert_eq!(warm.quality, Quality::Full);
        assert_eq!(cold.selectivity.to_bits(), warm.selectivity.to_bits());
    }

    #[test]
    fn cancelled_budget_degrades_with_an_honest_label() {
        let db = small_db();
        let svc = service(&db);
        let cancel = sqe_core::CancelToken::new();
        cancel.cancel();
        let budget = Budget::unlimited().with_cancel(cancel);
        let e = svc
            .estimate_with_budget(&query(1), &budget)
            .expect("admitted");
        assert_eq!(e.quality, Quality::Independence);
        assert_eq!(e.degraded_reason, Some(DegradeReason::Cancelled));
        assert!(e.selectivity.is_finite());
        assert!(e.error.is_infinite(), "no error model below the DP rungs");
        let stats = svc.stats();
        assert_eq!(stats.quality_count(Quality::Independence), 1);
        assert_eq!(stats.degraded_by(DegradeReason::Cancelled), 1);
    }

    #[test]
    fn admission_sheds_when_at_capacity() {
        let db = small_db();
        let workload = vec![query(1)];
        let catalog = sqe_core::build_pool(&db, &workload, PoolSpec::ji(1)).unwrap();
        let svc = EstimationService::new(
            Arc::clone(&db),
            catalog,
            ServiceConfig {
                max_in_flight: 1,
                ..ServiceConfig::default()
            },
        );
        // Saturate the single slot directly (the permit type is private to
        // the crate, so tests reach through the field).
        let permit = svc.admission.try_acquire().expect("free");
        let err = svc
            .estimate_with_budget(&query(1), &Budget::unlimited())
            .expect_err("must shed");
        let ServiceError::Overloaded {
            in_flight,
            retry_after,
        } = err;
        assert_eq!(in_flight, 1);
        assert!(retry_after >= Duration::from_millis(1));
        assert!(retry_after <= Duration::from_secs(1));
        assert_eq!(svc.stats().sheds, 1);
        drop(permit);
        assert!(svc
            .estimate_with_budget(&query(1), &Budget::unlimited())
            .is_ok());
    }
}
