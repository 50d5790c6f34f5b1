//! Multi-tenant front door: independent per-tenant catalogs behind one
//! process-wide admission budget.
//!
//! A [`Tenant`] owns a full [`EstimationService`] — its own epoch-tagged
//! snapshots, cross-query cache, and [`LiveCatalog`] ingest state — plus
//! a [`TokenBucket`] quota and a per-tenant in-flight pool. What tenants
//! *share* is a single global [`AdmissionControl`]: the process-wide
//! bound on concurrent estimation work, installed into every tenant's
//! service via `with_shared_admission`.
//!
//! ## The admission stack
//!
//! An estimate passes three gates, cheapest first, and a refusal at any
//! of them is a labeled, retryable `429`:
//!
//! 1. **Quota** — the tenant's token bucket. The retry hint is the exact
//!    bucket refill time (see [`crate::quota`]).
//! 2. **Tenant in-flight** — the tenant's own [`AdmissionControl`]. The
//!    hint comes from that pool's permit-release telemetry.
//! 3. **Global in-flight** — the shared pool, inside
//!    `estimate_with_budget`. The hint comes from *global* telemetry but
//!    is **capped per-tenant** at twice the tenant's full bucket refill:
//!    a small tenant is never told to back off on the timescale of
//!    someone else's overload.
//!
//! Requests that pass all three run under a deadline that is the
//! *minimum* of the caller's ask, the tenant's contracted ceiling, and
//! the bucket's pressure-compressed deadline — so a tenant driving 2×
//! its quota sees its own answers degrade down the ladder (honestly
//! labeled `pruned`/`greedy`/...) while every other tenant keeps its
//! full ceiling and stays at `Quality::Full`.
//!
//! ## Isolation
//!
//! Catalog state is never shared: an ingest into tenant A's
//! [`LiveCatalog`] publishes a partial snapshot into A's service only,
//! and a concurrent estimate for tenant B runs against B's snapshot —
//! the `tests/server.rs` race suite pins that estimates always carry
//! their own tenant's epoch and bits.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use sqe_core::{Budget, DeltaConfig, LiveCatalog, MetricsSink, SitCatalog};
use sqe_engine::delta::DeltaBatch;
use sqe_engine::{Database, Predicate, SpjQuery, TableId};
use sqe_service::{
    AdmissionControl, Estimate, EstimationService, PartialInstallOutcome, ServiceConfig,
    ServiceError,
};

use crate::http::{Request, Response};
use crate::metrics::{MetricsSnapshot, TenantMetrics};
use crate::quota::{QuotaConfig, TokenBucket};

/// Everything needed to stand up one tenant.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantConfig {
    /// Rate/burst/in-flight/deadline quota contract.
    pub quota: QuotaConfig,
    /// The tenant's estimation-service knobs (its `max_in_flight` is
    /// irrelevant: the shared global pool bounds budgeted work).
    pub service: ServiceConfig,
    /// Live-catalog maintenance knobs for this tenant's ingest stream.
    pub delta: DeltaConfig,
}

/// Which gate refused a request (the `scope` field of a 429 body).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedScope {
    /// The tenant's token bucket was empty.
    Quota,
    /// The tenant's own in-flight pool was full.
    Tenant,
    /// The process-wide admission pool was full.
    Global,
}

impl ShedScope {
    fn label(self) -> &'static str {
        match self {
            ShedScope::Quota => "quota",
            ShedScope::Tenant => "tenant",
            ShedScope::Global => "global",
        }
    }
}

/// Why a front-door request failed.
#[derive(Debug)]
pub enum DoorError {
    /// Refused by one of the three admission gates; retry after the hint.
    Overloaded {
        /// Which gate refused.
        scope: ShedScope,
        /// Honest back-off hint (bucket refill, or permit telemetry
        /// capped per-tenant).
        retry_after: Duration,
    },
    /// The request body or target was malformed.
    Bad(String),
    /// No such tenant.
    UnknownTenant(String),
}

/// One tenant: service + live catalog + quota + in-flight pool + metrics.
pub struct Tenant {
    name: String,
    service: EstimationService,
    live: Mutex<LiveCatalog>,
    bucket: TokenBucket,
    admission: AdmissionControl,
    metrics: Arc<TenantMetrics>,
    config: TenantConfig,
}

impl Tenant {
    /// This tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This tenant's estimation service (own snapshots and cache).
    pub fn service(&self) -> &EstimationService {
        &self.service
    }

    /// This tenant's metrics sink.
    pub fn metrics(&self) -> &Arc<TenantMetrics> {
        &self.metrics
    }

    /// This tenant's token bucket.
    pub fn bucket(&self) -> &TokenBucket {
        &self.bucket
    }

    /// This tenant's own in-flight pool (gate 2).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// Largest retry hint this tenant is ever given: twice its full
    /// bucket refill (see the module docs).
    pub fn retry_cap(&self) -> Duration {
        self.config.quota.full_refill() * 2
    }

    /// Runs one estimate through the full admission stack (see the
    /// module docs for the three gates and the deadline minimum).
    pub fn estimate(
        &self,
        query: &SpjQuery,
        requested_deadline: Option<Duration>,
        now: Instant,
    ) -> Result<Estimate, DoorError> {
        // Gate 1: quota. The bucket's hint is exact refill time.
        if let Err(wait) = self.bucket.try_take(now) {
            self.metrics.shed(wait.as_nanos() as u64);
            return Err(DoorError::Overloaded {
                scope: ShedScope::Quota,
                retry_after: wait,
            });
        }
        // Gate 2: the tenant's own concurrency bound. RAII permit — held
        // across the estimate, released on every exit path including
        // panics (its Drop feeds the pool's hold-time telemetry).
        let Some(_permit) = self.admission.try_acquire() else {
            let wait = self
                .admission
                .note_shed()
                .unwrap_or_else(|| self.config.quota.full_refill())
                .min(self.retry_cap());
            self.metrics.shed(wait.as_nanos() as u64);
            return Err(DoorError::Overloaded {
                scope: ShedScope::Tenant,
                retry_after: wait,
            });
        };
        // Chaos site: a panic *here* unwinds with the quota token spent
        // and the tenant permit held — the leak-regression suite pins
        // that the RAII guard still returns both pools to idle.
        sqe_core::failpoint::fire("server::handle");
        let ceiling = self.config.quota.deadline_ceiling;
        let deadline = requested_deadline
            .unwrap_or(ceiling)
            .min(ceiling)
            .min(self.bucket.effective_deadline(now));
        let budget = Budget::unlimited().with_deadline(deadline);
        // Gate 3 lives inside the service: the shared global pool. Its
        // hint reflects global telemetry; cap it at this tenant's scale.
        match self.service.estimate_with_budget(query, &budget) {
            Ok(estimate) => Ok(estimate),
            Err(ServiceError::Overloaded { retry_after, .. }) => Err(DoorError::Overloaded {
                scope: ShedScope::Global,
                retry_after: retry_after.min(self.retry_cap()),
            }),
        }
    }

    /// Ingests one delta batch into this tenant's live catalog and
    /// publishes it as an epoch-tagged partial snapshot of this tenant's
    /// service only. Quota-gated like estimates (one token per batch) but
    /// not deadline-bounded: installs always complete once admitted.
    pub fn ingest(
        &self,
        batch: &DeltaBatch,
        now: Instant,
    ) -> Result<(sqe_core::IngestReport, PartialInstallOutcome), DoorError> {
        if let Err(wait) = self.bucket.try_take(now) {
            self.metrics.shed(wait.as_nanos() as u64);
            return Err(DoorError::Overloaded {
                scope: ShedScope::Quota,
                retry_after: wait,
            });
        }
        let mut live = self.live.lock();
        let report = live
            .ingest(batch)
            .map_err(|e| DoorError::Bad(format!("ingest failed: {e}")))?;
        let outcome = self.service.partial_install(
            Arc::new(live.db().clone()),
            live.catalog().clone(),
            None,
            &report,
        );
        Ok((report, outcome))
    }
}

/// The multi-tenant front door: a registry of [`Tenant`]s sharing one
/// global admission pool, with an HTTP-shaped [`FrontDoor::handle`]
/// dispatcher the reactor (and in-process tests) drive directly.
pub struct FrontDoor {
    global: Arc<AdmissionControl>,
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl FrontDoor {
    /// A front door bounding the whole process at `global_in_flight`
    /// concurrent budgeted estimates across all tenants.
    pub fn new(global_in_flight: usize) -> Self {
        FrontDoor {
            global: Arc::new(AdmissionControl::new(global_in_flight)),
            tenants: RwLock::new(BTreeMap::new()),
        }
    }

    /// The shared process-wide admission pool.
    pub fn global_admission(&self) -> &Arc<AdmissionControl> {
        &self.global
    }

    /// Registers a tenant over its own database + catalog. Replaces any
    /// existing tenant of the same name.
    pub fn add_tenant(
        &self,
        name: &str,
        db: Database,
        catalog: SitCatalog,
        config: TenantConfig,
    ) -> Arc<Tenant> {
        let metrics = Arc::new(TenantMetrics::default());
        let service = EstimationService::new(Arc::new(db.clone()), catalog.clone(), config.service)
            .with_shared_admission(Arc::clone(&self.global))
            .with_metrics(Arc::clone(&metrics) as Arc<dyn MetricsSink>);
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            service,
            live: Mutex::new(LiveCatalog::new(db, catalog, config.delta)),
            bucket: TokenBucket::new(config.quota, Instant::now()),
            admission: AdmissionControl::new(config.quota.max_in_flight),
            metrics,
            config,
        });
        self.tenants
            .write()
            .insert(name.to_string(), Arc::clone(&tenant));
        tenant
    }

    /// Looks up a tenant by name.
    pub fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().get(name).cloned()
    }

    /// All registered tenants, by name.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants.read().values().cloned().collect()
    }

    /// Dispatches one parsed request to a response. Total: every input —
    /// including garbage — maps to a response, never a panic (the
    /// reactor additionally wraps this in `catch_unwind` as a backstop).
    pub fn handle(&self, req: &Request) -> Response {
        let path = req.path().to_string();
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Response::text(200, "ok\n"),
            ("GET", ["metrics"]) => Response::text(200, self.render_metrics()),
            ("POST", ["v1", tenant, "estimate"]) => self.dispatch_estimate(tenant, &req.body),
            ("POST", ["v1", tenant, "ingest"]) => self.dispatch_ingest(tenant, &req.body),
            ("GET", ["v1", tenant, "stats"]) => self.dispatch_stats(tenant),
            (m, _) if m != "GET" && m != "POST" => {
                Response::json(405, err_body("method not allowed", None))
            }
            _ => Response::json(404, err_body("no such route", None)),
        }
    }

    fn dispatch_estimate(&self, name: &str, body: &[u8]) -> Response {
        let Some(tenant) = self.tenant(name) else {
            return Response::json(404, err_body("unknown tenant", Some(name)));
        };
        let wire: EstimateBody = match parse_json(body) {
            Ok(w) => w,
            Err(resp) => return resp,
        };
        let query = match SpjQuery::new(
            wire.tables.into_iter().map(TableId).collect(),
            wire.predicates,
        )
        .and_then(|q| check_schema(tenant.service().snapshot().db(), q))
        {
            Ok(q) => q,
            Err(e) => return Response::json(400, err_body(&format!("invalid query: {e}"), None)),
        };
        let deadline = wire.deadline_ms.map(Duration::from_millis);
        match tenant.estimate(&query, deadline, Instant::now()) {
            Ok(e) => Response::json(200, estimate_body(&e)),
            Err(e) => error_response(e),
        }
    }

    fn dispatch_ingest(&self, name: &str, body: &[u8]) -> Response {
        let Some(tenant) = self.tenant(name) else {
            return Response::json(404, err_body("unknown tenant", Some(name)));
        };
        let batch: DeltaBatch = match parse_json(body) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        match tenant.ingest(&batch, Instant::now()) {
            Ok((report, outcome)) => {
                let out = IngestResponse {
                    epoch: outcome.epoch,
                    ops_applied: report.ops_applied as u64,
                    sits_refreshed: report.sits_refreshed.len() as u64,
                    sits_merged: report.sits_merged.len() as u64,
                    cache_carried: outcome.cache_carried,
                    cache_dropped: outcome.cache_dropped,
                };
                match serde_json::to_string(&out) {
                    Ok(s) => Response::json(200, s),
                    Err(e) => Response::json(500, err_body(&format!("encode: {e}"), None)),
                }
            }
            Err(e) => error_response(e),
        }
    }

    fn dispatch_stats(&self, name: &str) -> Response {
        let Some(tenant) = self.tenant(name) else {
            return Response::json(404, err_body("unknown tenant", Some(name)));
        };
        let snap: MetricsSnapshot = tenant.metrics.snapshot();
        match serde_json::to_string(&snap) {
            Ok(s) => Response::json(200, s),
            Err(e) => Response::json(500, err_body(&format!("encode: {e}"), None)),
        }
    }

    fn render_metrics(&self) -> String {
        let mut out = String::new();
        for tenant in self.tenants() {
            tenant.metrics.render(&tenant.name, &mut out);
        }
        use std::fmt::Write;
        let _ = writeln!(out, "sqe_global_in_flight {}", self.global.in_flight());
        let _ = writeln!(
            out,
            "sqe_global_max_in_flight {}",
            self.global.max_in_flight()
        );
        out
    }
}

/// Passes `query` through when `db` has every table and column it names:
/// the estimator must never see an id that indexes past the schema.
fn check_schema(db: &Database, query: SpjQuery) -> sqe_engine::Result<SpjQuery> {
    for &table in &query.tables {
        db.table(table)?;
    }
    for p in &query.predicates {
        for col in p.columns().iter() {
            db.column(col)?;
        }
    }
    Ok(query)
}

/// Wire shape of `POST /v1/<tenant>/estimate`. All fields are required
/// (the vendored serde has no field defaults); pass `"deadline_ms": null`
/// for the tenant's ceiling.
#[derive(serde::Deserialize)]
struct EstimateBody {
    /// Table ids of the cartesian product.
    tables: Vec<u32>,
    /// Conjunctive predicates (serde shape of [`Predicate`]).
    predicates: Vec<Predicate>,
    /// Requested latency envelope; clamped to the tenant's ceiling.
    deadline_ms: Option<u64>,
}

/// Wire shape of a successful estimate.
#[derive(serde::Serialize)]
struct EstimateResponse {
    selectivity: f64,
    cardinality: f64,
    error: f64,
    epoch: u64,
    cached: bool,
    quality: String,
    degraded: Option<String>,
    upper_bound: Option<f64>,
}

/// Wire shape of a successful ingest.
#[derive(serde::Serialize)]
struct IngestResponse {
    epoch: u64,
    ops_applied: u64,
    sits_refreshed: u64,
    sits_merged: u64,
    cache_carried: u64,
    cache_dropped: u64,
}

#[derive(serde::Serialize)]
struct ErrorResponse {
    error: String,
    scope: Option<String>,
    retry_after_ms: Option<f64>,
}

/// The vendored serde_json rejects non-finite floats (as real JSON
/// does); infinite cardinalities clamp to `f64::MAX` on the wire.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MAX
    }
}

fn estimate_body(e: &Estimate) -> String {
    let out = EstimateResponse {
        selectivity: finite(e.selectivity),
        cardinality: finite(e.cardinality),
        error: finite(e.error),
        epoch: e.epoch,
        cached: e.cached,
        quality: e.quality.label().to_string(),
        degraded: e.degraded_reason.map(|r| format!("{r:?}").to_lowercase()),
        upper_bound: e.upper_bound.filter(|b| b.is_finite()),
    };
    serde_json::to_string(&out).unwrap_or_else(|err| format!("{{\"error\":\"encode: {err}\"}}"))
}

fn err_body(message: &str, detail: Option<&str>) -> String {
    let error = match detail {
        Some(d) => format!("{message}: {d}"),
        None => message.to_string(),
    };
    serde_json::to_string(&ErrorResponse {
        error,
        scope: None,
        retry_after_ms: None,
    })
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string())
}

fn error_response(e: DoorError) -> Response {
    match e {
        DoorError::Overloaded { scope, retry_after } => Response::json(
            429,
            serde_json::to_string(&ErrorResponse {
                error: "overloaded".to_string(),
                scope: Some(scope.label().to_string()),
                retry_after_ms: Some(retry_after.as_secs_f64() * 1e3),
            })
            .unwrap_or_else(|_| "{\"error\":\"overloaded\"}".to_string()),
        ),
        DoorError::Bad(m) => Response::json(400, err_body(&m, None)),
        DoorError::UnknownTenant(t) => Response::json(404, err_body("unknown tenant", Some(&t))),
    }
}

fn parse_json<T: serde::Deserialize>(body: &[u8]) -> Result<T, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::json(400, err_body("body is not UTF-8", None)))?;
    serde_json::from_str(text)
        .map_err(|e| Response::json(400, err_body(&format!("invalid JSON body: {e}"), None)))
}
