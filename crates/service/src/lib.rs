//! # sqe-service — a concurrent selectivity-estimation service
//!
//! The library crates (`sqe-core`, `sqe-engine`, `sqe-histogram`) answer
//! one query at a time in one thread. This crate turns them into a
//! long-lived *service* the way a database server would host them:
//!
//! * [`CatalogSnapshot`] — an immutable, atomically swappable view of
//!   `(database, SIT catalogs, cross-query cache)`. Readers pin a snapshot
//!   with an `Arc` and are never blocked or invalidated by a concurrent
//!   pool rebuild;
//! * [`EstimationService`] — [`EstimationService::estimate`] /
//!   [`EstimationService::estimate_batch`] and their budgeted siblings
//!   answer against the current snapshot through one path: a whole-query
//!   cache probe, then the degradation [`sqe_core::Ladder`] (an unlimited
//!   budget takes its meter-free fast path, a plain
//!   [`sqe_core::SelectivityEstimator`] run), backed by a [`ShardedCache`]
//!   that reuses per-link conditional factors and SIT join products
//!   across queries and threads;
//! * [`ShardedCache`] — N shards of `parking_lot::Mutex` around bounded
//!   LRU maps, keyed by canonicalized
//!   `(predicate-set, conditioning-set, error-mode)` fingerprints
//!   ([`sqe_core::CacheKey`]). Each call hashes its key once with keyed
//!   SipHash (tenants choose the predicates, so the hash must stay keyed);
//!   the high bits pick the shard and the low bits probe a flat
//!   open-addressed index over the shard's entries. Keys are stored and
//!   compared in full, so no fingerprint alone decides a hit, and every
//!   map evicts in exact least-recently-used order;
//! * [`ServiceStats`] — the one metrics aggregator: a [`MetricsSink`]
//!   every request event goes to (rung attempts, answers and served
//!   estimates, sheds, quarantines, bound widths, epochs, installs and
//!   ingest), with the log-linear [`sqe_core::LatencyHistogram`];
//!   [`ServiceStatsSnapshot`] is its point-in-time copy.
//!
//! Correctness bar: concurrent estimates are **bit-identical** to a fresh
//! single-threaded estimator over the same catalog — the cache only stores
//! values that are pure functions of their canonical keys (see
//! `sqe_core::cache` for the contract, and `tests/service.rs` at the
//! workspace root for the 8-thread equivalence test).

pub mod admission;
pub mod cache;
mod lru;
pub mod service;
pub mod stats;

pub use admission::{AdmissionControl, Permit};
pub use cache::{CacheCounters, CarryStats, ShardedCache};
pub use service::{
    CatalogSnapshot, Estimate, EstimationService, PartialInstallOutcome, ServiceConfig,
    ServiceError,
};
pub use sqe_core::{
    BackendKind, BoundSketch, Budget, CancelToken, DegradeReason, DpStrategy, MetricsSink,
    NullSink, Quality, SelectivityBackend,
};
pub use stats::{IngestCounters, ServiceStats, ServiceStatsSnapshot, QUALITY_TIERS};

/// The whole point of the crate: everything shared is thread-safe.
#[allow(dead_code)]
fn static_assertions() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EstimationService>();
    assert_send_sync::<CatalogSnapshot>();
    assert_send_sync::<ShardedCache>();
    assert_send_sync::<ServiceStats>();
    assert_send_sync::<ServiceStatsSnapshot>();
}
