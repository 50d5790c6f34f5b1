//! # sqe-core — conditional selectivity and statistics on query expressions
//!
//! The primary contribution of Bruno & Chaudhuri, *"Conditional Selectivity
//! for Statistics on Query Expressions"* (SIGMOD 2004), implemented as a
//! reusable library:
//!
//! * [`predset`] — predicate subsets of a query as bitsets, with the
//!   separability test (Definition 2) and the unique *standard
//!   decomposition* into non-separable factors (Lemma 2);
//! * [`decomposition`] — the decomposition-count recurrence `T(n)` and the
//!   bounds of Lemma 1, plus an exhaustive enumerator used to validate the
//!   dynamic program on small inputs;
//! * [`sit`] — SITs (statistics on query expressions): a histogram over an
//!   attribute of the result of a join query expression, together with the
//!   §3.5 `diff` value, and the [`sit::SitCatalog`];
//! * [`pool`] — the `J_i` SIT pools of §5 (all SITs whose expression has at
//!   most `i` join predicates syntactically present in a workload);
//! * [`matcher`] — candidate-SIT identification for a conditional factor
//!   (§3.3), instrumented with the view-matching call counter used by
//!   Figure 6;
//! * [`error`] — the error functions: `nInd` (§3.2), `Diff` (§3.5), and the
//!   oracle `Opt` (§5);
//! * [`estimator`] — the [`estimator::SelectivityEstimator`] implementing
//!   algorithm `getSelectivity` (Figure 3): a memoized dynamic program over
//!   predicate subsets returning the most accurate decomposition, run on a
//!   dense flat-table subset-lattice engine up to 20 predicates and on the
//!   [`beam`] search above (see [`estimator::DpStrategy`]);
//! * [`flat`] — the flat memo tables behind the DP engine: a dense
//!   mask-indexed value table and an open-addressed `u64`-keyed table;
//! * [`cache`] — the whole-query cache key and the cross-query
//!   shared-cache interface consumed by the `sqe-service` estimation
//!   service;
//! * [`delta`] — live catalogs: batched delta ingest with incremental
//!   histogram maintenance, drift-triggered rebuilds, and per-SIT
//!   staleness bounds;
//! * [`gvm`] — the greedy view-matching baseline of \[4\] (SIGMOD 2002),
//!   including its laminar compatibility restriction that prevents it from
//!   combining overlapping SITs (the limitation that motivates this paper);
//! * [`baseline`] — the `noSit` estimator (base-table statistics only,
//!   mirroring a conventional optimizer).

pub mod backend;
pub mod baseline;
pub mod beam;
pub mod bn;
pub mod budget;
pub mod cache;
pub mod decomposition;
pub mod delta;
pub mod error;
pub mod estimator;
pub mod failpoint;
pub mod feedback;
pub mod flat;
pub mod groupby;
pub mod gvm;
pub mod ladder;
mod link;
pub mod matcher;
pub mod metrics;
pub mod persist;
pub mod pessimistic;
pub mod pool;
pub mod predset;
pub mod sit;
pub mod sit2;

pub use backend::{BackendKind, DiffBackend, PeelQuery, SelectivityBackend};
pub use baseline::NoSitEstimator;
pub use beam::{BeamConfig, BeamStats};
pub use bn::{BnBackend, BnCatalog};
pub use budget::{Budget, BudgetMeter, CancelToken, DegradeReason, ExhaustReason, Quality};
pub use cache::{CacheKey, SharedEstimatorCache};
pub use decomposition::{count_decompositions, decomposition_bounds, ComponentTable};
pub use delta::{DeltaConfig, IngestReport, LiveCatalog};
pub use error::ErrorMode;
pub use estimator::{DenseWork, DpStrategy, EstimatorStats, SelectivityEstimator};
pub use feedback::{FeedbackStore, Observation};
pub use flat::{DenseMemo, FlatMemo, PeelMemo};
pub use groupby::{cardenas, true_group_count};
pub use gvm::GreedyViewMatching;
pub use ladder::{BudgetedEstimate, Ladder, RungCosts};
pub use metrics::{LatencyHistogram, LatencySnapshot, MetricsSink, NullSink};
pub use persist::{clean_stale_temps, load_catalog, save_catalog, stale_temp_files};
pub use pessimistic::{BoundSketch, PessimisticBackend};
pub use pool::{build_pool, build_pool_threaded, build_pool_with, PoolSpec};
pub use predset::{PredSet, QueryContext};
pub use sit::{Sit, SitCatalog, SitId, SitOptions};
pub use sit2::{build_pool2, Sit2, Sit2Catalog, Sit2Id};
