//! # sqe — Conditional Selectivity for Statistics on Query Expressions
//!
//! A production-quality Rust reproduction of **Bruno & Chaudhuri,
//! "Conditional Selectivity for Statistics on Query Expressions" (SIGMOD
//! 2004)**: the conditional-selectivity framework, the `getSelectivity`
//! dynamic program, the `nInd` / `Diff` / `Opt` error functions, SIT
//! (statistics-on-query-expression) catalogs and pools, the greedy
//! view-matching baseline of SIGMOD 2002, a mini Cascades-style optimizer
//! with memo-coupled estimation, and every substrate the paper's evaluation
//! needs (column-store SPJ engine, maxDiff histograms, skewed snowflake
//! data and workload generators).
//!
//! ## Quick start
//!
//! ```
//! use sqe::prelude::*;
//!
//! // 1. A skewed snowflake database and a small SPJ workload.
//! let sf = Snowflake::generate(SnowflakeConfig { scale: 0.002, ..Default::default() });
//! let workload = generate_workload(
//!     &sf.db, &sf.join_edges, &sf.filter_columns,
//!     WorkloadConfig { queries: 5, joins: 3, ..Default::default() });
//!
//! // 2. Build the J2 pool of SITs (histograms over ≤2-join expressions).
//! let pool = build_pool(&sf.db, &workload, PoolSpec::ji(2)).unwrap();
//!
//! // 3. Estimate with getSelectivity + Diff and compare with the truth.
//! let query = &workload[0];
//! let mut est = SelectivityEstimator::new(&sf.db, query, &pool, ErrorMode::Diff);
//! let estimated = est.cardinality(est.context().all());
//! let mut oracle = CardinalityOracle::new(&sf.db);
//! let truth = oracle.cardinality(&query.tables, &query.predicates).unwrap() as f64;
//! assert!(estimated.is_finite() && truth >= 1.0);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`engine`] | `sqe-engine` | column store, SPJ executor, exact cardinality oracle |
//! | [`histogram`] | `sqe-histogram` | maxDiff histograms, histogram join, `diff` metric |
//! | [`datagen`] | `sqe-datagen` | snowflake generator, workloads, motivating scenario |
//! | [`core`] | `sqe-core` | conditional selectivity, SITs, `getSelectivity`, GVM |
//! | [`optimizer`] | `sqe-optimizer` | mini-Cascades memo + §4 coupled estimation |
//! | [`service`] | `sqe-service` | concurrent estimation service: snapshots, sharded cross-query cache, metrics |
//! | [`server`] | `sqe-server` | HTTP/JSON front end: multi-tenant front door, quotas, thread-per-connection server, /metrics |
//! | [`oracle`] | `sqe-oracle` | ground-truth exact executor, differential invariants, accuracy harness + gate |
//!
//! Run the paper's experiments with the binaries in `sqe-bench`
//! (`cargo run --release -p sqe-bench --bin fig7`, etc.); see
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub use sqe_core as core;
pub use sqe_datagen as datagen;
pub use sqe_engine as engine;
pub use sqe_histogram as histogram;
pub use sqe_optimizer as optimizer;
pub use sqe_oracle as oracle;
pub use sqe_server as server;
pub use sqe_service as service;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use sqe_core::{
        build_pool, build_pool2, load_catalog, save_catalog, BeamConfig, BeamStats, Budget,
        BudgetedEstimate, CancelToken, DegradeReason, DpStrategy, ErrorMode, GreedyViewMatching,
        Ladder, NoSitEstimator, PoolSpec, PredSet, Quality, QueryContext, SelectivityEstimator,
        Sit, Sit2, Sit2Catalog, SitCatalog, SitOptions,
    };
    pub use sqe_datagen::{
        generate_workload, motivating_scenario, Snowflake, SnowflakeConfig, WorkloadConfig,
    };
    pub use sqe_engine::{
        CardinalityOracle, CmpOp, ColRef, Database, Predicate, SpjQuery, Table, TableId,
    };
    pub use sqe_histogram::{build_maxdiff, Histogram};
    pub use sqe_optimizer::{explore, extract_best_plan, Memo, MemoEstimator};
    pub use sqe_service::{Estimate, EstimationService, ServiceConfig, ServiceError};
}
