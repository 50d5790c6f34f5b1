//! The estimation service end to end: build a pool, stand up an
//! [`EstimationService`], stream estimates from several threads against one
//! snapshot, hot-swap a rebuilt catalog, and read the metrics.
//!
//! ```text
//! cargo run --release --example service_throughput
//! ```

use std::sync::Arc;
use std::time::Instant;

use sqe::core::PoolSpec;
use sqe::prelude::*;
use sqe::service::{EstimationService, ServiceConfig};

fn main() {
    // --- 1. A snowflake database, a workload, and a J2 SIT pool. -------
    let sf = Snowflake::generate(SnowflakeConfig {
        scale: 0.005,
        ..Default::default()
    });
    let workload = generate_workload(
        &sf.db,
        &sf.join_edges,
        &sf.filter_columns,
        WorkloadConfig {
            queries: 30,
            joins: 3,
            ..Default::default()
        },
    );
    let pool = build_pool(&sf.db, &workload, PoolSpec::ji(2)).expect("pool build");
    println!("pool: {} SITs over {} queries", pool.len(), workload.len());

    // --- 2. The service: one snapshot, shared by every thread. ---------
    let db = Arc::new(sf.db);
    let service = EstimationService::new(Arc::clone(&db), pool, ServiceConfig::default());

    // Cold pass: each thread estimates a slice of the workload. Threads
    // share SIT-pair join products through the sharded cross-query cache
    // while it fills.
    let cold = Instant::now();
    std::thread::scope(|s| {
        for t in 0..4 {
            let (service, workload) = (&service, &workload);
            s.spawn(move || {
                for q in workload.iter().skip(t).step_by(4) {
                    let e = service.estimate(q);
                    assert!(e.selectivity.is_finite());
                }
            });
        }
    });
    let cold = cold.elapsed();

    // Warm pass: recurring query shapes are answered from the whole-query
    // cache without constructing an estimator.
    let warm = Instant::now();
    let estimates: Vec<_> = workload.iter().map(|q| service.estimate(q)).collect();
    let warm = warm.elapsed();
    let hits = estimates.iter().filter(|e| e.cached).count();
    assert_eq!(hits, estimates.len(), "the cold pass cached every query");
    println!(
        "cold pass: {cold:?} for {} estimates; warm pass: {warm:?} ({hits}/{} cached)",
        workload.len(),
        estimates.len(),
    );

    // --- 3. Hot-swap: rebuild the pool and install it atomically. ------
    // Readers holding the old snapshot are unaffected; new estimates see
    // the new epoch with a cold cache.
    let held = service.snapshot();
    service
        .rebuild_pool(&workload, PoolSpec::ji(1), Default::default())
        .expect("rebuild");
    let after = service.estimate(&workload[0]);
    println!(
        "held snapshot epoch {} still valid; new estimates answered by epoch {}",
        held.epoch(),
        after.epoch,
    );

    // --- 4. Metrics. ---------------------------------------------------
    println!("\nservice metrics:\n{}", service.stats());
}
