//! Single-query `getSelectivity` latency by predicate count — the perf
//! trajectory of the estimator's hot path.
//!
//! For each `n` in `--ns` the bench generates a workload whose queries have
//! exactly `n` predicates (`min(n/2, 7)` joins, the rest filters, over the
//! standard snowflake schema), builds one `J_i` SIT pool, and then times
//! **cold single-query estimation** on the dense fill. Every sample
//! constructs a fresh [`SelectivityEstimator`] (no cross-query cache,
//! nothing memoized) and runs `selectivity()` to completion; every rep of a
//! query is asserted bit-identical, with equal memo/peel/view-matching
//! counts. The reported latency is the median over `queries × reps`
//! samples; memo/peel entry counts come from the final sample and describe
//! the size of the subset-lattice walk.
//!
//! Each dense row also runs its queries once more, each on a fresh
//! estimator attached to **one shared cache** (`ShardedCache::new(16,
//! 4096)`, the shape of a service snapshot's cache) kept for the whole
//! row: what SIT-pair product sharing costs or saves across distinct
//! queries — every join and `H3` product the walk needs is looked up
//! there, and each one computed is inserted. The row reports that median
//! beside the cache-free one, with the cache's hit fraction and eviction
//! count; every cache-attached answer is asserted bit-identical to the
//! cache-free one.
//!
//! A second sweep covers the widths the exact engines cannot reach: for
//! each `n` in `--beam-ns` (default 20, 24, 28, 32 — past the dense
//! ceiling, where `Auto` routes to the beam) the bench times the
//! **beam-search approximate engine** cold at every width in
//! `--beam-widths` (default 1, 2, 4, 8) under the default expansions cap.
//! Each `(n, width)` row records the median latency plus the final
//! sample's [`sqe_core::BeamStats`] — expansions, candidates generated /
//! scored / pruned, cap fallbacks, frontier peak, and the mean
//! admissible-bound tightness — so the committed file shows both how the
//! walk scales with `n` and what width actually buys. Every beam sample
//! is asserted deterministic (bit-identical across reps) and in `[0, 1]`.
//! Where `Auto` routes `n` to the beam, each query must also answer
//! [`Quality::Beam`], undegraded, through the service under
//! [`EstimationService::default_budget`] (a 250 ms deadline): the
//! service's promise to callers with no deadline of their own.
//!
//! Results are printed as tables and written to **`BENCH_estimator.json`
//! at the repo root** (committed, so the perf trajectory across PRs is
//! diffable) as `{ "rows": [...], "beam": [...] }`; microsecond fields
//! are rounded to nanosecond precision.
//!
//! ```text
//! cargo run --release -p sqe-bench --bin estimator_bench \
//!     [-- --ns 4,8,12,16 --queries 3 --reps 3 --pool 2 \
//!         --beam-ns 20,24,28,32 --beam-widths 1,2,4,8]
//! ```

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use sqe_bench::report::{median, render_table, round_us, write_json_root};
use sqe_bench::{Args, Setup, SetupConfig};
use sqe_core::{BeamConfig, BeamStats, DpStrategy, ErrorMode, Quality, SelectivityEstimator};
use sqe_datagen::{generate_workload, WorkloadConfig};
use sqe_engine::SpjQuery;
use sqe_service::{EstimationService, ServiceConfig, ShardedCache};

/// One `n` of the exact-engine sweep: cold latency of the dense fill plus
/// the lattice footprint of the final sample.
#[derive(Serialize)]
struct Row {
    n: usize,
    joins: usize,
    filters: usize,
    queries: usize,
    reps: usize,
    median_us: f64,
    min_us: f64,
    max_us: f64,
    memo_entries: usize,
    peel_entries: usize,
    vm_calls: u64,
    /// Median over one sample per query with the row's shared cache
    /// attached.
    cached_median_us: f64,
    /// The shared cache's hit fraction over those samples.
    cache_hit_frac: f64,
    /// Entries the shared cache evicted over those samples.
    cache_evictions: u64,
}

/// One `(n, width)` cell of the beam sweep: cold serial latency of the
/// approximate engine past the exact ceiling, plus the beam's own
/// observability counters from the final sample.
#[derive(Serialize)]
struct BeamRow {
    n: usize,
    joins: usize,
    filters: usize,
    queries: usize,
    reps: usize,
    width: usize,
    expansions_cap: u64,
    median_us: f64,
    min_us: f64,
    max_us: f64,
    memo_entries: usize,
    /// [`BeamStats`] of the final sample.
    expansions: u64,
    generated: u64,
    scored: u64,
    beam_pruned: u64,
    cap_fallbacks: u64,
    frontier_peak: usize,
    /// Mean admissible-bound tightness (0 when the beam never expanded).
    bound_tightness: f64,
}

/// The committed `BENCH_estimator.json` document: exact-engine sweep plus
/// the wide-`n` beam sweep.
#[derive(Serialize)]
struct Report {
    rows: Vec<Row>,
    beam: Vec<BeamRow>,
}

/// Comma-separated `usize` list option.
fn list(args: &Args, key: &str, default: &str) -> Vec<usize> {
    args.get_str(key, default)
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// `queries` queries of exactly `n` predicates (`min(n/2, join edges)`
/// joins, the rest filters), seeded per `n`; returns `(joins, filters,
/// workload)`.
fn workload(setup: &Setup, n: usize, queries: usize) -> (usize, usize, Vec<SpjQuery>) {
    let joins = (n / 2).min(setup.snowflake.join_edges.len());
    let filters = n - joins;
    let workload = generate_workload(
        &setup.snowflake.db,
        &setup.snowflake.join_edges,
        &setup.snowflake.filter_columns,
        WorkloadConfig {
            queries,
            joins,
            filters,
            target_selectivity: setup.config().target_selectivity,
            seed: setup.config().seed ^ (n as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        },
    );
    (joins, filters, workload)
}

fn main() {
    let args = Args::parse();
    let setup = Setup::new(SetupConfig::from_args(&args));
    let pool_i: usize = args.get("pool", 2);
    let queries: usize = args.get("queries", 3);
    let reps: usize = args.get("reps", 3);
    let ns = list(&args, "ns", "4,8,12,16");
    let beam_ns = list(&args, "beam-ns", "20,24,28,32");
    let beam_widths: Vec<usize> = list(&args, "beam-widths", "1,2,4,8")
        .into_iter()
        .filter(|&w| w >= 1)
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    for &n in &ns {
        eprintln!("n={n}: generating {queries} queries ...");
        let (joins, filters, workload) = workload(&setup, n, queries);
        eprintln!("n={n}: building J{pool_i} pool ({joins} joins + {filters} filters) ...");
        let pool = setup.pool(&workload, pool_i);

        let mut samples: Vec<f64> = Vec::with_capacity(queries * reps);
        let mut cached_samples: Vec<f64> = Vec::with_capacity(queries);
        let cache = ShardedCache::new(16, 4096);
        let mut footprint = (0, 0, 0);
        for query in &workload {
            let mut reference: Option<(u64, (usize, usize, u64))> = None;
            for _ in 0..reps {
                let start = Instant::now();
                let mut est =
                    SelectivityEstimator::new(&setup.snowflake.db, query, &pool, ErrorMode::Diff);
                let sel = std::hint::black_box(est.selectivity());
                samples.push(start.elapsed().as_secs_f64() * 1e6);

                let st = est.stats();
                footprint = (st.memo_entries, st.peel_entries, st.vm_calls);
                // Every rep of the same query must reproduce the same bits
                // and the same lattice/link/view-matching footprint.
                match reference {
                    None => reference = Some((sel.to_bits(), footprint)),
                    Some(r) => assert_eq!(
                        r,
                        (sel.to_bits(), footprint),
                        "n={n}: answer or footprint not deterministic across reps"
                    ),
                }
            }
            let start = Instant::now();
            let mut est =
                SelectivityEstimator::new(&setup.snowflake.db, query, &pool, ErrorMode::Diff)
                    .with_shared_cache(&cache);
            let sel = std::hint::black_box(est.selectivity());
            cached_samples.push(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                reference.map(|r| r.0),
                Some(sel.to_bits()),
                "n={n}: the shared cache changed an answer"
            );
        }
        let median_us = median(&mut samples);
        let cached_median_us = median(&mut cached_samples);
        let counters = cache.counters();
        eprintln!(
            "n={n}: median {median_us:.1} µs over {} samples, {cached_median_us:.1} µs \
             with the shared cache ({:.2}% hits, {} evictions)",
            samples.len(),
            100.0 * counters.hit_rate(),
            counters.evictions
        );
        rows.push(Row {
            n,
            joins,
            filters,
            queries,
            reps,
            median_us: round_us(median_us),
            min_us: round_us(samples[0]),
            max_us: round_us(samples[samples.len() - 1]),
            memo_entries: footprint.0,
            peel_entries: footprint.1,
            vm_calls: footprint.2,
            cached_median_us: round_us(cached_median_us),
            cache_hit_frac: counters.hit_rate(),
            cache_evictions: counters.evictions,
        });
    }

    // Beam sweep: the widths where the exact engines are off the table.
    // Cold, one row per (n, width) at the default expansions cap.
    let mut beam_rows: Vec<BeamRow> = Vec::new();
    let db = Arc::new(setup.snowflake.db.clone());
    for &n in &beam_ns {
        eprintln!("beam n={n}: generating {queries} queries ...");
        let (joins, filters, workload) = workload(&setup, n, queries);
        eprintln!("beam n={n}: building J{pool_i} pool ({joins} joins + {filters} filters) ...");
        let pool = setup.pool(&workload, pool_i);

        if DpStrategy::Auto.use_beam(n) {
            let svc =
                EstimationService::new(Arc::clone(&db), pool.clone(), ServiceConfig::default());
            for query in &workload {
                let got = svc
                    .estimate_with_budget(query, &svc.default_budget())
                    .expect("a single caller is admitted");
                assert_eq!(
                    (got.quality, got.degraded_reason),
                    (Quality::Beam, None),
                    "n={n}: the default budget must answer from the beam rung"
                );
            }
        }

        for &width in &beam_widths {
            let cfg = BeamConfig {
                width,
                ..BeamConfig::default()
            };
            let mut samples: Vec<f64> = Vec::with_capacity(queries * reps);
            let mut stats = BeamStats::default();
            let mut memo_entries = 0;
            for query in &workload {
                let mut reference: Option<u64> = None;
                for _ in 0..reps {
                    let start = Instant::now();
                    let mut est = SelectivityEstimator::new(
                        &setup.snowflake.db,
                        query,
                        &pool,
                        ErrorMode::Diff,
                    )
                    .with_strategy(DpStrategy::Beam)
                    .with_beam_config(cfg);
                    let sel = std::hint::black_box(est.selectivity());
                    samples.push(start.elapsed().as_secs_f64() * 1e6);

                    assert!(
                        (0.0..=1.0).contains(&sel),
                        "n={n} width={width}: beam selectivity {sel} out of range"
                    );
                    // The beam is approximate but deterministic: every rep
                    // of the same (query, width) must answer bit-identically.
                    match reference {
                        None => reference = Some(sel.to_bits()),
                        Some(bits) => assert_eq!(
                            bits,
                            sel.to_bits(),
                            "n={n} width={width}: beam answer not deterministic across reps"
                        ),
                    }
                    stats = est.beam_stats().clone();
                    memo_entries = est.stats().memo_entries;
                }
            }
            let median_us = median(&mut samples);
            eprintln!(
                "beam n={n} width={width}: median {median_us:.1} µs; last sample: \
                 {} expansions, {} scored, {} pruned, {} cap fallback(s), \
                 tightness {:.3}",
                stats.expansions,
                stats.scored,
                stats.pruned,
                stats.cap_fallbacks,
                stats.bound_tightness().unwrap_or(0.0),
            );
            beam_rows.push(BeamRow {
                n,
                joins,
                filters,
                queries,
                reps,
                width,
                expansions_cap: cfg.expansions_cap,
                median_us: round_us(median_us),
                min_us: round_us(samples[0]),
                max_us: round_us(samples[samples.len() - 1]),
                memo_entries,
                expansions: stats.expansions,
                generated: stats.generated,
                scored: stats.scored,
                beam_pruned: stats.pruned,
                cap_fallbacks: stats.cap_fallbacks,
                frontier_peak: stats.frontier_peak,
                bound_tightness: stats.bound_tightness().unwrap_or(0.0),
            });
        }
    }

    println!("estimator_bench — cold single-query getSelectivity latency\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.1}", r.median_us),
                format!("{:.1}", r.min_us),
                format!("{:.1}", r.max_us),
                r.memo_entries.to_string(),
                r.peel_entries.to_string(),
                r.vm_calls.to_string(),
                format!("{:.1}", r.cached_median_us),
                format!("{:.2}%", 100.0 * r.cache_hit_frac),
                r.cache_evictions.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "n",
                "median µs",
                "min µs",
                "max µs",
                "memo",
                "peel",
                "vm calls",
                "cached µs",
                "cache hits",
                "evictions"
            ],
            &table
        )
    );
    if !beam_rows.is_empty() {
        println!("\nbeam engine — cold latency past the exact ceiling\n");
        let table: Vec<Vec<String>> = beam_rows
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.width.to_string(),
                    format!("{:.1}", r.median_us),
                    r.expansions.to_string(),
                    r.scored.to_string(),
                    r.beam_pruned.to_string(),
                    r.cap_fallbacks.to_string(),
                    r.frontier_peak.to_string(),
                    format!("{:.3}", r.bound_tightness),
                    r.memo_entries.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "n",
                    "width",
                    "median µs",
                    "expand",
                    "scored",
                    "pruned",
                    "cap fb",
                    "peak",
                    "tight",
                    "memo"
                ],
                &table
            )
        );
    }

    let report = Report {
        rows,
        beam: beam_rows,
    };
    match write_json_root("BENCH_estimator", &report) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
