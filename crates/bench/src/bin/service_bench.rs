//! Throughput driver for the `sqe-service` estimation service: concurrent
//! threads × query stream, estimates/sec with a cold vs. warm cross-query
//! cache, plus the service's own metrics snapshot.
//!
//! Cold: every thread estimates a disjoint slice of the workload against a
//! freshly built service (nothing cached; threads still share SIT-pair
//! join and `H3` products through the sharded cache as it fills). Warm: every
//! thread then replays the *full* workload `reps` times against the now-hot
//! snapshot, modeling concurrent sessions issuing recurring query shapes.
//!
//! Each thread count gets a service of its own, and `--rounds` repeats
//! the sweep, reversing the order of the counts every other round: a
//! count measured second on a shared service read 0.82–0.97× of the same
//! count measured first, so a single pass mixes run order into the
//! comparison. Rows report medians over the rounds, and
//! `warm_speedup_vs_1` is the median of same-round ratios against the
//! first count listed.
//!
//! A final **degraded phase** runs budgeted estimates at three deadlines
//! on a cold cache and reports latency, which ladder rung answered, and
//! how many rungs the ladder skipped as unable to finish in their slice.
//!
//! ```text
//! cargo run --release -p sqe-bench --bin service_bench \
//!     [-- --queries 60 --joins 4 --pool 2 --threads 1,2,4,8 --reps 3 --rounds 1]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use sqe_bench::report::{median, render_table, round_us, write_json};
use sqe_bench::{Args, Setup, SetupConfig};
use sqe_engine::SpjQuery;
use sqe_service::{Budget, EstimationService, Quality, ServiceConfig};

#[derive(Serialize)]
struct Row {
    threads: usize,
    cold_eps: f64,
    warm_eps: f64,
    warm_speedup_vs_1: f64,
}

#[derive(Serialize)]
struct DegradedRow {
    deadline: String,
    p50_us: f64,
    p99_us: f64,
    full: u64,
    beam: u64,
    pruned: u64,
    greedy: u64,
    independence: u64,
    /// Rungs skipped as unable to finish in their slice.
    skipped: u64,
}

#[derive(Serialize)]
struct Report {
    rounds: usize,
    concurrency: Vec<Row>,
    degraded: Vec<DegradedRow>,
}

/// Estimates/sec for `threads` workers each running `per_thread` streams.
fn run(svc: &EstimationService, streams: &[Vec<&SpjQuery>], reps: usize) -> f64 {
    let total: usize = streams.iter().map(|s| s.len() * reps).sum();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for stream in streams {
            scope.spawn(move || {
                for _ in 0..reps {
                    for q in stream {
                        std::hint::black_box(svc.estimate(q));
                    }
                }
            });
        }
    });
    total as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::parse();
    let setup = Setup::new(SetupConfig::from_args(&args));
    let joins: usize = args.get("joins", 4);
    let pool_i: usize = args.get("pool", 2);
    let reps: usize = args.get("reps", 3);
    let rounds: usize = args.get("rounds", 1).max(1);
    let thread_counts: Vec<usize> = args
        .get_str("threads", "1,2,4,8")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();

    eprintln!("generating workload ({joins}-way joins) and J{pool_i} pool ...");
    let workload = setup.workload(joins);
    let pool = setup.pool(&workload, pool_i);
    let db = Arc::new(setup.snowflake.db);
    let new_service =
        || EstimationService::new(Arc::clone(&db), pool.clone(), ServiceConfig::default());

    // `measured[i][round]`: (cold, warm) est/s of `thread_counts[i]`.
    let mut measured: Vec<Vec<(f64, f64)>> = vec![Vec::new(); thread_counts.len()];
    let mut last_stats = None;
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..thread_counts.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let threads = thread_counts[i];
            // A fresh service: cold cache, nothing left by another count.
            let svc = new_service();
            let cold_streams: Vec<Vec<&SpjQuery>> = (0..threads)
                .map(|t| {
                    workload
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % threads == t)
                        .map(|(_, q)| q)
                        .collect()
                })
                .collect();
            let cold_eps = run(&svc, &cold_streams, 1);

            // Same snapshot, now hot: every thread replays the full stream.
            let warm_streams: Vec<Vec<&SpjQuery>> =
                (0..threads).map(|_| workload.iter().collect()).collect();
            let warm_eps = run(&svc, &warm_streams, reps);
            measured[i].push((cold_eps, warm_eps));
            last_stats = Some(svc.stats());
        }
    }
    let rows: Vec<Row> = thread_counts
        .iter()
        .zip(&measured)
        .map(|(&threads, runs)| Row {
            threads,
            cold_eps: median(&mut runs.iter().map(|r| r.0).collect::<Vec<_>>()),
            warm_eps: median(&mut runs.iter().map(|r| r.1).collect::<Vec<_>>()),
            warm_speedup_vs_1: median(
                &mut runs
                    .iter()
                    .zip(&measured[0])
                    .map(|(r, base)| r.1 / base.1)
                    .collect::<Vec<_>>(),
            ),
        })
        .collect();

    println!("service_bench — estimates/sec, cold vs warm cross-query cache\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                format!("{:.0}", r.cold_eps),
                format!("{:.0}", r.warm_eps),
                format!("{:.2}x", r.warm_speedup_vs_1),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["threads", "cold est/s", "warm est/s", "warm vs 1-thread"],
            &table
        )
    );

    println!("\nservice metrics of the last count measured:");
    if let Some(stats) = last_stats {
        println!("{stats}");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nhost parallelism: {cores} core(s) available to this process");

    // Degraded phase: budgeted estimates at three deadline settings on a
    // cold cache, reporting the latency distribution and which rung of the
    // degradation ladder answered. The `none` row doubles as the
    // no-budget baseline: all answers must come back `full`.
    println!("\ndegraded phase — budgeted estimates per deadline, cold cache");
    let deadlines: [(&str, Option<Duration>); 3] = [
        ("none", None),
        ("5ms", Some(Duration::from_millis(5))),
        ("250us", Some(Duration::from_micros(250))),
    ];
    let mut degraded_rows: Vec<DegradedRow> = Vec::new();
    for (label, deadline) in deadlines {
        let svc = new_service();
        let budget =
            deadline.map_or_else(Budget::unlimited, |d| Budget::unlimited().with_deadline(d));
        let mut lat_us: Vec<f64> = Vec::with_capacity(workload.len());
        let mut mix = [0u64; 6]; // full / beam / pruned / greedy / independence / bound
        for q in &workload {
            let t = Instant::now();
            let e = svc
                .estimate_with_budget(q, &budget)
                .expect("single-threaded driver never trips admission");
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            match e.quality {
                Quality::Full => mix[0] += 1,
                Quality::Beam => mix[1] += 1,
                Quality::Pruned => mix[2] += 1,
                Quality::Greedy => mix[3] += 1,
                Quality::Independence => mix[4] += 1,
                Quality::Bound => mix[5] += 1,
            }
        }
        lat_us.sort_by(f64::total_cmp);
        let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p).round() as usize];
        if deadline.is_none() {
            assert_eq!(
                mix[0] as usize,
                workload.len(),
                "no budget must mean every answer is full quality"
            );
        }
        degraded_rows.push(DegradedRow {
            deadline: label.to_string(),
            p50_us: round_us(pct(0.50)),
            p99_us: round_us(pct(0.99)),
            full: mix[0],
            beam: mix[1],
            pruned: mix[2],
            greedy: mix[3],
            independence: mix[4],
            skipped: svc.stats().rung_skipped.iter().sum(),
        });
    }
    let degraded_table: Vec<Vec<String>> = degraded_rows
        .iter()
        .map(|r| {
            vec![
                r.deadline.clone(),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                r.full.to_string(),
                r.beam.to_string(),
                r.pruned.to_string(),
                r.greedy.to_string(),
                r.independence.to_string(),
                r.skipped.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "deadline", "p50 µs", "p99 µs", "full", "beam", "pruned", "greedy", "indep",
                "skipped"
            ],
            &degraded_table
        )
    );

    let report = Report {
        rounds,
        concurrency: rows,
        degraded: degraded_rows,
    };
    match write_json("service_bench", &report) {
        Ok(p) => println!("\nresults written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
