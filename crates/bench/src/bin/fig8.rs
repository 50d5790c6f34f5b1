//! Figure 8 (a, b, c) — execution time of `getSelectivity` (GS-Diff) per
//! query, split into *decomposition analysis* and *histogram manipulation*,
//! across SIT pools, with `noSit` as the baseline.
//!
//! Expected shape: a few milliseconds per fully-estimated query, growing
//! gracefully with pool size; in the paper the decomposition-analysis
//! component dominates (EXPERIMENTS.md "Figure 8" has where this
//! reproduction's split differs).
//!
//! Histogram manipulation is the time spent computing SIT-pair join and
//! `H3` products, timed through the estimator's shared-cache seam (see
//! `sqe_bench::run::QueryEval::histogram_time`); everything else,
//! per-predicate range estimates included, is decomposition analysis.
//! Every GS row has joins to compute, so the run exits nonzero if one
//! reports no histogram time: the products stopped passing the seam.
//!
//! ```text
//! cargo run --release -p sqe-bench --bin fig8 [-- --queries 100]
//! ```

use std::time::Duration;

use serde::Serialize;
use sqe_bench::report::{render_table, write_json};
use sqe_bench::run::eval_workload;
use sqe_bench::{Args, Setup, SetupConfig, Technique};
use sqe_core::ErrorMode;
use sqe_engine::CardinalityOracle;

#[derive(Serialize)]
struct Row {
    pool: String,
    sits: usize,
    decomposition_ms: f64,
    histogram_ms: f64,
    nosit_total_ms: f64,
}

#[derive(Serialize)]
struct Panel {
    joins: usize,
    rows: Vec<Row>,
}

fn avg_ms(total: Duration, n: usize) -> f64 {
    total.as_secs_f64() * 1e3 / n.max(1) as f64
}

fn main() {
    let args = Args::parse();
    let setup = Setup::new(SetupConfig::from_args(&args));
    let max_pool: usize = args.get("max-pool", 7);
    let db = &setup.snowflake.db;

    let mut panels = Vec::new();
    for (panel_idx, joins) in [3usize, 5, 7].into_iter().enumerate() {
        eprintln!(
            "=== Figure 8({}) — {joins}-way joins ===",
            (b'a' + panel_idx as u8) as char
        );
        let workload = setup.workload(joins);
        let mut oracle = CardinalityOracle::new(db);
        let mut rows = Vec::new();
        for i in 0..=max_pool.min(joins) {
            let pool = setup.pool(&workload, i);
            let (_, evals) = eval_workload(
                db,
                &mut oracle,
                &workload,
                &pool,
                Technique::Gs(ErrorMode::Diff),
            );
            let wall: Duration = evals.iter().map(|e| e.wall).sum();
            let hist: Duration = evals.iter().map(|e| e.histogram_time).sum();
            let (_, nosit_evals) =
                eval_workload(db, &mut oracle, &workload, &pool, Technique::NoSit);
            let nosit_wall: Duration = nosit_evals.iter().map(|e| e.wall).sum();
            let n = workload.len();
            rows.push(Row {
                pool: format!("J{i}"),
                sits: pool.len(),
                decomposition_ms: avg_ms(wall.saturating_sub(hist), n),
                histogram_ms: avg_ms(hist, n),
                nosit_total_ms: avg_ms(nosit_wall, n),
            });
            eprintln!(
                "  J{i}: GS-Diff {:.2} ms (decomp) + {:.2} ms (hist); noSit {:.2} ms",
                rows.last().unwrap().decomposition_ms,
                rows.last().unwrap().histogram_ms,
                rows.last().unwrap().nosit_total_ms
            );
        }
        panels.push(Panel { joins, rows });
    }

    for (panel_idx, panel) in panels.iter().enumerate() {
        println!(
            "\nFigure 8({}) — {}-way joins: avg per-query estimation time (ms, all sub-queries)",
            (b'a' + panel_idx as u8) as char,
            panel.joins
        );
        let table: Vec<Vec<String>> = panel
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.pool.clone(),
                    r.sits.to_string(),
                    format!("{:.3}", r.decomposition_ms),
                    format!("{:.3}", r.histogram_ms),
                    format!("{:.3}", r.decomposition_ms + r.histogram_ms),
                    format!("{:.3}", r.nosit_total_ms),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["pool", "#SITs", "decomp", "histogram", "GS total", "noSit"],
                &table
            )
        );
    }
    println!("\npaper shape: a few ms per query, scaling gracefully with pool size");

    match write_json("fig8", &panels) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }

    let untimed: Vec<String> = panels
        .iter()
        .flat_map(|p| p.rows.iter().map(move |r| (p.joins, r)))
        .filter(|(_, r)| r.histogram_ms <= 0.0)
        .map(|(joins, r)| format!("{joins}-way {}", r.pool))
        .collect();
    if !untimed.is_empty() {
        eprintln!(
            "fig8: GS rows with no histogram time: {}",
            untimed.join(", ")
        );
        std::process::exit(1);
    }
}
