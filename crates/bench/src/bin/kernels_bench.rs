//! Microbenchmarks for the `sqe-histogram` hot kernels: the CDF range
//! kernel, the covering-bucket equality search, and the merge-scan
//! histogram join — each against its straightforward reference.
//!
//! Every variant pair is checked for equivalence while being timed: the
//! equality search and the merge-scan join must match their references
//! **bit for bit** (they are drop-in replacements on the estimator's hot
//! path); the CDF range kernel is allowed the documented prefix-subtraction
//! rounding versus a full bucket scan and is checked to a relative
//! tolerance instead.
//!
//! Timings are medians over `--reps` runs of a fixed op batch, reported as
//! ns/op. Results are printed as a table and written to
//! **`results/kernels.json`** (committed, so kernel regressions across PRs
//! are diffable). The absolute numbers are host-dependent; the committed
//! baseline is for trend-watching, not cross-machine comparison.
//!
//! ```text
//! cargo run --release -p sqe-bench --bin kernels_bench \
//!     [-- --buckets 200 --hists 64 --probes 4096 --reps 7]
//! ```

use std::time::Instant;

use serde::Serialize;
use sqe_bench::report::{render_table, round_us, write_json};
use sqe_bench::Args;
use sqe_histogram::{Bucket, Histogram};

#[derive(Serialize)]
struct KernelRow {
    /// Kernel family: `range`, `eq`, `join`.
    kernel: String,
    /// `reference` or the optimized variant's name.
    variant: String,
    /// Median over `--reps` timed runs.
    ns_per_op: f64,
    /// Ops per timed run.
    ops: u64,
    /// Fold of all results — proves the work happened and pins equivalence
    /// across variants of the same kernel (bit-compared where documented).
    checksum: f64,
}

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Random disjoint sorted bucket list in the style of the histogram crate's
/// proptests: gaps allowed, occasional zero-distinct buckets.
fn random_hist(rng: &mut Rng, max_buckets: usize) -> Histogram {
    let nb = 1 + (rng.next() as usize) % max_buckets;
    let mut buckets = Vec::with_capacity(nb);
    let mut lo = -(rng.next() as i64 % 100);
    for _ in 0..nb {
        let hi = lo + (rng.next() % 40) as i64;
        let freq = 1.0 + (rng.next() % 1000) as f64 / 10.0;
        let distinct = if rng.next().is_multiple_of(16) {
            0.0
        } else {
            (1.0 + (rng.next() % 200) as f64 / 10.0).min((hi - lo + 1) as f64)
        };
        buckets.push(Bucket {
            lo,
            hi,
            freq,
            distinct,
        });
        lo = hi + 1 + (rng.next() % 5) as i64; // optional gap
    }
    Histogram::new(buckets, (rng.next() % 50) as f64)
}

/// Median ns/op over `reps` timed runs of `work` (which performs `ops`
/// operations and returns a checksum, folded to keep the work live).
///
/// `work` receives an opaque zero to fold into its accumulator: seeding the
/// sum through `black_box` every rep stops LLVM from treating the pure
/// computation as loop-invariant and hoisting it out of the timed region
/// (which would bench a register move, not the kernel).
fn time_ns_per_op(reps: usize, ops: u64, mut work: impl FnMut(f64) -> f64) -> (f64, f64) {
    let mut samples = Vec::with_capacity(reps);
    let mut checksum = 0.0;
    for _ in 0..reps {
        let start = Instant::now();
        checksum = std::hint::black_box(work(std::hint::black_box(0.0)));
        samples.push(start.elapsed().as_secs_f64() * 1e9 / ops as f64);
    }
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], checksum)
}

fn main() {
    let args = Args::parse();
    let max_buckets: usize = args.get("buckets", 200);
    let hists: usize = args.get("hists", 64);
    let probes: usize = args.get("probes", 4096);
    let reps: usize = args.get("reps", 7);

    let mut rng = Rng(0x9E3779B97F4A7C15);
    let pool: Vec<Histogram> = (0..hists)
        .map(|_| random_hist(&mut rng, max_buckets))
        .collect();
    // Equality probes drawn from each histogram's own bucket bounds
    // (± jitter), so every search level is a coin flip — the shape the
    // estimator sees, where query bounds land inside the histogram.
    let probe_sets: Vec<Vec<i64>> = pool
        .iter()
        .map(|h| {
            let b = h.buckets();
            (0..probes)
                .map(|_| b[(rng.next() as usize) % b.len()].hi + rng.in_range(-2, 2))
                .collect()
        })
        .collect();
    // Range predicates inside each histogram's bounds, for the same reason.
    let range_sets: Vec<Vec<(i64, i64)>> = pool
        .iter()
        .map(|h| {
            let (lo, hi) = h.bounds().expect("random_hist always has buckets");
            (0..probes)
                .map(|_| {
                    let a = rng.in_range(lo, hi);
                    let b = rng.in_range(lo, hi);
                    (a.min(b), a.max(b))
                })
                .collect()
        })
        .collect();

    let mut rows: Vec<KernelRow> = Vec::new();
    let mut push = |kernel: &str, variant: &str, ns: f64, ops: u64, checksum: f64| {
        rows.push(KernelRow {
            kernel: kernel.to_string(),
            variant: variant.to_string(),
            ns_per_op: round_us(ns),
            ops,
            checksum,
        });
    };

    // --- range: CDF + binary-searched edges vs full bucket scan ---------
    let span = |lo: i64, hi: i64| (hi as i128 - lo as i128 + 1) as f64;
    let scan_range_rows = |h: &Histogram, lo: i64, hi: i64| -> f64 {
        let mut rows = 0.0;
        for b in h.buckets() {
            let (o_lo, o_hi) = (b.lo.max(lo), b.hi.min(hi));
            if o_lo <= o_hi {
                rows += b.freq * (span(o_lo, o_hi) / span(b.lo, b.hi));
            }
        }
        rows
    };
    let range_ops = (pool.len() * probes) as u64;
    let (ns_scan, sum_scan) = time_ns_per_op(reps, range_ops, |seed| {
        let mut acc = seed;
        for (h, rs) in pool.iter().zip(&range_sets) {
            for &(lo, hi) in rs {
                acc += scan_range_rows(h, lo, hi);
            }
        }
        acc
    });
    push("range", "scan_reference", ns_scan, range_ops, sum_scan);
    let (ns_cdf, sum_cdf) = time_ns_per_op(reps, range_ops, |seed| {
        let mut acc = seed;
        for (h, rs) in pool.iter().zip(&range_sets) {
            for &(lo, hi) in rs {
                acc += h.range_rows(lo, hi);
            }
        }
        acc
    });
    // The CDF kernel may differ from the scan by prefix-subtraction
    // rounding only (documented on `range_rows`).
    let rel = (sum_cdf - sum_scan).abs() / sum_scan.abs().max(1.0);
    assert!(
        rel < 1e-9,
        "range kernels disagree beyond rounding: rel={rel:e}"
    );
    push("range", "cdf_branchless", ns_cdf, range_ops, sum_cdf);

    // --- eq: covering-bucket search vs full bucket scan -----------------
    let scan_eq_rows = |h: &Histogram, v: i64| -> f64 {
        for b in h.buckets() {
            if b.lo <= v && v <= b.hi {
                return if b.distinct > 0.0 {
                    b.freq / b.distinct.max(1.0)
                } else {
                    0.0
                };
            }
        }
        0.0
    };
    let eq_ops = (pool.len() * probes) as u64;
    let (ns_eqscan, sum_eqscan) = time_ns_per_op(reps, eq_ops, |seed| {
        let mut acc = seed;
        for (h, pv) in pool.iter().zip(&probe_sets) {
            for &v in pv {
                acc += scan_eq_rows(h, v);
            }
        }
        acc
    });
    push("eq", "scan_reference", ns_eqscan, eq_ops, sum_eqscan);
    let (ns_eq, sum_eq) = time_ns_per_op(reps, eq_ops, |seed| {
        let mut acc = seed;
        for (h, pv) in pool.iter().zip(&probe_sets) {
            for &v in pv {
                acc += h.eq_rows(v);
            }
        }
        acc
    });
    assert_eq!(
        sum_eqscan.to_bits(),
        sum_eq.to_bits(),
        "eq kernel diverged from bucket scan"
    );
    push("eq", "binary_search", ns_eq, eq_ops, sum_eq);

    // --- join: merge-scan vs boundary-set reference ---------------------
    let join_pairs: Vec<(&Histogram, &Histogram)> = (0..pool.len())
        .map(|i| (&pool[i], &pool[(i * 7 + 3) % pool.len()]))
        .collect();
    let join_ops = join_pairs.len() as u64;
    let (ns_jref, sum_jref) = time_ns_per_op(reps, join_ops, |seed| {
        let mut acc = seed;
        for &(a, b) in &join_pairs {
            let r = a.join_reference(b);
            acc += r.selectivity + r.histogram.total_rows();
        }
        acc
    });
    push("join", "reference", ns_jref, join_ops, sum_jref);
    let (ns_join, sum_join) = time_ns_per_op(reps, join_ops, |seed| {
        let mut acc = seed;
        for &(a, b) in &join_pairs {
            let r = a.join(b);
            acc += r.selectivity + r.histogram.total_rows();
        }
        acc
    });
    // Merge-scan is a drop-in replacement: identical cut sequence and
    // arithmetic, so the checksum must match bit for bit.
    assert_eq!(
        sum_jref.to_bits(),
        sum_join.to_bits(),
        "merge-scan join diverged from reference"
    );
    push("join", "merge_scan", ns_join, join_ops, sum_join);

    println!("kernels_bench — histogram kernel microbenchmarks\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.variant.clone(),
                format!("{:.2}", r.ns_per_op),
                r.ops.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["kernel", "variant", "ns/op", "ops"], &table)
    );

    match write_json("kernels", &rows) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
