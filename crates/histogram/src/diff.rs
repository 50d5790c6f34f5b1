//! The `diff` metric of §3.5.
//!
//! `diff_H = ½ · Σ_x |f(R,x)/|R| − f(T′,x)/|T′||` measures how far the
//! distribution of an attribute over a query expression's result (`T′`)
//! deviates from its base-table distribution (`R`). It is the total
//! variation distance between the two (value-level) distributions: 0 when
//! identical, approaching 1 when (nearly) disjoint. The `Diff` error
//! function uses `1 − diff_H` as the "semantic degree of independence" a SIT
//! removes.
//!
//! Two implementations are provided:
//!
//! * [`diff_exact`] computes the metric from the two sides' [`Frequencies`]
//!   lists in one linear merge. Every SIT pays for it at build time, so the
//!   lists are shared: the pool builder counts a base column once for all
//!   the SITs on it, and a SIT's histogram reads the same list as its
//!   `diff`. The tests pin it bit for bit to a `BTreeMap` reference that
//!   counts both sides into one ordered map;
//! * [`diff_from_histograms`] approximates it from a pair of histograms,
//!   mirroring the paper's suggestion to avoid touching base data (it is
//!   "similar to techniques that approximate joins using histograms").

use std::cmp::Ordering;

use crate::build::Frequencies;
use crate::histogram::{Bucket, Histogram};

/// Exact `diff` between the value multiset of the base column and that of
/// the query-expression result, each given as its frequency list. NULLs are
/// ignored on both sides (a SIT's histogram describes non-NULL values; NULL
/// rows are tracked separately). Returns 0 when either side is empty (no
/// evidence of divergence).
pub fn diff_exact(base: &Frequencies, expr_result: &Frequencies) -> f64 {
    if base.is_empty() || expr_result.is_empty() {
        return 0.0;
    }
    let nb = base.rows() as f64;
    let ne = expr_result.rows() as f64;
    let (b, e) = (base.pairs(), expr_result.pairs());
    let (mut i, mut j) = (0, 0);
    // One term per distinct value of either side, in ascending value
    // order, summed by one left-to-right `Iterator::sum`: the float sum
    // rounds differently under other orders, and SIT `diff`s must be
    // bit-identical across runs and across threads.
    let terms = std::iter::from_fn(|| {
        let (fb, fe) = match (b.get(i), e.get(j)) {
            (Some(&(vb, cb)), Some(&(ve, ce))) => match vb.cmp(&ve) {
                Ordering::Less => {
                    i += 1;
                    (cb, 0)
                }
                Ordering::Greater => {
                    j += 1;
                    (0, ce)
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (cb, ce)
                }
            },
            (Some(&(_, cb)), None) => {
                i += 1;
                (cb, 0)
            }
            (None, Some(&(_, ce))) => {
                j += 1;
                (0, ce)
            }
            (None, None) => return None,
        };
        Some((fb as f64 / nb - fe as f64 / ne).abs())
    });
    let sum: f64 = terms.sum();
    (0.5 * sum).clamp(0.0, 1.0)
}

/// Approximate `diff` from two histograms over the same attribute: the
/// bucket sequences are aligned on the union of their boundaries and the
/// normalized masses compared segment by segment. Exact when both
/// histograms are exact; otherwise accurate to within bucket resolution.
pub fn diff_from_histograms(base: &Histogram, expr: &Histogram) -> f64 {
    let nb = base.valid_rows();
    let ne = expr.valid_rows();
    if nb == 0.0 || ne == 0.0 {
        return 0.0;
    }
    // Collect every boundary of both histograms.
    let mut cuts: Vec<i64> = Vec::new();
    for b in base.buckets().iter().chain(expr.buckets()) {
        cuts.push(b.lo);
        cuts.push(b.hi.saturating_add(1));
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut sum = 0.0f64;
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1] - 1);
        if lo > hi {
            continue;
        }
        let mb = mass_in(base.buckets(), lo, hi) / nb;
        let me = mass_in(expr.buckets(), lo, hi) / ne;
        sum += (mb - me).abs();
    }
    (0.5 * sum).clamp(0.0, 1.0)
}

fn mass_in(buckets: &[Bucket], lo: i64, hi: i64) -> f64 {
    let idx = buckets.partition_point(|b| b.hi < lo);
    match buckets.get(idx) {
        Some(b) if b.lo <= hi => {
            let o_lo = b.lo.max(lo);
            let o_hi = b.hi.min(hi);
            b.freq * ((o_hi - o_lo) as f64 + 1.0) / ((b.hi - b.lo) as f64 + 1.0)
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::build::{build_exact, build_maxdiff};

    /// The reference `diff`: both sides counted into one ordered map, one
    /// term per key in ascending key order.
    fn diff_btree(base: &[i64], expr_result: &[i64]) -> f64 {
        if base.is_empty() || expr_result.is_empty() {
            return 0.0;
        }
        let mut freq: BTreeMap<i64, (u64, u64)> = BTreeMap::new();
        for &v in base {
            freq.entry(v).or_default().0 += 1;
        }
        for &v in expr_result {
            freq.entry(v).or_default().1 += 1;
        }
        let nb = base.len() as f64;
        let ne = expr_result.len() as f64;
        let sum: f64 = freq
            .values()
            .map(|&(fb, fe)| (fb as f64 / nb - fe as f64 / ne).abs())
            .sum();
        (0.5 * sum).clamp(0.0, 1.0)
    }

    /// `diff_exact` over two value slices, each counted into its list.
    fn diff(base: &[i64], expr_result: &[i64]) -> f64 {
        diff_exact(
            &Frequencies::from_values(base.to_vec()),
            &Frequencies::from_values(expr_result.to_vec()),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The merge sums the reference's terms in the reference's order,
        /// so the two agree bit for bit. `shape` picks how the sides
        /// relate: independent draws, the same multiset, the same support
        /// with other counts, or disjoint supports.
        #[test]
        fn merged_diff_is_bit_identical_to_the_btreemap_reference(
            base in prop::collection::vec(-30i64..30, 0..120),
            drawn in prop::collection::vec(-30i64..30, 0..360),
            shape in 0u8..4,
        ) {
            let expr: Vec<i64> = match shape {
                0 => drawn,
                1 => base.clone(),
                2 if !base.is_empty() => drawn
                    .iter()
                    .map(|&x| base[x.unsigned_abs() as usize % base.len()])
                    .collect(),
                _ => drawn.iter().map(|&x| x + 100).collect(),
            };
            let want = diff_btree(&base, &expr);
            let got = diff(&base, &expr);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "merge {} vs reference {}", got, want);
            let (want, got) = (diff_btree(&expr, &base), diff(&expr, &base));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "merge {} vs reference {}", got, want);
        }
    }

    #[test]
    fn identical_distributions_have_zero_diff() {
        let v = vec![1, 2, 2, 3, 3, 3];
        assert_eq!(diff(&v, &v), 0.0);
        // Scaled copies too: the metric compares *normalized* frequencies.
        let doubled: Vec<i64> = v.iter().chain(&v).copied().collect();
        assert!(diff(&v, &doubled) < 1e-12);
    }

    #[test]
    fn disjoint_supports_have_diff_one() {
        let a = vec![1, 2, 3];
        let b = vec![10, 11, 12];
        assert!((diff(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_shift_is_strictly_between() {
        let a = vec![1, 1, 2, 2];
        let b = vec![1, 2, 2, 2]; // mass moved from value 1 to value 2
        let d = diff(&a, &b);
        assert!(d > 0.0 && d < 1.0);
        assert!((d - 0.25).abs() < 1e-12); // ½(|0.5−0.25| + |0.5−0.75|)
    }

    #[test]
    fn empty_sides_report_zero() {
        assert_eq!(diff(&[], &[1, 2]), 0.0);
        assert_eq!(diff(&[1, 2], &[]), 0.0);
        assert_eq!(diff(&[], &[]), 0.0);
        assert_eq!(
            diff_from_histograms(&Histogram::empty(), &Histogram::empty()),
            0.0
        );
    }

    #[test]
    fn histogram_diff_matches_exact_on_exact_histograms() {
        let a = vec![1, 1, 2, 3, 3, 3, 7];
        let b = vec![1, 3, 3, 7, 7, 7, 9];
        let want = diff(&a, &b);
        let got = diff_from_histograms(&build_exact(&a, 0), &build_exact(&b, 0));
        assert!((want - got).abs() < 1e-12, "want {want}, got {got}");
    }

    #[test]
    fn histogram_diff_approximates_exact_on_bucketed_histograms() {
        // Skewed vs uniform over the same domain.
        let uniform: Vec<i64> = (0..10_000).map(|i| i % 500).collect();
        let skewed: Vec<i64> = (0..10_000)
            .map(|i| if i % 10 < 7 { i % 50 } else { i % 500 })
            .collect();
        let want = diff(&uniform, &skewed);
        let got = diff_from_histograms(
            &build_maxdiff(&uniform, 0, 100),
            &build_maxdiff(&skewed, 0, 100),
        );
        assert!(
            (want - got).abs() < 0.1,
            "histogram approximation too coarse: exact {want}, approx {got}"
        );
    }

    #[test]
    fn diff_is_symmetric() {
        let a = vec![1, 2, 2, 9];
        let b = vec![2, 9, 9, 9];
        assert!((diff(&a, &b) - diff(&b, &a)).abs() < 1e-12);
        let (ha, hb) = (build_exact(&a, 0), build_exact(&b, 0));
        assert!((diff_from_histograms(&ha, &hb) - diff_from_histograms(&hb, &ha)).abs() < 1e-12);
    }

    #[test]
    fn diff_stays_in_unit_interval() {
        // A handful of adversarial pairs.
        let cases: Vec<(Vec<i64>, Vec<i64>)> = vec![
            (vec![i64::MIN, i64::MAX], vec![0]),
            (vec![5; 100], vec![5]),
            ((0..1000).collect(), (500..1500).collect()),
        ];
        for (a, b) in cases {
            let d = diff(&a, &b);
            assert!((0.0..=1.0).contains(&d), "diff {d} out of range");
            assert_eq!(d.to_bits(), diff_btree(&a, &b).to_bits());
        }
    }
}
