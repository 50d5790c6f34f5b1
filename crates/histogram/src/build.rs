//! Histogram construction: maxDiff, equi-depth, equi-width, exact.
//!
//! Every builder works on a [`Frequencies`] list: the multiset of non-NULL
//! values as `(value, count)` pairs in ascending value order, made by one
//! in-place sort. A SIT's histogram and its `diff` read the same list, and
//! the pool builder counts each base column once for every SIT on it. The
//! `build_*` functions take a slice of non-NULL values (order irrelevant)
//! instead, plus the number of NULL rows and a bucket budget, and sort a
//! copy. The paper's SITs use **maxDiff** with at most 200 buckets (§5); the
//! other builders exist as baselines and for ablation benchmarks.

use crate::histogram::{Bucket, Histogram};

/// A multiset of `i64` values as its distinct values in ascending order,
/// each with its count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frequencies {
    /// `(value, count)` with strictly ascending values and counts ≥ 1.
    pairs: Vec<(i64, u64)>,
    /// Sum of the counts: the number of values in the multiset.
    rows: u64,
}

impl Frequencies {
    /// Counts a multiset by sorting it in place.
    pub fn from_values(mut values: Vec<i64>) -> Self {
        values.sort_unstable();
        let pairs = values
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u64))
            .collect();
        Frequencies {
            pairs,
            rows: values.len() as u64,
        }
    }

    /// The `(value, count)` pairs in ascending value order.
    pub fn pairs(&self) -> &[(i64, u64)] {
        &self.pairs
    }

    /// Number of values counted (the sum of the counts).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// True when no value was counted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The highest count of any one value: the length of the longest run
    /// of equal values. 0 for an empty multiset.
    pub fn max_count(&self) -> u64 {
        self.pairs.iter().map(|&(_, c)| c).max().unwrap_or(0)
    }
}

/// Which construction algorithm to use — for ablation experiments against
/// the paper's choice (maxDiff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BuilderKind {
    /// maxDiff(V,A) — the paper's choice for SITs.
    #[default]
    MaxDiff,
    /// Equi-depth (balanced bucket mass).
    EquiDepth,
    /// Equi-width (balanced bucket value ranges).
    EquiWidth,
    /// One bucket per distinct value (unbounded; reference only).
    Exact,
    /// A uniform reservoir sample of `max_buckets` values, materialized as
    /// a scaled exact histogram — the paper's "samples" alternative to
    /// histogram SITs.
    Sampled,
    /// A Haar wavelet synopsis with `max_buckets` retained coefficients,
    /// materialized as a histogram — the paper's "wavelets" alternative.
    Wavelet,
}

impl BuilderKind {
    /// Builds a histogram of a multiset from its frequency list. The sampled
    /// and wavelet synopses are built from the values themselves, in their
    /// original order (the reservoir sample depends on it): `values` yields
    /// them, and no other kind calls it.
    pub fn build_from(
        self,
        freqs: &Frequencies,
        values: impl FnOnce() -> Vec<i64>,
        null_count: usize,
        max_buckets: usize,
    ) -> Histogram {
        match self {
            BuilderKind::MaxDiff => maxdiff(freqs, null_count, max_buckets),
            BuilderKind::EquiDepth => equi_depth(freqs, null_count, max_buckets),
            BuilderKind::EquiWidth => equi_width(freqs, null_count, max_buckets),
            BuilderKind::Exact => exact(freqs, null_count),
            BuilderKind::Sampled => {
                crate::sample::Sample::build(&values(), null_count, max_buckets, 0x5A4D)
                    .to_histogram()
            }
            BuilderKind::Wavelet => {
                crate::wavelet::WaveletSynopsis::build(&values(), null_count, max_buckets)
                    .to_histogram()
            }
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BuilderKind::MaxDiff => "maxdiff",
            BuilderKind::EquiDepth => "equi-depth",
            BuilderKind::EquiWidth => "equi-width",
            BuilderKind::Exact => "exact",
            BuilderKind::Sampled => "sampled",
            BuilderKind::Wavelet => "wavelet",
        }
    }
}

/// Builds buckets from a partition of the sorted distinct-value list.
/// `cut_after[i]` true means a bucket boundary falls after distinct value
/// index `i`.
fn buckets_from_cuts(freqs: &[(i64, u64)], cut_after: &[bool]) -> Vec<Bucket> {
    let mut buckets = Vec::new();
    let mut start = 0usize;
    for i in 0..freqs.len() {
        let is_last = i + 1 == freqs.len();
        if is_last || cut_after[i] {
            let slice = &freqs[start..=i];
            buckets.push(Bucket {
                lo: slice[0].0,
                hi: slice[slice.len() - 1].0,
                freq: slice.iter().map(|&(_, f)| f as f64).sum(),
                distinct: slice.len() as f64,
            });
            start = i + 1;
        }
    }
    buckets
}

/// Builds an *exact* histogram: one bucket per distinct value. Unbounded
/// size — use only for small domains or as a reference in tests.
pub fn build_exact(values: &[i64], null_count: usize) -> Histogram {
    exact(&Frequencies::from_values(values.to_vec()), null_count)
}

fn exact(freqs: &Frequencies, null_count: usize) -> Histogram {
    let buckets = freqs
        .pairs()
        .iter()
        .map(|&(v, f)| Bucket {
            lo: v,
            hi: v,
            freq: f as f64,
            distinct: 1.0,
        })
        .collect();
    Histogram::new(buckets, null_count as f64)
}

/// Builds a **maxDiff(V,A)** histogram (Poosala et al.): bucket boundaries
/// are placed at the `max_buckets − 1` largest differences in *area*
/// (frequency × spread) between adjacent distinct values, which isolates
/// skewed values into their own buckets.
pub fn build_maxdiff(values: &[i64], null_count: usize, max_buckets: usize) -> Histogram {
    maxdiff(
        &Frequencies::from_values(values.to_vec()),
        null_count,
        max_buckets,
    )
}

fn maxdiff(list: &Frequencies, null_count: usize, max_buckets: usize) -> Histogram {
    let freqs = list.pairs();
    if freqs.is_empty() {
        return Histogram::new(Vec::new(), null_count as f64);
    }
    if freqs.len() <= max_buckets.max(1) {
        return exact(list, null_count);
    }
    // Area of distinct value i: freq_i × spread_i, where spread is the gap
    // to the next distinct value (1 for the last).
    let mut diffs: Vec<(f64, usize)> = Vec::with_capacity(freqs.len() - 1);
    let area = |i: usize| -> f64 {
        let spread = if i + 1 < freqs.len() {
            (freqs[i + 1].0 as i128 - freqs[i].0 as i128) as f64
        } else {
            1.0
        };
        freqs[i].1 as f64 * spread
    };
    for i in 0..freqs.len() - 1 {
        diffs.push(((area(i) - area(i + 1)).abs(), i));
    }
    // Pick the (max_buckets − 1) largest differences as boundaries.
    let n_cuts = max_buckets.max(1) - 1;
    diffs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut cut_after = vec![false; freqs.len()];
    for &(_, i) in diffs.iter().take(n_cuts) {
        cut_after[i] = true;
    }
    Histogram::new(buckets_from_cuts(freqs, &cut_after), null_count as f64)
}

/// Builds an equi-depth histogram: each bucket holds roughly `rows /
/// max_buckets` rows (boundaries never split one distinct value across
/// buckets).
pub fn build_equi_depth(values: &[i64], null_count: usize, max_buckets: usize) -> Histogram {
    equi_depth(
        &Frequencies::from_values(values.to_vec()),
        null_count,
        max_buckets,
    )
}

fn equi_depth(list: &Frequencies, null_count: usize, max_buckets: usize) -> Histogram {
    let freqs = list.pairs();
    if freqs.is_empty() {
        return Histogram::new(Vec::new(), null_count as f64);
    }
    if freqs.len() <= max_buckets.max(1) {
        return exact(list, null_count);
    }
    let total: u64 = freqs.iter().map(|&(_, f)| f).sum();
    let target = (total as f64 / max_buckets.max(1) as f64).max(1.0);
    let mut cut_after = vec![false; freqs.len()];
    let mut acc = 0.0f64;
    let mut cuts = 0usize;
    for (i, &(_, f)) in freqs.iter().enumerate().take(freqs.len() - 1) {
        acc += f as f64;
        if acc >= target && cuts + 1 < max_buckets {
            cut_after[i] = true;
            acc = 0.0;
            cuts += 1;
        }
    }
    Histogram::new(buckets_from_cuts(freqs, &cut_after), null_count as f64)
}

/// Builds an equi-width histogram: the value domain is split into
/// `max_buckets` equal-width ranges.
pub fn build_equi_width(values: &[i64], null_count: usize, max_buckets: usize) -> Histogram {
    equi_width(
        &Frequencies::from_values(values.to_vec()),
        null_count,
        max_buckets,
    )
}

fn equi_width(list: &Frequencies, null_count: usize, max_buckets: usize) -> Histogram {
    let freqs = list.pairs();
    if freqs.is_empty() {
        return Histogram::new(Vec::new(), null_count as f64);
    }
    if freqs.len() <= max_buckets.max(1) {
        return exact(list, null_count);
    }
    let lo = freqs[0].0;
    let hi = freqs[freqs.len() - 1].0;
    let span = (hi as i128 - lo as i128) as u128 + 1;
    let width = (span.div_ceil(max_buckets.max(1) as u128)).max(1) as i128;
    let mut cut_after = vec![false; freqs.len()];
    for i in 0..freqs.len() - 1 {
        // Cut when the next distinct value falls into a different stripe.
        let stripe = |v: i64| (v as i128 - lo as i128) / width;
        if stripe(freqs[i].0) != stripe(freqs[i + 1].0) {
            cut_after[i] = true;
        }
    }
    Histogram::new(buckets_from_cuts(freqs, &cut_after), null_count as f64)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    fn total_freq(h: &Histogram) -> f64 {
        h.valid_rows()
    }

    /// A frequency list counted through an ordered map instead of a sort.
    fn counted_by_map(values: &[i64]) -> Frequencies {
        let mut freq: BTreeMap<i64, u64> = BTreeMap::new();
        for &v in values {
            *freq.entry(v).or_default() += 1;
        }
        Frequencies {
            pairs: freq.into_iter().collect(),
            rows: values.len() as u64,
        }
    }

    /// A builder's slice form: values, NULL count, bucket budget.
    type SliceBuilder = fn(&[i64], usize, usize) -> Histogram;

    /// Bucket bounds, `freq` and `distinct` bits, and the NULL count bits.
    type HistogramBits = (Vec<(i64, i64, u64, u64)>, u64);

    fn bits(h: &Histogram) -> HistogramBits {
        let buckets = h
            .buckets()
            .iter()
            .map(|b| (b.lo, b.hi, b.freq.to_bits(), b.distinct.to_bits()))
            .collect();
        (buckets, h.null_count().to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every list builder gives, from a list counted through a map, the
        /// bits its slice form gives from the values.
        #[test]
        fn list_built_histograms_equal_value_built_ones(
            values in prop::collection::vec(-60i64..60, 0..400),
            nulls in 0usize..12,
            buckets in 1usize..48,
        ) {
            let list = counted_by_map(&values);
            prop_assert_eq!(&Frequencies::from_values(values.clone()), &list);
            let builders: [(BuilderKind, SliceBuilder); 4] = [
                (BuilderKind::MaxDiff, build_maxdiff),
                (BuilderKind::EquiDepth, build_equi_depth),
                (BuilderKind::EquiWidth, build_equi_width),
                (BuilderKind::Exact, |v, n, _| build_exact(v, n)),
            ];
            for (kind, from_values) in builders {
                let from_list =
                    kind.build_from(&list, || unreachable!("list kinds never read the values"), nulls, buckets);
                prop_assert_eq!(
                    bits(&from_list),
                    bits(&from_values(&values, nulls, buckets)),
                    "{} built from the list differs",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn frequencies_count_a_multiset() {
        let f = Frequencies::from_values(vec![3, -1, 3, 7, 3, -1]);
        assert_eq!(f.pairs(), &[(-1, 2), (3, 3), (7, 1)]);
        assert_eq!(f.rows(), 6);
        assert_eq!(f.max_count(), 3);
        let empty = Frequencies::from_values(Vec::new());
        assert!(empty.is_empty());
        assert_eq!((empty.rows(), empty.max_count()), (0, 0));
    }

    #[test]
    fn ordered_kinds_read_the_values_in_their_order() {
        let values: Vec<i64> = (0..500).map(|i| (i * 37) % 101).collect();
        let list = Frequencies::from_values(values.clone());
        let sampled = BuilderKind::Sampled.build_from(&list, || values.clone(), 2, 16);
        let want = crate::sample::Sample::build(&values, 2, 16, 0x5A4D).to_histogram();
        assert_eq!(bits(&sampled), bits(&want));
        let wavelet = BuilderKind::Wavelet.build_from(&list, || values.clone(), 2, 16);
        let want = crate::wavelet::WaveletSynopsis::build(&values, 2, 16).to_histogram();
        assert_eq!(bits(&wavelet), bits(&want));
    }

    #[test]
    fn exact_histogram_reproduces_counts() {
        let vals = vec![5, 1, 5, 5, 3, 1];
        let h = build_exact(&vals, 2);
        assert_eq!(h.buckets().len(), 3);
        assert_eq!(total_freq(&h), 6.0);
        assert_eq!(h.null_count(), 2.0);
        assert!((h.eq_rows(5) - 3.0).abs() < 1e-12);
        assert!((h.eq_rows(1) - 2.0).abs() < 1e-12);
        assert!((h.eq_rows(3) - 1.0).abs() < 1e-12);
        assert_eq!(h.eq_rows(2), 0.0);
    }

    #[test]
    fn small_domains_stay_exact_in_all_builders() {
        let vals = vec![1, 2, 2, 3];
        for build in [build_maxdiff, build_equi_depth, build_equi_width] {
            let h = build(&vals, 0, 10);
            assert_eq!(h.buckets().len(), 3);
            assert!((h.eq_rows(2) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_is_conserved_by_every_builder() {
        let vals: Vec<i64> = (0..1000).map(|i| (i * i) % 577).collect();
        for build in [build_maxdiff, build_equi_depth, build_equi_width] {
            let h = build(&vals, 17, 20);
            assert!((total_freq(&h) - 1000.0).abs() < 1e-6);
            assert_eq!(h.null_count(), 17.0);
            assert!(h.buckets().len() <= 20 + 1);
        }
    }

    #[test]
    fn bucket_budget_is_respected() {
        let vals: Vec<i64> = (0..10_000).collect();
        for build in [build_maxdiff, build_equi_depth] {
            let h = build(&vals, 0, 50);
            assert!(h.buckets().len() <= 50, "got {}", h.buckets().len());
            assert!(h.buckets().len() >= 45);
        }
        let h = build_equi_width(&vals, 0, 50);
        assert!(h.buckets().len() <= 51);
    }

    #[test]
    fn maxdiff_isolates_heavy_hitters() {
        // One enormous spike amid uniform noise: maxDiff should put the
        // spike value in a (near-)singleton bucket, making its equality
        // estimate near-exact.
        let mut vals: Vec<i64> = (0..1000).map(|i| i % 100).collect(); // 10 each
        vals.extend(std::iter::repeat_n(50i64, 5000)); // value 50: 5010 rows
        let h = build_maxdiff(&vals, 0, 20);
        let est = h.eq_rows(50);
        assert!(
            (est - 5010.0).abs() / 5010.0 < 0.2,
            "spike estimate {est} too far from 5010"
        );
        // Equi-width smears the spike across its stripe: strictly worse.
        let hw = build_equi_width(&vals, 0, 20);
        let est_w = hw.eq_rows(50);
        assert!(
            (est - 5010.0).abs() <= (est_w - 5010.0).abs() + 1e-9,
            "maxdiff ({est}) should beat equi-width ({est_w})"
        );
    }

    #[test]
    fn equi_depth_balances_bucket_mass() {
        let vals: Vec<i64> = (0..10_000).map(|i| i % 1000).collect();
        let h = build_equi_depth(&vals, 0, 10);
        let masses: Vec<f64> = h.buckets().iter().map(|b| b.freq).collect();
        let avg = 10_000.0 / masses.len() as f64;
        for m in &masses {
            assert!((m - avg).abs() / avg < 0.5, "unbalanced bucket {m}");
        }
    }

    #[test]
    fn empty_input_yields_empty_histogram() {
        for build in [build_maxdiff, build_equi_depth, build_equi_width] {
            let h = build(&[], 3, 10);
            assert!(h.buckets().is_empty());
            assert_eq!(h.null_count(), 3.0);
            assert_eq!(h.range_selectivity(0, 100), 0.0);
        }
    }

    #[test]
    fn extreme_domains_do_not_overflow() {
        // Regression: widths/spreads on near-full-i64 domains used to
        // overflow the subtraction in debug builds.
        let vals = vec![i64::MIN + 1, 0, i64::MAX - 1];
        for build in [build_maxdiff, build_equi_depth, build_equi_width] {
            let h = build(&vals, 0, 2);
            assert!((h.valid_rows() - 3.0).abs() < 1e-9);
        }
        let w = crate::wavelet::WaveletSynopsis::build(&vals, 0, 100_000);
        assert!((w.range_rows(i64::MIN + 1, i64::MAX - 1) - 3.0).abs() < 1e-6);
        let g = crate::hist2d::Hist2d::build(&[(i64::MIN + 1, i64::MAX - 1), (0, 0)], 0, 2, 2);
        assert!((g.valid_rows() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn negative_values_are_handled() {
        let vals = vec![-100, -50, -50, 0, 25, 25, 25];
        let h = build_maxdiff(&vals, 0, 3);
        assert!((total_freq(&h) - 7.0).abs() < 1e-12);
        assert_eq!(h.bounds().unwrap().0, -100);
        assert!(h.range_selectivity(-60, -40) > 0.0);
    }

    #[test]
    fn range_estimates_exact_on_exact_histogram() {
        let vals = vec![1, 2, 2, 3, 3, 3, 10];
        let h = build_exact(&vals, 0);
        assert!((h.range_rows(2, 3) - 5.0).abs() < 1e-12);
        assert!((h.range_rows(4, 9) - 0.0).abs() < 1e-12);
        assert!((h.range_rows(1, 10) - 7.0).abs() < 1e-12);
    }
}
