//! Histogram representation, estimation, and the histogram join.

use crate::kernels::join_segments;

/// One histogram bucket over the inclusive value range `[lo, hi]`.
///
/// `freq` is the (possibly fractional, after scaling) number of rows falling
/// in the range; `distinct` the estimated number of distinct values present.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Bucket {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound (`hi >= lo`).
    pub hi: i64,
    /// Row count in the bucket.
    pub freq: f64,
    /// Distinct-value count in the bucket (`0 < distinct <= width`).
    pub distinct: f64,
}

/// Number of integer values in the inclusive range `[lo, hi]`, as `f64`,
/// overflow-safe for the full `i64` domain.
pub(crate) fn span_f64(lo: i64, hi: i64) -> f64 {
    (hi as i128 - lo as i128 + 1) as f64
}

impl Bucket {
    /// Number of integer values covered by the bucket.
    pub fn width(&self) -> f64 {
        span_f64(self.lo, self.hi)
    }

    /// Fraction of this bucket's value range that overlaps `[lo, hi]`
    /// (inclusive), under the continuous-values assumption.
    pub(crate) fn overlap_fraction(&self, lo: i64, hi: i64) -> f64 {
        let o_lo = self.lo.max(lo);
        let o_hi = self.hi.min(hi);
        if o_lo > o_hi {
            0.0
        } else {
            span_f64(o_lo, o_hi) / self.width()
        }
    }
}

/// A unidimensional histogram over an `i64` attribute.
///
/// Bucket ranges are disjoint and sorted ascending; gaps between buckets
/// denote value ranges with no rows. `null_count` rows have NULL in the
/// attribute and live outside every bucket.
///
/// Alongside the buckets the histogram carries prefix-sum CDFs of the
/// frequency and distinct counts, so every range/equality kernel is a
/// binary search plus two CDF lookups instead of an `O(b)` bucket scan —
/// these kernels sit under every peel, view-match filter estimate, and
/// `H3` join of the estimator. The CDFs — and the structure-of-arrays
/// bound columns `los`/`his` those binary searches probe — are derived
/// state: they are rebuilt by [`Histogram::new`], excluded from equality,
/// and never serialized (the wire format stays `{buckets, null_count}`).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<Bucket>,
    null_count: f64,
    /// `freq_cdf[k]` = Σ `buckets[..k].freq` (length `buckets.len() + 1`,
    /// accumulated left to right so `freq_cdf.last()` is bit-identical to
    /// the former `iter().sum()` walk).
    freq_cdf: Vec<f64>,
    /// `distinct_cdf[k]` = Σ `buckets[..k].distinct`, same layout.
    distinct_cdf: Vec<f64>,
    /// `los[k]` = `buckets[k].lo`: the bound column the range kernels
    /// search, split out of the 32-byte bucket struct so probes touch a
    /// dense `i64` array (4× the bounds per cache line) and the search
    /// never loads freq/distinct it does not need.
    los: Vec<i64>,
    /// `his[k]` = `buckets[k].hi`, same layout.
    his: Vec<i64>,
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        // The CDFs are a pure function of the buckets; comparing them
        // would be redundant.
        self.buckets == other.buckets && self.null_count == other.null_count
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(Vec::new(), 0.0)
    }
}

impl serde::Serialize for Histogram {
    fn serialize(&self, w: &mut serde::Writer) -> Result<(), serde::Error> {
        // Manual impl (the derive would add the derived CDF fields): same
        // `{buckets, null_count}` object the former derive produced.
        w.begin_object();
        w.field("buckets", &self.buckets)?;
        w.field("null_count", &self.null_count)?;
        w.end_object();
        Ok(())
    }
}

/// The wire form a [`Histogram`] decodes from; the CDFs are rebuilt.
#[derive(serde::Deserialize)]
struct HistogramWire {
    buckets: Vec<Bucket>,
    null_count: f64,
}

impl serde::Deserialize for Histogram {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let wire = HistogramWire::deserialize(r)?;
        Ok(Histogram::new(wire.buckets, wire.null_count))
    }
}

/// Result of a histogram equi-join (§3.3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinResult {
    /// `Sel(x = y)` relative to the cross product of the two inputs: the
    /// estimated join output size divided by `|H1 rows| · |H2 rows|`.
    pub selectivity: f64,
    /// `H3`: distribution of the (shared) join attribute over the join
    /// output — usable to estimate further predicates on that attribute.
    pub histogram: Histogram,
}

impl Histogram {
    /// Creates a histogram from buckets (must be sorted, disjoint, and
    /// well-formed; checked with debug assertions) and a NULL count.
    pub fn new(buckets: Vec<Bucket>, null_count: f64) -> Self {
        debug_assert!(buckets.iter().all(|b| b.lo <= b.hi));
        debug_assert!(buckets.iter().all(|b| b.freq >= 0.0 && b.distinct >= 0.0));
        debug_assert!(buckets.windows(2).all(|w| w[0].hi < w[1].lo));
        let mut freq_cdf = Vec::with_capacity(buckets.len() + 1);
        let mut distinct_cdf = Vec::with_capacity(buckets.len() + 1);
        let (mut f, mut d) = (0.0f64, 0.0f64);
        freq_cdf.push(f);
        distinct_cdf.push(d);
        for b in &buckets {
            f += b.freq;
            d += b.distinct;
            freq_cdf.push(f);
            distinct_cdf.push(d);
        }
        let los = buckets.iter().map(|b| b.lo).collect();
        let his = buckets.iter().map(|b| b.hi).collect();
        Histogram {
            buckets,
            null_count,
            freq_cdf,
            distinct_cdf,
            los,
            his,
        }
    }

    /// An empty histogram (no rows at all).
    pub fn empty() -> Self {
        Histogram::default()
    }

    /// The buckets, ascending.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Rows with a NULL attribute value.
    pub fn null_count(&self) -> f64 {
        self.null_count
    }

    /// Rows with a non-NULL attribute value. `O(1)`: the last CDF entry is
    /// the same left-to-right sum the bucket scan produced.
    pub fn valid_rows(&self) -> f64 {
        *self.freq_cdf.last().expect("CDF always has a zero entry")
    }

    /// Total rows described (valid + NULL) — the denominator of every
    /// selectivity this histogram reports.
    pub fn total_rows(&self) -> f64 {
        self.valid_rows() + self.null_count
    }

    /// Total distinct values represented (`O(1)`, from the distinct CDF).
    pub fn distinct_values(&self) -> f64 {
        *self
            .distinct_cdf
            .last()
            .expect("CDF always has a zero entry")
    }

    /// Smallest and largest covered values.
    pub fn bounds(&self) -> Option<(i64, i64)> {
        Some((self.buckets.first()?.lo, self.buckets.last()?.hi))
    }

    /// Estimated number of rows with value in `[lo, hi]` (inclusive).
    ///
    /// Binary search locates the overlapping bucket run; the two edge
    /// buckets contribute their overlap fraction and the fully-covered
    /// middle comes from one frequency-CDF subtraction. Versus the former
    /// full scan the result can differ by the usual prefix-subtraction
    /// rounding (≲ `b·ε` relative — pinned by the kernel tests); fully
    /// covered edge buckets still contribute `freq` exactly because
    /// `overlap_fraction` is exactly `1.0` there.
    pub fn range_rows(&self, lo: i64, hi: i64) -> f64 {
        if lo > hi {
            return 0.0;
        }
        // First bucket not entirely below the range, first bucket entirely
        // above it: buckets[a..b] are exactly the overlapping ones. Both
        // searches run over the SoA bound columns.
        let a = self.his.partition_point(|&h| h < lo);
        let b = self.los.partition_point(|&l| l <= hi);
        if a >= b {
            return 0.0;
        }
        let first = &self.buckets[a];
        if b - a == 1 {
            return first.freq * first.overlap_fraction(lo, hi);
        }
        let last = &self.buckets[b - 1];
        first.freq * first.overlap_fraction(lo, hi)
            + (self.freq_cdf[b - 1] - self.freq_cdf[a + 1])
            + last.freq * last.overlap_fraction(lo, hi)
    }

    /// Estimated selectivity of `lo <= value <= hi`, as a fraction of all
    /// rows (NULLs never qualify). Returns 0 for an empty histogram.
    pub fn range_selectivity(&self, lo: i64, hi: i64) -> f64 {
        let total = self.total_rows();
        if total == 0.0 {
            return 0.0;
        }
        (self.range_rows(lo, hi) / total).clamp(0.0, 1.0)
    }

    /// The bucket whose range contains `v`, by binary search (buckets are
    /// sorted and disjoint, so the first bucket with `hi >= v` is the only
    /// candidate). Shared by [`Histogram::eq_rows`] and — through
    /// [`Histogram::range_rows`] — every [`Histogram::cmp_selectivity`]
    /// call.
    fn covering_bucket(&self, v: i64) -> Option<&Bucket> {
        let i = self.his.partition_point(|&h| h < v);
        self.buckets.get(i).filter(|b| b.lo <= v)
    }

    /// Estimated number of rows with value exactly `v` (freq/distinct within
    /// the covering bucket — the standard uniform-frequency assumption).
    pub fn eq_rows(&self, v: i64) -> f64 {
        match self.covering_bucket(v) {
            Some(b) if b.distinct > 0.0 => b.freq / b.distinct.max(1.0),
            _ => 0.0,
        }
    }

    /// Estimated selectivity of `value = v`.
    pub fn eq_selectivity(&self, v: i64) -> f64 {
        let total = self.total_rows();
        if total == 0.0 {
            return 0.0;
        }
        (self.eq_rows(v) / total).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of a one-sided comparison. `strict` excludes
    /// the boundary (`<` / `>` vs `<=` / `>=`); `less` selects the lower
    /// side. Runs on the same binary-search range kernel as `eq_rows`
    /// (through [`Histogram::range_selectivity`]), so it is `O(log b)`.
    pub fn cmp_selectivity(&self, v: i64, less: bool, strict: bool) -> f64 {
        let Some((lo, hi)) = self.bounds() else {
            return 0.0;
        };
        if less {
            let end = if strict { v.saturating_sub(1) } else { v };
            self.range_selectivity(lo.min(end), end)
        } else {
            let start = if strict { v.saturating_add(1) } else { v };
            self.range_selectivity(start, hi.max(start))
        }
    }

    /// Multiplies every frequency by `factor` (NULLs included). Used when a
    /// histogram is rescaled to model a filtered/joined population.
    pub fn scale(&self, factor: f64) -> Histogram {
        debug_assert!(factor >= 0.0);
        Histogram::new(
            self.buckets
                .iter()
                .map(|b| {
                    let freq = b.freq * factor;
                    Bucket {
                        freq,
                        // Distinct values never grow and cannot exceed the
                        // remaining (possibly fractional) rows.
                        distinct: b.distinct.min(freq),
                        ..*b
                    }
                })
                .collect(),
            self.null_count * factor,
        )
    }

    /// Restricts the histogram to `[lo, hi]`, keeping only (parts of)
    /// buckets that overlap. Frequencies and distinct counts are reduced
    /// proportionally to the overlap.
    pub fn restrict(&self, lo: i64, hi: i64) -> Histogram {
        let mut buckets = Vec::new();
        for b in &self.buckets {
            let o_lo = b.lo.max(lo);
            let o_hi = b.hi.min(hi);
            if o_lo > o_hi {
                continue;
            }
            let frac = b.overlap_fraction(lo, hi);
            buckets.push(Bucket {
                lo: o_lo,
                hi: o_hi,
                freq: b.freq * frac,
                distinct: (b.distinct * frac).max(1.0).min(span_f64(o_lo, o_hi)),
            });
        }
        Histogram::new(buckets, 0.0)
    }

    /// Histogram equi-join (§3.3). Aligns the two bucket sequences on the
    /// union of their boundaries; within each aligned segment the estimated
    /// number of matching distinct values is `min(d1, d2)` and each matching
    /// value contributes `(f1/d1)·(f2/d2)` output rows (uniform-frequency
    /// within segments, containment of the rarer value set).
    ///
    /// Returns the join selectivity relative to `|H1| · |H2|` (NULL rows
    /// never join, but they stay in the denominators) and the result
    /// distribution `H3` of the join attribute.
    ///
    /// The segment walk runs on the two-pointer merge kernel
    /// (`kernels::join_segments`), bit-identical to
    /// [`Histogram::join_reference`] (pinned by a test below) but without
    /// the boundary sort or per-segment binary searches.
    pub fn join(&self, other: &Histogram) -> JoinResult {
        let (out_buckets, out_rows) = join_segments(&self.buckets, &other.buckets);
        self.finish_join(other, out_buckets, out_rows)
    }

    /// Reference implementation of [`Histogram::join`]: materialize the
    /// sorted deduplicated boundary list, then binary-search each side per
    /// segment. Kept (not dead-code) as the equivalence oracle for the
    /// merge-scan kernel, here and in the kernels microbench.
    pub fn join_reference(&self, other: &Histogram) -> JoinResult {
        let mut out_buckets: Vec<Bucket> = Vec::new();
        let mut out_rows = 0.0f64;
        for (lo, hi) in segment_boundaries(&self.buckets, &other.buckets) {
            let (f1, d1) = segment_mass(&self.buckets, lo, hi);
            let (f2, d2) = segment_mass(&other.buckets, lo, hi);
            if f1 <= 0.0 || f2 <= 0.0 || d1 <= 0.0 || d2 <= 0.0 {
                continue;
            }
            let matching = d1.min(d2);
            let rows = matching * (f1 / d1) * (f2 / d2);
            if rows <= 0.0 {
                continue;
            }
            out_rows += rows;
            out_buckets.push(Bucket {
                lo,
                hi,
                freq: rows,
                distinct: matching,
            });
        }
        self.finish_join(other, out_buckets, out_rows)
    }

    /// Shared tail of both join paths: selectivity normalization and the
    /// output-size bound.
    fn finish_join(
        &self,
        other: &Histogram,
        out_buckets: Vec<Bucket>,
        out_rows: f64,
    ) -> JoinResult {
        let denom = self.total_rows() * other.total_rows();
        let selectivity = if denom == 0.0 {
            0.0
        } else {
            (out_rows / denom).clamp(0.0, 1.0)
        };
        JoinResult {
            selectivity,
            histogram: Histogram::new(merge_adjacent(out_buckets), 0.0),
        }
    }
}

/// Computes the sorted, disjoint segments covering the union of two bucket
/// lists, split at every boundary of either.
fn segment_boundaries(a: &[Bucket], b: &[Bucket]) -> Vec<(i64, i64)> {
    let mut cuts: Vec<i64> = Vec::with_capacity(2 * (a.len() + b.len()));
    for bucket in a.iter().chain(b) {
        cuts.push(bucket.lo);
        // Segment ends are exclusive at `hi + 1` so both `lo` starts and
        // post-`hi` starts become cut points.
        cuts.push(bucket.hi.saturating_add(1));
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut segs = Vec::with_capacity(cuts.len());
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1] - 1);
        if lo <= hi {
            segs.push((lo, hi));
        }
    }
    segs
}

/// Frequency and distinct mass of the (single, by construction) bucket
/// overlapping `[lo, hi]`, scaled by the overlap fraction.
fn segment_mass(buckets: &[Bucket], lo: i64, hi: i64) -> (f64, f64) {
    // Segments never straddle a bucket boundary, so at most one bucket
    // overlaps. Binary search for it.
    let idx = buckets.partition_point(|b| b.hi < lo);
    match buckets.get(idx) {
        Some(b) if b.lo <= hi => {
            let frac = b.overlap_fraction(lo, hi);
            (b.freq * frac, (b.distinct * frac).min(span_f64(lo, hi)))
        }
        _ => (0.0, 0.0),
    }
}

/// Merges adjacent output buckets to bound the result size (keeps result
/// histograms from growing unboundedly through chains of joins).
fn merge_adjacent(buckets: Vec<Bucket>) -> Vec<Bucket> {
    const MAX_BUCKETS: usize = 512;
    if buckets.len() <= MAX_BUCKETS {
        return buckets;
    }
    let group = buckets.len().div_ceil(MAX_BUCKETS);
    buckets
        .chunks(group)
        .map(|chunk| Bucket {
            lo: chunk[0].lo,
            hi: chunk[chunk.len() - 1].hi,
            freq: chunk.iter().map(|b| b.freq).sum(),
            distinct: chunk.iter().map(|b| b.distinct).sum(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_hist(lo: i64, hi: i64, rows: f64) -> Histogram {
        Histogram::new(
            vec![Bucket {
                lo,
                hi,
                freq: rows,
                distinct: (hi - lo + 1) as f64,
            }],
            0.0,
        )
    }

    #[test]
    fn range_selectivity_on_uniform_data() {
        let h = uniform_hist(1, 100, 1000.0);
        assert!((h.range_selectivity(1, 100) - 1.0).abs() < 1e-12);
        assert!((h.range_selectivity(1, 50) - 0.5).abs() < 1e-12);
        assert!((h.range_selectivity(26, 50) - 0.25).abs() < 1e-12);
        assert_eq!(h.range_selectivity(200, 300), 0.0);
        assert_eq!(h.range_selectivity(50, 40), 0.0, "inverted range");
    }

    #[test]
    fn eq_selectivity_uses_distinct_counts() {
        let h = Histogram::new(
            vec![Bucket {
                lo: 0,
                hi: 9,
                freq: 100.0,
                distinct: 5.0,
            }],
            0.0,
        );
        assert!((h.eq_selectivity(3) - 0.2).abs() < 1e-12); // 100/5 / 100
        assert_eq!(h.eq_selectivity(42), 0.0);
    }

    #[test]
    fn nulls_dilute_selectivity() {
        let mut h = uniform_hist(1, 10, 50.0);
        assert!((h.range_selectivity(1, 10) - 1.0).abs() < 1e-12);
        h = Histogram::new(h.buckets().to_vec(), 50.0);
        assert!((h.range_selectivity(1, 10) - 0.5).abs() < 1e-12);
        assert_eq!(h.total_rows(), 100.0);
        assert_eq!(h.valid_rows(), 50.0);
    }

    #[test]
    fn cmp_selectivity_strict_vs_inclusive() {
        let h = uniform_hist(1, 10, 10.0);
        assert!((h.cmp_selectivity(5, true, false) - 0.5).abs() < 1e-12); // <= 5
        assert!((h.cmp_selectivity(5, true, true) - 0.4).abs() < 1e-12); // < 5
        assert!((h.cmp_selectivity(5, false, false) - 0.6).abs() < 1e-12); // >= 5
        assert!((h.cmp_selectivity(5, false, true) - 0.5).abs() < 1e-12); // > 5
    }

    #[test]
    fn join_of_identical_uniform_hists() {
        // 100 rows over 100 distinct values each side: each value matches,
        // output = 100 values × 1 × 1 = 100 rows; selectivity = 100/10000.
        let h = uniform_hist(1, 100, 100.0);
        let r = h.join(&h);
        assert!((r.selectivity - 0.01).abs() < 1e-12);
        assert!((r.histogram.valid_rows() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn join_respects_disjoint_domains() {
        let a = uniform_hist(1, 10, 10.0);
        let b = uniform_hist(100, 110, 10.0);
        let r = a.join(&b);
        assert_eq!(r.selectivity, 0.0);
        assert!(r.histogram.buckets().is_empty());
    }

    #[test]
    fn join_with_skewed_side() {
        // Left: 1000 rows all with value 5. Right: uniform 1..=10.
        let a = Histogram::new(
            vec![Bucket {
                lo: 5,
                hi: 5,
                freq: 1000.0,
                distinct: 1.0,
            }],
            0.0,
        );
        let b = uniform_hist(1, 10, 10.0);
        let r = a.join(&b);
        // value 5 matches: 1000 × 1 = 1000 rows; sel = 1000/(1000·10) = 0.1
        assert!((r.selectivity - 0.1).abs() < 1e-12);
        let h3 = &r.histogram;
        assert_eq!(h3.buckets().len(), 1);
        assert!((h3.valid_rows() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn join_null_rows_do_not_match_but_stay_in_denominator() {
        let a = Histogram::new(
            vec![Bucket {
                lo: 1,
                hi: 10,
                freq: 50.0,
                distinct: 10.0,
            }],
            50.0,
        );
        let b = uniform_hist(1, 10, 10.0);
        let r = a.join(&b);
        // matches: 10 values × 5 × 1 = 50 rows; denom = 100 × 10.
        assert!((r.selectivity - 0.05).abs() < 1e-12);
    }

    #[test]
    fn restrict_keeps_only_overlap() {
        let h = uniform_hist(1, 100, 1000.0);
        let r = h.restrict(41, 60);
        assert_eq!(r.buckets().len(), 1);
        assert!((r.valid_rows() - 200.0).abs() < 1e-9);
        assert_eq!(r.bounds(), Some((41, 60)));
        assert_eq!(r.null_count(), 0.0);
    }

    #[test]
    fn scale_halves_mass() {
        let h = Histogram::new(
            vec![Bucket {
                lo: 1,
                hi: 10,
                freq: 100.0,
                distinct: 10.0,
            }],
            20.0,
        );
        let s = h.scale(0.5);
        assert!((s.valid_rows() - 50.0).abs() < 1e-9);
        assert!((s.null_count() - 10.0).abs() < 1e-9);
        // Distinct cannot exceed remaining rows.
        assert!(s.buckets()[0].distinct <= 50.0);
    }

    #[test]
    fn empty_histogram_estimates_zero() {
        let h = Histogram::empty();
        assert_eq!(h.range_selectivity(0, 10), 0.0);
        assert_eq!(h.eq_selectivity(0), 0.0);
        assert_eq!(h.cmp_selectivity(0, true, false), 0.0);
        assert_eq!(h.join(&h).selectivity, 0.0);
        assert_eq!(h.bounds(), None);
    }

    #[test]
    fn segments_split_at_all_boundaries() {
        let a = vec![Bucket {
            lo: 0,
            hi: 9,
            freq: 1.0,
            distinct: 1.0,
        }];
        let b = vec![Bucket {
            lo: 5,
            hi: 14,
            freq: 1.0,
            distinct: 1.0,
        }];
        let segs = segment_boundaries(&a, &b);
        assert_eq!(segs, vec![(0, 4), (5, 9), (10, 14)]);
    }

    /// Reference implementations of the kernels as the pre-CDF full scans,
    /// for pinning the binary-search + CDF rewrite against.
    fn range_rows_scan(h: &Histogram, lo: i64, hi: i64) -> f64 {
        if lo > hi {
            return 0.0;
        }
        h.buckets
            .iter()
            .map(|b| b.freq * b.overlap_fraction(lo, hi))
            .sum()
    }

    fn eq_rows_scan(h: &Histogram, v: i64) -> f64 {
        match h.buckets.iter().find(|b| b.lo <= v && v <= b.hi) {
            Some(b) if b.distinct > 0.0 => b.freq / b.distinct.max(1.0),
            _ => 0.0,
        }
    }

    /// Deterministic pseudo-random histogram: sorted disjoint buckets with
    /// gaps, fractional freqs, occasional zero-freq buckets.
    fn lcg_hist(state: &mut u64, max_buckets: usize) -> Histogram {
        let next = move |s: &mut u64| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*s >> 33) as i64
        };
        let nb = (next(state).unsigned_abs() as usize) % max_buckets + 1;
        let mut buckets = Vec::with_capacity(nb);
        let mut lo = -(next(state).rem_euclid(50));
        for _ in 0..nb {
            let width = next(state).rem_euclid(20) + 1;
            let hi = lo + width - 1;
            let freq = (next(state).rem_euclid(10_000) as f64) / 3.0;
            let distinct = ((next(state).rem_euclid(width) + 1) as f64).min(freq.max(1.0));
            buckets.push(Bucket {
                lo,
                hi,
                freq,
                distinct,
            });
            lo = hi + 1 + next(state).rem_euclid(7);
        }
        Histogram::new(buckets, (next(state).rem_euclid(100) as f64) / 2.0)
    }

    /// CDF `range_rows` vs the full-scan reference: deviation is bounded by
    /// prefix-subtraction rounding (≲ `b·ε` relative), pinned here at a
    /// 1e-12 relative tolerance. Totals and `eq_rows` must be exact.
    #[test]
    fn cdf_kernels_match_scan_reference_within_summation_order() {
        let mut state = 0x5EED_1234_ABCD_0001u64;
        for case in 0..400 {
            let h = lcg_hist(&mut state, 40);
            let (dom_lo, dom_hi) = h.bounds().expect("non-empty by construction");
            // Totals are bit-identical: the CDF accumulates in scan order.
            let freq_scan: f64 = h.buckets.iter().map(|b| b.freq).sum();
            let distinct_scan: f64 = h.buckets.iter().map(|b| b.distinct).sum();
            assert_eq!(h.valid_rows().to_bits(), freq_scan.to_bits(), "case {case}");
            assert_eq!(
                h.distinct_values().to_bits(),
                distinct_scan.to_bits(),
                "case {case}"
            );
            for probe in 0..40 {
                let span = dom_hi - dom_lo;
                let a = dom_lo - 3 + (probe * 7919) % (span + 7);
                let b = dom_lo - 3 + (probe * 104729) % (span + 7);
                let (lo, hi) = (a.min(b), a.max(b));
                let fast = h.range_rows(lo, hi);
                let slow = range_rows_scan(&h, lo, hi);
                let tol = 1e-12 * slow.abs().max(1.0);
                assert!(
                    (fast - slow).abs() <= tol,
                    "case {case} range [{lo},{hi}]: fast {fast} vs scan {slow}"
                );
                // Equality kernel has no arithmetic change: exact bits.
                assert_eq!(
                    h.eq_rows(a).to_bits(),
                    eq_rows_scan(&h, a).to_bits(),
                    "case {case} eq {a}"
                );
            }
            // Degenerate probes: outside the domain, inverted, single value.
            assert_eq!(h.range_rows(dom_hi + 10, dom_hi + 20), 0.0);
            assert_eq!(h.range_rows(5, 4), 0.0);
            assert_eq!(
                h.range_rows(dom_lo, dom_lo).to_bits(),
                range_rows_scan(&h, dom_lo, dom_lo).to_bits()
            );
        }
    }

    /// The merge-scan join kernel against the reference path: identical
    /// segments, identical accumulation order, so every output must match
    /// bit for bit — including on histograms with gaps, adjacent buckets,
    /// fractional masses, and disjoint domains.
    #[test]
    fn merge_scan_join_is_bit_identical_to_reference() {
        let mut state = 0x7_AB1E_5EED_0042u64;
        for case in 0..300 {
            let a = lcg_hist(&mut state, 30);
            let b = lcg_hist(&mut state, 30);
            let fast = a.join(&b);
            let slow = a.join_reference(&b);
            assert_eq!(
                fast.selectivity.to_bits(),
                slow.selectivity.to_bits(),
                "case {case} selectivity"
            );
            assert_eq!(
                fast.histogram, slow.histogram,
                "case {case} H3 buckets differ"
            );
            let fb = fast.histogram.buckets();
            let sb = slow.histogram.buckets();
            for (x, y) in fb.iter().zip(sb) {
                assert_eq!(x.freq.to_bits(), y.freq.to_bits(), "case {case} freq");
                assert_eq!(
                    x.distinct.to_bits(),
                    y.distinct.to_bits(),
                    "case {case} distinct"
                );
            }
        }
        // Self-join of adjacent-bucket histograms exercises the shared-cut
        // advance explicitly.
        let h = Histogram::new(
            vec![
                Bucket {
                    lo: 0,
                    hi: 9,
                    freq: 12.5,
                    distinct: 7.0,
                },
                Bucket {
                    lo: 10,
                    hi: 10,
                    freq: 3.0,
                    distinct: 1.0,
                },
                Bucket {
                    lo: 11,
                    hi: 30,
                    freq: 8.0,
                    distinct: 5.0,
                },
            ],
            2.0,
        );
        let fast = h.join(&h);
        let slow = h.join_reference(&h);
        assert_eq!(fast.selectivity.to_bits(), slow.selectivity.to_bits());
        assert_eq!(fast.histogram, slow.histogram);
    }

    #[test]
    fn serde_wire_format_is_buckets_and_null_count_only() {
        use serde::{Deserialize, Serialize};
        let h = uniform_hist(1, 10, 40.0);
        let mut w = serde::Writer::compact();
        h.serialize(&mut w).expect("finite histogram serializes");
        let text = w.into_string();
        let mut r = serde::Reader::new(&text);
        let mut names = Vec::new();
        let mut more = r.begin_object().expect("object");
        while more {
            names.push(r.key().expect("key").to_string());
            r.skip_value().expect("value");
            more = r.next_entry().expect("entry");
        }
        assert_eq!(
            names,
            ["buckets", "null_count"],
            "derived CDFs stay off the wire"
        );
        let back = Histogram::deserialize(&mut serde::Reader::new(&text)).expect("roundtrip");
        assert_eq!(back, h);
        // The roundtripped histogram rebuilt its CDFs.
        assert_eq!(back.valid_rows().to_bits(), h.valid_rows().to_bits());
        assert_eq!(
            back.range_rows(2, 9).to_bits(),
            h.range_rows(2, 9).to_bits()
        );
    }

    #[test]
    fn merge_adjacent_preserves_mass() {
        let buckets: Vec<Bucket> = (0..2000)
            .map(|i| Bucket {
                lo: 2 * i,
                hi: 2 * i + 1,
                freq: 1.0,
                distinct: 1.0,
            })
            .collect();
        let merged = merge_adjacent(buckets);
        assert!(merged.len() <= 512);
        let mass: f64 = merged.iter().map(|b| b.freq).sum();
        assert!((mass - 2000.0).abs() < 1e-9);
    }
}
