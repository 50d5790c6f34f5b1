//! The histogram equi-join kernel.
//!
//! `join_segments` is the histogram equi-join inner loop as a two-pointer
//! merge over bucket boundaries, replacing the former sort + dedup +
//! per-segment binary search. The cut sequence, per-segment arithmetic,
//! and accumulation order are identical to the reference
//! ([`crate::histogram::Histogram::join_reference`]), so the result is
//! bit-identical; only the segment *discovery* cost drops from
//! `O(s·log b + s·log s)` to `O(s)`. Bit-identity is pinned by the tests
//! below, by `histogram.rs`'s property test and by
//! `cargo run -p sqe-bench --bin kernels_bench`.
//!
//! The bound searches under `range_rows`/`eq_rows` are `std`'s
//! `slice::partition_point` over the histogram's structure-of-arrays bound
//! columns: it already lowers to the branchless conditional-move loop a
//! hand-written search would (DESIGN.md §4h).

use crate::histogram::{span_f64, Bucket};

/// The next boundary event of one side of the merge: entering bucket `i`
/// (its `lo`) when outside, leaving it (`hi + 1`, saturated exactly like
/// the reference's cut list) when inside. `None` once the side is
/// exhausted.
#[inline]
fn next_cut(buckets: &[Bucket], i: usize, inside: bool) -> Option<i64> {
    let b = buckets.get(i)?;
    Some(if inside { b.hi.saturating_add(1) } else { b.lo })
}

/// Frequency and distinct mass one side contributes to the segment
/// `[lo, hi]`, given the merge state. Same arithmetic as the reference
/// `segment_mass`, with the overlapping bucket known from the pointer
/// instead of re-found by binary search.
#[inline]
fn side_mass(buckets: &[Bucket], i: usize, inside: bool, lo: i64, hi: i64) -> (f64, f64) {
    if !inside {
        return (0.0, 0.0);
    }
    let b = &buckets[i];
    let frac = b.overlap_fraction(lo, hi);
    (b.freq * frac, (b.distinct * frac).min(span_f64(lo, hi)))
}

/// Advances one side of the merge past the cut it just emitted. Leaving a
/// bucket whose successor starts exactly at the cut enters the successor
/// immediately — that shared boundary appears once in the reference's
/// deduplicated cut list, so it must be consumed in a single step here too.
#[inline]
fn advance(buckets: &[Bucket], i: &mut usize, inside: &mut bool, cut: i64) {
    if *inside {
        *i += 1;
        *inside = buckets.get(*i).is_some_and(|b| b.lo == cut);
    } else {
        *inside = true;
    }
}

/// Histogram equi-join inner loop: walks the union of both sides' bucket
/// boundaries with two cursors, evaluating each aligned segment in
/// ascending order. Returns the output buckets (unmerged) and the total
/// output rows, both bit-identical to the reference path.
pub(crate) fn join_segments(a: &[Bucket], b: &[Bucket]) -> (Vec<Bucket>, f64) {
    let mut out: Vec<Bucket> = Vec::new();
    let mut out_rows = 0.0f64;
    let (mut ia, mut ib) = (0usize, 0usize);
    let (mut ina, mut inb) = (false, false);
    let mut prev: Option<i64> = None;
    loop {
        let ca = next_cut(a, ia, ina);
        let cb = next_cut(b, ib, inb);
        let cut = match (ca, cb) {
            (None, None) => break,
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (Some(x), Some(y)) => x.min(y),
        };
        if let Some(lo) = prev {
            let hi = cut - 1;
            if lo <= hi {
                let (f1, d1) = side_mass(a, ia, ina, lo, hi);
                let (f2, d2) = side_mass(b, ib, inb, lo, hi);
                if f1 > 0.0 && f2 > 0.0 && d1 > 0.0 && d2 > 0.0 {
                    let matching = d1.min(d2);
                    let rows = matching * (f1 / d1) * (f2 / d2);
                    if rows > 0.0 {
                        out_rows += rows;
                        out.push(Bucket {
                            lo,
                            hi,
                            freq: rows,
                            distinct: matching,
                        });
                    }
                }
            }
        }
        if ca == Some(cut) {
            advance(a, &mut ia, &mut ina, cut);
        }
        if cb == Some(cut) {
            advance(b, &mut ib, &mut inb, cut);
        }
        prev = Some(cut);
    }
    (out, out_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_handles_adjacent_buckets_as_one_cut() {
        // Two adjacent buckets on one side share the boundary 10: the merge
        // must leave bucket 0 and enter bucket 1 in a single step, exactly
        // like the deduplicated cut list of the reference.
        let a = vec![
            Bucket {
                lo: 0,
                hi: 9,
                freq: 10.0,
                distinct: 10.0,
            },
            Bucket {
                lo: 10,
                hi: 19,
                freq: 20.0,
                distinct: 10.0,
            },
        ];
        let b = vec![Bucket {
            lo: 0,
            hi: 19,
            freq: 40.0,
            distinct: 20.0,
        }];
        let (segs, rows) = join_segments(&a, &b);
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].lo, segs[0].hi), (0, 9));
        assert_eq!((segs[1].lo, segs[1].hi), (10, 19));
        // Segment [0,9]: d = min(10, 10) = 10, rows = 10·(10/10)·(20/10) = 20.
        // Segment [10,19]: rows = 10·(20/10)·(20/10) = 40.
        assert!((rows - 60.0).abs() < 1e-9);
    }

    #[test]
    fn merge_handles_disjoint_and_gapped_sides() {
        let a = vec![Bucket {
            lo: 0,
            hi: 4,
            freq: 5.0,
            distinct: 5.0,
        }];
        let b = vec![Bucket {
            lo: 10,
            hi: 14,
            freq: 5.0,
            distinct: 5.0,
        }];
        let (segs, rows) = join_segments(&a, &b);
        assert!(segs.is_empty());
        assert_eq!(rows, 0.0);
    }
}
