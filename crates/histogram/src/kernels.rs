//! Branchless, autovectorizable estimation kernels.
//!
//! The histogram kernels sit under every peel of the estimator's `O(3ⁿ)`
//! dynamic program, so their per-call constant matters more than anywhere
//! else in the codebase. This module holds the data-independent inner
//! loops:
//!
//! * [`count_lt`] / [`count_le`] — branchless binary searches over a sorted
//!   `i64` slice. Each step narrows the window with
//!   [`core::hint::select_unpredictable`] — the same primitive `std`'s
//!   binary search uses — so the data comparison lowers to a conditional
//!   move instead of a branch and the loop pipelines without branch
//!   mispredictions. (A plain `if`, or `(cond as usize) * half` arithmetic,
//!   measurably does **not** survive codegen as a cmov here: LLVM turns
//!   both back into a data-dependent branch, which mispredicts ~50% per
//!   level on real probes — 5× slower in `kernels_bench`.) The windows are
//!   subslices whose probe index is provably in bounds, so the loads carry
//!   no bounds-check either. Equivalent to `partition_point` bit for bit
//!   (both count elements strictly below / at-or-below `v`).
//! * [`count_lt4`] / [`count_le4`] — four lockstep searches over the same
//!   slice. The probe loop is fixed-width (4 independent selects per
//!   level), so the four probe loads overlap in the pipeline instead of
//!   serializing; lane indices are `min`-clamped to the last element (a
//!   no-op by the loop invariant) so every load is provably in bounds
//!   without `unsafe`. Used when several probes hit one CDF (batched
//!   filter estimation, the kernels microbench).
//! * `join_segments` — the histogram equi-join inner loop as a two-pointer
//!   merge over bucket boundaries, replacing the former
//!   sort + dedup + per-segment binary search. The cut sequence, per-segment
//!   arithmetic, and accumulation order are identical to the reference
//!   ([`crate::histogram::Histogram::join_reference`]), so the result is
//!   bit-identical; only the segment *discovery* cost drops from
//!   `O(s·log b + s·log s)` to `O(s)`.
//!
//! Everything here is portable scalar Rust — no `std::simd`, no
//! target-feature gates — shaped so the autovectorizer can do the widening.
//! Bit-identity against the straightforward implementations is pinned by
//! the tests below and by `cargo run -p sqe-bench --bin kernels_bench`.

use std::hint::select_unpredictable;

use crate::histogram::{span_f64, Bucket};

/// Number of elements of the sorted slice `a` strictly less than `v`.
/// Equivalent to `a.partition_point(|x| *x < v)`.
#[inline]
pub fn count_lt(a: &[i64], v: i64) -> usize {
    let mut base = 0usize;
    let mut s = a;
    while s.len() > 1 {
        // Probe the first element of the upper half (`s[half]` — provably
        // in bounds since `half < s.len()`, so the load is unchecked) and
        // keep whichever half can still contain the partition point. Both
        // candidate windows have length `keep`, and `select_unpredictable`
        // forces the choice into conditional moves: the only branch left
        // is the loop counter, which is data-independent and predicted
        // perfectly.
        let half = s.len() / 2;
        let keep = s.len() - half;
        let (low, high) = (&s[..keep], &s[half..]);
        let go = high[0] < v;
        base += select_unpredictable(go, half, 0);
        s = select_unpredictable(go, high, low);
    }
    base + usize::from(!s.is_empty() && s[0] < v)
}

/// Number of elements of the sorted slice `a` less than or equal to `v`.
/// Equivalent to `a.partition_point(|x| *x <= v)`.
#[inline]
pub fn count_le(a: &[i64], v: i64) -> usize {
    let mut base = 0usize;
    let mut s = a;
    while s.len() > 1 {
        let half = s.len() / 2;
        let keep = s.len() - half;
        let (low, high) = (&s[..keep], &s[half..]);
        let go = high[0] <= v;
        base += select_unpredictable(go, half, 0);
        s = select_unpredictable(go, high, low);
    }
    base + usize::from(!s.is_empty() && s[0] <= v)
}

/// Four [`count_lt`] searches over the same slice, advanced in lockstep:
/// every level issues four independent probe loads and four conditional
/// moves, so the hardware overlaps the four probe chains. Lane indices are
/// `min`-clamped to `a.len() - 1` — a no-op under the loop invariant
/// `base[k] + n <= a.len()`, but it lets the compiler discharge every
/// bounds check without `unsafe`.
#[inline]
pub fn count_lt4(a: &[i64], vs: [i64; 4]) -> [usize; 4] {
    if a.is_empty() {
        return [0; 4];
    }
    let last = a.len() - 1;
    let mut base = [0usize; 4];
    let mut n = a.len();
    while n > 1 {
        let half = n / 2;
        for k in 0..4 {
            let idx = (base[k] + half).min(last);
            base[k] += select_unpredictable(a[idx] < vs[k], half, 0);
        }
        n -= half;
    }
    let mut out = [0usize; 4];
    for k in 0..4 {
        out[k] = base[k] + usize::from(a[base[k].min(last)] < vs[k]);
    }
    out
}

/// Four [`count_le`] searches over the same slice in lockstep.
#[inline]
pub fn count_le4(a: &[i64], vs: [i64; 4]) -> [usize; 4] {
    if a.is_empty() {
        return [0; 4];
    }
    let last = a.len() - 1;
    let mut base = [0usize; 4];
    let mut n = a.len();
    while n > 1 {
        let half = n / 2;
        for k in 0..4 {
            let idx = (base[k] + half).min(last);
            base[k] += select_unpredictable(a[idx] <= vs[k], half, 0);
        }
        n -= half;
    }
    let mut out = [0usize; 4];
    for k in 0..4 {
        out[k] = base[k] + usize::from(a[base[k].min(last)] <= vs[k]);
    }
    out
}

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

    fn lcg(state: &mut u64) -> i64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) as i64
    }

    fn sorted_vals(state: &mut u64, len: usize) -> Vec<i64> {
        let mut v: Vec<i64> = (0..len)
            .map(|_| lcg(state).rem_euclid(1000) - 500)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn branchless_searches_match_partition_point() {
        let mut state = 0xC0FFEE_u64;
        for len in [0usize, 1, 2, 3, 7, 8, 64, 200, 513] {
            let a = sorted_vals(&mut state, len);
            for _ in 0..200 {
                let v = lcg(&mut state).rem_euclid(1200) - 600;
                assert_eq!(
                    count_lt(&a, v),
                    a.partition_point(|x| *x < v),
                    "lt len {len} v {v}"
                );
                assert_eq!(
                    count_le(&a, v),
                    a.partition_point(|x| *x <= v),
                    "le len {len} v {v}"
                );
            }
            // Boundary probes: every element, below-min, above-max.
            for &v in a.iter().chain([i64::MIN, i64::MAX].iter()) {
                assert_eq!(count_lt(&a, v), a.partition_point(|x| *x < v));
                assert_eq!(count_le(&a, v), a.partition_point(|x| *x <= v));
            }
        }
    }

    #[test]
    fn batched_searches_match_scalar_lanes() {
        let mut state = 0xBEEF_u64;
        for len in [0usize, 1, 5, 63, 200] {
            let a = sorted_vals(&mut state, len);
            for _ in 0..100 {
                let vs = [
                    lcg(&mut state).rem_euclid(1200) - 600,
                    lcg(&mut state).rem_euclid(1200) - 600,
                    lcg(&mut state).rem_euclid(1200) - 600,
                    lcg(&mut state).rem_euclid(1200) - 600,
                ];
                let lt = count_lt4(&a, vs);
                let le = count_le4(&a, vs);
                for k in 0..4 {
                    assert_eq!(lt[k], count_lt(&a, vs[k]));
                    assert_eq!(le[k], count_le(&a, vs[k]));
                }
            }
        }
    }

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
