//! Incremental histogram maintenance under row deltas.
//!
//! A histogram built from a column drifts as the column mutates. Rebuilding
//! from scratch on every batch is exact but costs a full scan plus a
//! maxDiff pass; [`merge_delta`] instead folds a batch's value flow
//! (inserted values, deleted values, NULL-count delta) directly into the
//! existing buckets:
//!
//! * an inserted value lands in its covering bucket (`freq += 1`), or
//!   becomes a new singleton bucket when it falls in a gap;
//! * a deleted value drains one row from its covering bucket; emptied
//!   buckets are dropped. Deletes outside every bucket are ignored — for a
//!   histogram tracking the column they summarize, every stored value is
//!   covered, so this only happens when the histogram was already stale;
//! * NULLs move the `null_count` directly.
//!
//! The merged histogram keeps **total mass exact**: after a batch its
//! `total_rows()` equals the true row count. What degrades is *placement* —
//! singleton buckets are exact, but a value merged into a wide bucket
//! spreads its mass over the bucket under the continuous-values
//! assumption, and `distinct` counts are only clamped, not recounted. Each
//! merged op therefore perturbs any range estimate by at most one row,
//! which is the per-op staleness unit the live catalog tracks:
//! an estimate from a merged histogram is within
//! `error(at last rebuild) + ops_merged_since` rows of the truth.
//!
//! When singleton creation pushes the bucket count past `max_buckets`, the
//! two adjacent buckets with the least combined frequency merge until the
//! budget holds — the standard bounded-synopsis compromise (precision,
//! never mass, is what's lost).

use crate::histogram::{Bucket, Histogram};

/// Folds one batch of value changes into `base`, returning the maintained
/// histogram. `null_delta` is the net change to the NULL count; the bucket
/// count is capped at `max_buckets` (at least 1).
pub fn merge_delta(
    base: &Histogram,
    inserted: &[i64],
    deleted: &[i64],
    null_delta: i64,
    max_buckets: usize,
) -> Histogram {
    let mut buckets: Vec<Bucket> = base.buckets().to_vec();
    for &v in inserted {
        match covering(&buckets, v) {
            Ok(i) => buckets[i].freq += 1.0,
            Err(i) => buckets.insert(
                i,
                Bucket {
                    lo: v,
                    hi: v,
                    freq: 1.0,
                    distinct: 1.0,
                },
            ),
        }
    }
    for &v in deleted {
        if let Ok(i) = covering(&buckets, v) {
            let b = &mut buckets[i];
            b.freq = (b.freq - 1.0).max(0.0);
            b.distinct = b.distinct.min(b.freq.max(1.0));
            if b.freq <= 0.0 {
                buckets.remove(i);
            }
        }
    }
    cap_buckets(&mut buckets, max_buckets.max(1));
    let null_count = (base.null_count() + null_delta as f64).max(0.0);
    Histogram::new(buckets, null_count)
}

/// Index of the bucket covering `v` (`Ok`), or the insertion position for a
/// new singleton (`Err`).
fn covering(buckets: &[Bucket], v: i64) -> Result<usize, usize> {
    let i = buckets.partition_point(|b| b.hi < v);
    if i < buckets.len() && buckets[i].lo <= v {
        Ok(i)
    } else {
        Err(i)
    }
}

/// Merges adjacent buckets (least combined frequency first) until at most
/// `max_buckets` remain. Mass-preserving.
fn cap_buckets(buckets: &mut Vec<Bucket>, max_buckets: usize) {
    while buckets.len() > max_buckets {
        let mut best = 0;
        let mut best_mass = f64::INFINITY;
        for i in 0..buckets.len() - 1 {
            let mass = buckets[i].freq + buckets[i + 1].freq;
            if mass < best_mass {
                best_mass = mass;
                best = i;
            }
        }
        let right = buckets.remove(best + 1);
        let left = &mut buckets[best];
        left.hi = right.hi;
        left.freq += right.freq;
        left.distinct += right.distinct;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_exact;

    fn exact(values: &[i64]) -> Histogram {
        build_exact(values, 0)
    }

    #[test]
    fn insert_into_covering_bucket_adds_mass() {
        let h = exact(&[1, 1, 5]);
        let m = merge_delta(&h, &[1, 5, 5], &[], 0, 512);
        assert_eq!(m.eq_rows(1), 3.0);
        assert_eq!(m.eq_rows(5), 3.0);
        assert_eq!(m.total_rows(), 6.0);
    }

    #[test]
    fn insert_in_gap_creates_singleton() {
        let h = exact(&[1, 9]);
        let m = merge_delta(&h, &[4, 4], &[], 0, 512);
        assert_eq!(m.eq_rows(4), 2.0);
        assert_eq!(m.buckets().len(), 3);
        // Bucket order and disjointness must survive (Histogram::new
        // debug-asserts them, but check the lookup too).
        assert_eq!(m.eq_rows(1), 1.0);
        assert_eq!(m.eq_rows(9), 1.0);
    }

    #[test]
    fn delete_drains_and_drops_empty_buckets() {
        let h = exact(&[2, 2, 7]);
        let m = merge_delta(&h, &[], &[7, 2], 0, 512);
        assert_eq!(m.eq_rows(7), 0.0);
        assert_eq!(m.eq_rows(2), 1.0);
        assert_eq!(m.buckets().len(), 1);
        // Deleting a value no bucket covers is a no-op.
        let m2 = merge_delta(&m, &[], &[100], 0, 512);
        assert_eq!(m2.total_rows(), 1.0);
    }

    #[test]
    fn null_delta_moves_null_count() {
        let h = Histogram::new(vec![], 3.0);
        assert_eq!(merge_delta(&h, &[], &[], 2, 512).null_count(), 5.0);
        assert_eq!(merge_delta(&h, &[], &[], -5, 512).null_count(), 0.0);
    }

    #[test]
    fn total_mass_is_exact_under_churn() {
        let h = exact(&[10, 20, 20, 30, 40]);
        let m = merge_delta(&h, &[15, 25, 20], &[10, 40], 0, 512);
        assert_eq!(m.total_rows(), 6.0);
    }

    #[test]
    fn bucket_budget_is_enforced_without_losing_mass() {
        let h = exact(&[0]);
        let inserts: Vec<i64> = (1..100).map(|i| i * 10).collect();
        let m = merge_delta(&h, &inserts, &[], 0, 8);
        assert_eq!(m.buckets().len(), 8);
        assert_eq!(m.total_rows(), 100.0);
    }

    #[test]
    fn empty_base_accumulates_from_scratch() {
        let m = merge_delta(&Histogram::empty(), &[5, 5, 1], &[], 1, 512);
        assert_eq!(m.eq_rows(5), 2.0);
        assert_eq!(m.eq_rows(1), 1.0);
        assert_eq!(m.null_count(), 1.0);
    }
}
