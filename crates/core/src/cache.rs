//! Cross-query estimator caching: canonical cache keys and the shared
//! cache interface.
//!
//! A [`crate::SelectivityEstimator`] memoizes per-query, but an estimation
//! *service* answers streams of queries against one catalog, and most of
//! the expensive work — per-link conditional factors and SIT-pair join
//! products — recurs across queries. This module defines the contract
//! between the estimator and an externally owned cache (implemented by the
//! `sqe-service` crate):
//!
//! * [`CacheKey`] — a canonicalized fingerprint of a conditional
//!   selectivity request `Sel(P' | Q)` under an [`ErrorMode`];
//! * [`SharedEstimatorCache`] — the read-through/write-through interface
//!   the estimator consults on local-memo misses.
//!
//! ## Validity contract
//!
//! Cached values are raw estimator outputs, so a shared cache is only valid
//! for estimators with an **identical configuration**: same database, same
//! SIT catalogs (1-D and 2-D), and same pruning setting. Join-product and
//! `H3` entries are keyed by [`SitId`], which is only meaningful within one
//! catalog; a cache must therefore never outlive the catalog it was filled
//! against (the service keeps the cache inside its catalog snapshot for
//! exactly this reason). Error modes may share a cache: the mode is part of
//! every key.
//!
//! The estimator's per-query memos are flat tables (see [`crate::flat`]),
//! not `HashMap`s; the hook points are unchanged — the estimator consults
//! this cache exactly when its flat per-link table misses and writes back
//! every freshly computed value — and because cached values are pure
//! functions of their key, the dense engine's different lattice visit
//! order never changes what lands in (or comes out of) a shared cache.

use sqe_engine::Predicate;
use sqe_histogram::Histogram;

use crate::error::ErrorMode;
use crate::predset::{PredSet, QueryContext};
use crate::sit::SitId;

/// Canonical fingerprint of a conditional selectivity request
/// `Sel(P' | Q)` under an error mode.
///
/// Construction canonicalizes both predicate lists (sorted, deduplicated),
/// so any two requests over the same predicate *sets* — regardless of the
/// within-query predicate indexing that produced them — map to the same
/// key. Distinct `(P', Q, mode)` triples map to distinct keys (the keys
/// store the full predicates, not a lossy hash).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    mode: ErrorMode,
    /// `P'` then `Q` in one allocation, each canonicalized. For
    /// sequence-sensitive entries ([`CacheKey::query`]) `P'` instead
    /// preserves the caller's order and `Q` is empty.
    preds: Box<[Predicate]>,
    /// `preds[..split]` is `P'`, `preds[split..]` is `Q`.
    split: usize,
    /// True for order-preserving whole-query keys.
    sequenced: bool,
}

impl CacheKey {
    /// Key for the conditional factor `Sel(preds | cond)` under `mode`.
    pub fn conditional(mode: ErrorMode, preds: &[Predicate], cond: &[Predicate]) -> Self {
        let mut all = canonicalize(preds);
        let split = all.len();
        all.extend(canonicalize(cond));
        CacheKey {
            mode,
            preds: all.into_boxed_slice(),
            split,
            sequenced: false,
        }
    }

    /// Key for the link `Sel(pᵢ | cset)` of one query: equal to
    /// `CacheKey::conditional(mode, &[pᵢ], &ctx.predicates_of(cset))`, but
    /// built in one allocation from the query's presorted predicate order.
    pub(crate) fn link(mode: ErrorMode, ctx: &QueryContext, i: usize, cset: PredSet) -> Self {
        let mut preds = Vec::with_capacity(1 + cset.len());
        preds.push(*ctx.predicate(i));
        let mut last = None;
        for p in ctx.sorted_predicates_of(cset) {
            if last != Some(p) {
                preds.push(*p);
                last = Some(p);
            }
        }
        CacheKey {
            mode,
            preds: preds.into_boxed_slice(),
            split: 1,
            sequenced: false,
        }
    }

    /// Key for a whole-query result, preserving the query's predicate
    /// order.
    ///
    /// Whole-query estimates are *not* invariant under predicate
    /// reordering: the estimator expands multi-predicate factors into an
    /// implicit chain whose link order follows the query's predicate
    /// indexing (Example 3), so permuting the predicates changes the
    /// conditioning sets of intermediate links and hence (legitimately)
    /// the estimate. Sorting here would let one ordering's result answer
    /// for another's; keeping the sequence makes a hit bit-identical to
    /// recomputation.
    pub fn query(mode: ErrorMode, preds: &[Predicate]) -> Self {
        CacheKey {
            mode,
            preds: preds.into(),
            split: preds.len(),
            sequenced: true,
        }
    }

    /// The error mode this key was built under.
    pub fn mode(&self) -> ErrorMode {
        self.mode
    }

    /// True when any predicate of this key (estimated or conditioning)
    /// reads one of `tables`. A key that touches no mutated table is still
    /// valid after a partial catalog install — this is the predicate the
    /// service's cache carry-over filters on.
    pub fn touches(&self, tables: &[sqe_engine::TableId]) -> bool {
        self.preds
            .iter()
            .flat_map(|p| p.tables().iter())
            .any(|t| tables.contains(&t))
    }
}

/// Sorted + deduplicated copy of a predicate list.
fn canonicalize(preds: &[Predicate]) -> Vec<Predicate> {
    let mut v = preds.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// A cache shared by many estimators over one catalog snapshot.
///
/// All methods take `&self`: implementations are internally synchronized
/// (the service implementation shards its state under mutexes). The
/// estimator consults the shared cache *after* its own per-query memo
/// misses and writes every freshly computed value back, so a hot cache
/// converges to answering most link work without any histogram
/// manipulation.
///
/// See the module docs for the validity contract (one cache per estimator
/// configuration and catalog snapshot).
pub trait SharedEstimatorCache: Send + Sync {
    /// Cached `(selectivity, error)` for a conditional factor.
    fn get_link(&self, key: &CacheKey) -> Option<(f64, f64)>;
    /// Stores a conditional factor result.
    fn put_link(&self, key: CacheKey, value: (f64, f64));
    /// Cached join selectivity of a SIT pair.
    fn get_join(&self, pair: (SitId, SitId)) -> Option<f64>;
    /// Stores a SIT-pair join selectivity.
    fn put_join(&self, pair: (SitId, SitId), selectivity: f64);
    /// Cached `H3` result histogram and divergence of a SIT pair (§3.3).
    fn get_h3(&self, pair: (SitId, SitId)) -> Option<(Histogram, f64)>;
    /// Stores a SIT-pair `H3` result.
    fn put_h3(&self, pair: (SitId, SitId), value: (Histogram, f64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqe_engine::{CmpOp, ColRef, TableId};

    fn c(t: u32, col: u16) -> ColRef {
        ColRef::new(TableId(t), col)
    }

    #[test]
    fn conditional_keys_are_order_insensitive() {
        let p1 = Predicate::filter(c(0, 0), CmpOp::Eq, 1);
        let p2 = Predicate::join(c(0, 1), c(1, 0));
        let p3 = Predicate::filter(c(1, 1), CmpOp::Le, 5);
        let a = CacheKey::conditional(ErrorMode::NInd, &[p1], &[p2, p3]);
        let b = CacheKey::conditional(ErrorMode::NInd, &[p1], &[p3, p2]);
        assert_eq!(a, b);
    }

    #[test]
    fn conditional_keys_dedup() {
        let p1 = Predicate::filter(c(0, 0), CmpOp::Eq, 1);
        let p2 = Predicate::join(c(0, 1), c(1, 0));
        let a = CacheKey::conditional(ErrorMode::Diff, &[p1], &[p2, p2]);
        let b = CacheKey::conditional(ErrorMode::Diff, &[p1], &[p2]);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_inputs_make_distinct_keys() {
        let p1 = Predicate::filter(c(0, 0), CmpOp::Eq, 1);
        let p2 = Predicate::join(c(0, 1), c(1, 0));
        let base = CacheKey::conditional(ErrorMode::NInd, &[p1], &[p2]);
        assert_ne!(base, CacheKey::conditional(ErrorMode::Diff, &[p1], &[p2]));
        assert_ne!(base, CacheKey::conditional(ErrorMode::NInd, &[p2], &[p1]));
        assert_ne!(base, CacheKey::conditional(ErrorMode::NInd, &[p1], &[]));
    }

    #[test]
    fn query_keys_preserve_order() {
        let p1 = Predicate::filter(c(0, 0), CmpOp::Eq, 1);
        let p2 = Predicate::join(c(0, 1), c(1, 0));
        assert_ne!(
            CacheKey::query(ErrorMode::NInd, &[p1, p2]),
            CacheKey::query(ErrorMode::NInd, &[p2, p1])
        );
        // And never collide with canonicalized conditional keys.
        assert_ne!(
            CacheKey::query(ErrorMode::NInd, &[p1]),
            CacheKey::conditional(ErrorMode::NInd, &[p1], &[])
        );
    }

    /// Eight predicates over three tables — filters, ranges and joins,
    /// two sharing a column — so sorted order interleaves the kinds.
    fn pool() -> [Predicate; 8] {
        [
            Predicate::filter(c(0, 0), CmpOp::Lt, 5),
            Predicate::filter(c(0, 0), CmpOp::Eq, 5),
            Predicate::range(c(0, 1), 2, 9),
            Predicate::join(c(0, 1), c(1, 0)),
            Predicate::join(c(1, 1), c(2, 0)),
            Predicate::filter(c(2, 1), CmpOp::Eq, 7),
            Predicate::range(c(1, 0), -3, 3),
            Predicate::join(c(2, 0), c(0, 0)),
        ]
    }

    fn context(preds: Vec<Predicate>) -> QueryContext {
        use sqe_engine::table::TableBuilder;
        use sqe_engine::{Database, SpjQuery};
        let mut db = Database::new();
        for t in 0..3 {
            db.add_table(
                TableBuilder::new(format!("t{t}"))
                    .column("a", vec![1, 2, 3])
                    .column("b", vec![4, 5, 6])
                    .build()
                    .unwrap(),
            );
        }
        let q = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
        QueryContext::new(&db, &q)
    }

    proptest::proptest! {
        /// Link keys equal the conditional keys of the same sets, for every
        /// predicate and every conditioning set of queries that may repeat
        /// predicates; and permuting a query's predicates leaves the key of
        /// each (predicate, set) pair unchanged.
        #[test]
        fn link_keys_equal_conditional_keys(
            picks in proptest::collection::vec(0usize..8, 1..8),
            shuffle in proptest::arbitrary::any::<u64>(),
            m in 0u8..3,
        ) {
            let mode = [ErrorMode::NInd, ErrorMode::Diff, ErrorMode::Opt][m as usize];
            let pool = pool();
            let preds: Vec<Predicate> = picks.iter().map(|&j| pool[j]).collect();
            let n = preds.len();
            // Fisher–Yates: position k of the permuted query holds
            // predicate `perm[k]` of the original.
            let mut perm: Vec<usize> = (0..n).collect();
            let mut state = shuffle;
            for k in (1..n).rev() {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                perm.swap(k, (state >> 33) as usize % (k + 1));
            }
            let a = context(preds.clone());
            let b = context(perm.iter().map(|&j| preds[j]).collect());
            for mask in 0..1u32 << n {
                let cset = PredSet(mask);
                let cset_b = PredSet(
                    (0..n).filter(|&k| cset.contains(perm[k])).fold(0, |m, k| m | 1 << k),
                );
                for (i, &p) in preds.iter().enumerate() {
                    let key = CacheKey::link(mode, &a, i, cset);
                    let reference = CacheKey::conditional(mode, &[p], &a.predicates_of(cset));
                    proptest::prop_assert_eq!(&key, &reference);
                }
                for (k, &i) in perm.iter().enumerate() {
                    proptest::prop_assert_eq!(
                        CacheKey::link(mode, &b, k, cset_b),
                        CacheKey::link(mode, &a, i, cset)
                    );
                }
            }
        }
    }
}
