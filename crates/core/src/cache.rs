//! Cross-query estimator caching: the whole-query cache key and the
//! shared cache interface.
//!
//! A [`crate::SelectivityEstimator`] memoizes per-query, but an estimation
//! *service* answers streams of queries against one catalog, and the
//! SIT-pair join products and `H3` histograms beneath its links recur
//! across queries. This module defines the contract between the estimator
//! and an externally owned cache (implemented by the `sqe-service` crate):
//!
//! * [`CacheKey`] — the fingerprint of a whole-query result: the query's
//!   predicate sequence under an [`ErrorMode`];
//! * [`SharedEstimatorCache`] — the read-through/write-through interface
//!   the estimator consults for SIT-pair products on local-memo misses.
//!
//! Links (`Sel(pᵢ | cset)`) are not shared: the estimator recomputes a
//! link from its own warm per-SIT caches faster than a cross-query lookup
//! answers it (EXPERIMENTS.md "Sharing products, not links").
//!
//! ## Validity contract
//!
//! Cached values are raw estimator outputs, so a shared cache is only valid
//! for estimators with an **identical configuration**: same database, same
//! SIT catalogs (1-D and 2-D), and same pruning setting. Join-product and
//! `H3` entries are keyed by [`SitId`], which is only meaningful within one
//! catalog; a cache must therefore never outlive the catalog it was filled
//! against (the service keeps the cache inside its catalog snapshot for
//! exactly this reason). Error modes may share a cache: products do not
//! depend on the mode, and the mode is part of every whole-query key.

use sqe_engine::Predicate;
use sqe_histogram::Histogram;

use crate::error::ErrorMode;
use crate::sit::SitId;

/// Fingerprint of a whole-query result: the error mode and the query's
/// predicates in the caller's order.
///
/// Whole-query estimates are *not* invariant under predicate reordering:
/// the estimator expands multi-predicate factors into an implicit chain
/// whose link order follows the query's predicate indexing (Example 3), so
/// permuting the predicates changes the conditioning sets of intermediate
/// links and hence (legitimately) the estimate. Sorting here would let one
/// ordering's result answer for another's; keeping the sequence makes a
/// hit bit-identical to recomputation. Keys store the full predicates, not
/// a lossy hash, so distinct `(mode, sequence)` pairs never collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    mode: ErrorMode,
    preds: Box<[Predicate]>,
}

impl CacheKey {
    /// Key for a whole-query result, preserving the query's predicate
    /// order.
    pub fn query(mode: ErrorMode, preds: &[Predicate]) -> Self {
        CacheKey {
            mode,
            preds: preds.into(),
        }
    }

    /// The error mode this key was built under.
    pub fn mode(&self) -> ErrorMode {
        self.mode
    }

    /// True when any predicate of this key reads one of `tables`. A key
    /// that touches no mutated table is still valid after a partial catalog
    /// install — this is the predicate the service's cache carry-over
    /// filters on.
    pub fn touches(&self, tables: &[sqe_engine::TableId]) -> bool {
        self.preds
            .iter()
            .flat_map(|p| p.tables().iter())
            .any(|t| tables.contains(&t))
    }
}

/// A cache of SIT-pair products shared by many estimators over one catalog
/// snapshot.
///
/// All methods take `&self`: implementations are internally synchronized
/// (the service implementation shards its state under mutexes). The
/// estimator consults the shared cache *after* its own per-query memo
/// misses and writes every freshly computed product back, so a hot cache
/// converges to answering every histogram join a query needs.
///
/// See the module docs for the validity contract (one cache per estimator
/// configuration and catalog snapshot).
pub trait SharedEstimatorCache: Send + Sync {
    /// Never called: links are not shared (see the module docs). Kept,
    /// with its no-op default, only so that existing wrappers that forward
    /// it still build.
    #[doc(hidden)]
    fn get_link(&self, _key: &CacheKey) -> Option<(f64, f64)> {
        None
    }
    /// Never called; see [`SharedEstimatorCache::get_link`].
    #[doc(hidden)]
    fn put_link(&self, _key: CacheKey, _value: (f64, f64)) {}
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
    fn query_keys_separate_modes_orders_and_lengths() {
        let p1 = Predicate::filter(c(0, 0), CmpOp::Eq, 1);
        let p2 = Predicate::join(c(0, 1), c(1, 0));
        let base = CacheKey::query(ErrorMode::NInd, &[p1, p2]);
        assert_eq!(base, CacheKey::query(ErrorMode::NInd, &[p1, p2]));
        assert_ne!(base, CacheKey::query(ErrorMode::Diff, &[p1, p2]));
        assert_ne!(base, CacheKey::query(ErrorMode::NInd, &[p2, p1]));
        assert_ne!(base, CacheKey::query(ErrorMode::NInd, &[p1]));
        assert_ne!(base, CacheKey::query(ErrorMode::NInd, &[p1, p2, p2]));
    }

    /// Six predicates over three tables — filters, a range and joins, two
    /// on one column.
    fn pool() -> [Predicate; 6] {
        [
            Predicate::filter(c(0, 0), CmpOp::Lt, 5),
            Predicate::filter(c(0, 0), CmpOp::Eq, 5),
            Predicate::range(c(0, 1), 2, 9),
            Predicate::join(c(0, 1), c(1, 0)),
            Predicate::join(c(1, 1), c(2, 0)),
            Predicate::filter(c(2, 1), CmpOp::Eq, 7),
        ]
    }

    proptest::proptest! {
        /// Two whole-query keys are equal exactly when their modes and
        /// predicate sequences are, repeats and order included.
        #[test]
        fn query_keys_are_equal_iff_mode_and_sequence_are(
            a in proptest::collection::vec(0usize..6, 0..6),
            b in proptest::collection::vec(0usize..6, 0..6),
            ma in 0u8..3,
            mb in 0u8..3,
        ) {
            let modes = [ErrorMode::NInd, ErrorMode::Diff, ErrorMode::Opt];
            let pool = pool();
            let seq = |picks: &[usize]| picks.iter().map(|&j| pool[j]).collect::<Vec<_>>();
            let ka = CacheKey::query(modes[ma as usize], &seq(&a));
            let kb = CacheKey::query(modes[mb as usize], &seq(&b));
            proptest::prop_assert_eq!(ka == kb, ma == mb && a == b);
        }
    }
}
