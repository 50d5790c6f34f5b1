//! The sharded bounded cross-query cache behind [`crate::EstimationService`].
//!
//! One [`ShardedCache`] serves every estimator running against a catalog
//! snapshot. Keys are spread across a power-of-two number of shards by
//! hash, each shard a [`parking_lot::Mutex`] around three bounded LRU maps
//! (whole-query results, SIT-pair join selectivities, and `H3` histogram
//! products), so concurrent estimators contend only when their keys land
//! on the same shard. Links are not cached here: an estimator recomputes
//! one faster than a lookup would answer it (see [`sqe_core::cache`]).
//!
//! Each call hashes its key exactly once, with SipHash keyed by the
//! cache's own [`RandomState`]: tenants send predicates over HTTP, and an
//! unkeyed hash would let one tenant aim collisions at a probe run. The
//! hash's high bits pick the shard and its low bits address the map's
//! index, so the keys of one shard still spread over its whole index.
//! Keys are stored and compared in full; a hash match alone never decides
//! a hit. Hit/miss/insert/evict counters are relaxed atomics — they are
//! monitoring data, not synchronization.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use sqe_core::{CacheKey, SharedEstimatorCache, SitId};
use sqe_engine::TableId;
use sqe_histogram::Histogram;

use crate::lru::LruMap;

/// Whole-query results cached by the service itself (not the trait): the
/// final `(selectivity, error)` of an estimate.
pub(crate) type QueryResult = (f64, f64);

/// One shard's maps, all bounded by the same per-shard capacity.
struct Shard {
    /// Whole-query results, keyed by order-preserving query keys.
    queries: LruMap<CacheKey, QueryResult>,
    /// SIT-pair join selectivities.
    joins: LruMap<(SitId, SitId), f64>,
    /// SIT-pair `H3` products: result histogram + divergence.
    h3: LruMap<(SitId, SitId), (Histogram, f64)>,
}

/// A sharded, bounded, internally synchronized estimator cache.
///
/// Implements [`SharedEstimatorCache`] for the estimator's join and `H3`
/// products and additionally caches whole-query results for
/// [`crate::EstimationService::estimate`]. Lives inside a
/// [`crate::CatalogSnapshot`] so its [`SitId`]-keyed entries can never
/// outlive the catalog that defines them.
pub struct ShardedCache {
    shards: Box<[Mutex<Shard>]>,
    /// Fixed, per-instance keyed hasher: one key always maps to one hash.
    hasher: RandomState,
    /// `64 − log₂(shard count)`: the shard is the hash's high bits.
    shift: u32,
    /// Set when a request panicked mid-estimate against this snapshot:
    /// the cache can no longer prove which writes the dying estimator
    /// completed, so every lookup misses and every insert is dropped
    /// until the snapshot is replaced. `parking_lot` mutexes do not
    /// poison, so this flag is the snapshot's poison channel.
    quarantined: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedCache {
    /// A cache of `shards` shards (rounded up to a power of two, at least
    /// one) holding at most `capacity_per_shard` entries in each of its
    /// per-shard maps.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shards = (0..count)
            .map(|_| {
                Mutex::new(Shard {
                    queries: LruMap::new(capacity_per_shard),
                    joins: LruMap::new(capacity_per_shard),
                    h3: LruMap::new(capacity_per_shard),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedCache {
            shards,
            hasher: RandomState::new(),
            shift: 64 - count.trailing_zeros(),
            quarantined: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A fresh cache pre-warmed with every entry of `old` that a partial
    /// catalog install provably keeps valid:
    ///
    /// * whole-query entries survive unless their key
    ///   [`CacheKey::touches`] a mutated table;
    /// * join and `H3` entries survive unless either [`SitId`] of their
    ///   pair is in `stale_sits` — the SITs whose histogram this install
    ///   replaced, whether by full rebuild or incremental merge (a stale
    ///   id names a *new* histogram — its old products are invalid even
    ///   though the id itself is stable).
    ///
    /// A quarantined `old` carries nothing: quarantine means provenance
    /// was lost, and carrying would launder unproven entries into a clean
    /// snapshot. Entries replay cold-to-hot per shard so recency survives;
    /// counters start at zero (they are per-snapshot monitoring state) and
    /// the returned [`CarryStats`] reports the carried/dropped split.
    pub fn carry_from(
        shards: usize,
        capacity_per_shard: usize,
        old: &ShardedCache,
        touched_tables: &[TableId],
        stale_sits: &[SitId],
    ) -> (Self, CarryStats) {
        let new = ShardedCache::new(shards, capacity_per_shard);
        let mut stats = CarryStats::default();
        if old.is_quarantined() {
            stats.dropped = old.len() as u64;
            return (new, stats);
        }
        let pair_stale =
            |pair: &(SitId, SitId)| stale_sits.contains(&pair.0) || stale_sits.contains(&pair.1);
        for shard in old.shards.iter() {
            let shard = shard.lock();
            for (k, v) in shard.queries.iter_lru() {
                if k.touches(touched_tables) {
                    stats.dropped += 1;
                } else {
                    let (hash, to) = new.locate(k);
                    to.lock().queries.insert(hash, k.clone(), *v);
                    stats.carried += 1;
                }
            }
            for (k, v) in shard.joins.iter_lru() {
                if pair_stale(k) {
                    stats.dropped += 1;
                } else {
                    let (hash, to) = new.locate(k);
                    to.lock().joins.insert(hash, *k, *v);
                    stats.carried += 1;
                }
            }
            for (k, v) in shard.h3.iter_lru() {
                if pair_stale(k) {
                    stats.dropped += 1;
                } else {
                    let (hash, to) = new.locate(k);
                    to.lock().h3.insert(hash, *k, v.clone());
                    stats.carried += 1;
                }
            }
        }
        (new, stats)
    }

    /// Total live entries across all shards and maps.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.queries.len() + s.joins.len() + s.h3.len()
            })
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time hit/miss/insert/evict counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Poisons the whole cache after a panic escaped an estimator using
    /// it. Irreversible for this snapshot; the service installs a fresh
    /// snapshot (same catalogs, cold cache) to recover.
    pub fn quarantine(&self) {
        self.quarantined.store(true, Ordering::Release);
    }

    /// Whether [`ShardedCache::quarantine`] has fired.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// The key's one hash and the shard it picks. `checked_shr` covers
    /// the single shard, a shift by 64.
    fn locate<K: Hash>(&self, key: &K) -> (u64, &Mutex<Shard>) {
        let hash = self.hasher.hash_one(key);
        let shard = hash.checked_shr(self.shift).unwrap_or(0) as usize;
        (hash, &self.shards[shard])
    }

    fn record<T>(&self, found: &Option<T>) {
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_insert(&self, evicted: bool) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cached whole-query result, if any.
    pub(crate) fn get_query(&self, key: &CacheKey) -> Option<QueryResult> {
        if self.is_quarantined() {
            return None;
        }
        let (hash, shard) = self.locate(key);
        let found = shard.lock().queries.get(hash, key).copied();
        self.record(&found);
        found
    }

    /// Stores a whole-query result.
    pub(crate) fn put_query(&self, key: CacheKey, value: QueryResult) {
        sqe_core::failpoint::fire("service::cache_insert");
        if self.is_quarantined() {
            return;
        }
        let (hash, shard) = self.locate(&key);
        let evicted = shard.lock().queries.insert(hash, key, value);
        self.record_insert(evicted);
    }
}

impl SharedEstimatorCache for ShardedCache {
    fn get_join(&self, pair: (SitId, SitId)) -> Option<f64> {
        if self.is_quarantined() {
            return None;
        }
        let (hash, shard) = self.locate(&pair);
        let found = shard.lock().joins.get(hash, &pair).copied();
        self.record(&found);
        found
    }

    fn put_join(&self, pair: (SitId, SitId), selectivity: f64) {
        if self.is_quarantined() {
            return;
        }
        let (hash, shard) = self.locate(&pair);
        let evicted = shard.lock().joins.insert(hash, pair, selectivity);
        self.record_insert(evicted);
    }

    fn get_h3(&self, pair: (SitId, SitId)) -> Option<(Histogram, f64)> {
        if self.is_quarantined() {
            return None;
        }
        let (hash, shard) = self.locate(&pair);
        let found = shard.lock().h3.get(hash, &pair).cloned();
        self.record(&found);
        found
    }

    fn put_h3(&self, pair: (SitId, SitId), value: (Histogram, f64)) {
        if self.is_quarantined() {
            return;
        }
        let (hash, shard) = self.locate(&pair);
        let evicted = shard.lock().h3.insert(hash, pair, value);
        self.record_insert(evicted);
    }
}

/// What a [`ShardedCache::carry_from`] kept and shed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CarryStats {
    /// Entries carried into the new cache.
    pub carried: u64,
    /// Entries invalidated by the install.
    pub dropped: u64,
}

/// Point-in-time cache counters (monotone, process lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values written (fresh or overwriting).
    pub insertions: u64,
    /// Entries displaced by a bounded map at capacity.
    pub evictions: u64,
}

impl CacheCounters {
    /// Hits as a fraction of lookups; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqe_core::ErrorMode;
    use sqe_engine::{CmpOp, ColRef, Predicate, TableId};

    fn key(i: i64) -> CacheKey {
        let p = Predicate::filter(ColRef::new(TableId(0), 0), CmpOp::Eq, i);
        CacheKey::query(ErrorMode::NInd, &[p])
    }

    #[test]
    fn round_trips_queries_joins_and_h3() {
        let cache = ShardedCache::new(4, 64);
        let k = key(1);
        assert_eq!(cache.get_query(&k), None);
        cache.put_query(k.clone(), (0.25, 0.5));
        assert_eq!(cache.get_query(&k), Some((0.25, 0.5)));

        let pair = (SitId(3), SitId(7));
        assert_eq!(cache.get_join(pair), None);
        cache.put_join(pair, 0.125);
        assert_eq!(cache.get_join(pair), Some(0.125));

        assert!(cache.get_h3(pair).is_none());
        cache.put_h3(pair, (Histogram::default(), 0.75));
        assert_eq!(cache.get_h3(pair).unwrap().1, 0.75);
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(ShardedCache::new(0, 8).shard_count(), 1);
        assert_eq!(ShardedCache::new(5, 8).shard_count(), 8);
        assert_eq!(ShardedCache::new(8, 8).shard_count(), 8);
    }

    #[test]
    fn counters_track_hits_misses_and_evictions() {
        let cache = ShardedCache::new(1, 2);
        assert_eq!(cache.get_query(&key(1)), None);
        cache.put_query(key(1), (0.1, 0.0));
        cache.put_query(key(2), (0.2, 0.0));
        cache.put_query(key(3), (0.3, 0.0)); // evicts key(1) from the single shard
        assert_eq!(cache.get_query(&key(1)), None);
        assert_eq!(cache.get_query(&key(3)), Some((0.3, 0.0)));
        let c = cache.counters();
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 2);
        assert_eq!(c.insertions, 3);
        assert_eq!(c.evictions, 1);
        assert!((c.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn carry_from_filters_by_touched_tables_and_refreshed_sits() {
        let old = ShardedCache::new(2, 64);
        let t0 = |i| {
            let p = Predicate::filter(ColRef::new(TableId(0), 0), CmpOp::Eq, i);
            CacheKey::query(ErrorMode::NInd, &[p])
        };
        let t1 = |i| {
            let p = Predicate::filter(ColRef::new(TableId(1), 0), CmpOp::Eq, i);
            CacheKey::query(ErrorMode::NInd, &[p])
        };
        old.put_query(t0(1), (0.1, 0.0));
        old.put_query(t1(1), (0.2, 0.0));
        old.put_query(t1(2), (0.3, 0.0));
        old.put_join((SitId(0), SitId(1)), 0.5);
        old.put_join((SitId(2), SitId(3)), 0.6);
        old.put_h3((SitId(0), SitId(2)), (Histogram::default(), 0.7));

        let (new, stats) = ShardedCache::carry_from(
            2,
            64,
            &old,
            &[TableId(0)], // table 0 mutated
            &[SitId(0)],   // SIT 0 refreshed
        );
        // t0 query dropped; SIT-0 join and h3 dropped.
        assert_eq!(stats.carried, 3);
        assert_eq!(stats.dropped, 3);
        assert_eq!(new.get_query(&t0(1)), None);
        assert_eq!(new.get_query(&t1(1)), Some((0.2, 0.0)));
        assert_eq!(new.get_query(&t1(2)), Some((0.3, 0.0)));
        assert_eq!(new.get_join((SitId(0), SitId(1))), None);
        assert_eq!(new.get_join((SitId(2), SitId(3))), Some(0.6));
        assert!(new.get_h3((SitId(0), SitId(2))).is_none());
    }

    #[test]
    fn carry_from_a_quarantined_cache_carries_nothing() {
        let old = ShardedCache::new(1, 8);
        old.put_query(key(1), (0.1, 0.0));
        old.quarantine();
        let (new, stats) = ShardedCache::carry_from(1, 8, &old, &[], &[]);
        assert_eq!(stats.carried, 0);
        assert_eq!(stats.dropped, 1);
        assert!(new.is_empty());
        assert!(!new.is_quarantined());
    }

    #[test]
    fn concurrent_writers_and_readers_agree() {
        let cache = ShardedCache::new(8, 1024);
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..200 {
                        let k = key(t * 1000 + i);
                        cache.put_query(k.clone(), (i as f64, t as f64));
                        assert_eq!(cache.get_query(&k), Some((i as f64, t as f64)));
                    }
                });
            }
        });
        assert_eq!(cache.counters().insertions, 1600);
    }
}
