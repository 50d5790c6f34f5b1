//! A bounded LRU map over caller-supplied hashes.
//!
//! Hand-rolled (no external `lru` crate in this workspace): a slab of
//! entries threaded on an intrusive doubly-linked recency list, indexed by
//! an open-addressed table of `(slot, tag)` buckets with linear probing.
//! The caller hashes each key once and passes that hash to every call, so
//! a lookup is one probe sequence: buckets whose tag differs are skipped
//! without touching the slab, and keys are compared in full only on a tag
//! match. Eviction removes the coldest entry's bucket by backward-shift
//! deletion, so the index never holds tombstones. All operations are O(1)
//! expected, and recency order is exact.
//!
//! The index is addressed by the hash's low bits. A caller that routes
//! keys to several maps by hash must route on other bits, or every key of
//! one map lands in one range of its index.

/// Marks an empty bucket and the ends of the recency list.
const NIL: u32 = u32::MAX;

/// Largest capacity honoured: the index, at most half full, must stay
/// addressable by a 32-bit tag.
const MAX_CAPACITY: usize = 1 << 31;

/// One index bucket: a slab slot (or [`NIL`]) and the low 32 bits of its
/// key's hash, which also give the bucket's home position.
#[derive(Clone, Copy)]
struct Bucket {
    slot: u32,
    tag: u32,
}

const VACANT: Bucket = Bucket { slot: NIL, tag: 0 };

struct Entry<K, V> {
    key: K,
    value: V,
    /// The tag of the entry's bucket, to find it again on eviction.
    tag: u32,
    prev: u32,
    next: u32,
}

/// A bounded map evicting its least-recently-used entry on overflow.
///
/// Every call takes the key's hash, which must be a function of the key
/// alone.
pub(crate) struct LruMap<K, V> {
    /// A power-of-two number of buckets, at most half of them full; empty
    /// until the first insertion.
    index: Box<[Bucket]>,
    /// Entries in insertion order of their slot; an eviction reuses the
    /// evicted slot, so the slab never has holes.
    slab: Vec<Entry<K, V>>,
    /// Most recently used.
    head: u32,
    /// Least recently used.
    tail: u32,
    capacity: usize,
}

impl<K: Eq, V> LruMap<K, V> {
    /// An empty map evicting beyond `capacity` entries (capacity 0 caches
    /// nothing; capacities above 2³¹ are clamped to it).
    pub(crate) fn new(capacity: usize) -> Self {
        LruMap {
            index: Box::new([]),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.min(MAX_CAPACITY),
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    /// Looks up `key`, marking it most recently used.
    pub(crate) fn get(&mut self, hash: u64, key: &K) -> Option<&V> {
        let slot = self.find(hash, key)?;
        self.touch(slot);
        Some(&self.slab[slot as usize].value)
    }

    /// Inserts or updates `key`, marking it most recently used. Returns
    /// true when the insertion evicted a colder entry.
    pub(crate) fn insert(&mut self, hash: u64, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(slot) = self.find(hash, &key) {
            self.slab[slot as usize].value = value;
            self.touch(slot);
            return false;
        }
        let tag = hash as u32;
        let entry = Entry {
            key,
            value,
            tag,
            prev: NIL,
            next: NIL,
        };
        let evicted = self.slab.len() == self.capacity;
        let slot = if evicted {
            let lru = self.tail;
            self.unindex(lru);
            self.detach(lru);
            self.slab[lru as usize] = entry;
            lru
        } else {
            if 2 * (self.slab.len() + 1) > self.index.len() {
                self.grow();
            }
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        };
        place(&mut self.index, slot, tag);
        self.push_front(slot);
        evicted
    }

    /// Iterates entries from least to most recently used (cold to hot),
    /// without disturbing recency. Re-inserting into a fresh map in this
    /// order reproduces the recency ordering — the cache carry-over of a
    /// partial snapshot install walks it.
    pub(crate) fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut at = self.tail;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let e = &self.slab[at as usize];
            at = e.prev;
            Some((&e.key, &e.value))
        })
    }

    /// The slot holding `key`, probing from its home bucket to the first
    /// empty one (there always is one: the index is at most half full).
    fn find(&self, hash: u64, key: &K) -> Option<u32> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let tag = hash as u32;
        let mut pos = tag as usize & mask;
        loop {
            let b = self.index[pos];
            if b.slot == NIL {
                return None;
            }
            if b.tag == tag && self.slab[b.slot as usize].key == *key {
                return Some(b.slot);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Doubles the index (at least 8 buckets) and re-places every entry
    /// from its stored tag; no key is hashed again.
    fn grow(&mut self) {
        let buckets = (2 * self.index.len()).max(8);
        self.index = vec![VACANT; buckets].into_boxed_slice();
        for (slot, e) in self.slab.iter().enumerate() {
            place(&mut self.index, slot as u32, e.tag);
        }
    }

    /// Removes `slot`'s bucket by backward-shift deletion: every later
    /// bucket of the probe run that may legally sit in the hole moves
    /// back into it, so later probes never need a tombstone to continue.
    fn unindex(&mut self, slot: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.slab[slot as usize].tag as usize & mask;
        while self.index[hole].slot != slot {
            hole = (hole + 1) & mask;
        }
        let mut next = (hole + 1) & mask;
        while self.index[next].slot != NIL {
            let b = self.index[next];
            let home = b.tag as usize & mask;
            // `b` may move back only while the hole stays inside its probe
            // run, i.e. cyclically in `[home, next)`.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.index[hole] = b;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.index[hole] = VACANT;
    }

    /// Marks `slot` as the most recently used.
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.detach(slot);
            self.push_front(slot);
        }
    }

    /// Unlinks `slot` from the recency list.
    fn detach(&mut self, slot: u32) {
        let e = &self.slab[slot as usize];
        let (prev, next) = (e.prev, e.next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next as usize].prev = prev;
        }
    }

    /// Links `slot` as the most recently used.
    fn push_front(&mut self, slot: u32) {
        let e = &mut self.slab[slot as usize];
        e.prev = NIL;
        e.next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// Puts `(slot, tag)` into the first empty bucket from the tag's home.
fn place(index: &mut [Bucket], slot: u32, tag: u32) {
    let mask = index.len() - 1;
    let mut pos = tag as usize & mask;
    while index[pos].slot != NIL {
        pos = (pos + 1) & mask;
    }
    index[pos] = Bucket { slot, tag };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in for the cache's keyed hash: any function of the key.
    fn h(key: i32) -> u64 {
        (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn get<V: Copy>(m: &mut LruMap<i32, V>, key: i32) -> Option<V> {
        m.get(h(key), &key).copied()
    }

    fn insert<V>(m: &mut LruMap<i32, V>, key: i32, value: V) -> bool {
        m.insert(h(key), key, value)
    }

    /// Keys from most to least recently used (test-only walk).
    fn recency<K: Copy, V>(m: &LruMap<K, V>) -> Vec<K> {
        let mut out = Vec::new();
        let mut at = m.head;
        while at != NIL {
            out.push(m.slab[at as usize].key);
            at = m.slab[at as usize].next;
        }
        out
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut m = LruMap::new(2);
        assert!(!insert(&mut m, 1, "a"));
        assert!(!insert(&mut m, 2, "b"));
        assert_eq!(get(&mut m, 1), Some("a")); // 1 now hot, 2 cold
        assert!(insert(&mut m, 3, "c"), "third insert evicts");
        assert_eq!(get(&mut m, 2), None, "cold entry evicted");
        assert_eq!(get(&mut m, 1), Some("a"));
        assert_eq!(get(&mut m, 3), Some("c"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn update_refreshes_without_evicting() {
        let mut m = LruMap::new(2);
        insert(&mut m, 1, 10);
        insert(&mut m, 2, 20);
        assert!(!insert(&mut m, 1, 11), "update is not an eviction");
        assert_eq!(recency(&m), vec![1, 2]);
        assert_eq!(get(&mut m, 1), Some(11));
    }

    #[test]
    fn capacity_zero_caches_nothing() {
        let mut m = LruMap::new(0);
        assert!(!insert(&mut m, 1, "a"));
        assert_eq!(get(&mut m, 1), None);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let mut m = LruMap::new(3);
        for i in 0..100 {
            insert(&mut m, i, i * 2);
        }
        assert_eq!(m.len(), 3);
        assert!(m.slab.len() <= 4, "slab must not grow unboundedly");
        assert_eq!(get(&mut m, 99), Some(198));
        assert_eq!(get(&mut m, 97), Some(194));
        assert_eq!(get(&mut m, 0), None);
    }

    #[test]
    fn iter_lru_walks_cold_to_hot() {
        let mut m = LruMap::new(4);
        for i in 0..4 {
            insert(&mut m, i, i * 10);
        }
        get(&mut m, 1);
        let cold_to_hot: Vec<i32> = m.iter_lru().map(|(k, _)| *k).collect();
        assert_eq!(cold_to_hot, vec![0, 2, 3, 1]);
        // Replaying into a fresh map preserves recency.
        let mut n = LruMap::new(4);
        for (k, v) in m.iter_lru() {
            insert(&mut n, *k, *v);
        }
        assert_eq!(recency(&n), recency(&m));
    }

    #[test]
    fn recency_order_tracks_access_pattern() {
        let mut m = LruMap::new(4);
        for i in 0..4 {
            insert(&mut m, i, ());
        }
        assert_eq!(recency(&m), vec![3, 2, 1, 0]);
        get(&mut m, 0);
        get(&mut m, 2);
        assert_eq!(recency(&m), vec![2, 0, 3, 1]);
    }

    /// The obviously correct LRU: entries cold to hot in a `Vec`.
    struct NaiveLru {
        entries: Vec<(u8, u32)>,
        capacity: usize,
    }

    impl NaiveLru {
        fn get(&mut self, key: u8) -> Option<u32> {
            let at = self.entries.iter().position(|e| e.0 == key)?;
            let e = self.entries.remove(at);
            self.entries.push(e);
            Some(e.1)
        }

        fn insert(&mut self, key: u8, value: u32) -> bool {
            if self.capacity == 0 {
                return false;
            }
            if let Some(at) = self.entries.iter().position(|e| e.0 == key) {
                self.entries.remove(at);
                self.entries.push((key, value));
                return false;
            }
            let evicted = self.entries.len() == self.capacity;
            if evicted {
                self.entries.remove(0);
            }
            self.entries.push((key, value));
            evicted
        }
    }

    /// splitmix64: a seeded stream for the model test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Random `get`/`insert` sequences agree with [`NaiveLru`] after every
    /// step. Half the runs keep only 2–3 bits of each key's hash, shifted
    /// so that some homes sit at the index's end: tags then collide, probe
    /// runs grow long and wrap around, and eviction shifts buckets back
    /// across them.
    #[test]
    fn matches_a_naive_lru_under_random_traffic() {
        let mut rng = 0x1_2345_6789u64;
        for run in 0..2_000 {
            let capacity = 1 + (next(&mut rng) % 16) as usize;
            let key_space = 2 + (next(&mut rng) % 40) as u8;
            let collide = run % 2 == 1;
            let bits = 2 + next(&mut rng) % 2;
            let shift = next(&mut rng) % 8;
            let hash = |k: u8| {
                let full = (k as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x5555;
                if collide {
                    (full & ((1 << bits) - 1)).wrapping_sub(shift)
                } else {
                    full
                }
            };
            let mut map = LruMap::new(capacity);
            let mut naive = NaiveLru {
                entries: Vec::new(),
                capacity,
            };
            for step in 0..200u32 {
                let key = (next(&mut rng) % key_space as u64) as u8;
                if next(&mut rng).is_multiple_of(2) {
                    let got = map.get(hash(key), &key).copied();
                    assert_eq!(got, naive.get(key), "run {run} step {step}: get {key}");
                } else {
                    let evicted = map.insert(hash(key), key, step);
                    assert_eq!(
                        evicted,
                        naive.insert(key, step),
                        "run {run} step {step}: insert {key}"
                    );
                }
                assert_eq!(map.len(), naive.entries.len(), "run {run} step {step}");
                let order: Vec<(u8, u32)> = map.iter_lru().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(order, naive.entries, "run {run} step {step}");
                let mut cold_to_hot = recency(&map);
                cold_to_hot.reverse();
                assert!(cold_to_hot.iter().eq(order.iter().map(|e| &e.0)));
            }
        }
    }
}
