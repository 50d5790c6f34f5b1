//! Flat-table memoization for the subset-lattice dynamic program.
//!
//! `getSelectivity` touches up to `3ⁿ` `(P′, Q)` pairs and `n·2ⁿ` peel
//! links per query; at that visit rate the per-probe cost of a
//! `std::collections::HashMap` (SipHash, tombstone-aware probing, pointer
//! chasing) dominates the arithmetic. This module provides the two
//! allocation-light replacements the estimator's hot path runs on:
//!
//! * [`DenseMemo`] — a `Vec<(f64, f64)>` indexed **directly** by slot
//!   number, with a validity bitmap. A probe is one bit test plus one
//!   indexed load. The subset memo of every exact estimate (`n ≤ 20`),
//!   indexed by the [`crate::predset::PredSet`] mask, and the dense
//!   layout of [`PeelMemo`].
//! * [`FlatMemo`] — an open-addressed, linear-probing table keyed by `u64`
//!   with Fibonacci hashing. The subset memo of the beam engine, which
//!   visits a sparse set of states at any `n`, and the sparse layout
//!   behind [`PeelMemo`].
//! * [`PeelMemo`] — the per-link memo keyed by `(predicate, conditioning
//!   set)`. The `3ⁿ` subset walk probes it ~5 times per iteration (hundreds
//!   of millions of probes at `n = 16`), so when the dense engine runs at
//!   `n ≤ 16` it uses a **dense** `n·2ⁿ` layout whose probe is a shift, a
//!   bit test, and one indexed load — no hashing, no probing chain. Wider
//!   dense fills (`n = 17–20`, where the layout would cost up to 320 MiB)
//!   and the beam use the open-addressed layout.
//!
//! All tables report `len()` as **occupied entries**, never capacity, so
//! [`crate::EstimatorStats`] stays meaningful across table layouts.

/// Key sentinel for empty [`FlatMemo`] slots. Estimator keys never collide
/// with it: subset masks fit in 32 bits and peel keys are
/// `(i << 32) | cset` with `i < 32`.
const EMPTY_KEY: u64 = u64::MAX;

/// Minimum open-addressed capacity (power of two).
const MIN_CAPACITY: usize = 64;

/// Dense memo table: values indexed directly by a slot number, plus a
/// validity bitmap. The subset memo indexes it by predicate-set mask
/// (`2ⁿ` slots); [`PeelMemo::Dense`] by `(i << n) | cset` (`n · 2ⁿ`
/// slots). The value table is allocated on the first [`DenseMemo::set`]:
/// an allocator that has freed a large block before hands the next one
/// out of its heap and must zero it (16 MiB for the peel table at
/// `n = 16`), so an estimator built and dropped unused costs only the
/// bitmap.
#[derive(Debug, Clone)]
pub struct DenseMemo {
    vals: Vec<(f64, f64)>,
    valid: Vec<u64>,
    occupied: usize,
}

impl DenseMemo {
    /// A table of `slots` entries.
    pub fn new(slots: usize) -> Self {
        DenseMemo {
            vals: Vec::new(),
            valid: vec![0u64; slots.div_ceil(64)],
            occupied: 0,
        }
    }

    /// The memoized value in slot `idx`, if computed.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<(f64, f64)> {
        if self.valid[idx >> 6] & (1u64 << (idx & 63)) != 0 {
            Some(self.vals[idx])
        } else {
            None
        }
    }

    /// Stores the value in slot `idx`.
    #[inline]
    pub fn set(&mut self, idx: usize, value: (f64, f64)) {
        if self.vals.is_empty() {
            self.vals = vec![(0.0, 0.0); self.valid.len() * 64];
        }
        let bit = 1u64 << (idx & 63);
        if self.valid[idx >> 6] & bit == 0 {
            self.valid[idx >> 6] |= bit;
            self.occupied += 1;
        }
        self.vals[idx] = value;
    }

    /// Number of **occupied** slots, not capacity.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }
}

/// Open-addressed flat hash table from `u64` keys to `(f64, f64)` values:
/// Fibonacci hashing, linear probing, growth at 7/8 load. No deletion —
/// memo tables only ever grow within one query.
#[derive(Debug, Clone)]
pub struct FlatMemo {
    keys: Vec<u64>,
    vals: Vec<(f64, f64)>,
    len: usize,
}

impl FlatMemo {
    /// An empty table (small initial capacity, grows on demand).
    pub fn new() -> Self {
        FlatMemo {
            keys: vec![EMPTY_KEY; MIN_CAPACITY],
            vals: vec![(0.0, 0.0); MIN_CAPACITY],
            len: 0,
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply by 2⁶⁴/φ, take the top bits.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<(f64, f64)> {
        debug_assert_ne!(key, EMPTY_KEY);
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts (or overwrites) `key`.
    pub fn insert(&mut self, key: u64, value: (f64, f64)) {
        debug_assert_ne!(key, EMPTY_KEY);
        if (self.len + 1) * 8 >= self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY_KEY {
                self.keys[i] = key;
                self.vals[i] = value;
                self.len += 1;
                return;
            }
            if k == key {
                self.vals[i] = value;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![(0.0, 0.0); new_cap]);
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                self.insert(k, v);
            }
        }
    }

    /// Number of **occupied** slots, not capacity.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for FlatMemo {
    fn default() -> Self {
        FlatMemo::new()
    }
}

/// The peel-memo key `(predicate index, conditioning-set mask)` packed into
/// one `u64`.
#[inline]
pub fn peel_key(i: usize, cset: u32) -> u64 {
    ((i as u64) << 32) | cset as u64
}

/// The per-link peel memo, in whichever layout fits the query: dense
/// direct-indexed slots when the dense engine runs at `n ≤ 16`,
/// open-addressed otherwise. Both layouts are keyed by the same packed
/// [`peel_key`], so every call site is layout-oblivious.
#[derive(Debug, Clone)]
pub enum PeelMemo {
    /// Direct-indexed `n·2ⁿ` table over an `n`-predicate query, slot
    /// `(i << n) | cset` (the subset walk's probe becomes a shift + bit
    /// test + load).
    Dense { n: u32, table: DenseMemo },
    /// Open-addressed fallback (the beam engine, or `n` past the dense
    /// peel cap where `n·2ⁿ` slots cost real memory).
    Sparse(FlatMemo),
}

impl PeelMemo {
    /// An empty sparse table.
    pub fn sparse() -> Self {
        PeelMemo::Sparse(FlatMemo::new())
    }

    /// An empty dense table for an `n`-predicate query.
    pub fn dense(n: usize) -> Self {
        PeelMemo::Dense {
            n: n as u32,
            table: DenseMemo::new(n.max(1) << n),
        }
    }

    /// The dense slot of a packed [`peel_key`]: `(i << n) | cset`.
    #[inline]
    fn slot(n: u32, key: u64) -> usize {
        (((key >> 32) as usize) << n) | (key as u32 as usize)
    }

    /// The memoized value under `key`, if computed.
    #[inline]
    pub fn get(&self, key: u64) -> Option<(f64, f64)> {
        match self {
            PeelMemo::Dense { n, table } => table.get(Self::slot(*n, key)),
            PeelMemo::Sparse(s) => s.get(key),
        }
    }

    /// Stores the value under `key`.
    #[inline]
    pub fn insert(&mut self, key: u64, value: (f64, f64)) {
        match self {
            PeelMemo::Dense { n, table } => table.set(Self::slot(*n, key), value),
            PeelMemo::Sparse(s) => s.insert(key, value),
        }
    }

    /// Number of **occupied** slots, not capacity.
    pub fn len(&self) -> usize {
        match self {
            PeelMemo::Dense { table, .. } => table.len(),
            PeelMemo::Sparse(s) => s.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_memo_roundtrips_and_counts_occupied() {
        let mut m = DenseMemo::new(1 << 6);
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        assert_eq!(m.get(0b10_1010), None);
        m.set(0b10_1010, (0.5, 1.0));
        m.set(0, (1.0, 0.0));
        assert_eq!(m.get(0b10_1010), Some((0.5, 1.0)));
        assert_eq!(m.get(0), Some((1.0, 0.0)));
        assert_eq!(m.get(0b1), None);
        assert_eq!(m.len(), 2, "occupied slots, not the 64-slot capacity");
        // Overwrite does not double-count.
        m.set(0b10_1010, (0.25, 2.0));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(0b10_1010), Some((0.25, 2.0)));
    }

    #[test]
    fn dense_memo_covers_multiword_bitmaps() {
        let mut m = DenseMemo::new(1 << 8);
        for mask in (0usize..256).step_by(3) {
            m.set(mask, (mask as f64, 0.0));
        }
        for mask in 0usize..256 {
            if mask % 3 == 0 {
                assert_eq!(m.get(mask), Some((mask as f64, 0.0)));
            } else {
                assert_eq!(m.get(mask), None);
            }
        }
    }

    #[test]
    fn flat_memo_roundtrips_across_growth() {
        let mut m = FlatMemo::new();
        assert!(m.is_empty());
        for i in 0u64..1000 {
            m.insert(i * 0x1_0001, (i as f64, -(i as f64)));
        }
        assert_eq!(m.len(), 1000, "occupied slots, not capacity");
        for i in 0u64..1000 {
            assert_eq!(m.get(i * 0x1_0001), Some((i as f64, -(i as f64))));
        }
        assert_eq!(m.get(3), None);
    }

    #[test]
    fn flat_memo_overwrites_in_place() {
        let mut m = FlatMemo::new();
        m.insert(42, (1.0, 2.0));
        m.insert(42, (3.0, 4.0));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(42), Some((3.0, 4.0)));
    }

    #[test]
    fn peel_keys_are_injective() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..32 {
            for cset in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF] {
                assert!(seen.insert(peel_key(i, cset)));
                assert_ne!(peel_key(i, cset), EMPTY_KEY);
            }
        }
    }
}
