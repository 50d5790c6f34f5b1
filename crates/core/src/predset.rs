//! Predicate subsets of a query as bitsets, plus the separability machinery.
//!
//! Everything `getSelectivity` does is defined over subsets of one query's
//! predicates, so subsets are `u32` bitmasks (supporting up to 32 predicates
//! — the paper's queries peak at 10) wrapped in [`PredSet`], and a
//! [`QueryContext`] precomputes per-predicate metadata (table masks, join
//! flags) so that separability tests and standard decompositions are cheap
//! bit manipulation plus a small union-find.

use std::fmt;

use sqe_engine::{Database, Predicate, SpjQuery, TableId};

/// Maximum number of predicates per query.
pub const MAX_PREDICATES: usize = 32;

/// A subset of a query's predicates, as a bitmask over predicate indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PredSet(pub u32);

impl PredSet {
    /// The empty set.
    pub const EMPTY: PredSet = PredSet(0);

    /// The set containing predicates `0..n`.
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_PREDICATES);
        if n == MAX_PREDICATES {
            PredSet(u32::MAX)
        } else {
            PredSet((1u32 << n) - 1)
        }
    }

    /// A singleton set.
    pub fn singleton(i: usize) -> Self {
        assert!(i < MAX_PREDICATES);
        PredSet(1 << i)
    }

    /// Number of predicates in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(self, i: usize) -> bool {
        i < MAX_PREDICATES && self.0 & (1 << i) != 0
    }

    /// Set union.
    pub fn union(self, other: PredSet) -> PredSet {
        PredSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: PredSet) -> PredSet {
        PredSet(self.0 & other.0)
    }

    /// Set difference `self − other`.
    pub fn minus(self, other: PredSet) -> PredSet {
        PredSet(self.0 & !other.0)
    }

    /// True when `self ⊆ other`.
    pub fn is_subset_of(self, other: PredSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Inserts predicate `i`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < MAX_PREDICATES);
        self.0 |= 1 << i;
    }

    /// Iterates over the member indices, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Iterates over all *non-empty* subsets of `self` (including `self`
    /// itself) using the standard descending-submask walk.
    pub fn subsets(self) -> SubsetIter {
        SubsetIter {
            mask: self.0,
            sub: self.0,
            done: self.0 == 0,
        }
    }

    /// Iterates over the subsets of `self` with exactly `k` members,
    /// allocation-free (Gosper's hack over the compressed index space, each
    /// combination expanded back through the member positions). Yields
    /// nothing when `k == 0` or `k > self.len()`. Together with an outer
    /// `for k in 1..=len` loop this enumerates all subsets in ascending
    /// popcount order — the iteration order of the dense DP engine's
    /// bottom-up fill.
    pub fn subsets_of_size(self, k: usize) -> FixedSizeSubsetIter {
        let mut positions = [0u8; MAX_PREDICATES];
        let mut count = 0usize;
        for (slot, i) in positions.iter_mut().zip(self.iter()) {
            *slot = i as u8;
            count += 1;
        }
        let done = k == 0 || k > count;
        FixedSizeSubsetIter {
            positions,
            count,
            current: if done { 0 } else { (1u64 << k) - 1 },
            done,
        }
    }
}

impl fmt::Display for PredSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "p{i}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the non-empty subsets of a [`PredSet`] (largest first,
/// ending with the full set's smallest submask).
pub struct SubsetIter {
    mask: u32,
    sub: u32,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = PredSet;

    fn next(&mut self) -> Option<PredSet> {
        if self.done {
            return None;
        }
        let current = self.sub;
        if current == 0 {
            self.done = true;
            return None;
        }
        self.sub = (self.sub - 1) & self.mask;
        if self.sub == 0 {
            self.done = true;
        }
        Some(PredSet(current))
    }
}

/// Iterator over the size-`k` subsets of a [`PredSet`] (see
/// [`PredSet::subsets_of_size`]). Combinations are generated in ascending
/// order of their compressed (member-rank) bit pattern.
pub struct FixedSizeSubsetIter {
    positions: [u8; MAX_PREDICATES],
    count: usize,
    /// Current combination over the compressed `count`-bit index space.
    current: u64,
    done: bool,
}

impl Iterator for FixedSizeSubsetIter {
    type Item = PredSet;

    fn next(&mut self) -> Option<PredSet> {
        if self.done || self.current >= 1u64 << self.count {
            self.done = true;
            return None;
        }
        // Expand the compressed combination through the member positions.
        let mut mask = 0u32;
        let mut bits = self.current;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            mask |= 1 << self.positions[j];
        }
        // Gosper's hack: next integer with the same popcount.
        let v = self.current;
        let c = v & v.wrapping_neg();
        let r = v + c;
        self.current = (((v ^ r) >> 2) / c) | r;
        Some(PredSet(mask))
    }
}

/// Precomputed, per-query metadata over which the selectivity algorithms
/// run. Borrow-free (owns copies of the predicates) so estimators can hold
/// it alongside a database reference.
#[derive(Debug, Clone)]
pub struct QueryContext {
    tables: Vec<TableId>,
    predicates: Vec<Predicate>,
    /// Bitmask of table slots referenced by each predicate.
    table_masks: Vec<u32>,
    /// Subset of predicate indices that are joins.
    joins: PredSet,
    /// Cross product size of each table (aligned with `tables`).
    table_rows: Vec<u128>,
    /// Predicate-connectivity adjacency: `adjacency[i]` is the mask of
    /// predicates sharing at least one table with predicate `i` (including
    /// `i` itself). Connected components of this graph restricted to a
    /// subset are exactly the subset's standard-decomposition factors
    /// (Lemma 2), so separability becomes pure bit manipulation.
    adjacency: Vec<u32>,
}

impl QueryContext {
    /// Builds a context for a query against a database.
    ///
    /// # Panics
    /// Panics when the query has more than [`MAX_PREDICATES`] predicates
    /// (the workloads of the paper peak at 10).
    pub fn new(db: &Database, query: &SpjQuery) -> Self {
        assert!(
            query.predicates.len() <= MAX_PREDICATES,
            "query has too many predicates"
        );
        let tables = query.tables.clone();
        let slot = |t: TableId| -> u32 {
            tables
                .binary_search(&t)
                .expect("predicate tables validated by SpjQuery") as u32
        };
        let table_masks: Vec<u32> = query
            .predicates
            .iter()
            .map(|p| p.tables().iter().fold(0u32, |m, t| m | (1 << slot(t))))
            .collect();
        let mut joins = PredSet::EMPTY;
        for (i, p) in query.predicates.iter().enumerate() {
            if p.is_join() {
                joins.insert(i);
            }
        }
        let table_rows = tables
            .iter()
            .map(|&t| db.row_count(t).map(|n| n as u128).unwrap_or(0))
            .collect();
        let adjacency = (0..query.predicates.len())
            .map(|i| {
                table_masks
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| m & table_masks[i] != 0)
                    .fold(0u32, |acc, (j, _)| acc | (1 << j))
            })
            .collect();
        QueryContext {
            tables,
            predicates: query.predicates.clone(),
            table_masks,
            joins,
            table_rows,
            adjacency,
        }
    }

    /// All predicates of the query.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The predicate with index `i`.
    pub fn predicate(&self, i: usize) -> &Predicate {
        &self.predicates[i]
    }

    /// The full predicate set of the query.
    pub fn all(&self) -> PredSet {
        PredSet::full(self.predicates.len())
    }

    /// The join predicates, as a set.
    pub fn joins(&self) -> PredSet {
        self.joins
    }

    /// The join members of `set`.
    pub fn joins_in(&self, set: PredSet) -> PredSet {
        set.intersect(self.joins)
    }

    /// The filter members of `set`.
    pub fn filters_in(&self, set: PredSet) -> PredSet {
        set.minus(self.joins)
    }

    /// Materializes a set as a vector of predicates.
    pub fn predicates_of(&self, set: PredSet) -> Vec<Predicate> {
        set.iter().map(|i| self.predicates[i]).collect()
    }

    /// Bitmask of table slots referenced by a predicate set (`tables(P)`).
    pub fn table_mask(&self, set: PredSet) -> u32 {
        set.iter().fold(0, |m, i| m | self.table_masks[i])
    }

    /// Table ids referenced by a predicate set.
    pub fn tables_of(&self, set: PredSet) -> Vec<TableId> {
        self.tables_of_slots(self.table_mask(set))
    }

    /// Table ids selected by a slot bitmask (slot `i` = `tables()[i]`).
    pub fn tables_of_slots(&self, mask: u32) -> Vec<TableId> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &t)| t)
            .collect()
    }

    /// The query's table list (sorted ascending; slot order).
    pub fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// `|tables(P)^×|`: the cardinality denominator for a predicate set.
    pub fn cross_product_size(&self, set: PredSet) -> u128 {
        self.cross_product_of_table_mask(self.table_mask(set))
    }

    /// Cross-product size of the tables selected by a slot bitmask (used by
    /// memo-coupled estimation, where groups carry table masks directly).
    pub fn cross_product_of_table_mask(&self, mask: u32) -> u128 {
        self.table_rows
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .fold(1u128, |acc, (_, &n)| acc.saturating_mul(n))
    }

    /// The mask of predicates sharing at least one table with predicate
    /// `i` (including `i` itself) — the connectivity row the dense DP
    /// engine's companion tables are derived from.
    pub fn adjacent(&self, i: usize) -> PredSet {
        PredSet(self.adjacency[i])
    }

    /// Separability test (Definition 2): `Sel(P)` is separable iff the
    /// predicates of `P` split into two non-empty groups referencing
    /// disjoint table sets. Pure bit manipulation — no allocation.
    pub fn is_separable(&self, set: PredSet) -> bool {
        !set.is_empty() && self.first_component(set) != set
    }

    /// The connected component of `set`'s lowest predicate index within the
    /// predicate-connectivity graph restricted to `set` — the first factor
    /// of the standard decomposition. Allocation-free frontier expansion
    /// over the precomputed adjacency masks; the empty set yields itself.
    pub fn first_component(&self, set: PredSet) -> PredSet {
        if set.is_empty() {
            return PredSet::EMPTY;
        }
        let mut comp = 1u32 << set.0.trailing_zeros();
        let mut frontier = comp;
        while frontier != 0 {
            let mut grown = 0u32;
            let mut bits = frontier;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                grown |= self.adjacency[i];
            }
            frontier = grown & set.0 & !comp;
            comp |= frontier;
        }
        PredSet(comp)
    }

    /// Iterates the standard-decomposition factors of `set` in ascending
    /// order of their smallest predicate index, without allocating.
    pub fn components(&self, set: PredSet) -> impl Iterator<Item = PredSet> + '_ {
        let mut rest = set;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let c = self.first_component(rest);
            rest = rest.minus(c);
            Some(c)
        })
    }

    /// The unique *standard decomposition* of `Sel(P)` into non-separable
    /// factors (Lemma 2): the connected components of the predicate
    /// hypergraph (predicates as hyperedges over their tables). Returns the
    /// components in ascending order of their smallest predicate index;
    /// singletons and the empty set yield themselves.
    pub fn standard_decomposition(&self, set: PredSet) -> Vec<PredSet> {
        self.components(set).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqe_engine::table::TableBuilder;
    use sqe_engine::{CmpOp, ColRef};

    fn c(t: u32, col: u16) -> ColRef {
        ColRef::new(TableId(t), col)
    }

    fn test_db(n_tables: usize) -> Database {
        let mut db = Database::new();
        for i in 0..n_tables {
            db.add_table(
                TableBuilder::new(format!("t{i}"))
                    .column("a", vec![1, 2, 3])
                    .column("b", vec![4, 5, 6])
                    .build()
                    .unwrap(),
            );
        }
        db
    }

    fn ctx3() -> QueryContext {
        // p0: T0.a < 5, p1: T0.b = T1.a, p2: T1.b = T2.a, p3: T2.b = 7
        let db = test_db(3);
        let preds = vec![
            Predicate::filter(c(0, 0), CmpOp::Lt, 5),
            Predicate::join(c(0, 1), c(1, 0)),
            Predicate::join(c(1, 1), c(2, 0)),
            Predicate::filter(c(2, 1), CmpOp::Eq, 7),
        ];
        let q = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
        QueryContext::new(&db, &q)
    }

    #[test]
    fn predset_basic_operations() {
        let a = PredSet::full(4);
        assert_eq!(a.len(), 4);
        let b = PredSet::singleton(2);
        assert!(b.is_subset_of(a));
        assert_eq!(a.minus(b).len(), 3);
        assert!(!a.minus(b).contains(2));
        assert_eq!(a.intersect(b), b);
        assert_eq!(
            b.union(PredSet::singleton(0)).iter().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert!(PredSet::EMPTY.is_empty());
    }

    #[test]
    fn subsets_enumerates_all_nonempty() {
        let s = PredSet(0b1011);
        let subs: Vec<u32> = s.subsets().map(|p| p.0).collect();
        assert_eq!(subs.len(), 7); // 2^3 − 1
        assert!(subs.contains(&0b1011));
        assert!(subs.contains(&0b0001));
        assert!(subs.contains(&0b1010));
        assert!(!subs.contains(&0b0100), "non-subset bit");
        // All distinct.
        let mut sorted = subs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7);
    }

    #[test]
    fn subsets_of_empty_is_empty() {
        assert_eq!(PredSet::EMPTY.subsets().count(), 0);
    }

    #[test]
    fn joins_and_filters_split() {
        let ctx = ctx3();
        assert_eq!(ctx.joins().iter().collect::<Vec<_>>(), vec![1, 2]);
        let all = ctx.all();
        assert_eq!(ctx.filters_in(all).iter().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn table_masks_and_cross_products() {
        let ctx = ctx3();
        // p0 touches T0 only.
        assert_eq!(ctx.table_mask(PredSet::singleton(0)), 0b001);
        // p1 touches T0 and T1.
        assert_eq!(ctx.table_mask(PredSet::singleton(1)), 0b011);
        assert_eq!(
            ctx.tables_of(PredSet::singleton(1)),
            vec![TableId(0), TableId(1)]
        );
        // All tables have 3 rows.
        assert_eq!(ctx.cross_product_size(PredSet::singleton(1)), 9);
        assert_eq!(ctx.cross_product_size(ctx.all()), 27);
        assert_eq!(ctx.cross_product_size(PredSet::EMPTY), 1);
    }

    #[test]
    fn separability_matches_definition() {
        let ctx = ctx3();
        // {p0} ∪ {p3}: tables {T0} and {T2} disjoint → separable.
        let s = PredSet::singleton(0).union(PredSet::singleton(3));
        assert!(ctx.is_separable(s));
        // {p0, p1}: share T0 → non-separable.
        let s = PredSet::singleton(0).union(PredSet::singleton(1));
        assert!(!ctx.is_separable(s));
        // Whole query is connected → non-separable.
        assert!(!ctx.is_separable(ctx.all()));
        // Singleton is never separable.
        assert!(!ctx.is_separable(PredSet::singleton(2)));
    }

    #[test]
    fn standard_decomposition_finds_components() {
        let ctx = ctx3();
        // p0 (T0), p2 (T1,T2), p3 (T2): p2 and p3 connect; p0 alone.
        let s = PredSet(0b1101);
        let comps = ctx.standard_decomposition(s);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], PredSet::singleton(0));
        assert_eq!(comps[1], PredSet(0b1100));
    }

    #[test]
    fn standard_decomposition_partitions_input() {
        let ctx = ctx3();
        for mask in 1u32..16 {
            let s = PredSet(mask);
            let comps = ctx.standard_decomposition(s);
            let mut union = PredSet::EMPTY;
            for (i, c) in comps.iter().enumerate() {
                assert!(!c.is_empty());
                assert!(!ctx.is_separable(*c), "component must be non-separable");
                for later in &comps[i + 1..] {
                    assert!(c.intersect(*later).is_empty(), "components overlap");
                }
                union = union.union(*c);
            }
            assert_eq!(union, s, "components must cover the set");
        }
    }

    #[test]
    fn display_lists_members() {
        let s = PredSet(0b101);
        assert_eq!(s.to_string(), "{p0,p2}");
    }

    #[test]
    #[should_panic(expected = "too many predicates")]
    fn context_rejects_oversized_queries() {
        let db = test_db(1);
        let preds: Vec<Predicate> = (0..33)
            .map(|i| Predicate::filter(c(0, 0), CmpOp::Lt, i))
            .collect();
        let q = SpjQuery::new(vec![TableId(0)], preds).unwrap();
        let _ = QueryContext::new(&db, &q);
    }
}
