//! Decomposition counting and exhaustive enumeration (§2, Lemma 1).
//!
//! The number of decompositions of `Sel(p1,…,pn)` follows the recurrence
//!
//! ```text
//! T(1) = 1,   T(n) = Σ_{i=1..n} C(n, i) · T(n − i)     (T(0) = 1)
//! ```
//!
//! (choose the first factor's predicate set `P1` with `|P1| = i`, then
//! decompose the remaining conditioning set recursively). Lemma 1 sandwiches
//! `T(n)` between `0.5·(n+1)!` and `1.5ⁿ·n!`, which motivates the dynamic
//! program: exploring all decompositions is factorially expensive while
//! `getSelectivity` is `O(3ⁿ)`.
//!
//! The exhaustive enumerator is used by tests to validate that the dynamic
//! program finds the true optimum on small inputs.
//!
//! [`ComponentTable`] is the dense DP engine's companion table: it memoizes
//! the first standard-decomposition factor of every visited mask so that
//! separability tests and decompositions inside the subset-lattice loop are
//! a single indexed load instead of a fresh graph traversal.

use crate::predset::{PredSet, QueryContext};

/// `T(n)`: the number of decompositions of a selectivity value over `n`
/// predicates, computed exactly (saturating at `u128::MAX`).
pub fn count_decompositions(n: usize) -> u128 {
    let mut t = vec![0u128; n + 1];
    t[0] = 1;
    if n == 0 {
        return 1;
    }
    // Pascal triangle for the binomials.
    let mut binom = vec![vec![0u128; n + 1]; n + 1];
    binom[0][0] = 1;
    for i in 1..=n {
        binom[i][0] = 1;
        for j in 1..=i {
            binom[i][j] = binom[i - 1][j - 1].saturating_add(binom[i - 1][j]);
        }
    }
    for m in 1..=n {
        let mut acc: u128 = 0;
        for i in 1..=m {
            acc = acc.saturating_add(binom[m][i].saturating_mul(t[m - i]));
        }
        t[m] = acc;
    }
    t[n]
}

/// The Lemma 1 bounds `(0.5·(n+1)!, 1.5ⁿ·n!)` for `T(n)`, saturating.
pub fn decomposition_bounds(n: usize) -> (u128, u128) {
    let mut fact: u128 = 1;
    for k in 2..=n as u128 {
        fact = fact.saturating_mul(k);
    }
    let fact_n1 = fact.saturating_mul(n as u128 + 1);
    let lower = fact_n1 / 2;
    // 1.5ⁿ·n! = 3ⁿ·n!/2ⁿ — compute in f64 then saturate for big n.
    let upper_f = 1.5f64.powi(n as i32) * (fact as f64);
    let upper = if upper_f >= u128::MAX as f64 {
        u128::MAX
    } else {
        upper_f.ceil() as u128
    };
    (lower, upper)
}

/// One decomposition: the ordered chain of peeled predicate sets. Factor `k`
/// of the chain is `Sel(chain[k] | chain[k+1] ∪ … ∪ chain.last())`; the last
/// factor is unconditioned.
pub type Chain = Vec<PredSet>;

/// Exhaustively enumerates every decomposition of `set` (every ordered
/// partition of the predicate set). Exponential — tests only.
pub fn enumerate_decompositions(set: PredSet) -> Vec<Chain> {
    if set.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in set.subsets() {
        let rest = set.minus(first);
        for mut tail in enumerate_decompositions(rest) {
            let mut chain = Vec::with_capacity(tail.len() + 1);
            chain.push(first);
            chain.append(&mut tail);
            out.push(chain);
        }
    }
    out
}

/// Per-mask memoized standard decompositions for the dense DP engine.
///
/// For every predicate-set mask `m`, `first_comp[m]` caches the connected
/// component of `m`'s lowest predicate index within the connectivity graph
/// restricted to `m` — the first factor of `m`'s standard decomposition
/// (Lemma 2). The full ordered decomposition is recovered by chaining:
/// `C₁ = first_comp[m]`, `C₂ = first_comp[m ∖ C₁]`, … This makes the two
/// queries the subset-lattice loop issues constantly — "is `m` separable?"
/// and "what are `m`'s factors?" — indexed loads instead of graph walks.
///
/// Entries are computed on demand (sentinel `0` = unset; valid entries are
/// never `0` because a non-empty mask's first component contains its lowest
/// bit) via the incremental rule: with `i` the lowest bit of `m`, the
/// component of `i` is `{i}` unioned with every component of `m ∖ {i}` that
/// touches `adjacent(i)` — components merge through `i` only.
#[derive(Debug, Clone)]
pub struct ComponentTable {
    first_comp: Vec<u32>,
}

impl ComponentTable {
    /// A table covering all `2ⁿ` subset masks of an `n`-predicate query.
    pub fn new(n: usize) -> Self {
        ComponentTable {
            first_comp: vec![0u32; 1usize << n],
        }
    }

    /// The first standard-decomposition factor of `set`, memoized. The
    /// empty set yields itself.
    pub fn ensure(&mut self, ctx: &QueryContext, set: PredSet) -> PredSet {
        let m = set.0;
        if m == 0 {
            return PredSet::EMPTY;
        }
        let cached = self.first_comp[m as usize];
        if cached != 0 {
            return PredSet(cached);
        }
        let i = m.trailing_zeros() as usize;
        let adj = ctx.adjacent(i).0;
        let mut comp = 1u32 << i;
        // Chain the components of m ∖ {i}; those adjacent to i merge in.
        let mut rest = m & (m - 1);
        while rest != 0 {
            let c = self.ensure(ctx, PredSet(rest)).0;
            if c & adj != 0 {
                comp |= c;
            }
            rest &= !c;
        }
        self.first_comp[m as usize] = comp;
        PredSet(comp)
    }

    /// True when `set` splits into ≥ 2 factors (Definition 2). Memoizes as
    /// a side effect.
    pub fn is_separable(&mut self, ctx: &QueryContext, set: PredSet) -> bool {
        !set.is_empty() && self.ensure(ctx, set) != set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recurrence_matches_known_small_values() {
        // T(1)=1; T(2)= C(2,1)·T(1)+C(2,2)·T(0)=3; T(3)=C(3,1)·3+C(3,2)·1+C(3,3)·1=13
        assert_eq!(count_decompositions(0), 1);
        assert_eq!(count_decompositions(1), 1);
        assert_eq!(count_decompositions(2), 3);
        assert_eq!(count_decompositions(3), 13);
        assert_eq!(count_decompositions(4), 75);
        assert_eq!(count_decompositions(5), 541); // ordered Bell numbers
    }

    #[test]
    fn enumeration_count_matches_recurrence() {
        for n in 1..=6 {
            let chains = enumerate_decompositions(PredSet::full(n));
            assert_eq!(chains.len() as u128, count_decompositions(n), "n={n}");
        }
    }

    #[test]
    fn chains_are_ordered_partitions() {
        let set = PredSet::full(3);
        for chain in enumerate_decompositions(set) {
            let mut union = PredSet::EMPTY;
            for part in &chain {
                assert!(!part.is_empty());
                assert!(union.intersect(*part).is_empty(), "parts overlap");
                union = union.union(*part);
            }
            assert_eq!(union, set);
        }
    }

    #[test]
    fn lemma1_bounds_hold() {
        for n in 1..=12 {
            let t = count_decompositions(n);
            let (lo, hi) = decomposition_bounds(n);
            assert!(lo <= t, "n={n}: lower bound {lo} > T={t}");
            assert!(t <= hi, "n={n}: T={t} > upper bound {hi}");
        }
    }

    #[test]
    fn growth_dwarfs_3_to_the_n() {
        // The DP explores O(3ⁿ) states; the decomposition space grows like
        // (n+1)!/2 — superexponentially larger.
        for n in 6..=12u32 {
            let t = count_decompositions(n as usize);
            let dp = 3u128.pow(n);
            assert!(t > dp, "n={n}: T(n)={t} should exceed 3^n={dp}");
        }
    }

    #[test]
    fn empty_set_has_single_empty_decomposition() {
        let chains = enumerate_decompositions(PredSet::EMPTY);
        assert_eq!(chains, vec![Vec::<PredSet>::new()]);
    }

    fn chain_ctx() -> QueryContext {
        use sqe_engine::table::TableBuilder;
        use sqe_engine::{CmpOp, ColRef, Database, Predicate, SpjQuery, TableId};
        let mut db = Database::new();
        for i in 0..3 {
            db.add_table(
                TableBuilder::new(format!("t{i}"))
                    .column("a", vec![1, 2, 3])
                    .column("b", vec![4, 5, 6])
                    .build()
                    .unwrap(),
            );
        }
        // p0: T0 filter, p1: T0–T1 join, p2: T1–T2 join, p3: T2 filter.
        let preds = vec![
            Predicate::filter(ColRef::new(TableId(0), 0), CmpOp::Lt, 5),
            Predicate::join(ColRef::new(TableId(0), 1), ColRef::new(TableId(1), 0)),
            Predicate::join(ColRef::new(TableId(1), 1), ColRef::new(TableId(2), 0)),
            Predicate::filter(ColRef::new(TableId(2), 1), CmpOp::Eq, 7),
        ];
        let q = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
        QueryContext::new(&db, &q)
    }

    #[test]
    fn component_table_matches_standard_decomposition() {
        let ctx = chain_ctx();
        let mut table = ComponentTable::new(4);
        for mask in 0u32..16 {
            let set = PredSet(mask);
            // Chain the table exactly the way the dense engine does.
            let mut chained = Vec::new();
            let mut rest = set;
            while !rest.is_empty() {
                let c = table.ensure(&ctx, rest);
                chained.push(c);
                rest = rest.minus(c);
            }
            assert_eq!(chained, ctx.standard_decomposition(set), "mask {mask:#b}");
            assert_eq!(
                table.is_separable(&ctx, set),
                ctx.is_separable(set),
                "mask {mask:#b}"
            );
        }
    }

    #[test]
    fn component_table_memoizes_visited_masks() {
        let ctx = chain_ctx();
        let mut table = ComponentTable::new(4);
        let c = table.ensure(&ctx, PredSet(0b1001));
        // p0 (T0) and p3 (T2) are disconnected: first factor is {p0}.
        assert_eq!(c, PredSet::singleton(0));
        assert_eq!(table.first_comp[0b1001], 0b0001);
        // ensure memoized the chain's sub-steps too.
        assert_eq!(table.first_comp[0b1000], 0b1000);
    }
}
