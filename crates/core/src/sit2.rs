//! Multidimensional (two-attribute) SITs — §3.3's `SIT(x, X | Q)`.
//!
//! The paper's factor approximation is defined for multi-attribute SITs:
//! joining `H1 = SIT(x, X|Q)` against the other side's histogram produces
//! the carried distribution `H3 = SIT(x, X, Y | x=y, Q)` that estimates the
//! remaining predicates with no further independence assumptions (Example
//! 3). The experiments in §5 restrict themselves to unidimensional SITs;
//! this module implements the two-attribute generalization so the
//! reproduction can quantify what the restriction costs:
//!
//! * a [`Sit2`] stores a [`Hist2d`] grid over `(x, y)` built on the result
//!   of its query expression,
//! * `x` is typically a join attribute (enabling the carried-`H3` path) or
//!   another filter attribute of the same table (enabling
//!   filter-conditioned-on-filter estimates),
//! * `y` is the attribute whose conditional distribution the SIT answers
//!   queries about.

use std::collections::HashMap;
use std::fmt;

use sqe_engine::{execute_connected, ColRef, Database, Predicate, Result as EngineResult, RowSet};
use sqe_histogram::{diff_from_histograms, Frequencies, Hist2d, Histogram};

use crate::sit::base_frequencies;

/// Identifier of a [`Sit2`] within a [`Sit2Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sit2Id(pub u32);

/// Default grid resolution per dimension (32 × 32 cells ≈ the footprint of
/// five 200-bucket unidimensional histograms).
pub const DEFAULT_GRID: usize = 32;

/// A two-attribute statistic on a query expression: `SIT(x, y | cond)`.
#[derive(Debug, Clone)]
pub struct Sit2 {
    /// Conditioning dimension (join attribute or co-located filter
    /// attribute).
    pub x: ColRef,
    /// Carried dimension (the attribute whose conditionals are answered).
    pub y: ColRef,
    /// Query-expression predicates (sorted; empty = base table).
    pub cond: Vec<Predicate>,
    /// The grid over `(x, y)` pairs drawn from the expression result.
    pub grid: Hist2d,
    /// Marginal distribution of `y` over the expression result (cached for
    /// divergence computations at estimation time).
    pub y_marginal: Histogram,
    /// Divergence of the `y` marginal from `y`'s base-table distribution
    /// (the §3.5 `diff`, on the carried attribute).
    pub diff: f64,
}

impl Sit2 {
    /// Builds a two-attribute SIT by evaluating its query expression
    /// (`cond = ∅` reads the base table; `x` and `y` must then share the
    /// table).
    pub fn build(
        db: &Database,
        x: ColRef,
        y: ColRef,
        cond: Vec<Predicate>,
        grid: usize,
    ) -> EngineResult<Self> {
        let mut cond = cond;
        cond.sort_unstable();
        cond.dedup();
        let mut tables: Vec<_> = cond
            .iter()
            .flat_map(|p| p.tables().iter())
            .chain([x.table, y.table])
            .collect();
        tables.sort_unstable();
        tables.dedup();
        let rows = if cond.is_empty() {
            debug_assert_eq!(x.table, y.table, "base 2-D SITs are single-table");
            RowSet::base(db, x.table)?
        } else {
            execute_connected(db, &tables, &cond)?
        };
        Self::from_rowset(db, x, y, cond, &rows, grid)
    }

    /// Builds from a pre-executed expression result (pool builder path).
    pub fn from_rowset(
        db: &Database,
        x: ColRef,
        y: ColRef,
        cond: Vec<Predicate>,
        rows: &RowSet,
        grid: usize,
    ) -> EngineResult<Self> {
        let xs = rows.gather(db, x)?;
        let ys = rows.gather(db, y)?;
        let mut pairs = Vec::with_capacity(rows.len());
        let mut nulls = 0usize;
        for i in 0..rows.len() {
            match (xs.get(i), ys.get(i)) {
                (Some(a), Some(b)) => pairs.push((a, b)),
                _ => nulls += 1,
            }
        }
        // The x dimension does the join matching and needs finer
        // resolution than the carried dimension.
        let grid = Hist2d::build(&pairs, nulls, grid * 16, grid);
        let y_marginal = grid.y_marginal();
        // Divergence of the carried attribute vs its base distribution.
        let expr_y = Frequencies::from_values(pairs.iter().map(|&(_, b)| b).collect());
        let diff = sqe_histogram::diff_exact(&base_frequencies(db, y)?, &expr_y);
        Ok(Sit2 {
            x,
            y,
            cond,
            grid,
            y_marginal,
            diff,
        })
    }

    /// Divergence that a conditional histogram derived from this SIT adds
    /// on top of the stored `diff` (used by the `Diff` error function).
    pub fn conditional_divergence(&self, conditional: &Histogram) -> f64 {
        diff_from_histograms(&self.y_marginal, conditional)
            .max(self.diff)
            .clamp(0.0, 1.0)
    }
}

impl fmt::Display for Sit2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SIT2({}, {}", self.x, self.y)?;
        if !self.cond.is_empty() {
            write!(f, " | ")?;
            for (i, p) in self.cond.iter().enumerate() {
                if i > 0 {
                    write!(f, " ∧ ")?;
                }
                write!(f, "{p}")?;
            }
        }
        write!(f, ")")
    }
}

/// A catalog of two-attribute SITs, indexed by the carried attribute `y`.
#[derive(Debug, Clone, Default)]
pub struct Sit2Catalog {
    sits: Vec<Sit2>,
    by_y: HashMap<ColRef, Vec<Sit2Id>>,
}

impl Sit2Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a SIT, deduplicating on `(x, y, cond)`.
    pub fn add(&mut self, sit: Sit2) -> Sit2Id {
        if let Some(existing) = self.by_y.get(&sit.y).and_then(|ids| {
            ids.iter()
                .find(|id| {
                    let s = &self.sits[id.0 as usize];
                    s.x == sit.x && s.cond == sit.cond
                })
                .copied()
        }) {
            return existing;
        }
        let id = Sit2Id(self.sits.len() as u32);
        self.by_y.entry(sit.y).or_default().push(id);
        self.sits.push(sit);
        id
    }

    /// The SIT with the given id.
    pub fn get(&self, id: Sit2Id) -> &Sit2 {
        &self.sits[id.0 as usize]
    }

    /// All SITs whose carried attribute is `y`.
    pub fn for_y(&self, y: ColRef) -> &[Sit2Id] {
        self.by_y.get(&y).map_or(&[], Vec::as_slice)
    }

    /// Number of SITs.
    pub fn len(&self) -> usize {
        self.sits.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sits.is_empty()
    }

    /// Iterates over `(id, sit)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Sit2Id, &Sit2)> {
        self.sits
            .iter()
            .enumerate()
            .map(|(i, s)| (Sit2Id(i as u32), s))
    }
}

/// Builds a pool of two-attribute SITs for a workload: for every query
/// table, grids over (join-side attribute, filter attribute) pairs — which
/// enable the carried-`H3` estimation path — and over (filter, filter)
/// pairs on the same table — which capture filter-filter correlation.
/// Expressions are limited to at most `max_join_preds` join predicates,
/// like the 1-D pools.
pub fn build_pool2(
    db: &Database,
    workload: &[sqe_engine::SpjQuery],
    max_join_preds: usize,
    grid: usize,
) -> EngineResult<Sit2Catalog> {
    let mut catalog = Sit2Catalog::new();
    let mut seen: HashMap<(ColRef, ColRef, Vec<Predicate>), ()> = HashMap::new();
    for query in workload {
        let joins: Vec<Predicate> = query.joins().copied().collect();
        let filters: Vec<&Predicate> = query.filters().collect();
        // Filter attributes per table.
        let mut filter_attrs: Vec<ColRef> =
            filters.iter().flat_map(|p| p.columns().iter()).collect();
        filter_attrs.sort_unstable();
        filter_attrs.dedup();
        // Join-side attributes.
        let mut join_sides: Vec<ColRef> = joins.iter().flat_map(|p| p.columns().iter()).collect();
        join_sides.sort_unstable();
        join_sides.dedup();

        let mut defs: Vec<(ColRef, ColRef, Vec<Predicate>)> = Vec::new();
        // (join side, filter attr) on the same table: base-table grids and
        // grids over expressions of other joins.
        for &x in &join_sides {
            for &y in &filter_attrs {
                if x.table != y.table || x == y {
                    continue;
                }
                defs.push((x, y, Vec::new()));
                if max_join_preds >= 1 {
                    for j in &joins {
                        if j.columns().iter().any(|c| c == x) {
                            continue; // a SIT may not contain the join it feeds
                        }
                        if !j.tables().iter().any(|t| t == x.table) {
                            continue; // expression must touch the table
                        }
                        defs.push((x, y, vec![*j]));
                    }
                }
            }
        }
        // (filter, filter) pairs on the same table (base grids).
        for (i, &x) in filter_attrs.iter().enumerate() {
            for &y in &filter_attrs[i + 1..] {
                if x.table == y.table && x != y {
                    defs.push((x, y, Vec::new()));
                    defs.push((y, x, Vec::new()));
                }
            }
        }

        for (x, y, mut cond) in defs {
            cond.sort_unstable();
            cond.dedup();
            let key = (x, y, cond.clone());
            if seen.contains_key(&key) {
                continue;
            }
            seen.insert(key, ());
            catalog.add(Sit2::build(db, x, y, cond, grid)?);
        }
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqe_engine::table::TableBuilder;
    use sqe_engine::{CmpOp, SpjQuery, TableId};

    fn c(t: u32, col: u16) -> ColRef {
        ColRef::new(TableId(t), col)
    }

    /// r(a, x): a correlated with x; s(y): join target with skewed matches.
    fn db2() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableBuilder::new("r")
                .column("a", vec![1, 1, 2, 2, 3, 3])
                .column("x", vec![10, 10, 20, 20, 30, 30])
                .build()
                .unwrap(),
        );
        db.add_table(
            TableBuilder::new("s")
                .column("y", vec![10, 10, 10, 10, 20, 30])
                .build()
                .unwrap(),
        );
        db
    }

    #[test]
    fn base_grid_captures_joint_distribution() {
        let db = db2();
        let sit = Sit2::build(&db, c(0, 1), c(0, 0), vec![], 16).unwrap();
        assert_eq!(sit.grid.valid_rows(), 6.0);
        // a and x are perfectly correlated: conditional on x = 10, a = 1.
        let cond = sit.grid.conditional_y(10, 10);
        assert!(cond.eq_selectivity(1) > 0.99);
        assert_eq!(sit.diff, 0.0, "base expression leaves y unchanged");
    }

    #[test]
    fn join_carry_reproduces_conditional_truth() {
        let db = db2();
        let join = Predicate::join(c(0, 1), c(1, 0));
        let _ = join;
        let sit = Sit2::build(&db, c(0, 1), c(0, 0), vec![], 16).unwrap();
        let other = crate::sit::Sit::build_base(&db, c(1, 0)).unwrap();
        let (sel, carried) = sit.grid.join_carry(&other.histogram);
        // True join: a=1 rows (x=10) match 4 s-rows × 2 = 8; a=2 and a=3
        // match 1 × 2 = 2 each → 12 of 36 tuples.
        assert!((sel - 12.0 / 36.0).abs() < 1e-9, "sel {sel}");
        // True conditional P(a=1 | join) = 8/12.
        let got = carried.eq_selectivity(1);
        assert!((got - 8.0 / 12.0).abs() < 1e-6, "carried P(a=1) = {got}");
    }

    #[test]
    fn expression_sit2_has_nonzero_diff() {
        let db = db2();
        let join = Predicate::join(c(0, 1), c(1, 0));
        let sit = Sit2::build(&db, c(0, 1), c(0, 0), vec![join], 16).unwrap();
        assert!(sit.diff > 0.2, "diff {}", sit.diff);
        assert!((sit.grid.valid_rows() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn catalog_indexes_and_dedups() {
        let db = db2();
        let a = Sit2::build(&db, c(0, 1), c(0, 0), vec![], 16).unwrap();
        let mut cat = Sit2Catalog::new();
        let id1 = cat.add(a.clone());
        let id2 = cat.add(a);
        assert_eq!(id1, id2);
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.for_y(c(0, 0)), &[id1]);
        assert!(cat.for_y(c(1, 0)).is_empty());
        assert!(cat.get(id1).to_string().starts_with("SIT2("));
    }

    #[test]
    fn pool2_generates_join_filter_pairs() {
        let db = db2();
        let q = SpjQuery::from_predicates(vec![
            Predicate::join(c(0, 1), c(1, 0)),
            Predicate::filter(c(0, 0), CmpOp::Eq, 1),
        ])
        .unwrap();
        let pool = build_pool2(&db, &[q], 1, 16).unwrap();
        // Exactly the (r.x, r.a) base grid: the filter side has one
        // same-table join attribute and no second filter.
        assert_eq!(pool.len(), 1);
        let (_, sit) = pool.iter().next().unwrap();
        assert_eq!(sit.x, c(0, 1));
        assert_eq!(sit.y, c(0, 0));
        assert!(
            sit.cond.is_empty(),
            "the only join feeds x, so no expression variant"
        );
    }

    #[test]
    fn conditional_divergence_grows_with_restriction() {
        let db = db2();
        let sit = Sit2::build(&db, c(0, 1), c(0, 0), vec![], 16).unwrap();
        let narrow = sit.grid.conditional_y(10, 10);
        let wide = sit.grid.conditional_y(10, 30);
        assert!(sit.conditional_divergence(&narrow) > sit.conditional_divergence(&wide));
    }
}
