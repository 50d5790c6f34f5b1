//! SITs — statistics on query expressions — and the SIT catalog.
//!
//! A SIT `SIT_R(a | Q)` is a histogram over attribute `a` built on the
//! result of evaluating the query expression `σ_Q(R^×)`, where `Q` is a set
//! of (join) predicates (§3.3 notation). A SIT with `Q = ∅` is an ordinary
//! base-table histogram. Each SIT carries the §3.5 `diff` value: the total
//! variation distance between the base-table distribution of `a` and its
//! distribution over `σ_Q(R^×)`, precomputed at build time ("values of diff
//! are calculated just once and stored with each SIT, so there is no
//! overhead at runtime").
//!
//! Both come from sorted frequency lists ([`Frequencies`]): a SIT sorts its
//! expression's values once, builds its histogram from that list, and merges
//! it with the base column's list for `diff`. The pool builder counts each
//! base column once and hands the list to every SIT on the attribute.

use std::collections::HashMap;
use std::fmt;

use sqe_engine::{
    execute_connected, ColRef, Database, EngineError, Predicate, Result as EngineResult, RowSet,
};
use sqe_histogram::{diff_exact, BuilderKind, Frequencies, Histogram, DEFAULT_BUCKETS};

/// Construction knobs for SIT histograms — the paper uses maxDiff with at
/// most 200 buckets; ablation experiments vary both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SitOptions {
    /// Histogram construction algorithm.
    pub kind: BuilderKind,
    /// Bucket budget.
    pub buckets: usize,
}

impl Default for SitOptions {
    fn default() -> Self {
        SitOptions {
            kind: BuilderKind::MaxDiff,
            buckets: DEFAULT_BUCKETS,
        }
    }
}

/// Identifier of a SIT within a [`SitCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SitId(pub u32);

/// A statistic on a query expression: `SIT(attr | cond)`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Sit {
    /// The attribute the histogram describes.
    pub attr: ColRef,
    /// The query expression's predicates (sorted canonically; empty for a
    /// base-table histogram). The paper's pools use join predicates only,
    /// but arbitrary predicates are supported.
    pub cond: Vec<Predicate>,
    /// Histogram of `attr` over `σ_cond(tables(cond ∪ {attr})^×)`.
    pub histogram: Histogram,
    /// The §3.5 `diff` value: 0 when the expression leaves the distribution
    /// of `attr` unchanged (the SIT is then no better than the base
    /// histogram), growing towards 1 as the distributions diverge.
    pub diff: f64,
}

impl Sit {
    /// True for a plain base-table histogram.
    pub fn is_base(&self) -> bool {
        self.cond.is_empty()
    }

    /// Builds a SIT by evaluating its query expression. The expression's
    /// tables are `tables(cond) ∪ {attr.table}` and must be connected
    /// (non-separable SITs are the only useful ones under the minimality
    /// assumption).
    pub fn build(db: &Database, attr: ColRef, cond: Vec<Predicate>) -> EngineResult<Self> {
        Self::build_with(db, attr, cond, SitOptions::default())
    }

    /// [`Self::build`] with explicit histogram construction options.
    pub fn build_with(
        db: &Database,
        attr: ColRef,
        cond: Vec<Predicate>,
        opts: SitOptions,
    ) -> EngineResult<Self> {
        let mut cond = cond;
        cond.sort_unstable();
        cond.dedup();
        if cond.is_empty() {
            return Self::build_base_with(db, attr, opts);
        }
        let mut tables: Vec<_> = cond
            .iter()
            .flat_map(|p| p.tables().iter())
            .chain(std::iter::once(attr.table))
            .collect();
        tables.sort_unstable();
        tables.dedup();
        let rows = execute_connected(db, &tables, &cond)?;
        Self::from_rowset(db, attr, cond, &rows, &base_frequencies(db, attr)?, opts)
    }

    /// Builds a SIT from an already-executed expression result and the
    /// frequency list of `attr`'s base column (see [`base_frequencies`]).
    /// The pool builder shares one execution among all SITs with the same
    /// expression, and one base list among all SITs on the same attribute.
    pub(crate) fn from_rowset(
        db: &Database,
        attr: ColRef,
        cond: Vec<Predicate>,
        rows: &RowSet,
        base: &Frequencies,
        opts: SitOptions,
    ) -> EngineResult<Self> {
        let picked = rows
            .rows_of(attr.table)
            .ok_or(EngineError::PredicateOutOfScope { table: attr.table })?;
        let col = db.column(attr)?;
        // The valid values go straight into the vector the list sorts; the
        // ordered kinds gather them again, in row order.
        let freqs = Frequencies::from_values(col.gather_valid(picked));
        let null_count = picked.len() - freqs.rows() as usize;
        let histogram = opts.kind.build_from(
            &freqs,
            || col.gather_valid(picked),
            null_count,
            opts.buckets,
        );
        Ok(Sit {
            attr,
            cond,
            histogram,
            diff: diff_exact(base, &freqs),
        })
    }

    /// Builds a base-table histogram (a SIT with an empty expression,
    /// `diff = 0` by definition).
    pub fn build_base(db: &Database, attr: ColRef) -> EngineResult<Self> {
        Self::build_base_with(db, attr, SitOptions::default())
    }

    /// [`Self::build_base`] with explicit histogram construction options.
    pub fn build_base_with(db: &Database, attr: ColRef, opts: SitOptions) -> EngineResult<Self> {
        Self::base_from(db, attr, &base_frequencies(db, attr)?, opts)
    }

    /// A base-table histogram built from the column's frequency list.
    pub(crate) fn base_from(
        db: &Database,
        attr: ColRef,
        base: &Frequencies,
        opts: SitOptions,
    ) -> EngineResult<Self> {
        let col = db.column(attr)?;
        let histogram =
            opts.kind
                .build_from(base, || col.valid_values(), col.null_count(), opts.buckets);
        Ok(Sit {
            attr,
            cond: Vec::new(),
            histogram,
            diff: 0.0,
        })
    }
}

/// The frequency list of `attr`'s base column: the `R` side of every
/// `diff` on the attribute, and its base histogram's input.
pub(crate) fn base_frequencies(db: &Database, attr: ColRef) -> EngineResult<Frequencies> {
    Ok(Frequencies::from_values(db.column(attr)?.valid_values()))
}

impl fmt::Display for Sit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SIT({}", self.attr)?;
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

/// A catalog of available SITs, indexed by attribute for fast candidate
/// lookup during estimation.
///
/// Serialization round-trips through the plain SIT list; the attribute
/// index is rebuilt on load.
#[derive(Debug, Clone, Default)]
pub struct SitCatalog {
    sits: Vec<Sit>,
    by_attr: HashMap<ColRef, Vec<SitId>>,
}

// Manual impls (rather than `#[serde(from/into)]`) so only the SIT list is
// encoded; the attribute index is rebuilt on load.
impl serde::Serialize for SitCatalog {
    fn serialize(&self, w: &mut serde::Writer) -> Result<(), serde::Error> {
        self.sits.serialize(w)
    }
}

impl serde::Deserialize for SitCatalog {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        Vec::<Sit>::deserialize(r).map(SitCatalog::from)
    }
}

impl From<Vec<Sit>> for SitCatalog {
    fn from(sits: Vec<Sit>) -> Self {
        let mut catalog = SitCatalog::new();
        for sit in sits {
            catalog.add(sit);
        }
        catalog
    }
}

impl From<SitCatalog> for Vec<Sit> {
    fn from(catalog: SitCatalog) -> Self {
        catalog.sits
    }
}

impl SitCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a SIT, returning its id. Duplicate `(attr, cond)` pairs are
    /// rejected (returns the existing id instead).
    pub fn add(&mut self, sit: Sit) -> SitId {
        if let Some(existing) = self.by_attr.get(&sit.attr).and_then(|ids| {
            ids.iter()
                .find(|id| self.sits[id.0 as usize].cond == sit.cond)
        }) {
            return *existing;
        }
        let id = SitId(self.sits.len() as u32);
        self.by_attr.entry(sit.attr).or_default().push(id);
        self.sits.push(sit);
        id
    }

    /// The SIT with the given id.
    pub fn get(&self, id: SitId) -> &Sit {
        &self.sits[id.0 as usize]
    }

    /// Replaces the SIT at `id` (same attribute required, so the index
    /// stays valid). Returns false and leaves the catalog untouched when
    /// the attribute differs or the id is unknown.
    pub fn replace(&mut self, id: SitId, sit: Sit) -> bool {
        match self.sits.get_mut(id.0 as usize) {
            Some(slot) if slot.attr == sit.attr => {
                *slot = sit;
                true
            }
            _ => false,
        }
    }

    /// All SITs over the given attribute.
    pub fn for_attr(&self, attr: ColRef) -> &[SitId] {
        self.by_attr.get(&attr).map_or(&[], Vec::as_slice)
    }

    /// Number of SITs.
    pub fn len(&self) -> usize {
        self.sits.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.sits.is_empty()
    }

    /// Iterates over `(id, sit)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SitId, &Sit)> {
        self.sits
            .iter()
            .enumerate()
            .map(|(i, s)| (SitId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqe_engine::table::TableBuilder;
    use sqe_engine::TableId;

    fn c(t: u32, col: u16) -> ColRef {
        ColRef::new(TableId(t), col)
    }

    /// r(a, x) joins s(y, b); r.a is correlated with join fan-out: the rows
    /// of r with a = 1 match many rows of s.
    fn skewed_db() -> Database {
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
                .column("b", vec![1, 2, 3, 4, 5, 6])
                .build()
                .unwrap(),
        );
        db
    }

    #[test]
    fn base_sit_matches_column_distribution() {
        let db = skewed_db();
        let sit = Sit::build_base(&db, c(0, 0)).unwrap();
        assert!(sit.is_base());
        assert_eq!(sit.diff, 0.0);
        assert_eq!(sit.histogram.valid_rows(), 6.0);
        assert!((sit.histogram.eq_rows(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sit_over_join_captures_skew() {
        let db = skewed_db();
        let join = Predicate::join(c(0, 1), c(1, 0));
        let sit = Sit::build(&db, c(0, 0), vec![join]).unwrap();
        assert!(!sit.is_base());
        // Join result: x=10 rows of r (a=1, two rows) each match 4 rows of
        // s; x=20 (a=2) match 1; x=30 (a=3) match 1. So a-values over the
        // join: 1×8, 2×2, 3×2 — skewed towards a=1.
        assert_eq!(sit.histogram.valid_rows(), 12.0);
        assert!((sit.histogram.eq_rows(1) - 8.0).abs() < 1e-9);
        // diff: base = (1/3,1/3,1/3), joined = (2/3,1/6,1/6) → ½·(1/3+1/6+1/6)=1/3
        assert!((sit.diff - 1.0 / 3.0).abs() < 1e-9, "diff = {}", sit.diff);
    }

    #[test]
    fn sit_with_independent_join_has_zero_diff() {
        // Every r row matches exactly once → distribution unchanged → the
        // SIT is provably useless (Example 4's argument) and diff = 0.
        let mut db = Database::new();
        db.add_table(
            TableBuilder::new("r")
                .column("a", vec![1, 2, 3])
                .column("x", vec![10, 20, 30])
                .build()
                .unwrap(),
        );
        db.add_table(
            TableBuilder::new("s")
                .column("y", vec![10, 20, 30])
                .build()
                .unwrap(),
        );
        let join = Predicate::join(c(0, 1), c(1, 0));
        let sit = Sit::build(&db, c(0, 0), vec![join]).unwrap();
        assert_eq!(sit.diff, 0.0);
    }

    #[test]
    fn catalog_deduplicates_and_indexes() {
        let db = skewed_db();
        let join = Predicate::join(c(0, 1), c(1, 0));
        let mut catalog = SitCatalog::new();
        let base = catalog.add(Sit::build_base(&db, c(0, 0)).unwrap());
        let joined = catalog.add(Sit::build(&db, c(0, 0), vec![join]).unwrap());
        let dup = catalog.add(Sit::build(&db, c(0, 0), vec![join]).unwrap());
        assert_eq!(joined, dup, "duplicate (attr, cond) collapses");
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.for_attr(c(0, 0)), &[base, joined]);
        assert!(catalog.for_attr(c(1, 1)).is_empty());
        assert_eq!(catalog.iter().count(), 2);
    }

    #[test]
    fn display_shows_expression() {
        let db = skewed_db();
        let sit = Sit::build_base(&db, c(0, 0)).unwrap();
        assert_eq!(sit.to_string(), "SIT(T0.c0)");
        let join = Predicate::join(c(0, 1), c(1, 0));
        let sit = Sit::build(&db, c(0, 0), vec![join]).unwrap();
        assert!(sit.to_string().starts_with("SIT(T0.c0 | "));
    }

    #[test]
    fn cond_is_canonicalized() {
        let db = skewed_db();
        let j = Predicate::join(c(0, 1), c(1, 0));
        let sit = Sit::build(&db, c(0, 0), vec![j, j]).unwrap();
        assert_eq!(sit.cond.len(), 1, "duplicates removed");
    }
}
