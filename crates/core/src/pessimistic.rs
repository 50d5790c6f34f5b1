//! Pessimistic cardinality estimation: guaranteed upper bounds from degree
//! sequences (after Abo Khamis et al., arXiv 2412.00642).
//!
//! A [`BoundSketch`] precomputes, per table, the row count and per-column
//! *maximum degree* — the highest frequency of any single non-NULL value.
//! For an SPJ query those numbers give a sound cardinality bound:
//!
//! * partition the query's tables into connected components of the join
//!   graph; components multiply (their cross product is an upper bound);
//! * within a component, pick a root and grow a spanning tree: each table
//!   `t` joined in through columns `c₁..cₖ` (every join edge connecting it
//!   to the already-covered set) multiplies the bound by
//!   `min_i maxdeg_t(cᵢ)` — no row of the partial result can match more
//!   rows of `t` than its least-permissive join key admits;
//! * minimize over root choices (every choice is sound; the minimum is
//!   just the tightest of them).
//!
//! Filters are ignored — they only shrink the result, so the bound stays
//! sound (and fast: evaluation is `O(|tables|²)` arithmetic, no data
//! access). NULL join keys never match in the engine, so degrees over
//! valid values only are exact. The bound **never degrades to unknown**:
//! any well-formed query over known tables gets a finite sound answer,
//! which is what backs the `Quality::Bound` floor of the degradation
//! ladder and the service's `Estimate::upper_bound` field.

use std::sync::Arc;

use sqe_engine::{Database, Predicate, SpjQuery, TableId};
use sqe_histogram::Frequencies;

use crate::backend::SelectivityBackend;
use crate::failpoint;

/// Per-table degree summary.
#[derive(Debug, Clone, Default)]
struct TableDegrees {
    rows: f64,
    /// Max frequency of any single non-NULL value, per column.
    max_freq: Vec<f64>,
}

/// The degree-sequence bound sketch over one database snapshot.
#[derive(Debug, Clone, Default)]
pub struct BoundSketch {
    tables: Vec<TableDegrees>,
}

impl BoundSketch {
    /// Records every table's row count and, per column, the longest run of
    /// equal values in its sorted frequency list.
    pub fn build(db: &Database) -> Self {
        let mut tables = Vec::with_capacity(db.table_count());
        for t in 0..db.table_count() as u32 {
            let Ok(table) = db.table(TableId(t)) else {
                tables.push(TableDegrees::default());
                continue;
            };
            let max_freq = table
                .columns()
                .iter()
                .map(|col| Frequencies::from_values(col.valid_values()).max_count() as f64)
                .collect();
            tables.push(TableDegrees {
                rows: table.row_count() as f64,
                max_freq,
            });
        }
        BoundSketch { tables }
    }

    /// Guaranteed upper bound on the query's result cardinality. Always
    /// finite for queries over tables the sketch knows; `None` only when a
    /// referenced table is unknown (a sketch/db mismatch).
    pub fn upper_bound(&self, query: &SpjQuery) -> Option<f64> {
        failpoint::fire("pessimistic::bound");
        let tables = &query.tables;
        for &t in tables {
            self.tables.get(t.0 as usize)?;
        }
        // Join edges as (table index, column, table index, column).
        let idx_of = |id: TableId| tables.iter().position(|&t| t == id);
        let mut edges: Vec<(usize, u16, usize, u16)> = Vec::new();
        for p in &query.predicates {
            if let Predicate::Join { left, right } = *p {
                if let (Some(li), Some(ri)) = (idx_of(left.table), idx_of(right.table)) {
                    edges.push((li, left.column, ri, right.column));
                }
            }
        }
        // Components of the join graph (tables with no joins are
        // singletons and contribute their full row count — a cartesian
        // factor).
        let mut comp: Vec<usize> = (0..tables.len()).collect();
        for &(li, _, ri, _) in &edges {
            let (a, b) = (root(&comp, li), root(&comp, ri));
            if a != b {
                comp[a] = b;
            }
        }
        let mut bound = 1.0f64;
        for c in 0..tables.len() {
            if root(&comp, c) != c {
                continue;
            }
            let members: Vec<usize> = (0..tables.len()).filter(|&m| root(&comp, m) == c).collect();
            bound *= self.component_bound(tables, &members, &edges);
        }
        Some(bound)
    }

    /// `min` over root choices of the greedy spanning-tree degree product.
    fn component_bound(
        &self,
        tables: &[TableId],
        members: &[usize],
        edges: &[(usize, u16, usize, u16)],
    ) -> f64 {
        let rows = |m: usize| self.tables[tables[m].0 as usize].rows;
        let deg = |m: usize, col: u16| {
            self.tables[tables[m].0 as usize]
                .max_freq
                .get(col as usize)
                .copied()
                .unwrap_or_else(|| rows(m))
        };
        let mut best = f64::INFINITY;
        for &start in members {
            let mut in_set: Vec<usize> = vec![start];
            let mut b = rows(start);
            // Greedy BFS growth in deterministic member order: each new
            // table contributes the least-permissive degree among every
            // edge tying it to the covered set.
            while in_set.len() < members.len() {
                let mut grown = false;
                for &m in members {
                    if in_set.contains(&m) {
                        continue;
                    }
                    let mut factor = f64::INFINITY;
                    for &(li, lc, ri, rc) in edges {
                        if li == m && in_set.contains(&ri) {
                            factor = factor.min(deg(m, lc));
                        } else if ri == m && in_set.contains(&li) {
                            factor = factor.min(deg(m, rc));
                        }
                    }
                    if factor.is_finite() {
                        b *= factor;
                        in_set.push(m);
                        grown = true;
                    }
                }
                debug_assert!(grown, "members form one connected component");
                if !grown {
                    break;
                }
            }
            best = best.min(b);
        }
        best
    }
}

fn root(comp: &[usize], mut x: usize) -> usize {
    while comp[x] != x {
        x = comp[x];
    }
    x
}

/// The backend wrapper: peels delegate entirely (point estimates are the
/// default machinery's), but the whole-query upper bound is published
/// through the trait for the service's `Estimate::upper_bound` field and
/// the ladder's `Quality::Bound` floor.
#[derive(Debug, Clone)]
pub struct PessimisticBackend {
    sketch: Arc<BoundSketch>,
}

impl PessimisticBackend {
    /// Wraps a prebuilt sketch (share one per database snapshot).
    pub fn new(sketch: Arc<BoundSketch>) -> Self {
        PessimisticBackend { sketch }
    }

    /// Convenience: build the sketch and wrap it.
    pub fn from_db(db: &Database) -> Self {
        PessimisticBackend::new(Arc::new(BoundSketch::build(db)))
    }
}

impl SelectivityBackend for PessimisticBackend {
    fn name(&self) -> &'static str {
        "pessimistic"
    }

    fn upper_bound(&self, query: &SpjQuery) -> Option<f64> {
        self.sketch.upper_bound(query)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use sqe_engine::table::TableBuilder;
    use sqe_engine::{CardinalityOracle, CmpOp, ColRef};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableBuilder::new("r")
                .column("k", vec![0, 0, 1, 1, 1, 2, 3, 3])
                .column("a", vec![1, 2, 3, 4, 5, 6, 7, 8])
                .build()
                .unwrap(),
        );
        db.add_table(
            TableBuilder::new("s")
                .column("k", vec![0, 1, 1, 2, 2, 2, 9])
                .column("b", vec![5, 5, 5, 5, 1, 1, 1])
                .build()
                .unwrap(),
        );
        db
    }

    fn q(preds: Vec<Predicate>) -> SpjQuery {
        SpjQuery::from_predicates(preds).unwrap()
    }

    #[test]
    fn single_join_bound_is_sound_and_reasonably_tight() {
        let db = db();
        let sketch = BoundSketch::build(&db);
        let query = q(vec![Predicate::join(
            ColRef::new(TableId(0), 0),
            ColRef::new(TableId(1), 0),
        )]);
        let bound = sketch.upper_bound(&query).unwrap();
        let truth = CardinalityOracle::new(&db)
            .cardinality(&query.tables, &query.predicates)
            .unwrap() as f64;
        assert!(bound >= truth, "bound {bound} < truth {truth}");
        // r has 8 rows, s's max key degree is 3 → bound ≤ 24, and the
        // other orientation gives 7 × 3 = 21.
        assert!(bound <= 21.0 + 1e-9, "bound {bound} looser than expected");
    }

    #[test]
    fn filters_never_break_soundness() {
        let db = db();
        let sketch = BoundSketch::build(&db);
        let query = q(vec![
            Predicate::join(ColRef::new(TableId(0), 0), ColRef::new(TableId(1), 0)),
            Predicate::filter(ColRef::new(TableId(0), 1), CmpOp::Le, 3),
            Predicate::range(ColRef::new(TableId(1), 1), 5, 5),
        ]);
        let bound = sketch.upper_bound(&query).unwrap();
        let truth = CardinalityOracle::new(&db)
            .cardinality(&query.tables, &query.predicates)
            .unwrap() as f64;
        assert!(bound >= truth);
    }

    #[test]
    fn filter_only_query_is_bounded_by_table_size() {
        let db = db();
        let sketch = BoundSketch::build(&db);
        let query = q(vec![Predicate::filter(
            ColRef::new(TableId(0), 1),
            CmpOp::Le,
            2,
        )]);
        assert_eq!(sketch.upper_bound(&query).unwrap(), 8.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sorted-list sketch records what counting every column in a
        /// hash map records, NULLs, empty and all-NULL columns included.
        #[test]
        fn sketch_equals_a_hash_map_count(
            r in prop::collection::vec(
                (prop::option::of(-8i64..8), prop::option::of(0i64..1000)),
                0..120,
            ),
            s in prop::collection::vec(prop::option::of(-3i64..3), 0..60),
        ) {
            let mut db = Database::new();
            db.add_table(
                TableBuilder::new("r")
                    .nullable_column("k", r.iter().map(|p| p.0).collect())
                    .nullable_column("u", r.iter().map(|p| p.1).collect())
                    .build()
                    .unwrap(),
            );
            db.add_table(
                TableBuilder::new("s")
                    .nullable_column("k", s.clone())
                    .nullable_column("nulls", vec![None; s.len()])
                    .build()
                    .unwrap(),
            );
            let sketch = BoundSketch::build(&db);
            for (t, table) in sketch.tables.iter().enumerate() {
                let table_ref = db.table(TableId(t as u32)).unwrap();
                prop_assert_eq!(table.rows, table_ref.row_count() as f64);
                for (col, &got) in table_ref.columns().iter().zip(&table.max_freq) {
                    let mut freq: HashMap<i64, u64> = HashMap::new();
                    for v in col.iter_valid() {
                        *freq.entry(v).or_insert(0) += 1;
                    }
                    let want = freq.values().copied().max().unwrap_or(0) as f64;
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn multi_edge_between_two_tables_takes_the_tighter_degree() {
        let db = db();
        let sketch = BoundSketch::build(&db);
        // Join on k AND a=b: a/b degrees are tighter than k's on r's side
        // (column a is a key: degree 1).
        let query = q(vec![
            Predicate::join(ColRef::new(TableId(0), 0), ColRef::new(TableId(1), 0)),
            Predicate::join(ColRef::new(TableId(0), 1), ColRef::new(TableId(1), 1)),
        ]);
        let bound = sketch.upper_bound(&query).unwrap();
        let truth = CardinalityOracle::new(&db)
            .cardinality(&query.tables, &query.predicates)
            .unwrap() as f64;
        assert!(bound >= truth);
        // From root s (7 rows), r joins in with degree min(deg_k=3, deg_a=1)=1.
        assert!(bound <= 7.0 + 1e-9, "bound {bound}");
    }
}
