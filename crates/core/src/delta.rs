//! Live catalogs: delta ingest with incremental SIT maintenance.
//!
//! The rest of this workspace builds a [`SitCatalog`] once and estimates
//! against a frozen snapshot. [`LiveCatalog`] closes that gap: it owns a
//! database plus its catalog and consumes [`DeltaBatch`] streams, keeping
//! every SIT *provably close* to the data it summarizes.
//!
//! ## The maintenance ladder
//!
//! Per batch, each SIT falls into one of three regimes (cheapest first):
//!
//! 1. **Incremental merge** — base-table histograms (`cond = ∅`) whose
//!    column changed fold the batch's value flow straight into their
//!    buckets ([`sqe_histogram::merge_delta`]). Mass stays exact; each
//!    merged op perturbs a range estimate by at most one row.
//! 2. **Drift-triggered rebuild** — after a merge, the maintained
//!    histogram is compared against the histogram captured at the last
//!    rebuild with the §3.5 `diff` metric
//!    ([`sqe_histogram::diff_from_histograms`]). Past
//!    [`DeltaConfig::drift_threshold`] the distribution has genuinely
//!    moved and the SIT rebuilds from the live data.
//! 3. **Staleness-bound rebuild** — join SITs (`cond ≠ ∅`) cannot merge
//!    incrementally (their histogram lives over a query expression's
//!    result, which a row delta does not localize), and merged base SITs
//!    accumulate placement error. Both carry a per-SIT op counter; when
//!    `ops_since_refresh / rows_at_refresh` would exceed
//!    [`DeltaConfig::max_staleness`], the SIT rebuilds.
//!
//! The invariant after every [`LiveCatalog::ingest`]: every SIT's
//! staleness is within the declared bound, and SITs over untouched tables
//! are not rebuilt (their [`SitId`]s — and any cache entries keyed by
//! them — stay valid, which is what makes the service's partial installs
//! cheap).
//!
//! Ingest is transactional: the successor database and all rebuilds are
//! computed *before* any state commits, so a panic mid-ingest (the
//! `delta::apply_batch` failpoint sits at the top for exactly this) leaves
//! the catalog at the previous batch boundary, ready to retry.

use sqe_engine::delta::{apply_batch, DeltaBatch};
use sqe_engine::{Database, Result as EngineResult, TableId};
use sqe_histogram::{diff_from_histograms, merge_delta, Histogram};

use crate::failpoint;
use crate::sit::{Sit, SitCatalog, SitId, SitOptions};

/// Maintenance knobs for a [`LiveCatalog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaConfig {
    /// Per-SIT staleness bound: the maximum tolerated
    /// `ops_since_refresh / rows_at_refresh` ratio. Crossing it forces a
    /// rebuild during the ingest that crossed it.
    pub max_staleness: f64,
    /// Rebuild when the maintained histogram's `diff` against its
    /// last-rebuilt self exceeds this (base SITs only — join SITs have no
    /// maintained histogram to compare).
    pub drift_threshold: f64,
    /// Histogram construction options for rebuilds (must match the
    /// options the catalog was originally built with for bit-identical
    /// refreshes).
    pub opts: SitOptions,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        DeltaConfig {
            max_staleness: 0.10,
            drift_threshold: 0.05,
            opts: SitOptions::default(),
        }
    }
}

/// Per-SIT maintenance state.
#[derive(Debug, Clone)]
struct SitState {
    /// Row ops affecting this SIT since its last rebuild.
    ops_since_refresh: usize,
    /// Base-expression row count at the last rebuild (staleness
    /// denominator).
    rows_at_refresh: usize,
    /// Last measured drift (`diff` of the maintained histogram vs the
    /// one captured at the last rebuild). Always 0 for join SITs.
    drift: f64,
    /// The histogram as of the last rebuild — the drift baseline.
    baseline: Histogram,
}

/// What one [`LiveCatalog::ingest`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Sequence number of the ingested batch.
    pub batch_seq: u64,
    /// Row ops applied to the database.
    pub ops_applied: usize,
    /// Distinct tables the batch touched, ascending.
    pub tables_touched: Vec<TableId>,
    /// Base SITs maintained by incremental bucket merge.
    pub merges: usize,
    /// SITs rebuilt because merged drift crossed the threshold.
    pub drift_rebuilds: usize,
    /// SITs rebuilt because the staleness bound was crossed.
    pub staleness_rebuilds: usize,
    /// Every SIT rebuilt this ingest (drift + staleness), ascending.
    pub sits_refreshed: Vec<SitId>,
    /// Every SIT maintained by incremental merge this ingest, ascending.
    /// Their ids are stable but their *histograms changed*: any cached
    /// product computed from the old histogram (SIT-pair join
    /// selectivities, `H3` products) is stale, exactly as for
    /// [`IngestReport::sits_refreshed`].
    pub sits_merged: Vec<SitId>,
    /// Affected SITs left in place (merged or deferred within bounds).
    pub sits_deferred: usize,
}

impl IngestReport {
    /// Total SITs rebuilt this ingest.
    pub fn rebuilds(&self) -> usize {
        self.sits_refreshed.len()
    }
}

/// A database plus its SIT catalog, kept current under a mutation stream.
#[derive(Debug, Clone)]
pub struct LiveCatalog {
    db: Database,
    catalog: SitCatalog,
    config: DeltaConfig,
    states: Vec<SitState>,
    batches_ingested: u64,
    ops_ingested: u64,
}

impl LiveCatalog {
    /// Wraps a database and a catalog *built from that database* for live
    /// maintenance. Every SIT starts fresh (zero staleness, zero drift).
    pub fn new(db: Database, catalog: SitCatalog, config: DeltaConfig) -> Self {
        let states = catalog
            .iter()
            .map(|(_, sit)| SitState {
                ops_since_refresh: 0,
                rows_at_refresh: expr_rows(&db, sit),
                drift: 0.0,
                baseline: sit.histogram.clone(),
            })
            .collect();
        LiveCatalog {
            db,
            catalog,
            config,
            states,
            batches_ingested: 0,
            ops_ingested: 0,
        }
    }

    /// The current database state.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The maintained catalog.
    pub fn catalog(&self) -> &SitCatalog {
        &self.catalog
    }

    /// The maintenance configuration.
    pub fn config(&self) -> &DeltaConfig {
        &self.config
    }

    /// Batches ingested so far.
    pub fn batches_ingested(&self) -> u64 {
        self.batches_ingested
    }

    /// Row ops ingested so far.
    pub fn ops_ingested(&self) -> u64 {
        self.ops_ingested
    }

    /// One SIT's staleness: affected ops since its last rebuild over the
    /// rows its expression had then. 0 for a freshly (re)built SIT.
    pub fn staleness(&self, id: SitId) -> f64 {
        let s = &self.states[id.0 as usize];
        s.ops_since_refresh as f64 / s.rows_at_refresh.max(1) as f64
    }

    /// One SIT's last measured drift (base SITs only; 0 otherwise).
    pub fn drift(&self, id: SitId) -> f64 {
        self.states[id.0 as usize].drift
    }

    /// The largest staleness across the catalog — the number the ingest
    /// soak asserts stays bounded.
    pub fn max_staleness_observed(&self) -> f64 {
        (0..self.states.len())
            .map(|i| self.staleness(SitId(i as u32)))
            .fold(0.0, f64::max)
    }

    /// Ingests one batch: applies it to the database and walks the
    /// maintenance ladder for every affected SIT. On error (malformed
    /// batch) the catalog is untouched.
    pub fn ingest(&mut self, batch: &DeltaBatch) -> EngineResult<IngestReport> {
        failpoint::fire("delta::apply_batch");
        let (next_db, log) = apply_batch(&self.db, batch)?;
        let touched = log.tables_touched();

        let mut report = IngestReport {
            batch_seq: batch.seq,
            ops_applied: log.ops_applied(),
            tables_touched: touched.clone(),
            ..IngestReport::default()
        };

        // Stage every catalog change; commit only when the whole batch
        // resolved (rebuilds can fail on a malformed catalog/db pair).
        let mut replacements: Vec<(SitId, Sit, SitState)> = Vec::new();
        for (id, sit) in self.catalog.iter() {
            let affected = sit_tables(sit).any(|t| touched.contains(&t));
            if !affected {
                continue;
            }
            let state = &self.states[id.0 as usize];
            let weight = affected_ops(&log, sit);
            if weight == 0 {
                // The table was touched but this SIT's columns and
                // expression inputs saw no value flow (e.g. an update to
                // an unrelated column of the same table, logged only for
                // that column). Base SITs are then exactly current; join
                // SITs may still shift, so weight counts table-level ops
                // for them (see `affected_ops`).
                continue;
            }

            let ops_after = state.ops_since_refresh + weight;
            let stale = ops_after as f64 / state.rows_at_refresh.max(1) as f64;

            if sit.is_base() {
                // Regime 1: fold the value flow into the buckets, then
                // check drift (regime 2) and staleness (regime 3).
                let changes = log.for_column(sit.attr);
                let merged = match changes {
                    Some(ch) => merge_delta(
                        &sit.histogram,
                        &ch.inserted,
                        &ch.deleted,
                        ch.null_delta,
                        self.config.opts.buckets,
                    ),
                    None => sit.histogram.clone(),
                };
                let drift = diff_from_histograms(&state.baseline, &merged);
                if drift > self.config.drift_threshold || stale > self.config.max_staleness {
                    let fresh = Sit::build_base_with(&next_db, sit.attr, self.config.opts)?;
                    let state = SitState {
                        ops_since_refresh: 0,
                        rows_at_refresh: expr_rows(&next_db, &fresh),
                        drift: 0.0,
                        baseline: fresh.histogram.clone(),
                    };
                    if drift > self.config.drift_threshold {
                        report.drift_rebuilds += 1;
                    } else {
                        report.staleness_rebuilds += 1;
                    }
                    replacements.push((id, fresh, state));
                } else {
                    report.merges += 1;
                    report.sits_deferred += 1;
                    report.sits_merged.push(id);
                    let merged_sit = Sit {
                        attr: sit.attr,
                        cond: Vec::new(),
                        histogram: merged,
                        diff: 0.0,
                    };
                    let mut next_state = state.clone();
                    next_state.ops_since_refresh = ops_after;
                    next_state.drift = drift;
                    replacements.push((id, merged_sit, next_state));
                }
            } else if stale > self.config.max_staleness {
                // Regime 3 for join SITs: refresh the expression.
                let fresh =
                    Sit::build_with(&next_db, sit.attr, sit.cond.clone(), self.config.opts)?;
                let state = SitState {
                    ops_since_refresh: 0,
                    rows_at_refresh: expr_rows(&next_db, &fresh),
                    drift: 0.0,
                    baseline: fresh.histogram.clone(),
                };
                report.staleness_rebuilds += 1;
                replacements.push((id, fresh, state));
            } else {
                // Within bounds: defer, but remember the debt.
                report.sits_deferred += 1;
                let mut next_state = state.clone();
                next_state.ops_since_refresh = ops_after;
                replacements.push((id, sit.clone(), next_state));
            }
        }

        // Commit.
        self.db = next_db;
        for (id, sit, state) in replacements {
            let rebuilt = state.ops_since_refresh == 0;
            let replaced = self.catalog.replace(id, sit);
            debug_assert!(replaced, "replace preserves attr, id stays valid");
            self.states[id.0 as usize] = state;
            if rebuilt {
                report.sits_refreshed.push(id);
            }
        }
        report.sits_refreshed.sort_unstable();
        report.sits_merged.sort_unstable();
        self.batches_ingested += 1;
        self.ops_ingested += report.ops_applied as u64;
        debug_assert!(
            self.max_staleness_observed() <= self.config.max_staleness + f64::EPSILON,
            "staleness bound violated after ingest"
        );
        Ok(report)
    }

    /// Rebuilds every SIT with outstanding maintenance debt from the
    /// current database. Afterwards the catalog is bit-identical to one
    /// built cold from this database with the same options.
    pub fn refresh_all(&mut self) -> EngineResult<Vec<SitId>> {
        let stale: Vec<SitId> = self
            .catalog
            .iter()
            .filter(|(id, _)| self.states[id.0 as usize].ops_since_refresh > 0)
            .map(|(id, _)| id)
            .collect();
        for &id in &stale {
            let sit = self.catalog.get(id);
            let fresh = Sit::build_with(&self.db, sit.attr, sit.cond.clone(), self.config.opts)?;
            let state = SitState {
                ops_since_refresh: 0,
                rows_at_refresh: expr_rows(&self.db, &fresh),
                drift: 0.0,
                baseline: fresh.histogram.clone(),
            };
            self.catalog.replace(id, fresh);
            self.states[id.0 as usize] = state;
        }
        Ok(stale)
    }
}

/// The tables a SIT's expression reads: `tables(cond) ∪ {attr.table}`.
fn sit_tables(sit: &Sit) -> impl Iterator<Item = TableId> + '_ {
    std::iter::once(sit.attr.table).chain(sit.cond.iter().flat_map(|p| p.tables().iter()))
}

/// How many of the batch's row ops affect this SIT.
///
/// Base SITs count only their own column's value flow (an update to a
/// sibling column cannot move their histogram). Join SITs count every
/// *row op* against any table their expression reads — conservative,
/// since any of them can change the expression's result, but counted per
/// row, not per column-value movement (an insert into an 8-column fact
/// table is one op of churn, not eight — per-column weights would inflate
/// staleness by the table arity and force rebuilds arity times too
/// often).
fn affected_ops(log: &sqe_engine::DeltaLog, sit: &Sit) -> usize {
    if sit.is_base() {
        log.for_column(sit.attr).map_or(0, |ch| ch.op_weight())
    } else {
        let tables: Vec<TableId> = {
            let mut t: Vec<TableId> = sit_tables(sit).collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        tables.iter().map(|&t| log.ops_for_table(t)).sum()
    }
}

/// Row count of the SIT's base expression — the staleness denominator.
/// For base SITs the table's rows; for join SITs the attr table's rows
/// (the expression result size would need an execution to know; the attr
/// table bounds how fast its distribution can move).
fn expr_rows(db: &Database, sit: &Sit) -> usize {
    db.row_count(sit.attr.table).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{build_pool, PoolSpec};
    use sqe_engine::delta::{RowOp, TableDelta};
    use sqe_engine::table::TableBuilder;
    use sqe_engine::{CmpOp, ColRef, Predicate, SpjQuery};

    fn small_db() -> Database {
        let mut db = Database::new();
        let a: Vec<i64> = (0..60).map(|r| (r % 6) as i64).collect();
        let b: Vec<i64> = (0..60).map(|r| (r % 10) as i64).collect();
        db.add_table(
            TableBuilder::new("r")
                .column("a", a.clone())
                .column("b", b.clone())
                .build()
                .unwrap(),
        );
        db.add_table(
            TableBuilder::new("s")
                .column("a", a)
                .column("c", b)
                .build()
                .unwrap(),
        );
        db
    }

    fn small_catalog(db: &Database) -> SitCatalog {
        let queries = vec![SpjQuery::from_predicates(vec![
            Predicate::join(ColRef::new(TableId(0), 0), ColRef::new(TableId(1), 0)),
            Predicate::filter(ColRef::new(TableId(0), 1), CmpOp::Eq, 3),
            Predicate::filter(ColRef::new(TableId(1), 1), CmpOp::Eq, 4),
        ])
        .unwrap()];
        build_pool(db, &queries, PoolSpec::ji(1)).expect("pool")
    }

    fn insert_r(values: Vec<Option<i64>>) -> DeltaBatch {
        DeltaBatch {
            seq: 0,
            deltas: vec![TableDelta {
                table: TableId(0),
                ops: vec![RowOp::Insert { values }],
            }],
        }
    }

    #[test]
    fn untouched_tables_leave_sits_alone() {
        let db = small_db();
        let catalog = small_catalog(&db);
        let mut live = LiveCatalog::new(db, catalog, DeltaConfig::default());
        let before: Vec<(SitId, Histogram)> = live
            .catalog()
            .iter()
            .map(|(id, s)| (id, s.histogram.clone()))
            .collect();
        let report = live.ingest(&insert_r(vec![Some(2), Some(5)])).unwrap();
        assert_eq!(report.tables_touched, vec![TableId(0)]);
        for (id, hist) in before {
            let sit = live.catalog().get(id);
            if sit_tables(sit).any(|t| t == TableId(0)) {
                continue;
            }
            assert_eq!(sit.histogram, hist, "SIT over untouched table changed");
            assert_eq!(live.staleness(id), 0.0);
        }
    }

    #[test]
    fn small_batches_merge_without_rebuilds() {
        let db = small_db();
        let catalog = small_catalog(&db);
        let mut live = LiveCatalog::new(db, catalog, DeltaConfig::default());
        // One insert into a 60-row table: ~1.7% staleness, no drift.
        let report = live.ingest(&insert_r(vec![Some(2), Some(5)])).unwrap();
        assert!(report.merges > 0, "base SITs over r must merge");
        assert_eq!(report.rebuilds(), 0);
        assert!(live.max_staleness_observed() <= 0.10);
        // The merged histogram saw the new value.
        let (id, _) = live
            .catalog()
            .iter()
            .find(|(_, s)| s.is_base() && s.attr == ColRef::new(TableId(0), 0))
            .expect("base SIT on r.a");
        let h = &live.catalog().get(id).histogram;
        assert_eq!(h.total_rows(), 61.0);
    }

    #[test]
    fn staleness_bound_forces_rebuilds() {
        let db = small_db();
        let catalog = small_catalog(&db);
        let mut live = LiveCatalog::new(
            db,
            catalog,
            DeltaConfig {
                max_staleness: 0.05,
                drift_threshold: 10.0, // unreachable: isolate the staleness path
                ..DeltaConfig::default()
            },
        );
        // 10 ops against 60 rows: 16% > 5% bound somewhere along the way.
        let mut rebuilds = 0;
        for i in 0..10 {
            let r = live
                .ingest(&insert_r(vec![Some(i % 6), Some(i % 10)]))
                .unwrap();
            rebuilds += r.rebuilds();
            assert!(
                live.max_staleness_observed() <= 0.05 + f64::EPSILON,
                "bound must hold after every ingest"
            );
        }
        assert!(rebuilds > 0, "staleness bound must have fired");
    }

    #[test]
    fn heavy_drift_triggers_drift_rebuild() {
        let db = small_db();
        let catalog = small_catalog(&db);
        let mut live = LiveCatalog::new(
            db,
            catalog,
            DeltaConfig {
                max_staleness: 100.0, // unreachable: isolate the drift path
                drift_threshold: 0.10,
                ..DeltaConfig::default()
            },
        );
        // Pour a brand-new modal value into r.a: the distribution moves.
        let mut drift_rebuilds = 0;
        for _ in 0..40 {
            let r = live.ingest(&insert_r(vec![Some(500), Some(5)])).unwrap();
            drift_rebuilds += r.drift_rebuilds;
        }
        assert!(drift_rebuilds > 0, "drift threshold must have fired");
    }

    #[test]
    fn refresh_all_converges_to_cold_build() {
        let db = small_db();
        let catalog = small_catalog(&db);
        let mut live = LiveCatalog::new(db.clone(), catalog, DeltaConfig::default());
        for i in 0..8 {
            live.ingest(&insert_r(vec![Some(i % 6), Some((i * 3) % 10)]))
                .unwrap();
        }
        live.refresh_all().unwrap();
        assert_eq!(live.max_staleness_observed(), 0.0);

        // Cold build from the final database state, same spec.
        let cold = small_catalog(live.db());
        assert_eq!(live.catalog().len(), cold.len());
        for ((id, warm), (_, cold)) in live.catalog().iter().zip(cold.iter()) {
            assert_eq!(warm.attr, cold.attr, "{id:?}");
            assert_eq!(warm.cond, cold.cond, "{id:?}");
            assert_eq!(warm.histogram, cold.histogram, "{id:?}");
            assert_eq!(warm.diff.to_bits(), cold.diff.to_bits(), "{id:?}");
        }
    }

    #[test]
    fn malformed_batch_leaves_catalog_untouched() {
        let db = small_db();
        let catalog = small_catalog(&db);
        let mut live = LiveCatalog::new(db, catalog, DeltaConfig::default());
        let bad = DeltaBatch {
            seq: 9,
            deltas: vec![TableDelta {
                table: TableId(0),
                ops: vec![RowOp::Delete { row: 10_000 }],
            }],
        };
        assert!(live.ingest(&bad).is_err());
        assert_eq!(live.batches_ingested(), 0);
        assert_eq!(live.db().row_count(TableId(0)).unwrap(), 60);
        assert_eq!(live.max_staleness_observed(), 0.0);
    }
}
