//! SIT pool construction — the `J_i` pools of §5 ("Available SITs").
//!
//! Pool `J_i` contains every SIT of the form `SIT_R(a | Q)` where `Q`
//! consists of **at most `i` join predicates** and both `Q` and `a` are
//! *syntactically present in some query of the workload*. `J_0` is the set
//! of base-table histograms.
//!
//! Two refinements keep pools meaningful (and match the minimality
//! assumption of §3.1):
//!
//! * `Q` must form a *connected* join subgraph, and
//! * `Q` must reference the table of `a` — otherwise `σ_Q(…) × table(a)`
//!   is separable and the SIT provably adds nothing over the base
//!   histogram.
//!
//! SITs sharing the same expression are built from a single execution of
//! that expression, and distinct expressions execute **in parallel**
//! across threads (pool construction is the system's dominant offline
//! cost; the expressions are independent joins over a shared read-only
//! database). Each attribute's base column is counted into one sorted
//! frequency list per build, by whichever worker needs it first; the
//! attribute's base histogram and the `diff` of every SIT on it read that
//! list. The resulting catalog is assembled in a deterministic order, so
//! parallel and sequential builds produce identical catalogs.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use sqe_engine::dsu::Dsu;
use sqe_engine::{
    execute_connected, ColRef, Database, Predicate, Result as EngineResult, SpjQuery, TableId,
};
use sqe_histogram::Frequencies;

use crate::predset::PredSet;
use crate::sit::{base_frequencies, Sit, SitCatalog, SitOptions};

/// Specification of a pool to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSpec {
    /// Maximum number of join predicates per SIT expression (the `i` of
    /// `J_i`). 0 builds base histograms only.
    pub max_join_preds: usize,
}

impl PoolSpec {
    /// The `J_i` pool spec.
    pub fn ji(i: usize) -> Self {
        PoolSpec { max_join_preds: i }
    }
}

/// Builds the `J_i` SIT pool for a workload (paper defaults: maxDiff, 200
/// buckets).
pub fn build_pool(
    db: &Database,
    workload: &[SpjQuery],
    spec: PoolSpec,
) -> EngineResult<SitCatalog> {
    build_pool_with(db, workload, spec, SitOptions::default())
}

/// [`build_pool`] with explicit histogram construction options (ablation).
/// Fans expression executions across all available cores; use
/// [`build_pool_threaded`] to control the thread count.
pub fn build_pool_with(
    db: &Database,
    workload: &[SpjQuery],
    spec: PoolSpec,
    opts: SitOptions,
) -> EngineResult<SitCatalog> {
    let threads = std::thread::available_parallelism()
        .unwrap_or(NonZeroUsize::new(1).expect("1 is non-zero"));
    build_pool_threaded(db, workload, spec, opts, threads)
}

/// [`build_pool_with`] with an explicit worker-thread count. `threads = 1`
/// builds strictly sequentially; any count produces the identical catalog.
pub fn build_pool_threaded(
    db: &Database,
    workload: &[SpjQuery],
    spec: PoolSpec,
    opts: SitOptions,
    threads: NonZeroUsize,
) -> EngineResult<SitCatalog> {
    // 1. Collect SIT definitions (attr, cond) from every query.
    let mut defs: HashMap<(ColRef, Vec<Predicate>), ()> = HashMap::new();
    for query in workload {
        let joins: Vec<Predicate> = query.joins().copied().collect();
        let attrs: Vec<ColRef> = query
            .predicates
            .iter()
            .flat_map(|p| p.columns().iter())
            .collect();
        for &attr in &attrs {
            // Base histogram (J_0 and up).
            defs.entry((attr, Vec::new())).or_default();
            if spec.max_join_preds == 0 || joins.is_empty() {
                continue;
            }
            // Connected join subsets touching attr's table, enumerated by
            // size (Gosper walk) — skips the ≥ i-join masks a full 2ʲ scan
            // would visit and reject.
            let all_joins = PredSet::full(joins.len());
            for k in 1..=spec.max_join_preds.min(joins.len()) {
                for subset_set in all_joins.subsets_of_size(k) {
                    let subset: Vec<Predicate> = subset_set.iter().map(|j| joins[j]).collect();
                    if !subset_connected_with(&subset, attr.table) {
                        continue;
                    }
                    let mut cond = subset;
                    cond.sort_unstable();
                    defs.entry((attr, cond)).or_default();
                }
            }
        }
    }

    // 2. Group definitions by expression so each expression executes once.
    let mut by_cond: HashMap<Vec<Predicate>, Vec<ColRef>> = HashMap::new();
    for (attr, cond) in defs.into_keys() {
        by_cond.entry(cond).or_default().push(attr);
    }

    // 3. Build. Each (expression, attrs) group is independent — it executes
    // its expression once and derives one SIT per attribute — so groups are
    // fanned across worker threads pulling from a shared index. Results
    // land in per-group slots and are assembled in group order, making the
    // catalog identical to a sequential build regardless of thread count
    // or scheduling.
    let mut conds: Vec<(Vec<Predicate>, Vec<ColRef>)> = by_cond.into_iter().collect();
    conds.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then(a.0.cmp(&b.0)));
    for (_, attrs) in &mut conds {
        attrs.sort_unstable();
        attrs.dedup();
    }

    // Every attribute has a base definition, so this lists them all.
    let mut base_attrs: Vec<ColRef> = conds.iter().flat_map(|(_, a)| a.iter().copied()).collect();
    base_attrs.sort_unstable();
    base_attrs.dedup();
    let base_lists: Vec<OnceLock<EngineResult<Frequencies>>> =
        base_attrs.iter().map(|_| OnceLock::new()).collect();
    let base_list = |attr: ColRef| -> EngineResult<&Frequencies> {
        let i = base_attrs
            .binary_search(&attr)
            .expect("every SIT attribute is listed");
        base_lists[i]
            .get_or_init(|| base_frequencies(db, attr))
            .as_ref()
            .map_err(Clone::clone)
    };

    let build_group = |cond: &[Predicate], attrs: &[ColRef]| -> EngineResult<Vec<Sit>> {
        if cond.is_empty() {
            return attrs
                .iter()
                .map(|&attr| Sit::base_from(db, attr, base_list(attr)?, opts))
                .collect();
        }
        let mut tables: Vec<TableId> = cond.iter().flat_map(|p| p.tables().iter()).collect();
        tables.sort_unstable();
        tables.dedup();
        let rows = execute_connected(db, &tables, cond)?;
        attrs
            .iter()
            .map(|&attr| Sit::from_rowset(db, attr, cond.to_vec(), &rows, base_list(attr)?, opts))
            .collect()
    };

    let workers = threads.get().min(conds.len());
    let built: Vec<EngineResult<Vec<Sit>>> = if workers <= 1 {
        conds
            .iter()
            .map(|(cond, attrs)| build_group(cond, attrs))
            .collect()
    } else {
        let slots: Vec<Mutex<Option<EngineResult<Vec<Sit>>>>> =
            conds.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((cond, attrs)) = conds.get(i) else {
                        break;
                    };
                    let result = build_group(cond, attrs);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every group index was claimed by a worker")
            })
            .collect()
    };

    let mut catalog = SitCatalog::new();
    for group in built {
        for sit in group? {
            catalog.add(sit);
        }
    }
    Ok(catalog)
}

/// True when the join predicates form one connected component that includes
/// `anchor`.
fn subset_connected_with(joins: &[Predicate], anchor: TableId) -> bool {
    let mut tables: Vec<TableId> = joins.iter().flat_map(|p| p.tables().iter()).collect();
    tables.sort_unstable();
    tables.dedup();
    let Ok(anchor_idx) = tables.binary_search(&anchor) else {
        return false;
    };
    let mut dsu = Dsu::new(tables.len());
    for p in joins {
        let ts: Vec<usize> = p
            .tables()
            .iter()
            .map(|t| tables.binary_search(&t).expect("table collected above"))
            .collect();
        for w in ts.windows(2) {
            dsu.union(w[0], w[1]);
        }
    }
    (0..tables.len()).all(|i| dsu.same(i, anchor_idx))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use sqe_datagen::{generate_workload, Snowflake, SnowflakeConfig, WorkloadConfig};
    use sqe_engine::table::TableBuilder;
    use sqe_engine::{CmpOp, TableId};
    use sqe_histogram::{build_maxdiff, Histogram};

    fn c(t: u32, col: u16) -> ColRef {
        ColRef::new(TableId(t), col)
    }

    /// Chain r — s — t.
    fn db3() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableBuilder::new("r")
                .column("a", vec![1, 2, 3, 4])
                .column("x", vec![1, 1, 2, 2])
                .build()
                .unwrap(),
        );
        db.add_table(
            TableBuilder::new("s")
                .column("y", vec![1, 2, 2])
                .column("z", vec![7, 8, 9])
                .build()
                .unwrap(),
        );
        db.add_table(
            TableBuilder::new("t")
                .column("w", vec![7, 7, 8])
                .column("v", vec![1, 2, 3])
                .build()
                .unwrap(),
        );
        db
    }

    fn workload(db: &Database) -> Vec<SpjQuery> {
        let _ = db;
        vec![SpjQuery::from_predicates(vec![
            Predicate::join(c(0, 1), c(1, 0)),
            Predicate::join(c(1, 1), c(2, 0)),
            Predicate::filter(c(0, 0), CmpOp::Le, 2),
            Predicate::filter(c(2, 1), CmpOp::Ge, 2),
        ])
        .unwrap()]
    }

    #[test]
    fn j0_contains_only_base_histograms() {
        let db = db3();
        let pool = build_pool(&db, &workload(&db), PoolSpec::ji(0)).unwrap();
        assert!(pool.iter().all(|(_, s)| s.is_base()));
        // Attributes: r.a, r.x, s.y, s.z, t.w, t.v — all referenced.
        assert_eq!(pool.len(), 6);
    }

    #[test]
    fn pools_grow_with_i() {
        let db = db3();
        let wl = workload(&db);
        let p0 = build_pool(&db, &wl, PoolSpec::ji(0)).unwrap();
        let p1 = build_pool(&db, &wl, PoolSpec::ji(1)).unwrap();
        let p2 = build_pool(&db, &wl, PoolSpec::ji(2)).unwrap();
        assert!(p0.len() < p1.len());
        assert!(p1.len() < p2.len());
    }

    #[test]
    fn conditions_are_connected_and_anchored() {
        let db = db3();
        let pool = build_pool(&db, &workload(&db), PoolSpec::ji(2)).unwrap();
        for (_, sit) in pool.iter() {
            if sit.is_base() {
                continue;
            }
            assert!(
                subset_connected_with(&sit.cond, sit.attr.table),
                "{sit} must anchor its attribute's table"
            );
        }
        // SIT(r.a | s ⋈ t) must NOT exist: r.a's table is not in the
        // expression.
        let j_st = Predicate::join(c(1, 1), c(2, 0));
        assert!(
            !pool
                .iter()
                .any(|(_, s)| s.attr == c(0, 0) && s.cond == vec![j_st]),
            "separable SIT should be pruned"
        );
        // SIT(r.a | r ⋈ s) must exist.
        let j_rs = Predicate::join(c(0, 1), c(1, 0));
        assert!(pool
            .iter()
            .any(|(_, s)| s.attr == c(0, 0) && s.cond == vec![j_rs]));
    }

    #[test]
    fn two_join_pool_contains_full_expression_sits() {
        let db = db3();
        let pool = build_pool(&db, &workload(&db), PoolSpec::ji(2)).unwrap();
        // SIT(s.z | r⋈s ∧ s⋈t) should exist (s touches both joins).
        assert!(pool
            .iter()
            .any(|(_, s)| s.attr == c(1, 1) && s.cond.len() == 2));
        // r.a anchored: r⋈s alone, or both joins (connected through s).
        assert!(pool
            .iter()
            .any(|(_, s)| s.attr == c(0, 0) && s.cond.len() == 2));
    }

    #[test]
    fn subset_connectivity_helper() {
        let j_rs = Predicate::join(c(0, 1), c(1, 0));
        let j_st = Predicate::join(c(1, 1), c(2, 0));
        assert!(subset_connected_with(&[j_rs], TableId(0)));
        assert!(subset_connected_with(&[j_rs], TableId(1)));
        assert!(!subset_connected_with(&[j_rs], TableId(2)));
        assert!(subset_connected_with(&[j_rs, j_st], TableId(2)));
        assert!(!subset_connected_with(&[], TableId(0)));
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        let db = db3();
        let wl = workload(&db);
        let opts = SitOptions::default();
        let one = NonZeroUsize::new(1).unwrap();
        let eight = NonZeroUsize::new(8).unwrap();
        let seq = build_pool_threaded(&db, &wl, PoolSpec::ji(2), opts, one).unwrap();
        let par = build_pool_threaded(&db, &wl, PoolSpec::ji(2), opts, eight).unwrap();
        assert_eq!(seq.len(), par.len());
        for ((ia, sa), (ib, sb)) in seq.iter().zip(par.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(sa.attr, sb.attr);
            assert_eq!(sa.cond, sb.cond);
            assert_eq!(
                sa.diff.to_bits(),
                sb.diff.to_bits(),
                "diff must be bit-identical"
            );
            assert_eq!(sa.histogram, sb.histogram);
        }
    }

    /// The `diff` reference: both sides counted into one ordered map.
    fn diff_btree(base: &[i64], expr_result: &[i64]) -> f64 {
        if base.is_empty() || expr_result.is_empty() {
            return 0.0;
        }
        let mut freq: BTreeMap<i64, (u64, u64)> = BTreeMap::new();
        for &v in base {
            freq.entry(v).or_default().0 += 1;
        }
        for &v in expr_result {
            freq.entry(v).or_default().1 += 1;
        }
        let (nb, ne) = (base.len() as f64, expr_result.len() as f64);
        let sum: f64 = freq
            .values()
            .map(|&(fb, fe)| (fb as f64 / nb - fe as f64 / ne).abs())
            .sum();
        (0.5 * sum).clamp(0.0, 1.0)
    }

    /// One SIT built alone, with no shared list: the expression's column
    /// gathered into a `Column`, its histogram built from the values, and
    /// `diff` counted against the base column in a `BTreeMap`.
    fn reference_sit(db: &Database, attr: ColRef, cond: &[Predicate]) -> Sit {
        let base = db.column(attr).unwrap();
        let (values, nulls) = if cond.is_empty() {
            (base.valid_values(), base.null_count())
        } else {
            let mut tables: Vec<TableId> = cond.iter().flat_map(|p| p.tables().iter()).collect();
            tables.sort_unstable();
            tables.dedup();
            let rows = execute_connected(db, &tables, cond).unwrap();
            let col = rows.gather(db, attr).unwrap();
            (col.valid_values(), col.null_count())
        };
        let diff = if cond.is_empty() {
            0.0
        } else {
            diff_btree(&base.valid_values(), &values)
        };
        Sit {
            attr,
            cond: cond.to_vec(),
            histogram: build_maxdiff(&values, nulls, SitOptions::default().buckets),
            diff,
        }
    }

    /// Bucket bounds, `freq` and `distinct` bits, and the NULL count bits.
    fn bits(h: &Histogram) -> (Vec<(i64, i64, u64, u64)>, u64) {
        let buckets = h
            .buckets()
            .iter()
            .map(|b| (b.lo, b.hi, b.freq.to_bits(), b.distinct.to_bits()))
            .collect();
        (buckets, h.null_count().to_bits())
    }

    #[test]
    fn shared_list_pools_equal_sits_built_alone() {
        let sf = Snowflake::generate(SnowflakeConfig {
            scale: 0.002,
            min_rows: 100,
            ..SnowflakeConfig::default()
        });
        let wl = generate_workload(
            &sf.db,
            &sf.join_edges,
            &sf.filter_columns,
            WorkloadConfig {
                queries: 6,
                joins: 3,
                ..WorkloadConfig::default()
            },
        );
        for i in 0..=2 {
            for threads in [1, 2] {
                let threads = NonZeroUsize::new(threads).unwrap();
                let pool = build_pool_threaded(
                    &sf.db,
                    &wl,
                    PoolSpec::ji(i),
                    SitOptions::default(),
                    threads,
                )
                .unwrap();
                assert!(pool.iter().any(|(_, s)| s.histogram.null_count() > 0.0));
                for (_, sit) in pool.iter() {
                    let want = reference_sit(&sf.db, sit.attr, &sit.cond);
                    assert_eq!((sit.attr, &sit.cond), (want.attr, &want.cond));
                    assert_eq!(
                        sit.diff.to_bits(),
                        want.diff.to_bits(),
                        "J{i} at {threads} threads: diff of {sit}"
                    );
                    assert_eq!(
                        bits(&sit.histogram),
                        bits(&want.histogram),
                        "J{i} at {threads} threads: buckets of {sit}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_is_deterministic() {
        let db = db3();
        let wl = workload(&db);
        let a = build_pool(&db, &wl, PoolSpec::ji(2)).unwrap();
        let b = build_pool(&db, &wl, PoolSpec::ji(2)).unwrap();
        assert_eq!(a.len(), b.len());
        for ((_, sa), (_, sb)) in a.iter().zip(b.iter()) {
            assert_eq!(sa.attr, sb.attr);
            assert_eq!(sa.cond, sb.cond);
            assert_eq!(sa.diff, sb.diff);
        }
    }
}
