//! The one exact engine and the beam. The dense engine answers every
//! exact width (`n ≤ 20` under `Auto`); the beam engine at unbounded
//! width walks the same decomposition space top down and is
//! **bit-identical** to it — values *and* instrumentation (memo / peel /
//! view-matching counts) — across the whole subset lattice, with and
//! without §3.4 pruning, through a warm or cold shared cache, above
//! `n = 16`, under budget cancellation, and with failpoints armed. At
//! bounded width the beam answers in range
//! and reports its work through [`BeamStats`]; and the acceptance
//! headline — a seeded 32-predicate query answers with [`Quality::Beam`]
//! inside its rung's share of a budget instead of falling off the exact
//! engine's `O(3ⁿ)` cliff.

mod common;

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use proptest::prelude::*;

use sqe::core::failpoint::{self, Action};
use sqe::core::{BudgetMeter, CacheKey, SharedEstimatorCache, SitId};
use sqe::engine::table::TableBuilder;
use sqe::prelude::*;
use sqe::service::{EstimationService, ServiceConfig, ShardedCache};

/// Strategy: a 4-table database with 2 columns each, narrow value domain so
/// joins match and histograms are non-trivial.
fn small_db() -> impl Strategy<Value = Database> {
    prop::collection::vec(prop::collection::vec(0i64..8, 2..14), 8).prop_map(|cols| {
        let mut db = Database::new();
        for (t, pair) in cols.chunks(2).enumerate() {
            let n = pair[0].len().min(pair[1].len());
            db.add_table(
                TableBuilder::new(format!("t{t}"))
                    .column("a", pair[0][..n].to_vec())
                    .column("b", pair[1][..n].to_vec())
                    .build()
                    .expect("consistent"),
            );
        }
        db
    })
}

/// Strategy: a predicate over the 4-table schema.
fn pred() -> impl Strategy<Value = Predicate> {
    let colref = (0u32..4, 0u16..2).prop_map(|(t, c)| ColRef::new(TableId(t), c));
    prop_oneof![
        (colref.clone(), 0i64..8, 0i64..8).prop_map(|(c, lo, hi)| Predicate::range(
            c,
            lo.min(hi),
            lo.max(hi)
        )),
        (colref.clone(), 0i64..8).prop_map(|(c, v)| Predicate::filter(c, CmpOp::Eq, v)),
        (colref.clone(), 0i64..8).prop_map(|(c, v)| Predicate::filter(c, CmpOp::Le, v)),
        (colref.clone(), colref.clone()).prop_filter_map("self-column join", |(l, r)| {
            (l.table != r.table).then(|| Predicate::join(l, r))
        }),
    ]
}

/// A query from random predicates (dropping duplicates, which would make
/// subset indexing ambiguous).
fn query() -> impl Strategy<Value = SpjQuery> {
    prop::collection::vec(pred(), 1..8).prop_filter_map("degenerate query", |mut preds| {
        preds.sort_unstable();
        preds.dedup();
        SpjQuery::from_predicates(preds).ok()
    })
}

/// An exact estimator: the dense engine under `Auto`, the top-down walk
/// under `Beam` at unbounded width.
fn exact<'a>(
    db: &'a Database,
    q: &SpjQuery,
    catalog: &'a SitCatalog,
    mode: ErrorMode,
    strategy: DpStrategy,
) -> SelectivityEstimator<'a> {
    SelectivityEstimator::new(db, q, catalog, mode)
        .with_strategy(strategy)
        .with_beam_config(BeamConfig::UNBOUNDED)
}

/// Runs one exact engine over every non-empty subset of the query,
/// returning the raw bits of each `(sel, err)`.
fn lattice_bits(
    db: &Database,
    q: &SpjQuery,
    catalog: &SitCatalog,
    mode: ErrorMode,
    strategy: DpStrategy,
    cache: Option<&ShardedCache>,
    pruning: bool,
) -> Vec<(u64, u64)> {
    let mut est = exact(db, q, catalog, mode, strategy);
    if let Some(c) = cache {
        est = est.with_shared_cache(c);
    }
    if pruning {
        est = est.with_sit_driven_pruning();
    }
    let n = q.predicates.len();
    (1u32..(1 << n))
        .map(|mask| {
            let (s, e) = est.get_selectivity(PredSet(mask));
            (s.to_bits(), e.to_bits())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense ≡ unbounded beam, bit for bit, across the whole subset
    /// lattice, both error modes, with and without §3.4 pruning — plus
    /// identical instrumentation on an unpruned full-set evaluation (memo
    /// states, peel links, view-matching calls), so the unbounded beam
    /// visits exactly the dense engine's state set. `Auto` runs the dense
    /// engine at every one of these widths.
    #[test]
    fn unbounded_beam_matches_dense_values(
        db in small_db(),
        q in query(),
        pool_i in 0usize..3,
        pruning in any::<bool>(),
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(pool_i))
            .expect("pool build");
        for mode in [ErrorMode::NInd, ErrorMode::Diff] {
            let dense = lattice_bits(&db, &q, &catalog, mode, DpStrategy::Auto, None, pruning);
            let beam = lattice_bits(&db, &q, &catalog, mode, DpStrategy::Beam, None, pruning);
            prop_assert_eq!(&beam, &dense, "mode {:?}", mode);

            // Instrumentation identity on a fresh full-set evaluation.
            let mut d_est = exact(&db, &q, &catalog, mode, DpStrategy::Auto);
            let all = d_est.context().all();
            prop_assert!(!d_est.is_beam() && d_est.dense_work(all).is_some());
            let _ = d_est.get_selectivity(all);
            let mut b_est = exact(&db, &q, &catalog, mode, DpStrategy::Beam);
            let _ = b_est.get_selectivity(all);
            prop_assert_eq!(b_est.stats().memo_entries, d_est.stats().memo_entries);
            prop_assert_eq!(b_est.stats().peel_entries, d_est.stats().peel_entries);
            prop_assert_eq!(b_est.stats().vm_calls, d_est.stats().vm_calls);
        }
    }

    /// Same identity through a shared cross-query cache: values are pure
    /// functions of their keys, so cache warm-up from either engine (or
    /// both, interleaved) never perturbs results.
    #[test]
    fn dense_engine_is_bit_identical_with_shared_cache(
        db in small_db(),
        q in query(),
        pool_i in 0usize..3,
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(pool_i))
            .expect("pool build");
        for mode in [ErrorMode::NInd, ErrorMode::Diff] {
            let baseline = lattice_bits(&db, &q, &catalog, mode, DpStrategy::Beam, None, false);
            // One shared cache, warmed by the unbounded beam, then read by
            // the dense engine — and a fresh cache hit cold by dense.
            let cache = ShardedCache::new(4, 1024);
            let warm =
                lattice_bits(&db, &q, &catalog, mode, DpStrategy::Beam, Some(&cache), false);
            let dense_warm =
                lattice_bits(&db, &q, &catalog, mode, DpStrategy::Auto, Some(&cache), false);
            let cold = ShardedCache::new(4, 1024);
            let dense_cold =
                lattice_bits(&db, &q, &catalog, mode, DpStrategy::Auto, Some(&cold), false);
            prop_assert_eq!(&warm, &baseline, "beam+cache, mode {:?}", mode);
            prop_assert_eq!(&dense_warm, &baseline, "dense on warm cache, mode {:?}", mode);
            prop_assert_eq!(&dense_cold, &baseline, "dense on cold cache, mode {:?}", mode);
        }
    }

    /// The shared cache holds SIT-pair products, never links: a dense
    /// estimate through it asks for no link and for at least one join or
    /// `H3` product, and answers as the cache-free estimator does — value,
    /// memo, peel and view-matching counts — both on the cold cache and,
    /// from a second estimator, on the cache it warmed.
    #[test]
    fn shared_cache_serves_products_and_never_links(
        db in small_db(),
        q in query().prop_filter("a join", |q| q.predicates.iter().any(Predicate::is_join)),
        pool_i in 0usize..3,
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(pool_i))
            .expect("pool build");
        for mode in [ErrorMode::NInd, ErrorMode::Diff] {
            let run = |cache: Option<&dyn SharedEstimatorCache>| {
                let mut est = SelectivityEstimator::new(&db, &q, &catalog, mode);
                if let Some(c) = cache {
                    est = est.with_shared_cache(c);
                }
                assert!(!est.is_beam());
                let (s, e) = est.get_selectivity(est.context().all());
                let st = est.stats();
                (s.to_bits(), e.to_bits(), st.memo_entries, st.peel_entries, st.vm_calls)
            };
            let free = run(None);
            let inner = ShardedCache::new(4, 1024);
            let counting = Counting::new(&inner);
            let cold = run(Some(&counting));
            prop_assert!(counting.products.load(Relaxed) >= 1, "mode {:?}", mode);
            let warm = run(Some(&counting));
            prop_assert_eq!(counting.links.load(Relaxed), 0, "mode {:?}", mode);
            prop_assert_eq!(cold, free, "cold cache, mode {:?}", mode);
            prop_assert_eq!(warm, free, "warm cache, mode {:?}", mode);
        }
    }

    /// Bounded beam stays honest on random queries: every lattice answer
    /// is a finite selectivity in `[0, 1]` with a non-negative error, at
    /// the default width and at the narrowest one.
    #[test]
    fn bounded_beam_answers_stay_in_range(
        db in small_db(),
        q in query(),
        width in 0usize..3,
    ) {
        let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1))
            .expect("pool build");
        let cfg = BeamConfig { width, expansions_cap: 64 };
        let mut est = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
            .with_strategy(DpStrategy::Beam)
            .with_beam_config(cfg);
        let n = q.predicates.len();
        for mask in 1u32..(1 << n) {
            let (s, e) = est.get_selectivity(PredSet(mask));
            prop_assert!(s.is_finite() && (0.0..=1.0).contains(&s), "sel {} at {:#b}", s, mask);
            prop_assert!(e >= 0.0, "err {} at {:#b}", e, mask);
        }
    }
}

/// Counts the estimator's calls into a [`ShardedCache`], links apart
/// from SIT-pair products.
struct Counting<'c> {
    inner: &'c ShardedCache,
    links: AtomicU64,
    products: AtomicU64,
}

impl<'c> Counting<'c> {
    fn new(inner: &'c ShardedCache) -> Self {
        Counting {
            inner,
            links: AtomicU64::new(0),
            products: AtomicU64::new(0),
        }
    }
}

impl SharedEstimatorCache for Counting<'_> {
    fn get_link(&self, key: &CacheKey) -> Option<(f64, f64)> {
        self.links.fetch_add(1, Relaxed);
        self.inner.get_link(key)
    }
    fn put_link(&self, key: CacheKey, value: (f64, f64)) {
        self.links.fetch_add(1, Relaxed);
        self.inner.put_link(key, value);
    }
    fn get_join(&self, pair: (SitId, SitId)) -> Option<f64> {
        self.products.fetch_add(1, Relaxed);
        self.inner.get_join(pair)
    }
    fn put_join(&self, pair: (SitId, SitId), selectivity: f64) {
        self.products.fetch_add(1, Relaxed);
        self.inner.put_join(pair, selectivity);
    }
    fn get_h3(&self, pair: (SitId, SitId)) -> Option<(Histogram, f64)> {
        self.products.fetch_add(1, Relaxed);
        self.inner.get_h3(pair)
    }
    fn put_h3(&self, pair: (SitId, SitId), value: (Histogram, f64)) {
        self.products.fetch_add(1, Relaxed);
        self.inner.put_h3(pair, value);
    }
}

/// Deterministic 12-predicate join chain with filters over
/// [`common::five_tables`]: a 4096-mask lattice, at a width the proptest
/// generator cannot reach.
fn chain_db_and_query() -> (Database, SpjQuery) {
    let db = common::five_tables();
    let c = |t: u32, col: u16| ColRef::new(TableId(t), col);
    let mut preds = vec![
        Predicate::join(c(0, 1), c(1, 0)),
        Predicate::join(c(1, 1), c(2, 0)),
        Predicate::join(c(2, 1), c(3, 0)),
        Predicate::join(c(3, 1), c(4, 0)),
    ];
    for t in 0..4u32 {
        preds.push(Predicate::filter(c(t, 0), CmpOp::Le, (t as i64) + 3));
        preds.push(Predicate::range(c(t, 1), 1, (t as i64) + 4));
    }
    let q = SpjQuery::from_predicates(preds).unwrap();
    assert_eq!(q.predicates.len(), 12);
    (db, q)
}

/// Armed `dp::solve_mask` failpoints under the beam walk: a panic either
/// propagates cleanly (nothing half-committed) or never fires — and then
/// the answer must still be bit-exact. A fresh estimator afterwards is
/// unpolluted either way.
#[test]
fn beam_survives_armed_failpoints() {
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    let mut serial = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff);
    let (ss, se) = serial.get_selectivity(serial.context().all());

    failpoint::arm_with("dp::solve_mask", Action::Panic, 64, None, 7);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut est = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
            .with_strategy(DpStrategy::Beam)
            .with_beam_config(BeamConfig::UNBOUNDED);
        est.get_selectivity(est.context().all())
    }));
    failpoint::disarm("dp::solve_mask");
    if let Ok((s, e)) = outcome {
        assert_eq!(s.to_bits(), ss.to_bits(), "survived arm must be exact");
        assert_eq!(e.to_bits(), se.to_bits(), "survived arm must be exact");
    }
    let mut fresh = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff)
        .with_strategy(DpStrategy::Beam)
        .with_beam_config(BeamConfig::UNBOUNDED);
    let (fs, fe) = fresh.get_selectivity(fresh.context().all());
    assert_eq!(fs.to_bits(), ss.to_bits(), "fresh after chaos");
    assert_eq!(fe.to_bits(), se.to_bits(), "fresh after chaos");
}

/// n = 12 deterministic anchor: unbounded beam ≡ dense on values and
/// every instrumentation counter; the bounded default-width beam answers
/// in range and its [`BeamStats`] account for the pruning it did.
#[test]
fn beam_matches_dense_at_n12_and_reports_bounded_work() {
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    for mode in [ErrorMode::NInd, ErrorMode::Diff] {
        let mut dense = SelectivityEstimator::new(&db, &q, &catalog, mode);
        assert!(!dense.is_beam());
        let (sd, ed) = dense.get_selectivity(dense.context().all());

        let mut unbounded = exact(&db, &q, &catalog, mode, DpStrategy::Beam);
        assert!(unbounded.is_beam());
        let (su, eu) = unbounded.get_selectivity(unbounded.context().all());
        assert_eq!(su.to_bits(), sd.to_bits(), "sel, mode {mode:?}");
        assert_eq!(eu.to_bits(), ed.to_bits(), "err, mode {mode:?}");
        assert_eq!(unbounded.stats().memo_entries, dense.stats().memo_entries);
        assert_eq!(unbounded.stats().peel_entries, dense.stats().peel_entries);
        assert_eq!(unbounded.stats().vm_calls, dense.stats().vm_calls);
        let st = unbounded.beam_stats();
        assert!(st.expansions > 0, "the full set is non-separable");
        assert_eq!(st.pruned, 0, "unbounded width never drops a candidate");
        assert_eq!(st.cap_fallbacks, 0);

        // Bounded beam: in-range answer, strictly less exploration, and
        // observable selection pressure.
        let mut bounded = SelectivityEstimator::new(&db, &q, &catalog, mode)
            .with_strategy(DpStrategy::Beam)
            .with_beam_config(BeamConfig::default());
        let (sb, eb) = bounded.get_selectivity(bounded.context().all());
        assert!(sb.is_finite() && (0.0..=1.0).contains(&sb));
        assert!(eb.is_finite() && eb >= 0.0);
        let bs = bounded.beam_stats().clone();
        assert!(bs.expansions > 0);
        assert!(bs.generated >= bs.scored, "pruning only removes candidates");
        assert!(
            bounded.stats().memo_entries <= unbounded.stats().memo_entries,
            "the bounded frontier visits a subset of the exact state space"
        );
        if let Some(t) = bs.bound_tightness() {
            assert!((0.0..=1.0).contains(&t), "tightness {t} out of range");
        }
    }
}

/// Mid-walk budget cancellation: a quota sized to trip halfway through
/// makes the beam engine abort with the sticky reason (committing nothing
/// wrong), and an `Ok` at the boundary is accepted iff bit-exact.
#[test]
fn beam_budget_trip_aborts_cleanly() {
    let (db, q) = chain_db_and_query();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    let mut serial = SelectivityEstimator::new(&db, &q, &catalog, ErrorMode::Diff);
    let (ss, se) = serial.get_selectivity(serial.context().all());

    // Measure the full cost under the beam engine, then grant half.
    let gauge = Arc::new(BudgetMeter::start(&Budget::unlimited()));
    let mut measured = exact(&db, &q, &catalog, ErrorMode::Diff, DpStrategy::Beam)
        .with_budget_meter(Arc::clone(&gauge));
    measured
        .try_get_selectivity(measured.context().all())
        .expect("unlimited meter cannot trip");
    let quota = (gauge.spent() / 2).max(1);

    let tight = Arc::new(BudgetMeter::start(&Budget::unlimited().with_quota(quota)));
    let mut beam = exact(&db, &q, &catalog, ErrorMode::Diff, DpStrategy::Beam)
        .with_budget_meter(Arc::clone(&tight));
    match beam.try_get_selectivity(beam.context().all()) {
        Err(_) => {
            assert!(tight.tripped().is_some(), "error implies a tripped meter");
        }
        Ok((s, e)) => {
            assert_eq!(s.to_bits(), ss.to_bits(), "boundary Ok must be exact");
            assert_eq!(e.to_bits(), se.to_bits(), "boundary Ok must be exact");
        }
    }

    // The aborted walk committed nothing it shouldn't have.
    let mut fresh = exact(&db, &q, &catalog, ErrorMode::Diff, DpStrategy::Beam);
    let (fs, fe) = fresh.get_selectivity(fresh.context().all());
    assert_eq!(fs.to_bits(), ss.to_bits());
    assert_eq!(fe.to_bits(), se.to_bits());
}

/// Above `n = 16`, where the dense fill takes the open-addressed peel
/// memo, `Auto` still runs the dense engine: an 18-predicate query
/// answers off the dense lattice, with its exact work counted,
/// bit-identical to the unbounded beam on the full set and on a sample of
/// its subsets.
#[test]
fn an_18_predicate_query_runs_the_dense_engine() {
    let (db, q) = common::spread_filters();
    let catalog = build_pool(&db, std::slice::from_ref(&q), PoolSpec::ji(1)).unwrap();
    for mode in [ErrorMode::NInd, ErrorMode::Diff] {
        let mut dense = SelectivityEstimator::new(&db, &q, &catalog, mode);
        let all = dense.context().all();
        assert!(!dense.is_beam());
        assert!(dense.dense_work(all).is_some());
        let mut beam = exact(&db, &q, &catalog, mode, DpStrategy::Beam);
        let mut state = 0x9E37_79B9_u32;
        let sample = (0..64).map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) & all.0
        });
        for mask in std::iter::once(all.0).chain(sample).filter(|&m| m != 0) {
            let (sd, ed) = dense.get_selectivity(PredSet(mask));
            let (sb, eb) = beam.get_selectivity(PredSet(mask));
            assert_eq!(sd.to_bits(), sb.to_bits(), "sel {mask:#b}, mode {mode:?}");
            assert_eq!(ed.to_bits(), eb.to_bits(), "err {mask:#b}, mode {mode:?}");
        }
        assert!(dense.stats().submasks > 0, "the dense lattice answered");
    }
}

/// **Acceptance headline.** A seeded 32-predicate query (7 joins + 25
/// filters over the snowflake) answered through the service's budgeted
/// endpoint returns [`Quality::Beam`] with no degradation: the Auto
/// strategy routes the width to the beam engine, and the beam finishes
/// inside its rung's slice of the budget, where the exact engine's
/// `O(3ⁿ)` walk would exhaust it by orders of magnitude. The budget is a
/// work quota sized from the beam rung's own measured work, so the routing
/// does not depend on the speed of the build. Asked again, it misses the
/// whole-query cache, which holds `Full` answers only. `estimator_bench`
/// asserts the same answer in a release build under
/// [`EstimationService::default_budget`], the 250 ms default deadline.
#[test]
fn seeded_n32_query_answers_beam_within_its_rung_quota() {
    let sf = Snowflake::generate(SnowflakeConfig {
        scale: 0.002,
        min_rows: 100,
        ..Default::default()
    });
    let wl = generate_workload(
        &sf.db,
        &sf.join_edges,
        &sf.filter_columns,
        WorkloadConfig {
            queries: 1,
            joins: 7,
            filters: 25,
            target_selectivity: 0.5,
            seed: 0xBEE5,
        },
    );
    let query = &wl[0];
    assert_eq!(query.predicates.len(), 32);

    let pool = build_pool(&sf.db, &wl, PoolSpec::ji(2)).unwrap();
    // A ladder with the service's defaults measures the beam rung's work.
    // The top rung gets half the quota, so twice that work fits it.
    let work = Ladder::new(&sf.db, &pool, ErrorMode::Diff)
        .estimate(query, &Budget::unlimited().with_quota(u64::MAX))
        .work;
    assert!(work > 0, "the beam rung charges its work");
    let budget = Budget::unlimited().with_quota(2 * work);
    let svc = EstimationService::new(Arc::new(sf.db), pool, ServiceConfig::default());

    for _ in 0..2 {
        let got = svc
            .estimate_with_budget(query, &budget)
            .expect("no admission pressure from a single caller");
        assert_eq!(
            got.quality,
            Quality::Beam,
            "n = 32 must route to the beam engine and finish its rung \
             (degraded to {:?})",
            got.degraded_reason
        );
        assert_eq!(got.degraded_reason, None, "no rung was abandoned");
        assert!(
            !got.cached,
            "a beam answer never enters the whole-query cache"
        );
        assert!(
            got.selectivity.is_finite() && (0.0..=1.0).contains(&got.selectivity),
            "selectivity {}",
            got.selectivity
        );
        assert!(got.cardinality >= 0.0 && got.cardinality.is_finite());
    }
}
