//! Algorithm `getSelectivity` (Figure 3): the memoized dynamic program that
//! returns the most accurate decomposition of `Sel_R(P)` for a monotonic,
//! algebraic error function.
//!
//! ## Structure
//!
//! `get_selectivity(P)` follows the paper line by line:
//!
//! 1. memo lookup (lines 1–2);
//! 2. if `Sel(P)` is *separable*, recurse on the factors of its standard
//!    decomposition and combine (lines 3–7);
//! 3. otherwise enumerate every atomic decomposition `Sel(P′|Q)·Sel(Q)`
//!    with `P′ ⊆ P`, recursively solve `Sel(Q)`, locally pick the best SITs
//!    for the conditional factor, and keep the decomposition minimizing the
//!    merged error (lines 8–17);
//! 4. memoize and return (lines 18–19).
//!
//! ## Unidimensional factors
//!
//! Like the paper's own experiments, this reproduction uses unidimensional
//! SITs, so a factor `Sel(P′|Q)` with several predicates is approximated by
//! expanding it into the implicit chain
//! `Sel(p₁|p₂…pₘ,Q) · Sel(p₂|p₃…pₘ,Q) · … · Sel(pₘ|Q)` (Example 3's
//! "implicitly applying an atomic decomposition"; joins first, then
//! filters), each link estimated with its own best SIT. Per-link results
//! are memoized on `(predicate, conditioning-set)`, which keeps the `O(3ⁿ)`
//! subset walk cheap: each of the at most `n·2ⁿ` links is estimated once.
//!
//! The `H3` mechanism of §3.3 is supported: a filter on a join attribute
//! may be estimated from the *result histogram* of joining the two side
//! SITs, which covers the join predicate in the conditioning set without
//! any independence assumption.
//!
//! ## The dense subset-lattice engine
//!
//! Every exact answer comes from one engine: the memo is a flat `2ⁿ`-slot
//! [`DenseMemo`] indexed directly by mask, standard decompositions come
//! from a memoized per-mask [`ComponentTable`], and the lattice is filled
//! **bottom-up in ascending popcount order** per non-separable component
//! (every `Sel(Q)` a subset walk reads has fewer predicates than the mask
//! being solved, so it is already a plain indexed load). §3.4 pruning
//! becomes one AND against a subset-OR table. Under [`DpStrategy::Auto`]
//! it runs every query of up to 20 predicates; wider queries, or any
//! query under [`DpStrategy::Beam`], run the top-down
//! [`crate::beam`] search on an open-addressed [`FlatMemo`] instead.
//!
//! At [`BeamConfig::UNBOUNDED`] that search is exhaustive and
//! **bit-identical** to the dense engine: every memo state's value is a
//! pure function of its sub-states' values, both walks run the same
//! descending-submask order with the same strict-`<` tie-break and the
//! same §3.4 keep test, and separable products multiply components in the
//! same ascending order — so visiting the identical state set in a
//! different topological order reproduces the identical `f64`s (the
//! property `tests/beam.rs` pins and the 8-thread determinism suite relies
//! on).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use sqe_engine::{CardinalityOracle, ColRef, Database, Predicate, SpjQuery};
use sqe_histogram::Histogram;

use crate::backend::{DiffBackend, SelectivityBackend};
use crate::beam::{BeamConfig, BeamStats, Scored};
use crate::budget::{BudgetMeter, ExhaustReason};
use crate::cache::SharedEstimatorCache;
use crate::decomposition::ComponentTable;
use crate::error::ErrorMode;
use crate::flat::{peel_key, DenseMemo, FlatMemo, PeelMemo};
use crate::link::{CandIndex, LinkCtx, LinkState, DEFAULT_RANGE_SEL};
use crate::matcher::SitMatcher;
use crate::predset::{PredSet, QueryContext};
use crate::sit::{SitCatalog, SitId};
use crate::sit2::{Sit2Catalog, Sit2Id};

pub(crate) use crate::link::filter_bounds;

/// Default group-count cap when no statistic exists for a grouping
/// attribute.
pub(crate) const DEFAULT_GROUPS: f64 = 100.0;
/// The widest query `Auto` answers exactly, on the dense engine: its
/// `2ⁿ` value table is 16 MiB at `n = 20`, and its `O(3ⁿ)` walk takes
/// seconds there.
const DENSE_MAX: usize = 20;
/// The widest query whose per-link memo takes the dense `n·2ⁿ` layout:
/// 16 MiB at `n = 16`, where 320 MiB at `n = 20` would not be worth it.
/// Wider dense fills use the open-addressed layout.
const DENSE_PEEL_MAX: usize = 16;

/// Which engine answers a query (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DpStrategy {
    /// The exact dense engine up to `n = 20` predicates, the beam above —
    /// the right call unless benchmarking the beam.
    #[default]
    Auto,
    /// Force the beam-search approximate engine (see [`crate::beam`]):
    /// bounded-frontier best-first decomposition search on the sparse
    /// memo, exact only at [`BeamConfig::UNBOUNDED`]. What `Auto` routes
    /// `n > 20` to instead of the exact `O(3ⁿ)` cliff.
    Beam,
}

impl DpStrategy {
    /// Whether an `n`-predicate query runs on the beam-search approximate
    /// engine. `Auto` stays exact through `n = 20` and routes wider
    /// queries to the beam — an *approximate* answer in bounded time
    /// instead of an exact one in O(3ⁿ); the quality ladder labels such
    /// answers [`crate::Quality::Beam`].
    pub fn use_beam(self, n: usize) -> bool {
        match self {
            DpStrategy::Auto => n > DENSE_MAX,
            DpStrategy::Beam => true,
        }
    }
}

/// Instrumentation counters exposed by the estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EstimatorStats {
    /// View-matching calls issued (Figure 6's unit of work).
    pub vm_calls: u64,
    /// Entries in the subset memo (`Sel(P)` values computed).
    pub memo_entries: usize,
    /// Entries in the per-link memo (single-predicate conditional factors).
    pub peel_entries: usize,
    /// Time spent manipulating histograms (Figure 8's "histogram
    /// manipulation" component; the rest of wall time is "decomposition
    /// analysis").
    pub histogram_time: Duration,
    /// Submask iterations the dense fill's non-separable walks ran,
    /// tripped walks included — the unit of the ladder's per-rung cost
    /// rates (see [`DenseWork`]). Zero on the beam engine.
    pub submasks: u64,
    /// Work units charged to the attached [`BudgetMeter`], tripped walks
    /// included (see [`crate::budget`]); zero without a meter.
    pub work: u64,
}

/// The exact work a dense fill does before it answers, counted on the
/// estimator's own [`ComponentTable`] by
/// [`SelectivityEstimator::dense_work`]. Lemma 1 bounds
/// `getSelectivity` at O(3ⁿ); for one query the bound is this count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseWork {
    /// Lattice masks the fill solves — one budget work unit each, so a
    /// quota below this count cannot be met.
    pub masks: u64,
    /// Submask iterations its non-separable walks run: `2^|m| − 1` for
    /// every non-separable mask `m` it solves. §3.4 pruning skips
    /// decompositions inside the walk, not iterations of it, so the count
    /// holds with and without pruning.
    pub submasks: u64,
}

/// Builds a [`LinkCtx`] from the estimator's immutable fields. A macro —
/// not a method — so every call site performs plain disjoint field
/// accesses, leaving `links`, `oracle`, and the memo tables free for
/// simultaneous `&mut` borrows.
macro_rules! link_ctx {
    ($est:expr) => {
        LinkCtx {
            db: $est.db,
            ctx: &$est.ctx,
            catalog: $est.matcher.catalog(),
            mode: $est.mode,
            cand_index: &$est.cand_index,
            sit_cond_masks: &$est.sit_cond_masks,
            sit2: $est.sit2,
            sit2_index: &$est.sit2_index,
            shared: $est.shared,
            backend: &*$est.backend,
        }
    };
}

/// The `getSelectivity` dynamic program for one query.
///
/// The estimator is stateful: the memoization table persists across
/// requests, so during the optimization of a single query every sub-plan's
/// selectivity request after the first reuses prior work (the integration
/// property §4 relies on).
pub struct SelectivityEstimator<'a> {
    db: &'a Database,
    ctx: QueryContext,
    matcher: SitMatcher<'a>,
    mode: ErrorMode,
    /// Mask-based §3.3 candidate index: for every attribute the query's
    /// predicates mention, the catalog's `for_attr` list restricted to SITs
    /// whose condition lies inside this query's predicate set, each paired
    /// with that condition as a mask over the query's predicate indices.
    /// Applicability (`cond ⊆ cset`) and maximality then reduce to bitwise
    /// tests — no predicate materialization or comparisons on the peel path.
    cand_index: CandIndex,
    /// Condition mask per usable SIT (the same masks as `cand_index`, keyed
    /// by id for the `H3` coverage computation).
    sit_cond_masks: HashMap<SitId, u32>,
    /// Mask-based index over the two-attribute SITs, keyed by the `y`
    /// attribute (built when a [`Sit2Catalog`] is attached).
    sit2_index: HashMap<ColRef, Vec<(Sit2Id, u32)>>,
    /// The peel machinery's memoization state (value caches + counters),
    /// a field of its own so the subset walk can borrow it next to the
    /// memo tables — see [`crate::link`].
    links: LinkState,
    /// Submask iterations walked by the dense fill (see
    /// [`EstimatorStats::submasks`]).
    submasks: u64,
    /// Dense subset memo (flat `2ⁿ` table), present iff the dense engine
    /// runs this query — the resolved strategy's one materialization.
    /// Exactly one of `memo_dense`/`memo_sparse` holds this query's
    /// `Sel(P)` values.
    memo_dense: Option<DenseMemo>,
    /// Subset memo of the beam engine (open-addressed, keyed by mask).
    memo_sparse: FlatMemo,
    /// Per-mask standard decompositions, memoized (dense engine only).
    comp_table: Option<ComponentTable>,
    /// Per-link memo keyed by `peel_key(i, cset)` — dense `n·2ⁿ` slots
    /// when the dense engine runs at `n ≤ 16` (the subset walk probes it
    /// hundreds of millions of times at `n = 16`), open-addressed
    /// otherwise.
    peel_memo: PeelMemo,
    /// Knobs of the beam-search approximate engine (only consulted when
    /// the beam engine runs this query).
    beam_cfg: BeamConfig,
    /// Beam-search observability, cumulative over the estimator's
    /// requests (see [`Self::beam_stats`]).
    beam_stats: BeamStats,
    /// §3.4 guidance masks `(attribute mask, condition mask)` reused by
    /// the beam engine as a candidate *generator*; built lazily on the
    /// first beam expansion (independent of the pruning toggle).
    beam_guidance: Option<Vec<(u32, u32)>>,
    /// Live conditioning-set recursion depth of the beam walk (feeds
    /// `BeamStats::frontier_peak`).
    beam_depth: usize,
    oracle: Option<CardinalityOracle<'a>>,
    /// Optional multidimensional SITs (§3.3's `SIT(x, X|Q)`), consulted by
    /// filter peels for carried-`H3` and filter-on-filter estimates.
    sit2: Option<&'a Sit2Catalog>,
    /// §3.4's optional SIT-driven pruning: when set, the subset loop skips
    /// atomic decompositions that no available SIT could improve.
    sit_driven: Option<Vec<(u32, u32)>>,
    /// Subset-OR rollup of `sit_driven` (dense engine only, built lazily):
    /// `prune_table[q]` ORs the attribute masks of every SIT whose
    /// condition fits inside `q`, turning [`keep_decomposition`] into a
    /// single AND.
    prune_table: Option<Vec<u32>>,
    /// Optional cross-query cache of SIT-pair join and `H3` products,
    /// consulted after the per-query memos miss and written back on every
    /// computed product (see [`crate::cache`] for the validity contract).
    shared: Option<&'a dyn SharedEstimatorCache>,
    /// Optional resource meter (see [`crate::budget`]): DP loops charge it
    /// — one unit per lattice mask solved plus one per freshly computed
    /// peel — and unwind with [`ExhaustReason`] once it trips. `None`
    /// leaves every path bit-identical to the unbudgeted estimator.
    meter: Option<BudgetMeter>,
    /// The atomic-estimate backend consulted at the top of every peel (see
    /// [`crate::backend`]). The default [`DiffBackend`] intercepts nothing,
    /// leaving every path bit-identical to the pre-trait estimator.
    backend: Arc<dyn SelectivityBackend>,
}

impl<'a> SelectivityEstimator<'a> {
    /// Creates an estimator for `query` using the SITs in `catalog` ranked
    /// by `mode`. `ErrorMode::Opt` constructs an internal true-cardinality
    /// oracle (it is only of theoretical interest, per §5).
    pub fn new(
        db: &'a Database,
        query: &SpjQuery,
        catalog: &'a SitCatalog,
        mode: ErrorMode,
    ) -> Self {
        let oracle = matches!(mode, ErrorMode::Opt).then(|| CardinalityOracle::new(db));
        let ctx = QueryContext::new(db, query);
        let (cand_index, sit_cond_masks) = build_cand_index(catalog, ctx.predicates());
        let mut est = SelectivityEstimator {
            db,
            ctx,
            matcher: SitMatcher::new(catalog),
            mode,
            cand_index,
            sit_cond_masks,
            sit2_index: HashMap::new(),
            links: LinkState::new(),
            submasks: 0,
            memo_dense: None,
            memo_sparse: FlatMemo::new(),
            comp_table: None,
            peel_memo: PeelMemo::sparse(),
            beam_cfg: BeamConfig::default(),
            beam_stats: BeamStats::default(),
            beam_guidance: None,
            beam_depth: 0,
            oracle,
            sit2: None,
            sit_driven: None,
            prune_table: None,
            shared: None,
            meter: None,
            backend: Arc::new(DiffBackend),
        };
        est.apply_strategy(DpStrategy::Auto);
        est
    }

    /// Replaces the atomic-estimate backend (see [`crate::backend`]).
    /// Passing [`DiffBackend`] explicitly is bit-identical — values and
    /// instrumentation counts — to the default construction.
    pub fn with_backend(mut self, backend: Arc<dyn SelectivityBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the DP engine explicitly (see [`DpStrategy`]). Resets the
    /// subset memo; call before the first estimation.
    pub fn with_strategy(mut self, strategy: DpStrategy) -> Self {
        self.apply_strategy(strategy);
        self
    }

    /// Sets the beam-search knobs (see [`BeamConfig`]); only consulted
    /// when the resolved strategy routes this query to the beam engine.
    pub fn with_beam_config(mut self, cfg: BeamConfig) -> Self {
        self.beam_cfg = cfg;
        self
    }

    /// Whether this estimator's answers come from the beam-search
    /// approximate engine — i.e. the resolved strategy routes this query's
    /// width to the bounded-frontier walk instead of an exact lattice.
    /// Ladder and service label such answers [`crate::Quality::Beam`].
    pub fn is_beam(&self) -> bool {
        self.memo_dense.is_none()
    }

    /// Beam-search instrumentation, cumulative over every request this
    /// estimator served (all zeros when the beam engine never ran). Feeds
    /// the wide-`n` diagnostics in `estimator_bench`.
    pub fn beam_stats(&self) -> &BeamStats {
        &self.beam_stats
    }

    fn apply_strategy(&mut self, strategy: DpStrategy) {
        let n = self.ctx.predicates().len();
        let dense = !strategy.use_beam(n);
        self.memo_dense = dense.then(|| DenseMemo::new(n));
        self.comp_table = dense.then(|| ComponentTable::new(n));
        self.peel_memo = if dense && n <= DENSE_PEEL_MAX {
            PeelMemo::dense(n)
        } else {
            PeelMemo::sparse()
        };
        self.memo_sparse = FlatMemo::new();
        self.prune_table = None;
    }

    /// Attaches a [`BudgetMeter`], which the estimator then owns.
    /// Estimation runs under that meter's deadline / work-quota /
    /// cancellation limits: use [`Self::try_get_selectivity`], which
    /// returns [`ExhaustReason`] when the meter trips mid-fill (the
    /// infallible [`Self::get_selectivity`] panics in that case). Charging
    /// is amortized: the deadline clock is consulted roughly once per
    /// thousand work units, never per mask. The units charged so far are
    /// [`EstimatorStats::work`].
    pub fn with_budget_meter(mut self, meter: BudgetMeter) -> Self {
        self.meter = Some(meter);
        self
    }

    /// Attaches a cross-query shared cache. The estimator consults it when
    /// its own memos miss a SIT-pair join product or `H3` histogram, and
    /// writes every one it computes back, so concurrent and successive
    /// estimators over the same catalog snapshot reuse each other's
    /// histogram joins. Links are recomputed, never shared: they cost less
    /// than a lookup would.
    ///
    /// The cache must only be shared among estimators with an identical
    /// configuration (database, catalogs, pruning) — see [`crate::cache`].
    pub fn with_shared_cache(mut self, cache: &'a dyn SharedEstimatorCache) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Attaches a catalog of two-attribute SITs (§3.3's multidimensional
    /// generalization). Filter peels gain two extra option families: the
    /// carried-`H3` path (grid joined against the far side of a join in
    /// the conditioning set) and filter-conditioned-on-filter estimates.
    pub fn with_sit2_catalog(mut self, catalog: &'a Sit2Catalog) -> Self {
        self.sit2 = Some(catalog);
        // Translate each grid's condition to a predicate-index mask, in
        // `for_y` order; grids conditioned on predicates outside this query
        // can never apply and are dropped (same rule as `cand_index`).
        let preds = self.ctx.predicates();
        let mut index: HashMap<ColRef, Vec<(Sit2Id, u32)>> = HashMap::new();
        for y in query_attrs(preds) {
            let mut list = Vec::new();
            for &id in catalog.for_y(y) {
                if let Some(mask) = cond_to_mask(&catalog.get(id).cond, preds) {
                    list.push((id, mask));
                }
            }
            index.insert(y, list);
        }
        self.sit2_index = index;
        self
    }

    /// Enables the §3.4 SIT-driven pruning: "if the number of available
    /// SITs is small, those SITs can drive the search for the best
    /// decomposition instead of blindly trying a large number of atomic
    /// decompositions that are known not to be successful". The subset loop
    /// then only explores decompositions `Sel(P′|Q)·Sel(Q)` for which some
    /// available non-base SIT has its attribute inside `P′` and its
    /// expression inside `Q` — plus the always-valid `P′ = P` fallback.
    ///
    /// Pruning never changes which SITs are *usable*; it may merely skip
    /// orderings whose estimates coincide with unpruned ones, so accuracy
    /// is preserved in practice while the explored space shrinks sharply.
    pub fn with_sit_driven_pruning(mut self) -> Self {
        self.sit_driven = Some(self.sit_guidance_masks());
        self.prune_table = None;
        self
    }

    /// Per usable non-base SIT, `(attribute-predicate mask, condition
    /// mask)` over this query's predicate indices — the §3.4 masks, shared
    /// by the pruning filter and the beam engine's candidate generator.
    /// SITs whose expression mentions predicates outside the query can
    /// never apply and are dropped.
    fn sit_guidance_masks(&self) -> Vec<(u32, u32)> {
        let mut masks: Vec<(u32, u32)> = Vec::new();
        let preds = self.ctx.predicates();
        for (_, sit) in self.matcher.catalog().iter() {
            if sit.is_base() {
                continue;
            }
            let Some(cond_mask) = cond_to_mask(&sit.cond, preds) else {
                continue;
            };
            let mut attr_mask = 0u32;
            for (i, p) in preds.iter().enumerate() {
                if p.columns().iter().any(|c| c == sit.attr) {
                    attr_mask |= 1 << i;
                }
            }
            if attr_mask != 0 {
                masks.push((attr_mask, cond_mask));
            }
        }
        masks.sort_unstable();
        masks.dedup();
        masks
    }

    /// The query context (predicate indexing).
    pub fn context(&self) -> &QueryContext {
        &self.ctx
    }

    /// Instrumentation snapshot. Entry counts are **occupied** slots of the
    /// flat tables, never their capacity.
    pub fn stats(&self) -> EstimatorStats {
        EstimatorStats {
            // The peel path counts its view-matching calls in the link
            // state; the matcher's own counter covers the remaining
            // callers (e.g. Group-By estimation).
            vm_calls: self.matcher.calls() + self.links.vm_calls,
            memo_entries: self
                .memo_dense
                .as_ref()
                .map_or(self.memo_sparse.len(), DenseMemo::len),
            peel_entries: self.peel_memo.len(),
            histogram_time: self.links.hist_time,
            submasks: self.submasks,
            work: self.meter.as_ref().map_or(0, BudgetMeter::spent),
        }
    }

    /// The exact work a dense fill of `p` does from the current memo
    /// state, without doing it: the masks [`Self::try_get_selectivity`]
    /// would solve and the submask iterations it would walk. `None` unless
    /// the dense engine runs this query. Costs one pass over `p`'s
    /// sub-lattice, whose standard decompositions land in the estimator's
    /// [`ComponentTable`], where the fill reads them again.
    pub fn dense_work(&mut self, p: PredSet) -> Option<DenseWork> {
        let (memo, table) = (self.memo_dense.as_ref()?, self.comp_table.as_mut()?);
        let ctx = &self.ctx;
        let mut work = DenseWork::default();
        if p.is_empty() || memo.get(p.0).is_some() {
            return Some(work);
        }
        // Mirrors `fill_dense`: each unsolved component's sub-lattice,
        // skipping masks already memoized. Ascending submask order finds
        // every part of `m` already in the table.
        let mut rest = p;
        while !rest.is_empty() {
            let c = table.ensure(ctx, rest).0;
            rest = rest.minus(PredSet(c));
            if memo.get(c).is_some() {
                continue;
            }
            let mut m = 0u32;
            loop {
                m = m.wrapping_sub(c) & c;
                if m == 0 {
                    break;
                }
                if memo.get(m).is_some() {
                    continue;
                }
                work.masks += 1;
                if table.ensure(ctx, PredSet(m)).0 == m {
                    work.submasks += (1u64 << m.count_ones()) - 1;
                }
            }
        }
        Some(work)
    }

    /// Most accurate selectivity estimate for the full query.
    pub fn selectivity(&mut self) -> f64 {
        let all = self.ctx.all();
        self.get_selectivity(all).0
    }

    /// Estimated cardinality of the sub-query `σ_P(tables(P)^×)`.
    pub fn cardinality(&mut self, p: PredSet) -> f64 {
        let (sel, _) = self.get_selectivity(p);
        sel * self.ctx.cross_product_size(p) as f64
    }

    /// Algorithm `getSelectivity` (Figure 3): returns `(selectivity,
    /// error)` for the most accurate non-separable decomposition of
    /// `Sel(P)`. Panics if an attached [`BudgetMeter`] trips — budgeted
    /// callers use [`Self::try_get_selectivity`].
    pub fn get_selectivity(&mut self, p: PredSet) -> (f64, f64) {
        self.try_get_selectivity(p)
            .expect("budget exhausted: budgeted callers must use try_get_selectivity")
    }

    /// The fallible form of [`Self::get_selectivity`]: identical values on
    /// success, `Err` with the trip reason when the attached meter
    /// exhausts mid-computation. On `Err` the estimator's memo holds only
    /// complete, exact values (aborted masks are never committed), but the
    /// requested set is unsolved — callers degrade to a cheaper rung
    /// rather than retrying.
    pub fn try_get_selectivity(&mut self, p: PredSet) -> Result<(f64, f64), ExhaustReason> {
        if p.is_empty() {
            return Ok((1.0, 0.0));
        }
        if let Some(r) = self.memo_get(p) {
            return Ok(r);
        }
        if self.memo_dense.is_some() {
            self.fill_dense(p)
        } else {
            self.compute_beam(p)
        }
    }

    /// Memo probe across both layouts.
    #[inline]
    fn memo_get(&self, p: PredSet) -> Option<(f64, f64)> {
        match &self.memo_dense {
            Some(dense) => dense.get(p.0),
            None => self.memo_sparse.get(p.0 as u64),
        }
    }

    /// The memoized first standard-decomposition factor of `set` (dense
    /// engine; computes and caches on first touch).
    #[inline]
    fn first_comp(&mut self, set: PredSet) -> PredSet {
        self.comp_table
            .as_mut()
            .expect("first_comp is dense-engine only")
            .ensure(&self.ctx, set)
    }

    /// Dense engine entry point: fills the flat tables bottom-up for `p`
    /// (not yet memoized, non-empty) and returns its value.
    fn fill_dense(&mut self, p: PredSet) -> Result<(f64, f64), ExhaustReason> {
        if self.sit_driven.is_some() && self.prune_table.is_none() {
            self.build_prune_table();
        }
        let first = self.first_comp(p);
        if first == p {
            return self.fill_component(p);
        }
        // Separable (lines 4-7): solve each factor's sub-lattice, multiply
        // in ascending component order — the beam's product, bit for bit.
        let mut sel = 1.0;
        let mut err = 0.0;
        let mut rest = p;
        while !rest.is_empty() {
            let c = self.first_comp(rest);
            rest = rest.minus(c);
            let (s, e) = match self.memo_get(c) {
                Some(r) => r,
                None => self.fill_component(c)?,
            };
            sel *= s;
            err += e;
        }
        let result = (sel, err);
        self.memo_dense
            .as_mut()
            .expect("dense engine active")
            .set(p.0, result);
        Ok(result)
    }

    /// Fills every subset of the non-separable component `comp` in
    /// ascending popcount order. Each mask's dependencies (its proper
    /// subsets) are complete before it is solved, so every `Sel(Q)` the
    /// subset walk needs is a plain indexed load by the time it is read.
    fn fill_component(&mut self, comp: PredSet) -> Result<(f64, f64), ExhaustReason> {
        for k in 1..=comp.len() {
            for m in comp.subsets_of_size(k) {
                if self.memo_get(m).is_some() {
                    continue;
                }
                let result = self.solve_mask(m)?;
                self.memo_dense
                    .as_mut()
                    .expect("dense engine active")
                    .set(m.0, result);
            }
        }
        Ok(self
            .memo_get(comp)
            .expect("comp is its own final popcount rank"))
    }

    /// Solves one not-yet-memoized mask of the dense lattice, all proper
    /// subsets already filled.
    fn solve_mask(&mut self, m: PredSet) -> Result<(f64, f64), ExhaustReason> {
        crate::failpoint::fire("dp::solve_mask");
        if let Some(meter) = &self.meter {
            meter.charge(1)?;
        }
        if self.first_comp(m) == m {
            return self.solve_nonseparable(m);
        }
        // Separable submask: multiply its components, all filled in earlier
        // ranks, in ascending first-component order.
        let mut sel = 1.0;
        let mut err = 0.0;
        let mut rest = m;
        while !rest.is_empty() {
            let c = self.first_comp(rest);
            rest = rest.minus(c);
            let (s, e) = self
                .memo_get(c)
                .expect("component filled in an earlier popcount rank");
            sel *= s;
            err += e;
        }
        Ok((sel, err))
    }

    /// Lines 9-17 for a non-separable mask on the dense engine: every
    /// atomic decomposition `Sel(P′|Q)·Sel(Q)`, with `Sel(Q)` read straight
    /// from the flat table. Same descending-submask order and strict-`<`
    /// tie-break as the beam's walk at unbounded width — bit-identical by
    /// construction. A budget trip, polled every [`POLL_STRIDE`]
    /// iterations, aborts the walk before `m` is committed.
    fn solve_nonseparable(&mut self, m: PredSet) -> Result<(f64, f64), ExhaustReason> {
        let lc = link_ctx!(self);
        let memo = self.memo_dense.as_ref().expect("dense engine active");
        let prune = self.prune_table.as_deref();
        let peel_memo = &mut self.peel_memo;
        let links = &mut self.links;
        let oracle = &mut self.oracle;
        let meter = self.meter.as_ref();
        let walked = &mut self.submasks;
        let mut polls = 0u32;
        let mut best_err = f64::INFINITY;
        let mut best_sel = DEFAULT_RANGE_SEL.powi(m.len() as i32);
        let mut iters = 0u32;
        for p_prime in m.subsets() {
            iters = iters.wrapping_add(1);
            if iters.is_multiple_of(POLL_STRIDE) {
                if let Err(e) = abort_poll(meter, &mut polls) {
                    *walked += u64::from(iters);
                    return Err(e);
                }
            }
            let q = m.minus(p_prime);
            if let Some(table) = prune {
                let keep = p_prime == m || table[q.0 as usize] & p_prime.0 != 0;
                if !keep {
                    continue;
                }
            }
            let (sel_q, err_q) = if q.is_empty() {
                (1.0, 0.0)
            } else {
                memo.get(q.0).expect("proper subsets fill in earlier ranks")
            };
            let (sel_f, err_f) = factor_with(
                [lc.ctx.joins_in(p_prime), lc.ctx.filters_in(p_prime)],
                p_prime,
                q,
                |i, cset| {
                    let key = peel_key(i, cset.0);
                    if let Some(r) = peel_memo.get(key) {
                        return r;
                    }
                    let result = crate::link::compute_peel(&lc, links, oracle, i, cset);
                    peel_memo.insert(key, result);
                    if let Some(mt) = meter {
                        // Sticky: the walk's next poll observes the trip.
                        let _ = mt.charge(1);
                    }
                    result
                },
            );
            let total = err_f + err_q;
            if total < best_err {
                best_err = total;
                best_sel = (sel_f * sel_q).clamp(0.0, 1.0);
            }
        }
        *walked += u64::from(iters);
        Ok((best_sel, best_err))
    }

    /// Subset-OR rollup of the §3.4 masks: `prune_table[q] = ⋃ {attr mask
    /// of SITs whose condition ⊆ q}`, so that `p_prime == m || table[q] &
    /// p_prime != 0` is exactly [`keep_decomposition`]. Built with the
    /// standard sum-over-subsets pass (one bit per round). Each round ORs the
    /// lower half of every `2·bit` block into the upper half in 4-mask
    /// strips — branch-free and autovectorizable, unlike the classic
    /// per-mask `if m & bit` walk, and bit-for-bit the same table.
    fn build_prune_table(&mut self) {
        let n = self.ctx.predicates().len();
        let mut table = vec![0u32; 1usize << n];
        if let Some(masks) = &self.sit_driven {
            for &(a, c) in masks {
                table[c as usize] |= a;
            }
        }
        for b in 0..n {
            let bit = 1usize << b;
            let mut s = 0usize;
            while s < table.len() {
                let (lo, hi) = table[s..s + 2 * bit].split_at_mut(bit);
                let mut src = lo.chunks_exact(4);
                let mut dst = hi.chunks_exact_mut(4);
                for (d, s4) in dst.by_ref().zip(src.by_ref()) {
                    d[0] |= s4[0];
                    d[1] |= s4[1];
                    d[2] |= s4[2];
                    d[3] |= s4[3];
                }
                for (d, s1) in dst.into_remainder().iter_mut().zip(src.remainder()) {
                    *d |= *s1;
                }
                s += 2 * bit;
            }
        }
        self.prune_table = Some(table);
    }

    /// The beam-search approximate engine (see [`crate::beam`]): the
    /// paper's top-down recursion on open-addressed memos, where each
    /// non-separable set expands a bounded candidate frontier instead of
    /// every submask. At [`BeamConfig::UNBOUNDED`] every expansion keeps
    /// every submask — values, memo entry sets, and peel counts
    /// bit-identical to the dense engine.
    fn compute_beam(&mut self, p: PredSet) -> Result<(f64, f64), ExhaustReason> {
        crate::failpoint::fire("dp::solve_mask");
        if let Some(meter) = &self.meter {
            meter.charge(1)?;
        }
        let first = self.ctx.first_component(p);
        let result = if first != p {
            // Lines 4-7: separable — exact by Property 2, the beam only
            // approximates inside non-separable components.
            let mut sel = 1.0;
            let mut err = 0.0;
            let mut rest = p;
            while !rest.is_empty() {
                let c = self.ctx.first_component(rest);
                rest = rest.minus(c);
                let (s, e) = self.try_get_selectivity(c)?;
                sel *= s;
                err += e;
            }
            (sel, err)
        } else {
            self.beam_depth += 1;
            self.beam_stats.frontier_peak = self.beam_stats.frontier_peak.max(self.beam_depth);
            let r = self.beam_nonseparable(p);
            self.beam_depth -= 1;
            r?
        };
        self.memo_sparse.insert(p.0 as u64, result);
        Ok(result)
    }

    /// One beam expansion (lines 9-17, bounded): generate a candidate
    /// family, score each candidate's conditional factor (the admissible
    /// lower bound), keep the fallback plus the `width` best, and only
    /// evaluate — i.e. recurse into `Sel(Q)` — the survivors, in the exact
    /// engine's descending-submask order with the same strict-`<`
    /// tie-break. At a width that keeps every submask of `m`
    /// ([`BeamConfig::exhaustive_for`]) the family is every submask and
    /// selection would keep them all, so each candidate is evaluated as
    /// soon as it is scored and the walk holds no candidate list: Figure
    /// 3's exhaustive argmin, so the beam at [`BeamConfig::UNBOUNDED`] is
    /// bit-identical to the dense engine (values, memo entries, peel and
    /// view-matching counts).
    fn beam_nonseparable(&mut self, m: PredSet) -> Result<(f64, f64), ExhaustReason> {
        let cfg = self.beam_cfg;
        let capped = self.beam_stats.expansions >= cfg.expansions_cap;
        self.beam_stats.expansions += 1;
        let exhaustive = !capped && cfg.exhaustive_for(m.len());

        let mut polls = 0u32;
        // Phase 1: generate. Past the expansions cap the set closes with
        // the always-valid `P′ = m` fallback alone (no recursion: its
        // conditioning set is empty), which bounds total work per query.
        // An exhaustive family is `m.subsets()` itself, walked lazily.
        let mut cands = Vec::new();
        if capped {
            self.beam_stats.cap_fallbacks += 1;
            cands.push(m.0);
        } else if !exhaustive {
            if self.beam_guidance.is_none() {
                self.beam_guidance = Some(self.sit_guidance_masks());
            }
            let guidance = self.beam_guidance.as_deref().unwrap_or(&[]);
            crate::beam::generate_candidates(m.0, guidance, &mut cands);
        }
        let family = exhaustive
            .then(|| m.subsets())
            .into_iter()
            .flatten()
            .chain(cands.iter().map(|&mask| PredSet(mask)));

        let mut best_err = f64::INFINITY;
        let mut best_sel = DEFAULT_RANGE_SEL.powi(m.len() as i32);
        let mut best_bound = f64::INFINITY;
        let mut offer = |s: &Scored, (sel_q, err_q): (f64, f64)| {
            let total = s.err_f + err_q;
            if total < best_err {
                best_err = total;
                best_sel = (s.sel_f * sel_q).clamp(0.0, 1.0);
                best_bound = s.err_f;
            }
        };

        // Phase 2: score — the factor error is the admissible bound. The
        // §3.4 keep test runs *before* scoring so pruned candidates cost
        // nothing, exactly as in the exact walks. An exhaustive family
        // recurses here, candidate by candidate.
        let mut scored: Vec<Scored> = Vec::with_capacity(cands.len());
        let (mut generated, mut kept) = (0u64, 0u64);
        let mut iters = 0u32;
        for p_prime in family {
            generated += 1;
            iters = iters.wrapping_add(1);
            if iters.is_multiple_of(POLL_STRIDE) {
                abort_poll(self.meter.as_ref(), &mut polls)?;
            }
            let q = m.minus(p_prime);
            if !keep_decomposition(self.sit_driven.as_deref(), m, p_prime) {
                continue;
            }
            let (sel_f, err_f) = self.factor(p_prime, q);
            let s = Scored {
                mask: p_prime.0,
                sel_f,
                err_f,
            };
            kept += 1;
            if exhaustive {
                offer(&s, self.try_get_selectivity(q)?);
            } else {
                scored.push(s);
            }
        }
        self.beam_stats.generated += generated;
        self.beam_stats.scored += kept;

        // Phase 3: select the frontier.
        let (mut order, mut keep) = (Vec::new(), Vec::new());
        self.beam_stats.pruned +=
            crate::beam::select_width(&scored, cfg.width, &mut order, &mut keep);

        // Phase 4: evaluate a bounded family's survivors.
        for (idx, s) in scored.iter().enumerate() {
            if !keep[idx] {
                continue;
            }
            abort_poll(self.meter.as_ref(), &mut polls)?;
            let q = m.minus(PredSet(s.mask));
            offer(s, self.try_get_selectivity(q)?);
        }
        self.record_tightness(best_bound, best_err);
        Ok((best_sel, best_err))
    }

    /// Accumulates the chosen decomposition's bound tightness
    /// (`err_f / total`, 1 when the recursion contributed nothing) into
    /// the stats — skipped if the set somehow produced no finite argmin.
    fn record_tightness(&mut self, best_bound: f64, best_err: f64) {
        if best_err.is_finite() {
            let t = if best_err > 0.0 {
                (best_bound / best_err).clamp(0.0, 1.0)
            } else {
                1.0
            };
            self.beam_stats.tightness_sum += t;
        }
    }

    /// Approximates the single conditional factor `Sel(P′|Q)` with the best
    /// available SITs, returning `(selectivity, error)`. This is the
    /// building block a Cascades-coupled optimizer calls for each memo
    /// entry (§4.2), where the entry's operator parameters form `P′` and
    /// its inputs form `Q`.
    pub fn conditional_factor(&mut self, p_prime: PredSet, q: PredSet) -> (f64, f64) {
        self.factor(p_prime, q)
    }

    /// Approximates the conditional factor `Sel(P′|Q)` with available SITs
    /// by expanding it into the implicit single-predicate chain (joins
    /// first, then filters, ascending index — see [`factor_with`]).
    fn factor(&mut self, p_prime: PredSet, q: PredSet) -> (f64, f64) {
        factor_with(
            [self.ctx.joins_in(p_prime), self.ctx.filters_in(p_prime)],
            p_prime,
            q,
            |i, cset| self.peel(i, cset),
        )
    }

    /// The atomic decomposition chain `getSelectivity` chose for `p` — a
    /// diagnostics / test hook (the differential accuracy harness reads it
    /// to verify the DP against an exhaustive enumeration of Lemma 1's
    /// decomposition space).
    ///
    /// Solves `p` if it has not been solved yet, then *replays* the
    /// memoized lattice: the same descending-submask walk, §3.4 pruning
    /// test, and strict-`<` tie-break as the fill, reading `Sel(Q)` values
    /// straight from the memo and factors from the peel memo — so the
    /// replay reconstructs exactly the argmin the fill committed, without
    /// re-estimating anything.
    ///
    /// The returned links are in evaluation order: each entry `(P′, Q)` is
    /// one conditional factor `Sel(P′|Q)`, where `Q` is that link's full
    /// conditioning set. Separable sets contribute the concatenation of
    /// their components' chains (Property 2 multiplies the factors, so the
    /// flattened chain is the complete decomposition). Invariants the
    /// harness relies on, for `links = chosen_decomposition(p)`:
    ///
    /// * the `P′` masks partition `p`;
    /// * `Σ conditional_factor(P′,Q).1` over the links equals
    ///   `get_selectivity(p).1` (same additions, same order);
    /// * every link's `Q` is the union of later `P′`s within its component.
    pub fn chosen_decomposition(&mut self, p: PredSet) -> Vec<(PredSet, PredSet)> {
        self.get_selectivity(p);
        let mut links = Vec::new();
        self.replay(p, &mut links);
        links
    }

    /// Replay step: standard decomposition first (lines 4–7), then the
    /// non-separable argmin walk per component (lines 9–17).
    fn replay(&mut self, p: PredSet, out: &mut Vec<(PredSet, PredSet)>) {
        if p.is_empty() {
            return;
        }
        let mut rest = p;
        while !rest.is_empty() {
            let c = self.ctx.first_component(rest);
            rest = rest.minus(c);
            self.replay_nonseparable(c, out);
        }
    }

    /// Replays the subset walk of one solved non-separable mask and
    /// recurses into the chosen conditioning set.
    fn replay_nonseparable(&mut self, m: PredSet, out: &mut Vec<(PredSet, PredSet)>) {
        let mut best_err = f64::INFINITY;
        let mut best = None;
        for p_prime in m.subsets() {
            let q = m.minus(p_prime);
            if !keep_decomposition(self.sit_driven.as_deref(), m, p_prime) {
                continue;
            }
            let (_, err_q) = if q.is_empty() {
                (1.0, 0.0)
            } else {
                self.memo_get(q)
                    .expect("replay runs on a solved lattice: every Q is memoized")
            };
            let (_, err_f) = self.factor(p_prime, q);
            let total = err_f + err_q;
            if total < best_err {
                best_err = total;
                best = Some((p_prime, q));
            }
        }
        let (p_prime, q) = best.expect("a non-empty mask always has the P′ = P decomposition");
        out.push((p_prime, q));
        if !q.is_empty() {
            self.replay(q, out);
        }
    }

    /// Estimates the single-predicate conditional factor `Sel(pᵢ | cset)`,
    /// memoized on `(i, cset)`.
    fn peel(&mut self, i: usize, cset: PredSet) -> (f64, f64) {
        let key = peel_key(i, cset.0);
        if let Some(r) = self.peel_memo.get(key) {
            return r;
        }
        let lc = link_ctx!(self);
        let result = crate::link::compute_peel(&lc, &mut self.links, &mut self.oracle, i, cset);
        self.peel_memo.insert(key, result);
        if let Some(meter) = &self.meter {
            // Sticky: enclosing subset walks observe the trip at their
            // next poll; the computed value itself is exact.
            let _ = meter.charge(1);
        }
        result
    }

    /// The best applicable SIT histogram for `attr` under a predicate
    /// context (used by Group-By estimation). Counts a view-matching call.
    pub(crate) fn best_histogram_for(
        &self,
        attr: sqe_engine::ColRef,
        preds: &[Predicate],
    ) -> Option<&'a Histogram> {
        let candidates = self.matcher.candidates(attr, preds);
        let cset = PredSet::full(preds.len().min(crate::predset::MAX_PREDICATES));
        let (id, _) =
            crate::link::pick_best_opt(self.matcher.catalog(), self.mode, &candidates, cset)?;
        Some(&self.matcher.catalog().get(id).histogram)
    }
}

/// §3.4's keep test for the atomic decomposition `Sel(P′|Q)·Sel(Q)` of
/// `m`, where `Q = m \ P′`: with SIT-driven pruning on (`masks`, the
/// `(attribute, condition)` masks of the usable SITs), keep it only if some
/// SIT has its attribute in `P′` and its expression inside `Q`, or if
/// `P′ = m`, the always-valid fallback. The dense engine reads the same
/// test from its subset-OR rollup of `masks` (`prune_table`).
#[inline]
fn keep_decomposition(masks: Option<&[(u32, u32)]>, m: PredSet, p_prime: PredSet) -> bool {
    let q = m.minus(p_prime);
    masks.is_none_or(|masks| {
        p_prime == m
            || masks
                .iter()
                .any(|&(a, c)| a & p_prime.0 != 0 && c & !q.0 == 0)
    })
}

/// Subset-walk iterations between budget polls inside the non-separable
/// loops of every engine. Together with [`abort_poll`]'s 1-in-16 clock
/// stride, a deadline is observed about once per thousand submask
/// iterations — low overhead, bounded overshoot.
const POLL_STRIDE: u32 = 64;

/// Amortized abort check for subset walks: the sticky-trip check on most
/// calls, a real deadline/cancellation poll on every 16th call of one
/// walk, counted in `calls`. With no meter attached it is `Ok(())`.
fn abort_poll(meter: Option<&BudgetMeter>, calls: &mut u32) -> Result<(), ExhaustReason> {
    let Some(m) = meter else { return Ok(()) };
    *calls = calls.wrapping_add(1);
    if calls.is_multiple_of(16) {
        m.force_poll()
    } else {
        m.check()
    }
}

/// Expands `Sel(P′|Q)` into the implicit single-predicate chain: peels
/// joins first, then filters, each group in ascending index order —
/// iterating the mask bits directly. `groups` is
/// `[joins_in(P′), filters_in(P′)]`, passed pre-split so callers borrow the
/// query context outside the `peel` closure.
fn factor_with(
    groups: [PredSet; 2],
    p_prime: PredSet,
    q: PredSet,
    mut peel: impl FnMut(usize, PredSet) -> (f64, f64),
) -> (f64, f64) {
    let mut remaining = p_prime;
    let mut sel = 1.0;
    let mut err = 0.0;
    for group in groups {
        let mut bits = group.0;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            remaining = remaining.minus(PredSet::singleton(i));
            let cset = q.union(remaining);
            let (s, e) = peel(i, cset);
            sel *= s;
            err += e;
        }
    }
    (sel.clamp(0.0, 1.0), err)
}

/// The distinct attributes mentioned by a query's predicates, in first-use
/// order.
fn query_attrs(preds: &[Predicate]) -> Vec<ColRef> {
    let mut attrs = Vec::new();
    for p in preds {
        for c in p.columns().iter() {
            if !attrs.contains(&c) {
                attrs.push(c);
            }
        }
    }
    attrs
}

/// Translates a SIT condition into a mask over the query's predicate
/// indices; `None` when some condition predicate is not in the query (such
/// a SIT can never be applicable for any conditioning subset).
fn cond_to_mask(cond: &[Predicate], preds: &[Predicate]) -> Option<u32> {
    let mut mask = 0u32;
    for c in cond {
        mask |= 1 << preds.iter().position(|p| p == c)?;
    }
    Some(mask)
}

/// Builds the per-attribute candidate index (consumed by
/// `link::mask_candidates`): for every attribute the query mentions, the
/// catalog's `for_attr` list (order preserved) restricted to usable SITs,
/// with condition masks — plus the id → mask side table.
fn build_cand_index(catalog: &SitCatalog, preds: &[Predicate]) -> (CandIndex, HashMap<SitId, u32>) {
    let mut by_attr = HashMap::new();
    let mut masks = HashMap::new();
    for attr in query_attrs(preds) {
        let mut list = Vec::new();
        for &id in catalog.for_attr(attr) {
            if let Some(mask) = cond_to_mask(&catalog.get(id).cond, preds) {
                masks.insert(id, mask);
                list.push((id, mask));
            }
        }
        by_attr.insert(attr, list);
    }
    (by_attr, masks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sit::Sit;
    use sqe_engine::table::TableBuilder;
    use sqe_engine::{CmpOp, ColRef, TableId};

    fn c(t: u32, col: u16) -> ColRef {
        ColRef::new(TableId(t), col)
    }

    /// r(a, x) ⋈ s(y, b): r.a correlated with fan-out (a=1 rows match 4×).
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

    fn full_catalog(db: &Database) -> SitCatalog {
        let join = Predicate::join(c(0, 1), c(1, 0));
        let mut cat = SitCatalog::new();
        for col in [c(0, 0), c(0, 1), c(1, 0), c(1, 1)] {
            cat.add(Sit::build_base(db, col).unwrap());
            cat.add(Sit::build(db, col, vec![join]).unwrap());
        }
        cat
    }

    fn base_catalog(db: &Database) -> SitCatalog {
        let mut cat = SitCatalog::new();
        for col in [c(0, 0), c(0, 1), c(1, 0), c(1, 1)] {
            cat.add(Sit::build_base(db, col).unwrap());
        }
        cat
    }

    fn query(_db: &Database) -> SpjQuery {
        SpjQuery::from_predicates(vec![
            Predicate::join(c(0, 1), c(1, 0)),
            Predicate::filter(c(0, 0), CmpOp::Eq, 1),
        ])
        .unwrap()
    }

    #[test]
    fn empty_set_is_identity() {
        let db = skewed_db();
        let cat = base_catalog(&db);
        let q = query(&db);
        let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        assert_eq!(est.get_selectivity(PredSet::EMPTY), (1.0, 0.0));
    }

    #[test]
    fn single_filter_matches_base_histogram() {
        let db = skewed_db();
        let cat = base_catalog(&db);
        let q = query(&db);
        let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        // p1 = (r.a = 1): true selectivity 2/6.
        let (sel, err) = est.get_selectivity(PredSet::singleton(1));
        assert!((sel - 1.0 / 3.0).abs() < 1e-9, "sel {sel}");
        assert_eq!(err, 0.0, "unconditioned base estimate has no assumptions");
    }

    #[test]
    fn sits_fix_the_skewed_conditional() {
        // True Sel(a=1 ∧ join) = 8/36. Independence says (1/3)·(6/36)=2/36.
        // With SIT(a|join), getSelectivity should find ≈ 8/36.
        let db = skewed_db();
        let q = query(&db);

        let base_cat = base_catalog(&db);
        let mut base_est = SelectivityEstimator::new(&db, &q, &base_cat, ErrorMode::NInd);
        let base = base_est.selectivity();

        let full_cat = full_catalog(&db);
        let mut sit_est = SelectivityEstimator::new(&db, &q, &full_cat, ErrorMode::NInd);
        let with_sits = sit_est.selectivity();

        let truth = 8.0 / 36.0;
        assert!(
            (with_sits - truth).abs() < (base - truth).abs(),
            "SITs must improve: base {base}, sits {with_sits}, truth {truth}"
        );
        assert!((with_sits - truth).abs() < 0.02, "sit estimate {with_sits}");
    }

    #[test]
    fn error_zero_when_sits_cover_everything() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        let (_, err) = est.get_selectivity(est.context().all());
        // Decomposition Sel(a=1|join)·Sel(join) with SIT(a|join): the
        // filter link is fully covered and the join link unconditioned.
        assert_eq!(err, 0.0);
    }

    #[test]
    fn memoization_reuses_subset_work() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        est.selectivity();
        let calls_after_first = est.stats().vm_calls;
        // Every subset of the query is already memoized: further requests
        // are free.
        est.get_selectivity(PredSet::singleton(0));
        est.get_selectivity(PredSet::singleton(1));
        est.selectivity();
        assert_eq!(est.stats().vm_calls, calls_after_first);
    }

    #[test]
    fn separable_sets_multiply() {
        // Two filters on different tables, no join: Sel must factor.
        let db = skewed_db();
        let q = SpjQuery::from_predicates(vec![
            Predicate::filter(c(0, 0), CmpOp::Eq, 1),
            Predicate::filter(c(1, 1), CmpOp::Le, 2),
        ])
        .unwrap();
        let cat = base_catalog(&db);
        let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        let (s01, _) = est.get_selectivity(est.context().all());
        let (s0, _) = est.get_selectivity(PredSet::singleton(0));
        let (s1, _) = est.get_selectivity(PredSet::singleton(1));
        assert!((s01 - s0 * s1).abs() < 1e-12);
    }

    #[test]
    fn cardinality_scales_by_cross_product() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        let all = est.context().all();
        let card = est.cardinality(all);
        let (sel, _) = est.get_selectivity(all);
        assert!((card - sel * 36.0).abs() < 1e-9);
    }

    #[test]
    fn opt_mode_beats_or_matches_nind() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let truth = 8.0 / 36.0;
        let mut nind = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        let mut opt = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Opt);
        let e_nind = (nind.selectivity() - truth).abs();
        let e_opt = (opt.selectivity() - truth).abs();
        assert!(
            e_opt <= e_nind + 1e-9,
            "Opt ({e_opt}) must not lose to nInd ({e_nind})"
        );
    }

    #[test]
    fn diff_mode_prefers_divergent_sits() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff);
        let truth = 8.0 / 36.0;
        let sel = est.selectivity();
        assert!((sel - truth).abs() < 0.02, "diff-mode estimate {sel}");
    }

    #[test]
    fn fallback_without_any_statistics() {
        let db = skewed_db();
        let q = query(&db);
        let empty = SitCatalog::new();
        let mut est = SelectivityEstimator::new(&db, &q, &empty, ErrorMode::NInd);
        let (sel, err) = est.get_selectivity(est.context().all());
        assert!(sel > 0.0 && sel <= 1.0);
        assert!(err > 0.0, "defaults must carry positive error");
    }

    #[test]
    fn h3_mechanism_estimates_filter_on_join_attribute() {
        // Filter on r.x (the join attribute): H3 = join of SIT(x|·) with
        // SIT(y|·) gives the x-distribution over the join; the estimate is
        // conditioned on the join without extra assumptions.
        let db = skewed_db();
        let q = SpjQuery::from_predicates(vec![
            Predicate::join(c(0, 1), c(1, 0)),
            Predicate::filter(c(0, 1), CmpOp::Eq, 10),
        ])
        .unwrap();
        let cat = base_catalog(&db);
        let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        let (sel, err) = est.get_selectivity(est.context().all());
        // Truth: join is 8 of 36 tuples; among them x=10 in 8 → Sel=8/36·1
        // ... join tuples with x=10: r rows {0,1} × s rows {0,1,2,3} = 8.
        let truth = 8.0 / 36.0;
        assert!((sel - truth).abs() < 0.05, "H3 estimate {sel} vs {truth}");
        assert_eq!(err, 0.0, "H3 covers the entire conditioning set");
    }

    #[test]
    fn sit_driven_pruning_preserves_sit_usage() {
        // §3.4: with pruning, the decomposition that exploits the SIT must
        // still be found.
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut full = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff);
        let mut pruned =
            SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff).with_sit_driven_pruning();
        let all = full.context().all();
        let (sel_full, _) = full.get_selectivity(all);
        let (sel_pruned, _) = pruned.get_selectivity(all);
        assert!(
            (sel_full - sel_pruned).abs() < 1e-9,
            "pruned {sel_pruned} vs full {sel_full}"
        );
        // And the pruned search does no more work than the full one.
        assert!(pruned.stats().peel_entries <= full.stats().peel_entries);
    }

    #[test]
    fn sit_driven_pruning_with_empty_catalog_still_estimates() {
        let db = skewed_db();
        let q = query(&db);
        let empty = SitCatalog::new();
        let mut est =
            SelectivityEstimator::new(&db, &q, &empty, ErrorMode::NInd).with_sit_driven_pruning();
        let all = est.context().all();
        let (sel, _) = est.get_selectivity(all);
        assert!(sel > 0.0 && sel <= 1.0);
    }

    #[test]
    fn sit_driven_pruning_ignores_foreign_sits() {
        // A SIT over predicates not in this query must not enter the
        // pruning mask set.
        let db = skewed_db();
        let q = SpjQuery::from_predicates(vec![Predicate::filter(c(0, 0), CmpOp::Eq, 1)]).unwrap();
        let cat = full_catalog(&db); // contains join-conditioned SITs
        let est =
            SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd).with_sit_driven_pruning();
        let masks = est.sit_driven.as_ref().unwrap();
        assert!(
            masks.is_empty(),
            "join SITs are unusable for a join-free query"
        );
    }

    #[test]
    fn sit2_carried_h3_fixes_filter_through_join() {
        // Filter on r.a, joined through r.x = s.y: the 2-D grid over
        // (r.x, r.a) carries the true conditional, even with only base 1-D
        // statistics available.
        let db = skewed_db();
        let q = query(&db);
        let cat = base_catalog(&db);
        let mut sit2s = crate::sit2::Sit2Catalog::new();
        sit2s.add(crate::sit2::Sit2::build(&db, c(0, 1), c(0, 0), vec![], 16).unwrap());
        let mut est =
            SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff).with_sit2_catalog(&sit2s);
        let all = est.context().all();
        let (sel, _) = est.get_selectivity(all);
        let truth = 8.0 / 36.0;
        assert!(
            (sel - truth).abs() < 0.01,
            "2-D estimate {sel} vs truth {truth}"
        );
        // Without the grid the same catalog underestimates.
        let mut base_only = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff);
        let (base_sel, _) = base_only.get_selectivity(all);
        assert!((base_sel - truth).abs() > (sel - truth).abs());
    }

    #[test]
    fn sit2_filter_on_filter_captures_correlation() {
        // r.a and r.x are perfectly correlated; a query with filters on
        // both is mis-estimated under independence but exact with the grid.
        // (Rows are replicated so the correlation clears the estimator's
        // statistical-significance gate.)
        let mut db = Database::new();
        let rep = |v: &[i64]| -> Vec<i64> {
            v.iter().flat_map(|&x| std::iter::repeat_n(x, 20)).collect()
        };
        db.add_table(
            sqe_engine::table::TableBuilder::new("r")
                .column("a", rep(&[1, 1, 2, 2, 3, 3]))
                .column("x", rep(&[10, 10, 20, 20, 30, 30]))
                .build()
                .unwrap(),
        );
        db.add_table(
            sqe_engine::table::TableBuilder::new("s")
                .column("y", rep(&[10, 10, 10, 10, 20, 30]))
                .column("b", rep(&[1, 2, 3, 4, 5, 6]))
                .build()
                .unwrap(),
        );
        let q = SpjQuery::from_predicates(vec![
            Predicate::filter(c(0, 0), CmpOp::Eq, 1),
            Predicate::filter(c(0, 1), CmpOp::Eq, 10),
        ])
        .unwrap();
        let cat = base_catalog(&db);
        let mut sit2s = crate::sit2::Sit2Catalog::new();
        sit2s.add(crate::sit2::Sit2::build(&db, c(0, 1), c(0, 0), vec![], 16).unwrap());
        let truth = 2.0 / 6.0; // both filters select the same two rows
        let mut with_grid =
            SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff).with_sit2_catalog(&sit2s);
        let all = with_grid.context().all();
        let (sel2, _) = with_grid.get_selectivity(all);
        assert!((sel2 - truth).abs() < 0.01, "grid estimate {sel2}");
        let mut indep = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff);
        let (sel1, _) = indep.get_selectivity(all);
        // Independence: (1/3)·(1/3) = 1/9 ≠ 1/3.
        assert!((sel1 - 1.0 / 9.0).abs() < 0.01, "independence {sel1}");
    }

    #[test]
    fn stats_track_timing_and_memo_sizes() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        est.selectivity();
        let stats = est.stats();
        assert!(stats.memo_entries >= 3);
        assert!(stats.peel_entries >= 2);
        assert!(stats.vm_calls > 0);
    }

    /// The unbounded beam: the top-down walk the dense engine is pinned
    /// against.
    fn unbounded<'a>(
        db: &'a Database,
        q: &SpjQuery,
        cat: &'a SitCatalog,
        mode: ErrorMode,
    ) -> SelectivityEstimator<'a> {
        SelectivityEstimator::new(db, q, cat, mode)
            .with_strategy(DpStrategy::Beam)
            .with_beam_config(BeamConfig::UNBOUNDED)
    }

    #[test]
    fn stats_report_occupied_slots_not_capacity() {
        // The dense memo holds 2ⁿ slots and the flat peel table ≥ 64; the
        // 2-predicate query computes exactly 3 subsets, and the counts must
        // reflect that — identically under both engines.
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut dense = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::NInd);
        dense.selectivity();
        assert_eq!(
            dense.stats().memo_entries,
            3,
            "occupied, not the 4-slot table"
        );
        let mut beam = unbounded(&db, &q, &cat, ErrorMode::NInd);
        beam.selectivity();
        assert_eq!(beam.stats().memo_entries, 3);
        assert_eq!(dense.stats().peel_entries, beam.stats().peel_entries);
        assert!(
            dense.stats().peel_entries < 64,
            "peel count must not report the table's minimum capacity"
        );
    }

    #[test]
    fn strategies_are_bit_identical_on_fixtures() {
        // Deterministic spot-check (the broad randomized version lives in
        // tests/beam.rs): every subset of both fixture queries, dense and
        // unbounded beam, identical bits.
        let db = skewed_db();
        let cat = full_catalog(&db);
        for q in [
            query(&db),
            SpjQuery::from_predicates(vec![
                Predicate::join(c(0, 1), c(1, 0)),
                Predicate::filter(c(0, 0), CmpOp::Eq, 1),
                Predicate::filter(c(1, 1), CmpOp::Le, 3),
                Predicate::filter(c(0, 1), CmpOp::Ge, 10),
            ])
            .unwrap(),
        ] {
            for mode in [ErrorMode::NInd, ErrorMode::Diff] {
                let mut dense = SelectivityEstimator::new(&db, &q, &cat, mode);
                let mut beam = unbounded(&db, &q, &cat, mode);
                let n = q.predicates.len();
                for mask in 1u32..(1 << n) {
                    let p = PredSet(mask);
                    let (sd, ed) = dense.get_selectivity(p);
                    let (sr, er) = beam.get_selectivity(p);
                    assert_eq!(sd.to_bits(), sr.to_bits(), "sel mask {mask:#b}");
                    assert_eq!(ed.to_bits(), er.to_bits(), "err mask {mask:#b}");
                }
            }
        }
    }

    #[test]
    fn sit_driven_pruning_identical_across_strategies() {
        // The dense engine's subset-OR prune table must keep exactly the
        // decompositions `keep_decomposition` keeps.
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut dense =
            SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff).with_sit_driven_pruning();
        let mut beam = unbounded(&db, &q, &cat, ErrorMode::Diff).with_sit_driven_pruning();
        let (sd, ed) = dense.get_selectivity(dense.context().all());
        let (sr, er) = beam.get_selectivity(beam.context().all());
        assert_eq!(sd.to_bits(), sr.to_bits());
        assert_eq!(ed.to_bits(), er.to_bits());
        assert_eq!(dense.stats().peel_entries, beam.stats().peel_entries);
    }

    #[test]
    fn chosen_decomposition_partitions_and_reproduces_the_error() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        for beam in [false, true] {
            for mode in [ErrorMode::NInd, ErrorMode::Diff] {
                let mut est = if beam {
                    unbounded(&db, &q, &cat, mode)
                } else {
                    SelectivityEstimator::new(&db, &q, &cat, mode)
                };
                let all = est.context().all();
                let (_, err) = est.get_selectivity(all);
                let links = est.chosen_decomposition(all);
                // The P′ masks partition the query's predicate set.
                let mut union = PredSet::EMPTY;
                for &(p_prime, _) in &links {
                    assert!(!p_prime.is_empty());
                    assert!(union.intersect(p_prime).is_empty(), "links overlap");
                    union = union.union(p_prime);
                }
                assert_eq!(union, all);
                // Summing the memoized factor errors reproduces the DP's
                // total error.
                let replay_err: f64 = links
                    .iter()
                    .map(|&(p_prime, q)| est.conditional_factor(p_prime, q).1)
                    .sum();
                assert!(
                    (replay_err - err).abs() < 1e-12,
                    "{mode:?}/beam {beam}: replay {replay_err} vs dp {err}"
                );
            }
        }
    }

    #[test]
    fn chosen_decomposition_is_stable_across_engines() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut dense = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff);
        let mut beam = unbounded(&db, &q, &cat, ErrorMode::Diff);
        let all = dense.context().all();
        assert_eq!(
            dense.chosen_decomposition(all),
            beam.chosen_decomposition(all),
            "both engines commit the identical argmin chain"
        );
    }

    /// r(a, x) ⋈ s(y, b) ⋈ t(z, c): a chain of three tables, so random
    /// predicate picks mix separable and non-separable masks.
    fn chain_db() -> Database {
        let mut db = skewed_db();
        db.add_table(
            TableBuilder::new("t")
                .column("z", vec![1, 2, 2, 3, 5, 6, 6])
                .column("c", vec![7, 7, 8, 9, 9, 9, 4])
                .build()
                .unwrap(),
        );
        db
    }

    /// Twelve distinct predicates over [`chain_db`]: both joins and ten
    /// filters.
    fn chain_pool() -> Vec<Predicate> {
        let mut pool = vec![
            Predicate::join(c(0, 1), c(1, 0)),
            Predicate::join(c(1, 1), c(2, 0)),
        ];
        for (col, v) in [
            (c(0, 0), 1),
            (c(0, 1), 20),
            (c(1, 0), 10),
            (c(1, 1), 3),
            (c(2, 0), 2),
            (c(2, 1), 9),
        ] {
            pool.push(Predicate::filter(col, CmpOp::Le, v));
        }
        for (col, v) in [(c(0, 0), 2), (c(1, 1), 5), (c(2, 1), 7), (c(2, 0), 6)] {
            pool.push(Predicate::filter(col, CmpOp::Ge, v));
        }
        pool
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `dense_work` counts exactly what the dense fill then does —
        /// masks solved (each charged one budget unit; every other unit
        /// is a fresh peel) and submask iterations walked — from a fresh
        /// estimator or after a sub-query was solved first, with and
        /// without §3.4 pruning.
        #[test]
        fn dense_work_counts_what_the_fill_does(
            picks in 1u32..1 << 12,
            first in proptest::prelude::any::<u32>(),
            pruned in proptest::prelude::any::<bool>(),
        ) {
            let db = chain_db();
            let pool = chain_pool();
            let mut cat = full_catalog(&db);
            for col in [c(2, 0), c(2, 1)] {
                cat.add(Sit::build_base(&db, col).unwrap());
                cat.add(Sit::build(&db, col, vec![pool[1]]).unwrap());
            }
            // At most ten of the pool's predicates, chosen by `picks`.
            let preds = PredSet(picks).iter().take(10).map(|i| pool[i]).collect();
            let q = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
            let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff)
                .with_budget_meter(BudgetMeter::new(None, None, None));
            if pruned {
                est = est.with_sit_driven_pruning();
            }
            let all = est.context().all();
            est.get_selectivity(PredSet(first & all.0));
            let before = est.stats();
            let work = est.dense_work(all).expect("n ≤ 16 runs the dense engine");
            est.get_selectivity(all);
            let after = est.stats();
            let peels = (after.peel_entries - before.peel_entries) as u64;
            proptest::prop_assert_eq!(work.masks, after.work - before.work - peels);
            proptest::prop_assert_eq!(work.submasks, after.submasks - before.submasks);
            // A second count finds nothing left to do.
            proptest::prop_assert_eq!(est.dense_work(all), Some(DenseWork::default()));
        }
    }

    #[test]
    fn dense_work_is_none_off_the_dense_engine() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        for cfg in [BeamConfig::default(), BeamConfig::UNBOUNDED] {
            let mut est = SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff)
                .with_strategy(DpStrategy::Beam)
                .with_beam_config(cfg);
            let all = est.context().all();
            assert_eq!(est.dense_work(all), None, "{cfg:?}");
            est.get_selectivity(all);
            assert_eq!(est.stats().submasks, 0, "{cfg:?} walks no dense lattice");
        }
    }

    #[test]
    fn chosen_decomposition_respects_pruning() {
        let db = skewed_db();
        let q = query(&db);
        let cat = full_catalog(&db);
        let mut pruned =
            SelectivityEstimator::new(&db, &q, &cat, ErrorMode::Diff).with_sit_driven_pruning();
        let all = pruned.context().all();
        let (sel, err) = pruned.get_selectivity(all);
        let links = pruned.chosen_decomposition(all);
        let replay_err: f64 = links
            .iter()
            .map(|&(p_prime, q)| pruned.conditional_factor(p_prime, q).1)
            .sum();
        assert!((replay_err - err).abs() < 1e-12);
        assert!(sel > 0.0);
    }
}
