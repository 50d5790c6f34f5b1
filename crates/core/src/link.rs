//! Per-link conditional-factor evaluation, factored out of the estimator
//! so the dense subset walk can run it while it holds the memo tables.
//!
//! The split follows the data: everything a peel *reads* is immutable for
//! the lifetime of one `get_selectivity` call and lives in [`LinkCtx`]
//! (plain `&` references, `Copy`); everything a peel *writes* is pure
//! memoization keyed by value-determined keys and lives in [`LinkState`].
//! Every cached value is a pure function of its key (histogram products,
//! per-predicate range estimates, divergences), so a cache hit and a
//! recomputation return the same bits.
//!
//! The one stateful exception is the `Opt`-mode cardinality oracle, which
//! executes queries through `&mut` state; it is threaded through explicitly
//! as `&mut Option<CardinalityOracle>`.

use std::collections::HashMap;
use std::ops::Range;

use sqe_engine::{CardinalityOracle, ColRef, Database, Predicate};
use sqe_histogram::Histogram;

use crate::backend::{PeelQuery, SelectivityBackend};
use crate::cache::SharedEstimatorCache;
use crate::error::ErrorMode;
use crate::predset::{PredSet, QueryContext};
use crate::sit::{SitCatalog, SitId};
use crate::sit2::{Sit2Catalog, Sit2Id};

/// Default equality selectivity when no statistic exists (System R lore).
pub(crate) const DEFAULT_EQ_SEL: f64 = 0.1;
/// Default range / inequality selectivity when no statistic exists.
pub(crate) const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Floor for degenerate estimates, avoiding hard zeros that would wipe out
/// entire decompositions.
pub(crate) const MIN_SEL: f64 = 1e-12;

/// Per-attribute candidate lists with condition masks (see
/// [`mask_candidates`]).
pub(crate) type CandIndex = HashMap<ColRef, Vec<(SitId, u32)>>;

/// The immutable context one peel evaluation reads: the query, the
/// catalogs, the precomputed candidate indexes, and the optional shared
/// cache of SIT-pair products.
pub(crate) struct LinkCtx<'e> {
    pub db: &'e Database,
    pub ctx: &'e QueryContext,
    pub catalog: &'e SitCatalog,
    pub mode: ErrorMode,
    pub cand_index: &'e CandIndex,
    pub sit_cond_masks: &'e HashMap<SitId, u32>,
    pub sit2: Option<&'e Sit2Catalog>,
    pub sit2_index: &'e HashMap<ColRef, Vec<(Sit2Id, u32)>>,
    pub shared: Option<&'e dyn SharedEstimatorCache>,
    /// The atomic-estimate backend. [`crate::backend::DiffBackend`] is the
    /// default and intercepts nothing.
    pub backend: &'e dyn SelectivityBackend,
}

/// Per-peel scratch arenas, reset at every [`compute_peel`] entry. The
/// candidate and option lists built while evaluating one link are small,
/// short-lived, and allocated `O(n·2ⁿ)` times per query — a bump arena
/// turns each of those heap round-trips into a length reset plus appends
/// into already-warm capacity. Callers hold `Range<usize>` views instead of
/// owned `Vec`s; ranges never outlive the peel that produced them.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Candidate-SIT arena backing [`mask_candidates`] results.
    pub sits: Vec<SitId>,
    /// Option arena backing [`peel_filter`]'s `(error, coverage, estimate)`
    /// candidates, appended to by [`push_sit2_options`].
    pub opts: Vec<(f64, usize, f64)>,
}

impl Scratch {
    /// Drops all live ranges (there are none between peels) but keeps the
    /// allocated capacity.
    fn reset(&mut self) {
        self.sits.clear();
        self.opts.clear();
    }
}

/// The mutable memoization state of peel evaluation: value caches keyed by
/// ids/predicates (pure functions of their keys) plus the instrumentation
/// counters.
#[derive(Debug, Default)]
pub(crate) struct LinkState {
    /// Filter selectivity per `(SIT, predicate index)` — the same SIT
    /// histogram is ranged with the same filter under thousands of
    /// conditioning sets, and the estimate depends on neither.
    pub filter_sel_cache: HashMap<(SitId, usize), f64>,
    /// Filter estimate and divergence per `(H3 pair, predicate index)`,
    /// collapsing the per-option `H3` histogram walk the same way.
    pub h3_sel_cache: HashMap<(SitId, SitId, usize), (f64, f64)>,
    /// Join selectivity per SIT pair: the same pair is picked for many
    /// conditioning sets, so this collapses the histogram-join work from
    /// `O(n·2ⁿ)` to the number of distinct pairs.
    pub join_cache: HashMap<(SitId, SitId), f64>,
    /// Joined result histogram (`H3`, §3.3) and its divergence estimate per
    /// SIT pair.
    pub h3_cache: HashMap<(SitId, SitId), (Histogram, f64)>,
    /// Carried-H3 cache per (grid, other-side SIT).
    pub carry_cache: HashMap<(Sit2Id, SitId), (Histogram, f64)>,
    /// Conditional-y cache per (grid, x-range).
    pub cond2_cache: HashMap<(Sit2Id, i64, i64), (Histogram, f64)>,
    /// View-matching calls issued from the peel path (the estimator's
    /// [`crate::matcher::SitMatcher`] counter covers the non-peel callers).
    pub vm_calls: u64,
    /// Per-peel bump arenas (candidates, options). Not a cache: contents
    /// are meaningless outside the current [`compute_peel`] call.
    pub scratch: Scratch,
}

impl LinkState {
    pub fn new() -> Self {
        LinkState::default()
    }
}

/// Computes the single-predicate conditional factor `Sel(pᵢ | cset)` —
/// backend interception, then join/filter dispatch — without touching any
/// per-query memo (the caller owns memoization).
///
/// The link itself is never shared across queries: recomputing it from
/// the estimator's warm per-SIT caches costs less than a cross-query
/// lookup would. What is shared is the SIT-pair join and `H3` products
/// beneath it ([`join_selectivity`], [`h3_join`]), which are pure
/// functions of the pair.
pub(crate) fn compute_peel(
    lc: &LinkCtx,
    st: &mut LinkState,
    oracle: &mut Option<CardinalityOracle<'_>>,
    i: usize,
    cset: PredSet,
) -> (f64, f64) {
    st.scratch.reset();
    let pred = *lc.ctx.predicate(i);
    // `DiffBackend` returns `None` here, making the remaining path
    // byte-for-byte the pre-trait code.
    if let Some(result) = lc.backend.peel(&PeelQuery {
        db: lc.db,
        ctx: lc.ctx,
        mode: lc.mode,
        pred_index: i,
        cset,
    }) {
        debug_assert!(result.0.is_finite() && result.1.is_finite());
        return result;
    }
    let result = match pred {
        Predicate::Join { .. } => peel_join(lc, st, oracle, i, &pred, cset),
        _ => peel_filter(lc, st, oracle, i, &pred, cset),
    };
    debug_assert!(result.0.is_finite() && result.1.is_finite());
    result
}

/// §3.3 candidate SITs through the precomputed mask index: applicable
/// (`cond_mask ⊆ cset`) and maximal among the applicable, in catalog
/// `for_attr` order — the exact set [`crate::matcher::SitMatcher::candidates`]
/// returns for `predicates_of(cset)`, with both tests reduced to bitwise
/// operations (conditions map injectively to predicate-index masks, so set
/// inclusion ≡ mask inclusion). Counts one view-matching call.
///
/// Results are appended to the `st.scratch.sits` arena and returned as a
/// range into it — no allocation on the per-mask hot path. The range stays
/// valid for the rest of the current peel (later calls only append).
fn mask_candidates(lc: &LinkCtx, st: &mut LinkState, attr: ColRef, cset: PredSet) -> Range<usize> {
    st.vm_calls += 1;
    let start = st.scratch.sits.len();
    let Some(list) = lc.cand_index.get(&attr) else {
        return start..start;
    };
    let outside = !cset.0;
    for (k, &(id, m)) in list.iter().enumerate() {
        if m & outside != 0 {
            continue;
        }
        let dominated = list
            .iter()
            .enumerate()
            .any(|(j, &(_, om))| j != k && om & outside == 0 && om != m && m & !om == 0);
        if !dominated {
            st.scratch.sits.push(id);
        }
    }
    start..st.scratch.sits.len()
}

/// `Sel(x = y | cset)`: join the best SITs for both sides.
fn peel_join(
    lc: &LinkCtx,
    st: &mut LinkState,
    oracle: &mut Option<CardinalityOracle<'_>>,
    i: usize,
    pred: &Predicate,
    cset: PredSet,
) -> (f64, f64) {
    let Predicate::Join { left, right } = *pred else {
        unreachable!("peel_join only receives joins")
    };
    let cand_l = mask_candidates(lc, st, left, cset);
    let cand_r = mask_candidates(lc, st, right, cset);
    if cand_l.is_empty() || cand_r.is_empty() {
        // No statistics at all: classic 1/max(|L|,|R|) default.
        let nl = lc.db.row_count(left.table).unwrap_or(1).max(1);
        let nr = lc.db.row_count(right.table).unwrap_or(1).max(1);
        let est = (1.0 / nl.max(nr) as f64).max(MIN_SEL);
        let err = fallback_error(lc, oracle, i, est, cset);
        return (est, err);
    }
    match lc.mode {
        ErrorMode::NInd | ErrorMode::Diff => {
            let (l, el) = pick_best(lc.catalog, lc.mode, &st.scratch.sits[cand_l], cset);
            let (r, er) = pick_best(lc.catalog, lc.mode, &st.scratch.sits[cand_r], cset);
            let est = join_selectivity(lc, st, l, r);
            // A join uses two statistics; each side's uncovered
            // conditioning (or divergence shortfall) is its own set of
            // independence assumptions, so side errors add.
            (est, el + er)
        }
        ErrorMode::Opt => {
            // Oracle mode: try every candidate pair, score by true
            // deviation. Index loops: the arena lives in `st`, which
            // `join_selectivity` also borrows mutably.
            let truth = true_conditional(lc, oracle, i, cset);
            let mut best = (f64::INFINITY, MIN_SEL);
            for li in cand_l {
                for ri in cand_r.clone() {
                    let (l, r) = (st.scratch.sits[li], st.scratch.sits[ri]);
                    let est = join_selectivity(lc, st, l, r);
                    let dev = opt_deviation(est, truth);
                    if dev < best.0 {
                        best = (dev, est);
                    }
                }
            }
            (best.1, best.0)
        }
    }
}

/// `Sel(filter | cset)`: best own-attribute SIT, or the §3.3 `H3`
/// mechanism when the filter sits on a join attribute of `cset`.
fn peel_filter(
    lc: &LinkCtx,
    st: &mut LinkState,
    oracle: &mut Option<CardinalityOracle<'_>>,
    i: usize,
    pred: &Predicate,
    cset: PredSet,
) -> (f64, f64) {
    let col = match pred.columns() {
        sqe_engine::predicate::PredColumns::One(c) => c,
        sqe_engine::predicate::PredColumns::Two(c, _) => c,
    };
    let truth = matches!(lc.mode, ErrorMode::Opt).then(|| true_conditional(lc, oracle, i, cset));

    // Option set: (error, coverage, estimate). Larger coverage wins ties;
    // smaller estimate wins remaining ties. Every tie-break key is a property
    // of the option itself — never its position — so the choice is
    // invariant under predicate reordering. Options accumulate in the
    // `opts` arena from `mark` onward.
    let mark = st.scratch.opts.len();

    for ci in mask_candidates(lc, st, col, cset) {
        let id = st.scratch.sits[ci];
        let sit = lc.catalog.get(id);
        let est = match st.filter_sel_cache.get(&(id, i)) {
            Some(&e) => e,
            None => {
                let e = filter_selectivity(&sit.histogram, pred);
                st.filter_sel_cache.insert((id, i), e);
                e
            }
        };
        let err = match (lc.mode, truth) {
            (ErrorMode::Opt, Some(t)) => opt_deviation(est, t),
            _ => lc.mode.sit_error(cset.len(), sit.cond.len(), sit.diff),
        };
        st.scratch.opts.push((err, sit.cond.len(), est));
    }

    // H3: for a join j = (col = other) in cset, join the two sides' SITs
    // (conditioned on cset − j) and range over the result histogram.
    // Covers j plus both SIT conditions.
    for j in lc.ctx.joins_in(cset).iter() {
        let Predicate::Join { left, right } = *lc.ctx.predicate(j) else {
            continue;
        };
        let other = if left == col {
            right
        } else if right == col {
            left
        } else {
            continue;
        };
        let sub = cset.minus(PredSet::singleton(j));
        let cand_c = mask_candidates(lc, st, col, sub);
        let cand_o = mask_candidates(lc, st, other, sub);
        let (Some((sc, _)), Some((so, _))) = (
            pick_best_opt(lc.catalog, lc.mode, &st.scratch.sits[cand_c], sub),
            pick_best_opt(lc.catalog, lc.mode, &st.scratch.sits[cand_o], sub),
        ) else {
            continue;
        };
        // H3's divergence from the attribute's original distribution: at
        // least the attribute-side SIT's own divergence, plus whatever the
        // join itself adds. The ranged estimate depends only on the pair
        // and the filter, so it is computed once per `(pair, filter)`
        // across all conditioning sets.
        let (est, h3_diff) = match st.h3_sel_cache.get(&(sc, so, i)) {
            Some(&v) => v,
            None => {
                let (h, d) = h3_join(lc, st, sc, so);
                let v = (filter_selectivity(h, pred), *d);
                st.h3_sel_cache.insert((sc, so, i), v);
                v
            }
        };
        // Coverage: the join predicate itself plus both conditions
        // (condition masks are exact, so the union's popcount is the
        // deduplicated size the predicate-set version computed).
        let union = lc.sit_cond_masks[&sc] | lc.sit_cond_masks[&so];
        let coverage = (1 + union.count_ones() as usize).min(cset.len());
        let err = match (lc.mode, truth) {
            (ErrorMode::Opt, Some(t)) => opt_deviation(est, t),
            (ErrorMode::Diff, _) => 1.0 - h3_diff.clamp(0.0, 1.0),
            _ => (cset.len() - coverage) as f64,
        };
        st.scratch.opts.push((err, coverage, est));
    }

    push_sit2_options(lc, st, col, pred, cset, truth);

    // `Iterator::min_by` keeps the *first* of equally-minimal elements,
    // matching the owned-vector version bit for bit.
    match st.scratch.opts[mark..].iter().copied().min_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(b.1.cmp(&a.1))
            .then(a.2.total_cmp(&b.2))
    }) {
        Some((err, _, est)) => (est.max(MIN_SEL), err),
        None => {
            let est = default_filter_selectivity(pred);
            let err = fallback_error(lc, oracle, i, est, cset);
            (est, err)
        }
    }
}

/// Adds the multidimensional-SIT options (§3.3) for a filter peel:
/// carried-`H3` distributions through joins in the conditioning set, and
/// conditionals on co-located filters. Options are appended to the
/// `st.scratch.opts` arena (the caller holds the start mark).
fn push_sit2_options(
    lc: &LinkCtx,
    st: &mut LinkState,
    col: ColRef,
    pred: &Predicate,
    cset: PredSet,
    truth: Option<f64>,
) {
    let Some(sit2s) = lc.sit2 else {
        return;
    };
    // (a) Carried H3: a join j ∈ cset with its near side on col's table, a
    // grid over (near, col), and a 1-D SIT for the far side. Both grid
    // paths are *fallbacks*: a join-conditioned 1-D SIT for the attribute
    // is built on the exact expression at 200-bucket resolution and
    // captures the dominant join interaction; the grid detour (32-wide
    // carried dimension, containment assumptions in the grid join) only
    // competes when no such SIT exists (the maximality spirit of §3.3's
    // rule 3).
    let direct = mask_candidates(lc, st, col, cset);
    if st.scratch.sits[direct]
        .iter()
        .any(|&id| !lc.catalog.get(id).cond.is_empty())
    {
        return;
    }
    for j in lc.ctx.joins_in(cset).iter() {
        let jpred = *lc.ctx.predicate(j);
        let Predicate::Join { left, right } = jpred else {
            continue;
        };
        for (near, far) in [(left, right), (right, left)] {
            if near.table != col.table {
                continue;
            }
            let sub = cset.minus(PredSet::singleton(j));
            let candidates: Vec<Sit2Id> = lc
                .sit2_index
                .get(&col)
                .map(|list| {
                    list.iter()
                        .filter(|&&(id, m)| m & !sub.0 == 0 && sit2s.get(id).x == near)
                        .map(|&(id, _)| id)
                        .collect()
                })
                .unwrap_or_default();
            if candidates.is_empty() {
                continue;
            }
            let cand_far = mask_candidates(lc, st, far, sub);
            let Some((far_id, _)) =
                pick_best_opt(lc.catalog, lc.mode, &st.scratch.sits[cand_far], sub)
            else {
                continue;
            };
            for s2_id in candidates {
                let (carried, divergence) = carried_h3(lc, st, sit2s, s2_id, far_id);
                if carried.total_rows() <= 0.0 {
                    continue;
                }
                let s2 = sit2s.get(s2_id);
                let gated = shrink_conditional(&carried, &s2.y_marginal, pred, divergence);
                let Some((est, divergence)) = gated else {
                    continue;
                };
                let far_cond = &lc.catalog.get(far_id).cond;
                let coverage = (1 + s2.cond.len() + far_cond.len()).min(cset.len());
                let err = match (lc.mode, truth) {
                    (ErrorMode::Opt, Some(t)) => opt_deviation(est, t),
                    (ErrorMode::Diff, _) => 1.0 - divergence,
                    _ => (cset.len() - coverage) as f64,
                };
                st.scratch.opts.push((err, coverage, est));
            }
        }
    }
    // (b) Filter-conditioned-on-filter: another filter g ∈ cset on the
    // same table with a grid over (attr(g), col).
    for g in lc.ctx.filters_in(cset).iter() {
        let gpred = *lc.ctx.predicate(g);
        let gcol = match gpred.columns() {
            sqe_engine::predicate::PredColumns::One(c) => c,
            sqe_engine::predicate::PredColumns::Two(c, _) => c,
        };
        if gcol.table != col.table || gcol == col {
            continue;
        }
        let Some((glo, ghi)) = filter_bounds(&gpred) else {
            continue;
        };
        let sub = cset.minus(PredSet::singleton(g));
        let candidates: Vec<Sit2Id> = lc
            .sit2_index
            .get(&col)
            .map(|list| {
                list.iter()
                    .filter(|&&(id, m)| m & !sub.0 == 0 && sit2s.get(id).x == gcol)
                    .map(|&(id, _)| id)
                    .collect()
            })
            .unwrap_or_default();
        for s2_id in candidates {
            let (conditional, divergence) = conditional2(lc, st, sit2s, s2_id, glo, ghi);
            if conditional.total_rows() <= 0.0 {
                continue;
            }
            let s2 = sit2s.get(s2_id);
            let gated = shrink_conditional(&conditional, &s2.y_marginal, pred, divergence);
            let Some((est, divergence)) = gated else {
                continue;
            };
            let coverage = (1 + s2.cond.len()).min(cset.len());
            let err = match (lc.mode, truth) {
                (ErrorMode::Opt, Some(t)) => opt_deviation(est, t),
                (ErrorMode::Diff, _) => 1.0 - divergence,
                _ => (cset.len() - coverage) as f64,
            };
            st.scratch.opts.push((err, coverage, est));
        }
    }
}

/// Carried-`H3` histogram of a grid joined against a 1-D SIT (cached).
fn carried_h3(
    lc: &LinkCtx,
    st: &mut LinkState,
    sit2s: &Sit2Catalog,
    s2_id: Sit2Id,
    far_id: SitId,
) -> (Histogram, f64) {
    if let Some(hit) = st.carry_cache.get(&(s2_id, far_id)) {
        return hit.clone();
    }
    let s2 = sit2s.get(s2_id);
    let far = lc.catalog.get(far_id);
    let (_, carried) = s2.grid.join_carry(&far.histogram);
    let divergence = s2.conditional_divergence(&carried).max(far.diff);
    st.carry_cache
        .insert((s2_id, far_id), (carried.clone(), divergence));
    (carried, divergence)
}

/// Conditional-`y` histogram of a grid restricted to an x-range (cached).
fn conditional2(
    _lc: &LinkCtx,
    st: &mut LinkState,
    sit2s: &Sit2Catalog,
    s2_id: Sit2Id,
    lo: i64,
    hi: i64,
) -> (Histogram, f64) {
    if let Some(hit) = st.cond2_cache.get(&(s2_id, lo, hi)) {
        return hit.clone();
    }
    let s2 = sit2s.get(s2_id);
    let conditional = s2.grid.conditional_y(lo, hi);
    let divergence = s2.conditional_divergence(&conditional);
    st.cond2_cache
        .insert((s2_id, lo, hi), (conditional.clone(), divergence));
    (conditional, divergence)
}

/// Best SIT among candidates under the mode's SIT error; returns the SIT
/// and its error contribution.
fn pick_best(
    catalog: &SitCatalog,
    mode: ErrorMode,
    candidates: &[SitId],
    cset: PredSet,
) -> (SitId, f64) {
    pick_best_opt(catalog, mode, candidates, cset).expect("pick_best requires non-empty candidates")
}

pub(crate) fn pick_best_opt(
    catalog: &SitCatalog,
    mode: ErrorMode,
    candidates: &[SitId],
    cset: PredSet,
) -> Option<(SitId, f64)> {
    candidates
        .iter()
        .map(|&id| {
            let sit = catalog.get(id);
            let e = mode.sit_error(cset.len(), sit.cond.len(), sit.diff);
            (id, e)
        })
        .min_by(|a, b| {
            a.1.total_cmp(&b.1).then_with(|| {
                // Tie: larger coverage, then smaller id.
                let ca = catalog.get(a.0).cond.len();
                let cb = catalog.get(b.0).cond.len();
                cb.cmp(&ca).then(a.0.cmp(&b.0))
            })
        })
}

/// Histogram join selectivity of two SITs (cached per pair).
fn join_selectivity(lc: &LinkCtx, st: &mut LinkState, l: SitId, r: SitId) -> f64 {
    if let Some(&sel) = st.join_cache.get(&(l, r)) {
        return sel;
    }
    if let Some(cache) = lc.shared {
        if let Some(sel) = cache.get_join((l, r)) {
            st.join_cache.insert((l, r), sel);
            return sel;
        }
    }
    let hl = &lc.catalog.get(l).histogram;
    let hr = &lc.catalog.get(r).histogram;
    let sel = hl.join(hr).selectivity.max(MIN_SEL);
    if let Some(cache) = lc.shared {
        cache.put_join((l, r), sel);
    }
    st.join_cache.insert((l, r), sel);
    sel
}

/// The `H3` result histogram of joining two SITs plus its divergence from
/// the attribute side's original distribution (cached).
fn h3_join<'s>(
    lc: &LinkCtx,
    st: &'s mut LinkState,
    attr_side: SitId,
    other_side: SitId,
) -> &'s (Histogram, f64) {
    if !st.h3_cache.contains_key(&(attr_side, other_side)) {
        if let Some(hit) = lc
            .shared
            .and_then(|cache| cache.get_h3((attr_side, other_side)))
        {
            st.h3_cache.insert((attr_side, other_side), hit);
            return &st.h3_cache[&(attr_side, other_side)];
        }
        let sit_c = lc.catalog.get(attr_side);
        let sit_o = lc.catalog.get(other_side);
        let joined = sit_c.histogram.join(&sit_o.histogram);
        let h3_diff = sqe_histogram::diff_from_histograms(&sit_c.histogram, &joined.histogram)
            .max(sit_c.diff);
        if let Some(cache) = lc.shared {
            cache.put_h3((attr_side, other_side), (joined.histogram.clone(), h3_diff));
        }
        st.h3_cache
            .insert((attr_side, other_side), (joined.histogram, h3_diff));
    }
    &st.h3_cache[&(attr_side, other_side)]
}

/// True `Sel(pᵢ | cset)` from the oracle (Opt mode only).
fn true_conditional(
    lc: &LinkCtx,
    oracle: &mut Option<CardinalityOracle<'_>>,
    i: usize,
    cset: PredSet,
) -> f64 {
    let all = cset.union(PredSet::singleton(i));
    let tables = lc.ctx.tables_of(all);
    let p = [*lc.ctx.predicate(i)];
    let q = lc.ctx.predicates_of(cset);
    oracle
        .as_mut()
        .expect("oracle present in Opt mode")
        .conditional_selectivity(&tables, &p, &q)
        .unwrap_or(0.0)
}

/// Error charged for a default (statistics-free) estimate.
fn fallback_error(
    lc: &LinkCtx,
    oracle: &mut Option<CardinalityOracle<'_>>,
    i: usize,
    est: f64,
    cset: PredSet,
) -> f64 {
    match lc.mode {
        ErrorMode::Opt => {
            let t = true_conditional(lc, oracle, i, cset);
            opt_deviation(est, t)
        }
        mode => mode.fallback_error(cset.len()),
    }
}

/// `Opt`'s per-factor deviation: the absolute log-ratio between estimate
/// and truth. Factor selectivities multiply, so log deviations *add* — the
/// sum over a decomposition's factors bounds the log error of the final
/// product, which makes the oracle ranking compose correctly (a plain
/// absolute difference would let many tiny-but-relatively-wrong factors
/// outrank one accurate large factor).
fn opt_deviation(est: f64, truth: f64) -> f64 {
    if truth <= MIN_SEL && est <= MIN_SEL {
        return 0.0;
    }
    (est.max(MIN_SEL).ln() - truth.max(MIN_SEL).ln()).abs()
}

/// Histogram estimate for a filter predicate.
pub(crate) fn filter_selectivity(h: &Histogram, pred: &Predicate) -> f64 {
    use sqe_engine::CmpOp;
    let sel = match *pred {
        Predicate::Range { lo, hi, .. } => h.range_selectivity(lo, hi),
        Predicate::Filter { op, value, .. } => match op {
            CmpOp::Lt => h.cmp_selectivity(value, true, true),
            CmpOp::Le => h.cmp_selectivity(value, true, false),
            CmpOp::Gt => h.cmp_selectivity(value, false, true),
            CmpOp::Ge => h.cmp_selectivity(value, false, false),
            CmpOp::Eq => h.eq_selectivity(value),
            CmpOp::Neq => 1.0 - h.eq_selectivity(value),
        },
        Predicate::Join { .. } => unreachable!("filter_selectivity on join"),
    };
    sel.clamp(0.0, 1.0)
}

/// Gates a grid-derived conditional estimate on *local* statistical
/// significance. Total-variation divergence is global — a predicate range
/// holding 5% of the mass can double its conditional share while barely
/// moving the TV distance — so the gate tests the predicate's own range:
/// with `m` rows behind the conditional, the range's conditional row count
/// must deviate from its marginal expectation by more than ~1.5 Poisson
/// standard deviations, otherwise the shift is sampling noise (the failure
/// mode observed on small dimension tables) and the option is withdrawn.
fn shrink_conditional(
    conditional: &Histogram,
    marginal: &Histogram,
    pred: &Predicate,
    divergence: f64,
) -> Option<(f64, f64)> {
    const Z_THRESHOLD: f64 = 1.5;
    let m = conditional.valid_rows().max(1.0);
    let est_cond = filter_selectivity(conditional, pred);
    let est_marg = filter_selectivity(marginal, pred);
    let observed = est_cond * m;
    let expected = est_marg * m;
    let z = (observed - expected) / expected.max(1.0).sqrt();
    if z.abs() < Z_THRESHOLD {
        return None;
    }
    Some((est_cond, divergence.clamp(0.0, 1.0)))
}

/// The value range a filter predicate admits, when expressible (None for
/// `<>`). Open sides use wide sentinels that stay overflow-safe in bucket
/// arithmetic.
pub(crate) fn filter_bounds(pred: &Predicate) -> Option<(i64, i64)> {
    use sqe_engine::CmpOp;
    const LO: i64 = i64::MIN / 4;
    const HI: i64 = i64::MAX / 4;
    match *pred {
        Predicate::Range { lo, hi, .. } => Some((lo, hi)),
        Predicate::Filter { op, value, .. } => match op {
            CmpOp::Lt => Some((LO, value - 1)),
            CmpOp::Le => Some((LO, value)),
            CmpOp::Gt => Some((value + 1, HI)),
            CmpOp::Ge => Some((value, HI)),
            CmpOp::Eq => Some((value, value)),
            CmpOp::Neq => None,
        },
        Predicate::Join { .. } => None,
    }
}

/// Magic-constant estimate when no statistic exists.
fn default_filter_selectivity(pred: &Predicate) -> f64 {
    use sqe_engine::CmpOp;
    match *pred {
        Predicate::Range { .. } => DEFAULT_RANGE_SEL,
        Predicate::Filter { op, .. } => match op {
            CmpOp::Eq => DEFAULT_EQ_SEL,
            CmpOp::Neq => 1.0 - DEFAULT_EQ_SEL,
            _ => DEFAULT_RANGE_SEL,
        },
        Predicate::Join { .. } => DEFAULT_EQ_SEL,
    }
}
