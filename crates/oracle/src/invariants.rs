//! Exactness invariants: checks that must hold to float tolerance (or to
//! the bit), phrased as `Result<(), String>` so callers can aggregate
//! failures with context instead of dying on the first assert.
//!
//! The checks fall into three families:
//!
//! * **truth is true** — [`check_executor_differential`] runs the engine's
//!   hash-join executor, its memoized [`CardinalityOracle`], the
//!   independent backtracking [`ExactExecutor`], and (when the cross
//!   product is small) the brute-force odometer over the same query and
//!   demands identical integer counts;
//! * **the paper's identities hold on truth** —
//!   [`check_atomic_decomposition`] verifies Property 1
//!   (`Sel(P,Q) = Sel(P|Q)·Sel(Q)`) as an exact count identity,
//!   [`check_lemma1`] pins `T(n)` against the exhaustive enumerator and
//!   the Lemma 1 bounds, [`check_error_mode_laws`] pins the monotonic /
//!   algebraic structure of the error functions that makes the DP optimal;
//! * **the optimized DP is the recurrence it claims to be** —
//!   [`check_reference_dp`] recomputes `getSelectivity` with a 40-line
//!   from-scratch implementation of the Figure 3 recurrence (plain
//!   `HashMap` memo, no dense lattice, no pruning, no parallelism) and
//!   requires the dense engine and the unbounded beam to match it bit for
//!   bit; [`check_chosen_decomposition`] replays the DP's chosen chain and
//!   requires the links to partition the query and reproduce the DP error.
//!
//! [`CardinalityOracle`]: sqe_engine::CardinalityOracle

use std::collections::HashMap;

use sqe_core::decomposition::enumerate_decompositions;
use sqe_core::{
    count_decompositions, decomposition_bounds, BeamConfig, DpStrategy, ErrorMode, PredSet,
    SelectivityEstimator, SitCatalog,
};
use sqe_engine::brute::{count_brute_force, DEFAULT_LIMIT};
use sqe_engine::{execute, CardinalityOracle, Database, Predicate, SpjQuery, TableId};

use crate::exec::ExactExecutor;

/// Cross-product ceiling under which the brute-force odometer joins the
/// differential (it enumerates the full product).
const BRUTE_CROSS_LIMIT: u128 = 2_000_000;

/// All four exact counters agree on `preds` over `tables`.
pub fn check_executor_differential(
    db: &Database,
    tables: &[TableId],
    preds: &[Predicate],
) -> Result<(), String> {
    let mut exec = ExactExecutor::new(db);
    let mine = exec.cardinality(tables, preds);
    let engine = execute(db, tables, preds).map_err(|e| format!("engine execute failed: {e:?}"))?;
    if mine != engine {
        return Err(format!(
            "backtracking executor says {mine}, engine hash join says {engine}"
        ));
    }
    let mut oracle = CardinalityOracle::new(db);
    let memoized = oracle
        .cardinality(tables, preds)
        .map_err(|e| format!("cardinality oracle failed: {e:?}"))?;
    if mine != memoized {
        return Err(format!(
            "backtracking executor says {mine}, memoized oracle says {memoized}"
        ));
    }
    let cross = db
        .cross_product_size(tables)
        .map_err(|e| format!("cross product failed: {e:?}"))?;
    if cross <= BRUTE_CROSS_LIMIT {
        let brute = count_brute_force(db, tables, preds, DEFAULT_LIMIT)
            .map_err(|e| format!("brute force failed: {e:?}"))?;
        if mine != brute as u128 {
            return Err(format!(
                "backtracking executor says {mine}, brute force says {brute}"
            ));
        }
    }
    Ok(())
}

/// Property 1 on oracle truth: for every split of the query into `(P, Q)`
/// drawn from a deterministic family (each singleton as `P`, plus every
/// prefix split), `Sel(P,Q) = Sel(P|Q)·Sel(Q)` to float tolerance — and,
/// as integer counts, `card(P∪Q)·card(∅) = …` exactly (the float identity
/// only rounds).
pub fn check_atomic_decomposition(db: &Database, query: &SpjQuery) -> Result<(), String> {
    let mut exec = ExactExecutor::new(db);
    let preds = &query.predicates;
    let joint_card = exec.cardinality(&query.tables, preds);
    let mut splits: Vec<(Vec<Predicate>, Vec<Predicate>)> = Vec::new();
    for i in 0..preds.len() {
        let p = vec![preds[i]];
        let q: Vec<Predicate> = preds
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &x)| x)
            .collect();
        splits.push((p, q));
    }
    for cut in 1..preds.len() {
        splits.push((preds[..cut].to_vec(), preds[cut..].to_vec()));
    }
    for (p, q) in splits {
        let q_card = exec.cardinality(&query.tables, &q);
        if q_card == 0 {
            continue; // conditional undefined; nothing to check
        }
        let joint = exec
            .selectivity(&query.tables, preds)
            .ok_or("empty cross product")?;
        let cond = exec
            .conditional_selectivity(&query.tables, &p, &q)
            .expect("q_card > 0");
        let marginal = exec
            .selectivity(&query.tables, &q)
            .ok_or("empty cross product")?;
        let product = cond * marginal;
        let tol = 1e-12 * joint.abs().max(1e-300);
        if (joint - product).abs() > tol {
            return Err(format!(
                "Sel(P,Q) = {joint} but Sel(P|Q)·Sel(Q) = {product} for split P={p:?}"
            ));
        }
        // The exact integer form: card(P∪Q)/card(Q) · card(Q) = card(P∪Q).
        let pq: Vec<Predicate> = p.iter().chain(q.iter()).copied().collect();
        if exec.cardinality(&query.tables, &pq) != joint_card {
            return Err("predicate order changed an exact count".to_string());
        }
    }
    Ok(())
}

/// Lemma 1 for every `n ≤ max_n`: the exhaustive enumerator produces
/// exactly `T(n)` distinct decomposition chains, all valid ordered
/// partitions, and `T(n)` sits inside `[0.5·(n+1)!, 1.5ⁿ·n!]`.
pub fn check_lemma1(max_n: usize) -> Result<(), String> {
    for n in 1..=max_n {
        let chains = enumerate_decompositions(PredSet::full(n));
        let t = count_decompositions(n);
        if chains.len() as u128 != t {
            return Err(format!(
                "n={n}: enumerator found {} chains, recurrence says T(n)={t}",
                chains.len()
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for chain in &chains {
            let mut union = PredSet(0);
            for &part in chain {
                if part.is_empty() {
                    return Err(format!("n={n}: chain contains an empty factor"));
                }
                if !union.intersect(part).is_empty() {
                    return Err(format!("n={n}: chain factors overlap"));
                }
                union = union.union(part);
            }
            if union != PredSet::full(n) {
                return Err(format!("n={n}: chain does not cover the set"));
            }
            if !seen.insert(chain.clone()) {
                return Err(format!("n={n}: duplicate chain"));
            }
        }
        let (lo, hi) = decomposition_bounds(n);
        if t < lo || t > hi {
            return Err(format!(
                "n={n}: T(n)={t} outside Lemma 1 bounds [{lo},{hi}]"
            ));
        }
    }
    Ok(())
}

/// The error functions have the structure Definition 3 requires for the
/// principle of optimality: per-predicate costs are non-negative,
/// non-increasing as SIT coverage grows, and the no-statistic fallback is
/// strictly worse than any SIT-based estimate.
pub fn check_error_mode_laws() -> Result<(), String> {
    for mode in [ErrorMode::NInd, ErrorMode::Diff, ErrorMode::Opt] {
        for cond_len in 0..6usize {
            let fallback = mode.fallback_error(cond_len);
            let mut prev = f64::INFINITY;
            for covered in 0..=cond_len {
                for &diff in &[0.0, 0.3, 1.0] {
                    let e = mode.sit_error(cond_len, covered, diff);
                    if e < 0.0 {
                        return Err(format!("{mode:?}: negative error {e}"));
                    }
                    if e >= fallback {
                        return Err(format!(
                            "{mode:?}: SIT error {e} not better than fallback {fallback} \
                             (cond {cond_len}, covered {covered}, diff {diff})"
                        ));
                    }
                }
                // Monotonicity in coverage (at fixed diff): more covered
                // conditioning predicates never cost more.
                let e = mode.sit_error(cond_len, covered, 0.5);
                if e > prev {
                    return Err(format!(
                        "{mode:?}: error grew with coverage ({prev} -> {e})"
                    ));
                }
                prev = e;
            }
        }
        // Diff must reward divergence: a SIT that captures more
        // distribution change costs less.
        if matches!(mode, ErrorMode::Diff) {
            let low = mode.sit_error(3, 1, 0.9);
            let high = mode.sit_error(3, 1, 0.1);
            if low >= high {
                return Err("Diff: higher divergence should cost less".to_string());
            }
        }
    }
    Ok(())
}

/// From-scratch reference implementation of the Figure 3 recurrence:
/// standard decomposition for separable sets, the full atomic-decomposition
/// argmin otherwise, with a plain `HashMap` memo. Uses the estimator's
/// public [`SelectivityEstimator::conditional_factor`] for the per-factor
/// values (the factor model is shared; the *search* is what's being
/// verified), and iterates subsets in the same order with the same
/// strict-`<` tie-break, so agreement must be bit-exact.
fn reference_dp(
    est: &mut SelectivityEstimator<'_>,
    p: PredSet,
    memo: &mut HashMap<u32, (f64, f64)>,
) -> (f64, f64) {
    if p.is_empty() {
        return (1.0, 0.0);
    }
    if let Some(&r) = memo.get(&p.0) {
        return r;
    }
    let first = est.context().first_component(p);
    let result = if first != p {
        let mut sel = 1.0;
        let mut err = 0.0;
        let mut rest = p;
        while !rest.is_empty() {
            let c = est.context().first_component(rest);
            rest = rest.minus(c);
            let (s, e) = reference_dp(est, c, memo);
            sel *= s;
            err += e;
        }
        (sel, err)
    } else {
        let mut best_err = f64::INFINITY;
        let mut best_sel = f64::NAN;
        for p_prime in p.subsets() {
            let q = p.minus(p_prime);
            let (sel_q, err_q) = reference_dp(est, q, memo);
            let (sel_f, err_f) = est.conditional_factor(p_prime, q);
            let total = err_f + err_q;
            if total < best_err {
                best_err = total;
                best_sel = (sel_f * sel_q).clamp(0.0, 1.0);
            }
        }
        (best_sel, best_err)
    };
    memo.insert(p.0, result);
    result
}

/// The dense engine and the unbounded beam — the two exact walks, bottom
/// up and top down — reproduce the reference recurrence bit for bit on
/// the full query (unpruned; §3.4 pruning changes the explored space by
/// design and is checked separately for engine agreement).
pub fn check_reference_dp(
    db: &Database,
    query: &SpjQuery,
    catalog: &SitCatalog,
    mode: ErrorMode,
) -> Result<(), String> {
    let mut reference_est = SelectivityEstimator::new(db, query, catalog, mode);
    let all = reference_est.context().all();
    let mut memo = HashMap::new();
    let (ref_sel, ref_err) = reference_dp(&mut reference_est, all, &mut memo);

    for (label, strategy) in [
        ("dense", DpStrategy::Auto),
        ("unbounded beam", DpStrategy::Beam),
    ] {
        let mut est = exact_estimator(db, query, catalog, mode, strategy);
        let (sel, err) = est.get_selectivity(all);
        if sel.to_bits() != ref_sel.to_bits() || err.to_bits() != ref_err.to_bits() {
            return Err(format!(
                "{label} engine ({sel}, {err}) != reference recurrence ({ref_sel}, {ref_err})"
            ));
        }
    }
    Ok(())
}

/// The replayed chosen decomposition partitions the query and its factor
/// errors re-add to the DP error (same additions, same order), for the
/// dense engine and the unbounded beam, and with pruning both off and on.
pub fn check_chosen_decomposition(
    db: &Database,
    query: &SpjQuery,
    catalog: &SitCatalog,
    mode: ErrorMode,
) -> Result<(), String> {
    for (label, strategy, pruned) in [
        ("dense", DpStrategy::Auto, false),
        ("unbounded beam", DpStrategy::Beam, false),
        ("dense+pruning", DpStrategy::Auto, true),
    ] {
        let mut est = exact_estimator(db, query, catalog, mode, strategy);
        if pruned {
            est = est.with_sit_driven_pruning();
        }
        let all = est.context().all();
        let (_, dp_err) = est.get_selectivity(all);
        let links = est.chosen_decomposition(all);
        let mut union = PredSet(0);
        let mut err_sum = 0.0;
        for &(p_prime, q) in &links {
            if !union.intersect(p_prime).is_empty() {
                return Err(format!("{label}: chosen P′ masks overlap"));
            }
            union = union.union(p_prime);
            err_sum += est.conditional_factor(p_prime, q).1;
        }
        if union != all {
            return Err(format!("{label}: chosen P′ masks do not cover the query"));
        }
        let tol = 1e-12 * dp_err.abs().max(1.0);
        if (err_sum - dp_err).abs() > tol {
            return Err(format!(
                "{label}: replayed chain error {err_sum} != DP error {dp_err}"
            ));
        }
    }
    Ok(())
}

/// An estimator answering exactly: the dense engine under `Auto` (the
/// oracle's queries stay within its 20 predicates), the top-down walk
/// under `Beam` at unbounded width.
fn exact_estimator<'a>(
    db: &'a Database,
    query: &SpjQuery,
    catalog: &'a SitCatalog,
    mode: ErrorMode,
    strategy: DpStrategy,
) -> SelectivityEstimator<'a> {
    SelectivityEstimator::new(db, query, catalog, mode)
        .with_strategy(strategy)
        .with_beam_config(BeamConfig::UNBOUNDED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma1_holds_through_n6() {
        check_lemma1(6).unwrap();
    }

    #[test]
    fn error_mode_laws_hold() {
        check_error_mode_laws().unwrap();
    }
}
