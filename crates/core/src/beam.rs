//! Beam-search approximate DP: `getSelectivity` beyond the exact cliff.
//!
//! The exact engines walk the full decomposition space — `O(3ⁿ)` submask
//! iterations over a `2ⁿ` lattice — which hard-caps the dense tables at
//! `n = 20` and makes one 30-predicate query a cliff, not a slowdown. The
//! beam engine explores a **bounded frontier of decompositions** instead:
//! for each non-separable set it *generates* a small candidate family of
//! atomic decompositions `Sel(P′|Q)·Sel(Q)`, *scores* every candidate by
//! its conditional-factor error, keeps the [`BeamConfig::width`] best (plus
//! the always-valid `P′ = P` fallback), and only recurses into the kept
//! candidates' conditioning sets. The memo stays the recursive engine's
//! open-addressed [`crate::flat::FlatMemo`] — sparse by construction, no
//! `2ⁿ` allocation — so only the states the beam actually visits cost
//! memory.
//!
//! ## The admissible lower bound
//!
//! The error functions of §3.2 are monotone and algebraic: the total error
//! of a decomposition is `err(P′|Q) + err(Q)` with `err(Q) ≥ 0`. The
//! factor error `err(P′|Q)` is therefore an **admissible lower bound** on
//! the decomposition's total error — it never overestimates — which makes
//! best-first selection on it sound in the A*/bound-sketch sense: a
//! candidate whose bound already exceeds another candidate's *achieved*
//! total can never win the argmin. Scoring is cheap (factor chains are
//! memoized per `(predicate, conditioning-set)` link, never per candidate)
//! and recursion — the expensive part — is spent only on survivors.
//!
//! ## Exactness at unbounded width
//!
//! With `width` covering every submask and no expansions cap, generation
//! degenerates to the exact engines' full descending-submask walk, the
//! selection keeps everything, and the evaluation loop is the recursive
//! engine's loop verbatim — values, memo entry sets, and peel counts are
//! **bit-identical** to [`crate::DpStrategy::Recursive`] (the property
//! `tests/beam.rs` pins). Shrinking `width` only removes candidates, so
//! error is monotone in the knob.
//!
//! ## Cooperative degradation
//!
//! The engine charges the shared [`crate::BudgetMeter`] one unit per
//! expanded set plus one per freshly computed link, polls the deadline at
//! the same amortized stride as the exact walks, and aborts with the
//! sticky trip reason — so a beam rung degrades down the quality ladder
//! exactly like the exact rungs do. [`BeamConfig::expansions_cap`] bounds
//! the search even under an unlimited budget: once the cap is hit,
//! remaining sets close with the fallback decomposition only (counted in
//! [`BeamStats::cap_fallbacks`]).

/// Knobs of the beam search. Width trades error for latency; the cap
/// bounds total work per query independent of the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeamConfig {
    /// Candidates kept per expanded set, *in addition to* the always-kept
    /// `P′ = P` fallback. Monotone: larger explores more, `usize::MAX`
    /// (see [`BeamConfig::UNBOUNDED`]) reproduces the exact engine.
    pub width: usize,
    /// Total non-separable expansions allowed per query; past it every
    /// remaining set closes with the fallback decomposition only. Bounds
    /// worst-case work at `O(cap · width · n)` links.
    pub expansions_cap: u64,
}

impl BeamConfig {
    /// No width limit, no expansions cap: the beam engine becomes the
    /// exact recursive engine (bit-for-bit — the proptest anchor).
    pub const UNBOUNDED: BeamConfig = BeamConfig {
        width: usize::MAX,
        expansions_cap: u64::MAX,
    };

    /// Whether `width` keeps every candidate a set of `n` predicates can
    /// generate (`2ⁿ − 1` non-empty submasks), i.e. selection is a no-op.
    pub fn exhaustive_for(&self, n: usize) -> bool {
        n >= usize::BITS as usize - 1 || self.width >= (1usize << n) - 1
    }
}

impl Default for BeamConfig {
    /// Measured on the snowflake wide workload (see `BENCH_estimator.json`
    /// n = 20..32 rows): width 4 with a 512-expansion cap keeps the n = 32
    /// cold estimate several times under its slice of the service's
    /// default deadline on a single core — even in debug builds — while
    /// the n ≤ 16 q-error envelope vs the exact engine stays inside the
    /// committed ACCURACY.json gate (wider beams measured identically on
    /// the seeded workload; see EXPERIMENTS.md).
    fn default() -> Self {
        BeamConfig {
            width: 4,
            expansions_cap: 512,
        }
    }
}

/// Observability counters of one estimator's beam search, the
/// approximate engine's companion to [`crate::EstimatorStats`].
/// Cumulative over every request the estimator served; all zero when the
/// beam engine never ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BeamStats {
    /// Non-separable sets expanded (each one candidate-generation +
    /// selection + evaluation round).
    pub expansions: u64,
    /// Candidates produced by generation, before selection.
    pub generated: u64,
    /// Candidates scored with a conditional-factor evaluation (equals
    /// `generated` minus §3.4-pruned candidates).
    pub scored: u64,
    /// Scored candidates dropped by width selection — the frontier the
    /// beam refused to recurse into.
    pub pruned: u64,
    /// Sets closed fallback-only because [`BeamConfig::expansions_cap`]
    /// was already spent.
    pub cap_fallbacks: u64,
    /// Deepest conditioning-set recursion observed — the peak live
    /// frontier of the best-first walk.
    pub frontier_peak: usize,
    /// Σ over expansions of `err_f(chosen) / total(chosen)` — see
    /// [`BeamStats::bound_tightness`].
    pub tightness_sum: f64,
}

impl BeamStats {
    /// Mean admissible-bound tightness over all expansions: how much of
    /// each chosen decomposition's total error its selection-time lower
    /// bound already accounted for, in `[0, 1]`. Near 1 means the bound
    /// ranks candidates almost as well as the full evaluation would —
    /// width can shrink cheaply; near 0 means the recursive term
    /// dominates and selection is flying blind. `None` until the beam
    /// engine has expanded at least one set.
    pub fn bound_tightness(&self) -> Option<f64> {
        (self.expansions > 0).then(|| self.tightness_sum / self.expansions as f64)
    }
}

/// One generated candidate decomposition of the set being expanded,
/// scored by its conditional factor.
#[derive(Debug, Clone, Copy)]
pub struct Scored {
    /// The factor mask `P′` (the conditioning set is `m \ P′`).
    pub mask: u32,
    /// `Sel(P′|Q)` from the scoring pass, reused by the evaluation loop.
    pub sel_f: f64,
    /// `err(P′|Q)` — the admissible lower bound this candidate is ranked
    /// by.
    pub err_f: f64,
}

/// Generates the bounded candidate family for non-separable `m` into
/// `out`: the `P′ = m` fallback, one SIT-guided candidate `P′ = m \ cond`
/// per usable non-base SIT whose condition fits strictly inside `m` and
/// whose attribute touches it (the §3.4 guidance masks, reused here as a
/// *generator* rather than a filter), and every single-predicate factor
/// `P′ = {i}` — the implicit-chain heads the exact argmin most often
/// picks. Deduplicated and sorted **descending by mask**, the exact
/// engines' submask order, so the evaluation loop's strict-`<` tie-break
/// agrees with theirs on any shared prefix.
pub fn generate_candidates(m: u32, guidance: &[(u32, u32)], out: &mut Vec<u32>) {
    out.clear();
    out.push(m);
    for &(attr, cond) in guidance {
        let p_prime = m & !cond;
        if cond & m == cond && p_prime != 0 && attr & p_prime != 0 {
            out.push(p_prime);
        }
    }
    let mut bits = m;
    while bits != 0 {
        out.push(bits & bits.wrapping_neg());
        bits &= bits - 1;
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out.dedup();
}

/// Width selection over the scored candidates: marks the `P′ = m` fallback
/// (index 0 — generation sorts descending, so the full mask is first) plus
/// the `width` smallest lower bounds, ties broken toward the earlier
/// (larger-mask) candidate so selection is deterministic. Returns the
/// number of candidates dropped. `keep` is reused scratch; `order` too.
pub fn select_width(
    scored: &[Scored],
    width: usize,
    order: &mut Vec<usize>,
    keep: &mut Vec<bool>,
) -> u64 {
    keep.clear();
    keep.resize(scored.len(), false);
    if let Some(first) = keep.first_mut() {
        *first = true;
    }
    if scored.len() <= width.saturating_add(1) {
        keep.iter_mut().for_each(|k| *k = true);
        return 0;
    }
    order.clear();
    order.extend(1..scored.len());
    order.sort_unstable_by(|&a, &b| scored[a].err_f.total_cmp(&scored[b].err_f).then(a.cmp(&b)));
    for &i in order.iter().take(width) {
        keep[i] = true;
    }
    (order.len() - width) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(errs: &[f64]) -> Vec<Scored> {
        errs.iter()
            .map(|&err_f| Scored {
                mask: 0,
                sel_f: 1.0,
                err_f,
            })
            .collect()
    }

    #[test]
    fn unbounded_config_is_exhaustive_at_every_n() {
        for n in 1..=32 {
            assert!(BeamConfig::UNBOUNDED.exhaustive_for(n), "n={n}");
        }
        assert!(!BeamConfig::default().exhaustive_for(3)); // 2³−1 = 7 > 4
        assert!(BeamConfig::default().exhaustive_for(2)); // 2²−1 = 3 ≤ 4
    }

    #[test]
    fn candidates_are_sorted_descending_and_deduped() {
        let m = 0b1011;
        let guidance = [(0b0001, 0b0010), (0b1000, 0b0011), (0b0100, 0b0001)];
        let mut out = Vec::new();
        generate_candidates(m, &guidance, &mut out);
        // Fallback m, guided m\0b0010 = 0b1001, m\0b0011 = 0b1000 (also a
        // single), singles 1, 2, 8. The (0b0100, ..) guide's attribute
        // misses m \ cond so it is skipped.
        assert_eq!(out, vec![0b1011, 0b1001, 0b1000, 0b0010, 0b0001]);
        assert!(out.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn guided_candidate_requires_condition_inside_m() {
        let mut out = Vec::new();
        // Condition 0b10000 lies outside m: no guided candidate.
        generate_candidates(0b0011, &[(0b0001, 0b1_0000)], &mut out);
        assert_eq!(out, vec![0b0011, 0b0010, 0b0001]);
    }

    #[test]
    fn selection_keeps_fallback_and_best_bounds() {
        let s = scored(&[9.0, 3.0, 1.0, 2.0, 5.0]);
        let (mut order, mut keep) = (Vec::new(), Vec::new());
        let dropped = select_width(&s, 2, &mut order, &mut keep);
        assert_eq!(keep, vec![true, false, true, true, false]);
        assert_eq!(dropped, 2);
    }

    #[test]
    fn selection_under_width_keeps_everything() {
        let s = scored(&[4.0, 2.0, 3.0]);
        let (mut order, mut keep) = (Vec::new(), Vec::new());
        let dropped = select_width(&s, 2, &mut order, &mut keep);
        assert_eq!(keep, vec![true, true, true]);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn selection_ties_break_toward_earlier_candidate() {
        let s = scored(&[9.0, 2.0, 2.0, 2.0]);
        let (mut order, mut keep) = (Vec::new(), Vec::new());
        let dropped = select_width(&s, 1, &mut order, &mut keep);
        assert_eq!(keep, vec![true, true, false, false]);
        assert_eq!(dropped, 2);
    }

    #[test]
    fn tightness_is_mean_over_expansions() {
        let mut st = BeamStats::default();
        assert_eq!(st.bound_tightness(), None);
        st.expansions = 2;
        st.tightness_sum = 1.5;
        assert_eq!(st.bound_tightness(), Some(0.75));
    }
}
