//! Pluggable atomic-estimate backends.
//!
//! The paper's framework deliberately leaves the *atomic* estimator — the
//! thing that answers one conditional factor `Sel(p | Q)` — pluggable: the
//! DP over decompositions (Figure 3) only needs per-link values and error
//! charges. This module abstracts that seam as [`SelectivityBackend`]:
//!
//! * [`DiffBackend`] — the default. Overrides nothing, so every peel runs
//!   the existing maxDiff/diff machinery in `link.rs` unchanged (the
//!   refactor is bit-identical to the pre-trait code, values *and*
//!   memo/peel/view-matching counts — see `tests/backends.rs`);
//! * [`crate::bn::BnBackend`] — Bayesian-network backend (Chow-Liu trees
//!   over per-table attribute pairs), intercepting conjunctive filter
//!   peels that the default path would estimate under independence;
//! * [`crate::pessimistic::PessimisticBackend`] — bound-sketch backend
//!   producing guaranteed cardinality *upper bounds* from degree
//!   sequences; peels delegate, but the whole-query bound feeds the
//!   service's `Estimate::upper_bound` field and the `Quality::Bound`
//!   degradation floor.
//!
//! A backend intercepts a peel before the default machinery runs. What a
//! shared cache holds beneath a peel — SIT-pair join and `H3` products —
//! is a pure function of the pair, so it is the same under every backend.

use sqe_engine::{Database, Predicate, SpjQuery};

use crate::error::ErrorMode;
use crate::predset::{PredSet, QueryContext};

/// One conditional-factor evaluation request `Sel(p | cset)`, as seen by a
/// backend. Wraps the estimator's internal link context behind stable
/// accessors so backends outside `link.rs` never touch DP internals.
pub struct PeelQuery<'a> {
    pub(crate) db: &'a Database,
    pub(crate) ctx: &'a QueryContext,
    pub(crate) mode: ErrorMode,
    pub(crate) pred_index: usize,
    pub(crate) cset: PredSet,
}

impl PeelQuery<'_> {
    /// The database the estimate is against.
    pub fn db(&self) -> &Database {
        self.db
    }

    /// The error mode the surrounding DP ranks decompositions under.
    pub fn mode(&self) -> ErrorMode {
        self.mode
    }

    /// The predicate being peeled.
    pub fn predicate(&self) -> Predicate {
        *self.ctx.predicate(self.pred_index)
    }

    /// Number of predicates in the conditioning set.
    pub fn conditioning_len(&self) -> usize {
        self.cset.len()
    }

    /// The conditioning predicates, in query order.
    pub fn conditioning(&self) -> Vec<Predicate> {
        self.ctx.predicates_of(self.cset)
    }
}

/// An atomic-estimate backend: the strategy object behind every
/// conditional-factor evaluation of the `getSelectivity` DP.
///
/// Both hooks default to "not mine": `peel` returning `None` routes the
/// factor to the built-in maxDiff/diff machinery, and `upper_bound`
/// returning `None` means the backend offers no cardinality guarantee.
/// Implementations must be deterministic — the engines replay peels across
/// threads and schedules and assert bit-identical results.
pub trait SelectivityBackend: std::fmt::Debug + Send + Sync {
    /// Short stable identifier ("diff", "bn", "pessimistic"), used in
    /// reports and labels.
    fn name(&self) -> &'static str;

    /// Intercepts one conditional factor `Sel(p | cset)`, returning the
    /// `(selectivity, error)` pair on the active mode's error scale, or
    /// `None` to delegate to the default machinery.
    fn peel(&self, q: &PeelQuery<'_>) -> Option<(f64, f64)> {
        let _ = q;
        None
    }

    /// A guaranteed cardinality upper bound for the whole query, if this
    /// backend can produce one. Soundness contract: the true cardinality
    /// never exceeds the returned value.
    fn upper_bound(&self, query: &SpjQuery) -> Option<f64> {
        let _ = query;
        None
    }
}

/// The default backend: the existing maxDiff-histogram / `diff` machinery.
/// Overrides nothing, so estimator behavior with `DiffBackend` is exactly
/// the pre-trait behavior.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiffBackend;

impl SelectivityBackend for DiffBackend {
    fn name(&self) -> &'static str {
        "diff"
    }
}

/// Which backend a service or harness should construct — the `Copy`
/// configuration-level selector mirroring the trait objects above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum BackendKind {
    /// MaxDiff histograms under the independence/diff machinery (default).
    #[default]
    Diff,
    /// Chow-Liu Bayesian networks over per-table attribute pairs.
    Bn,
    /// Degree-sequence bound sketches (guaranteed upper bounds).
    Pessimistic,
}

impl BackendKind {
    /// Stable lowercase label, used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Diff => "diff",
            BackendKind::Bn => "bn",
            BackendKind::Pessimistic => "pessimistic",
        }
    }

    /// Parses a [`Self::label`] back into the kind.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "diff" => Some(BackendKind::Diff),
            "bn" => Some(BackendKind::Bn),
            "pessimistic" => Some(BackendKind::Pessimistic),
            _ => None,
        }
    }
}
