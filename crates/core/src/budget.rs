//! Resource governance for estimation: wall-clock deadlines, work-unit
//! quotas, and cooperative cancellation.
//!
//! The worst case of `getSelectivity` is `O(3ⁿ)`; a production service
//! cannot let one n=16 dense fill stall a snapshot. A [`Budget`] describes
//! the caller's limits; the ladder (see `ladder`) slices it into one
//! [`BudgetMeter`] per rung and hands that meter to the rung's estimator,
//! which owns it and charges it as its DP loops work. When the meter
//! trips, in-flight work unwinds with an [`ExhaustReason`] and the ladder
//! retries on a cheaper rung instead of returning an error. The units a
//! meter counted come back as [`crate::EstimatorStats::work`].
//!
//! Cost model: one work unit per lattice mask solved plus one per freshly
//! computed peel link. Quota checks are exact (every charge compares
//! against the cap), but wall-clock and cancellation polls are amortized —
//! `Instant::now()` and the cancel-flag load happen only when the spent
//! counter crosses a [`POLL_EVERY`] boundary, so the in-budget path stays
//! an add and a compare per mask.
//!
//! The mask count is known before a dense fill starts
//! ([`crate::SelectivityEstimator::dense_work`] counts it exactly), and it
//! is a lower bound on what the fill charges: a quota below it cannot be
//! met. The ladder skips such a rung instead of running it to the trip
//! (see [`crate::ladder`]). Peel links are not counted ahead: which ones a
//! fill reaches is only known by walking its submasks.
//!
//! Trip state is sticky and first-reason-wins: once tripped, every
//! subsequent [`BudgetMeter::charge`]/[`BudgetMeter::check`] returns the
//! same reason, so every loop of the walk unwinds with one verdict.
//!
//! A meter lives on the one thread that runs its estimator. The only
//! handle shared across threads is the [`CancelToken`].

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Charge interval between deadline/cancellation polls. Amortizes
/// `Instant::now()` to roughly once per thousand lattice masks.
pub const POLL_EVERY: u64 = 1024;

/// A cooperative cancellation handle. Cloning shares the flag; any clone
/// can [`cancel`](CancelToken::cancel) and every meter polling the token
/// trips on its next checkpoint.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Caller-facing budget specification. All limits are optional;
/// [`Budget::default`] is unlimited and changes nothing about estimation.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock allowance measured from the moment estimation starts.
    pub deadline: Option<Duration>,
    /// Work-unit quota (lattice masks solved + peel links computed).
    pub quota: Option<u64>,
    /// Cooperative cancellation flag, polled at the same checkpoints as
    /// the deadline.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits: estimation runs exactly as if no budget existed.
    pub fn unlimited() -> Self {
        Self::default()
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_quota(mut self, quota: u64) -> Self {
        self.quota = Some(quota);
        self
    }

    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.quota.is_none() && self.cancel.is_none()
    }
}

/// Why a budgeted computation stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The work-unit quota was spent.
    WorkQuota,
    /// The caller's [`CancelToken`] fired.
    Cancelled,
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExhaustReason::Deadline => "deadline",
            ExhaustReason::WorkQuota => "work-quota",
            ExhaustReason::Cancelled => "cancelled",
        })
    }
}

/// Why an estimate carries a quality label below [`Quality::Full`].
/// Extends [`ExhaustReason`] with panic isolation: a request whose worker
/// panicked is answered from the independence floor rather than erroring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    Deadline,
    WorkQuota,
    Cancelled,
    /// The estimator panicked; the service isolated it and fell back.
    Panic,
}

impl From<ExhaustReason> for DegradeReason {
    fn from(r: ExhaustReason) -> Self {
        match r {
            ExhaustReason::Deadline => DegradeReason::Deadline,
            ExhaustReason::WorkQuota => DegradeReason::WorkQuota,
            ExhaustReason::Cancelled => DegradeReason::Cancelled,
        }
    }
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::WorkQuota => "work-quota",
            DegradeReason::Cancelled => "cancelled",
            DegradeReason::Panic => "panic",
        })
    }
}

/// Quality tier of a returned estimate, ordered worst-to-best so that
/// `a < b` means "a is a coarser answer than b". The degradation ladder
/// walks this enum downward from [`Quality::Full`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Quality {
    /// Guaranteed-sound upper bound from the pessimistic backend's degree
    /// sketch (see [`crate::pessimistic`]): not a point estimate at all,
    /// just the safety envelope — the coarsest answer the ladder can give,
    /// but one with a hard correctness guarantee the tiers above lack.
    Bound,
    /// Independence-only baseline: O(n), no subset enumeration.
    Independence,
    /// Greedy view matching (single chain, no DP).
    Greedy,
    /// §3.4 SIT-driven-pruned DP. No ladder rung produces it; the variant
    /// stays while the benchmark (`perfbench`) still names it.
    Pruned,
    /// Beam-search approximate DP (see [`crate::beam`]): a bounded
    /// frontier of decompositions instead of the full lattice. Below
    /// `Full` (wide-width exactness is not guaranteed at service widths)
    /// — and the *only* DP tier reachable for queries wider than the
    /// exact engine's n = 20 cliff.
    Beam,
    /// The full dynamic program — identical to an unbudgeted run.
    Full,
}

impl Quality {
    pub fn label(self) -> &'static str {
        match self {
            Quality::Bound => "bound",
            Quality::Independence => "independence",
            Quality::Greedy => "greedy",
            Quality::Pruned => "pruned",
            Quality::Beam => "beam",
            Quality::Full => "full",
        }
    }

    /// All tiers, worst-to-best (the `Ord` order).
    pub const ALL: [Quality; 6] = [
        Quality::Bound,
        Quality::Independence,
        Quality::Greedy,
        Quality::Pruned,
        Quality::Beam,
        Quality::Full,
    ];
}

/// The materialized form of a [`Budget`] for one ladder rung: absolute
/// deadline, work cap, cancellation flag, the units charged so far and
/// the sticky trip reason. Owned by the estimator that charges it (see
/// [`crate::SelectivityEstimator::with_budget_meter`]).
#[derive(Debug)]
pub struct BudgetMeter {
    deadline: Option<Instant>,
    cap: Option<u64>,
    cancel: Option<CancelToken>,
    spent: Cell<u64>,
    tripped: Cell<Option<ExhaustReason>>,
}

impl BudgetMeter {
    /// A meter with an absolute `deadline`, a work `cap` and a `cancel`
    /// flag, each optional. The ladder slices one caller [`Budget`] into
    /// one meter per rung.
    pub fn new(deadline: Option<Instant>, cap: Option<u64>, cancel: Option<CancelToken>) -> Self {
        BudgetMeter {
            deadline,
            cap,
            cancel,
            spent: Cell::new(0),
            tripped: Cell::new(None),
        }
    }

    /// Work units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// The sticky trip reason, if any.
    pub fn tripped(&self) -> Option<ExhaustReason> {
        self.tripped.get()
    }

    /// Charges `units` of work. Exact against the quota; deadline and
    /// cancellation are polled only when the counter crosses a
    /// [`POLL_EVERY`] boundary. Returns the sticky reason once tripped.
    pub fn charge(&self, units: u64) -> Result<(), ExhaustReason> {
        self.check()?;
        let before = self.spent.get();
        let after = before.saturating_add(units);
        self.spent.set(after);
        if self.cap.is_some_and(|cap| after > cap) {
            return Err(self.trip(ExhaustReason::WorkQuota));
        }
        if before / POLL_EVERY != after / POLL_EVERY {
            self.poll()?;
        }
        Ok(())
    }

    /// Non-charging checkpoint: returns the sticky reason if tripped.
    #[inline]
    pub fn check(&self) -> Result<(), ExhaustReason> {
        match self.tripped() {
            Some(r) => Err(r),
            None => Ok(()),
        }
    }

    /// Polls deadline and cancellation *now*, skipping the amortization.
    /// Used at rung boundaries and before committing to expensive steps.
    pub fn force_poll(&self) -> Result<(), ExhaustReason> {
        self.check()?;
        self.poll()
    }

    fn poll(&self) -> Result<(), ExhaustReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(self.trip(ExhaustReason::Cancelled));
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(self.trip(ExhaustReason::Deadline));
        }
        Ok(())
    }

    /// Records the trip. Called only while untripped, so the first reason
    /// is the one kept.
    fn trip(&self, reason: ExhaustReason) -> ExhaustReason {
        self.tripped.set(Some(reason));
        reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_meter_without_limits_counts_and_never_trips() {
        let m = BudgetMeter::new(None, None, None);
        for _ in 0..10_000 {
            m.charge(7).unwrap();
        }
        assert_eq!(m.tripped(), None);
        assert!(m.check().is_ok());
        assert!(m.force_poll().is_ok());
        assert_eq!(m.spent(), 70_000);
    }

    #[test]
    fn quota_is_exact_and_sticky() {
        let m = BudgetMeter::new(None, Some(10), None);
        for _ in 0..10 {
            m.charge(1).unwrap();
        }
        assert_eq!(m.charge(1), Err(ExhaustReason::WorkQuota));
        assert_eq!(m.check(), Err(ExhaustReason::WorkQuota));
        assert_eq!(m.charge(1), Err(ExhaustReason::WorkQuota));
        assert_eq!(m.tripped(), Some(ExhaustReason::WorkQuota));
    }

    #[test]
    fn expired_deadline_trips_on_force_poll_and_poll_boundary() {
        let past = Instant::now() - Duration::from_millis(5);
        let m = BudgetMeter::new(Some(past), None, None);
        // Small charges inside one poll window do not observe the clock.
        m.charge(1).unwrap();
        assert_eq!(m.force_poll(), Err(ExhaustReason::Deadline));

        let m = BudgetMeter::new(Some(past), None, None);
        // Crossing the poll boundary observes it.
        assert_eq!(m.charge(POLL_EVERY + 1), Err(ExhaustReason::Deadline));
    }

    #[test]
    fn cancel_token_trips_cooperatively() {
        let tok = CancelToken::new();
        let m = BudgetMeter::new(None, None, Some(tok.clone()));
        m.charge(POLL_EVERY * 2).unwrap();
        tok.cancel();
        assert!(tok.is_cancelled());
        // Amortization: a sub-window charge may not see it yet, but the
        // next boundary crossing must.
        assert_eq!(m.charge(POLL_EVERY * 2), Err(ExhaustReason::Cancelled));
        assert_eq!(m.check(), Err(ExhaustReason::Cancelled));
    }

    #[test]
    fn first_trip_reason_wins() {
        let tok = CancelToken::new();
        let m = BudgetMeter::new(None, Some(5), Some(tok.clone()));
        assert_eq!(m.charge(100), Err(ExhaustReason::WorkQuota));
        tok.cancel();
        // Still the original reason: trips are sticky.
        assert_eq!(m.check(), Err(ExhaustReason::WorkQuota));
        assert_eq!(m.force_poll(), Err(ExhaustReason::WorkQuota));
    }

    #[test]
    fn quality_tiers_are_ordered_worst_to_best() {
        assert!(Quality::Bound < Quality::Independence);
        assert!(Quality::Independence < Quality::Greedy);
        assert!(Quality::Greedy < Quality::Pruned);
        assert!(Quality::Pruned < Quality::Beam);
        assert!(Quality::Beam < Quality::Full);
        assert_eq!(Quality::ALL.len(), 6);
        assert!(Quality::ALL.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(Quality::Full.label(), "full");
        assert_eq!(Quality::Beam.label(), "beam");
        assert_eq!(Quality::Bound.label(), "bound");
    }

    #[test]
    fn budget_builder_and_unlimited_detection() {
        assert!(Budget::unlimited().is_unlimited());
        let b = Budget::unlimited()
            .with_deadline(Duration::from_millis(1))
            .with_quota(10)
            .with_cancel(CancelToken::new());
        assert!(!b.is_unlimited());
    }
}
