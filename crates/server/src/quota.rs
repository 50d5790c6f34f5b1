//! Per-tenant token-bucket quotas with honest retry hints and
//! pressure-compressed deadlines.
//!
//! Every tenant owns one [`TokenBucket`] configured by [`QuotaConfig`]:
//! a sustained request *rate*, a *burst* capacity, a *max-in-flight*
//! concurrency bound (enforced separately, by the tenant's
//! per-tenant admission pool), and a *deadline ceiling* — the largest
//! latency envelope any single request of this tenant may claim.
//!
//! ## Quota math
//!
//! The bucket holds up to `burst` tokens and refills continuously at
//! `rate` tokens/second. Each admitted request spends one token. A
//! request arriving at an empty bucket is refused with a retry hint that
//! is *computable, not guessed*:
//!
//! ```text
//! retry_after = (1 − tokens) / rate
//! ```
//!
//! — exactly the time until the refill produces the next whole token.
//! This is the "honest hint" of the PR headline: it derives from the
//! tenant's own bucket state, unlike a global latency average which says
//! nothing about *this* tenant's allowance.
//!
//! ## Pressure and deadline compression
//!
//! The bucket also measures *demand pressure*: arrivals (admitted or
//! refused) are counted over a rolling [`PRESSURE_WINDOW`]; pressure is
//! `arrivals / (rate × window)`. A well-behaved tenant sits at ≤ 1. A
//! tenant driving 2× its contracted rate measures ≈ 2.
//!
//! Pressure compresses the deadline every admitted request receives:
//!
//! ```text
//! effective_deadline = ceiling / max(1, pressure)²
//! ```
//!
//! so overload translates into *quality* degradation down the estimation
//! ladder (the answers come back fast, labeled `beam`/`greedy`/...)
//! for the overloading tenant only, while its throughput within quota
//! holds. The quadratic makes the squeeze decisive: at 2× overload a
//! tenant keeps only a quarter of its latency envelope, pushing wide
//! queries off the `Full` rung deterministically rather than letting
//! them straddle the boundary.
//!
//! All methods take an explicit `now: Instant` so tests drive a
//! synthetic clock; production callers pass `Instant::now()`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Demand-measurement window (see module docs).
pub const PRESSURE_WINDOW: Duration = Duration::from_millis(250);

/// Floor on a pressure-compressed deadline: the ceiling is never squeezed
/// below `ceiling / MAX_COMPRESSION`, so even a grossly overloading
/// tenant's admitted requests keep a sliver of budget (they land on the
/// independence floor honestly, instead of a zero-deadline degenerate
/// path).
pub const MAX_COMPRESSION: f64 = 64.0;

/// Per-tenant quota contract.
#[derive(Debug, Clone, Copy)]
pub struct QuotaConfig {
    /// Sustained admissions per second (token refill rate).
    pub rate: f64,
    /// Bucket capacity: how many requests may burst back-to-back after an
    /// idle period.
    pub burst: f64,
    /// Per-tenant concurrent in-flight bound (enforced by the tenant's
    /// admission pool, not the bucket itself).
    pub max_in_flight: usize,
    /// Largest deadline any request of this tenant is granted; also the
    /// default when the request names none.
    pub deadline_ceiling: Duration,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            rate: 100.0,
            burst: 20.0,
            max_in_flight: 4,
            deadline_ceiling: Duration::from_millis(50),
        }
    }
}

impl QuotaConfig {
    /// Time a fully drained bucket needs to refill completely — the
    /// per-tenant cap on any retry hint this tenant is ever given (a
    /// tenant is never told to back off longer than its own bucket needs;
    /// see `FrontDoor`).
    pub fn full_refill(&self) -> Duration {
        if self.rate <= 0.0 {
            return Duration::from_secs(1);
        }
        Duration::from_secs_f64(self.burst.max(1.0) / self.rate)
    }
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
    window_start: Instant,
    window_arrivals: f64,
    /// Pressure of the last *completed* window.
    settled_pressure: f64,
    admitted: u64,
    refused: u64,
}

/// A tenant's token bucket (interior-mutable, shared by reference).
#[derive(Debug)]
pub struct TokenBucket {
    config: QuotaConfig,
    state: Mutex<BucketState>,
}

impl TokenBucket {
    /// A full bucket starting its pressure window at `now`.
    pub fn new(config: QuotaConfig, now: Instant) -> Self {
        TokenBucket {
            config,
            state: Mutex::new(BucketState {
                tokens: config.burst,
                last_refill: now,
                window_start: now,
                window_arrivals: 0.0,
                settled_pressure: 0.0,
                admitted: 0,
                refused: 0,
            }),
        }
    }

    /// The quota contract this bucket enforces.
    pub fn config(&self) -> &QuotaConfig {
        &self.config
    }

    /// Records one arrival and spends a token, or refuses with the exact
    /// refill-derived retry hint (see the module docs).
    pub fn try_take(&self, now: Instant) -> Result<(), Duration> {
        let mut s = self.state.lock().expect("bucket lock");
        self.refill(&mut s, now);
        self.observe_arrival(&mut s, now);
        if s.tokens >= 1.0 {
            s.tokens -= 1.0;
            s.admitted += 1;
            Ok(())
        } else {
            s.refused += 1;
            let deficit = 1.0 - s.tokens;
            Err(Duration::from_secs_f64(
                deficit / self.config.rate.max(f64::MIN_POSITIVE),
            ))
        }
    }

    /// Current demand pressure: arrivals per second over the rolling
    /// window, divided by the contracted rate. ≤ 1 for a tenant inside
    /// its quota.
    pub fn pressure(&self, now: Instant) -> f64 {
        let mut s = self.state.lock().expect("bucket lock");
        self.roll_window(&mut s, now);
        let elapsed = now.duration_since(s.window_start).as_secs_f64();
        // Blend the settled window with the live one once the live one
        // has enough signal; before that the settled value stands alone
        // so one early burst doesn't read as infinite pressure.
        let live = if elapsed >= PRESSURE_WINDOW.as_secs_f64() / 2.0 {
            s.window_arrivals / (self.config.rate.max(f64::MIN_POSITIVE) * elapsed)
        } else {
            0.0
        };
        s.settled_pressure.max(live)
    }

    /// The deadline an admitted request receives right now:
    /// `ceiling / max(1, pressure)²`, floored at `ceiling / 64` (see the
    /// module docs for why overload compresses quality, not throughput).
    pub fn effective_deadline(&self, now: Instant) -> Duration {
        let p = self.pressure(now).max(1.0);
        let compression = (p * p).min(MAX_COMPRESSION);
        self.config.deadline_ceiling.div_f64(compression)
    }

    /// Tokens currently available (after refilling to `now`).
    pub fn tokens(&self, now: Instant) -> f64 {
        let mut s = self.state.lock().expect("bucket lock");
        self.refill(&mut s, now);
        s.tokens
    }

    /// Requests admitted (tokens spent) so far.
    pub fn admitted(&self) -> u64 {
        self.state.lock().expect("bucket lock").admitted
    }

    /// Requests refused for lack of tokens so far.
    pub fn refused(&self) -> u64 {
        self.state.lock().expect("bucket lock").refused
    }

    fn refill(&self, s: &mut BucketState, now: Instant) {
        let dt = now.duration_since(s.last_refill).as_secs_f64();
        if dt > 0.0 {
            s.tokens = (s.tokens + dt * self.config.rate).min(self.config.burst);
            s.last_refill = now;
        }
    }

    fn observe_arrival(&self, s: &mut BucketState, now: Instant) {
        self.roll_window(s, now);
        s.window_arrivals += 1.0;
    }

    fn roll_window(&self, s: &mut BucketState, now: Instant) {
        let elapsed = now.duration_since(s.window_start);
        if elapsed >= PRESSURE_WINDOW {
            s.settled_pressure = s.window_arrivals
                / (self.config.rate.max(f64::MIN_POSITIVE) * elapsed.as_secs_f64());
            s.window_start = now;
            s.window_arrivals = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn burst_then_refusal_with_refill_derived_hint() {
        let now = t0();
        let b = TokenBucket::new(
            QuotaConfig {
                rate: 10.0,
                burst: 3.0,
                ..QuotaConfig::default()
            },
            now,
        );
        for _ in 0..3 {
            assert!(b.try_take(now).is_ok());
        }
        let wait = b.try_take(now).expect_err("bucket drained");
        // Exactly one token at 10/s: 100 ms.
        assert!((wait.as_secs_f64() - 0.1).abs() < 1e-9, "wait {wait:?}");
        assert_eq!(b.admitted(), 3);
        assert_eq!(b.refused(), 1);
        // After the hinted wait, the request is admitted — the hint was
        // honest.
        let later = now + wait;
        assert!(b.try_take(later).is_ok());
    }

    #[test]
    fn refill_caps_at_burst() {
        let now = t0();
        let b = TokenBucket::new(
            QuotaConfig {
                rate: 1000.0,
                burst: 5.0,
                ..QuotaConfig::default()
            },
            now,
        );
        assert!((b.tokens(now + Duration::from_secs(60)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn pressure_tracks_overload_factor() {
        let now = t0();
        let rate = 100.0;
        let b = TokenBucket::new(
            QuotaConfig {
                rate,
                burst: 10.0,
                ..QuotaConfig::default()
            },
            now,
        );
        // Drive 2x the contracted rate for two full windows.
        let period = Duration::from_secs_f64(1.0 / (2.0 * rate));
        let mut t = now;
        for _ in 0..(2.0 * rate) as usize {
            let _ = b.try_take(t);
            t += period;
        }
        let p = b.pressure(t);
        assert!((1.5..=2.5).contains(&p), "pressure {p} not ≈ 2");
        // Quadratic compression: ~1/4 of the ceiling survives.
        let eff = b.effective_deadline(t);
        let ceiling = b.config().deadline_ceiling;
        assert!(
            eff <= ceiling / 3,
            "effective {eff:?} vs ceiling {ceiling:?}"
        );
        assert!(
            eff >= ceiling / 8,
            "effective {eff:?} vs ceiling {ceiling:?}"
        );
    }

    #[test]
    fn idle_tenant_keeps_its_full_ceiling() {
        let now = t0();
        let b = TokenBucket::new(QuotaConfig::default(), now);
        let _ = b.try_take(now);
        assert_eq!(
            b.effective_deadline(now + Duration::from_secs(2)),
            b.config().deadline_ceiling
        );
    }

    #[test]
    fn compression_is_floored() {
        let now = t0();
        let rate = 50.0;
        let b = TokenBucket::new(
            QuotaConfig {
                rate,
                burst: 5.0,
                deadline_ceiling: Duration::from_millis(64),
                ..QuotaConfig::default()
            },
            now,
        );
        // 100x overload.
        let period = Duration::from_secs_f64(1.0 / (100.0 * rate));
        let mut t = now;
        for _ in 0..2500 {
            let _ = b.try_take(t);
            t += period;
        }
        let eff = b.effective_deadline(t);
        assert!(
            eff >= Duration::from_millis(64).div_f64(MAX_COMPRESSION),
            "floor violated: {eff:?}"
        );
    }

    #[test]
    fn full_refill_caps_scale_with_quota() {
        let c = QuotaConfig {
            rate: 10.0,
            burst: 20.0,
            ..QuotaConfig::default()
        };
        assert_eq!(c.full_refill(), Duration::from_secs(2));
    }
}
