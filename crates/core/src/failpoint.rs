//! Name-keyed failpoints for fault-injection testing, shared by the whole
//! workspace.
//!
//! A failpoint is a named site in production code — `failpoint::fire("dp::
//! solve_mask")` — that normally does nothing. Tests (or the chaos bench)
//! arm a site with an [`Action`] via [`arm`]/[`arm_with`] or the
//! `SQE_FAILPOINTS` environment variable; the next time execution reaches
//! it, the action fires: panic, sleep, or (at fallible sites that call
//! [`fire_err`]) an injected `io::Error`.
//!
//! **Scopes.** [`arm`], [`arm_with`], [`disarm`], [`disarm_all`] and
//! [`armed_sites`] act on the calling thread's [`Scope`], so a site one
//! test arms fires on that test's thread and never in a sibling test
//! running beside it. A request runs on one thread — its caller's, or its
//! server connection's — so the thread is the request context. Work that
//! a thread starts on other threads gets its faults by handoff: the
//! spawner takes [`Scope::current`] and each new thread calls
//! [`Scope::enter`]. The scope is shared, so a site the spawner arms later
//! fires on those threads too; the server's `spawn` hands its caller's
//! scope to its accept and connection threads this way. A scope and its
//! sites go away with the last thread holding it. `SQE_FAILPOINTS` arms a
//! process scope, which every thread consults after its own.
//!
//! **Zero-cost when disabled**: the hot path is a single relaxed load of a
//! global count of the sites armed in every scope; a site looks itself up
//! only while that count is non-zero. Sites therefore go inside tight DP
//! loops without measurable overhead.
//!
//! Env syntax (entries separated by `;` or `,`):
//!
//! ```text
//! SQE_FAILPOINTS="bn::build=panic;persist::save=error%7#3;dp::solve_mask=sleep(2)"
//! ```
//!
//! `name=action[%K][#N]` arms `name` with `action` (one of `panic`,
//! `sleep(ms)`, `error`), firing with probability 1/K (deterministic
//! xorshift, default every time) for at most N hits (default unlimited);
//! the last hit disarms the site.
//!
//! The registry survives panics it causes itself: all locking recovers
//! from poisoning, so a failpoint-induced panic never wedges the framework
//! for the next hit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed failpoint does when execution reaches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Panic with a message naming the failpoint.
    Panic,
    /// Sleep for the given number of milliseconds (models a stall).
    Sleep(u64),
    /// Make [`fire_err`] return an injected `io::Error`. Ignored by
    /// infallible [`fire`] sites.
    Error,
}

struct FpState {
    action: Action,
    /// Fire with probability 1/one_in (1 = always).
    one_in: u32,
    /// Remaining hits before the site disarms itself (`None` = unlimited).
    remaining: Option<u32>,
    /// Per-site deterministic xorshift state for the 1/K coin.
    rng: u64,
}

/// Count of the sites armed in every live scope — the hot-path gate.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// The scope `SQE_FAILPOINTS` arms, consulted after the thread's own.
static PROCESS: OnceLock<Scope> = OnceLock::new();

thread_local! {
    /// The calling thread's scope, until it arms a site or enters one.
    static THREAD: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// One scope's armed sites. [`ARMED`] moves with every site armed or
/// disarmed here, and drops by the rest when the scope does.
#[derive(Default)]
struct Sites(HashMap<String, FpState>);

impl Sites {
    fn remove(&mut self, name: &str) {
        if self.0.remove(name).is_some() {
            ARMED.fetch_sub(1, Ordering::Release);
        }
    }
}

impl Drop for Sites {
    fn drop(&mut self) {
        ARMED.fetch_sub(self.0.len(), Ordering::Release);
    }
}

/// A set of armed sites, shared by every thread that entered it.
#[derive(Clone, Default)]
pub struct Scope(Arc<Mutex<Sites>>);

impl Scope {
    /// The calling thread's scope, created empty if it has none. Hand a
    /// clone to each thread you start, which calls [`Scope::enter`].
    pub fn current() -> Scope {
        THREAD.with(|t| t.borrow_mut().get_or_insert_with(Scope::default).clone())
    }

    /// Makes this the calling thread's scope, in place of its own.
    pub fn enter(self) {
        THREAD.with(|t| *t.borrow_mut() = Some(self));
    }

    fn sites(&self) -> MutexGuard<'_, Sites> {
        // A failpoint panic must not wedge the framework itself.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn arm_with(&self, name: &str, action: Action, one_in: u32, limit: Option<u32>, seed: u64) {
        let mut sites = self.sites();
        if limit == Some(0) {
            // A site allowed no hits is a disarmed one.
            return sites.remove(name);
        }
        let state = FpState {
            action,
            one_in: one_in.max(1),
            remaining: limit,
            // xorshift must never be seeded with 0.
            rng: seed | 1,
        };
        if sites.0.insert(name.to_string(), state).is_none() {
            ARMED.fetch_add(1, Ordering::Release);
        }
    }

    /// Arms every entry of `spec`, in the `SQE_FAILPOINTS` syntax, or
    /// returns the first malformed entry's error and arms nothing.
    fn arm_spec(&self, spec: &str) -> Result<(), String> {
        let mut entries = Vec::new();
        for entry in spec.split([';', ',']) {
            let entry = entry.trim();
            if !entry.is_empty() {
                entries.push(parse_entry(entry)?);
            }
        }
        for (name, action, one_in, limit) in entries {
            self.arm_with(name, action, one_in, limit, fxhash(name));
        }
        Ok(())
    }

    /// The decision for one hit on `name`, or `None` if it is not armed
    /// here. Computed under the scope's lock but acted on outside it
    /// (sleeping or panicking while holding the lock would stall or
    /// poison unrelated sites).
    fn decide(&self, name: &str) -> Option<Decision> {
        let mut sites = self.sites();
        let fp = sites.0.get_mut(name)?;
        if fp.one_in > 1 {
            // xorshift64* — deterministic per (seed, hit index).
            fp.rng ^= fp.rng << 13;
            fp.rng ^= fp.rng >> 7;
            fp.rng ^= fp.rng << 17;
            if fp.rng.wrapping_mul(0x2545F4914F6CDD1D) % fp.one_in as u64 != 0 {
                return Some(Decision::Nothing);
            }
        }
        let action = fp.action;
        if let Some(n) = &mut fp.remaining {
            *n -= 1;
            if *n == 0 {
                // Gone on its last hit, so the hot-path gate closes again.
                sites.remove(name);
            }
        }
        Some(match action {
            Action::Panic => Decision::Panic(format!("failpoint '{name}' fired: panic")),
            Action::Sleep(ms) => Decision::Sleep(Duration::from_millis(ms)),
            Action::Error => Decision::Error(format!("failpoint '{name}' fired: injected error")),
        })
    }
}

/// Runs `f` on the calling thread's scope, if it has one.
fn with_local<R>(f: impl FnOnce(&Scope) -> R) -> Option<R> {
    THREAD
        .try_with(|t| t.borrow().as_ref().map(f))
        .ok()
        .flatten()
}

/// Arms `name` to fire `action` on every hit, without limit.
pub fn arm(name: &str, action: Action) {
    arm_with(name, action, 1, None, 0x9E3779B97F4A7C15);
}

/// Arms `name` with full control: fire with probability `1/one_in`
/// (clamped to ≥1), at most `limit` times, with `seed` driving the
/// deterministic coin.
pub fn arm_with(name: &str, action: Action, one_in: u32, limit: Option<u32>, seed: u64) {
    Scope::current().arm_with(name, action, one_in, limit, seed);
}

/// Disarms one site. No-op if it was not armed.
pub fn disarm(name: &str) {
    with_local(|scope| scope.sites().remove(name));
}

/// Disarms every site of the calling thread's scope.
pub fn disarm_all() {
    with_local(|scope| *scope.sites() = Sites::default());
}

/// Names of the sites armed in the calling thread's scope (for chaos-run
/// logging).
pub fn armed_sites() -> Vec<String> {
    let mut names: Vec<String> =
        with_local(|scope| scope.sites().0.keys().cloned().collect()).unwrap_or_default();
    names.sort();
    names
}

/// One `name=action[%K][#N]` entry.
fn parse_entry(entry: &str) -> Result<(&str, Action, u32, Option<u32>), String> {
    let (name, rest) = entry
        .split_once('=')
        .ok_or_else(|| format!("failpoint entry '{entry}' is missing '='"))?;
    // Peel the optional #N hit limit, then the optional %K probability.
    let (rest, limit) = match rest.split_once('#') {
        Some((head, n)) => {
            let n: u32 = n
                .parse()
                .map_err(|_| format!("failpoint '{name}': bad hit limit '#{n}'"))?;
            (head, Some(n))
        }
        None => (rest, None),
    };
    let (action_str, one_in) = match rest.split_once('%') {
        Some((head, k)) => {
            let k: u32 = k
                .parse()
                .map_err(|_| format!("failpoint '{name}': bad probability '%{k}'"))?;
            (head, k)
        }
        None => (rest, 1),
    };
    let action = match action_str {
        "panic" => Action::Panic,
        "error" => Action::Error,
        s if s.starts_with("sleep(") && s.ends_with(')') => {
            let ms: u64 = s["sleep(".len()..s.len() - 1]
                .parse()
                .map_err(|_| format!("failpoint '{name}': bad sleep '{s}'"))?;
            Action::Sleep(ms)
        }
        other => return Err(format!("failpoint '{name}': unknown action '{other}'")),
    };
    Ok((name, action, one_in, limit))
}

/// Arms the process scope from the `SQE_FAILPOINTS` environment variable,
/// once per process. Safe (and cheap) to call from every service
/// constructor.
pub fn init_from_env() {
    PROCESS.get_or_init(|| {
        let process = Scope::default();
        if let Ok(spec) = std::env::var("SQE_FAILPOINTS") {
            if let Err(msg) = process.arm_spec(&spec) {
                eprintln!("SQE_FAILPOINTS ignored: {msg}");
            }
        }
        process
    });
}

/// Installs, once per process, a panic hook that drops the report of
/// every panic a failpoint injected and passes every other report to the
/// hook it replaced. Call it before arming [`Action::Panic`] at sites
/// whose panics are caught on purpose.
pub fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("failpoint '") && m.ends_with("' fired: panic"));
            if !injected {
                report(info);
            }
        }));
    });
}

/// Stable per-name seed so env-armed probabilistic sites are
/// reproducible run-to-run.
fn fxhash(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// What one hit does.
enum Decision {
    Nothing,
    Panic(String),
    Sleep(Duration),
    Error(String),
}

/// The calling thread's scope decides a hit on a site it arms; the
/// process scope decides the rest.
fn decide(name: &str) -> Decision {
    with_local(|scope| scope.decide(name))
        .flatten()
        .or_else(|| PROCESS.get()?.decide(name))
        .unwrap_or(Decision::Nothing)
}

/// An infallible injection site. Panics or sleeps if armed to;
/// [`Action::Error`] is ignored here (the site has no error channel).
#[inline]
pub fn fire(name: &str) {
    if ARMED.load(Ordering::Acquire) == 0 {
        return;
    }
    fire_slow(name);
}

#[cold]
fn fire_slow(name: &str) {
    match decide(name) {
        Decision::Nothing | Decision::Error(_) => {}
        Decision::Panic(msg) => panic!("{msg}"),
        Decision::Sleep(d) => std::thread::sleep(d),
    }
}

/// A fallible injection site: like [`fire`], but [`Action::Error`]
/// surfaces as an `io::Error` the caller propagates.
#[inline]
pub fn fire_err(name: &str) -> std::io::Result<()> {
    if ARMED.load(Ordering::Acquire) == 0 {
        return Ok(());
    }
    fire_err_slow(name)
}

#[cold]
fn fire_err_slow(name: &str) -> std::io::Result<()> {
    match decide(name) {
        Decision::Nothing => Ok(()),
        Decision::Panic(msg) => panic!("{msg}"),
        Decision::Sleep(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        Decision::Error(msg) => Err(std::io::Error::other(msg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_inert() {
        fire("nope");
        assert!(fire_err("nope").is_ok());
        assert!(armed_sites().is_empty());
    }

    #[test]
    fn error_action_fires_only_at_fallible_sites() {
        arm("site", Action::Error);
        // Infallible site: ignored.
        fire("site");
        let err = fire_err("site").unwrap_err();
        assert!(err.to_string().contains("site"), "{err}");
        disarm_all();
        assert!(fire_err("site").is_ok());
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        arm("boom", Action::Panic);
        let res = std::panic::catch_unwind(|| fire("boom"));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("failpoint 'boom'"), "{msg}");
    }

    #[test]
    fn hit_limit_self_disarms() {
        arm_with("twice", Action::Error, 1, Some(2), 7);
        assert!(fire_err("twice").is_err());
        assert!(fire_err("twice").is_err());
        assert!(fire_err("twice").is_ok());
        assert!(armed_sites().is_empty(), "the last hit disarms the site");
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            arm_with("coin", Action::Error, 3, None, seed);
            let fired = (0..64).map(|_| fire_err("coin").is_err()).collect();
            disarm("coin");
            fired
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay identically");
        assert!(a.iter().any(|&f| f), "1-in-3 over 64 hits must fire");
        assert!(!a.iter().all(|&f| f), "1-in-3 must not fire every time");
    }

    #[test]
    fn env_spec_parses_all_forms_and_rejects_garbage() {
        let scope = Scope::current();
        scope.arm_spec("a=panic; b=sleep(5)%4 , c=error#2").unwrap();
        assert_eq!(armed_sites(), vec!["a", "b", "c"]);
        {
            let sites = scope.sites();
            let sites = &sites.0;
            assert_eq!(sites["a"].action, Action::Panic);
            assert_eq!(sites["a"].one_in, 1);
            assert_eq!(sites["b"].action, Action::Sleep(5));
            assert_eq!(sites["b"].one_in, 4);
            assert_eq!(sites["c"].action, Action::Error);
            assert_eq!(sites["c"].remaining, Some(2));
        }
        disarm_all();
        assert!(scope.arm_spec("x=explode").is_err());
        assert!(scope.arm_spec("no-equals").is_err());
        assert!(scope.arm_spec("y=error; x=error%zero").is_err());
        assert!(armed_sites().is_empty(), "a malformed spec arms nothing");
    }
}
