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
//! **Zero-cost when disabled**: the hot path is a single relaxed load of a
//! global counter of armed sites; the registry lock is taken only while at
//! least one site is armed. Sites therefore go inside tight DP loops
//! without measurable overhead.
//!
//! Env syntax (entries separated by `;` or `,`):
//!
//! ```text
//! SQE_FAILPOINTS="bn::build=panic;persist::save=error%7#3;dp::solve_mask=sleep(2)"
//! ```
//!
//! `name=action[%K][#N]` arms `name` with `action` (one of `panic`,
//! `sleep(ms)`, `error`), firing with probability 1/K (deterministic
//! xorshift, default every time) for at most N hits (default unlimited).
//!
//! The registry survives panics it causes itself: all locking recovers
//! from poisoning, so a failpoint-induced panic in one test thread never
//! wedges the framework for the next.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
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
    /// Remaining hits before the site self-disarms (`None` = unlimited).
    remaining: Option<u32>,
    /// Per-site deterministic xorshift state for the 1/K coin.
    rng: u64,
}

/// Count of armed sites — the hot-path gate. Maintained equal to
/// `registry.len()` under the registry lock.
static ARMED: AtomicUsize = AtomicUsize::new(0);

static REGISTRY: OnceLock<Mutex<HashMap<String, FpState>>> = OnceLock::new();

fn registry() -> std::sync::MutexGuard<'static, HashMap<String, FpState>> {
    REGISTRY
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        // A failpoint panic must not wedge the framework itself.
        .unwrap_or_else(PoisonError::into_inner)
}

/// Arms `name` to fire `action` on every hit, without limit.
pub fn arm(name: &str, action: Action) {
    arm_with(name, action, 1, None, 0x9E3779B97F4A7C15);
}

/// Arms `name` with full control: fire with probability `1/one_in`
/// (clamped to ≥1), at most `limit` times, with `seed` driving the
/// deterministic coin.
pub fn arm_with(name: &str, action: Action, one_in: u32, limit: Option<u32>, seed: u64) {
    let mut reg = registry();
    reg.insert(
        name.to_string(),
        FpState {
            action,
            one_in: one_in.max(1),
            remaining: limit,
            // xorshift must never be seeded with 0.
            rng: seed | 1,
        },
    );
    ARMED.store(reg.len(), Ordering::Release);
}

/// Disarms one site. No-op if it was not armed.
pub fn disarm(name: &str) {
    let mut reg = registry();
    reg.remove(name);
    ARMED.store(reg.len(), Ordering::Release);
}

/// Disarms every site. Tests should call this in teardown.
pub fn disarm_all() {
    let mut reg = registry();
    reg.clear();
    ARMED.store(0, Ordering::Release);
}

/// Names of currently armed sites (for chaos-run logging).
pub fn armed_sites() -> Vec<String> {
    let mut names: Vec<String> = registry().keys().cloned().collect();
    names.sort();
    names
}

/// Parses `spec` in the `SQE_FAILPOINTS` syntax and arms every entry.
/// Returns an error message for the first malformed entry.
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    for entry in spec.split([';', ',']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
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
        arm_with(name, action, one_in, limit, fxhash(name));
    }
    Ok(())
}

/// Arms failpoints from the `SQE_FAILPOINTS` environment variable, once
/// per process. Safe (and cheap) to call from every service constructor.
pub fn init_from_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if let Ok(spec) = std::env::var("SQE_FAILPOINTS") {
            if let Err(msg) = arm_from_spec(&spec) {
                eprintln!("SQE_FAILPOINTS ignored: {msg}");
                disarm_all();
            }
        }
    });
}

/// Serializes tests that arm failpoints. The registry is process-global,
/// so a site one test arms also fires in every other test of the same
/// binary that reaches it, whether or not that test armed anything. The
/// rule: in a binary where any test arms a site other tests can reach,
/// every test takes this guard. That is why such tests live in
/// `tests/chaos.rs` and `tests/server.rs`, where every test holds it. The
/// guard recovers from poisoning because failpoint tests panic on purpose.
#[doc(hidden)]
pub fn test_serial_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
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

/// The decision for one hit, computed under the registry lock but acted
/// on outside it (sleeping or panicking while holding the lock would
/// stall or poison unrelated sites).
enum Decision {
    Nothing,
    Panic(String),
    Sleep(Duration),
    Error(String),
}

fn decide(name: &str) -> Decision {
    let mut reg = registry();
    let Some(fp) = reg.get_mut(name) else {
        return Decision::Nothing;
    };
    if fp.remaining == Some(0) {
        return Decision::Nothing;
    }
    if fp.one_in > 1 {
        // xorshift64* — deterministic per (seed, hit index).
        fp.rng ^= fp.rng << 13;
        fp.rng ^= fp.rng >> 7;
        fp.rng ^= fp.rng << 17;
        if fp.rng.wrapping_mul(0x2545F4914F6CDD1D) % fp.one_in as u64 != 0 {
            return Decision::Nothing;
        }
    }
    if let Some(n) = &mut fp.remaining {
        *n -= 1;
    }
    match fp.action {
        Action::Panic => Decision::Panic(format!("failpoint '{name}' fired: panic")),
        Action::Sleep(ms) => Decision::Sleep(Duration::from_millis(ms)),
        Action::Error => Decision::Error(format!("failpoint '{name}' fired: injected error")),
    }
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

    /// Failpoint state is process-global; every test that arms sites —
    /// here and in other modules of this binary — serializes behind the
    /// shared guard.
    use super::test_serial_guard as serial;

    #[test]
    fn disabled_sites_are_inert() {
        let _g = serial();
        disarm_all();
        fire("nope");
        assert!(fire_err("nope").is_ok());
        assert_eq!(ARMED.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn error_action_fires_only_at_fallible_sites() {
        let _g = serial();
        disarm_all();
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
        let _g = serial();
        disarm_all();
        arm("boom", Action::Panic);
        let res = std::panic::catch_unwind(|| fire("boom"));
        disarm_all();
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("failpoint 'boom'"), "{msg}");
    }

    #[test]
    fn hit_limit_self_disarms() {
        let _g = serial();
        disarm_all();
        arm_with("twice", Action::Error, 1, Some(2), 7);
        assert!(fire_err("twice").is_err());
        assert!(fire_err("twice").is_err());
        assert!(fire_err("twice").is_ok());
        disarm_all();
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let _g = serial();
        disarm_all();
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
        disarm_all();
    }

    #[test]
    fn env_spec_parses_all_forms_and_rejects_garbage() {
        let _g = serial();
        disarm_all();
        arm_from_spec("a=panic; b=sleep(5)%4 , c=error#2").unwrap();
        assert_eq!(armed_sites(), vec!["a", "b", "c"]);
        {
            let reg = registry();
            assert_eq!(reg["a"].action, Action::Panic);
            assert_eq!(reg["a"].one_in, 1);
            assert_eq!(reg["b"].action, Action::Sleep(5));
            assert_eq!(reg["b"].one_in, 4);
            assert_eq!(reg["c"].action, Action::Error);
            assert_eq!(reg["c"].remaining, Some(2));
        }
        disarm_all();
        assert!(arm_from_spec("x=explode").is_err());
        assert!(arm_from_spec("no-equals").is_err());
        assert!(arm_from_spec("x=error%zero").is_err());
        disarm_all();
    }
}
