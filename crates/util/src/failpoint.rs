//! Deterministic fault injection for the sweep pipeline.
//!
//! A *failpoint* is a named hook compiled into a hot or fragile code path —
//! `failpoint::hit("sweep.job_claim")` — that does nothing until it is
//! *armed* with an action (panic, delay, injected error) and a trigger
//! (every hit, the Nth hit, or a seeded percentage of hits). Armed
//! schedules replay byte-for-byte: percentage triggers draw from a
//! per-failpoint SplitMix64 stream derived from a fixed base seed, so the
//! same `DCN_FAILPOINTS` string against the same workload fires at the
//! same hits every time.
//!
//! A *disarmed* registry costs one relaxed atomic load per hit — the
//! `micro_batch` overhead point (`batch_failpoint_rbma_b12_zipf/disarmed`)
//! gates this staying unmeasurable.
//!
//! # Arming grammar
//!
//! `DCN_FAILPOINTS` (or [`arm_list`]) takes a comma-separated list of
//! `name=action[@trigger]` clauses:
//!
//! ```text
//! sweep.job_claim=panic@5          panic on the 5th hit (once)
//! sim.chunk=delay:50ms@7%          sleep 50 ms on a seeded 7% of hits
//! shard.parse=error:injected       injected parse error on every eval
//! ```
//!
//! Actions: `panic`, `delay:<N>ms` (or bare `<N>` = milliseconds), and
//! `error[:message]`. `panic` and `delay` fire from [`hit`]; `error` is
//! only observable through [`eval`], which parser-style call sites use to
//! surface an injected failure as a structured `Err` instead of a panic.
//! Triggers: absent = every hit, `@N` = exactly the Nth hit, `@N%` =
//! each hit independently with probability N/100 from the seeded stream.
//! The base seed comes from `DCN_FAILPOINTS_SEED` (default 0) or
//! [`set_seed`].

use crate::rngx;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

struct Point {
    action: Action,
    trigger: Trigger,
    /// Total times the site was reached while this point was armed.
    hits: u64,
    /// Times the trigger matched and the action ran.
    fired: u64,
    /// Per-point SplitMix64 state for `Trigger::Percent` draws.
    rng: u64,
}

struct Registry {
    points: HashMap<String, Point>,
    seed: u64,
}

/// Number of armed points, mirrored out of the mutex so a disarmed
/// [`hit`] is a single relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    // A failpoint panic that unwinds through a caller currently holding
    // no lock still poisons this mutex if the panic started *inside*
    // the critical section; actions therefore always run after the
    // guard drops, and lock recovery here keeps the registry usable
    // across caught injected panics.
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let reg = guard.get_or_insert_with(|| Registry {
        points: HashMap::new(),
        seed: std::env::var("DCN_FAILPOINTS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0),
    });
    f(reg)
}

fn name_stream(name: &str) -> u64 {
    let mut h = crate::fxhash::FxHasher::default();
    name.hash(&mut h);
    h.finish()
}

/// Evaluates the trigger for one arrival at `name`; returns the action
/// to execute, cloned out so the caller acts after the lock drops.
fn check(name: &str) -> Option<Action> {
    with_registry(|reg| {
        let point = reg.points.get_mut(name)?;
        point.hits += 1;
        let fire = match point.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => point.hits == n,
            Trigger::Percent(p) => rngx::splitmix64(&mut point.rng) % 100 < u64::from(p),
        };
        if fire {
            point.fired += 1;
            Some(point.action.clone())
        } else {
            None
        }
    })
}

fn sync_armed_count(reg: &Registry) {
    ARMED.store(reg.points.len(), Ordering::Relaxed);
}

/// What an armed failpoint does when its trigger matches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Panic with a message naming the failpoint.
    Panic,
    /// Sleep for the given duration, then continue.
    Delay(Duration),
    /// Surface the message through [`eval`]; ignored by [`hit`].
    Error(String),
}

/// When an armed failpoint's action runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Every hit.
    Always,
    /// Exactly the Nth hit (1-based), once.
    Nth(u64),
    /// Each hit independently with probability N/100, drawn from the
    /// per-failpoint seeded stream.
    Percent(u8),
}

/// Marks an execution of the named failpoint site.
///
/// Disarmed (the common case) this is one relaxed atomic load. Armed with
/// `panic` it panics; armed with `delay` it sleeps; `error` actions are
/// inert here (use [`eval`] at sites that can return structured errors).
#[inline]
pub fn hit(name: &str) {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return;
    }
    hit_slow(name);
}

#[cold]
fn hit_slow(name: &str) {
    match check(name) {
        Some(Action::Panic) => panic!("failpoint '{name}' fired: injected panic"),
        Some(Action::Delay(d)) => std::thread::sleep(d),
        Some(Action::Error(_)) | None => {}
    }
}

/// Like [`hit`], but lets `error`-armed failpoints inject a structured
/// failure: returns `Some(message)` when the trigger matches an `error`
/// action, which the call site should convert into its own `Err`.
///
/// `panic` and `delay` actions behave exactly as under [`hit`].
#[inline]
pub fn eval(name: &str) -> Option<String> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    eval_slow(name)
}

#[cold]
fn eval_slow(name: &str) -> Option<String> {
    match check(name) {
        Some(Action::Panic) => panic!("failpoint '{name}' fired: injected panic"),
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            None
        }
        Some(Action::Error(msg)) => Some(msg),
        None => None,
    }
}

/// Arms one failpoint programmatically. Re-arming a name resets its hit
/// and fire counts and its RNG stream.
pub fn arm(name: &str, action: Action, trigger: Trigger) {
    with_registry(|reg| {
        let rng_seed = rngx::derive_seed(reg.seed, name_stream(name));
        reg.points.insert(
            name.to_string(),
            Point {
                action,
                trigger,
                hits: 0,
                fired: 0,
                rng: rng_seed,
            },
        );
        sync_armed_count(reg);
    });
}

/// Arms failpoints from a comma-separated `name=action[@trigger]` list
/// (the `DCN_FAILPOINTS` grammar; see the module docs).
pub fn arm_list(spec: &str) -> Result<(), String> {
    for clause in spec.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (name, rest) = clause
            .split_once('=')
            .ok_or_else(|| format!("failpoint clause '{clause}' is missing '='"))?;
        let (action, trigger) =
            parse_spec(rest).map_err(|e| format!("failpoint clause '{clause}': {e}"))?;
        arm(name.trim(), action, trigger);
    }
    Ok(())
}

/// Arms failpoints from the `DCN_FAILPOINTS` environment variable, if set.
/// Returns the number of clauses armed.
pub fn arm_from_env() -> Result<usize, String> {
    match std::env::var("DCN_FAILPOINTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            let before = armed_count();
            arm_list(&spec)?;
            Ok(armed_count().saturating_sub(before).max(1))
        }
        _ => Ok(0),
    }
}

/// Parses `action[@trigger]`: `panic@3`, `delay:50ms@7%`, `error:msg`.
fn parse_spec(spec: &str) -> Result<(Action, Trigger), String> {
    // The trigger suffix is the part after the *last* '@' that parses as
    // a count or percentage, so error messages may contain '@'.
    let (action_str, trigger) = match spec.rsplit_once('@') {
        Some((head, tail)) if parse_trigger(tail).is_some() => (head, parse_trigger(tail).unwrap()),
        _ => (spec, Trigger::Always),
    };
    let action = if action_str == "panic" {
        Action::Panic
    } else if let Some(arg) = action_str.strip_prefix("delay:") {
        let ms: u64 = arg
            .strip_suffix("ms")
            .unwrap_or(arg)
            .parse()
            .map_err(|_| format!("bad delay duration '{arg}' (expected e.g. '50ms')"))?;
        Action::Delay(Duration::from_millis(ms))
    } else if action_str == "error" {
        Action::Error("injected failpoint error".to_string())
    } else if let Some(msg) = action_str.strip_prefix("error:") {
        Action::Error(msg.to_string())
    } else {
        return Err(format!(
            "unknown action '{action_str}' (expected panic, delay:<N>ms, or error[:msg])"
        ));
    };
    Ok((action, trigger))
}

fn parse_trigger(tail: &str) -> Option<Trigger> {
    if let Some(pct) = tail.strip_suffix('%') {
        let p: u8 = pct.parse().ok()?;
        (p <= 100).then_some(Trigger::Percent(p))
    } else {
        tail.parse().ok().map(Trigger::Nth)
    }
}

/// Disarms one failpoint; returns whether it was armed. Tests should
/// disarm exactly the names they armed so parallel tests don't interfere.
pub fn disarm(name: &str) -> bool {
    with_registry(|reg| {
        let removed = reg.points.remove(name).is_some();
        sync_armed_count(reg);
        removed
    })
}

/// Disarms every failpoint.
pub fn disarm_all() {
    with_registry(|reg| {
        reg.points.clear();
        sync_armed_count(reg);
    });
}

/// Number of currently armed failpoints.
pub fn armed_count() -> usize {
    ARMED.load(Ordering::Relaxed)
}

/// Hit count for a named failpoint since it was (re-)armed.
pub fn hits(name: &str) -> u64 {
    with_registry(|reg| reg.points.get(name).map_or(0, |p| p.hits))
}

/// Fire count for a named failpoint since it was (re-)armed.
pub fn fired(name: &str) -> u64 {
    with_registry(|reg| reg.points.get(name).map_or(0, |p| p.fired))
}

/// Sets the base seed for percentage-trigger draws. Takes effect for
/// failpoints armed afterwards; `DCN_FAILPOINTS_SEED` sets the initial
/// value.
pub fn set_seed(seed: u64) {
    with_registry(|reg| reg.seed = seed);
}

/// Snapshot of `(name, hits, fired)` for every armed failpoint, for
/// diagnostics and tests.
pub fn snapshot() -> Vec<(String, u64, u64)> {
    let mut v: Vec<_> = with_registry(|reg| {
        reg.points
            .iter()
            .map(|(k, p)| (k.clone(), p.hits, p.fired))
            .collect()
    });
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint state is process-global; tests here use unique names and a
    // shared lock so they can run under the default parallel test runner
    // without observing each other's arming.
    use std::sync::Mutex;
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_hit_is_a_no_op() {
        let _g = locked();
        hit("test.never_armed");
        assert_eq!(eval("test.never_armed"), None);
        assert_eq!(hits("test.never_armed"), 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _g = locked();
        arm("test.nth", Action::Delay(Duration::ZERO), Trigger::Nth(3));
        for _ in 0..10 {
            hit("test.nth");
        }
        assert_eq!(hits("test.nth"), 10);
        assert_eq!(fired("test.nth"), 1);
        assert!(disarm("test.nth"));
    }

    #[test]
    fn panic_action_panics_with_the_failpoint_name() {
        let _g = locked();
        arm("test.panic", Action::Panic, Trigger::Always);
        let r = std::panic::catch_unwind(|| hit("test.panic"));
        disarm("test.panic");
        let payload = r.expect_err("armed panic failpoint must panic");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("test.panic"), "payload: {msg}");
    }

    #[test]
    fn eval_surfaces_error_actions_and_hit_ignores_them() {
        let _g = locked();
        arm(
            "test.err",
            Action::Error("boom".to_string()),
            Trigger::Always,
        );
        hit("test.err"); // inert
        assert_eq!(eval("test.err").as_deref(), Some("boom"));
        disarm("test.err");
    }

    #[test]
    fn percent_trigger_replays_byte_for_byte() {
        let _g = locked();
        let run = || {
            set_seed(99);
            arm(
                "test.pct",
                Action::Delay(Duration::ZERO),
                Trigger::Percent(30),
            );
            let fires: Vec<u64> = (0..200)
                .map(|_| {
                    hit("test.pct");
                    fired("test.pct")
                })
                .collect();
            disarm("test.pct");
            fires
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded percent schedule must replay identically");
        let total = *a.last().unwrap();
        assert!(
            (30..=90).contains(&total),
            "~30% of 200 hits should fire, got {total}"
        );
    }

    #[test]
    fn arm_list_parses_the_env_grammar() {
        let _g = locked();
        arm_list("test.a=panic@5, test.b=delay:50ms@7%, test.c=error:bad byte").unwrap();
        assert!(armed_count() >= 3);
        let snap = snapshot();
        assert!(snap.iter().any(|(n, _, _)| n == "test.a"));
        disarm("test.a");
        disarm("test.b");
        disarm("test.c");

        assert!(arm_list("nonsense").is_err());
        assert!(arm_list("x=frobnicate").is_err());
        assert!(arm_list("x=delay:abc").is_err());
    }

    #[test]
    fn rearming_resets_counts() {
        let _g = locked();
        arm("test.rearm", Action::Delay(Duration::ZERO), Trigger::Nth(1));
        hit("test.rearm");
        assert_eq!(fired("test.rearm"), 1);
        arm("test.rearm", Action::Delay(Duration::ZERO), Trigger::Nth(1));
        assert_eq!(hits("test.rearm"), 0);
        assert_eq!(fired("test.rearm"), 0);
        disarm("test.rearm");
    }
}
