//! Deterministic fault injection behind named fault points.
//!
//! Production code marks every spot where the outside world can fail with
//! [`fault_point!`](crate::fault_point): disk reads and writes in the cache,
//! the compile call in the serve executor, the session writer. Each point
//! compiles to one relaxed atomic load; while no plan is armed the check
//! returns `None` without locking or allocating, so fault points are free to
//! leave in release builds (the alloc-free telemetry test covers the
//! disarmed path, and the workspace bit-identity suites double as the
//! golden-digest guard that arming-off changes nothing).
//!
//! A [`FaultPlan`] arms the points. Plans come from the `ZAC_FAULTS`
//! environment variable (consulted once, at the first [`hit`]) or
//! programmatically via [`arm`]; the spec grammar is
//!
//! ```text
//! ZAC_FAULTS=<seed>:<point>=<kind>[@<rate>][,<point>=<kind>[@<rate>]...]
//! ```
//!
//! with kinds `io` (return an injected [`std::io::Error`]), `panic`
//! (panic at the point), and `delay<ms>` (sleep for `<ms>` milliseconds,
//! then pass). `rate` is a probability in `[0, 1]` (default `1`), drawn
//! **deterministically**: the n-th hit of a rule fires iff
//! `fnv64(seed, point, rule, n)` maps below the rate, so a given seed
//! replays the exact same fault sequence on every run.
//!
//! Example: `ZAC_FAULTS=7:cache.disk.write=io@0.5,serve.exec.compile=delay5`
//! fails half of all disk-cache writes and slows every compile by 5 ms,
//! reproducibly under seed 7.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

// Tri-state mirroring `crate::STATE`: the environment is consulted exactly
// once, and `arm`/`disarm` override it at any time.
const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static PLAN: Mutex<Option<std::sync::Arc<FaultPlan>>> = Mutex::new(None);

/// Total faults actually injected (fired, not just evaluated), independent
/// of the telemetry recorder so soak tests can assert on it while metrics
/// stay disabled. The gated `fault.injected` counter mirrors it.
static INJECTED: AtomicU64 = AtomicU64::new(0);

/// What an armed rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Return an injected `std::io::Error` from the fault point.
    Io,
    /// Panic at the fault point.
    Panic,
    /// Sleep for this many milliseconds, then let the operation proceed.
    Delay(u64),
}

#[derive(Debug)]
struct Rule {
    point: String,
    kind: FaultKind,
    /// Firing probability in `[0, 1]`.
    rate: f64,
    /// Hits seen so far (the deterministic draw's sequence number).
    hits: AtomicU64,
}

/// A seeded, named set of fault rules. Parse one with [`FaultPlan::parse`]
/// and activate it with [`arm`].
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// Parses a `<seed>:<point>=<kind>[@<rate>],...` spec (the `ZAC_FAULTS`
    /// grammar, documented at the module level).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed component.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed, rules_spec) = spec
            .split_once(':')
            .ok_or_else(|| format!("fault spec `{spec}` is missing the `<seed>:` prefix"))?;
        let seed: u64 =
            seed.trim().parse().map_err(|_| format!("fault seed `{seed}` is not a u64"))?;
        let mut rules = Vec::new();
        for part in rules_spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (point, action) = part
                .split_once('=')
                .ok_or_else(|| format!("fault rule `{part}` is missing `=<kind>`"))?;
            let (kind_spec, rate) = match action.split_once('@') {
                Some((kind, rate)) => {
                    let rate: f64 =
                        rate.parse().map_err(|_| format!("fault rate `{rate}` is not a number"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("fault rate `{rate}` is outside [0, 1]"));
                    }
                    (kind, rate)
                }
                None => (action, 1.0),
            };
            let kind = match kind_spec {
                "io" => FaultKind::Io,
                "panic" => FaultKind::Panic,
                delay if delay.starts_with("delay") => {
                    let ms = delay["delay".len()..]
                        .parse()
                        .map_err(|_| format!("fault delay `{delay}` needs `delay<ms>`"))?;
                    FaultKind::Delay(ms)
                }
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (expected `io`, `panic`, or `delay<ms>`)"
                    ))
                }
            };
            rules.push(Rule {
                point: point.trim().to_string(),
                kind,
                rate,
                hits: AtomicU64::new(0),
            });
        }
        if rules.is_empty() {
            return Err(format!("fault spec `{spec}` declares no rules"));
        }
        Ok(Self { seed, rules })
    }

    /// Evaluates one hit of `point`: the fired kind, or `None` to pass.
    fn draw(&self, point: &str) -> Option<FaultKind> {
        for (index, rule) in self.rules.iter().enumerate() {
            if rule.point != point {
                continue;
            }
            let n = rule.hits.fetch_add(1, Ordering::Relaxed);
            if unit_draw(self.seed, point, index as u64, n) < rule.rate {
                return Some(rule.kind);
            }
        }
        None
    }
}

/// FNV-1a over the draw coordinates, folded to a uniform draw in `[0, 1)`.
/// Pure function of (seed, point, rule, hit index): replayable by seed.
fn unit_draw(seed: u64, point: &str, rule: u64, n: u64) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Part separator so ("ab", "c") and ("a", "bc") diverge.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(&seed.to_le_bytes());
    eat(point.as_bytes());
    eat(&rule.to_le_bytes());
    eat(&n.to_le_bytes());
    // Top 53 bits → [0, 1) with full double precision.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Arms `plan`: every [`hit`] from now on consults it. Replaces any
/// previously armed plan (its hit counters reset with it).
pub fn arm(plan: FaultPlan) {
    let mut slot = PLAN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = Some(std::sync::Arc::new(plan));
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Disarms fault injection: every [`hit`] returns `None` again.
pub fn disarm() {
    let mut slot = PLAN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = None;
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

/// Whether a plan is currently armed.
pub fn armed() -> bool {
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Faults fired so far in this process (always counted, recorder or not).
pub fn injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Evaluates the fault point `point`.
///
/// Disarmed (the default), this is one relaxed atomic load returning
/// `None` — no lock, no allocation. Armed, the plan's matching rules draw
/// deterministically: a `delay` sleeps then passes, a `panic` panics here,
/// and `io` returns `Some(error)` for the caller to propagate as if the
/// underlying operation had failed.
#[inline]
pub fn hit(point: &'static str) -> Option<std::io::Error> {
    match STATE.load(Ordering::Relaxed) {
        STATE_OFF => None,
        STATE_ON => hit_slow(point),
        _ => {
            init_from_environment();
            hit(point)
        }
    }
}

#[cold]
fn init_from_environment() {
    let target = match std::env::var("ZAC_FAULTS") {
        Ok(spec) if !spec.is_empty() => match FaultPlan::parse(&spec) {
            Ok(plan) => {
                let mut slot = PLAN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(std::sync::Arc::new(plan));
                }
                STATE_ON
            }
            Err(e) => {
                eprintln!("zac-telemetry: ignoring invalid ZAC_FAULTS: {e}");
                STATE_OFF
            }
        },
        _ => STATE_OFF,
    };
    // Only transition out of UNINIT: a concurrent arm()/disarm() wins.
    let _ = STATE.compare_exchange(STATE_UNINIT, target, Ordering::Relaxed, Ordering::Relaxed);
}

#[cold]
fn hit_slow(point: &'static str) -> Option<std::io::Error> {
    let plan = {
        let slot = PLAN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        slot.clone()
    }?;
    let kind = plan.draw(point)?;
    INJECTED.fetch_add(1, Ordering::Relaxed);
    crate::metrics::FAULT_INJECTED.incr();
    match kind {
        FaultKind::Io => Some(std::io::Error::other(format!("injected fault at {point}"))),
        FaultKind::Delay(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        FaultKind::Panic => panic!("injected panic at fault point {point}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault state is process-global and tests in one binary run in
    // parallel: every test that arms must hold the gate.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn specs_parse_and_reject_malformed_components() {
        let plan = FaultPlan::parse("7:cache.disk.write=io@0.5,serve.exec.compile=delay5").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].kind, FaultKind::Io);
        assert_eq!(plan.rules[0].rate, 0.5);
        assert_eq!(plan.rules[1].kind, FaultKind::Delay(5));
        assert_eq!(plan.rules[1].rate, 1.0);

        for bad in [
            "no-seed-prefix",
            "x:a=io",
            "1:a",
            "1:a=explode",
            "1:a=io@nope",
            "1:a=io@1.5",
            "1:a=delayxx",
            "1:",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_respect_rates() {
        let sequence = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse(&format!("{seed}:p=io@0.5")).unwrap();
            (0..64).map(|_| plan.draw("p").is_some()).collect()
        };
        assert_eq!(sequence(7), sequence(7), "same seed replays the same faults");
        assert_ne!(sequence(7), sequence(8), "different seeds diverge");
        let fired = sequence(7).iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&fired), "rate 0.5 fires about half: {fired}/64");

        let always = FaultPlan::parse("1:p=io").unwrap();
        assert!((0..32).all(|_| always.draw("p").is_some()), "rate 1 always fires");
        let never = FaultPlan::parse("1:p=io@0").unwrap();
        assert!((0..32).all(|_| never.draw("p").is_none()), "rate 0 never fires");
        assert!(always.draw("other.point").is_none(), "unmatched points pass");
    }

    #[test]
    fn arming_gates_hits_and_disarming_restores_the_fast_path() {
        let _gate = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        disarm();
        assert!(!armed());
        assert!(hit("fault.test.point").is_none());

        arm(FaultPlan::parse("3:fault.test.point=io").unwrap());
        assert!(armed());
        let before = injected();
        let err = hit("fault.test.point").expect("armed io rule fires");
        assert!(err.to_string().contains("fault.test.point"));
        assert!(injected() > before, "fired faults are counted");
        assert!(hit("fault.other.point").is_none(), "unmatched points still pass");

        disarm();
        assert!(hit("fault.test.point").is_none());
    }

    #[test]
    fn injected_panics_carry_the_point_name() {
        let _gate = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        arm(FaultPlan::parse("3:fault.panic.point=panic").unwrap());
        let panicked = std::panic::catch_unwind(|| hit("fault.panic.point"));
        disarm();
        let payload = panicked.expect_err("panic rule panics");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("fault.panic.point"), "{message}");
    }
}
