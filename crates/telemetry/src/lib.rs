//! Dependency-free observability for the ZAC compile pipeline.
//!
//! Three pieces, all process-global and safe to call from any thread:
//!
//! * **Spans** — [`span!`] opens a hierarchical [`SpanGuard`] that records
//!   start/duration/parent into a per-thread buffer; [`take_spans`] merges
//!   and drains every buffer. Disabled spans are inert: no allocation, no
//!   lock, one relaxed atomic load.
//! * **Metrics** — [`metrics`] declares every counter/gauge/histogram in the
//!   workspace as a static with a `<crate>.<subsystem>.<name>` name;
//!   [`MetricsSnapshot::capture`] reads them all and serializes to a stable
//!   JSON schema.
//! * **Exporters** — [`chrome_trace_json`] renders drained spans in Chrome
//!   trace format (load in `chrome://tracing` or <https://ui.perfetto.dev>);
//!   [`MetricsSnapshot::to_json`] is the metrics dump.
//! * **Redaction** — [`redact`]/[`Redacted`] mask circuit labels and file
//!   paths on log surfaces (`[redacted:xxxxxxxx]`, stable per label) when
//!   `ZAC_REDACT=1` or [`set_redaction`] turns it on.
//! * **Fault injection** — [`fault_point!`] marks failure-capable sites;
//!   a seeded [`fault::FaultPlan`] (env `ZAC_FAULTS=seed:spec`) injects IO
//!   errors, panics, and delays deterministically. Disarmed, every point is
//!   one relaxed load.
//! * **Cancellation** — [`cancel::install`] sets a thread's compile
//!   deadline and [`cancel::cancelled`] lets the hot loops stop cooperatively
//!   once it has passed.
//!
//! Recording is off unless `ZAC_TELEMETRY` is set to a non-empty value other
//! than `0` (checked once, at the first [`enabled`] query), or a test/tool
//! flips it programmatically with [`set_enabled`]. Instrumentation never
//! changes compiler output — the recorder only observes; a bit-identity test
//! in the facade crate locks that invariant.
//!
//! Building with the `noop` cargo feature compiles the recorder out
//! entirely: [`enabled`] folds to `false` at compile time and the optimizer
//! deletes every guard and counter behind it.

pub mod cancel;
mod export;
pub mod fault;
pub mod metrics;
pub mod redact;
mod span;

pub use export::chrome_trace_json;
pub use fault::FaultPlan;
pub use metrics::MetricsSnapshot;
pub use redact::{redact, redaction_enabled, set_redaction, Redacted};
pub use span::{take_spans, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicU8, Ordering};

// Tri-state so the environment is consulted exactly once: 0 = uninitialized,
// 1 = disabled, 2 = enabled.
const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether the recorder is currently capturing spans and metrics.
///
/// The first call reads `ZAC_TELEMETRY` from the environment; after that the
/// check is a single relaxed atomic load, so it is cheap enough for hot
/// paths. [`set_enabled`] overrides the environment at any time.
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_environment(),
    }
}

#[cold]
fn init_from_environment() -> bool {
    let on = std::env::var("ZAC_TELEMETRY").is_ok_and(|v| !v.is_empty() && v != "0");
    let target = if on { STATE_ON } else { STATE_OFF };
    // Only transition out of UNINIT: a concurrent set_enabled() wins.
    let _ = STATE.compare_exchange(STATE_UNINIT, target, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Programmatically enables or disables recording, overriding the
/// environment. Used by tests and tools that need deterministic control; a
/// `noop` build ignores it.
pub fn set_enabled(on: bool) {
    if cfg!(feature = "noop") {
        return;
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Opens a [`SpanGuard`] that records a span until it goes out of scope.
///
/// `span!("core.place")` records an unlabeled span; the two-argument form
/// `span!("core.place", &circuit_name)` attaches a label (the label
/// expression is evaluated either way, but only copied to the heap when the
/// recorder is enabled).
///
/// ```
/// let _guard = zac_telemetry::span!("doc.example");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, $label:expr) => {
        $crate::SpanGuard::enter_labeled($name, $label)
    };
}

/// Evaluates the named fault point (see [`fault`]).
///
/// Expands to [`fault::hit`]: `None` passes (and is the only possible
/// answer while no plan is armed — one relaxed load, no allocation);
/// `Some(io::Error)` is an injected failure for the caller to propagate.
/// Armed `delay` rules sleep inside the call, `panic` rules panic there.
///
/// ```
/// if let Some(e) = zac_telemetry::fault_point!("doc.example.write") {
///     let _: std::io::Error = e; // propagate as the real failure would
/// }
/// ```
#[macro_export]
macro_rules! fault_point {
    ($name:expr) => {
        $crate::fault::hit($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_round_trips() {
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
