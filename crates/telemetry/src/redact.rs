//! Label redaction for safe logging.
//!
//! Circuit names and file paths can carry customer-identifying information
//! (proprietary algorithm names, home-directory paths), so a deployment
//! that ships service logs off-box needs a way to mask them without losing
//! the ability to correlate lines about the *same* circuit. When redaction
//! is on, [`redact`] replaces a label with `[redacted:xxxxxxxx]`, where the
//! tag is a stable FNV-1a digest of the original — equal labels redact to
//! equal tags, so "which request" survives while "which circuit" does not.
//!
//! Redaction is off unless `ZAC_REDACT` is set to a non-empty value other
//! than `0` (checked once, at the first [`redaction_enabled`] query), or a
//! test/tool flips it with [`set_redaction`] — the same tri-state idiom as
//! the recorder's `enabled`/`set_enabled` pair. Redaction applies to *log
//! surfaces* (service logs, span labels); protocol payloads keep real names
//! because the client sent them in the first place.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether labels are currently being masked.
///
/// The first call reads `ZAC_REDACT` from the environment; after that the
/// check is a single relaxed atomic load. [`set_redaction`] overrides the
/// environment at any time.
#[inline]
pub fn redaction_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_environment(),
    }
}

#[cold]
fn init_from_environment() -> bool {
    let on = std::env::var("ZAC_REDACT").is_ok_and(|v| !v.is_empty() && v != "0");
    let target = if on { STATE_ON } else { STATE_OFF };
    // Only transition out of UNINIT: a concurrent set_redaction() wins.
    let _ = STATE.compare_exchange(STATE_UNINIT, target, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Programmatically enables or disables redaction, overriding the
/// environment. Used by tests and tools that need deterministic control.
pub fn set_redaction(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Masks `label` when redaction is on; passes it through untouched (and
/// unallocated) when off.
///
/// The mask is `[redacted:xxxxxxxx]` with a stable 32-bit FNV-1a tag of the
/// original bytes, so equal labels stay correlatable across log lines and
/// runs without revealing the label itself.
pub fn redact(label: &str) -> Cow<'_, str> {
    if !redaction_enabled() {
        return Cow::Borrowed(label);
    }
    Cow::Owned(format!("[redacted:{:08x}]", fnv1a_32(label.as_bytes())))
}

/// A label that redacts itself at `Display` time — defer the decision to
/// when the log line is actually rendered:
///
/// ```
/// use zac_telemetry::Redacted;
/// let line = format!("compiled {}", Redacted("ghz_20"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Redacted<'a>(pub &'a str);

impl fmt::Display for Redacted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&redact(self.0))
    }
}

fn fnv1a_32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redaction_masks_stably_and_passes_through_when_off() {
        set_redaction(false);
        assert_eq!(redact("qaoa_secret_ansatz"), "qaoa_secret_ansatz");
        assert!(matches!(redact("x"), Cow::Borrowed(_)), "off path must not allocate");

        set_redaction(true);
        let a = redact("qaoa_secret_ansatz").into_owned();
        assert!(a.starts_with("[redacted:") && a.ends_with(']'), "{a}");
        assert!(!a.contains("qaoa"), "original label must not leak: {a}");
        // Stable: equal labels correlate; distinct labels separate.
        assert_eq!(redact("qaoa_secret_ansatz"), a);
        assert_ne!(redact("/home/alice/circuits/f.qasm"), a);
        // Display wrapper renders the same mask.
        assert_eq!(format!("{}", Redacted("qaoa_secret_ansatz")), a);
        set_redaction(false);
        assert_eq!(format!("{}", Redacted("plain")), "plain");
    }
}
