//! The timed window's wall-clock figures, scaled for CPU steal.
//!
//! On a shared virtual machine the hypervisor takes part of this
//! machine's CPU time (`steal` in `/proc/stat`): 5–35% on the build box,
//! changing from second to second. The service's work is CPU-bound, so a
//! stretch of wall time in which the machine kept a share `k` of its CPU
//! does, to first order, the work a dedicated machine does in `k` times
//! that time. Throughput is counted per kept second and each latency is
//! scaled by the share kept while it ran; where the kernel reports no
//! steal, nothing changes. Steal is sampled every
//! [`crate::client::MARK_EVERY`] and interpolated linearly between samples.

use crate::client::{Drive, Mark};
use std::time::Instant;

/// Equal slices of the window; `circuits_per_s` and
/// `server_cpu_ms_per_circuit` are medians over them, so a stall in one
/// stretch of the run moves one slice, not the result.
pub const SLICES: u32 = 10;

/// The window's scaled figures.
pub struct Figures {
    /// Ok circuits per kept second, per slice.
    pub rates: Vec<f64>,
    /// Server CPU ms per ok circuit, per slice with ok circuits.
    pub server_cpu_ms_per_circuit: Vec<f64>,
    /// Latency (ms) of every request answered in the window, scaled.
    pub latencies_ms: Vec<f64>,
    /// The same latencies, unscaled.
    pub raw_latencies_ms: Vec<f64>,
    /// Mean share of the machine's CPU stolen over the window.
    pub steal_share: f64,
}

/// `field` interpolated at `t` between the drive's marks.
fn at(marks: &[Mark], t: Instant, field: fn(&Mark) -> f64) -> f64 {
    let next = marks.partition_point(|m| m.at <= t);
    match (next.checked_sub(1).map(|i| &marks[i]), marks.get(next)) {
        (Some(a), Some(b)) => {
            let span = (b.at - a.at).as_secs_f64();
            let frac = if span > 0.0 { (t - a.at).as_secs_f64() / span } else { 0.0 };
            field(a) + (field(b) - field(a)) * frac
        }
        (Some(a), None) => field(a),
        (None, Some(b)) => field(b),
        (None, None) => 0.0,
    }
}

/// The share of CPU the machine kept over `[from, to]`.
fn kept(marks: &[Mark], from: Instant, to: Instant, ncpu: f64) -> f64 {
    let steal = at(marks, to, |m| m.steal_s) - at(marks, from, |m| m.steal_s);
    let seconds = (to - from).as_secs_f64().max(1e-9);
    1.0 - (steal / (seconds * ncpu)).clamp(0.0, 0.9)
}

/// Computes the window's figures from the drive and the post-run check's
/// ok count per request.
pub fn figures(drive: &Drive, ok_by_request: &[usize], ncpu: f64) -> Figures {
    let marks = &drive.marks;
    let mut latencies_ms = Vec::new();
    let mut raw_latencies_ms = Vec::new();
    for (i, latency) in drive.in_window() {
        let sent = drive.sent[i];
        raw_latencies_ms.push(latency.as_secs_f64() * 1e3);
        latencies_ms.push(latency.as_secs_f64() * 1e3 * kept(marks, sent, sent + latency, ncpu));
    }
    let slice = (drive.end - drive.start) / SLICES;
    let mut rates = Vec::new();
    let mut server_cpu_ms_per_circuit = Vec::new();
    for k in 0..SLICES {
        let from = drive.start + slice * k;
        let to = from + slice;
        let ok: usize = drive
            .done
            .iter()
            .zip(ok_by_request)
            .filter(|(done, _)| done.is_some_and(|t| t > from && t <= to))
            .map(|(_, ok)| ok)
            .sum();
        let seconds = slice.as_secs_f64().max(1e-9);
        rates.push(ok as f64 / (seconds * kept(marks, from, to, ncpu)));
        if ok > 0 {
            let cpu = at(marks, to, |m| m.server_cpu_s) - at(marks, from, |m| m.server_cpu_s);
            server_cpu_ms_per_circuit.push(cpu * 1e3 / ok as f64);
        }
    }
    let steal_share = 1.0 - kept(marks, drive.start, drive.end, ncpu);
    Figures { rates, server_cpu_ms_per_circuit, latencies_ms, raw_latencies_ms, steal_share }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn interpolates_between_marks() {
        let t0 = Instant::now();
        let mark = |ms: u64, steal_s: f64| Mark {
            at: t0 + Duration::from_millis(ms),
            server_cpu_s: 0.0,
            steal_s,
        };
        let marks = [mark(0, 0.0), mark(100, 0.1)];
        let mid = t0 + Duration::from_millis(50);
        assert!((at(&marks, mid, |m| m.steal_s) - 0.05).abs() < 1e-9);
        // 0.1 s stolen of 2 CPUs × 0.1 s: half the CPU kept.
        let end = t0 + Duration::from_millis(100);
        assert!((kept(&marks, t0, end, 2.0) - 0.5).abs() < 1e-9);
        assert_eq!(kept(&marks[..1], t0, end, 2.0), 1.0, "no steal samples, no scaling");
    }
}
