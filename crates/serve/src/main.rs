//! `zac-serve` — the compile service over stdin/stdout.
//!
//! Reads one JSON request per line from stdin, streams JSON responses one
//! per line on stdout (interleaved across in-flight requests; correlate by
//! `id`). Exits when stdin closes and every submitted request has
//! terminated: EOF starts a graceful drain — no new requests are accepted,
//! every in-flight entry still gets its terminal response, the writer
//! flushes, and the process exits 0.
//!
//! Environment:
//!
//! * `ZAC_SERVE_WORKERS`  — worker threads (default: CPUs, capped at 8);
//! * `ZAC_SERVE_QUEUE`    — queue capacity in jobs (default 1024);
//! * `ZAC_CACHE_DIR`      — back the compile cache with the segment-log
//!   store in this directory; N services pointed at the same directory
//!   share one store (see DESIGN.md §4);
//! * `ZAC_WARM_MANIFEST`  — corpus manifest (JSON) whose cells are
//!   preloaded from disk into the memory tier before serving;
//! * `ZAC_SERVE_LOG`      — per-request stderr logging (names redacted
//!   when `ZAC_REDACT=1`);
//! * `ZAC_TELEMETRY`      — attach metrics deltas (and traces on request)
//!   to `Done` responses;
//! * `ZAC_FAULTS`         — arm a seeded fault plan (`seed:point=kind@rate,
//!   …`) for resilience testing; see DESIGN.md §10.

#![deny(clippy::unwrap_used)]

use std::io::{BufRead, Write};
use std::sync::mpsc::channel;
use zac_serve::{Response, Service, ServiceConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Writes one response line, retrying transient failures (including
/// injected ones at the `serve.session.write_line` fault point) a bounded
/// number of times. Output I/O is the one seam the service cannot route a
/// typed response through — the retry keeps a transient stdout hiccup from
/// silently dropping a terminal response.
fn write_line(lock: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut last = std::io::Error::other("write failed");
    // Once the line is buffered, only the flush is retried — re-running
    // the write after a transient flush failure would emit the response
    // twice, breaking the exactly-one-terminal-response invariant.
    let mut written = false;
    for _ in 0..3 {
        if !written {
            let wrote = match zac_telemetry::fault_point!("serve.session.write_line") {
                Some(e) => Err(e),
                None => writeln!(lock, "{line}"),
            };
            match wrote {
                Ok(()) => written = true,
                Err(e) => {
                    last = e;
                    continue;
                }
            }
        }
        match lock.flush() {
            Ok(()) => return Ok(()),
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn main() {
    let mut config = ServiceConfig::default();
    config.workers = env_usize("ZAC_SERVE_WORKERS", config.workers);
    config.queue_capacity = env_usize("ZAC_SERVE_QUEUE", config.queue_capacity);
    if let Ok(dir) = std::env::var("ZAC_CACHE_DIR") {
        if !dir.is_empty() {
            match zac_cache::CompileCache::with_segment_store(4096, &dir) {
                Ok(cache) => config.cache = cache,
                Err(e) => {
                    // A broken cache directory must not take the service
                    // down; degrade to the in-memory default and say so.
                    eprintln!("zac-serve: cache dir {dir:?} unusable ({e}); running memory-only");
                }
            }
        }
    }
    if let Ok(path) = std::env::var("ZAC_WARM_MANIFEST") {
        if !path.is_empty() {
            match zac_core::CorpusManifest::load(&path) {
                Ok(manifest) => {
                    let report = config.cache.warm_from_manifest(&manifest);
                    eprintln!(
                        "zac-serve: warmed {}/{} manifest cells from {path}",
                        report.warmed, report.requested
                    );
                }
                Err(e) => {
                    eprintln!("zac-serve: warm manifest {path} unusable ({e}); starting cold")
                }
            }
        }
    }
    let service = Service::new(config);

    // One writer thread serializes all responses; every request streams
    // into a clone of its sender, so streams interleave without tearing
    // lines.
    let (out_tx, out_rx) = channel::<Response>();
    let writer = std::thread::spawn(move || {
        let stdout = std::io::stdout();
        for response in out_rx {
            let line = serde_json::to_string(&response).unwrap_or_default();
            let mut lock = stdout.lock();
            if write_line(&mut lock, &line).is_err() {
                return; // downstream closed for good; keep draining silently
            }
        }
    });

    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        service.submit_line_to(&line, out_tx.clone());
    }

    // Graceful drain: the service drops a request's sender clones only
    // after its terminal response, so once our own sender is gone the
    // writer's stream ends exactly when no work is left in flight.
    drop(out_tx);
    writer.join().ok();
}
