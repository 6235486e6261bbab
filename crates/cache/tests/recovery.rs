//! Seeded fault-plan test for the disk tier's read path: an injected read
//! fault classifies as a disk error (never quarantine — the bytes on disk
//! are fine). Write faults are covered in `segment_crash.rs`.
//!
//! Fault plans are **process-global**, which is why these tests live in
//! their own binary (a plan armed here can never leak into the
//! `concurrency` suite) and serialize on [`GATE`] within it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use zac_cache::{CacheKey, CompileCache};
use zac_core::CompileOutput;
use zac_fidelity::{evaluate_neutral_atom, ExecutionSummary, NeutralAtomParams};
use zac_telemetry::{fault, FaultPlan};

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "zac-cache-rec-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn key(i: usize) -> CacheKey {
    CacheKey { circuit: 0xfa_0000 + i as u64, compiler: 0xdeed }
}

fn output(i: usize) -> CompileOutput {
    let summary = ExecutionSummary {
        name: format!("rec-{i}"),
        num_qubits: 2,
        duration_us: 10.0 + i as f64,
        g1: i,
        g2: 1,
        n_exc: 0,
        n_tran: 2,
        idle_us: vec![1.0, 2.5],
    };
    let report = evaluate_neutral_atom(&summary, &NeutralAtomParams::reference());
    CompileOutput::new(summary, report, Duration::from_micros(321), None)
}

#[test]
fn injected_read_faults_are_disk_errors_not_quarantine() {
    let _gate = gate();
    let dir = temp_cache_dir("read-faults");
    {
        let cache = CompileCache::with_segment_store(4, &dir).unwrap();
        cache.put(key(0), &output(0));
    }

    let cache = CompileCache::with_segment_store(4, &dir).unwrap();
    zac_telemetry::set_enabled(true);
    let metric_before = zac_telemetry::metrics::CACHE_DISK_READ_ERRORS.get();
    fault::arm(FaultPlan::parse("10:cache.disk.read=io").expect("plan parses"));
    assert!(cache.get(key(0)).is_none(), "a failed read degrades to a miss");
    fault::disarm();

    let stats = cache.stats();
    assert_eq!(stats.disk_errors, 1, "{stats:?}");
    assert_eq!(stats.quarantined, 0, "the entry's bytes are fine — no quarantine: {stats:?}");
    assert_eq!(
        zac_telemetry::metrics::CACHE_DISK_READ_ERRORS.get(),
        metric_before + 1,
        "read errors surface in telemetry, not just internal stats"
    );
    zac_telemetry::set_enabled(false);

    // The fault was transient: the same entry serves a disk hit afterwards.
    let out = cache.get(key(0)).expect("entry survives the injected read fault");
    assert_eq!(out.counts.g1, 0);
    let stats = cache.stats();
    assert_eq!(stats.disk_hits, 1, "{stats:?}");

    std::fs::remove_dir_all(&dir).ok();
}
