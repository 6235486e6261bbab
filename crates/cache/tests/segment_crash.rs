//! Crash-safety tests for the segment-log tier: seeded fault plans on
//! `cache.disk.write` simulate crashes torn mid-record, mid-seal and
//! mid-compaction, and every reopen must land on a consistent index — the
//! tail record dropped, never a read error, never a torn payload served.
//!
//! Fault plans are **process-global**, which is why these tests live in
//! their own binary (a plan armed here can never leak into the
//! `concurrency` suite) and serialize on [`GATE`] within it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use zac_cache::disk::LoadOutcome;
use zac_cache::segment::{SegmentConfig, SegmentStore, RECORD_HEADER_LEN};
use zac_cache::{CacheKey, CompileCache};
use zac_core::CompileOutput;
use zac_fidelity::{evaluate_neutral_atom, ExecutionSummary, NeutralAtomParams};
use zac_telemetry::{fault, FaultPlan};

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "zac-seg-crash-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn key(i: usize) -> CacheKey {
    CacheKey { circuit: 0x5e9_0000 + i as u64, compiler: 0xc4a5 }
}

fn output(i: usize) -> CompileOutput {
    let summary = ExecutionSummary {
        name: format!("crash-{i}"),
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
        .with_phases(Duration::from_micros(200), Duration::from_micros(121))
}

/// Simulates "the writing process died": renames this process's active
/// segments to a dead writer's token so a reopening store adopts them as
/// orphans (a live process's own segments are never adopted).
fn orphan_actives(dir: &Path) {
    let me = format!("p{}-", std::process::id());
    for entry in std::fs::read_dir(dir).expect("read store dir").filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".active.log") && name.contains(&me) {
            let dead = name.replace(&me, "p999999999-");
            std::fs::rename(entry.path(), dir.join(dead)).expect("rename to dead writer");
        }
    }
}

/// Every key must classify as a clean `Hit` or `Miss` after recovery —
/// `ReadError`/`Quarantined` would mean the reopened index points at
/// damaged bytes. Returns the hit set.
fn assert_never_read_errors(store: &SegmentStore, n: usize) -> Vec<usize> {
    let mut hits = Vec::new();
    for i in 0..n {
        match store.load_classified(key(i)) {
            LoadOutcome::Hit(out) => {
                assert_eq!(out.counts.g1, i, "recovered payload belongs to key {i}");
                hits.push(i);
            }
            LoadOutcome::Miss => {}
            other => panic!("key {i} classified as {other:?} after recovery"),
        }
    }
    hits
}

/// A crash that tears the final record: the reopening store must truncate
/// to the last valid record boundary and serve everything before it.
#[test]
fn torn_tail_truncates_to_last_valid_record() {
    let _gate = gate();
    const N: usize = 8;
    let dir = temp_dir("torn-tail");
    {
        let cache = CompileCache::with_segment_store(N, &dir).unwrap();
        for i in 0..N {
            cache.put(key(i), &output(i));
        }
        assert_eq!(cache.segment_stats().unwrap().appends, N as u64);
        // "Crash": no clean close, so the active segment is never sealed.
        std::mem::forget(cache);
    }
    // Tear the tail: chop bytes off the last record, then hand the file to
    // a dead writer so the next opener adopts it.
    let active = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().ends_with(".active.log"))
        .expect("an unsealed active segment survives the crash");
    let len = active.metadata().unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(active.path()).unwrap();
    file.set_len(len - 10).unwrap();
    drop(file);
    orphan_actives(&dir);

    let cache = CompileCache::with_segment_store(N, &dir).unwrap();
    let stats = cache.segment_stats().unwrap();
    assert!(stats.recovered_bytes > 0, "the torn span was measured and truncated: {stats:?}");
    assert_eq!(stats.index_entries, N - 1, "every record but the torn tail indexed: {stats:?}");
    for i in 0..N - 1 {
        let out = cache.get(key(i)).unwrap_or_else(|| panic!("key {i} survives the torn tail"));
        assert_eq!(out.counts.g1, i);
    }
    assert!(cache.get(key(N - 1)).is_none(), "the torn record is a clean miss");
    let cs = cache.stats();
    assert_eq!((cs.disk_errors, cs.quarantined), (0, 0), "never a read error: {cs:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Seeded panic faults on `cache.disk.write` crash appends mid-record and
/// mid-seal (with `seal_bytes: 1` every append also seals). Whatever the
/// interleaving, the reopened store serves every completed append and
/// classifies nothing as a read error.
#[test]
fn mid_write_and_mid_seal_crashes_recover_consistently() {
    let _gate = gate();
    const N: usize = 40;
    let dir = temp_dir("mid-seal");
    let config = SegmentConfig { seal_bytes: 1, ..SegmentConfig::default() };
    let store = SegmentStore::open_with(&dir, config).unwrap();

    fault::arm(FaultPlan::parse("12:cache.disk.write=panic@0.3").expect("plan parses"));
    let mut completed = Vec::new();
    let mut crashed = Vec::new();
    for i in 0..N {
        match catch_unwind(AssertUnwindSafe(|| store.append(key(i), &output(i)))) {
            Ok(Ok(_)) => completed.push(i),
            Ok(Err(e)) => panic!("io error from a panic-only plan: {e}"),
            Err(_) => crashed.push(i),
        }
    }
    fault::disarm();
    assert!(!completed.is_empty() && !crashed.is_empty(), "the seed exercises both outcomes");
    std::mem::forget(store); // crash: no clean close
    orphan_actives(&dir);

    let store = SegmentStore::open_with(&dir, config).unwrap();
    let hits = assert_never_read_errors(&store, N);
    for &i in &completed {
        assert!(hits.contains(&i), "completed append {i} must survive the crash");
    }
    // A "crashed" append that still reads back hit the fault point *after*
    // its record was durable — that is precisely the mid-seal crash, so the
    // seeded plan must have produced at least one.
    assert!(
        crashed.iter().any(|i| hits.contains(i)),
        "the seed must land at least one crash between write and seal: crashed {crashed:?}, hits {hits:?}"
    );
    assert_eq!(store.stats().index_entries, hits.len());

    std::fs::remove_dir_all(&dir).ok();
}

/// A crash mid-compaction (panic while writing the replacement segment)
/// leaves only swept-on-open debris: the next open discards the partial
/// `.compacting` file, compacts for real, and serves the latest values.
#[test]
fn mid_compaction_crash_leaves_a_recoverable_store() {
    let _gate = gate();
    let dir = temp_dir("mid-compaction");
    // Aggressive thresholds so compaction triggers at open.
    let config =
        SegmentConfig { seal_bytes: 1, compact_min_garbage: 1, compact_garbage_ratio: 0.0 };
    {
        let store = SegmentStore::open_with(&dir, config).unwrap();
        for version in 0..8 {
            store.append(key(0), &output(version)).unwrap();
        }
        store.append(key(1), &output(100)).unwrap();
    } // clean close seals; 7 of the 9 records are garbage

    fault::arm(FaultPlan::parse("13:cache.disk.write=panic").expect("plan parses"));
    let crashed = catch_unwind(AssertUnwindSafe(|| SegmentStore::open_with(&dir, config)));
    fault::disarm();
    assert!(crashed.is_err(), "a certain panic plan must crash the compaction write");
    // The crashed opener died holding `compact.lock`. Its pid would be dead
    // in a real crash (the next opener breaks the lock as stale); in this
    // in-process simulation the pid is ours and alive, so model the death.
    std::fs::remove_file(dir.join("compact.lock")).expect("crashed open left its lock");

    let store = SegmentStore::open_with(&dir, config).unwrap();
    let stats = store.stats();
    assert!(stats.compacted_records >= 7, "the retried compaction dropped the garbage: {stats:?}");
    assert_eq!(stats.index_entries, 2, "{stats:?}");
    match store.load_classified(key(0)) {
        LoadOutcome::Hit(out) => assert_eq!(out.counts.g1, 7, "latest version survives"),
        other => panic!("key 0 classified as {other:?}"),
    }
    match store.load_classified(key(1)) {
        LoadOutcome::Hit(out) => assert_eq!(out.counts.g1, 100),
        other => panic!("key 1 classified as {other:?}"),
    }
    drop(store);
    for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".compacting"), "crash debris swept: {name}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Transient IO faults on append retry within the bounded budget: every
/// put resolves as a readable record or a counted disk error, never torn
/// bytes.
#[test]
fn injected_append_faults_retry_and_every_put_resolves() {
    let _gate = gate();
    const N: usize = 24;
    let dir = temp_dir("append-faults");
    let cache = CompileCache::with_segment_store(N, &dir).unwrap();

    fault::arm(FaultPlan::parse("14:cache.disk.write=io@0.4").expect("plan parses"));
    for i in 0..N {
        cache.put(key(i), &output(i));
    }
    fault::disarm();

    let stats = cache.stats();
    assert!(stats.disk_retries > 0, "a 40% fault rate must force retries: {stats:?}");

    let fresh = CompileCache::with_segment_store(N, &dir).unwrap();
    let readable = (0..N).filter(|&i| fresh.get(key(i)).is_some()).count();
    assert_eq!(
        readable + stats.disk_errors as usize,
        N,
        "readable records + write failures account for every put: {stats:?}"
    );
    assert!(readable > 0, "at a 40% fault rate most puts must get through");
    let fs = fresh.stats();
    assert_eq!((fs.disk_errors, fs.quarantined), (0, 0), "failed appends left no debris: {fs:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Bit rot after the opening scan: a record whose payload is overwritten in
/// place (its checksum was already verified when the store indexed it) must
/// not be served. The lookup is a clean miss counted as `quarantined`, not
/// a disk error, and a recompile + `put` makes the key hit again.
#[test]
fn post_scan_bit_rot_quarantines_then_recompiles() {
    let _gate = gate();
    const N: usize = 6;
    const ROTTEN: usize = 3;
    let dir = temp_dir("bit-rot");
    {
        let cache = CompileCache::with_segment_store(N, &dir).unwrap();
        for i in 0..N {
            cache.put(key(i), &output(i));
        }
    } // clean close seals the segment

    // A fresh cache: empty memory, every record indexed by the opening scan.
    let cache = CompileCache::with_segment_store(N, &dir).unwrap();
    assert_eq!(cache.segment_stats().unwrap().index_entries, N);

    // Find the rotten key's record by its header's key fields and overwrite
    // its payload (which starts right after the header) in place.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().ends_with(".seg.log"))
        .expect("the sealed segment")
        .path();
    let bytes = std::fs::read(&segment).unwrap();
    let k = key(ROTTEN);
    let tag = format!("{:016x} {:016x} ", k.circuit, k.compiler);
    let header_end = bytes
        .windows(tag.len())
        .position(|w| w == tag.as_bytes())
        .map(|at| at + tag.len())
        .expect("the rotten key's record header");
    let header = &bytes[header_end - RECORD_HEADER_LEN..header_end];
    let len = usize::from_str_radix(std::str::from_utf8(&header[5..13]).unwrap(), 16).unwrap();
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&segment).unwrap();
        f.seek(SeekFrom::Start(header_end as u64)).unwrap();
        f.write_all(&vec![0xff; len]).unwrap();
    }

    assert!(cache.get(key(ROTTEN)).is_none(), "a rotten payload is never served");
    let stats = cache.stats();
    assert_eq!((stats.quarantined, stats.disk_errors), (1, 0), "{stats:?}");
    assert_eq!(stats.misses, 1, "{stats:?}");
    for i in (0..N).filter(|&i| i != ROTTEN) {
        assert_eq!(cache.get(key(i)).expect("intact records still serve").counts.g1, i);
    }
    assert!(cache.get(key(ROTTEN)).is_none(), "the dropped record stays a miss");
    assert_eq!(cache.stats().quarantined, 1, "quarantined once, not on every lookup");

    // Recompile + put: the key hits again, in memory and through the log.
    cache.put(key(ROTTEN), &output(ROTTEN));
    assert_eq!(cache.get(key(ROTTEN)).expect("recompiled key hits").counts.g1, ROTTEN);
    drop(cache);
    let reopened = CompileCache::with_segment_store(N, &dir).unwrap();
    assert_eq!(reopened.get(key(ROTTEN)).expect("the new record serves").counts.g1, ROTTEN);

    std::fs::remove_dir_all(&dir).ok();
}
