//! Disk round-trip determinism, designed to run twice against one
//! persisted segment store (CI runs it cold then warm; see
//! `.github/workflows/ci.yml`):
//!
//! * **cold pass** — the directory is empty, every cell compiles and is
//!   appended to the segment log;
//! * **warm pass** — every cell is served from the records the cold pass
//!   wrote (asserted via `from_cache` whenever the entry pre-existed).
//!
//! In both passes each served output is compared field-by-field — summary,
//! report, counts, ZAIR program JSON — against a fresh, uncached compile,
//! proving the disk round trip reproduces `CompileOutput` exactly.
//!
//! The directory comes from `ZAC_CACHE_DIR` when set (the CI step points it
//! at a temp dir shared by both passes) and falls back to a per-target
//! scratch directory locally, where the second local run exercises the warm
//! path the same way.

use std::path::PathBuf;
use zac_arch::Architecture;
use zac_cache::{CacheKey, CompileCache};
use zac_circuit::{bench_circuits, preprocess};
use zac_core::{Compiler, Zac};

fn persist_dir() -> PathBuf {
    std::env::var_os("ZAC_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("zac-cache-persist"))
}

#[test]
fn disk_round_trip_reproduces_outputs_cold_and_warm() {
    let dir = persist_dir();
    let cache = CompileCache::with_segment_store(64, &dir).expect("cache dir creates");
    let zac = Zac::new(Architecture::reference());

    for circuit in [bench_circuits::ghz(10), bench_circuits::bv(8, 7)] {
        let staged = preprocess(&circuit);
        let key = CacheKey::compute(&zac, &staged);
        // "Pre-existing" means a *loadable* entry: a record left by an
        // older payload-format version is legitimately a miss, not a warm
        // hit. The probing get() also warms the in-memory layer, which is
        // exactly what serving the entry means.
        let preexisting = cache.get(key).is_some();

        let served = cache.get_or_compile(&zac, &staged).expect("compiles");
        assert_eq!(
            served.from_cache, preexisting,
            "{}: pre-existing entries must be served from disk, fresh cells compiled",
            staged.name
        );

        // Reference: a fresh compile that never touches the cache. The
        // compilers are deterministic, so any divergence can only come
        // from the disk round trip.
        let fresh =
            Compiler::compile(&Zac::new(Architecture::reference()), &staged).expect("compiles");
        assert_eq!(served.summary, fresh.summary, "{}", staged.name);
        assert_eq!(served.report, fresh.report, "{}", staged.name);
        assert_eq!(served.counts, fresh.counts, "{}", staged.name);
        assert_eq!(
            served.program.as_ref().map(|p| p.to_json().unwrap()),
            fresh.program.as_ref().map(|p| p.to_json().unwrap()),
            "{}: ZAIR program JSON must round-trip bit-identically",
            staged.name
        );

        // And the persisted record itself re-serves the same output.
        let reread = cache.get(key).expect("entry resident after compile");
        assert_eq!(reread.summary, fresh.summary);
        assert_eq!(reread.report, fresh.report);
        assert_eq!(reread.compile_time, served.compile_time, "original compile time persisted");
    }

    let stats = cache.stats();
    println!(
        "disk_persist: dir={} hits={} disk_hits={} misses={} disk_writes={}",
        dir.display(),
        stats.hits,
        stats.disk_hits,
        stats.misses,
        stats.disk_writes
    );
    assert_eq!(stats.disk_errors, 0);
}
