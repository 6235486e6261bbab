//! Cache effectiveness at fleet scale: the paper's 17-circuit suite plus
//! the bundled corpus (27 circuits) × the six-compiler matrix, run through
//! every tier of [`CompileCache`].
//!
//! Four measurements, each asserted:
//!
//! 1. **In-memory cold vs warm** — the warm pass must hit on ≥ 90% of
//!    lookups (it hits on 100%) and reproduce the cold results
//!    bit-identically, original compile times included.
//! 2. **Cold-open warm sweep** — a segment store is populated with the full
//!    matrix, then reopened cold and warmed through
//!    [`CompileCache::warm_from_manifest`] (one sequential read per
//!    segment, binary payloads); every cell must warm. The wall clock is
//!    reported, not asserted.
//! 3. **Concurrent writers** — 8 threads over 2 segment stores sharing one
//!    directory (the two-service topology): a concurrent write wave, then a
//!    concurrent read wave that must hit on ≥ 90% of lookups.
//! 4. **Semantic fidelity** — every segment-warmed output must be
//!    `semantic_json`-identical to the directly compiled one, so the binary
//!    record codec cannot silently drift from the JSON envelope.
//!
//! Writes `BENCH_cache.json` (override with `ZAC_BENCH_OUT`); smoke mode
//! via `ZAC_BENCH_SMOKE=1` caps the suite and reduces SA iterations.
//!
//! Run with `cargo bench -p zac-bench --bench cache_hit_rate`.

use serde::Value;
use std::time::Instant;
use zac_arch::Architecture;
use zac_bench::{corpus::load_corpus, default_compilers, default_suite, print_header, BatchRunner};
use zac_cache::{CacheKey, CompileCache};
use zac_circuit::StagedCircuit;
use zac_core::{Compiler, CorpusManifest, Zac, ZacConfig};

/// Format version of `BENCH_cache.json` (v2 dropped the per-file arm of
/// the cold-open sweep and the per-file counter from `segment`).
const FORMAT_VERSION: u64 = 2;

/// The 17-circuit paper suite plus the bundled corpus (27 circuits); smoke
/// mode keeps one paper circuit per family so CI stays fast.
fn build_suite(smoke: bool) -> Vec<StagedCircuit> {
    let mut suite = default_suite();
    if smoke {
        let mut seen = std::collections::HashSet::new();
        suite.retain(|s| {
            let family = s.name.split("_n").next().unwrap_or(&s.name).to_owned();
            seen.insert(family)
        });
    }
    let corpus_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let corpus = load_corpus(corpus_dir);
    for f in &corpus.failures {
        eprintln!("warning: corpus file skipped: {f:?}");
    }
    suite.extend(corpus.suite());
    suite
}

/// The six-compiler paper lineup; smoke mode swaps ZAC for a reduced-SA
/// variant (same paper name, so rows stay comparable within one mode).
fn build_compilers(smoke: bool) -> Vec<Box<dyn Compiler>> {
    if !smoke {
        return default_compilers();
    }
    default_compilers()
        .into_iter()
        .map(|c| {
            if c.name() == "Zoned-ZAC" {
                let mut cfg = ZacConfig::full();
                cfg.placement.sa_iterations = 100;
                Box::new(Zac::with_config(Architecture::reference(), cfg)) as Box<dyn Compiler>
            } else {
                c
            }
        })
        .collect()
}

/// A unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("zac-bench-cache-{}-{tag}", std::process::id()))
}

fn num(v: f64) -> Value {
    Value::Number(serde::Number::from_f64(v))
}

fn main() {
    let smoke = std::env::var("ZAC_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    print_header(
        "Cache hit rate — memory and segment-log tiers",
        "(repo extension; enables O(1) figure regeneration and fleet-shared batch serving)",
    );
    if smoke {
        println!("mode: SMOKE (reduced SA iterations, capped suite)\n");
    }

    let suite = build_suite(smoke);
    let compilers = build_compilers(smoke);
    let cells = (suite.len() * compilers.len()) as u64;

    // ---- 1. In-memory cold vs warm sweep --------------------------------
    let cache = CompileCache::in_memory(4096);
    let runner = BatchRunner::parallel().with_cache(cache.clone());

    let t0 = Instant::now();
    let cold = runner.run(&compilers, &suite);
    let cold_time = t0.elapsed();
    let cold_stats = cache.stats();

    let t1 = Instant::now();
    let warm = runner.run(&compilers, &suite);
    let warm_time = t1.elapsed();

    let stats = cache.stats();
    // The warm pass performs exactly one lookup per cell; its hits are the
    // delta over the cold pass. Dividing by `cells` (not by a lookup count
    // that would shrink with the misses) keeps the metric honest: a warm
    // pass that recompiles shows up as a hit rate below 1.
    let warm_hits = (stats.hits + stats.disk_hits) - (cold_stats.hits + cold_stats.disk_hits);
    let mem_hit_rate = warm_hits as f64 / cells as f64;

    println!("suite: {} circuits × {} compilers = {} cells", suite.len(), compilers.len(), cells);
    println!(
        "cold sweep: {:>10.3} s ({} compilations)",
        cold_time.as_secs_f64(),
        cold_stats.misses
    );
    println!("warm sweep: {:>10.3} s ({warm_hits} memory hits)", warm_time.as_secs_f64());
    let mem_speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
    println!("speedup:    {mem_speedup:>10.1}x    warm hit rate: {:.1}%", 100.0 * mem_hit_rate);

    assert!(
        mem_hit_rate >= 0.90,
        "warm sweep hit rate {mem_hit_rate:.3} below the 90% bar (stats: {stats:?})"
    );
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.results.len(), w.results.len(), "{}", c.name);
        for (cr, wr) in c.results.iter().zip(&w.results) {
            assert_eq!(cr.report, wr.report, "{} / {}", c.name, cr.compiler);
            assert_eq!(cr.counts, wr.counts, "{} / {}", c.name, cr.compiler);
            assert_eq!(cr.compile_secs.to_bits(), wr.compile_secs.to_bits());
            assert!(wr.from_cache && !cr.from_cache);
        }
        assert!(c.failures.is_empty(), "{}: {:?}", c.name, c.failures);
    }
    println!("warm sweep bit-identical to cold sweep ✓");

    // ---- 2. Cold-open warm sweep from the segment log -------------------
    // Populate a store with the matrix (outputs come from the in-memory
    // cache — no recompilation), plus the manifest that names it.
    let keys: Vec<(CacheKey, String)> = compilers
        .iter()
        .flat_map(|c| {
            suite.iter().map(move |s| {
                (CacheKey::compute(c.as_ref(), s), format!("{} @ {}", s.name, c.name()))
            })
        })
        .collect();
    let mut manifest = CorpusManifest::new();
    for (key, name) in &keys {
        manifest.push(name.clone(), key.circuit, key.compiler);
    }

    let segment_dir = scratch_dir("segment");
    std::fs::remove_dir_all(&segment_dir).ok();
    let outputs: Vec<_> = keys
        .iter()
        .map(|(key, name)| (*key, cache.get(*key).unwrap_or_else(|| panic!("missing cell {name}"))))
        .collect();
    {
        let seg = CompileCache::with_segment_store(4096, &segment_dir).expect("segment dir");
        for (key, out) in &outputs {
            seg.put(*key, out);
        }
        let s = seg.segment_stats().expect("segment stats");
        assert_eq!(s.appends, cells, "one record per cell");
    } // drop seals the active segment

    // The manifest is committed next to the store it describes, then read
    // back — the exact flow `zac-serve` uses with `ZAC_WARM_MANIFEST`.
    let manifest_path = segment_dir.join("manifest.json");
    manifest.save(&manifest_path).expect("save manifest");
    let manifest = CorpusManifest::load(&manifest_path).expect("load manifest");
    assert_eq!(manifest.len() as u64, cells);

    // Cold-open + full warm, best of 3 rounds.
    let mut segment_secs = f64::INFINITY;
    let mut segment_warmed = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let c = CompileCache::with_segment_store(4096, &segment_dir).expect("reopen segment");
        let r = c.warm_from_manifest(&manifest);
        segment_secs = segment_secs.min(t.elapsed().as_secs_f64());
        segment_warmed = r.warmed;
        assert_eq!(r.warmed as u64, cells, "segment tier warms every cell");
    }
    println!("\ncold-open warm sweep ({cells} cells, best of 3): {:>9.2} ms", 1e3 * segment_secs);

    // ---- 4. Semantic fidelity of the segment round trip -----------------
    // (Checked before the concurrent phase so a codec drift fails fast.)
    let seg = CompileCache::with_segment_store(4096, &segment_dir).expect("reopen segment");
    for (key, direct) in &outputs {
        let stored = seg.get(*key).expect("segment tier serves every cell");
        assert_eq!(
            stored.semantic_json().expect("serialize"),
            direct.semantic_json().expect("serialize"),
            "segment round trip drifted for {key:?}"
        );
    }
    drop(seg);
    println!("segment round trip semantic_json-identical for all {cells} cells ✓");

    // ---- 3. Concurrent writers over one shared directory ----------------
    // Two stores (the two-service topology), eight threads hammering them:
    // a concurrent write wave partitioning the matrix, then a concurrent
    // read wave over the full matrix through both stores.
    let shared_dir = scratch_dir("shared");
    std::fs::remove_dir_all(&shared_dir).ok();
    let stores = [
        CompileCache::with_segment_store(4096, &shared_dir).expect("store A"),
        CompileCache::with_segment_store(4096, &shared_dir).expect("store B"),
    ];
    const THREADS: usize = 8;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &stores[t % stores.len()];
            let outputs = &outputs;
            scope.spawn(move || {
                for (key, out) in outputs.iter().skip(t).step_by(THREADS) {
                    store.put(*key, out);
                }
            });
        }
    });
    let hits: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = &stores[t % stores.len()];
                let outputs = &outputs;
                scope.spawn(move || {
                    outputs.iter().filter(|(key, _)| store.get(*key).is_some()).count() as u64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader thread")).sum()
    });
    let lookups = cells * THREADS as u64;
    let concurrent_hit_rate = hits as f64 / lookups as f64;
    println!(
        "\nconcurrent writers: {THREADS} threads × {} stores, {hits}/{lookups} hits ({:.1}%)",
        stores.len(),
        100.0 * concurrent_hit_rate
    );
    assert!(
        concurrent_hit_rate >= 0.90,
        "concurrent-writer hit rate {concurrent_hit_rate:.3} below the 90% bar"
    );
    let seg_stats = stores[0].segment_stats().expect("segment stats");
    drop(stores);

    // ---- Report ---------------------------------------------------------
    let doc = Value::Object(vec![
        ("version".into(), num(FORMAT_VERSION as f64)),
        ("smoke".into(), Value::Bool(smoke)),
        ("circuits".into(), num(suite.len() as f64)),
        ("compilers".into(), num(compilers.len() as f64)),
        ("cells".into(), num(cells as f64)),
        (
            "memory".into(),
            Value::Object(vec![
                ("cold_secs".into(), num(cold_time.as_secs_f64())),
                ("warm_secs".into(), num(warm_time.as_secs_f64())),
                ("speedup".into(), num(mem_speedup)),
                ("warm_hit_rate".into(), num(mem_hit_rate)),
            ]),
        ),
        (
            "cold_open_warm_sweep".into(),
            Value::Object(vec![
                ("segment_secs".into(), num(segment_secs)),
                ("warmed".into(), num(segment_warmed as f64)),
            ]),
        ),
        (
            "concurrent".into(),
            Value::Object(vec![
                ("threads".into(), num(THREADS as f64)),
                ("stores".into(), num(2.0)),
                ("lookups".into(), num(lookups as f64)),
                ("hits".into(), num(hits as f64)),
                ("hit_rate".into(), num(concurrent_hit_rate)),
            ]),
        ),
        (
            "segment".into(),
            Value::Object(vec![
                ("appends".into(), num(seg_stats.appends as f64)),
                ("seals".into(), num(seg_stats.seals as f64)),
                ("compacted_records".into(), num(seg_stats.compacted_records as f64)),
                ("recovered_bytes".into(), num(seg_stats.recovered_bytes as f64)),
                ("index_entries".into(), num(seg_stats.index_entries as f64)),
                ("segments".into(), num(seg_stats.segments as f64)),
            ]),
        ),
    ]);
    let out_path = std::env::var("ZAC_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json").to_owned()
    });
    let json = serde_json::to_string_pretty(&doc).expect("JSON serialization");
    std::fs::write(&out_path, json).expect("write BENCH_cache.json");
    println!("\nwrote {out_path}");

    for dir in [&segment_dir, &shared_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}
