//! Facade-level integration tests of the caching subsystem: fingerprints,
//! `CompileCache::get_or_compile`, the segment-store disk tier, and cached
//! `BatchRunner` sweeps, all driven through the public `zac::` API exactly
//! as a downstream user would.

use zac::bench::{default_compilers, BatchRunner};
use zac::circuit::{bench_circuits, preprocess, StagedCircuit};
use zac::prelude::*;

fn probes() -> Vec<StagedCircuit> {
    vec![preprocess(&bench_circuits::ghz(8)), preprocess(&bench_circuits::ising(12))]
}

#[test]
fn equal_compilers_share_one_entry_through_the_facade() {
    let cache = CompileCache::in_memory(64);
    // Two distinct instances with equal config: the second one's lookup
    // hits the entry the first one's compile stored.
    let first = Zac::new(Architecture::reference());
    let second = Zac::new(Architecture::reference());

    for staged in probes() {
        let cold = cache.get_or_compile(&first, &staged).unwrap();
        let warm = cache.get_or_compile(&second, &staged).unwrap();
        let reference = Compiler::compile(&first, &staged).unwrap();
        assert!(!cold.from_cache && warm.from_cache, "{}", staged.name);
        assert_eq!(warm.report, reference.report, "{}", staged.name);
        assert_eq!(warm.summary, reference.summary, "{}", staged.name);
        assert_eq!(warm.compile_time, cold.compile_time, "{}: original timing", staged.name);
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 2, 2));
    assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
}

#[test]
fn cached_sweep_matches_uncached_sweep() {
    let suite = probes();
    let compilers = default_compilers();
    let cache = CompileCache::in_memory(256);
    let plain = BatchRunner::parallel().run(&compilers, &suite);
    let cached_cold = BatchRunner::parallel().with_cache(cache.clone()).run(&compilers, &suite);
    let cached_warm = BatchRunner::serial().with_cache(cache.clone()).run(&compilers, &suite);
    for ((p, c), w) in plain.iter().zip(&cached_cold).zip(&cached_warm) {
        assert_eq!(p.results.len(), c.results.len());
        assert_eq!(p.results.len(), w.results.len());
        for ((pr, cr), wr) in p.results.iter().zip(&c.results).zip(&w.results) {
            assert_eq!(pr.report, cr.report, "{} / {}", p.name, pr.compiler);
            assert_eq!(pr.report, wr.report, "{} / {}", p.name, pr.compiler);
            assert!(!cr.from_cache && wr.from_cache);
        }
    }
    assert_eq!(cache.stats().hits, (suite.len() * compilers.len()) as u64);
}

#[test]
fn disk_cache_round_trips_through_the_facade() {
    let dir = std::env::temp_dir().join(format!("zac-facade-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let staged = preprocess(&bench_circuits::bv(10, 9));
    let first;
    {
        let cache = CompileCache::with_segment_store(16, &dir).unwrap();
        first = cache.get_or_compile(&Zac::new(Architecture::reference()), &staged).unwrap();
    }
    let cache = CompileCache::with_segment_store(16, &dir).unwrap();
    let revived = cache.get_or_compile(&Zac::new(Architecture::reference()), &staged).unwrap();
    assert!(revived.from_cache, "fresh cache warms from disk");
    assert_eq!(revived.report, first.report);
    assert_eq!(revived.summary, first.summary);
    assert_eq!(revived.compile_time, first.compile_time);
    assert_eq!(cache.stats().disk_hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_key_reachable_from_prelude() {
    let staged = preprocess(&bench_circuits::ghz(6));
    let zac = Zac::new(Architecture::reference());
    let key = CacheKey::compute(&zac, &staged);
    assert_eq!(key.circuit, staged.fingerprint());
    assert_eq!(key.compiler, Compiler::fingerprint(&zac));
}
