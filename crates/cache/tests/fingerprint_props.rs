//! Property tests for the cache-key fingerprints.
//!
//! The cache's correctness rests on three properties, all exercised here:
//! fingerprints are *stable* (same content → same digest, every time),
//! *sensitive* (any gate, stage, name or config change → different digest),
//! and *collision-free in practice* (every circuit of the generated paper
//! suite, and every compiler of the default lineup, is pairwise distinct).

use proptest::prelude::*;
use zac_arch::Architecture;
use zac_baselines::{Atomique, Enola, Nalac, Sc};
use zac_cache::CacheKey;
use zac_circuit::{bench_circuits, preprocess, Circuit, StagedCircuit};
use zac_core::{Compiler, Zac, ZacConfig};

/// A random but valid circuit: `nq` qubits, CZs from the pair list (self
/// pairs skipped), an Rz sprinkled per pair to vary the 1Q structure.
fn build_circuit(nq: usize, pairs: &[(usize, usize, f64)]) -> Circuit {
    let mut c = Circuit::new("prop", nq);
    for &(a, b, angle) in pairs {
        let (a, b) = (a % nq, b % nq);
        if a != b {
            c.cz(a, b);
        }
        c.rz(angle, a);
    }
    c
}

fn staged(nq: usize, pairs: &[(usize, usize, f64)]) -> StagedCircuit {
    preprocess(&build_circuit(nq, pairs))
}

proptest! {
    /// Stability: re-preprocessing and re-hashing identical content always
    /// reproduces the digest (this is what makes disk entries reusable
    /// across processes).
    #[test]
    fn fingerprint_stable_across_runs(
        nq in 2usize..12,
        pairs in proptest::collection::vec((0usize..12, 0usize..12, -3.0..3.0f64), 0..24),
    ) {
        let a = staged(nq, &pairs);
        let b = staged(nq, &pairs);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    /// Sensitivity: appending one gate, renaming, or widening the register
    /// all change the digest.
    #[test]
    fn fingerprint_changes_with_any_circuit_edit(
        nq in 2usize..12,
        pairs in proptest::collection::vec((0usize..12, 0usize..12, -3.0..3.0f64), 1..24),
        extra in (0usize..12, 0usize..12),
    ) {
        let base = staged(nq, &pairs);

        let mut grown = build_circuit(nq, &pairs);
        let (a, b) = (extra.0 % nq, extra.1 % nq);
        if a != b {
            grown.cz(a, b);
            prop_assert!(base.fingerprint() != preprocess(&grown).fingerprint());
        }

        let mut renamed = base.clone();
        renamed.name.push('x');
        prop_assert!(base.fingerprint() != renamed.fingerprint());

        let mut widened = base.clone();
        widened.num_qubits += 1;
        prop_assert!(base.fingerprint() != widened.fingerprint());
    }

    /// Sensitivity on the compiler half: every placement-config field,
    /// the placement-engine choice (and each windowed-engine parameter),
    /// and every hardware parameter feeds the compiler fingerprint. The
    /// engine is pinned on both sides, so the engine arm compares two
    /// explicitly chosen engines.
    #[test]
    fn compiler_fingerprint_changes_with_any_config_field(
        field in 0usize..13,
        nudge in 1u64..1000,
    ) {
        use zac_place::{PlacementEngine, WindowedPlacer};
        let mut base = ZacConfig::full();
        base.placement.engine = PlacementEngine::Exhaustive;
        let reference = Zac::with_config(Architecture::reference(), base.clone());
        let mut config = base;
        let p = &mut config.placement;
        let windowed = |w: WindowedPlacer| PlacementEngine::Windowed(w);
        match field {
            0 => p.use_sa = !p.use_sa,
            1 => p.dynamic = !p.dynamic,
            2 => p.reuse = !p.reuse,
            3 => p.sa_iterations += nudge as usize,
            4 => p.seed ^= nudge,
            5 => p.window_expansion += nudge as usize,
            6 => p.neighbor_k += nudge as usize,
            7 => p.lookahead_alpha += nudge as f64 * 1e-6,
            8 => p.engine = PlacementEngine::windowed(),
            9 => p.engine = windowed(WindowedPlacer {
                window_min_width: 1 + nudge as usize,
                ..WindowedPlacer::default()
            }),
            10 => p.engine = windowed(WindowedPlacer {
                window_ratio: 0.5 + nudge as f64 * 1e-6,
                ..WindowedPlacer::default()
            }),
            11 => p.engine = windowed(WindowedPlacer {
                quality_factor: 1.5 + nudge as f64 * 1e-6,
                ..WindowedPlacer::default()
            }),
            _ => config.params.f_2q -= nudge as f64 * 1e-9,
        }
        let tweaked = Zac::with_config(Architecture::reference(), config);
        prop_assert!(reference.fingerprint() != tweaked.fingerprint());
    }
}

/// No collisions across the generated benchmark suite: all 17 staged
/// circuits of the paper's evaluation are pairwise distinct, so a shared
/// cache can never serve one suite circuit's output for another.
#[test]
fn paper_suite_fingerprints_pairwise_distinct() {
    let suite: Vec<StagedCircuit> =
        bench_circuits::paper_suite().iter().map(|e| preprocess(&e.circuit)).collect();
    assert_eq!(suite.len(), 17);
    for i in 0..suite.len() {
        for j in (i + 1)..suite.len() {
            assert_ne!(
                suite[i].fingerprint(),
                suite[j].fingerprint(),
                "{} and {} collide",
                suite[i].name,
                suite[j].name
            );
        }
    }
}

/// No collisions across the full suite × default-lineup key matrix: 17
/// circuits × 6 compilers = 102 distinct cache keys.
#[test]
fn suite_by_lineup_cache_keys_pairwise_distinct() {
    let suite: Vec<StagedCircuit> =
        bench_circuits::paper_suite().iter().map(|e| preprocess(&e.circuit)).collect();
    let compilers: Vec<Box<dyn Compiler>> = vec![
        Box::new(Sc::heron()),
        Box::new(Sc::grid()),
        Box::new(Atomique::default()),
        Box::new(Enola::default()),
        Box::new(Nalac::default()),
        Box::new(Zac::new(Architecture::reference())),
    ];
    let mut keys = Vec::new();
    for staged in &suite {
        for compiler in &compilers {
            keys.push(CacheKey::compute(&**compiler, staged));
        }
    }
    let mut unique: Vec<_> = keys.clone();
    unique.sort_by_key(|k| (k.circuit, k.compiler));
    unique.dedup();
    assert_eq!(unique.len(), keys.len(), "cache keys collide in the default sweep");
}
