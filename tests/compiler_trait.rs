//! Cross-crate tests of the unified `Compiler` trait: all five compilers
//! (ZAC + the four baselines) must run through the one interface, and the
//! rayon `BatchRunner` must be indistinguishable from a serial sweep.

use zac::bench::{default_compilers, BatchRunner};
use zac::circuit::{bench_circuits, preprocess, StagedCircuit};
use zac::prelude::*;

/// The two probe workloads: a sequential GHZ chain and a QAOA-style
/// Trotterized Ising circuit (parallel ZZ layers).
fn probes() -> Vec<StagedCircuit> {
    vec![preprocess(&bench_circuits::ghz(8)), preprocess(&bench_circuits::ising(12))]
}

#[test]
fn all_five_compilers_run_through_the_trait() {
    let arch = Architecture::reference();
    for staged in probes() {
        let mut seen = Vec::new();
        for compiler in default_compilers() {
            let out = compiler
                .compile(&staged)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", compiler.name(), staged.name));
            // Every compiler yields a usable fidelity...
            let f = out.total_fidelity();
            assert!(f > 0.0 && f <= 1.0, "{} on {}: fidelity {f}", compiler.name(), staged.name);
            // ...consistent named counts...
            assert_eq!(out.counts.g2, out.summary.g2, "{}", compiler.name());
            assert_eq!(out.counts.n_tran, out.summary.n_tran, "{}", compiler.name());
            // Routing may add gates (SWAP insertion) but never drops any.
            assert!(
                out.counts.g2 >= staged.num_2q_gates(),
                "{}: {} 2Q gates < circuit's {}",
                compiler.name(),
                out.counts.g2,
                staged.num_2q_gates()
            );
            // ...and, when a ZAIR program is emitted, it re-validates
            // against the target architecture.
            if let Some(program) = &out.program {
                assert_eq!(compiler.name(), "Zoned-ZAC", "only ZAC emits ZAIR today");
                let analysis = program.analyze(&arch).expect("emitted ZAIR validates");
                assert_eq!(analysis.g2, out.counts.g2);
                assert_eq!(analysis.n_exc, 0, "zoned guarantee");
            }
            seen.push(compiler.name().to_owned());
        }
        // ZAC + 4 baselines (SC appears twice: Heron and Grid machines).
        assert_eq!(
            seen,
            [
                "SC-Heron",
                "SC-Grid",
                "Monolithic-Atomique",
                "Monolithic-Enola",
                "Zoned-NALAC",
                "Zoned-ZAC"
            ],
            "{}",
            staged.name
        );
    }
}

#[test]
fn trait_output_matches_inherent_zac_output() {
    let arch = Architecture::reference();
    let staged = preprocess(&bench_circuits::ghz(8));
    let zac = Zac::new(arch);
    let rich = zac.compile_staged(&staged).unwrap();
    let unified = Compiler::compile(&zac, &staged).unwrap();
    assert_eq!(unified.report, rich.report);
    assert_eq!(unified.summary, rich.summary);
    assert_eq!(unified.program.as_ref(), Some(&rich.program));
    assert_eq!(unified.counts, GateCounts::from(&rich.summary));
}

/// The paper lineup with `Zoned-ZAC` on the given placement engine.
fn lineup(engine: &PlacementEngine) -> Vec<Box<dyn Compiler>> {
    let mut compilers = default_compilers();
    let mut config = ZacConfig::full();
    config.placement.engine = engine.clone();
    let zac = compilers.last_mut().expect("non-empty lineup");
    assert_eq!(zac.name(), "Zoned-ZAC");
    *zac = Box::new(Zac::with_config(Architecture::reference(), config));
    compilers
}

#[test]
fn batch_runner_is_deterministic_under_rayon() {
    let suite = probes();
    for engine in [PlacementEngine::Exhaustive, PlacementEngine::windowed()] {
        let compilers = lineup(&engine);
        let par = BatchRunner::parallel().run(&compilers, &suite);
        let ser = BatchRunner::serial().run(&compilers, &suite);
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.results.len(), s.results.len());
            for (pr, sr) in p.results.iter().zip(&s.results) {
                let cell = format!("{} / {} ({})", p.name, pr.compiler, engine.name());
                assert_eq!(pr.compiler, sr.compiler);
                assert_eq!(pr.report, sr.report, "{cell}");
                assert_eq!(pr.counts, sr.counts, "{cell}");
            }
        }
        // Repeated parallel runs are also identical to each other.
        let par2 = BatchRunner::parallel().run(&compilers, &suite);
        for (a, b) in par.iter().zip(&par2) {
            for (ra, rb) in a.results.iter().zip(&b.results) {
                assert_eq!(ra.report, rb.report);
            }
        }
    }
}

#[test]
fn labeled_wrapper_renames_without_changing_results() {
    let staged = preprocess(&bench_circuits::ghz(8));
    let zac = Zac::new(Architecture::reference());
    let labeled = Labeled::new("ZAC-relabeled", zac.clone());
    assert_eq!(labeled.name(), "ZAC-relabeled");
    let a = Compiler::compile(&zac, &staged).unwrap();
    let b = labeled.compile(&staged).unwrap();
    assert_eq!(a.report, b.report);
}

/// Compiler fingerprints are the compiler half of every cache key and of
/// every record in a persisted segment store, so a refactor that changes one
/// silently orphans all stored outputs of that compiler. Pinned to the
/// values of the paper lineup and of the windowed Zoned-ZAC arm.
#[test]
fn compiler_fingerprints_are_pinned() {
    let lineup: Vec<(String, u64)> =
        default_compilers().iter().map(|c| (c.name().to_owned(), c.fingerprint())).collect();
    let expected = [
        ("SC-Heron", 0x848d_ada5_8761_289c),
        ("SC-Grid", 0x1785_414b_5963_8e2e),
        ("Monolithic-Atomique", 0xe137_cb12_fd42_4455),
        ("Monolithic-Enola", 0xea04_f159_e7c9_0806),
        ("Zoned-NALAC", 0xb6b8_4cc0_440f_08eb),
        ("Zoned-ZAC", 0x10e1_eac4_5ab8_e4a9),
    ];
    assert_eq!(lineup.len(), expected.len());
    for ((name, fp), (want_name, want_fp)) in lineup.iter().zip(expected) {
        assert_eq!(name, want_name);
        assert_eq!(*fp, want_fp, "{name}: fingerprint {fp:#018x} drifted");
    }
    let windowed = Zac::with_config(Architecture::reference(), ZacConfig::windowed());
    assert_eq!(windowed.fingerprint(), 0xb6ed_6110_c69e_40e7, "windowed Zoned-ZAC drifted");
}
