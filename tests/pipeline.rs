//! Cross-crate integration tests: the full ZAC pipeline from input circuit
//! to validated ZAIR and fidelity report.

use zac::circuit::{bench_circuits, preprocess};
use zac::compiler::{Zac, ZacConfig};
use zac::prelude::*;

fn quick_config() -> ZacConfig {
    let mut cfg = ZacConfig::full();
    cfg.placement.sa_iterations = 200;
    cfg
}

#[test]
fn every_suite_circuit_compiles_and_validates() {
    let arch = Architecture::reference();
    for engine in [PlacementEngine::Exhaustive, PlacementEngine::windowed()] {
        let mut config = quick_config();
        config.placement.engine = engine.clone();
        let zac = Zac::with_config(arch.clone(), config);
        for entry in bench_circuits::paper_suite() {
            let staged = preprocess(&entry.circuit);
            let name = format!("{} ({})", entry.circuit.name(), engine.name());
            let out = zac.compile_staged(&staged).unwrap_or_else(|e| panic!("{name}: {e}"));
            // The ZAIR interpreter re-validates the emitted program.
            let analysis = out.program.analyze(&arch).expect("valid ZAIR");
            assert_eq!(analysis.g2, staged.num_2q_gates(), "{name}");
            assert_eq!(analysis.g1, staged.num_1q_gates(), "{name}");
            assert_eq!(analysis.n_exc, 0, "{name}: zoned guarantee");
            // Semantic verification: the right gates fire in dependency
            // order. (Auto-split staging must be used when the zone is
            // narrower.)
            let effective = if staged.max_parallelism() > arch.num_sites() {
                staged.with_max_stage_width(arch.num_sites())
            } else {
                staged.clone()
            };
            out.program.verify_against(&arch, &effective).unwrap_or_else(|e| panic!("{name}: {e}"));
            let f = out.total_fidelity();
            assert!((0.0..=1.0).contains(&f), "{name}: fidelity {f}");
        }
    }
}

#[test]
fn compiled_program_roundtrips_through_json() {
    let arch = Architecture::reference();
    let zac = Zac::with_config(arch.clone(), quick_config());
    let out = zac.compile(&bench_circuits::bv(14, 13)).unwrap();
    let json = out.program.to_json().expect("serialization succeeds");
    let back = zac::zair::Program::from_json(&json).unwrap();
    assert_eq!(back, out.program);
    let a1 = out.program.analyze(&arch).unwrap();
    let a2 = back.analyze(&arch).unwrap();
    assert_eq!(a1, a2);
}

#[test]
fn reuse_strictly_reduces_transfers_on_chains() {
    let arch = Architecture::reference();
    let staged = preprocess(&bench_circuits::ghz(30));
    let with = Zac::with_config(arch.clone(), ZacConfig::dyn_place_reuse())
        .compile_staged(&staged)
        .unwrap();
    let without = Zac::with_config(arch, ZacConfig::dyn_place()).compile_staged(&staged).unwrap();
    assert!(with.summary.n_tran < without.summary.n_tran);
    assert!(with.total_fidelity() > without.total_fidelity());
}

#[test]
fn ablation_order_holds_in_geomean() {
    // Fig. 11's qualitative ordering: Vanilla ≤ dynPlace ≤ dynPlace+reuse
    // (per-circuit inversions possible; geomean must be ordered).
    let arch = Architecture::reference();
    let circuits = [
        bench_circuits::ghz(23),
        bench_circuits::bv(30, 18),
        bench_circuits::wstate(15),
        bench_circuits::qft(10),
    ];
    let run = |cfg: ZacConfig| -> f64 {
        let fids: Vec<f64> = circuits
            .iter()
            .map(|c| {
                Zac::with_config(arch.clone(), cfg.clone()).compile(c).unwrap().total_fidelity()
            })
            .collect();
        zac::fidelity::geometric_mean(&fids)
    };
    let vanilla = run(ZacConfig::vanilla());
    let dyn_place = run(ZacConfig::dyn_place());
    let reuse = run(ZacConfig::dyn_place_reuse());
    // dynPlace's gain over Vanilla is small (paper: +5% on the full suite);
    // on this 4-circuit subset it may wobble within a few percent.
    assert!(dyn_place >= vanilla * 0.95, "dynPlace {dyn_place} far below vanilla {vanilla}");
    assert!(reuse > dyn_place, "reuse {reuse} <= dynPlace {dyn_place}");
    assert!(reuse > vanilla, "reuse {reuse} <= vanilla {vanilla}");
}

#[test]
fn zoned_zac_beats_monolithic_on_deep_circuits() {
    use zac::baselines::{compile_atomique, compile_enola};
    use zac::fidelity::NeutralAtomParams;

    let staged = preprocess(&bench_circuits::bv(70, 36));
    let p = NeutralAtomParams::reference();
    let zac_f = Zac::with_config(Architecture::reference(), quick_config())
        .compile_staged(&staged)
        .unwrap()
        .total_fidelity();
    let enola_f = compile_enola(&staged, 10, 10, &p).unwrap().report.total();
    let atomique_f = compile_atomique(&staged, 10, 10, &p).report.total();
    assert!(zac_f > 10.0 * enola_f, "ZAC {zac_f} should dwarf Enola {enola_f}");
    assert!(zac_f > 10.0 * atomique_f);
}

#[test]
fn multi_aod_and_multi_zone_architectures_compile() {
    let staged = preprocess(&bench_circuits::ising(42));
    for arch in [
        Architecture::reference().with_num_aods(2),
        Architecture::reference().with_num_aods(4),
        Architecture::arch1_small(),
        Architecture::arch2_two_zones(),
    ] {
        let out = Zac::with_config(arch.clone(), quick_config())
            .compile_staged(&staged)
            .unwrap_or_else(|e| panic!("{}: {e}", arch.name()));
        out.program.analyze(&arch).expect("valid ZAIR");
    }
}

#[test]
fn preprocessing_semantics_verified_by_simulator() {
    for circ in [
        bench_circuits::ghz(6),
        bench_circuits::bv(6, 3),
        bench_circuits::qft(5),
        bench_circuits::wstate(5),
    ] {
        let staged = preprocess(&circ);
        assert!(
            zac::sim::preprocessing_preserves_semantics(&circ, &staged),
            "{} changed semantics",
            circ.name()
        );
    }
}

#[test]
fn compile_times_stay_interactive() {
    // The paper's scalability claim: without SA, every instance solves in
    // well under a second.
    let arch = Architecture::reference();
    for entry in bench_circuits::paper_suite() {
        let staged = preprocess(&entry.circuit);
        let out = Zac::with_config(arch.clone(), ZacConfig::dyn_place_reuse())
            .compile_staged(&staged)
            .unwrap();
        assert!(
            out.compile_time.as_secs_f64() < 5.0,
            "{} took {:?}",
            entry.circuit.name(),
            out.compile_time
        );
    }
}
