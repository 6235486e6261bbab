//! Corpus ingestion smoke tests (run in CI): every bundled `.qasm` file
//! parses, the suite × compiler sweep is failure-free, parallel equals
//! serial, and the parser's qelib1 decompositions are semantically exact.

use zac::bench::{corpus::load_corpus, default_compilers, BatchRunner};
use zac::circuit::qasm::parse_qasm;
use zac::circuit::{Circuit, OneQGate};
use zac::prelude::*;
use zac::sim::StateVector;

const CORPUS_DIR: &str = "tests/corpus";

#[test]
fn bundled_corpus_parses_cleanly_in_deterministic_order() {
    let corpus = load_corpus(CORPUS_DIR);
    assert!(corpus.is_clean(), "{:#?}", corpus.failures);
    assert_eq!(corpus.len(), 10);
    // Deterministic ordering: sorted by file name.
    let files: Vec<&str> = corpus.entries.iter().map(|e| e.file.as_str()).collect();
    let mut sorted = files.clone();
    sorted.sort_unstable();
    assert_eq!(files, sorted);
    // Circuits are named after their file stems.
    for e in &corpus.entries {
        assert_eq!(format!("{}.qasm", e.staged.name), e.file);
    }
}

/// The acceptance gate: the bundled corpus — which includes nested-paren
/// parameters (qft_n5), whole-register broadcast (bv_n6), and custom gate
/// definitions (adder_n4, ising_n6) — sweeps across the full lineup with
/// zero `CellFailure`s, and the parallel sweep is bit-identical to a
/// serial rerun through the shared cache. A windowed Zoned-ZAC arm rides
/// along so both placement engines sweep the corpus.
#[test]
fn corpus_sweep_is_failure_free_and_deterministic() {
    let corpus = load_corpus(CORPUS_DIR);
    assert!(corpus.is_clean(), "{:#?}", corpus.failures);
    let suite = corpus.suite();
    let mut compilers = default_compilers();
    let windowed = Zac::with_config(Architecture::reference(), ZacConfig::windowed());
    compilers.push(Box::new(Labeled::new("Zoned-ZAC-windowed", windowed)));
    let cache = CompileCache::in_memory(1024);

    let rows = BatchRunner::parallel().with_cache(cache.clone()).run(&compilers, &suite);
    assert_eq!(rows.len(), suite.len());
    for row in &rows {
        assert!(row.failures.is_empty(), "{}: {:?}", row.name, row.failures);
        // Every corpus circuit fits the reference architectures.
        assert_eq!(row.results.len(), compilers.len(), "{}", row.name);
    }

    let serial = BatchRunner::serial().with_cache(cache).run(&compilers, &suite);
    for (p, s) in rows.iter().zip(&serial) {
        assert_eq!(p.name, s.name);
        assert_eq!(p.results.len(), s.results.len(), "{}", p.name);
        for (pr, sr) in p.results.iter().zip(&s.results) {
            assert_eq!(pr.compiler, sr.compiler);
            assert_eq!(pr.report, sr.report, "{} / {}", p.name, pr.compiler);
            assert_eq!(pr.counts, sr.counts, "{} / {}", p.name, pr.compiler);
            assert_eq!(
                pr.compile_secs.to_bits(),
                sr.compile_secs.to_bits(),
                "{} / {}: warm rerun must carry the original compile time",
                p.name,
                pr.compiler
            );
        }
    }
}

/// Broadcast and gate-definition statements parse to the expected shapes on
/// the bundled files themselves (not just synthetic unit-test inputs).
#[test]
fn bundled_files_exercise_the_new_grammar() {
    let read = |f: &str| std::fs::read_to_string(format!("{CORPUS_DIR}/{f}")).unwrap();

    // bv_n6: two broadcast `h q;` layers over 6 qubits plus 3 CX and 1 X.
    let bv = parse_qasm(&read("bv_n6.qasm"), "bv_n6").unwrap();
    assert_eq!(bv.num_qubits(), 6);
    assert_eq!(bv.num_1q_gates(), 13);
    assert_eq!(bv.num_2q_gates(), 3);

    // qft_n5: nested parens evaluate to the same angles as plain forms.
    let qft = parse_qasm(&read("qft_n5.qasm"), "qft_n5").unwrap();
    let angles: Vec<f64> = qft
        .gates()
        .iter()
        .filter_map(|g| match *g {
            zac::circuit::Gate::TwoQ { kind: zac::circuit::TwoQKind::Cp(t), .. } => Some(t),
            _ => None,
        })
        .collect();
    let pi = std::f64::consts::PI;
    assert!((angles[2] - 3.0 * pi / 8.0).abs() < 1e-12, "(1+2)*pi/8 = {}", angles[2]);
    assert!((angles[3] - pi / 16.0).abs() < 1e-12, "pi/(2*2*2*2) = {}", angles[3]);

    // adder_n4: custom gates expand; majority = 2 CX + 6-CX Toffoli.
    let adder = parse_qasm(&read("adder_n4.qasm"), "adder_n4").unwrap();
    assert_eq!(adder.num_qubits(), 6);
    // 4 majority/unmaj macro expansions (8 CX each) + the carry-out CX.
    assert_eq!(adder.num_2q_gates(), 4 * 8 + 1);

    // qaoa_n3: sx/sxdg lower to 3 one-qubit gates each, incl. a broadcast
    // `sxdg q;` over the whole register.
    let qaoa = parse_qasm(&read("qaoa_n3.qasm"), "qaoa_n3").unwrap();
    assert_eq!(qaoa.num_qubits(), 3);
    assert_eq!(qaoa.num_2q_gates(), 4);
    assert_eq!(qaoa.num_1q_gates(), 3 * 3 + 2 + 3 * 3);
}

/// Asserts `a == z · b` amplitude-wise and returns the factor `z`
/// (|z| = 1 for unitary circuits on the same input).
fn global_phase_between(
    a: &StateVector,
    b: &StateVector,
    what: &str,
) -> zac::circuit::complex::C64 {
    assert_eq!(a.num_qubits(), b.num_qubits());
    let dim = 1usize << a.num_qubits();
    // Pick the largest reference amplitude to extract the phase stably.
    let pivot = (0..dim)
        .max_by(|&i, &j| {
            b.amplitude(i).norm().partial_cmp(&b.amplitude(j).norm()).expect("finite amplitudes")
        })
        .expect("non-empty state");
    let bp = b.amplitude(pivot);
    assert!(bp.norm() > 1e-6, "{what}: degenerate reference state");
    let z = a.amplitude(pivot) * bp.conj().scale(1.0 / bp.norm_sqr());
    for i in 0..dim {
        let d = a.amplitude(i) - z * b.amplitude(i);
        assert!(
            d.norm() < 1e-9,
            "{what}: amplitude {i} differs: {:?} vs {:?} (phase {z:?})",
            a.amplitude(i),
            b.amplitude(i)
        );
    }
    z
}

/// The qelib1 decompositions behind `cy`/`ch`/`crz`/`cu3`/`rzz` implement
/// the controlled gates exactly up to a *global* phase that must be
/// identical on both control branches (a branch-dependent phase would be a
/// real bug: it changes relative phases in superpositions). Both control
/// basis states are checked with the target in a generic superposition,
/// which by linearity pins down the full controlled unitary. The phase is
/// exactly 1 everywhere except qelib1's `ch`, which is e^{iπ/4}·CH by
/// construction.
#[test]
fn qelib1_decompositions_match_their_definitions() {
    type Builder = fn(&mut Circuit);
    let cases: Vec<(&str, Builder, Builder, f64)> = vec![
        (
            "cy",
            |c| {
                c.cy_decomposed(0, 1);
            },
            |c| {
                c.one_q(OneQGate::Y, 1);
            },
            0.0,
        ),
        (
            "ch",
            |c| {
                c.ch_decomposed(0, 1);
            },
            |c| {
                c.h(1);
            },
            std::f64::consts::FRAC_PI_4,
        ),
        (
            "crz",
            |c| {
                c.crz_decomposed(1.31, 0, 1);
            },
            |c| {
                c.rz(1.31, 1);
            },
            0.0,
        ),
        (
            "cu3",
            |c| {
                c.cu3_decomposed(0.57, -0.23, 1.31, 0, 1);
            },
            |c| {
                c.one_q(OneQGate::U3 { theta: 0.57, phi: -0.23, lambda: 1.31 }, 1);
            },
            0.0,
        ),
    ];

    for (name, decomposed, target_gate, expected_phase) in cases {
        let mut phases = Vec::new();
        for ctrl_on in [false, true] {
            let mut dec = Circuit::new("dec", 2);
            let mut reference = Circuit::new("ref", 2);
            for c in [&mut dec, &mut reference] {
                if ctrl_on {
                    c.x(0);
                }
                // Generic target superposition with a nontrivial phase.
                c.ry(0.77, 1).rz(0.31, 1);
            }
            decomposed(&mut dec);
            if ctrl_on {
                target_gate(&mut reference);
            }
            phases.push(global_phase_between(
                &StateVector::run(&dec),
                &StateVector::run(&reference),
                &format!("{name} (control {})", u8::from(ctrl_on)),
            ));
        }
        let expected = zac::circuit::complex::C64::cis(expected_phase);
        for z in &phases {
            assert!((*z - expected).norm() < 1e-9, "{name}: phase {z:?} != {expected:?}");
        }
    }

    // rzz(θ) in the qelib1 convention is diag(1, e^{iθ}, e^{iθ}, 1):
    // u1(θ) on each qubit followed by cu1(-2θ) on the pair.
    let thetazz = 0.91;
    let mut dec = Circuit::new("dec", 2);
    let mut reference = Circuit::new("ref", 2);
    for c in [&mut dec, &mut reference] {
        c.h(0).h(1).rz(0.4, 0);
    }
    dec.rzz_decomposed(thetazz, 0, 1);
    reference.one_q(OneQGate::Phase(thetazz), 0).one_q(OneQGate::Phase(thetazz), 1).cp(
        -2.0 * thetazz,
        0,
        1,
    );
    let z = global_phase_between(&StateVector::run(&dec), &StateVector::run(&reference), "rzz");
    assert!((z - zac::circuit::complex::C64::ONE).norm() < 1e-9, "rzz: phase {z:?}");
}

/// `sx`/`sxdg` lower through their qelib1 decompositions: exactly √X and
/// √X† up to the documented global phases e^{∓iπ/4} (qelib1 defines `sx`
/// with a π/4 global phase). The reference uses the exact identity
/// SX = H·S·H (no phase), so the check is against the true matrix, not the
/// decomposition re-tested against itself.
#[test]
fn sx_decompositions_match_sqrt_x_exactly() {
    let pi4 = std::f64::consts::FRAC_PI_4;
    type Builder = fn(&mut Circuit);
    let cases: Vec<(&str, Builder, Builder, f64)> = vec![
        (
            "sx",
            |c| {
                c.sx_decomposed(0);
            },
            |c| {
                c.h(0).one_q(OneQGate::S, 0).h(0); // H·S·H = SX exactly
            },
            -pi4,
        ),
        (
            "sxdg",
            |c| {
                c.sxdg_decomposed(0);
            },
            |c| {
                c.h(0).one_q(OneQGate::Sdg, 0).h(0); // H·S†·H = SX† exactly
            },
            pi4,
        ),
    ];
    for (name, decomposed, reference_gate, expected_phase) in cases {
        let mut dec = Circuit::new("dec", 1);
        let mut reference = Circuit::new("ref", 1);
        for c in [&mut dec, &mut reference] {
            // Generic superposition with a nontrivial phase, so both matrix
            // columns are pinned.
            c.ry(0.77, 0).rz(0.31, 0);
        }
        decomposed(&mut dec);
        reference_gate(&mut reference);
        let z = global_phase_between(&StateVector::run(&dec), &StateVector::run(&reference), name);
        let expected = zac::circuit::complex::C64::cis(expected_phase);
        assert!((z - expected).norm() < 1e-9, "{name}: phase {z:?} != {expected:?}");
        // The phase must not depend on the input state (branch-independent).
        let mut dec2 = Circuit::new("dec2", 1);
        let mut ref2 = Circuit::new("ref2", 1);
        for c in [&mut dec2, &mut ref2] {
            c.x(0).ry(-1.1, 0);
        }
        decomposed(&mut dec2);
        reference_gate(&mut ref2);
        let z2 = global_phase_between(&StateVector::run(&dec2), &StateVector::run(&ref2), name);
        assert!((z2 - expected).norm() < 1e-9, "{name}: state-dependent phase {z2:?}");
    }
}

/// Parsing a corpus file and re-parsing its `to_qasm` emission agree —
/// the ingestion path is self-consistent end to end.
#[test]
fn corpus_files_roundtrip_through_emission() {
    for file in ["qft_n5.qasm", "variational_n4.qasm", "ising_n6.qasm"] {
        let src = std::fs::read_to_string(format!("{CORPUS_DIR}/{file}")).unwrap();
        let first = parse_qasm(&src, "first").unwrap();
        let second = parse_qasm(&zac::circuit::qasm::to_qasm(&first), "first").unwrap();
        assert_eq!(first.gates(), second.gates(), "{file}");
    }
}
