//! Scheduler bit-identity regression: the emitted [`Program`] for every
//! (circuit, architecture, seed) combination must match a committed golden
//! digest captured from the pre-refactor scheduler.
//!
//! The digests ([`Program::content_fingerprint`]) cover *every* field of
//! every instruction — begin/end times, machine-level AOD expansions, qlocs —
//! so any behavioral drift in job construction, dependency resolution or the
//! emission loop fails loudly, while pure restructurings pass.
//!
//! The matrix is the paper's 17-circuit suite plus the bundled QASM corpus
//! (`tests/corpus/`), on the reference and two-zone (`arch2`) geometries,
//! with two SA seeds. The always-on test covers a fast subset so `cargo
//! test` stays quick in debug builds; the full matrix runs under
//! `--ignored` (CI runs it in release mode).
//!
//! Regenerate `tests/golden/schedule_digests.txt` with
//! `ZAC_SCHEDULE_GOLDEN_REGEN=1 cargo test -p zac-schedule --release --test
//! bit_identity -- --ignored` — only legitimate, reviewed output changes may
//! do so.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use zac_arch::Architecture;
use zac_circuit::{bench_circuits, preprocess, qasm::parse_qasm, StagedCircuit};
use zac_place::{plan_placement, PlacementConfig, PlacementEngine};
use zac_schedule::{schedule, ScheduleConfig};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/schedule_digests.txt");
const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
const SEEDS: [u64; 2] = [0x5AC, 7];

/// Reduced SA budget: seeds still steer the placement (exercising distinct
/// rearrangement patterns) while the matrix stays fast enough for CI.
const SA_ITERATIONS: usize = 60;

/// Circuits small enough for the always-on debug-mode subset.
const FAST_QUBIT_CAP: usize = 31;

fn place_cfg(seed: u64) -> PlacementConfig {
    // The goldens were captured from the exhaustive search; pin the engine so
    // the matrix names the engine it locks rather than relying on the
    // default.
    PlacementConfig {
        sa_iterations: SA_ITERATIONS,
        seed,
        engine: PlacementEngine::Exhaustive,
        ..PlacementConfig::default()
    }
}

fn archs() -> Vec<Architecture> {
    vec![Architecture::reference(), Architecture::arch2_two_zones()]
}

fn suite() -> Vec<StagedCircuit> {
    let mut circuits: Vec<StagedCircuit> =
        bench_circuits::paper_suite().iter().map(|e| preprocess(&e.circuit)).collect();
    let mut entries: Vec<_> = std::fs::read_dir(CORPUS_DIR)
        .expect("bundled corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("readable corpus file");
        let circuit = parse_qasm(&src, &name).expect("bundled corpus file parses");
        circuits.push(preprocess(&circuit));
    }
    circuits
}

/// One cell of the golden matrix: the digest of the scheduled program, or a
/// stable skip marker when the circuit does not fit the architecture.
fn digest_of(arch: &Architecture, staged: &StagedCircuit, seed: u64) -> String {
    // Mirror `Zac::compile_staged`: stages wider than the site count split.
    let num_sites = arch.num_sites();
    let split;
    let staged = if staged.max_parallelism() > num_sites && num_sites > 0 {
        split = staged.with_max_stage_width(num_sites);
        &split
    } else {
        staged
    };
    let plan = match plan_placement(arch, staged, &place_cfg(seed)) {
        Ok(plan) => plan,
        Err(_) => return "skip".to_owned(),
    };
    let program = schedule(arch, staged, &plan, &ScheduleConfig::default())
        .unwrap_or_else(|e| panic!("{} on {}: {e}", staged.name, arch.name()));
    format!("{:016x}", program.content_fingerprint())
}

fn golden_key(circuit: &str, arch: &str, seed: u64) -> String {
    format!("{circuit}\t{arch}\t{seed}")
}

fn load_goldens() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden digests committed at tests/golden/schedule_digests.txt");
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, digest) = l.rsplit_once('\t').expect("golden line: key\\tdigest");
            (key.to_owned(), digest.to_owned())
        })
        .collect()
}

fn run_matrix(fast_only: bool) {
    let regen = std::env::var("ZAC_SCHEDULE_GOLDEN_REGEN").is_ok_and(|v| v == "1");
    if regen && fast_only {
        // Regeneration must cover the whole matrix; only the ignored entry
        // point does that.
        return;
    }
    let goldens = if regen { BTreeMap::new() } else { load_goldens() };
    let mut out = String::from(
        "# Scheduler output digests (Program::content_fingerprint), one per\n\
         # (circuit, architecture, seed). Captured from the pre-refactor\n\
         # scheduler; regenerate only for reviewed output changes:\n\
         # ZAC_SCHEDULE_GOLDEN_REGEN=1 cargo test -p zac-schedule --release \
         --test bit_identity -- --ignored\n",
    );
    let mut mismatches = Vec::new();
    for staged in suite() {
        if fast_only && staged.num_qubits > FAST_QUBIT_CAP {
            continue;
        }
        for arch in archs() {
            for seed in SEEDS {
                let key = golden_key(&staged.name, arch.name(), seed);
                let digest = digest_of(&arch, &staged, seed);
                writeln!(out, "{key}\t{digest}").unwrap();
                if !regen {
                    match goldens.get(&key) {
                        Some(expect) if *expect == digest => {}
                        Some(expect) => {
                            mismatches.push(format!("{key}: expected {expect}, got {digest}"))
                        }
                        None => mismatches.push(format!("{key}: missing from golden file")),
                    }
                }
            }
        }
    }
    if regen {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, out).unwrap();
        println!("regenerated {GOLDEN_PATH}");
        return;
    }
    assert!(
        mismatches.is_empty(),
        "scheduler output drifted from the pre-refactor goldens:\n{}",
        mismatches.join("\n")
    );
}

/// Fast subset (small suite circuits + corpus, both geometries, both seeds):
/// always on, keeps `cargo test` honest in debug builds.
#[test]
fn scheduler_output_matches_goldens_fast_subset() {
    run_matrix(true);
}

/// The full 17-circuit suite + corpus matrix; run in release mode
/// (`cargo test -p zac-schedule --release --test bit_identity -- --ignored`,
/// wired into CI).
#[test]
#[ignore = "full matrix is release-mode CI work; the fast subset always runs"]
fn scheduler_output_matches_goldens_full_matrix() {
    run_matrix(false);
}
