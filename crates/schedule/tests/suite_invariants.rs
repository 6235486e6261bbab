//! Suite-wide scheduler invariants: for every paper circuit × AOD count,
//! the emitted program must
//!
//! 1. pass `verify_against` (it implements the circuit: every 2Q gate fires
//!    at a site holding exactly its two qubits, in stage order);
//! 2. pass `analyze` with zero idle-qubit excitations (zoned shielding);
//! 3. never overlap a Rydberg exposure with a drop into an entanglement
//!    zone — an atom released mid-exposure would be excited (this
//!    generalizes the old single-circuit
//!    `rydberg_never_fires_during_a_zone_drop` unit test to the whole
//!    suite and all AOD counts).
//!
//! Both placement engines feed the scheduler. SA is disabled (it only
//! changes the initial placement, not scheduler behavior) so the
//! 2 × 17 × 3 matrix stays fast in debug CI runs.

use zac_arch::Architecture;
use zac_circuit::{bench_circuits, preprocess};
use zac_place::{plan_placement, PlacementConfig, PlacementEngine};
use zac_schedule::{schedule_with_workspace, ScheduleConfig, ScheduleWorkspace};
use zac_zair::{Instruction, Program};

fn place_cfg(engine: PlacementEngine) -> PlacementConfig {
    PlacementConfig { use_sa: false, engine, ..PlacementConfig::default() }
}

/// No Rydberg exposure may overlap any job's drop phase into the zone.
fn assert_no_drop_during_exposure(arch: &Architecture, p: &Program, label: &str) {
    let rydbergs: Vec<(f64, f64)> = p
        .instructions
        .iter()
        .filter_map(|i| match i {
            Instruction::Rydberg { begin_time, end_time, .. } => Some((*begin_time, *end_time)),
            _ => None,
        })
        .collect();
    for job in p.jobs() {
        let drops_in_zone = job
            .moves()
            .any(|(_, e)| arch.slm_to_loc(e.slm_id, e.row, e.col).is_some_and(|l| l.is_site()));
        if !drops_in_zone {
            continue;
        }
        let drop_start = job.move_end();
        let drop_end = job.end_time;
        for (rb, re) in &rydbergs {
            assert!(
                drop_end <= *rb + 1e-9 || drop_start >= *re - 1e-9,
                "{label}: drop [{drop_start}, {drop_end}] overlaps exposure [{rb}, {re}]"
            );
        }
    }
}

#[test]
fn all_suite_programs_verify_across_aod_counts() {
    let cfg = ScheduleConfig::default();
    let mut ws = ScheduleWorkspace::new();
    for engine in [PlacementEngine::Exhaustive, PlacementEngine::windowed()] {
        for entry in bench_circuits::paper_suite() {
            let staged = preprocess(&entry.circuit);
            for aods in [1usize, 2, 4] {
                let arch = Architecture::reference().with_num_aods(aods);
                let num_sites = arch.num_sites();
                let split;
                let staged = if staged.max_parallelism() > num_sites && num_sites > 0 {
                    split = staged.with_max_stage_width(num_sites);
                    &split
                } else {
                    &staged
                };
                let label = format!("{} ({aods} AODs, {})", staged.name, engine.name());
                let plan = plan_placement(&arch, staged, &place_cfg(engine.clone()))
                    .unwrap_or_else(|e| panic!("{label}: placement failed: {e}"));
                let program = schedule_with_workspace(&arch, staged, &plan, &cfg, &mut ws)
                    .unwrap_or_else(|e| panic!("{label}: scheduling failed: {e}"));

                program
                    .verify_against(&arch, staged)
                    .unwrap_or_else(|e| panic!("{label}: verify_against failed: {e}"));
                let analysis = program
                    .analyze(&arch)
                    .unwrap_or_else(|e| panic!("{label}: analyze rejected the program: {e}"));
                assert_eq!(analysis.n_exc, 0, "{label}: idle qubit caught in an exposure");
                assert_eq!(analysis.g2, staged.num_2q_gates(), "{label}: 2Q gate count");
                assert!(analysis.total_duration_us > 0.0, "{label}");
                assert_no_drop_during_exposure(&arch, &program, &label);
            }
        }
    }
}
