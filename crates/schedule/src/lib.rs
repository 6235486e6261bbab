//! Load-balancing scheduling for multi-AOD architectures (paper Sec. VI).
//!
//! The scheduler turns a placement plan's per-stage location snapshots into a
//! timed ZAIR program:
//!
//! 1. **Job generation** ([`jobs`]) — the qubit movements of each transition
//!    are split into rearrangement jobs: a conflict graph (built by a sorted
//!    coordinate-rank sweep) connects movements that violate the AOD
//!    order-preservation constraint, and maximal independent sets become
//!    jobs (Enola's strategy, which the paper adopts).
//! 2. **Dependencies** ([`deps`]) — *trap dependencies* allow a job to
//!    overlap the job vacating its target traps (the move phase only has to
//!    end after the vacating pickup ends, Fig. 7a); *qubit dependencies*
//!    forbid any overlap between instructions touching the same qubit
//!    (Fig. 7b).
//! 3. **Load balancing** ([`emit`]) — ready jobs are assigned longest-first
//!    to the earliest-available AOD (LPT), maximizing AOD utilization. The
//!    emission loop is event-driven: readiness is cached per job and only
//!    re-examined when a blocking trap or qubit is released.
//!
//! Movement cycles (qubit A's target trap is held by B and vice versa) are
//! broken by detouring one qubit through a free storage trap.
//!
//! All scratch state lives in a [`ScheduleWorkspace`] ([`workspace`]),
//! reusable across transitions and across `compile()` calls;
//! [`schedule_with_workspace`] threads one through, [`schedule`] creates a
//! fresh one per call. The workspace never affects results — outputs are
//! bit-identical either way (locked by `tests/bit_identity.rs` against
//! golden digests of the pre-refactor scheduler).

mod deps;
mod emit;
mod jobs;
mod workspace;

/// Test-only access to the job-construction pipeline for the crate's own
/// integration tests (`tests/alloc_free.rs`); **not** a stable API.
#[doc(hidden)]
pub mod internals {
    pub use crate::jobs::{build_transition_pending, PendingJob};
    use crate::workspace::ScheduleWorkspace;
    use zac_arch::{Architecture, Loc};

    /// Readies `ws` for job construction against `arch` (what
    /// `schedule_with_workspace` does before its stage loop).
    pub fn prepare_workspace(
        ws: &mut ScheduleWorkspace,
        arch: &Architecture,
        initial: &[Loc],
        num_aods: usize,
    ) {
        ws.prepare(arch, initial, num_aods);
    }

    /// Recycles every pending job back into the workspace pool, returning
    /// how many there were (emission normally consumes them).
    pub fn drain_pending(ws: &mut ScheduleWorkspace) -> usize {
        let n = ws.pending.len();
        while let Some(mut p) = ws.pending.pop() {
            p.recycle();
            ws.job_pool.push(p);
        }
        n
    }

    /// The planned durations of the pending jobs, in construction order.
    pub fn pending_durations(ws: &ScheduleWorkspace) -> Vec<f64> {
        ws.pending.iter().map(|p| p.spec_duration).collect()
    }
}

use std::fmt;
use zac_arch::{Architecture, Loc};
use zac_circuit::StagedCircuit;
use zac_place::PlacementPlan;
use zac_zair::{Instruction, JobError, Program, QubitLoc};

pub use workspace::ScheduleWorkspace;

/// Timing constants for scheduling (defaults match Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleConfig {
    /// Atom-transfer time (µs).
    pub t_tran_us: f64,
    /// Rydberg (CZ) exposure time (µs).
    pub t_ryd_us: f64,
    /// 1Q gate time (µs); gates in a group run sequentially.
    pub t_1q_us: f64,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        Self { t_tran_us: 15.0, t_ryd_us: 0.36, t_1q_us: 52.0 }
    }
}

/// Scheduling errors.
#[derive(Debug)]
pub enum ScheduleError {
    /// A rearrangement job could not be built.
    Job(JobError),
    /// No free storage trap was available for a cycle-breaking detour.
    NoDetourTrap,
    /// Plan and circuit disagree on stage count.
    PlanMismatch {
        /// Stages in the placement plan.
        plan_stages: usize,
        /// Rydberg stages in the circuit.
        circuit_stages: usize,
    },
    /// The deadline installed with [`zac_telemetry::cancel::install`]
    /// passed; the schedule was abandoned cooperatively (no partial program escapes).
    Cancelled,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Job(e) => write!(f, "job construction failed: {e}"),
            Self::NoDetourTrap => write!(f, "no free storage trap for detour"),
            Self::PlanMismatch { plan_stages, circuit_stages } => write!(
                f,
                "placement plan has {plan_stages} stages but the circuit has {circuit_stages}"
            ),
            Self::Cancelled => write!(f, "scheduling cancelled"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<JobError> for ScheduleError {
    fn from(e: JobError) -> Self {
        Self::Job(e)
    }
}

/// Schedules a placement plan into a timed ZAIR [`Program`].
///
/// Creates a fresh [`ScheduleWorkspace`] per call; callers compiling many
/// circuits should hold one workspace and use [`schedule_with_workspace`]
/// (same results, no per-call table setup).
///
/// # Errors
///
/// Returns a [`ScheduleError`] if the plan is inconsistent with the circuit
/// or a job cannot be realized.
///
/// # Example
///
/// ```
/// use zac_arch::Architecture;
/// use zac_circuit::{bench_circuits, preprocess};
/// use zac_place::{plan_placement, PlacementConfig};
/// use zac_schedule::{schedule, ScheduleConfig};
///
/// let arch = Architecture::reference();
/// let staged = preprocess(&bench_circuits::ghz(6));
/// let plan = plan_placement(&arch, &staged, &PlacementConfig::default()).unwrap();
/// let program = schedule(&arch, &staged, &plan, &ScheduleConfig::default())?;
/// program.analyze(&arch).expect("scheduler emits valid ZAIR");
/// # Ok::<(), zac_schedule::ScheduleError>(())
/// ```
pub fn schedule(
    arch: &Architecture,
    staged: &StagedCircuit,
    plan: &PlacementPlan,
    cfg: &ScheduleConfig,
) -> Result<Program, ScheduleError> {
    let mut ws = ScheduleWorkspace::new();
    schedule_with_workspace(arch, staged, plan, cfg, &mut ws)
}

/// [`schedule`] with an explicit, reusable [`ScheduleWorkspace`].
///
/// The workspace's buffers and dense trap tables are grown on first use and
/// reused across calls (geometry tables are rebuilt only when `arch`
/// changes), making steady-state job construction allocation-free. The
/// workspace carries no semantic state between calls: results are
/// bit-identical to a fresh-workspace [`schedule`].
///
/// # Errors
///
/// Same as [`schedule`].
pub fn schedule_with_workspace(
    arch: &Architecture,
    staged: &StagedCircuit,
    plan: &PlacementPlan,
    cfg: &ScheduleConfig,
    ws: &mut ScheduleWorkspace,
) -> Result<Program, ScheduleError> {
    let _span = zac_telemetry::span!("schedule.run", &staged.name);
    if plan.stages.len() != staged.stages.len() {
        return Err(ScheduleError::PlanMismatch {
            plan_stages: plan.stages.len(),
            circuit_stages: staged.stages.len(),
        });
    }
    let n = staged.num_qubits;
    let num_aods = arch.aods().len();

    let mut program = Program::new(&staged.name, arch.name(), n);
    let qloc = |q: usize, loc: Loc| -> QubitLoc {
        let (slm, r, c) = arch.loc_to_slm(loc);
        QubitLoc::new(q, slm, r, c)
    };

    program
        .instructions
        .push(Instruction::Init { init_locs: (0..n).map(|q| qloc(q, plan.initial[q])).collect() });

    ws.prepare(arch, &plan.initial, num_aods);
    let mut last_rydberg_end = 0.0f64;

    for (t, stage_plan) in plan.stages.iter().enumerate() {
        // ---- rearrangement jobs for this transition ----
        jobs::build_transition_pending(arch, cfg, ws, stage_plan)?;
        let mut transition_end =
            emit::emit_transition(arch, cfg, ws, &mut program, last_rydberg_end)?;

        // ---- 1Q gates preceding this stage's exposure ----
        let one_q_end = emit::emit_one_q_group(
            &mut program,
            &staged.stages[t].pre_1q,
            &ws.current,
            &mut ws.avail,
            cfg,
            &qloc,
        );
        transition_end = transition_end.max(one_q_end);

        // ---- Rydberg exposure ----
        let mut ryd_begin = transition_end;
        for g in &staged.stages[t].gates {
            ryd_begin = ryd_begin.max(ws.avail[g.a]).max(ws.avail[g.b]);
        }
        let ryd_end = ryd_begin + cfg.t_ryd_us;
        let mut zones: Vec<usize> = stage_plan.gate_sites.iter().map(|(_, s)| s.zone).collect();
        zones.sort_unstable();
        zones.dedup();
        for zone_id in zones {
            program.instructions.push(Instruction::Rydberg {
                zone_id,
                begin_time: ryd_begin,
                end_time: ryd_end,
            });
        }
        for g in &staged.stages[t].gates {
            ws.avail[g.a] = ryd_end;
            ws.avail[g.b] = ryd_end;
        }
        last_rydberg_end = ryd_end;
    }

    // Trailing 1Q gates.
    emit::emit_one_q_group(
        &mut program,
        &staged.trailing_1q,
        &ws.current,
        &mut ws.avail,
        cfg,
        &qloc,
    );

    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zac_circuit::{bench_circuits, preprocess, Circuit};
    use zac_place::{plan_placement, PlacementConfig};

    fn quick_cfg() -> PlacementConfig {
        PlacementConfig { sa_iterations: 200, ..PlacementConfig::default() }
    }

    fn compile(circ: &Circuit, arch: &Architecture, aods: usize) -> Program {
        let arch = arch.clone().with_num_aods(aods);
        let staged = preprocess(circ);
        let plan = plan_placement(&arch, &staged, &quick_cfg()).unwrap();
        schedule(&arch, &staged, &plan, &ScheduleConfig::default()).unwrap()
    }

    #[test]
    fn a_passed_deadline_cancels_even_narrow_transitions() {
        // GHZ transitions take far fewer than 64 emission rounds, so only
        // the poll on each transition's first round can see the deadline.
        let arch = Architecture::reference();
        let staged = preprocess(&bench_circuits::ghz(8));
        let plan = plan_placement(&arch, &staged, &quick_cfg()).unwrap();
        let _deadline = zac_telemetry::cancel::install(std::time::Instant::now());
        let scheduled = schedule(&arch, &staged, &plan, &ScheduleConfig::default());
        assert!(matches!(scheduled, Err(ScheduleError::Cancelled)));
    }

    #[test]
    fn ghz_schedule_is_valid_zair() {
        let arch = Architecture::reference();
        let p = compile(&bench_circuits::ghz(8), &arch, 1);
        let a = p.analyze(&arch).unwrap();
        assert_eq!(a.g2, 7);
        assert_eq!(a.n_exc, 0, "ZAC never leaves idle qubits in the zone");
        assert_eq!(a.num_rydberg_stages, 7);
        assert!(a.total_duration_us > 0.0);
    }

    #[test]
    fn one_q_gates_are_scheduled() {
        let arch = Architecture::reference();
        let p = compile(&bench_circuits::bv(6, 5), &arch, 1);
        let a = p.analyze(&arch).unwrap();
        let staged = preprocess(&bench_circuits::bv(6, 5));
        assert_eq!(a.g1, staged.num_1q_gates());
        assert_eq!(a.g2, staged.num_2q_gates());
    }

    #[test]
    fn reuse_cuts_transfers_on_chain_circuits() {
        let arch = Architecture::reference();
        let staged = preprocess(&bench_circuits::ghz(12));
        let with_cfg = quick_cfg();
        let without_cfg = PlacementConfig { reuse: false, ..quick_cfg() };
        let cfg = ScheduleConfig::default();
        let a_with =
            schedule(&arch, &staged, &plan_placement(&arch, &staged, &with_cfg).unwrap(), &cfg)
                .unwrap()
                .analyze(&arch)
                .unwrap();
        let a_without =
            schedule(&arch, &staged, &plan_placement(&arch, &staged, &without_cfg).unwrap(), &cfg)
                .unwrap()
                .analyze(&arch)
                .unwrap();
        assert!(
            a_with.n_tran < a_without.n_tran,
            "reuse transfers {} !< no-reuse {}",
            a_with.n_tran,
            a_without.n_tran
        );
    }

    #[test]
    fn multiple_aods_never_slow_things_down() {
        let arch = Architecture::reference();
        let circ = bench_circuits::ising(16);
        let d1 = compile(&circ, &arch, 1).total_duration_us();
        let d2 = compile(&circ, &arch, 2).total_duration_us();
        let d4 = compile(&circ, &arch, 4).total_duration_us();
        assert!(d2 <= d1 + 1e-6, "2 AODs {d2} vs 1 AOD {d1}");
        assert!(d4 <= d2 + 1e-6, "4 AODs {d4} vs 2 AODs {d2}");
    }

    #[test]
    fn two_aods_help_parallel_circuits() {
        let arch = Architecture::reference();
        let circ = bench_circuits::ising(24);
        let d1 = compile(&circ, &arch, 1).total_duration_us();
        let d2 = compile(&circ, &arch, 2).total_duration_us();
        assert!(d2 < d1, "expected speedup: 1 AOD {d1}, 2 AODs {d2}");
    }

    #[test]
    fn programs_validate_on_multi_zone_arch() {
        let arch = Architecture::arch2_two_zones();
        let p = compile(&bench_circuits::ising(20), &arch, 1);
        let a = p.analyze(&arch).unwrap();
        assert_eq!(a.n_exc, 0);
        assert_eq!(a.g2, preprocess(&bench_circuits::ising(20)).num_2q_gates());
    }

    #[test]
    fn instructions_are_time_consistent() {
        let arch = Architecture::reference().with_num_aods(2);
        let p = compile(&bench_circuits::qft(6), &arch, 2);
        for inst in &p.instructions {
            assert!(inst.end_time() >= inst.begin_time());
        }
        let a = p.analyze(&arch).unwrap();
        for (q, busy) in a.busy_us.iter().enumerate() {
            assert!(
                *busy <= a.total_duration_us + 1e-6,
                "qubit {q} busy {busy} > total {}",
                a.total_duration_us
            );
        }
    }

    #[test]
    fn suite_smoke_all_programs_valid() {
        let arch = Architecture::reference();
        for circ in
            [bench_circuits::bv(14, 13), bench_circuits::wstate(10), bench_circuits::swap_test(9)]
        {
            let p = compile(&circ, &arch, 1);
            let a = p.analyze(&arch).unwrap();
            assert_eq!(a.n_exc, 0, "{}", circ.name());
            assert!(a.g2 > 0);
        }
    }

    #[test]
    fn storage_swap_cycle_resolved_by_detour() {
        // Handcraft a plan where two idle qubits exchange storage traps in
        // one transition — a cyclic trap hand-off the emission loop must
        // break with a detour through a free trap.
        use zac_arch::SiteId;
        use zac_circuit::Gate2;
        use zac_place::{PlacementPlan, StagePlan};

        let arch = Architecture::reference();
        let mut c = Circuit::new("cycle", 4);
        c.cz(0, 1).cz(0, 1);
        let staged = preprocess(&c);

        let s = |col: usize| Loc::Storage { zone: 0, row: 99, col };
        let w = |slot: usize| Loc::Site { zone: 0, row: 0, col: 0, slot };
        let site = SiteId::new(0, 0, 0);
        let g0 = Gate2 { id: 0, a: 0, b: 1 };
        let g1 = Gate2 { id: 1, a: 0, b: 1 };
        let plan = PlacementPlan {
            initial: vec![s(0), s(1), s(2), s(3)],
            stages: vec![
                StagePlan {
                    gate_sites: vec![(g0, site)],
                    pre_returns: None,
                    during: vec![w(0), w(1), s(2), s(3)],
                    used_reuse: false,
                    reused_qubits: 0,
                },
                StagePlan {
                    gate_sites: vec![(g1, site)],
                    pre_returns: None,
                    // q2 and q3 swap traps: a 2-cycle.
                    during: vec![w(0), w(1), s(3), s(2)],
                    used_reuse: true,
                    reused_qubits: 2,
                },
            ],
        };
        let program = schedule(&arch, &staged, &plan, &ScheduleConfig::default()).unwrap();
        let analysis = program.analyze(&arch).unwrap();
        // The detour adds one extra trip: 2 fetches + swap (2 moves + detour).
        assert!(analysis.num_jobs >= 3, "jobs {}", analysis.num_jobs);
        program.verify_against(&arch, &staged).unwrap();
    }

    #[test]
    fn round_trip_plans_schedule_correctly() {
        // A no-reuse plan (pre_returns set) must produce the storage round
        // trip: more transfers than the reuse plan on the same circuit.
        let arch = Architecture::reference();
        let staged = preprocess(&bench_circuits::ghz(10));
        let cfg = ScheduleConfig::default();
        let reuse_plan = plan_placement(&arch, &staged, &quick_cfg()).unwrap();
        let mut no_reuse = quick_cfg();
        no_reuse.reuse = false;
        let plain_plan = plan_placement(&arch, &staged, &no_reuse).unwrap();
        assert!(plain_plan.stages.iter().skip(1).any(|s| s.pre_returns.is_some()));
        let a_reuse = schedule(&arch, &staged, &reuse_plan, &cfg).unwrap().analyze(&arch).unwrap();
        let a_plain = schedule(&arch, &staged, &plain_plan, &cfg).unwrap().analyze(&arch).unwrap();
        assert!(a_plain.n_tran > a_reuse.n_tran);
        // Chain circuit: each stage round-trips both gate qubits (4 transfers
        // in + 4 out per stage boundary, roughly).
        assert!(a_plain.n_tran >= 4 * (staged.num_stages() - 1));
    }

    #[test]
    fn rydberg_never_fires_during_a_zone_drop() {
        let arch = Architecture::reference();
        let p = compile(&bench_circuits::ghz(6), &arch, 1);
        let rydbergs: Vec<(f64, f64)> = p
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instruction::Rydberg { begin_time, end_time, .. } => Some((*begin_time, *end_time)),
                _ => None,
            })
            .collect();
        for job in p.jobs() {
            // Only drops into the entanglement zone matter.
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
                    "drop [{drop_start}, {drop_end}] overlaps exposure [{rb}, {re}]"
                );
            }
        }
    }

    /// Reusing one workspace across many compiles (and across architectures)
    /// is bit-identical to fresh workspaces.
    #[test]
    fn workspace_reuse_is_bit_identical() {
        let cfg = ScheduleConfig::default();
        let mut ws = ScheduleWorkspace::new();
        for arch in [Architecture::reference(), Architecture::arch2_two_zones()] {
            for circ in [bench_circuits::ghz(10), bench_circuits::ising(16), bench_circuits::qft(6)]
            {
                let staged = preprocess(&circ);
                let plan = plan_placement(&arch, &staged, &quick_cfg()).unwrap();
                let fresh = schedule(&arch, &staged, &plan, &cfg).unwrap();
                let reused = schedule_with_workspace(&arch, &staged, &plan, &cfg, &mut ws).unwrap();
                assert_eq!(fresh, reused, "{} on {}", staged.name, arch.name());
                assert_eq!(fresh.content_fingerprint(), reused.content_fingerprint());
            }
        }
    }

    #[test]
    fn plan_mismatch_reports_stage_counts() {
        let arch = Architecture::reference();
        let staged = preprocess(&bench_circuits::ghz(4)); // 3 stages
        let plan = PlacementPlan { initial: vec![], stages: vec![] };
        let err = schedule(&arch, &staged, &plan, &ScheduleConfig::default()).unwrap_err();
        match err {
            ScheduleError::PlanMismatch { plan_stages, circuit_stages } => {
                assert_eq!(plan_stages, 0);
                assert_eq!(circuit_stages, staged.stages.len());
            }
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("0 stages"), "{msg}");
        assert!(msg.contains(&format!("{}", staged.stages.len())), "{msg}");
    }
}
