//! The ZAC compilation pipeline: preprocess → place → schedule → evaluate.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use zac_arch::Architecture;
use zac_circuit::{preprocess, Circuit, StagedCircuit};
use zac_fidelity::{evaluate_neutral_atom, ExecutionSummary, FidelityReport, NeutralAtomParams};
use zac_place::{plan_placement, PlaceError, PlacementConfig, PlacementPlan};
use zac_schedule::{schedule_with_workspace, ScheduleConfig, ScheduleError, ScheduleWorkspace};
use zac_zair::{Program, ZairError};

/// Full compiler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ZacConfig {
    /// Placement settings (ablation switches live here).
    pub placement: PlacementConfig,
    /// Hardware parameters (drive both timing and fidelity).
    pub params: NeutralAtomParams,
}

impl Default for ZacConfig {
    fn default() -> Self {
        Self { placement: PlacementConfig::default(), params: NeutralAtomParams::reference() }
    }
}

impl ZacConfig {
    /// 'Vanilla' ablation setting: trivial initial placement, static
    /// intermediate placement, no reuse (Fig. 11).
    pub fn vanilla() -> Self {
        Self {
            placement: PlacementConfig {
                use_sa: false,
                dynamic: false,
                reuse: false,
                ..PlacementConfig::default()
            },
            ..Self::default()
        }
    }

    /// 'dynPlace' ablation setting: dynamic placement, no reuse.
    pub fn dyn_place() -> Self {
        Self {
            placement: PlacementConfig {
                use_sa: false,
                dynamic: true,
                reuse: false,
                ..PlacementConfig::default()
            },
            ..Self::default()
        }
    }

    /// 'dynPlace+reuse' ablation setting.
    pub fn dyn_place_reuse() -> Self {
        Self {
            placement: PlacementConfig {
                use_sa: false,
                dynamic: true,
                reuse: true,
                ..PlacementConfig::default()
            },
            ..Self::default()
        }
    }

    /// 'SA+dynPlace+reuse': the full pipeline (default).
    pub fn full() -> Self {
        Self::default()
    }

    /// The full pipeline with the windowed placement engine (default window
    /// parameters): the compile-time/quality frontier's fast arm.
    pub fn windowed() -> Self {
        let mut cfg = Self::default();
        cfg.placement.engine = zac_place::PlacementEngine::windowed();
        cfg
    }

    fn schedule_config(&self) -> ScheduleConfig {
        ScheduleConfig {
            t_tran_us: self.params.t_tran_us,
            t_ryd_us: self.params.t_2q_us,
            t_1q_us: self.params.t_1q_us,
        }
    }
}

/// Compilation error.
#[derive(Debug)]
pub enum ZacError {
    /// Placement failed.
    Place(PlaceError),
    /// Scheduling failed.
    Schedule(ScheduleError),
    /// The emitted program failed validation (a compiler bug if it occurs).
    Zair(ZairError),
}

impl fmt::Display for ZacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Place(e) => write!(f, "placement: {e}"),
            Self::Schedule(e) => write!(f, "scheduling: {e}"),
            Self::Zair(e) => write!(f, "emitted invalid ZAIR: {e}"),
        }
    }
}

impl std::error::Error for ZacError {}

impl From<PlaceError> for ZacError {
    fn from(e: PlaceError) -> Self {
        Self::Place(e)
    }
}

impl From<ScheduleError> for ZacError {
    fn from(e: ScheduleError) -> Self {
        Self::Schedule(e)
    }
}

impl From<ZairError> for ZacError {
    fn from(e: ZairError) -> Self {
        Self::Zair(e)
    }
}

/// Result of one ZAC compilation: the full pipeline artifacts (program +
/// plan), richer than the trait-level [`crate::CompileOutput`].
#[derive(Debug, Clone)]
pub struct ZacOutput {
    /// The compiled ZAIR program (validated).
    pub program: Program,
    /// The placement plan that produced it.
    pub plan: PlacementPlan,
    /// Execution summary (counts and timing).
    pub summary: ExecutionSummary,
    /// Fidelity report under the configured hardware parameters.
    pub report: FidelityReport,
    /// Wall-clock compilation time.
    pub compile_time: Duration,
    /// Wall-clock time of the placement phase (preprocessing + plan).
    pub place_time: Duration,
    /// Wall-clock time of the scheduling phase (plan → ZAIR program).
    pub schedule_time: Duration,
}

impl ZacOutput {
    /// Total circuit fidelity.
    pub fn total_fidelity(&self) -> f64 {
        self.report.total()
    }
}

/// The ZAC compiler for a fixed target architecture.
///
/// # Example
///
/// ```
/// use zac_arch::Architecture;
/// use zac_circuit::bench_circuits;
/// use zac_core::Zac;
///
/// let zac = Zac::new(Architecture::reference());
/// let out = zac.compile(&bench_circuits::ghz(8))?;
/// assert!(out.total_fidelity() > 0.5);
/// assert_eq!(out.summary.n_exc, 0); // zoned: idle qubits shielded
/// # Ok::<(), zac_core::ZacError>(())
/// ```
#[derive(Debug)]
pub struct Zac {
    arch: Architecture,
    config: ZacConfig,
    /// Reused scheduler scratch: dense trap tables, conflict-graph and job
    /// buffers shared across `compile()` calls. Never affects results
    /// (bit-identity is locked in `zac-schedule`); a contended or poisoned
    /// lock just falls back to a fresh per-call workspace.
    schedule_ws: Mutex<ScheduleWorkspace>,
}

impl Clone for Zac {
    fn clone(&self) -> Self {
        Self {
            arch: self.arch.clone(),
            config: self.config.clone(),
            schedule_ws: Mutex::new(ScheduleWorkspace::new()),
        }
    }
}

impl Zac {
    /// Creates a compiler with the default (full) configuration.
    pub fn new(arch: Architecture) -> Self {
        Self::with_config(arch, ZacConfig::default())
    }

    /// Creates a compiler with an explicit configuration.
    pub fn with_config(arch: Architecture, config: ZacConfig) -> Self {
        Self { arch, config, schedule_ws: Mutex::new(ScheduleWorkspace::new()) }
    }

    /// The target architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The configuration.
    pub fn config(&self) -> &ZacConfig {
        &self.config
    }

    /// Compiles an input circuit (preprocessing included).
    ///
    /// # Errors
    ///
    /// [`ZacError`] if placement or scheduling fails (e.g. the circuit does
    /// not fit the architecture).
    pub fn compile(&self, circuit: &Circuit) -> Result<ZacOutput, ZacError> {
        self.compile_staged(&preprocess(circuit))
    }

    /// Compiles an already-preprocessed circuit.
    ///
    /// Stages wider than the architecture's Rydberg site count are split
    /// automatically (the paper's Sec. VIII workload relies on this: 64-gate
    /// CNOT layers become 5 exposures on the 15-site logical architecture).
    ///
    /// # Errors
    ///
    /// [`ZacError`] if placement or scheduling fails.
    pub fn compile_staged(&self, staged: &StagedCircuit) -> Result<ZacOutput, ZacError> {
        let _span = zac_telemetry::span!("core.compile", &staged.name);
        zac_telemetry::metrics::CORE_COMPILES.incr();
        let start = Instant::now();
        let num_sites = self.arch.num_sites();
        let split;
        let staged = if staged.max_parallelism() > num_sites && num_sites > 0 {
            split = staged.with_max_stage_width(num_sites);
            &split
        } else {
            staged
        };
        let plan = {
            let _span = zac_telemetry::span!("core.place", &staged.name);
            plan_placement(&self.arch, staged, &self.config.placement)?
        };
        let place_time = start.elapsed();
        let schedule_start = Instant::now();
        let schedule_cfg = self.config.schedule_config();
        // Reuse the compiler's scheduler workspace; under lock contention
        // (parallel sweeps sharing one instance) fall back to a fresh one —
        // results are bit-identical either way.
        let program = {
            let _span = zac_telemetry::span!("core.schedule", &staged.name);
            match self.schedule_ws.try_lock() {
                Ok(mut ws) => {
                    schedule_with_workspace(&self.arch, staged, &plan, &schedule_cfg, &mut ws)
                }
                Err(_) => {
                    let mut ws = ScheduleWorkspace::new();
                    schedule_with_workspace(&self.arch, staged, &plan, &schedule_cfg, &mut ws)
                }
            }?
        };
        let schedule_time = schedule_start.elapsed();
        let compile_time = start.elapsed();
        let _span_analyze = zac_telemetry::span!("core.analyze", &staged.name);
        let analysis = program.analyze(&self.arch)?;
        let summary = ExecutionSummary::from_analysis(&staged.name, &analysis);
        let report = evaluate_neutral_atom(&summary, &self.config.params);
        Ok(ZacOutput { program, plan, summary, report, compile_time, place_time, schedule_time })
    }
}

impl crate::Compiler for Zac {
    fn name(&self) -> &str {
        "Zoned-ZAC"
    }

    fn config_tokens(&self, fp: &mut zac_circuit::Fingerprint) {
        crate::interface::write_arch_tokens(fp, &self.arch);
        let p = &self.config.placement;
        fp.write_bool(p.use_sa);
        fp.write_bool(p.dynamic);
        fp.write_bool(p.reuse);
        fp.write_usize(p.sa_iterations);
        fp.write_u64(p.seed);
        fp.write_usize(p.window_expansion);
        fp.write_usize(p.neighbor_k);
        fp.write_f64(p.lookahead_alpha);
        // Engine choice (and its window parameters) are part of the
        // compiler's identity: outputs differ across engines, so cached
        // artifacts must never be shared between them.
        p.engine.config_tokens(fp);
        crate::interface::write_params_tokens(fp, &self.config.params);
    }

    fn compile(&self, staged: &StagedCircuit) -> Result<crate::CompileOutput, crate::CompileError> {
        let out = self.compile_staged(staged).map_err(|e| match e {
            ZacError::Place(PlaceError::StorageFull { qubits, traps }) => {
                crate::CompileError::CircuitTooLarge { needed: qubits, available: traps }
            }
            ZacError::Place(PlaceError::Cancelled)
            | ZacError::Schedule(zac_schedule::ScheduleError::Cancelled) => {
                crate::CompileError::Cancelled
            }
            other => crate::CompileError::Failed(other.to_string()),
        })?;
        Ok(crate::CompileOutput::new(out.summary, out.report, out.compile_time, Some(out.program))
            .with_phases(out.place_time, out.schedule_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zac_circuit::bench_circuits;

    fn quick() -> ZacConfig {
        let mut c = ZacConfig::default();
        c.placement.sa_iterations = 200;
        c
    }

    #[test]
    fn compile_ghz_end_to_end() {
        let zac = Zac::with_config(Architecture::reference(), quick());
        let out = zac.compile(&bench_circuits::ghz(10)).unwrap();
        assert_eq!(out.summary.g2, 9);
        assert_eq!(out.summary.n_exc, 0);
        assert!(out.total_fidelity() > 0.0 && out.total_fidelity() < 1.0);
        assert!(out.compile_time.as_nanos() > 0);
    }

    #[test]
    fn ablation_configs_differ() {
        assert!(!ZacConfig::vanilla().placement.dynamic);
        assert!(!ZacConfig::vanilla().placement.reuse);
        assert!(ZacConfig::dyn_place().placement.dynamic);
        assert!(!ZacConfig::dyn_place().placement.reuse);
        assert!(ZacConfig::dyn_place_reuse().placement.reuse);
        assert!(ZacConfig::full().placement.use_sa);
    }

    #[test]
    fn reuse_improves_fidelity_on_sequential_circuit() {
        let arch = Architecture::reference();
        let mut with = quick();
        with.placement.use_sa = false;
        let mut without = with.clone();
        without.placement.reuse = false;

        let staged = preprocess(&bench_circuits::ghz(20));
        let f_with =
            Zac::with_config(arch.clone(), with).compile_staged(&staged).unwrap().total_fidelity();
        let f_without =
            Zac::with_config(arch, without).compile_staged(&staged).unwrap().total_fidelity();
        assert!(f_with > f_without, "reuse fidelity {f_with} should beat no-reuse {f_without}");
    }

    #[test]
    fn program_is_replayable_from_json() {
        let zac = Zac::with_config(Architecture::reference(), quick());
        let out = zac.compile(&bench_circuits::bv(8, 7)).unwrap();
        let json = out.program.to_json().expect("serialization succeeds");
        let back = Program::from_json(&json).unwrap();
        let analysis = back.analyze(zac.arch()).unwrap();
        assert_eq!(analysis.g2, out.summary.g2);
        assert_eq!(analysis.n_tran, out.summary.n_tran);
    }

    /// The windowed engine produces a valid end-to-end compilation and a
    /// distinct compiler fingerprint (so compile caches never mix engines).
    #[test]
    fn windowed_engine_compiles_and_fingerprints_separately() {
        use crate::Compiler;
        use zac_place::PlacementEngine;
        let mut exhaustive_cfg = quick();
        exhaustive_cfg.placement.engine = PlacementEngine::Exhaustive;
        let mut windowed_cfg = quick();
        windowed_cfg.placement.engine = PlacementEngine::windowed();
        let exhaustive = Zac::with_config(Architecture::reference(), exhaustive_cfg);
        let windowed = Zac::with_config(Architecture::reference(), windowed_cfg);
        assert_ne!(
            exhaustive.fingerprint(),
            windowed.fingerprint(),
            "engine choice must alter the compiler fingerprint"
        );
        let out = windowed.compile(&bench_circuits::ghz(10)).unwrap();
        assert_eq!(out.summary.g2, 9);
        assert_eq!(out.summary.n_exc, 0);
        assert!(out.total_fidelity() > 0.0 && out.total_fidelity() < 1.0);
    }

    #[test]
    fn compile_fails_gracefully_when_storage_too_small() {
        let arch = Architecture::arch1_small(); // 120 storage traps
        let zac = Zac::with_config(arch, quick());
        // 121 qubits cannot fit.
        let mut c = Circuit::new("big", 121);
        c.cz(0, 1);
        let err = zac.compile(&c).unwrap_err();
        assert!(matches!(err, ZacError::Place(PlaceError::StorageFull { .. })));
    }
}
