//! The unified compiler interface.
//!
//! Every compiler the evaluation compares — ZAC itself and the four
//! baselines in `zac-baselines` — implements [`Compiler`], so harness code
//! (`zac-bench`) drives `&[Box<dyn Compiler>]` without per-compiler
//! branches, and new backends plug in by implementing one trait.
//!
//! The exchange types are deliberately lowest-common-denominator:
//! [`CompileOutput`] carries the [`ExecutionSummary`] + [`FidelityReport`]
//! pair every compiler produces, the named [`GateCounts`], and — for
//! compilers that emit full ZAIR (ZAC) — the validated [`Program`].

use std::fmt;
use std::time::Duration;
use zac_arch::Architecture;
use zac_circuit::{Fingerprint, StagedCircuit};
use zac_fidelity::{ExecutionSummary, FidelityReport, NeutralAtomParams};
use zac_zair::Program;

/// The error counters of the paper's fidelity model, named. Replaces the
/// positional `(g1, g2, n_exc, n_tran)` tuples the harness used to pass
/// around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounts {
    /// Executed 1Q gates.
    pub g1: usize,
    /// Executed 2Q gates.
    pub g2: usize,
    /// Idle qubits excited by Rydberg exposures (`N_exc`).
    pub n_exc: usize,
    /// Atom transfers (`N_tran`).
    pub n_tran: usize,
}

impl From<&ExecutionSummary> for GateCounts {
    fn from(s: &ExecutionSummary) -> Self {
        Self { g1: s.g1, g2: s.g2, n_exc: s.n_exc, n_tran: s.n_tran }
    }
}

impl fmt::Display for GateCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g1={} g2={} N_exc={} N_tran={}", self.g1, self.g2, self.n_exc, self.n_tran)
    }
}

/// Per-phase compile-time breakdown for pipeline compilers: how the wall
/// clock splits between placement and scheduling. Only backends with that
/// pipeline shape (ZAC) report one; abstract-cost baselines leave
/// [`CompileOutput::phases`] as `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Placement phase (initial + per-stage placement).
    pub place: Duration,
    /// Scheduling phase (placement plan → timed ZAIR program).
    pub schedule: Duration,
}

/// Output of one [`Compiler::compile`] call: the common evaluation payload,
/// plus the full ZAIR program when the backend produces one.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// Execution summary (timing + counters).
    pub summary: ExecutionSummary,
    /// Fidelity report under the compiler's hardware model.
    pub report: FidelityReport,
    /// Named gate/error counters (derived from `summary`).
    pub counts: GateCounts,
    /// Wall-clock compilation time.
    ///
    /// For cache hits this is the *original* compile time recorded when the
    /// entry was produced, never the (microsecond-scale) lookup time —
    /// figure timing series must not be polluted by cache bookkeeping.
    pub compile_time: Duration,
    /// The compiled ZAIR program, for backends that emit one (ZAC does;
    /// the abstract-cost baselines do not).
    pub program: Option<Program>,
    /// Whether this output was served from a compilation cache rather than
    /// freshly compiled. Always `false` from a bare compiler; set by
    /// `zac-cache`'s `CompileCache::get` (hence `get_or_compile`) on hits.
    pub from_cache: bool,
    /// Per-phase (place vs. schedule) timing breakdown, when the backend
    /// has that pipeline shape. Like [`compile_time`](Self::compile_time),
    /// cache hits carry the *original* phase split.
    pub phases: Option<PhaseTimings>,
}

impl CompileOutput {
    /// Assembles an output, deriving [`GateCounts`] from the summary.
    pub fn new(
        summary: ExecutionSummary,
        report: FidelityReport,
        compile_time: Duration,
        program: Option<Program>,
    ) -> Self {
        let counts = GateCounts::from(&summary);
        Self { summary, report, counts, compile_time, program, from_cache: false, phases: None }
    }

    /// Attaches a per-phase timing breakdown.
    #[must_use]
    pub fn with_phases(mut self, place: Duration, schedule: Duration) -> Self {
        self.phases = Some(PhaseTimings { place, schedule });
        self
    }

    /// Total circuit fidelity.
    pub fn total_fidelity(&self) -> f64 {
        self.report.total()
    }
}

/// Why a compiler could not handle a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The circuit does not fit the compiler's target hardware.
    CircuitTooLarge {
        /// Qubits (or storage traps) the circuit needs.
        needed: usize,
        /// What the target provides.
        available: usize,
    },
    /// Any other pipeline failure, with the backend's own message.
    Failed(String),
    /// The compile was cancelled cooperatively (a deadline installed with
    /// [`zac_telemetry::cancel::install`] passed mid-pipeline). Not a property
    /// of the circuit: retrying with a longer budget may succeed.
    Cancelled,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CircuitTooLarge { needed, available } => {
                write!(f, "circuit needs {needed} qubits, target fits {available}")
            }
            Self::Failed(msg) => write!(f, "compilation failed: {msg}"),
            Self::Cancelled => write!(f, "compilation cancelled"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Folds an [`Architecture`]'s identity into a fingerprint: its name plus
/// the full zone/SLM/AOD geometry, so two architectures that differ in any
/// structural respect never share a digest even if their names collide.
pub fn write_arch_tokens(fp: &mut Fingerprint, arch: &Architecture) {
    fp.write_str(arch.name());
    fp.write_usize(arch.aods().len());
    for aod in arch.aods() {
        fp.write_usize(aod.aod_id);
        fp.write_f64(aod.min_sep);
        fp.write_usize(aod.max_num_col);
        fp.write_usize(aod.max_num_row);
    }
    for zones in [arch.storage_zones(), arch.entanglement_zones(), arch.readout_zones()] {
        fp.write_usize(zones.len());
        for zone in zones {
            fp.write_usize(zone.zone_id);
            fp.write_f64(zone.offset.x);
            fp.write_f64(zone.offset.y);
            fp.write_f64(zone.dimension.0);
            fp.write_f64(zone.dimension.1);
            fp.write_usize(zone.slms.len());
            for slm in &zone.slms {
                fp.write_usize(slm.slm_id);
                fp.write_f64(slm.sep.0);
                fp.write_f64(slm.sep.1);
                fp.write_usize(slm.num_col);
                fp.write_usize(slm.num_row);
                fp.write_f64(slm.offset.x);
                fp.write_f64(slm.offset.y);
            }
        }
    }
}

/// Folds a [`NeutralAtomParams`] set into a fingerprint (all eight hardware
/// parameters, in declaration order).
pub fn write_params_tokens(fp: &mut Fingerprint, p: &NeutralAtomParams) {
    for v in [p.f_2q, p.f_1q, p.f_exc, p.f_tran, p.t_2q_us, p.t_1q_us, p.t_tran_us, p.t2_us] {
        fp.write_f64(v);
    }
}

/// A circuit compiler targeting some architecture, with its configuration
/// baked into the value. `Send + Sync` so compiler sets can be driven from
/// rayon sweeps.
pub trait Compiler: Send + Sync {
    /// The compiler's display name (the paper's legend label, e.g.
    /// `"Zoned-ZAC"` or `"SC-Heron"`).
    fn name(&self) -> &str;

    /// Compiles a preprocessed circuit.
    ///
    /// # Errors
    ///
    /// [`CompileError`] when the circuit cannot be handled (most commonly
    /// [`CompileError::CircuitTooLarge`]).
    fn compile(&self, staged: &StagedCircuit) -> Result<CompileOutput, CompileError>;

    /// Folds everything that determines this compiler's *output* — target
    /// architecture and configuration — into `fp`.
    ///
    /// The default writes nothing, which is only correct for compilers with
    /// no configurable state. Every implementor carrying a config **must**
    /// override this so that two differently-configured instances never
    /// share a [`fingerprint`](Compiler::fingerprint) (a shared fingerprint
    /// means a compilation cache may serve one config's output for the
    /// other). Wrappers should forward to their inner compiler.
    fn config_tokens(&self, fp: &mut Fingerprint) {
        let _ = fp;
    }

    /// A stable 64-bit identity fingerprint: FNV-1a over the compiler's
    /// [`name`](Compiler::name) and [`config_tokens`](Compiler::config_tokens).
    ///
    /// Because every compiler in this workspace is deterministic given its
    /// configuration (asserted in `tests/compiler_trait.rs`), the pair
    /// *(circuit fingerprint, compiler fingerprint)* fully determines the
    /// compile output — the contract `zac-cache` builds on.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str(self.name());
        self.config_tokens(&mut fp);
        fp.finish()
    }
}

/// Wraps a compiler under a different display name — e.g. the four ZAC
/// ablation arms of Fig. 12, which are all [`crate::Zac`] instances with
/// different configs but need distinct legend labels.
#[derive(Debug, Clone)]
pub struct Labeled<C> {
    label: String,
    inner: C,
}

impl<C: Compiler> Labeled<C> {
    /// Wraps `inner` under `label`.
    pub fn new(label: impl Into<String>, inner: C) -> Self {
        Self { label: label.into(), inner }
    }
}

impl<C: Compiler> Compiler for Labeled<C> {
    fn name(&self) -> &str {
        &self.label
    }

    fn compile(&self, staged: &StagedCircuit) -> Result<CompileOutput, CompileError> {
        self.inner.compile(staged)
    }

    // The label participates via the default `fingerprint` (it uses
    // `self.name()`); the inner compiler's *own* name must be folded in
    // explicitly — without it, two different compiler types whose config
    // tokens happen to coincide (e.g. Enola and Atomique, both hashing
    // rows/cols/params) would share a fingerprint under one label and
    // poison a shared cache.
    fn config_tokens(&self, fp: &mut Fingerprint) {
        fp.write_str(self.inner.name());
        self.inner.config_tokens(fp);
    }
}

impl<C: Compiler + ?Sized> Compiler for Box<C> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn compile(&self, staged: &StagedCircuit) -> Result<CompileOutput, CompileError> {
        (**self).compile(staged)
    }

    fn config_tokens(&self, fp: &mut Fingerprint) {
        (**self).config_tokens(fp);
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> ExecutionSummary {
        ExecutionSummary {
            name: "demo".into(),
            num_qubits: 2,
            duration_us: 100.0,
            g1: 3,
            g2: 2,
            n_exc: 1,
            n_tran: 4,
            idle_us: vec![50.0, 60.0],
        }
    }

    #[test]
    fn counts_derive_from_summary() {
        let c = GateCounts::from(&summary());
        assert_eq!(c, GateCounts { g1: 3, g2: 2, n_exc: 1, n_tran: 4 });
        assert_eq!(c.to_string(), "g1=3 g2=2 N_exc=1 N_tran=4");
    }

    #[test]
    fn output_assembles_counts() {
        let s = summary();
        let report =
            zac_fidelity::evaluate_neutral_atom(&s, &zac_fidelity::NeutralAtomParams::reference());
        let out = CompileOutput::new(s, report, Duration::from_millis(1), None);
        assert_eq!(out.counts.g2, 2);
        assert!(out.total_fidelity() > 0.0 && out.total_fidelity() < 1.0);
        assert!(out.program.is_none());
    }

    #[test]
    fn error_display() {
        let e = CompileError::CircuitTooLarge { needed: 121, available: 100 };
        assert!(e.to_string().contains("121"));
        assert!(CompileError::Failed("x".into()).to_string().contains("x"));
    }

    #[test]
    fn new_outputs_are_not_from_cache() {
        let s = summary();
        let report =
            zac_fidelity::evaluate_neutral_atom(&s, &zac_fidelity::NeutralAtomParams::reference());
        let out = CompileOutput::new(s, report, Duration::from_millis(1), None);
        assert!(!out.from_cache);
    }

    #[test]
    fn fingerprint_separates_arch_config_and_label() {
        use crate::{Zac, ZacConfig};
        let reference = Zac::new(Architecture::reference());
        assert_eq!(reference.fingerprint(), Zac::new(Architecture::reference()).fingerprint());
        // Different architecture.
        let small = Zac::new(Architecture::arch1_small());
        assert_ne!(reference.fingerprint(), small.fingerprint());
        // Different config on the same architecture.
        let vanilla = Zac::with_config(Architecture::reference(), ZacConfig::vanilla());
        assert_ne!(reference.fingerprint(), vanilla.fingerprint());
        let mut seeded = ZacConfig::full();
        seeded.placement.seed ^= 1;
        let reseeded = Zac::with_config(Architecture::reference(), seeded);
        assert_ne!(reference.fingerprint(), reseeded.fingerprint());
        // A label changes the fingerprint; the inner config still counts.
        let labeled = Labeled::new("ZAC-full", Zac::new(Architecture::reference()));
        assert_ne!(labeled.fingerprint(), reference.fingerprint());
        let labeled_vanilla = Labeled::new(
            "ZAC-full",
            Zac::with_config(Architecture::reference(), ZacConfig::vanilla()),
        );
        assert_ne!(labeled.fingerprint(), labeled_vanilla.fingerprint());
        // Boxing is transparent.
        let boxed: Box<dyn Compiler> = Box::new(Zac::new(Architecture::reference()));
        assert_eq!(boxed.fingerprint(), reference.fingerprint());
    }

    #[test]
    fn labeled_keeps_distinct_compiler_types_distinct() {
        // Two compiler types whose config tokens coincide byte-for-byte:
        // only the inner *name* separates them under a shared label.
        struct A;
        struct B;
        impl Compiler for A {
            fn name(&self) -> &str {
                "TypeA"
            }
            fn config_tokens(&self, fp: &mut Fingerprint) {
                fp.write_usize(10);
            }
            fn compile(&self, _: &StagedCircuit) -> Result<CompileOutput, CompileError> {
                Err(CompileError::Failed("stub".into()))
            }
        }
        impl Compiler for B {
            fn name(&self) -> &str {
                "TypeB"
            }
            fn config_tokens(&self, fp: &mut Fingerprint) {
                fp.write_usize(10);
            }
            fn compile(&self, _: &StagedCircuit) -> Result<CompileOutput, CompileError> {
                Err(CompileError::Failed("stub".into()))
            }
        }
        let a = Labeled::new("arm", A);
        let b = Labeled::new("arm", B);
        assert_ne!(a.fingerprint(), b.fingerprint(), "label must not erase the inner identity");
    }
}
