//! # zac — Reuse-Aware Compilation for Zoned Quantum Architectures
//!
//! Facade crate re-exporting the full ZAC reproduction workspace
//! (HPCA 2025, Lin/Tan/Cong). See the README for the architecture overview
//! and `DESIGN.md` for the per-experiment index.
//!
//! The typical entry point is [`zac_core::Zac`], either directly or through
//! the unified [`zac_core::Compiler`] trait all five compilers implement:
//!
//! ```
//! use zac::prelude::*;
//!
//! let arch = Architecture::reference();
//! let circuit = bench_circuits::ghz(5);
//! let zac = Zac::new(arch);
//!
//! // Rich ZAC-specific output: program, placement plan, report.
//! let out = zac.compile(&circuit)?;
//! assert!(out.total_fidelity() > 0.0);
//!
//! // Or through the trait, as the benchmark harness drives every backend.
//! let staged = zac::circuit::preprocess(&circuit);
//! let unified = Compiler::compile(&zac, &staged)?;
//! assert_eq!(unified.counts.g2, 4);
//! # Ok::<(), zac::Error>(())
//! ```

// The compiler pipeline crate is re-exported as `compiler` (not `core`) so
// a glob import of this facade never shadows the `core` primitive crate.
pub use zac_arch as arch;
pub use zac_baselines as baselines;
pub use zac_bench as bench;
pub use zac_cache as cache;
pub use zac_circuit as circuit;
pub use zac_core as compiler;
pub use zac_fidelity as fidelity;
pub use zac_ftqc as ftqc;
pub use zac_graph as graph;
pub use zac_place as place;
pub use zac_schedule as schedule;
pub use zac_serve as serve;
pub use zac_sim as sim;
pub use zac_telemetry as telemetry;
pub use zac_zair as zair;

/// Convenience error alias for examples and doctests.
pub type Error = Box<dyn std::error::Error>;

/// Commonly used items, re-exported in one place.
pub mod prelude {
    pub use zac_arch::Architecture;
    pub use zac_bench::corpus::{load_corpus, Corpus, CorpusEntry, LoadFailure};
    pub use zac_bench::{BatchRunner, CellFailure, ComparisonRow, RunOutcome};
    pub use zac_cache::{CacheKey, CacheStats, CompileCache};
    pub use zac_circuit::bench_circuits;
    pub use zac_circuit::{Circuit, Fingerprint};
    pub use zac_core::{
        CompileError, CompileOutput, Compiler, GateCounts, Labeled, PhaseTimings, Zac, ZacConfig,
        ZacOutput,
    };
    pub use zac_fidelity::{FidelityReport, NeutralAtomParams};
    pub use zac_place::{PlacementConfig, PlacementEngine, WindowedPlacer};
    pub use zac_schedule::ScheduleWorkspace;
    pub use zac_serve::{
        AdmissionLimits, CircuitEntry, EntryOutcome, RejectReason, Request, Response, Service,
        ServiceConfig,
    };
    pub use zac_telemetry::{MetricsSnapshot, SpanRecord};
    pub use zac_zair::Program;
}

// Compile every fenced Rust block in the README as a doctest (`cargo test
// --doc`), so the documented snippets — including the
// `CompileCache::get_or_compile` usage example — can never drift from the
// real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
