//! Reuse-aware placement for the ZAC compiler (paper Sec. V).
//!
//! Placement decides where every qubit sits at every moment of the schedule:
//!
//! * [`initial`] — initial storage placement: trivial row filling or the
//!   simulated-annealing optimizer minimizing the weighted Eq. 2 cost;
//! * [`cost`] — the movement-cost model (Eq. 1): √distance with same-row
//!   parallel bundling;
//! * [`dynamic`] — per-stage reuse matching, gate placement and non-reuse
//!   qubit return (Eq. 3), committing the better of the reuse / no-reuse
//!   solutions.
//!
//! The output [`PlacementPlan`] is a sequence of qubit-location snapshots;
//! `zac-schedule` turns consecutive snapshots into rearrangement jobs.
//!
//! # Example
//!
//! ```
//! use zac_arch::Architecture;
//! use zac_circuit::{bench_circuits, preprocess};
//! use zac_place::{plan_placement, PlacementConfig};
//!
//! let arch = Architecture::reference();
//! let staged = preprocess(&bench_circuits::ghz(8));
//! let plan = plan_placement(&arch, &staged, &PlacementConfig::default())?;
//! assert_eq!(plan.stages.len(), staged.num_stages());
//! assert!(plan.total_reused_qubits() > 0); // GHZ chains reuse heavily
//! # Ok::<(), zac_place::PlaceError>(())
//! ```

pub mod cost;
pub mod dynamic;
pub mod engine;
pub mod initial;

use std::fmt;

pub use dynamic::{plan_placement, PlacementPlan, StagePlan};
pub use engine::{PlacementEngine, WindowedPlacer};
pub use initial::{sa_initial_placement, trivial_initial_placement};

/// Configuration of the placement pipeline; the paper's ablation settings
/// (Fig. 11) map onto the three booleans (`use_sa`, `dynamic`, `reuse`).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementConfig {
    /// Use simulated annealing for initial placement ('SA').
    pub use_sa: bool,
    /// Use dynamic intermediate placement ('dynPlace'); otherwise qubits
    /// always return to their original trap.
    pub dynamic: bool,
    /// Enable qubit reuse ('reuse').
    pub reuse: bool,
    /// SA iteration budget (the paper uses 1000).
    pub sa_iterations: usize,
    /// RNG seed for SA (results are deterministic per seed).
    pub seed: u64,
    /// Initial candidate-window expansion δ for gate placement.
    pub window_expansion: usize,
    /// Neighborhood radius k for return-trap candidates.
    pub neighbor_k: usize,
    /// Lookahead weight α in the return cost (Eq. 3; the paper uses 0.1).
    pub lookahead_alpha: f64,
    /// Placement engine driving the per-stage candidate search (default
    /// [`PlacementEngine::Exhaustive`], the paper's search).
    pub engine: PlacementEngine,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        Self {
            use_sa: true,
            dynamic: true,
            reuse: true,
            sa_iterations: 1000,
            seed: 0x5AC,
            window_expansion: 2,
            neighbor_k: 2,
            lookahead_alpha: 0.1,
            engine: PlacementEngine::Exhaustive,
        }
    }
}

/// Errors from the placement pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// More qubits than storage traps.
    StorageFull {
        /// Qubit count.
        qubits: usize,
        /// Available storage traps.
        traps: usize,
    },
    /// A Rydberg stage has more gates than the architecture has sites.
    TooManyGates {
        /// Gates in the stage.
        gates: usize,
        /// Total Rydberg sites.
        sites: usize,
    },
    /// An internal invariant was violated (with description).
    Invalid(String),
    /// The deadline installed with [`zac_telemetry::cancel::install`]
    /// passed; the placement was abandoned cooperatively (no partial plan escapes).
    Cancelled,
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StorageFull { qubits, traps } => {
                write!(f, "{qubits} qubits exceed {traps} storage traps")
            }
            Self::TooManyGates { gates, sites } => {
                write!(f, "stage with {gates} gates exceeds {sites} Rydberg sites")
            }
            Self::Invalid(msg) => write!(f, "invalid placement: {msg}"),
            Self::Cancelled => write!(f, "placement cancelled"),
        }
    }
}

impl std::error::Error for PlaceError {}
