//! Placement engines.
//!
//! [`PlacementEngine`], stored in [`PlacementConfig::engine`], selects the
//! per-stage search strategy:
//!
//! * [`PlacementEngine::Exhaustive`] — the paper's search, unchanged: gate
//!   candidates come from the δ-expanded neighborhood Ω_near grown only on
//!   infeasibility, and Eq. 3 return candidates are the full bounding box
//!   over the anchor traps. Its output is locked by the scheduler golden
//!   digests.
//! * [`PlacementEngine::Windowed`] — a windowed search in the spirit of the
//!   TUM routing-aware placement line of work: on large matchings both
//!   candidate pools are capped to geometry windows around the moving
//!   qubits, sized by [`WindowedPlacer::window_min_width`] /
//!   [`WindowedPlacer::window_ratio`]. The window grows (and the matching
//!   re-solves) only when the assignment is infeasible or its cost exceeds
//!   the [`WindowedPlacer::quality_factor`] guard; the SA initial placement
//!   early-stops after [`WindowedPlacer::sa_patience`] non-improving
//!   iterations. Together these trade bounded quality loss for a large
//!   compile-time win on big circuits.
//!
//! Engine choice is part of a compiler's identity:
//! [`PlacementEngine::config_tokens`] folds it into `Compiler::fingerprint()`,
//! so cached artifacts produced by different engines can never be confused.

use crate::dynamic::{plan_with_window, PlacementPlan};
use crate::{PlaceError, PlacementConfig};
use zac_arch::Architecture;
use zac_circuit::{Fingerprint, StagedCircuit};

/// Windowed candidate search: caps both the gate-placement site pool and the
/// Eq. 3 return-trap pool to geometry windows around the qubits being moved,
/// and early-stops the SA initial placement once it stops improving.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedPlacer {
    /// Half-height of a candidate window in grid rows (also the gate
    /// window's Chebyshev half-width in the site grid).
    pub window_min_width: usize,
    /// Height/width aspect of the return window: the half-width in columns
    /// is `window_min_width / window_ratio`. Storage rows run parallel to
    /// the entanglement zone, so a wide, flat window tracks the cheap
    /// (same-row) direction of the movement-cost model.
    pub window_ratio: f64,
    /// Quality guard: the window grows and the matching re-solves when the
    /// solved cost exceeds `quality_factor ×` the matching's lower bound
    /// (the sum of each mover's cheapest in-window candidate).
    pub quality_factor: f64,
    /// SA early-stop: end the anneal after this many consecutive
    /// non-improving iterations (0 disables the early stop).
    pub sa_patience: usize,
}

impl Default for WindowedPlacer {
    fn default() -> Self {
        Self { window_min_width: 1, window_ratio: 0.5, quality_factor: 1.5, sa_patience: 12 }
    }
}

impl WindowedPlacer {
    /// Return-window half-extent as (rows, cols) for a given half-height:
    /// columns are widened by the aspect ratio (`window_ratio` ≤ 1 widens).
    pub(crate) fn half_extent(&self, half_rows: usize) -> (usize, usize) {
        let rows = half_rows.max(1);
        let cols = if self.window_ratio > 0.0 {
            ((rows as f64 / self.window_ratio).ceil() as usize).max(rows)
        } else {
            rows
        };
        (rows, cols)
    }

    /// Whether `cost` violates the quality guard against `lower_bound`.
    pub(crate) fn violates_guard(&self, cost: f64, lower_bound: f64) -> bool {
        cost > self.quality_factor * lower_bound + 1e-9
    }
}

/// Engine selection, stored in [`PlacementConfig::engine`].
#[derive(Debug, Clone, Default, PartialEq)]
pub enum PlacementEngine {
    /// The paper's exhaustive search (default; bit-identity locked).
    #[default]
    Exhaustive,
    /// Windowed candidate search with the given parameters.
    Windowed(WindowedPlacer),
}

impl PlacementEngine {
    /// The windowed engine with default parameters.
    pub fn windowed() -> Self {
        Self::Windowed(WindowedPlacer::default())
    }

    /// Engine name (used in labels and diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Exhaustive => "exhaustive",
            Self::Windowed(_) => "windowed",
        }
    }

    /// Plans placement for the whole circuit with this engine.
    ///
    /// # Errors
    ///
    /// [`PlaceError`] if the circuit does not fit the architecture.
    pub fn plan(
        &self,
        arch: &Architecture,
        staged: &StagedCircuit,
        cfg: &PlacementConfig,
    ) -> Result<PlacementPlan, PlaceError> {
        match self {
            Self::Exhaustive => plan_with_window(arch, staged, cfg, None),
            Self::Windowed(w) => plan_with_window(arch, staged, cfg, Some(w)),
        }
    }

    /// Folds the engine choice and every behavior-affecting parameter into
    /// `fp`, so compilation caches keyed by fingerprint stay sound.
    pub fn config_tokens(&self, fp: &mut Fingerprint) {
        match self {
            Self::Exhaustive => fp.write_str("placer/exhaustive"),
            Self::Windowed(w) => {
                fp.write_str("placer/windowed");
                fp.write_usize(w.window_min_width);
                fp.write_f64(w.window_ratio);
                fp.write_f64(w.quality_factor);
                fp.write_usize(w.sa_patience);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(engine: &PlacementEngine) -> u64 {
        let mut fp = Fingerprint::new();
        engine.config_tokens(&mut fp);
        fp.finish()
    }

    #[test]
    fn engine_tokens_separate_engines_and_parameters() {
        let exhaustive = tokens(&PlacementEngine::Exhaustive);
        let windowed = tokens(&PlacementEngine::windowed());
        assert_ne!(exhaustive, windowed, "engines must fingerprint differently");

        let wide = tokens(&PlacementEngine::Windowed(WindowedPlacer {
            window_min_width: 5,
            ..WindowedPlacer::default()
        }));
        assert_ne!(windowed, wide, "window parameters are part of the identity");
    }

    #[test]
    fn window_extent_follows_the_aspect_ratio() {
        let w = |window_ratio| WindowedPlacer { window_ratio, ..WindowedPlacer::default() };
        // Default ratio 0.5 doubles the column half-width.
        let p = WindowedPlacer::default();
        assert_eq!(p.half_extent(2), (2, 4));
        assert_eq!(p.half_extent(8), (8, 16));
        // Ratio 1.0 keeps the window square; the ratio never shrinks it.
        assert_eq!(w(1.0).half_extent(3), (3, 3));
        assert_eq!(w(4.0).half_extent(3), (3, 3));
        // Degenerate parameters still yield a usable window.
        assert_eq!(w(0.0).half_extent(0), (1, 1));
    }

    #[test]
    fn quality_guard_tolerates_the_configured_factor() {
        let p = WindowedPlacer::default();
        assert!(!p.violates_guard(1.5, 1.0));
        assert!(p.violates_guard(1.6, 1.0));
        assert!(!p.violates_guard(0.0, 0.0));
    }
}
