//! Initial qubit placement: trivial row-filling and simulated annealing
//! (paper Sec. V-A).
//!
//! The SA inner loop is *incremental*: a per-qubit gate-adjacency index and a
//! per-gate cached cost term turn each move evaluation from O(|G|) into
//! O(deg(q) + deg(q′)) — see [`IncrementalCost`]. The accept/reject RNG
//! stream is identical to a cache-free implementation that recomputes the
//! affected gates from scratch each move, so placements are bit-identical
//! for a fixed seed (locked by the regression tests below). The move delta
//! is the *exact* sum over affected gates — in particular, cost-neutral
//! moves see delta = 0 exactly, where a whole-sum recompute would see
//! ±1 ulp of summation noise.

#[cfg(test)]
use crate::cost::initial_placement_cost;
use crate::cost::{gate_term, stage_weight};
use crate::PlaceError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zac_arch::{Architecture, GeomCache, Geometry, Loc, Point};
use zac_circuit::{Gate2, StagedCircuit};

/// All storage traps ordered by proximity to the entanglement zones: rows
/// closest to a zone first, then columns left to right. This is the fill
/// order the paper's trivial ("Vanilla") placement uses.
pub fn storage_traps_by_proximity(arch: &Architecture) -> Vec<Loc> {
    // The sort key (row-to-zone distance, then Loc order) is constant along
    // a row, so sorting whole rows and emitting their columns in order gives
    // the same trap sequence as sorting every trap individually — at a tiny
    // fraction of the comparisons (this runs inside every SA call).
    let mut row_keys: Vec<(f64, usize, usize)> = Vec::new();
    for (z, _zone) in arch.storage_zones().iter().enumerate() {
        let (rows, _cols) = arch.storage_grid(z);
        for row in 0..rows {
            // Distance from this row to the nearest entanglement zone, taken
            // at the row's left edge (x plays no role row-to-row).
            let probe = arch.position(Loc::Storage { zone: z, row, col: 0 });
            let d = arch
                .entanglement_zones()
                .iter()
                .enumerate()
                .map(|(ez, _)| {
                    let (srows, _) = arch.site_grid(ez);
                    (0..srows)
                        .map(|r| {
                            arch.site_position(zac_arch::SiteId::new(ez, r, 0)).y.max(probe.y)
                                - arch.site_position(zac_arch::SiteId::new(ez, r, 0)).y.min(probe.y)
                        })
                        .fold(f64::INFINITY, f64::min)
                })
                .fold(f64::INFINITY, f64::min);
            row_keys.push((d, z, row));
        }
    }
    row_keys.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| (a.1, a.2).cmp(&(b.1, b.2))));
    let mut traps = Vec::new();
    for (_, z, row) in row_keys {
        let (_, cols) = arch.storage_grid(z);
        for col in 0..cols {
            traps.push(Loc::Storage { zone: z, row, col });
        }
    }
    traps
}

/// Row-filling over an already-ordered trap list (the shared core of
/// [`trivial_initial_placement`] and the SA seed, so the proximity ordering
/// is computed once per placement run).
fn trivial_from_traps(traps: &[Loc], num_qubits: usize) -> Result<Vec<Loc>, PlaceError> {
    if num_qubits > traps.len() {
        return Err(PlaceError::StorageFull { qubits: num_qubits, traps: traps.len() });
    }
    Ok(traps[..num_qubits].to_vec())
}

/// Trivial initial placement: qubits in index order filling the storage rows
/// nearest to the entanglement zone.
///
/// # Errors
///
/// [`PlaceError::StorageFull`] if the circuit has more qubits than storage
/// traps.
pub fn trivial_initial_placement(
    arch: &Architecture,
    num_qubits: usize,
) -> Result<Vec<Loc>, PlaceError> {
    trivial_from_traps(&storage_traps_by_proximity(arch), num_qubits)
}

/// Incremental evaluator of the weighted Eq. 2 placement cost.
///
/// Caches one cost term per gate (summing them in gate order reproduces
/// [`initial_placement_cost`] exactly) plus a qubit → gates adjacency index.
/// A proposed move touching qubits `S` re-evaluates only the gates adjacent
/// to `S`; the cached terms are updated on commit and untouched on reject.
/// `total` is re-summed from the cached terms every
/// [`IncrementalCost::RESUM_INTERVAL`] commits to bound float drift from the
/// running accumulation.
pub(crate) struct IncrementalCost<'a> {
    geom: &'a GeomCache,
    gates: &'a [(usize, Gate2)],
    /// Gate indices adjacent to each qubit.
    adj: Vec<Vec<u32>>,
    /// Per-gate stage weights (`stage_weight` evaluated once).
    weights: Vec<f64>,
    /// Cached per-gate weighted cost terms.
    terms: Vec<f64>,
    /// Cached per-qubit physical positions (mirrors the caller's placement).
    qpos: Vec<Point>,
    total: f64,
    /// Scratch: gates affected by the pending proposal + their new terms.
    touched: Vec<u32>,
    new_terms: Vec<f64>,
    /// Scratch: moved qubits' previous positions, for rollback on reject.
    saved_pos: Vec<(usize, Point)>,
    /// Per-gate dedupe stamps (a gate adjacent to both moved qubits must be
    /// re-evaluated once, not twice).
    stamp: Vec<u32>,
    generation: u32,
    commits_since_resum: usize,
    /// Full re-summations performed so far (telemetry: drained into
    /// `place.sa.cost_resyncs` by the caller).
    resyncs: u64,
}

impl<'a> IncrementalCost<'a> {
    /// Commits between full re-sums of `total` (drift bound).
    const RESUM_INTERVAL: usize = 64;

    pub(crate) fn new(
        geom: &'a GeomCache,
        gates: &'a [(usize, Gate2)],
        num_qubits: usize,
        placement: &[Loc],
    ) -> Self {
        let mut adj = vec![Vec::new(); num_qubits];
        for (gi, &(_, g)) in gates.iter().enumerate() {
            adj[g.a].push(gi as u32);
            adj[g.b].push(gi as u32);
        }
        let weights: Vec<f64> = gates.iter().map(|&(stage, _)| stage_weight(stage)).collect();
        let qpos: Vec<Point> = placement.iter().map(|&l| geom.position(l)).collect();
        let terms: Vec<f64> =
            gates.iter().map(|&(stage, g)| gate_term(geom, placement, stage, g)).collect();
        let total = terms.iter().sum();
        Self {
            geom,
            gates,
            adj,
            weights,
            terms,
            qpos,
            total,
            touched: Vec::new(),
            new_terms: Vec::new(),
            saved_pos: Vec::new(),
            stamp: vec![0; gates.len()],
            generation: 0,
            commits_since_resum: 0,
            resyncs: 0,
        }
    }

    /// Number of drift-bounding full re-sums performed so far.
    pub(crate) fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// The current total cost (equals a fresh [`initial_placement_cost`] up
    /// to bounded accumulation rounding).
    pub(crate) fn total(&self) -> f64 {
        self.total
    }

    /// One gate's term off the cached qubit positions — bit-identical to
    /// [`gate_term`]: the cached positions are exactly `geom.position(loc)`
    /// and the cached weight is exactly `stage_weight(stage)`.
    #[inline]
    fn term_of(&self, gi: usize) -> f64 {
        let (_, g) = self.gates[gi];
        let (pa, pb) = (self.qpos[g.a], self.qpos[g.b]);
        let site = crate::cost::nearest_gate_site(self.geom, pa, pb);
        self.weights[gi] * crate::cost::gate_cost(self.geom, pa, pb, site)
    }

    /// Evaluates a proposal: `placement` must already reflect the move, and
    /// `moved` lists the qubits whose locations changed. Returns the cost
    /// delta over the affected gates only. Follow with
    /// [`IncrementalCost::commit`] to keep it or
    /// [`IncrementalCost::reject`] to discard it (reverting `placement` is
    /// the caller's job either way).
    pub(crate) fn propose(&mut self, placement: &[Loc], moved: &[usize]) -> f64 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: reset to 0 (generations restart at 1 and
            // never take the value 0, so no collision is possible).
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 1;
        }
        self.touched.clear();
        self.new_terms.clear();
        self.saved_pos.clear();
        for &q in moved {
            self.saved_pos.push((q, self.qpos[q]));
            self.qpos[q] = self.geom.position(placement[q]);
        }
        let mut delta = 0.0;
        for &q in moved {
            for &gi in &self.adj[q] {
                let gi_us = gi as usize;
                if self.stamp[gi_us] == self.generation {
                    continue;
                }
                self.stamp[gi_us] = self.generation;
                let t = self.term_of(gi_us);
                self.touched.push(gi);
                self.new_terms.push(t);
                delta += t - self.terms[gi_us];
            }
        }
        delta
    }

    /// Accepts the pending proposal: installs the re-evaluated terms and
    /// advances the running total by `delta` (as returned by the matching
    /// [`IncrementalCost::propose`]).
    pub(crate) fn commit(&mut self, delta: f64) {
        for (&gi, &t) in self.touched.iter().zip(&self.new_terms) {
            self.terms[gi as usize] = t;
        }
        self.total += delta;
        self.commits_since_resum += 1;
        if self.commits_since_resum >= Self::RESUM_INTERVAL {
            self.total = self.terms.iter().sum();
            self.commits_since_resum = 0;
            self.resyncs += 1;
        }
    }

    /// Discards the pending proposal, restoring the cached qubit positions.
    pub(crate) fn reject(&mut self) {
        for &(q, p) in self.saved_pos.iter().rev() {
            self.qpos[q] = p;
        }
        self.saved_pos.clear();
    }
}

/// Simulated-annealing initial placement (paper Sec. V-A).
///
/// Minimizes the weighted Eq. 2 cost with qubit-swap and move-to-empty-trap
/// neighborhood moves over `iterations` steps (the paper uses 1000), with a
/// geometric temperature schedule. Deterministic for a fixed `seed`.
///
/// Each move is evaluated incrementally over the ≤ deg(q) + deg(q′) affected
/// gates (see [`IncrementalCost`]) instead of re-summing all |G| terms, with
/// positions served from a [`GeomCache`]; the RNG stream and the resulting
/// placement are bit-identical to a cache-free implementation with the same
/// affected-gate delta semantics (see `sa_reference` in the tests).
///
/// # Errors
///
/// [`PlaceError::StorageFull`] if the circuit does not fit in storage.
pub fn sa_initial_placement(
    arch: &Architecture,
    staged: &StagedCircuit,
    iterations: usize,
    seed: u64,
) -> Result<Vec<Loc>, PlaceError> {
    sa_anneal(arch, staged, iterations, seed, None)
}

/// [`sa_initial_placement`] with an early-stop guard: the anneal ends once
/// `patience` consecutive iterations fail to improve the best placement
/// found. The temperature schedule is unchanged (it is derived from the full
/// `iterations` budget), and the accept/reject decision stream is identical
/// to the full run up to the stopping point — the truncation only skips the
/// cold tail where improvements have dried up. Used by the windowed
/// placement engine ("search smarter"); the exhaustive engine always runs
/// the full budget.
///
/// # Errors
///
/// [`PlaceError::StorageFull`] if the circuit does not fit in storage.
pub fn sa_initial_placement_early_stop(
    arch: &Architecture,
    staged: &StagedCircuit,
    iterations: usize,
    seed: u64,
    patience: usize,
) -> Result<Vec<Loc>, PlaceError> {
    sa_anneal(arch, staged, iterations, seed, (patience > 0).then_some(patience))
}

/// The SA initial placement selected by `cfg.engine`: the exhaustive engine
/// runs the full iteration budget; the windowed engine applies its
/// `sa_patience` early stop.
pub(crate) fn sa_for_engine(
    arch: &Architecture,
    staged: &StagedCircuit,
    cfg: &crate::PlacementConfig,
) -> Result<Vec<Loc>, PlaceError> {
    match &cfg.engine {
        crate::PlacementEngine::Exhaustive => {
            sa_initial_placement(arch, staged, cfg.sa_iterations, cfg.seed)
        }
        crate::PlacementEngine::Windowed(w) => sa_initial_placement_early_stop(
            arch,
            staged,
            cfg.sa_iterations.min(350),
            cfg.seed,
            w.sa_patience,
        ),
    }
}

fn sa_anneal(
    arch: &Architecture,
    staged: &StagedCircuit,
    iterations: usize,
    seed: u64,
    patience: Option<usize>,
) -> Result<Vec<Loc>, PlaceError> {
    let _span = zac_telemetry::span!("place.sa_anneal", &staged.name);
    let n = staged.num_qubits;
    // One proximity-ordered trap scan serves both the trivial seed placement
    // and the jump-target pool.
    let all_traps = storage_traps_by_proximity(arch);
    let mut placement = trivial_from_traps(&all_traps, n)?;
    if n < 2 {
        return Ok(placement);
    }

    let gates: Vec<(usize, Gate2)> = staged.gates_with_stage().map(|(t, g)| (t, *g)).collect();
    if gates.is_empty() {
        return Ok(placement);
    }

    // Candidate empty traps: the nearest few rows beyond the occupied ones.
    let pool_len = (n * 4).min(all_traps.len());
    let pool: &[Loc] = &all_traps[..pool_len];
    let mut occupied: std::collections::HashSet<Loc> = placement.iter().copied().collect();

    let geom = GeomCache::new(arch);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inc = IncrementalCost::new(&geom, &gates, n, &placement);
    let mut cost = inc.total();
    let mut best = placement.clone();
    let mut best_cost = cost;

    let t0 = (cost / gates.len() as f64).max(1.0);
    let t_end = 1e-3;
    let alpha = (t_end / t0).powf(1.0 / iterations.max(1) as f64);
    let mut temp = t0;
    let mut since_best = 0usize;
    // Telemetry is batched in locals and flushed once after the loop: the
    // anneal body stays free of atomics even when recording.
    let (mut accepted, mut rejected) = (0u64, 0u64);

    for i in 0..iterations {
        // Cooperative cancellation, polled before any RNG draw so the
        // random stream (and thus bit-identity) is untouched on the
        // uncancelled path.
        if i & 63 == 0 && zac_telemetry::cancel::cancelled() {
            return Err(PlaceError::Cancelled);
        }
        if patience.is_some_and(|p| since_best >= p) {
            break;
        }
        since_best += 1;
        let q = rng.gen_range(0..n);
        let old_loc = placement[q];
        enum MoveKind {
            Swap(usize),
            Jump(Loc),
        }
        let kind = if rng.gen_bool(0.5) {
            let mut other = rng.gen_range(0..n);
            if other == q {
                other = (other + 1) % n;
            }
            MoveKind::Swap(other)
        } else {
            let target = pool[rng.gen_range(0..pool.len())];
            if occupied.contains(&target) {
                temp *= alpha;
                continue;
            }
            MoveKind::Jump(target)
        };

        let delta = match kind {
            MoveKind::Swap(other) => {
                placement.swap(q, other);
                inc.propose(&placement, &[q, other])
            }
            MoveKind::Jump(target) => {
                placement[q] = target;
                inc.propose(&placement, &[q])
            }
        };
        if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
            // Accept.
            accepted += 1;
            inc.commit(delta);
            match kind {
                MoveKind::Jump(target) => {
                    occupied.remove(&old_loc);
                    occupied.insert(target);
                }
                MoveKind::Swap(_) => {}
            }
            cost = inc.total();
            if cost < best_cost {
                best_cost = cost;
                best.clone_from(&placement);
                since_best = 0;
            }
        } else {
            // Revert.
            rejected += 1;
            inc.reject();
            match kind {
                MoveKind::Swap(other) => {
                    placement.swap(q, other);
                }
                MoveKind::Jump(_) => {
                    placement[q] = old_loc;
                }
            }
        }
        temp *= alpha;
    }

    zac_telemetry::metrics::PLACE_SA_ACCEPTED.add(accepted);
    zac_telemetry::metrics::PLACE_SA_REJECTED.add(rejected);
    zac_telemetry::metrics::PLACE_SA_RESYNCS.add(inc.resyncs());

    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zac_circuit::{bench_circuits, preprocess};

    fn arch() -> Architecture {
        Architecture::reference()
    }

    fn assert_distinct(placement: &[Loc]) {
        let set: std::collections::HashSet<_> = placement.iter().collect();
        assert_eq!(set.len(), placement.len(), "duplicate traps in placement");
    }

    /// Cache-free reference SA with the same decision semantics as
    /// [`sa_initial_placement`]: every affected gate term — old and new — is
    /// recomputed from scratch off the `Architecture` on every move (no
    /// `GeomCache`, no cached terms), and the periodic drift re-sum is a
    /// fresh full `initial_placement_cost` recompute. The optimized SA must
    /// reproduce its output bit-for-bit for any fixed seed: any stale cached
    /// term, rollback bug, memo-table mismatch, or unbounded accumulation
    /// drift diverges this test.
    fn sa_reference(
        arch: &Architecture,
        staged: &StagedCircuit,
        iterations: usize,
        seed: u64,
    ) -> Result<Vec<Loc>, PlaceError> {
        let n = staged.num_qubits;
        let mut placement = trivial_initial_placement(arch, n)?;
        if n < 2 {
            return Ok(placement);
        }
        let gates: Vec<(usize, Gate2)> = staged.gates_with_stage().map(|(t, g)| (t, *g)).collect();
        if gates.is_empty() {
            return Ok(placement);
        }
        let all_traps = storage_traps_by_proximity(arch);
        let pool_len = (n * 4).min(all_traps.len());
        let pool: Vec<Loc> = all_traps.into_iter().take(pool_len).collect();
        let mut occupied: std::collections::HashSet<Loc> = placement.iter().copied().collect();

        let mut adj = vec![Vec::new(); n];
        for (gi, &(_, g)) in gates.iter().enumerate() {
            adj[g.a].push(gi);
            adj[g.b].push(gi);
        }
        // Affected-gate delta, recomputed from scratch: same summation order
        // as `IncrementalCost::propose` (adjacency of each moved qubit in
        // turn, duplicates skipped).
        let affected_delta = |before: &[Loc], after: &[Loc], moved: &[usize]| -> f64 {
            let mut seen = std::collections::HashSet::new();
            let mut delta = 0.0;
            for &q in moved {
                for &gi in &adj[q] {
                    if !seen.insert(gi) {
                        continue;
                    }
                    let (stage, g) = gates[gi];
                    delta += gate_term(arch, after, stage, g) - gate_term(arch, before, stage, g);
                }
            }
            delta
        };

        let mut rng = StdRng::seed_from_u64(seed);
        let mut cost = initial_placement_cost(arch, &placement, &gates);
        let mut best = placement.clone();
        let mut best_cost = cost;
        let mut commits = 0usize;

        let t0 = (cost / gates.len() as f64).max(1.0);
        let t_end = 1e-3;
        let alpha = (t_end / t0).powf(1.0 / iterations.max(1) as f64);
        let mut temp = t0;

        for _ in 0..iterations {
            let q = rng.gen_range(0..n);
            let old_loc = placement[q];
            enum MoveKind {
                Swap(usize),
                Jump(Loc),
            }
            let kind = if rng.gen_bool(0.5) {
                let mut other = rng.gen_range(0..n);
                if other == q {
                    other = (other + 1) % n;
                }
                MoveKind::Swap(other)
            } else {
                let target = pool[rng.gen_range(0..pool.len())];
                if occupied.contains(&target) {
                    temp *= alpha;
                    continue;
                }
                MoveKind::Jump(target)
            };

            let before = placement.clone();
            let moved: Vec<usize> = match kind {
                MoveKind::Swap(other) => {
                    placement.swap(q, other);
                    vec![q, other]
                }
                MoveKind::Jump(target) => {
                    placement[q] = target;
                    vec![q]
                }
            };
            let delta = affected_delta(&before, &placement, &moved);
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                match kind {
                    MoveKind::Jump(target) => {
                        occupied.remove(&old_loc);
                        occupied.insert(target);
                    }
                    MoveKind::Swap(_) => {}
                }
                cost += delta;
                commits += 1;
                if commits >= IncrementalCost::RESUM_INTERVAL {
                    cost = initial_placement_cost(arch, &placement, &gates);
                    commits = 0;
                }
                if cost < best_cost {
                    best_cost = cost;
                    best = placement.clone();
                }
            } else {
                placement = before;
            }
            temp *= alpha;
        }

        Ok(best)
    }

    #[test]
    fn trivial_fills_nearest_row_first() {
        let arch = arch();
        let p = trivial_initial_placement(&arch, 14).unwrap();
        assert_distinct(&p);
        // Reference architecture: entanglement zone is above, so row 99 first.
        assert_eq!(p[0], Loc::Storage { zone: 0, row: 99, col: 0 });
        assert_eq!(p[13], Loc::Storage { zone: 0, row: 99, col: 13 });
    }

    #[test]
    fn trivial_wraps_to_next_row() {
        let arch = arch();
        let p = trivial_initial_placement(&arch, 102).unwrap();
        assert_distinct(&p);
        assert_eq!(p[100], Loc::Storage { zone: 0, row: 98, col: 0 });
    }

    #[test]
    fn storage_full_detected() {
        let arch = Architecture::arch1_small(); // 120 traps
        let err = trivial_initial_placement(&arch, 121).unwrap_err();
        assert!(matches!(err, PlaceError::StorageFull { .. }));
    }

    #[test]
    fn sa_never_worse_than_trivial() {
        let arch = arch();
        let staged = preprocess(&bench_circuits::qft(10));
        let gates: Vec<(usize, Gate2)> = staged.gates_with_stage().map(|(t, g)| (t, *g)).collect();
        let trivial = trivial_initial_placement(&arch, staged.num_qubits).unwrap();
        let sa = sa_initial_placement(&arch, &staged, 1000, 7).unwrap();
        assert_distinct(&sa);
        let c_trivial = initial_placement_cost(&arch, &trivial, &gates);
        let c_sa = initial_placement_cost(&arch, &sa, &gates);
        assert!(c_sa <= c_trivial + 1e-9, "SA {c_sa} worse than trivial {c_trivial}");
    }

    #[test]
    fn sa_is_deterministic_for_fixed_seed() {
        let arch = arch();
        let staged = preprocess(&bench_circuits::ghz(12));
        let a = sa_initial_placement(&arch, &staged, 300, 42).unwrap();
        let b = sa_initial_placement(&arch, &staged, 300, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sa_keeps_qubits_in_storage() {
        let arch = arch();
        let staged = preprocess(&bench_circuits::ising(12));
        let p = sa_initial_placement(&arch, &staged, 500, 1).unwrap();
        assert!(p.iter().all(Loc::is_storage));
        assert_distinct(&p);
    }

    #[test]
    fn arch2_proximity_order_prefers_edge_rows() {
        // Arch2 has entanglement zones above and below storage: the outer
        // storage rows are closest.
        let arch = Architecture::arch2_two_zones();
        let traps = storage_traps_by_proximity(&arch);
        let first_row = match traps[0] {
            Loc::Storage { row, .. } => row,
            _ => unreachable!(),
        };
        assert!(first_row == 0 || first_row == 2, "outer row first, got {first_row}");
    }

    /// The headline regression: the incremental SA reproduces the
    /// full-recompute reference bit-for-bit across the entire paper suite
    /// for multiple seeds (identical trap sequences, not just equal costs).
    #[test]
    fn sa_bit_identical_to_full_recompute_reference_across_suite() {
        let arch = arch();
        for entry in bench_circuits::paper_suite() {
            let staged = preprocess(&entry.circuit);
            for seed in [0x5AC, 7] {
                let fast = sa_initial_placement(&arch, &staged, 400, seed).unwrap();
                let slow = sa_reference(&arch, &staged, 400, seed).unwrap();
                assert_eq!(fast, slow, "{} seed {seed}", staged.name);
            }
        }
    }

    /// Same check on a multi-zone architecture (different geometry paths).
    #[test]
    fn sa_bit_identical_on_two_zone_architecture() {
        let arch = Architecture::arch2_two_zones();
        let staged = preprocess(&bench_circuits::ising(20));
        for seed in [1u64, 99] {
            assert_eq!(
                sa_initial_placement(&arch, &staged, 500, seed).unwrap(),
                sa_reference(&arch, &staged, 500, seed).unwrap(),
                "seed {seed}"
            );
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Random gate list over `n` qubits with random stage indices.
        fn arb_gates(n: usize) -> impl Strategy<Value = Vec<(usize, Gate2)>> {
            proptest::collection::vec((0usize..6, 0..n, 0..n), 1..14).prop_map(|raw| {
                raw.into_iter()
                    .enumerate()
                    .filter(|(_, (_, a, b))| a != b)
                    .map(|(id, (stage, a, b))| (stage, Gate2 { id, a, b }))
                    .collect()
            })
        }

        proptest! {
            /// After every accepted move, the incremental evaluator's total
            /// equals a full `initial_placement_cost` recompute (up to the
            /// bounded accumulation tolerance).
            #[test]
            fn incremental_delta_matches_full_recompute(
                gates in arb_gates(8),
                moves in proptest::collection::vec((0usize..8, 0usize..40, any::<bool>()), 1..40),
            ) {
                let arch = Architecture::arch1_small();
                let geom = GeomCache::new(&arch);
                let traps = storage_traps_by_proximity(&arch);
                let mut placement = trivial_from_traps(&traps, 8).unwrap();
                let mut inc = IncrementalCost::new(&geom, &gates, 8, &placement);

                for (q, trap_idx, accept) in moves {
                    let target = traps[trap_idx];
                    let old = placement[q];
                    if placement.contains(&target) {
                        // Occupied: model a swap with its occupant instead.
                        let other = placement.iter().position(|&l| l == target).unwrap();
                        if other == q {
                            continue;
                        }
                        placement.swap(q, other);
                        let delta = inc.propose(&placement, &[q, other]);
                        if accept {
                            inc.commit(delta);
                        } else {
                            inc.reject();
                            placement.swap(q, other);
                        }
                    } else {
                        placement[q] = target;
                        let delta = inc.propose(&placement, &[q]);
                        if accept {
                            inc.commit(delta);
                        } else {
                            inc.reject();
                            placement[q] = old;
                        }
                    }
                    let full = initial_placement_cost(&geom, &placement, &gates);
                    prop_assert!(
                        (inc.total() - full).abs() <= 1e-6 * full.abs().max(1.0),
                        "incremental {} vs full {full}",
                        inc.total()
                    );
                }
            }
        }
    }
}
