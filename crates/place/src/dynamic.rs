//! Reuse-aware dynamic placement (paper Sec. V-B).
//!
//! For each Rydberg stage the planner:
//!
//! 1. identifies **qubit reuse** between consecutive stages with a maximum
//!    bipartite matching (Hopcroft–Karp) over gates sharing a qubit —
//!    matched gates stay pinned at their predecessor's Rydberg site;
//! 2. places the remaining gates with a **minimum-weight full matching**
//!    (Jonker–Volgenant) from gates to candidate sites around each gate's
//!    nearest site `ω_near`, with a lookahead term pulling the site toward
//!    next-stage partners;
//! 3. returns idle qubits to the storage zone with a second min-weight
//!    matching over candidate traps (original home, neighbors of the nearest
//!    trap, nearest trap to the *related* next-stage partner — Eq. 3);
//! 4. builds both a reuse and a no-reuse solution and **commits the cheaper**
//!    (paper Sec. V-B: "we commit to the better solution between the two").

use crate::cost::{gate_cost, nearest_gate_site, qubit_to_site_cost};
use crate::engine::WindowedPlacer;
use crate::{PlaceError, PlacementConfig};
use std::collections::HashSet;
use zac_arch::{
    Architecture, GeomCache, Geometry, Loc, Point, SiteId, TrapIndex, TrapMap, TrapSet,
};
use zac_circuit::{Gate2, StagedCircuit};
use zac_graph::{max_bipartite_matching, AssignmentError, AssignmentWorkspace, CostMatrix};
use zac_telemetry::metrics;

/// Placement decisions for one Rydberg stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// Each gate of the stage with the Rydberg site it executes at.
    pub gate_sites: Vec<(Gate2, SiteId)>,
    /// Without reuse, every entanglement-zone resident first returns to
    /// storage (the paper's non-reuse round trip); this intermediate
    /// all-in-storage snapshot precedes the stage's fetches.
    pub pre_returns: Option<Vec<Loc>>,
    /// Location of every qubit *during* the stage's exposure.
    pub during: Vec<Loc>,
    /// Whether this stage committed the reuse solution.
    pub used_reuse: bool,
    /// Number of qubits that stayed at their site (reused in place).
    pub reused_qubits: usize,
}

/// The full placement plan: initial placement plus one [`StagePlan`] per
/// Rydberg stage. Consecutive `during` snapshots define the rearrangement
/// the scheduler must realize.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Initial storage placement (the `init` ZAIR instruction).
    pub initial: Vec<Loc>,
    /// Per-stage placements.
    pub stages: Vec<StagePlan>,
}

impl PlacementPlan {
    /// Total count of in-place qubit reuses across all stages.
    pub fn total_reused_qubits(&self) -> usize {
        self.stages.iter().map(|s| s.reused_qubits).sum()
    }

    /// Total movement cost of the plan under the paper's Eq. 1 metric:
    /// the sum over every stage transition of √distance per moved qubit,
    /// including the intermediate pre-return leg of non-reuse stages. This
    /// is the quantity the per-stage solver minimizes, so it is the quality
    /// axis the engine frontier (exhaustive vs. windowed) is measured on.
    pub fn movement_cost<G: Geometry>(&self, geom: &G) -> f64 {
        let leg = |from: &[Loc], to: &[Loc]| -> f64 {
            from.iter()
                .zip(to)
                .filter(|(a, b)| a != b)
                .map(|(a, b)| geom.position(*a).distance(geom.position(*b)).sqrt())
                .sum::<f64>()
        };
        let mut current: &[Loc] = &self.initial;
        let mut total = 0.0;
        for stage in &self.stages {
            if let Some(pre) = &stage.pre_returns {
                total += leg(current, pre) + leg(pre, &stage.during);
            } else {
                total += leg(current, &stage.during);
            }
            current = &stage.during;
        }
        total
    }

    /// Checks the plan's invariants against the architecture and circuit.
    ///
    /// # Errors
    ///
    /// [`PlaceError::Invalid`] describing the first violation: duplicate
    /// traps, a gate's qubits not co-located at its site, or an idle qubit
    /// left inside an entanglement zone during an exposure.
    pub fn validate(&self, arch: &Architecture, staged: &StagedCircuit) -> Result<(), PlaceError> {
        let check_distinct = |p: &[Loc], what: &str| -> Result<(), PlaceError> {
            let set: HashSet<&Loc> = p.iter().collect();
            if set.len() != p.len() {
                return Err(PlaceError::Invalid(format!("duplicate trap in {what}")));
            }
            for &loc in p {
                arch.check_loc(loc).map_err(|e| PlaceError::Invalid(format!("{what}: {e}")))?;
            }
            Ok(())
        };
        check_distinct(&self.initial, "initial placement")?;
        if !self.initial.iter().all(Loc::is_storage) {
            return Err(PlaceError::Invalid("initial placement not in storage".into()));
        }
        if self.stages.len() != staged.stages.len() {
            return Err(PlaceError::Invalid("stage count mismatch".into()));
        }
        for (t, plan) in self.stages.iter().enumerate() {
            if let Some(pre) = &plan.pre_returns {
                check_distinct(pre, &format!("stage {t} pre-returns"))?;
                if !pre.iter().all(Loc::is_storage) {
                    return Err(PlaceError::Invalid(format!(
                        "stage {t}: pre-return snapshot leaves a qubit in the zone"
                    )));
                }
            }
            check_distinct(&plan.during, &format!("stage {t}"))?;
            let mut gate_qubits = HashSet::new();
            for (g, site) in &plan.gate_sites {
                for q in [g.a, g.b] {
                    gate_qubits.insert(q);
                    match plan.during[q] {
                        Loc::Site { zone, row, col, .. }
                            if SiteId::new(zone, row, col) == *site => {}
                        other => {
                            return Err(PlaceError::Invalid(format!(
                                "stage {t}: qubit {q} of gate {} at {other}, expected site {site}",
                                g.id
                            )))
                        }
                    }
                }
            }
            for (q, loc) in plan.during.iter().enumerate() {
                if loc.is_site() && !gate_qubits.contains(&q) {
                    return Err(PlaceError::Invalid(format!(
                        "stage {t}: idle qubit {q} left in entanglement zone"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// One candidate solution for a stage, before committing.
struct StageSolution {
    gate_sites: Vec<(Gate2, SiteId)>,
    pre_returns: Option<Vec<Loc>>,
    during: Vec<Loc>,
    transition_cost: f64,
    reused_qubits: usize,
}

/// Scratch state reused across every `solve_stage` call of one compilation:
/// the geometry memo tables plus the assignment solver's workspace and cost
/// matrix. Steady-state stage solves are allocation-free in the solver
/// (the buffers grow to the largest stage seen, then stay).
struct StageWorkspace {
    geom: GeomCache,
    assign: AssignmentWorkspace,
    cost: CostMatrix,
    traps: TrapScratch,
    stage: StageScratch,
}

impl StageWorkspace {
    fn new(arch: &Architecture) -> Self {
        Self {
            geom: GeomCache::new(arch),
            assign: AssignmentWorkspace::new(),
            cost: CostMatrix::new(0, 0, 0.0),
            traps: TrapScratch::new(arch),
            stage: StageScratch::new(arch),
        }
    }
}

/// Dense qubit → next-stage-partner map (`usize::MAX` = none), reused across
/// stages through a touched list: the allocation-free replacement for the
/// per-stage `HashMap` the solver used to build.
#[derive(Default)]
struct RelatedMap {
    vals: Vec<usize>,
    touched: Vec<usize>,
}

impl RelatedMap {
    /// Clears previous entries and guarantees capacity for qubits `0..n`.
    fn reset(&mut self, n: usize) {
        for &q in &self.touched {
            self.vals[q] = usize::MAX;
        }
        self.touched.clear();
        if self.vals.len() < n {
            self.vals.resize(n, usize::MAX);
        }
    }

    /// Records `b` as `a`'s partner (later inserts overwrite, matching the
    /// `HashMap::insert` semantics this replaced).
    fn insert(&mut self, a: usize, b: usize) {
        if self.vals[a] == usize::MAX {
            self.touched.push(a);
        }
        self.vals[a] = b;
    }

    fn get(&self, q: usize) -> Option<usize> {
        match self.vals.get(q) {
            Some(&v) if v != usize::MAX => Some(v),
            _ => None,
        }
    }
}

/// Reusable buffers of the per-stage solver (reuse matching + gate
/// placement), so steady-state stages allocate nothing on the hot path.
struct StageScratch {
    /// Flat site index: per-zone offsets and column counts.
    site_offsets: Vec<usize>,
    site_grid_cols: Vec<usize>,
    /// Next-stage partner per qubit (lookahead + Eq. 3 anchors).
    related: RelatedMap,
    /// This-stage partner per qubit (non-reuse pre-return anchors).
    related_this: RelatedMap,
    /// Reuse-matching adjacency rows (outer and inner buffers reused).
    adj: Vec<Vec<usize>>,
    /// Site flat index → dense matrix column (`usize::MAX` = unset; reset by
    /// walking `sites` between attempts).
    site_cols: Vec<usize>,
    /// Dense column → site of the gate matching.
    sites: Vec<SiteId>,
    /// Per-gate candidate columns (outer and inner buffers reused).
    per_gate: Vec<Vec<usize>>,
    /// Per-gate window centers.
    centers: Vec<SiteId>,
    /// Site neighborhood buffer.
    neigh: Vec<SiteId>,
    /// Sites pinned by the reuse matching (flat-indexed; cleared on the
    /// *next* call by walking `pinned_touched`, so early error returns can
    /// never leave stale pins behind).
    pinned_site: Vec<bool>,
    pinned_touched: Vec<usize>,
}

impl StageScratch {
    fn new(arch: &Architecture) -> Self {
        let mut site_offsets = Vec::new();
        let mut site_grid_cols = Vec::new();
        let mut total = 0usize;
        for z in 0..arch.entanglement_zones().len() {
            let (rows, cols) = arch.site_grid(z);
            site_offsets.push(total);
            site_grid_cols.push(cols);
            total += rows * cols;
        }
        Self {
            site_offsets,
            site_grid_cols,
            related: RelatedMap::default(),
            related_this: RelatedMap::default(),
            adj: Vec::new(),
            site_cols: vec![usize::MAX; total],
            sites: Vec::new(),
            per_gate: Vec::new(),
            centers: Vec::new(),
            neigh: Vec::new(),
            pinned_site: vec![false; total],
            pinned_touched: Vec::new(),
        }
    }
}

/// Per-call scratch of the Eq. 3 return matching, built on the shared
/// generation-stamped trap tables in [`zac_arch::trap`] (lifted out of this
/// module in the scheduler-core refactor so `zac-schedule`'s emission loop
/// uses the same implementation): one array load per candidate-trap probe
/// instead of three hashes, and `next_generation` clears all tables in O(1).
struct TrapScratch {
    /// Dense `Loc → flat` indexer (shared layout with the scheduler).
    index: TrapIndex,
    /// Traps occupied by a non-returning storage resident this generation.
    occupied: TrapSet,
    /// Traps reserved (a stayer's or returner's home) this generation.
    reserved: TrapSet,
    /// Candidate-column dedup: trap → assigned dense column.
    col_index: TrapMap<usize>,
    /// Per-qubit candidate dedup for the windowed engine (anchor windows
    /// overlap, unlike the exhaustive bounding box).
    seen: TrapSet,
    /// Per-qubit candidate buffer (reused across qubits and calls).
    cands: Vec<Loc>,
    /// Dense column → trap table of the return matching (reused per call).
    ret_traps: Vec<Loc>,
    /// Per-returner sparse cost rows (outer and inner buffers reused).
    rows: Vec<Vec<(usize, f64)>>,
    /// Per-returner home-column indices (reused per call).
    home_cols: Vec<Option<usize>>,
    /// Per-qubit "is returning" flags (cleared after each use).
    flags: Vec<bool>,
}

impl TrapScratch {
    fn new(arch: &Architecture) -> Self {
        let index = TrapIndex::new(arch);
        let n = index.len();
        Self {
            index,
            occupied: TrapSet::new(n),
            reserved: TrapSet::new(n),
            col_index: TrapMap::new(n),
            seen: TrapSet::new(n),
            cands: Vec::new(),
            ret_traps: Vec::new(),
            rows: Vec::new(),
            home_cols: Vec::new(),
            flags: Vec::new(),
        }
    }

    /// Starts a fresh generation (constant-time clear of all tables).
    fn next_generation(&mut self) {
        self.occupied.clear();
        self.reserved.clear();
        self.col_index.clear();
    }
}

/// Plans placement for the whole circuit with the engine selected in
/// `cfg.engine` (see [`crate::PlacementEngine`]).
///
/// # Errors
///
/// * [`PlaceError::StorageFull`] if the qubits don't fit in storage.
/// * [`PlaceError::TooManyGates`] if a stage has more gates than sites.
pub fn plan_placement(
    arch: &Architecture,
    staged: &StagedCircuit,
    cfg: &PlacementConfig,
) -> Result<PlacementPlan, PlaceError> {
    cfg.engine.plan(arch, staged, cfg)
}

/// Shared planning loop behind both engines: `window` is `None` for the
/// exhaustive search (whose output is bit-identity locked) and carries the
/// [`WindowedPlacer`] parameters for the windowed search.
pub(crate) fn plan_with_window(
    arch: &Architecture,
    staged: &StagedCircuit,
    cfg: &PlacementConfig,
    window: Option<&WindowedPlacer>,
) -> Result<PlacementPlan, PlaceError> {
    let _span = zac_telemetry::span!("place.plan", &staged.name);
    let initial = if cfg.use_sa {
        crate::initial::sa_for_engine(arch, staged, cfg)?
    } else {
        crate::initial::trivial_initial_placement(arch, staged.num_qubits)?
    };

    let mut ws = StageWorkspace::new(arch);
    let mut current = initial.clone();
    let mut home = initial.clone();
    let mut prev_gates: Vec<(Gate2, SiteId)> = Vec::new();
    let mut plans = Vec::with_capacity(staged.stages.len());

    for (t, stage) in staged.stages.iter().enumerate() {
        // Cooperative cancellation, once per stage and off the RNG stream.
        if zac_telemetry::cancel::cancelled() {
            return Err(PlaceError::Cancelled);
        }
        let next_gates = staged.stages.get(t + 1).map(|s| s.gates.as_slice());
        let plain = solve_stage(
            arch,
            &mut ws,
            &current,
            &home,
            &prev_gates,
            &stage.gates,
            next_gates,
            cfg,
            window,
            false,
        )?;
        let (solution, used_reuse) = if cfg.reuse && !prev_gates.is_empty() {
            let reuse = solve_stage(
                arch,
                &mut ws,
                &current,
                &home,
                &prev_gates,
                &stage.gates,
                next_gates,
                cfg,
                window,
                true,
            )?;
            if reuse.transition_cost <= plain.transition_cost {
                (reuse, true)
            } else {
                (plain, false)
            }
        } else {
            (plain, false)
        };

        if let Some(pre) = &solution.pre_returns {
            for (q, loc) in pre.iter().enumerate() {
                if loc.is_storage() {
                    home[q] = *loc;
                }
            }
        }
        for (q, loc) in solution.during.iter().enumerate() {
            if loc.is_storage() {
                home[q] = *loc;
            }
        }
        current = solution.during.clone();
        prev_gates = solution.gate_sites.clone();
        plans.push(StagePlan {
            gate_sites: solution.gate_sites,
            pre_returns: solution.pre_returns,
            during: solution.during,
            used_reuse,
            reused_qubits: solution.reused_qubits,
        });
    }

    let plan = PlacementPlan { initial, stages: plans };
    debug_assert!(plan.validate(arch, staged).is_ok());
    Ok(plan)
}

/// All sites within Chebyshev radius `delta` of the per-zone projection of
/// point `p` (the δ-expanded neighborhood Ω_near of the paper), filled into
/// the reusable `out` buffer.
fn neighborhood_sites_into(
    arch: &Architecture,
    center: SiteId,
    delta: usize,
    out: &mut Vec<SiteId>,
) {
    out.clear();
    for z in 0..arch.entanglement_zones().len() {
        let (rows, cols) = arch.site_grid(z);
        if z == center.zone {
            let r0 = center.row.saturating_sub(delta);
            let r1 = (center.row + delta).min(rows - 1);
            let c0 = center.col.saturating_sub(delta);
            let c1 = (center.col + delta).min(cols - 1);
            for r in r0..=r1 {
                for c in c0..=c1 {
                    out.push(SiteId::new(z, r, c));
                }
            }
        } else if delta > 0 {
            // Other zones join the candidate pool once expansion starts, so
            // multi-zone architectures can spill over.
            let scaled = delta.min(rows.max(cols));
            for r in 0..rows.min(scaled * 2) {
                for c in 0..cols.min(scaled * 2) {
                    out.push(SiteId::new(z, r, c));
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn solve_stage(
    arch: &Architecture,
    ws: &mut StageWorkspace,
    current: &[Loc],
    home: &[Loc],
    prev_gates: &[(Gate2, SiteId)],
    gates: &[Gate2],
    next_gates: Option<&[Gate2]>,
    cfg: &PlacementConfig,
    window: Option<&WindowedPlacer>,
    use_reuse: bool,
) -> Result<StageSolution, PlaceError> {
    // Split borrows: the memo tables are read-only while the solver scratch
    // is mutated.
    let StageWorkspace { geom, assign: assign_ws, cost: cost_buf, traps: trap_scratch, stage } = ws;
    let StageScratch {
        site_offsets,
        site_grid_cols,
        related,
        related_this,
        adj,
        site_cols,
        sites,
        per_gate,
        centers,
        neigh,
        pinned_site,
        pinned_touched,
    } = stage;
    let site_flat = |s: SiteId| site_offsets[s.zone] + s.row * site_grid_cols[s.zone] + s.col;
    for &f in pinned_touched.iter() {
        pinned_site[f] = false;
    }
    pinned_touched.clear();
    let n = current.len();

    // Related qubit in the next stage (for lookahead and Eq. 3).
    related.reset(n);
    if let Some(ng) = next_gates {
        for g in ng {
            related.insert(g.a, g.b);
            related.insert(g.b, g.a);
        }
    }

    // Without reuse, the paper's pipeline returns *every* zone resident to
    // storage before placing this stage's gates (the non-reuse round trip).
    // The "related qubit" for these returns is the partner in THIS stage.
    let pre_returns: Option<Vec<Loc>> = if !use_reuse {
        let residents: Vec<usize> = (0..n).filter(|&q| current[q].is_site()).collect();
        if residents.is_empty() {
            None
        } else {
            let mut snapshot = current.to_vec();
            if cfg.dynamic {
                related_this.reset(n);
                for g in gates {
                    related_this.insert(g.a, g.b);
                    related_this.insert(g.b, g.a);
                }
                place_returns(
                    arch,
                    geom,
                    assign_ws,
                    cost_buf,
                    trap_scratch,
                    &mut snapshot,
                    current,
                    home,
                    &residents,
                    related_this,
                    cfg,
                    window,
                )?;
            } else {
                for &q in &residents {
                    snapshot[q] = home[q];
                }
            }
            Some(snapshot)
        }
    } else {
        None
    };
    // All placement decisions below see the post-return configuration.
    let working: Vec<Loc> = pre_returns.clone().unwrap_or_else(|| current.to_vec());
    let geom = &*geom;
    let pos = |q: usize| -> Point { geom.position(working[q]) };

    // ---- 1. reuse matching --------------------------------------------
    // Dense per-gate tables (gate indices are 0..gates.len()): cheaper than
    // hash maps on this per-stage hot path.
    let mut pinned: Vec<Option<SiteId>> = vec![None; gates.len()];
    let mut reused_qubits_of: Vec<Vec<usize>> = vec![Vec::new(); gates.len()];
    if use_reuse && !prev_gates.is_empty() {
        if adj.len() < prev_gates.len() {
            adj.resize_with(prev_gates.len(), Vec::new);
        }
        for ((pg, _), row) in prev_gates.iter().zip(adj.iter_mut()) {
            row.clear();
            row.extend(
                gates
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.touches(pg.a) || g.touches(pg.b))
                    .map(|(i, _)| i),
            );
        }
        let matching = max_bipartite_matching(&adj[..prev_gates.len()], gates.len());
        for (pi, m) in matching.iter().enumerate() {
            if let Some(gi) = m {
                let (pg, site) = &prev_gates[pi];
                let g = &gates[*gi];
                let shared: Vec<usize> =
                    [g.a, g.b].into_iter().filter(|&q| pg.touches(q)).collect();
                if !shared.is_empty() {
                    pinned[*gi] = Some(*site);
                    reused_qubits_of[*gi] = shared;
                }
            }
        }
    }
    let reused_qubits: usize = reused_qubits_of.iter().map(Vec::len).sum();

    // ---- 2. gate placement for unpinned gates --------------------------
    let unpinned: Vec<usize> = (0..gates.len()).filter(|&i| pinned[i].is_none()).collect();
    for s in pinned.iter().filter_map(|s| *s) {
        let f = site_flat(s);
        pinned_site[f] = true;
        pinned_touched.push(f);
    }
    let total_sites = arch.num_sites();
    if gates.len() > total_sites {
        return Err(PlaceError::TooManyGates { gates: gates.len(), sites: total_sites });
    }

    let mut assignment: Vec<Option<SiteId>> = pinned.clone();
    if !unpinned.is_empty() {
        centers.clear();
        centers.extend(unpinned.iter().map(|&gi| {
            let g = &gates[gi];
            nearest_gate_site(geom, pos(g.a), pos(g.b))
        }));
        let max_dim = arch
            .entanglement_zones()
            .iter()
            .enumerate()
            .map(|(z, _)| {
                let (r, c) = arch.site_grid(z);
                r.max(c)
            })
            .max()
            .unwrap_or(1);
        let mut delta = match window {
            None => cfg.window_expansion.max(1),
            Some(w) => w.window_min_width.max(1),
        };
        if per_gate.len() < unpinned.len() {
            per_gate.resize_with(unpinned.len(), Vec::new);
        }
        loop {
            // Collect the candidate-site union (dense site → column map,
            // reset by walking the previous attempt's column list).
            for &s in sites.iter() {
                site_cols[site_flat(s)] = usize::MAX;
            }
            sites.clear();
            for (row, center) in centers.iter().enumerate() {
                neighborhood_sites_into(arch, *center, delta, neigh);
                let cols = &mut per_gate[row];
                cols.clear();
                for &s in neigh.iter() {
                    let f = site_flat(s);
                    if pinned_site[f] {
                        continue;
                    }
                    let idx = if site_cols[f] != usize::MAX {
                        site_cols[f]
                    } else {
                        site_cols[f] = sites.len();
                        sites.push(s);
                        sites.len() - 1
                    };
                    cols.push(idx);
                }
            }
            if sites.len() >= unpinned.len() {
                cost_buf.reset(unpinned.len(), sites.len(), f64::INFINITY);
                let mut lower_bound = 0.0;
                for (row, &gi) in unpinned.iter().enumerate() {
                    let g = &gates[gi];
                    let mut row_min = f64::INFINITY;
                    for &col in &per_gate[row] {
                        let site = sites[col];
                        let mut c = gate_cost(geom, pos(g.a), pos(g.b), site);
                        // Lookahead (Sec. V-B.2): if this gate is reused by
                        // g'(q, q'') next stage, add the cost of moving q''
                        // to this site.
                        for q in [g.a, g.b] {
                            if let Some(q2) = related.get(q) {
                                if !gates[gi].touches(q2) {
                                    c += qubit_to_site_cost(geom, pos(q2), site);
                                    break;
                                }
                            }
                        }
                        row_min = row_min.min(c);
                        cost_buf.set(row, col, c);
                    }
                    if row_min.is_finite() {
                        lower_bound += row_min;
                    }
                }
                metrics::PLACE_ASSIGNMENT_SOLVES.incr();
                metrics::PLACE_ASSIGNMENT_MOVERS.observe(unpinned.len() as u64);
                match assign_ws.solve(cost_buf) {
                    Ok(total) => {
                        // Windowed engine: re-solve with a wider window when
                        // conflicts pushed the matching past the quality
                        // guard (unless the window already covers the grid).
                        let breach = window.is_some_and(|w| w.violates_guard(total, lower_bound));
                        if breach {
                            metrics::PLACE_WINDOW_GUARD_BREACHES.incr();
                        }
                        let grow = delta <= max_dim && breach;
                        if !grow {
                            for (row, &gi) in unpinned.iter().enumerate() {
                                assignment[gi] = Some(sites[assign_ws.assignment()[row]]);
                            }
                            break;
                        }
                    }
                    Err(AssignmentError::Infeasible | AssignmentError::MoreRowsThanColumns) => {}
                    Err(e) => return Err(PlaceError::Invalid(format!("gate matching: {e}"))),
                }
            }
            if delta > max_dim * 2 {
                return Err(PlaceError::TooManyGates { gates: gates.len(), sites: total_sites });
            }
            if window.is_some() {
                metrics::PLACE_WINDOW_GROWS.incr();
            }
            delta *= 2;
        }
    }

    // ---- 3. build `during`: gate qubits to site slots ------------------
    let mut during = working.clone();
    for (gi, g) in gates.iter().enumerate() {
        let site = assignment[gi].expect("every gate assigned a site");
        let cap = arch.site_capacity(site.zone);
        // Reused qubits keep their slot.
        let mut taken: Vec<usize> = Vec::new();
        let reused_list = &reused_qubits_of[gi];
        let reused = (!reused_list.is_empty()).then_some(reused_list);
        for &q in [g.a, g.b].iter() {
            if let Some(list) = reused {
                if list.contains(&q) {
                    if let Loc::Site { slot, .. } = working[q] {
                        during[q] =
                            Loc::Site { zone: site.zone, row: site.row, col: site.col, slot };
                        taken.push(slot);
                        continue;
                    }
                }
            }
        }
        // Remaining qubits: order by current x for deterministic slots.
        let mut rest: Vec<usize> =
            [g.a, g.b].into_iter().filter(|&q| !reused.is_some_and(|l| l.contains(&q))).collect();
        rest.sort_by(|&x, &y| pos(x).x.total_cmp(&pos(y).x).then(x.cmp(&y)));
        let mut next_slot = 0usize;
        for q in rest {
            while taken.contains(&next_slot) {
                next_slot += 1;
            }
            if next_slot >= cap {
                return Err(PlaceError::Invalid(format!(
                    "site {site} slot overflow for gate {}",
                    g.id
                )));
            }
            during[q] =
                Loc::Site { zone: site.zone, row: site.row, col: site.col, slot: next_slot };
            taken.push(next_slot);
        }
    }

    // ---- 4. return idle zone qubits to storage --------------------------
    let mut is_gate_qubit = vec![false; n];
    for g in gates {
        is_gate_qubit[g.a] = true;
        is_gate_qubit[g.b] = true;
    }
    let returning: Vec<usize> =
        (0..n).filter(|&q| working[q].is_site() && !is_gate_qubit[q]).collect();

    if !returning.is_empty() {
        if cfg.dynamic {
            place_returns(
                arch,
                geom,
                assign_ws,
                cost_buf,
                trap_scratch,
                &mut during,
                &working,
                home,
                &returning,
                related,
                cfg,
                window,
            )?;
        } else {
            for &q in &returning {
                during[q] = home[q];
            }
        }
    }

    // ---- 5. transition cost ---------------------------------------------
    let return_leg: f64 = (0..n)
        .filter(|&q| working[q] != current[q])
        .map(|q| geom.position(working[q]).distance(geom.position(current[q])).sqrt())
        .sum();
    let fetch_leg: f64 = (0..n)
        .filter(|&q| during[q] != working[q])
        .map(|q| geom.position(during[q]).distance(geom.position(working[q])).sqrt())
        .sum();
    let transition_cost = return_leg + fetch_leg;

    let gate_sites: Vec<(Gate2, SiteId)> = gates
        .iter()
        .enumerate()
        .map(|(gi, g)| (*g, assignment[gi].expect("every gate assigned a site")))
        .collect();

    Ok(StageSolution { gate_sites, pre_returns, during, transition_cost, reused_qubits })
}

/// Matchings smaller than this stay exhaustive even under the windowed
/// engine: a tiny matching is cheap to solve anyway, and it is the most
/// window-sensitive case — with one or two movers the best trap often lies
/// just outside a small window, and the in-window lower bound cannot see it,
/// so the quality guard never fires.
const WINDOW_MIN_MOVERS: usize = 4;

/// Eq. 3: assign returning qubits to candidate storage traps by min-weight
/// full matching (solved in the shared workspace, allocation-free in steady
/// state). Under a [`WindowedPlacer`] (and at least [`WINDOW_MIN_MOVERS`]
/// returners) the candidate pool is the union of rectangular windows around
/// each qubit's anchor traps, regrown (×2) and re-solved only when the
/// matching is infeasible or breaches the quality guard.
#[allow(clippy::too_many_arguments)]
fn place_returns(
    arch: &Architecture,
    geom: &GeomCache,
    assign_ws: &mut AssignmentWorkspace,
    cost_buf: &mut CostMatrix,
    scratch: &mut TrapScratch,
    during: &mut [Loc],
    current: &[Loc],
    home: &[Loc],
    returning: &[usize],
    related: &RelatedMap,
    cfg: &PlacementConfig,
    window: Option<&WindowedPlacer>,
) -> Result<(), PlaceError> {
    let n = during.len();
    scratch.next_generation();
    if scratch.flags.len() < n {
        scratch.flags.resize(n, false);
    }
    for &q in returning {
        scratch.flags[q] = true;
    }
    // Storage occupancy after gate fetches: qubits whose `during` is storage.
    for (q, &loc) in during.iter().enumerate() {
        if !scratch.flags[q] && loc.is_storage() {
            let idx = scratch.index.flat(loc);
            scratch.occupied.insert(idx);
        }
    }
    // Homes of qubits staying in the zone stay reserved; homes of returning
    // qubits are private to their owner.
    for q in 0..n {
        if during[q].is_site() || scratch.flags[q] {
            let idx = scratch.index.flat(home[q]);
            scratch.reserved.insert(idx);
        }
    }
    for &q in returning {
        scratch.flags[q] = false;
    }

    // Single-returner fast path: a 1×C matching is an argmin scan. The JV
    // solver scans the columns in order and moves to a later column on cost
    // ties (its tie-break favors unmatched columns), so `<=` reproduces its
    // choice exactly — bit-identical to solving the 1×C matrix.
    if let [q] = *returning {
        let q_pos = geom.position(current[q]);
        let related_pos = related.get(q).map(|q2| geom.position(current[q2]));
        return_candidates(arch, geom, scratch, q_pos, related_pos, home[q], cfg.neighbor_k);
        let mut best = f64::INFINITY;
        let mut best_trap = None;
        for &trap in &scratch.cands {
            let trap_pos = geom.position(trap);
            let mut c = trap_pos.distance(q_pos).sqrt();
            if let Some(rp) = related_pos {
                c += cfg.lookahead_alpha * trap_pos.distance(rp).sqrt();
            }
            if c <= best {
                best = c;
                best_trap = Some(trap);
            }
        }
        during[q] = best_trap.expect("own home is always a finite-cost candidate");
        return Ok(());
    }

    // A window this wide covers every storage zone from any anchor, so the
    // growth loop below always terminates in the exhaustive regime.
    let full_width = (0..arch.storage_zones().len())
        .map(|z| {
            let (rows, cols) = arch.storage_grid(z);
            rows.max(cols)
        })
        .max()
        .unwrap_or(1);
    let window = window.filter(|_| returning.len() >= WINDOW_MIN_MOVERS);
    let mut width = window.map(|w| w.window_min_width.max(1));

    if scratch.rows.len() < returning.len() {
        scratch.rows.resize_with(returning.len(), Vec::new);
    }
    loop {
        // Collect candidates per qubit (fresh per attempt: a wider window
        // re-derives the dense column numbering from scratch).
        scratch.col_index.clear();
        scratch.ret_traps.clear();
        scratch.home_cols.clear();
        let mut lower_bound = 0.0;
        for (r, &q) in returning.iter().enumerate() {
            let q_pos = geom.position(current[q]);
            let related_pos = related.get(q).map(|q2| geom.position(current[q2]));
            match (window, width) {
                (Some(w), Some(half_rows)) => {
                    let (hr, hc) = w.half_extent(half_rows);
                    windowed_return_candidates(
                        arch,
                        geom,
                        scratch,
                        q_pos,
                        related_pos,
                        home[q],
                        hr,
                        hc,
                    )
                }
                _ => return_candidates(
                    arch,
                    geom,
                    scratch,
                    q_pos,
                    related_pos,
                    home[q],
                    cfg.neighbor_k,
                ),
            }
            let row = &mut scratch.rows[r];
            row.clear();
            let mut row_min = f64::INFINITY;
            for &trap in &scratch.cands {
                let flat = scratch.index.flat(trap);
                let idx = match scratch.col_index.get(flat) {
                    Some(idx) => idx,
                    None => {
                        scratch.col_index.set(flat, scratch.ret_traps.len());
                        scratch.ret_traps.push(trap);
                        scratch.ret_traps.len() - 1
                    }
                };
                let trap_pos = geom.position(trap);
                let mut c = trap_pos.distance(q_pos).sqrt();
                if let Some(rp) = related_pos {
                    c += cfg.lookahead_alpha * trap_pos.distance(rp).sqrt();
                }
                row_min = row_min.min(c);
                row.push((idx, c));
            }
            if row_min.is_finite() {
                lower_bound += row_min;
            }
            let hf = scratch.index.flat(home[q]);
            scratch.home_cols.push(scratch.col_index.get(hf));
        }

        cost_buf.reset(returning.len(), scratch.ret_traps.len(), f64::INFINITY);
        for (r, row) in scratch.rows[..returning.len()].iter().enumerate() {
            for &(c, v) in row {
                cost_buf.set(r, c, v);
            }
        }
        // Private homes: forbid other qubits from taking a returner's home.
        for (r, _) in returning.iter().enumerate() {
            if let Some(ci) = scratch.home_cols[r] {
                for r2 in 0..returning.len() {
                    if r2 != r {
                        cost_buf.set(r2, ci, f64::INFINITY);
                    }
                }
            }
        }

        let can_grow = width.is_some_and(|w| w < full_width);
        metrics::PLACE_ASSIGNMENT_SOLVES.incr();
        metrics::PLACE_ASSIGNMENT_MOVERS.observe(returning.len() as u64);
        match assign_ws.solve(cost_buf) {
            Ok(total) => {
                let breach = window.is_some_and(|w| w.violates_guard(total, lower_bound));
                if breach {
                    metrics::PLACE_WINDOW_GUARD_BREACHES.incr();
                }
                let grow = can_grow && breach;
                if !grow {
                    for (r, &q) in returning.iter().enumerate() {
                        during[q] = scratch.ret_traps[assign_ws.assignment()[r]];
                    }
                    return Ok(());
                }
            }
            Err(AssignmentError::Infeasible | AssignmentError::MoreRowsThanColumns) if can_grow => {
            }
            Err(e) => return Err(PlaceError::Invalid(format!("return matching: {e}"))),
        }
        if window.is_some() {
            metrics::PLACE_WINDOW_GROWS.incr();
        }
        width = width.map(|w| (w * 2).min(full_width));
    }
}

/// Candidate storage traps for a returning qubit (paper Sec. V-B.3): the
/// bounding box over (a) its home trap, (b) the k-neighborhood of the
/// nearest trap to its current site, and (c) the nearest trap to its related
/// qubit — restricted to empty, unreserved traps (its own home always
/// included). Fills `scratch.cands`; occupancy/reservation checks go
/// through the generation-stamped tables.
fn return_candidates(
    arch: &Architecture,
    geom: &GeomCache,
    scratch: &mut TrapScratch,
    q_pos: Point,
    related_pos: Option<Point>,
    home: Loc,
    k: usize,
) {
    let mut anchor_traps: Vec<Loc> = vec![home];
    let nearest = geom.nearest_storage_trap(q_pos);
    anchor_traps.push(nearest);
    if let Loc::Storage { zone, row, col } = nearest {
        let (rows, cols) = arch.storage_grid(zone);
        for i in 1..=k {
            if col + i < cols {
                anchor_traps.push(Loc::Storage { zone, row, col: col + i });
            }
            if col >= i {
                anchor_traps.push(Loc::Storage { zone, row, col: col - i });
            }
            if row + i < rows {
                anchor_traps.push(Loc::Storage { zone, row: row + i, col });
            }
            if row >= i {
                anchor_traps.push(Loc::Storage { zone, row: row - i, col });
            }
        }
    }
    if let Some(rp) = related_pos {
        anchor_traps.push(geom.nearest_storage_trap(rp));
    }

    // Bounding box per storage zone (anchors may span zones).
    scratch.cands.clear();
    for z in 0..arch.storage_zones().len() {
        let zone_anchors: Vec<(usize, usize)> = anchor_traps
            .iter()
            .filter_map(|l| match *l {
                Loc::Storage { zone, row, col } if zone == z => Some((row, col)),
                _ => None,
            })
            .collect();
        if zone_anchors.is_empty() {
            continue;
        }
        let r0 = zone_anchors.iter().map(|a| a.0).min().unwrap();
        let r1 = zone_anchors.iter().map(|a| a.0).max().unwrap();
        let c0 = zone_anchors.iter().map(|a| a.1).min().unwrap();
        let c1 = zone_anchors.iter().map(|a| a.1).max().unwrap();
        for row in r0..=r1 {
            for col in c0..=c1 {
                let trap = Loc::Storage { zone: z, row, col };
                let flat = scratch.index.flat(trap);
                let free = !scratch.occupied.contains(flat) && !scratch.reserved.contains(flat);
                if trap == home || free {
                    scratch.cands.push(trap);
                }
            }
        }
    }
    if !scratch.cands.contains(&home) {
        scratch.cands.push(home);
    }
    cap_candidates(geom, &mut scratch.cands, q_pos, home);
}

/// Caps a candidate set to the [`CANDIDATE_CAP`] traps nearest `q_pos`
/// (the qubit's home always kept).
const CANDIDATE_CAP: usize = 400;
fn cap_candidates(geom: &GeomCache, cands: &mut Vec<Loc>, q_pos: Point, home: Loc) {
    if cands.len() > CANDIDATE_CAP {
        cands.sort_by(|a, b| {
            geom.position(*a).distance(q_pos).total_cmp(&geom.position(*b).distance(q_pos))
        });
        cands.truncate(CANDIDATE_CAP);
        if !cands.contains(&home) {
            cands.push(home);
        }
    }
}

/// Windowed-engine replacement for [`return_candidates`]: instead of the
/// full bounding box over the anchors (which can span most of the storage
/// grid when a qubit's home lies far from its current position), each anchor
/// — the home trap, the nearest trap to the qubit, and the nearest trap to
/// its related next-stage partner — contributes only the traps within a
/// `half_rows × half_cols` rectangle (wide and flat under the default
/// aspect, matching the cheap same-row direction of the movement model).
/// Overlapping windows are deduplicated through the generation-stamped
/// `seen` table; the same free/reserved filtering and private-home rule
/// apply as in the exhaustive path.
#[allow(clippy::too_many_arguments)]
fn windowed_return_candidates(
    arch: &Architecture,
    geom: &GeomCache,
    scratch: &mut TrapScratch,
    q_pos: Point,
    related_pos: Option<Point>,
    home: Loc,
    half_rows: usize,
    half_cols: usize,
) {
    scratch.cands.clear();
    scratch.seen.clear();
    let anchors = [
        Some(home),
        Some(geom.nearest_storage_trap(q_pos)),
        related_pos.map(|rp| geom.nearest_storage_trap(rp)),
    ];
    for anchor in anchors.into_iter().flatten() {
        let Loc::Storage { zone, row, col } = anchor else { continue };
        let (rows, cols) = arch.storage_grid(zone);
        let r0 = row.saturating_sub(half_rows);
        let r1 = (row + half_rows).min(rows - 1);
        let c0 = col.saturating_sub(half_cols);
        let c1 = (col + half_cols).min(cols - 1);
        for r in r0..=r1 {
            for c in c0..=c1 {
                let trap = Loc::Storage { zone, row: r, col: c };
                let flat = scratch.index.flat(trap);
                if scratch.seen.contains(flat) {
                    continue;
                }
                scratch.seen.insert(flat);
                let free = !scratch.occupied.contains(flat) && !scratch.reserved.contains(flat);
                if trap == home || free {
                    scratch.cands.push(trap);
                }
            }
        }
    }
    cap_candidates(geom, &mut scratch.cands, q_pos, home);
}

#[cfg(test)]
mod tests {
    use super::*;
    use zac_circuit::{bench_circuits, preprocess, Circuit};

    fn arch() -> Architecture {
        Architecture::reference()
    }

    fn cfg(reuse: bool) -> PlacementConfig {
        PlacementConfig {
            use_sa: false,
            dynamic: true,
            reuse,
            sa_iterations: 200,
            seed: 1,
            window_expansion: 2,
            neighbor_k: 1,
            lookahead_alpha: 0.1,
            engine: crate::PlacementEngine::Exhaustive,
        }
    }

    #[test]
    fn a_passed_deadline_cancels_the_stage_loop() {
        // SA is off, so only the per-stage poll can see the deadline.
        let staged = preprocess(&bench_circuits::ghz(8));
        let _deadline = zac_telemetry::cancel::install(std::time::Instant::now());
        assert_eq!(plan_placement(&arch(), &staged, &cfg(true)), Err(PlaceError::Cancelled));
    }

    #[test]
    fn fig4_running_example_plans_two_stages() {
        let mut c = Circuit::new("fig4", 6);
        c.cz(0, 1).cz(3, 4).cz(1, 2).cz(3, 5).cz(0, 4);
        let staged = preprocess(&c);
        let arch = arch();
        let plan = plan_placement(&arch, &staged, &cfg(true)).unwrap();
        plan.validate(&arch, &staged).unwrap();
        assert_eq!(plan.stages.len(), 2);
        // All five qubits of stage 2 are reusable in the paper's example:
        // matching pairs (g0,g2),(g1,g3) or similar → at least 2 reuses.
        assert!(plan.stages[1].reused_qubits >= 2 || !plan.stages[1].used_reuse);
    }

    #[test]
    fn plan_validates_for_suite_circuits() {
        let arch = arch();
        for circ in [bench_circuits::ghz(10), bench_circuits::ising(12), bench_circuits::qft(6)] {
            let staged = preprocess(&circ);
            for reuse in [false, true] {
                let plan = plan_placement(&arch, &staged, &cfg(reuse)).unwrap();
                plan.validate(&arch, &staged)
                    .unwrap_or_else(|e| panic!("{} reuse={reuse}: {e}", circ.name()));
            }
        }
    }

    #[test]
    fn reuse_keeps_chain_qubit_in_zone() {
        // GHZ chain: q_{t+1} participates in stages t and t+1 — with reuse
        // it should stay in the zone between them.
        let arch = arch();
        let staged = preprocess(&bench_circuits::ghz(8));
        let plan = plan_placement(&arch, &staged, &cfg(true)).unwrap();
        assert!(plan.total_reused_qubits() > 0, "chain circuit must reuse");
    }

    #[test]
    fn no_reuse_config_never_reuses() {
        let arch = arch();
        let staged = preprocess(&bench_circuits::ghz(8));
        let plan = plan_placement(&arch, &staged, &cfg(false)).unwrap();
        assert_eq!(plan.total_reused_qubits(), 0);
    }

    #[test]
    fn static_mode_returns_home() {
        let arch = arch();
        let staged = preprocess(&bench_circuits::ghz(6));
        let mut c = cfg(false);
        c.dynamic = false;
        let plan = plan_placement(&arch, &staged, &c).unwrap();
        plan.validate(&arch, &staged).unwrap();
        // After any stage, a qubit in storage must sit at its initial trap.
        for stage in &plan.stages {
            for (q, loc) in stage.during.iter().enumerate() {
                if loc.is_storage() {
                    assert_eq!(*loc, plan.initial[q], "static placement moved qubit {q}");
                }
            }
        }
    }

    #[test]
    fn idle_qubits_never_in_zone() {
        let arch = arch();
        let staged = preprocess(&bench_circuits::bv(10, 9));
        let plan = plan_placement(&arch, &staged, &cfg(true)).unwrap();
        for (t, stage) in plan.stages.iter().enumerate() {
            let gate_qubits: HashSet<usize> =
                staged.stages[t].gates.iter().flat_map(|g| [g.a, g.b]).collect();
            for (q, loc) in stage.during.iter().enumerate() {
                if !gate_qubits.contains(&q) {
                    assert!(loc.is_storage(), "stage {t}: idle qubit {q} at {loc}");
                }
            }
        }
    }

    #[test]
    fn too_many_gates_detected() {
        // Monolithic 2x2 = 4 sites; a stage with 5 parallel gates cannot fit.
        let arch = Architecture::monolithic(2, 2);
        let mut c = Circuit::new("wide", 10);
        for i in 0..5 {
            c.cz(2 * i, 2 * i + 1);
        }
        let staged = preprocess(&c);
        // Monolithic has no storage; use a zoned arch with a tiny zone.
        let _ = arch;
        let small = small_zoned(2, 2);
        let err = plan_placement(&small, &staged, &cfg(false)).unwrap_err();
        assert!(matches!(err, PlaceError::TooManyGates { .. }), "{err:?}");
    }

    fn small_zoned(rows: usize, cols: usize) -> Architecture {
        use zac_arch::{AodArray, Point, SlmArray, Zone};
        let storage = Zone::new(
            0,
            Point::new(0.0, 0.0),
            (100.0, 40.0),
            vec![SlmArray::new(0, (3.0, 3.0), 30, 10, Point::new(0.0, 0.0))],
        );
        let width = (cols - 1).max(1) as f64 * 12.0 + 2.0;
        let height = (rows - 1).max(1) as f64 * 10.0;
        let ent = Zone::new(
            0,
            Point::new(0.0, 50.0),
            (width, height.max(1.0)),
            vec![
                SlmArray::new(1, (12.0, 10.0), cols, rows, Point::new(0.0, 50.0)),
                SlmArray::new(2, (12.0, 10.0), cols, rows, Point::new(2.0, 50.0)),
            ],
        );
        Architecture::new(
            "small",
            vec![AodArray::new(0, 2.0, 50, 50)],
            vec![storage],
            vec![ent],
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn ising_parallel_stage_fits_reference_zone() {
        let arch = arch();
        let staged = preprocess(&bench_circuits::ising(42));
        let plan = plan_placement(&arch, &staged, &cfg(true)).unwrap();
        plan.validate(&arch, &staged).unwrap();
        // First Rydberg stage hosts 21 parallel gates.
        assert_eq!(plan.stages[0].gate_sites.len(), 21);
        let sites: HashSet<SiteId> = plan.stages[0].gate_sites.iter().map(|(_, s)| *s).collect();
        assert_eq!(sites.len(), 21, "gates at distinct sites");
    }

    #[test]
    fn multi_zone_architecture_is_usable() {
        let arch = Architecture::arch2_two_zones();
        let staged = preprocess(&bench_circuits::ising(20));
        let plan = plan_placement(&arch, &staged, &cfg(true)).unwrap();
        plan.validate(&arch, &staged).unwrap();
    }

    #[test]
    fn reuse_reduces_transition_distance_on_ghz() {
        let arch = arch();
        let staged = preprocess(&bench_circuits::ghz(12));
        let with = plan_placement(&arch, &staged, &cfg(true)).unwrap();
        let without = plan_placement(&arch, &staged, &cfg(false)).unwrap();
        let dist = |plan: &PlacementPlan| -> f64 {
            let mut cur = plan.initial.clone();
            let mut total = 0.0;
            for s in &plan.stages {
                for (q, loc) in cur.iter().enumerate() {
                    total += arch.position(*loc).distance(arch.position(s.during[q]));
                }
                cur = s.during.clone();
            }
            total
        };
        assert!(
            dist(&with) < dist(&without),
            "reuse {} !< no-reuse {}",
            dist(&with),
            dist(&without)
        );
    }
}
