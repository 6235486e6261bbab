//! Steady-state allocation test for the scheduler's job-construction stage.
//!
//! With a warmed [`ScheduleWorkspace`], building a transition's pending jobs
//! — leg splitting, the coordinate-rank conflict sweep, MIS partitioning and
//! job planning — must perform **zero** heap allocations: every buffer
//! (including the `PendingJob` shells) is pooled in the workspace. A
//! counting global allocator makes the claim checkable instead of asserted
//! (the acceptance criterion of the scheduler-core refactor; same technique
//! as `zac-graph/tests/alloc_free.rs`).
//!
//! Emission is excluded by design: it materializes the output `Program`,
//! whose instructions are owned allocations by definition.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use zac_arch::{Architecture, Loc, SiteId};
use zac_circuit::Gate2;
use zac_place::StagePlan;
use zac_schedule::internals::{build_transition_pending, drain_pending, prepare_workspace};
use zac_schedule::{ScheduleConfig, ScheduleWorkspace};

struct CountingAlloc;

thread_local! {
    // Per-thread, so allocations made by sibling test threads running in
    // parallel never show up in this thread's before/after difference.
    // `const` initialization keeps the access itself allocation-free.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches only a const-initialized
// thread-local, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// A synthetic transition: `k` gate fetches into sites (two moves each) and
/// `r` returns to storage, phase-shifted by `salt` so rounds differ.
fn stage_plan(n: usize, k: usize, salt: usize) -> StagePlan {
    let mut during: Vec<Loc> =
        (0..n).map(|q| Loc::Storage { zone: 0, row: 99 - (q / 30), col: (q % 30) * 2 }).collect();
    let mut gate_sites = Vec::new();
    for g in 0..k {
        let (a, b) = (2 * g, 2 * g + 1);
        let col = (g + salt) % 10;
        during[a] = Loc::Site { zone: 0, row: 0, col, slot: 0 };
        during[b] = Loc::Site { zone: 0, row: 0, col, slot: 1 };
        gate_sites.push((Gate2 { id: g, a, b }, SiteId::new(0, 0, col)));
    }
    StagePlan { gate_sites, pre_returns: None, during, used_reuse: false, reused_qubits: 0 }
}

#[test]
fn steady_state_job_construction_does_not_allocate() {
    let arch = Architecture::reference();
    let cfg = ScheduleConfig::default();
    let n = 24;
    let initial: Vec<Loc> =
        (0..n).map(|q| Loc::Storage { zone: 0, row: 99 - (q / 30), col: (q % 30) * 2 }).collect();
    let mut ws = ScheduleWorkspace::new();
    prepare_workspace(&mut ws, &arch, &initial, 2);

    // Warm-up: one full period of the shape mix (k and the column pattern
    // both repeat with period 10), growing every buffer and enough pooled
    // job shells for the conflict-heaviest transition.
    for round in 0..10usize {
        build_transition_pending(&arch, &cfg, &mut ws, &stage_plan(n, 1 + round % 10, round))
            .unwrap();
        assert!(drain_pending(&mut ws) > 0);
    }

    for round in 10..50usize {
        let plan = stage_plan(n, 1 + round % 10, round);
        let before = allocations();
        build_transition_pending(&arch, &cfg, &mut ws, &plan).unwrap();
        let jobs = drain_pending(&mut ws);
        let after = allocations();
        assert!(jobs > 0, "round {round} built no jobs");
        assert_eq!(after - before, 0, "round {round}: job construction allocated in steady state");
    }
}

/// Pool reuse never changes what gets planned: durations repeat exactly for
/// a repeated transition.
#[test]
fn pooled_construction_is_deterministic() {
    let arch = Architecture::reference();
    let cfg = ScheduleConfig::default();
    let n = 24;
    let initial: Vec<Loc> =
        (0..n).map(|q| Loc::Storage { zone: 0, row: 99 - (q / 30), col: (q % 30) * 2 }).collect();
    let mut ws = ScheduleWorkspace::new();
    prepare_workspace(&mut ws, &arch, &initial, 1);
    let plan = stage_plan(n, 6, 3);
    build_transition_pending(&arch, &cfg, &mut ws, &plan).unwrap();
    let first = zac_schedule::internals::pending_durations(&ws);
    drain_pending(&mut ws);
    for _ in 0..5 {
        build_transition_pending(&arch, &cfg, &mut ws, &plan).unwrap();
        assert_eq!(zac_schedule::internals::pending_durations(&ws), first);
        drain_pending(&mut ws);
    }
    assert!(!first.is_empty());
}
