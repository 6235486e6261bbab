//! The event-driven LPT emission loop (paper Sec. VI).
//!
//! The pre-refactor loop rescanned *every* pending job on *every* iteration
//! — rebuilding a `HashSet<Loc>` of sources per job per scan — to find the
//! ready set, an O(jobs² · moves) pattern that dominated scheduling time on
//! wide circuits. The loop here is event-driven:
//!
//! * readiness is **cached** per job (`ws.ready`) and kept current by an
//!   indexed recheck: executing a job only re-examines the jobs registered
//!   against its released source traps, its newly occupied target traps,
//!   and its moved qubits (`ws.target_jobs` / `ws.jobs_by_qubit`) — exactly
//!   the jobs whose readiness inputs changed;
//! * trap occupancy and vacate times live in generation-stamped dense
//!   tables ([`zac_arch::TrapSet`] / [`zac_arch::TrapMap`]) instead of
//!   `HashSet`/`HashMap<Loc, _>`;
//! * each iteration's winner scan reads one cached bool + one `f64` per
//!   pending job.
//!
//! Selection semantics are **bit-identical** to the rescan loop (same
//! `swap_remove` position dynamics, same last-max LPT tie-break, same
//! first-min AOD pick), locked by the golden digests in
//! `tests/bit_identity.rs`.
//!
//! Deadlocks (no pending job has all targets free) dissolve a multi-move
//! job into singles, or detour a single blocked move through a free storage
//! trap found by a rotating-cursor scan over the workspace's dense trap
//! table — the pre-refactor implementation cloned the whole occupancy set
//! and rescanned every storage trap from the origin on every deadlock.

use crate::deps::job_begin_time;
use crate::jobs::{plan_pending, PendingJob};
use crate::workspace::{GeoTables, ScheduleWorkspace};
use crate::{ScheduleConfig, ScheduleError};
use zac_arch::{Architecture, Loc, TrapSet};
use zac_circuit::U3Op;
use zac_zair::{shift_job, Instruction, JobBuilder, MoveSpec, Program, QubitLoc, U3Application};

/// A job is ready when every qubit is actually at its claimed source
/// (orders the round-trip legs) and all target traps are free (own sources
/// excluded: the job picks everything up before dropping).
fn is_ready(job: &PendingJob, current: &[Loc], occupied: &TrapSet) -> bool {
    job.moves.iter().enumerate().all(|(k, m)| {
        current[m.qubit] == m.from
            && (job.own_source[k] || !occupied.contains(job.to_flat[k] as usize))
    })
}

/// Registers `job` (at position `pos`) in the qubit and target-trap indexes.
fn register(
    pos: usize,
    job: &PendingJob,
    jobs_by_qubit: &mut [Vec<u32>],
    target_jobs: &mut [Vec<u32>],
    touched_qubits: &mut Vec<u32>,
    touched_targets: &mut Vec<u32>,
) {
    for (k, m) in job.moves.iter().enumerate() {
        let ql = &mut jobs_by_qubit[m.qubit];
        if ql.is_empty() {
            touched_qubits.push(m.qubit as u32);
        }
        ql.push(pos as u32);
        let tl = &mut target_jobs[job.to_flat[k] as usize];
        if tl.is_empty() {
            touched_targets.push(job.to_flat[k]);
        }
        tl.push(pos as u32);
    }
}

/// Removes `job`'s entries (value `pos`) from the indexes.
fn unregister(
    pos: usize,
    job: &PendingJob,
    jobs_by_qubit: &mut [Vec<u32>],
    target_jobs: &mut [Vec<u32>],
) {
    let pos = pos as u32;
    for (k, m) in job.moves.iter().enumerate() {
        let ql = &mut jobs_by_qubit[m.qubit];
        let at = ql.iter().position(|&x| x == pos).expect("registered qubit entry");
        ql.swap_remove(at);
        let tl = &mut target_jobs[job.to_flat[k] as usize];
        let at = tl.iter().position(|&x| x == pos).expect("registered target entry");
        tl.swap_remove(at);
    }
}

/// Rewrites `job`'s index entries from position `old` to `new` (the job a
/// `swap_remove` moved into the vacated slot).
fn reposition(
    old: usize,
    new: usize,
    job: &PendingJob,
    jobs_by_qubit: &mut [Vec<u32>],
    target_jobs: &mut [Vec<u32>],
) {
    let (old, new) = (old as u32, new as u32);
    for (k, m) in job.moves.iter().enumerate() {
        let ql = &mut jobs_by_qubit[m.qubit];
        let at = ql.iter().position(|&x| x == old).expect("registered qubit entry");
        ql[at] = new;
        let tl = &mut target_jobs[job.to_flat[k] as usize];
        let at = tl.iter().position(|&x| x == old).expect("registered target entry");
        tl[at] = new;
    }
}

/// Emits every pending job of one transition into `program`, returning the
/// transition's end time (at least `last_rydberg_end`).
///
/// # Errors
///
/// [`ScheduleError::NoDetourTrap`] if a movement cycle cannot be broken, or
/// [`ScheduleError::Job`] if a job cannot be realized.
pub(crate) fn emit_transition(
    arch: &Architecture,
    cfg: &ScheduleConfig,
    ws: &mut ScheduleWorkspace,
    program: &mut Program,
    last_rydberg_end: f64,
) -> Result<f64, ScheduleError> {
    // Reset the per-transition index state (O(touched), not O(traps)).
    ws.clear_registrations();
    let ScheduleWorkspace {
        geo,
        current,
        avail,
        aod_avail,
        pending,
        ready,
        jobs_by_qubit,
        target_jobs,
        touched_targets,
        touched_qubits,
        dirty,
        builder,
        job_pool,
        detour_cursor,
        ..
    } = ws;
    let geo = geo.as_mut().expect("workspace prepared");

    // Register this transition's jobs.
    for (pos, job) in pending.iter().enumerate() {
        register(pos, job, jobs_by_qubit, target_jobs, touched_qubits, touched_targets);
    }

    // Trap occupancy for emission ordering (execute-when-free) and vacate
    // times, in dense generation-stamped tables.
    geo.occupied.clear();
    for &loc in current.iter() {
        geo.occupied.insert(geo.index.flat(loc));
    }
    geo.vacated.clear();

    ready.clear();
    for job in pending.iter() {
        ready.push(is_ready(job, current, &geo.occupied));
    }

    let mut transition_end = last_rydberg_end;
    // Telemetry batched in locals; one flush per transition keeps the
    // emission loop free of atomics (counts are dropped on the error paths,
    // which abort the compile anyway).
    let (mut jobs_emitted, mut readiness_reexams) = (0u64, 0u64);
    let mut rounds = 0u64;
    while !pending.is_empty() {
        // Cooperative cancellation: a passed deadline aborts the emission
        // cleanly instead of holding the worker past it. Polled on the first
        // round of every transition (narrow transitions never reach 64
        // rounds) and every 64 rounds after.
        if rounds & 63 == 0 && zac_telemetry::cancel::cancelled() {
            return Err(ScheduleError::Cancelled);
        }
        rounds += 1;
        // LPT: among ready jobs take the longest; the ascending scan with a
        // `≥` update reproduces `max_by`'s last-max tie-break exactly.
        let mut winner: Option<usize> = None;
        for i in 0..pending.len() {
            if !ready[i] {
                continue;
            }
            winner = match winner {
                Some(b)
                    if pending[i].spec_duration.total_cmp(&pending[b].spec_duration).is_lt() =>
                {
                    Some(b)
                }
                _ => Some(i),
            };
        }
        let Some(i) = winner else {
            // Deadlock: split a multi-move job, or detour a single move
            // through a free storage trap. Only source-consistent jobs
            // (qubits actually at their claimed origins) participate.
            resolve_deadlock(
                arch,
                cfg,
                geo,
                current,
                pending,
                ready,
                jobs_by_qubit,
                target_jobs,
                touched_qubits,
                touched_targets,
                builder,
                job_pool,
                detour_cursor,
            )?;
            continue;
        };

        let p = pending.swap_remove(i);
        ready.swap_remove(i);
        unregister(i, &p, jobs_by_qubit, target_jobs);
        if i < pending.len() {
            reposition(pending.len(), i, &pending[i], jobs_by_qubit, target_jobs);
        }

        // Assign the earliest-available AOD (first-min, as `min_by`).
        let (aod_id, _) = aod_avail
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one AOD");
        let begin = job_begin_time(&p, aod_avail[aod_id], avail, &geo.vacated, last_rydberg_end);
        let mut job = builder.build(arch, &p.moves, cfg.t_tran_us)?;
        job.aod_id = aod_id;
        shift_job(&mut job, begin);

        for (k, m) in p.moves.iter().enumerate() {
            geo.vacated.set(p.from_flat[k] as usize, job.pick_end());
            avail[m.qubit] = job.end_time;
            current[m.qubit] = m.to;
            geo.occupied.remove(p.from_flat[k] as usize);
        }
        for &t in &p.to_flat {
            geo.occupied.insert(t as usize);
        }
        aod_avail[aod_id] = job.end_time;
        transition_end = transition_end.max(job.end_time);
        program.instructions.push(Instruction::RearrangeJob(job));
        jobs_emitted += 1;

        // Event-driven recheck: only jobs registered against the released
        // sources, the newly occupied targets, or the moved qubits can have
        // changed readiness.
        dirty.clear();
        for (k, m) in p.moves.iter().enumerate() {
            dirty.extend_from_slice(&target_jobs[p.from_flat[k] as usize]);
            dirty.extend_from_slice(&target_jobs[p.to_flat[k] as usize]);
            dirty.extend_from_slice(&jobs_by_qubit[m.qubit]);
        }
        readiness_reexams += dirty.len() as u64;
        for &pos in dirty.iter() {
            ready[pos as usize] = is_ready(&pending[pos as usize], current, &geo.occupied);
        }

        let mut p = p;
        p.recycle();
        job_pool.push(p);
    }
    zac_telemetry::metrics::SCHEDULE_JOBS_EMITTED.add(jobs_emitted);
    zac_telemetry::metrics::SCHEDULE_READINESS_REEXAMS.add(readiness_reexams);
    Ok(transition_end)
}

/// Resolves an emission deadlock: no pending job has all targets free.
///
/// Multi-move jobs are dissolved into single-move jobs; a deadlocked single
/// move is detoured through a free storage trap (two jobs), which always
/// makes progress because storage is far larger than the moving set.
#[allow(clippy::too_many_arguments)]
fn resolve_deadlock(
    arch: &Architecture,
    cfg: &ScheduleConfig,
    geo: &mut GeoTables,
    current: &[Loc],
    pending: &mut Vec<PendingJob>,
    ready: &mut Vec<bool>,
    jobs_by_qubit: &mut [Vec<u32>],
    target_jobs: &mut [Vec<u32>],
    touched_qubits: &mut Vec<u32>,
    touched_targets: &mut Vec<u32>,
    builder: &mut JobBuilder,
    job_pool: &mut Vec<PendingJob>,
    detour_cursor: &mut usize,
) -> Result<(), ScheduleError> {
    let take = |i: usize,
                pending: &mut Vec<PendingJob>,
                ready: &mut Vec<bool>,
                jobs_by_qubit: &mut [Vec<u32>],
                target_jobs: &mut [Vec<u32>]|
     -> PendingJob {
        let p = pending.swap_remove(i);
        ready.swap_remove(i);
        unregister(i, &p, jobs_by_qubit, target_jobs);
        if i < pending.len() {
            reposition(pending.len(), i, &pending[i], jobs_by_qubit, target_jobs);
        }
        p
    };
    let push_single = |spec: MoveSpec,
                       geo: &mut GeoTables,
                       pending: &mut Vec<PendingJob>,
                       ready: &mut Vec<bool>,
                       jobs_by_qubit: &mut [Vec<u32>],
                       target_jobs: &mut [Vec<u32>],
                       touched_qubits: &mut Vec<u32>,
                       touched_targets: &mut Vec<u32>,
                       builder: &mut JobBuilder,
                       job_pool: &mut Vec<PendingJob>|
     -> Result<(), ScheduleError> {
        let mut job = job_pool.pop().unwrap_or_default();
        job.recycle();
        job.moves.push(spec);
        plan_pending(arch, cfg, builder, geo, &mut job)?;
        let pos = pending.len();
        ready.push(is_ready(&job, current, &geo.occupied));
        register(pos, &job, jobs_by_qubit, target_jobs, touched_qubits, touched_targets);
        pending.push(job);
        Ok(())
    };

    // Prefer dissolving a blocked multi-move job.
    if let Some(i) = pending.iter().position(|p| p.moves.len() > 1 && p.source_consistent(current))
    {
        let p = take(i, pending, ready, jobs_by_qubit, target_jobs);
        for k in 0..p.moves.len() {
            push_single(
                p.moves[k],
                geo,
                pending,
                ready,
                jobs_by_qubit,
                target_jobs,
                touched_qubits,
                touched_targets,
                builder,
                job_pool,
            )?;
        }
        let mut p = p;
        p.recycle();
        job_pool.push(p);
        return Ok(());
    }
    // All singles: detour the first occupancy-blocked, source-consistent one.
    let i = pending
        .iter()
        .position(|p| {
            p.source_consistent(current)
                && (0..p.moves.len()).any(|k| geo.occupied.contains(p.to_flat[k] as usize))
        })
        .expect("deadlock implies a blocked source-consistent job");
    let p = take(i, pending, ready, jobs_by_qubit, target_jobs);
    let m = p.moves[0];
    let temp = free_storage_trap(geo, pending, detour_cursor).ok_or(ScheduleError::NoDetourTrap)?;
    for spec in [MoveSpec::new(m.qubit, m.from, temp), MoveSpec::new(m.qubit, temp, m.to)] {
        push_single(
            spec,
            geo,
            pending,
            ready,
            jobs_by_qubit,
            target_jobs,
            touched_qubits,
            touched_targets,
            builder,
            job_pool,
        )?;
    }
    let mut p = p;
    p.recycle();
    job_pool.push(p);
    Ok(())
}

/// Finds a storage trap neither occupied nor used as a pending endpoint.
///
/// The scan walks the dense storage-trap range of the workspace's
/// [`zac_arch::TrapIndex`] from a rotating cursor (wrapping), so repeated
/// detours within one schedule spread across storage instead of rescanning
/// — and re-colliding on — the same leading traps. The pre-refactor
/// implementation cloned the entire occupancy `HashSet` and walked every
/// storage trap from the origin on every call.
fn free_storage_trap(
    geo: &mut GeoTables,
    pending: &[PendingJob],
    cursor: &mut usize,
) -> Option<Loc> {
    geo.detour_used.clear();
    for p in pending {
        for k in 0..p.moves.len() {
            geo.detour_used.insert(p.from_flat[k] as usize);
            geo.detour_used.insert(p.to_flat[k] as usize);
        }
    }
    let n = geo.index.num_storage_traps();
    for step in 0..n {
        let f = (*cursor + step) % n;
        if !geo.occupied.contains(f) && !geo.detour_used.contains(f) {
            *cursor = (f + 1) % n;
            return Some(geo.index.storage_loc(f));
        }
    }
    None
}

/// Emits one sequential 1Q-gate group; returns its end time (or 0 if empty).
pub(crate) fn emit_one_q_group(
    program: &mut Program,
    ops: &[U3Op],
    current: &[Loc],
    avail: &mut [f64],
    cfg: &ScheduleConfig,
    qloc: &impl Fn(usize, Loc) -> QubitLoc,
) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    let begin = ops.iter().map(|op| avail[op.qubit]).fold(0.0, f64::max);
    let end = begin + cfg.t_1q_us * ops.len() as f64;
    for op in ops {
        avail[op.qubit] = end;
    }
    program.instructions.push(Instruction::OneQGate {
        gates: ops
            .iter()
            .map(|op| U3Application {
                theta: op.theta,
                phi: op.phi,
                lambda: op.lambda,
                loc: qloc(op.qubit, current[op.qubit]),
            })
            .collect(),
        begin_time: begin,
        end_time: end,
    });
    end
}
