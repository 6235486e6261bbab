//! Fault-injection tests for the serving stack's resilience layer: panic
//! isolation + worker respawn, the per-compiler circuit breaker, compile
//! deadlines via cooperative cancellation, and priority-aware shedding.
//!
//! Fault plans are **process-global** (`zac_telemetry::fault`), so every
//! test here — armed or not — serializes on [`GATE`]; this file is its own
//! test binary precisely so an armed plan can never leak into the main
//! service suite running in another process.

use std::sync::Mutex;
use std::time::{Duration, Instant};
use zac_arch::Architecture;
use zac_circuit::qasm::{parse_qasm, to_qasm};
use zac_circuit::{bench_circuits, preprocess};
use zac_core::{Compiler, Zac, ZacConfig};
use zac_serve::{
    CircuitEntry, EntryError, EntryOutcome, RejectReason, Request, Response, Service, ServiceConfig,
};
use zac_telemetry::{fault, FaultPlan};

/// Serializes every test in this binary: fault plans are process-global.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn test_zac_config() -> ZacConfig {
    let mut config = zac_bench::zac_config();
    config.placement.sa_iterations = 60;
    config
}

fn entry(n: usize) -> CircuitEntry {
    let circuit = bench_circuits::ghz(n);
    CircuitEntry { name: circuit.name().to_string(), qasm: to_qasm(&circuit) }
}

fn drain(service: &Service, request: Request) -> Vec<Response> {
    service.submit(request).iter().collect()
}

/// The entry outcomes of a drained response stream, in entry order.
fn outcomes(responses: &[Response]) -> Vec<(usize, EntryOutcome)> {
    let mut out: Vec<_> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Result { entry, outcome, .. } => Some((*entry, outcome.clone())),
            _ => None,
        })
        .collect();
    out.sort_by_key(|(entry, _)| *entry);
    out
}

#[test]
fn injected_compile_panics_are_isolated_and_the_worker_respawns() {
    let _gate = gate();
    let service = Service::new(ServiceConfig {
        workers: 1,
        zac_config: test_zac_config(),
        ..Default::default()
    });

    fault::arm(FaultPlan::parse("1:serve.exec.compile=panic").expect("plan parses"));
    let responses = drain(&service, Request::new("boom", "Zoned-ZAC", vec![entry(3)]));
    fault::disarm();

    let outcome = &outcomes(&responses)[0].1;
    match outcome {
        EntryOutcome::Failed(EntryError::Panicked { message }) => {
            assert!(message.contains("serve.exec.compile"), "payload names the point: {message}");
        }
        other => panic!("expected a panic failure, got {other:?}"),
    }
    assert!(matches!(responses.last(), Some(Response::Done(d)) if d.failed == 1));
    assert_eq!(service.worker_respawns(), 1, "the supervisor respawned the panicked worker");

    // The respawned worker keeps serving — on the same single-worker pool.
    let responses = drain(&service, Request::new("after", "Zoned-ZAC", vec![entry(3)]));
    assert!(matches!(responses.last(), Some(Response::Done(d)) if d.ok == 1), "{responses:?}");
}

#[test]
fn injected_io_faults_fail_the_entry_with_a_typed_compile_error() {
    let _gate = gate();
    let service = Service::new(ServiceConfig {
        workers: 1,
        zac_config: test_zac_config(),
        ..Default::default()
    });

    fault::arm(FaultPlan::parse("2:serve.exec.compile=io").expect("plan parses"));
    let responses = drain(&service, Request::new("io", "Zoned-ZAC", vec![entry(3)]));
    fault::disarm();

    match &outcomes(&responses)[0].1 {
        EntryOutcome::Failed(EntryError::Compile(reason)) => {
            assert!(reason.contains("injected fault"), "{reason}");
        }
        other => panic!("expected a compile failure, got {other:?}"),
    }
    assert_eq!(service.worker_respawns(), 0, "io faults do not kill the worker");
}

#[test]
fn breaker_opens_after_consecutive_panics_and_recovers_through_a_probe() {
    let _gate = gate();
    let service = Service::new(ServiceConfig {
        workers: 1,
        breaker_threshold: 2,
        breaker_cooldown_ms: 100,
        zac_config: test_zac_config(),
        ..Default::default()
    });

    fault::arm(FaultPlan::parse("3:serve.exec.compile=panic").expect("plan parses"));
    // Two consecutive panics reach the threshold and open the breaker.
    for id in ["p1", "p2"] {
        let responses = drain(&service, Request::new(id, "Zoned-ZAC", vec![entry(3)]));
        assert!(
            matches!(&outcomes(&responses)[0].1, EntryOutcome::Failed(EntryError::Panicked { .. })),
            "{responses:?}"
        );
    }

    // Open: entries are rejected without running (the armed panic plan
    // would otherwise fire — rejection proves the compile never started).
    let responses = drain(&service, Request::new("rejected", "Zoned-ZAC", vec![entry(4)]));
    match &outcomes(&responses)[0].1 {
        EntryOutcome::Rejected(RejectReason::BreakerOpen { failures, cooldown_ms }) => {
            assert_eq!((*failures, *cooldown_ms), (2, 100));
        }
        other => panic!("expected a breaker rejection, got {other:?}"),
    }

    // A half-open probe that still panics re-opens immediately…
    std::thread::sleep(std::time::Duration::from_millis(150));
    let responses = drain(&service, Request::new("probe1", "Zoned-ZAC", vec![entry(3)]));
    assert!(
        matches!(&outcomes(&responses)[0].1, EntryOutcome::Failed(EntryError::Panicked { .. })),
        "the probe is admitted and fails: {responses:?}"
    );
    let responses = drain(&service, Request::new("reopened", "Zoned-ZAC", vec![entry(4)]));
    assert!(
        matches!(
            &outcomes(&responses)[0].1,
            EntryOutcome::Rejected(RejectReason::BreakerOpen { .. })
        ),
        "a failed probe re-opens the breaker: {responses:?}"
    );
    fault::disarm();

    // …and a probe that succeeds closes it for good.
    std::thread::sleep(std::time::Duration::from_millis(150));
    for id in ["probe2", "closed"] {
        let responses = drain(&service, Request::new(id, "Zoned-ZAC", vec![entry(3)]));
        assert!(matches!(responses.last(), Some(Response::Done(d)) if d.ok == 1), "{responses:?}");
    }
}

#[test]
fn half_open_probe_ending_deterministically_closes_the_breaker() {
    let _gate = gate();
    let service = Service::new(ServiceConfig {
        workers: 1,
        breaker_threshold: 2,
        breaker_cooldown_ms: 100,
        zac_config: test_zac_config(),
        ..Default::default()
    });

    // Two consecutive panics open the breaker.
    fault::arm(FaultPlan::parse("5:serve.exec.compile=panic").expect("plan parses"));
    for id in ["p1", "p2"] {
        let responses = drain(&service, Request::new(id, "Zoned-ZAC", vec![entry(3)]));
        assert!(
            matches!(&outcomes(&responses)[0].1, EntryOutcome::Failed(EntryError::Panicked { .. })),
            "{responses:?}"
        );
    }
    fault::disarm();

    // The half-open probe ends in a *deterministic* failure — an injected
    // io fault surfacing as a typed compile error, not a panic or hang.
    std::thread::sleep(std::time::Duration::from_millis(150));
    fault::arm(FaultPlan::parse("5:serve.exec.compile=io").expect("plan parses"));
    let responses = drain(&service, Request::new("probe", "Zoned-ZAC", vec![entry(3)]));
    fault::disarm();
    assert!(
        matches!(&outcomes(&responses)[0].1, EntryOutcome::Failed(EntryError::Compile(_))),
        "the probe is admitted and fails deterministically: {responses:?}"
    );

    // The compiler answered, so the probe closes the breaker: the next
    // entry is admitted immediately — no cooldown, no breaker_open. (This
    // wedged permanently half-open before the deterministic-completion
    // outcomes counted as probe successes.)
    let responses = drain(&service, Request::new("after", "Zoned-ZAC", vec![entry(3)]));
    assert!(
        matches!(responses.last(), Some(Response::Done(d)) if d.ok == 1),
        "a deterministic probe outcome closes the breaker: {responses:?}"
    );
}

#[test]
fn request_deadline_cancellations_do_not_open_the_breaker() {
    let _gate = gate();
    let mut slow = zac_bench::zac_config();
    // Compiles run far past any request deadline unless cancelled (see
    // `compile_deadlines_cancel_runaway_work_cooperatively`). No
    // service-wide budget: every cancel is bound by the request's own.
    slow.placement.sa_iterations = 50_000_000;
    slow.placement.engine = zac_place::PlacementEngine::Exhaustive;
    let service = Service::new(ServiceConfig {
        workers: 1,
        breaker_threshold: 2,
        breaker_cooldown_ms: 60_000,
        zac_config: slow,
        ..Default::default()
    });

    // Threshold-many cancellations, all caused by the requests' own tight
    // deadlines — one impatient client must not trip the breaker.
    for id in ["c1", "c2"] {
        let mut request = Request::new(id, "Zoned-ZAC", vec![entry(8)]);
        request.deadline_ms = Some(5);
        let responses = drain(&service, request);
        assert!(
            matches!(
                &outcomes(&responses)[0].1,
                EntryOutcome::Failed(EntryError::Cancelled { .. })
            ),
            "{responses:?}"
        );
    }

    // A third short-deadline entry is still *admitted* (cancelled by its
    // own deadline, not rejected breaker_open): with the one-hour cooldown
    // an opened breaker could not have recovered here.
    let mut request = Request::new("c3", "Zoned-ZAC", vec![entry(8)]);
    request.deadline_ms = Some(5);
    let responses = drain(&service, request);
    assert!(
        matches!(&outcomes(&responses)[0].1, EntryOutcome::Failed(EntryError::Cancelled { .. })),
        "client-deadline cancels never open the breaker: {responses:?}"
    );
}

#[test]
fn compile_deadlines_cancel_runaway_work_cooperatively() {
    let _gate = gate();
    let mut slow = zac_bench::zac_config();
    // Enough SA iterations that the compile runs for tens of milliseconds —
    // far past the 5 ms budget — unless the deadline poll cancels it.
    // The engine is pinned: only the exhaustive engine always runs the full
    // budget (windowed caps iterations, so a windowed base config would
    // finish before the deadline and see nothing to cancel).
    slow.placement.sa_iterations = 50_000_000;
    slow.placement.engine = zac_place::PlacementEngine::Exhaustive;
    let service = Service::new(ServiceConfig {
        workers: 1,
        compile_deadline_ms: Some(5),
        zac_config: slow,
        ..Default::default()
    });

    let responses = drain(&service, Request::new("runaway", "Zoned-ZAC", vec![entry(8)]));
    match &outcomes(&responses)[0].1 {
        EntryOutcome::Failed(EntryError::Cancelled { after_ms }) => {
            assert!(*after_ms >= 5, "cancelled only after the budget elapsed: {after_ms}ms");
            assert!(*after_ms < 5_000, "cancellation is prompt, not a full compile: {after_ms}ms");
        }
        other => panic!("expected a cancelled entry, got {other:?}"),
    }
    assert!(matches!(responses.last(), Some(Response::Done(d)) if d.failed == 1));
    assert_eq!(service.worker_respawns(), 0, "cancellation unwinds cleanly, no panic");
}

/// A request deadline binds where the time goes. Under the reduced-SA
/// config GHZ-1500 spends nearly all of its compile in the dynamic
/// placement stage loop and the scheduler's narrow transitions (about 3 s
/// in a debug build, 30× the deadline). Without a poll in every placement
/// stage and on every transition's first round the entry comes back `ok`
/// seconds late; with them it is cancelled within 100 ms of its deadline,
/// and the worker serves the next request exactly as a direct compile.
#[test]
fn request_deadline_cancels_placement_and_scheduling_promptly() {
    const DEADLINE_MS: u64 = 100;
    let _gate = gate();
    let service = Service::new(ServiceConfig {
        workers: 1,
        zac_config: test_zac_config(),
        ..Default::default()
    });

    let mut request = Request::new("long", "Zoned-ZAC", vec![entry(1500)]);
    request.deadline_ms = Some(DEADLINE_MS);
    let submitted = Instant::now();
    let stream = service.submit(request);
    let Ok(Response::Result { outcome, .. }) = stream.recv() else {
        panic!("the entry's result comes first");
    };
    let elapsed = submitted.elapsed();
    // Only the outcome's kind: a full compile output is megabytes of text.
    let kind = match &outcome {
        EntryOutcome::Ok(_) => "ok",
        EntryOutcome::Rejected(_) => "rejected",
        EntryOutcome::Failed(error) => error.kind(),
    };
    assert_eq!(kind, "cancelled", "outcome after {elapsed:?}");
    assert!(
        elapsed < Duration::from_millis(DEADLINE_MS + 100),
        "cancelled {elapsed:?} after submission, deadline {DEADLINE_MS} ms"
    );
    assert!(matches!(stream.recv(), Ok(Response::Done(d)) if d.failed == 1));

    let responses = drain(&service, Request::new("next", "Zoned-ZAC", vec![entry(8)]));
    let served = outcomes(&responses)[0].1.output().expect("the next request compiles").clone();
    let e = entry(8);
    let circuit = parse_qasm(&e.qasm, &e.name).expect("test QASM parses");
    let zac = Zac::with_config(Architecture::reference(), test_zac_config());
    let direct = Compiler::compile(&zac, &preprocess(&circuit)).expect("direct compile");
    assert_eq!(
        served.semantic_json().unwrap(),
        direct.semantic_json().unwrap(),
        "served output must match a direct compile"
    );
}

#[test]
fn overload_sheds_strictly_lower_priority_queued_work_first() {
    let _gate = gate();
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        zac_config: test_zac_config(),
        ..Default::default()
    });

    // Pin the single worker on a long injected delay so the queue state is
    // deterministic while we stack up the contenders.
    fault::arm(FaultPlan::parse("4:serve.exec.compile=delay400").expect("plan parses"));
    let blocker_rx = service.submit(Request::new("blocker", "Zoned-ZAC", vec![entry(3)]));
    // Wait until the worker has dequeued the blocker (queue back to empty).
    std::thread::sleep(std::time::Duration::from_millis(100));
    fault::disarm();

    let mut low = Request::new("low", "Zoned-ZAC", vec![entry(4), entry(5)]);
    low.priority = 0;
    let low_rx = service.submit(low);
    let mut high = Request::new("high", "Zoned-ZAC", vec![entry(6), entry(7)]);
    high.priority = 10;
    let high_responses = drain(&service, high);
    let low_responses: Vec<Response> = low_rx.iter().collect();
    let _: Vec<Response> = blocker_rx.iter().collect();

    // Both of low's queued entries were shed to make room for high's.
    for (_, outcome) in outcomes(&low_responses) {
        match outcome {
            EntryOutcome::Rejected(RejectReason::Shed { depth, cap }) => {
                assert_eq!((depth, cap), (2, 2));
            }
            other => panic!("expected shed entries, got {other:?}"),
        }
    }
    assert!(
        matches!(low_responses.last(), Some(Response::Done(d)) if d.rejected == 2),
        "shed entries still terminate their request: {low_responses:?}"
    );
    assert!(
        matches!(high_responses.last(), Some(Response::Done(d)) if d.ok == 2),
        "the high-priority request compiles in the freed slots: {high_responses:?}"
    );
}
