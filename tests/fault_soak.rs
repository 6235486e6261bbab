//! The resilience acceptance soak (DESIGN.md §10): the bundled QASM corpus
//! is pushed through a [`Service`] under three different seeded fault
//! plans — cache IO faults, compiler panics, injected delays against a
//! tight compile deadline — and under *every* plan each submitted entry
//! must receive **exactly one terminal response**, no worker may be
//! permanently lost, and the service must keep serving afterwards.
//!
//! The final phase disarms injection entirely and re-runs the full
//! 17-circuit paper suite on a fresh service: outputs must be semantically
//! bit-identical (`semantic_json`) to direct compiles — the fault-point
//! instrumentation must be invisible when disarmed.
//!
//! Fault plans are process-global, so this file is its own test binary and
//! runs as a single `#[test]` with ordered phases.

use std::collections::HashMap;
use std::path::Path;
use zac::circuit::qasm::{parse_qasm, to_qasm};
use zac::circuit::{bench_circuits, preprocess};
use zac::compiler::{Zac, ZacConfig};
use zac::prelude::*;
use zac::serve::{Request, Response, Service, ServiceConfig};
use zac::telemetry::{fault, FaultPlan};

fn soak_config() -> ZacConfig {
    let mut cfg = ZacConfig::full();
    cfg.placement.sa_iterations = 100;
    cfg
}

/// The bundled corpus (`tests/corpus/*.qasm`) as wire entries.
fn bundled_corpus() -> Vec<CircuitEntry> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("bundled corpus directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x.eq_ignore_ascii_case("qasm")))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| CircuitEntry {
            name: path.file_stem().expect("stem").to_string_lossy().into_owned(),
            qasm: std::fs::read_to_string(&path).expect("corpus file readable"),
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("zac-soak-{}-{tag}", std::process::id()))
}

/// Drains one request and enforces the soak invariant: exactly one
/// terminal `Result` per entry (any outcome), then exactly one `Done`
/// whose tallies add up. Returns how many entries landed in each class.
fn drain_strictly(service: &Service, request: Request) -> (usize, usize, usize) {
    let total = request.circuits.len();
    let id = request.id.clone();
    let mut seen: HashMap<usize, usize> = HashMap::new();
    let mut done = None;
    let (mut ok, mut rejected, mut failed) = (0usize, 0usize, 0usize);
    for response in service.submit(request) {
        match response {
            Response::Result { entry, outcome, .. } => {
                assert!(done.is_none(), "{id}: results after the terminal Done");
                *seen.entry(entry).or_default() += 1;
                match outcome {
                    EntryOutcome::Ok(_) => ok += 1,
                    EntryOutcome::Rejected(_) => rejected += 1,
                    EntryOutcome::Failed(_) => failed += 1,
                }
            }
            Response::Done(d) => {
                assert!(done.replace(d).is_none(), "{id}: two Done lines");
            }
            other => panic!("{id}: unexpected response {other:?}"),
        }
    }
    assert_eq!(seen.len(), total, "{id}: every entry got a terminal response");
    for (entry, count) in &seen {
        assert_eq!(*count, 1, "{id}: entry {entry} got {count} terminal responses");
    }
    let done = done.unwrap_or_else(|| panic!("{id}: stream must end with Done"));
    assert_eq!(
        (done.ok, done.rejected, done.failed),
        (ok, rejected, failed),
        "{id}: Done tallies must match the streamed outcomes"
    );
    (ok, rejected, failed)
}

/// Runs `waves` corpus waves through `service` under `plan`, then disarms
/// and proves the service still compiles.
fn soak(label: &str, service: &Service, plan: &str, waves: usize) {
    let corpus = bundled_corpus();
    assert_eq!(corpus.len(), 10, "the bundled corpus");
    fault::arm(FaultPlan::parse(plan).expect("soak plan parses"));
    for wave in 0..waves {
        drain_strictly(
            service,
            Request::new(format!("{label}-{wave}"), "Zoned-ZAC", corpus.clone()),
        );
    }
    fault::disarm();

    // Give any breaker opened during the soak time to finish its cooldown,
    // then prove the pool still serves: a clean full wave succeeds.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let probe = format!("{label}-probe");
    let (ok, rejected, failed) =
        drain_strictly(service, Request::new(probe.clone(), "Zoned-ZAC", corpus.clone()));
    // A probe entry can still trip a half-open breaker check, but a clean
    // wave right after must be all-ok.
    if (ok, rejected, failed) != (corpus.len(), 0, 0) {
        let (ok, rejected, failed) =
            drain_strictly(service, Request::new(format!("{probe}-2"), "Zoned-ZAC", corpus));
        assert_eq!(
            (ok, rejected, failed),
            (10, 0, 0),
            "{label}: the service must fully recover once injection stops"
        );
    }
}

#[test]
fn soaked_service_always_terminates_and_recovers_bit_identical() {
    let injected_before = fault::injected();

    // Plan 1 — cache-layer IO faults against a segment-store-backed cache:
    // failed appends retry or surface as disk errors, failed reads degrade
    // to misses; compiles themselves never fail, so every wave is all-ok.
    let dir = temp_dir("cache-io");
    let service = Service::new(ServiceConfig {
        workers: 4,
        zac_config: soak_config(),
        cache: CompileCache::with_segment_store(64, &dir).expect("segment store opens"),
        breaker_cooldown_ms: 50,
        ..Default::default()
    });
    soak("cache-io", &service, "21:cache.disk.write=io@0.5,cache.disk.read=io@0.25", 3);
    let stats = service.cache().stats();
    assert!(
        stats.disk_retries > 0 || stats.disk_errors > 0,
        "the cache plan must actually bite: {stats:?}"
    );
    drop(service);
    std::fs::remove_dir_all(&dir).ok();

    // Plan 2 — compiler panics at 30%: entries fail with typed panic
    // responses (or breaker rejections while it is open), workers respawn,
    // and the pool never shrinks.
    let service = Service::new(ServiceConfig {
        workers: 4,
        zac_config: soak_config(),
        breaker_cooldown_ms: 50,
        ..Default::default()
    });
    soak("panic", &service, "22:serve.exec.compile=panic@0.3", 3);
    assert!(
        service.worker_respawns() > 0,
        "a 30% panic rate over 30 entries must kill (and respawn) workers"
    );
    drop(service);

    // Plan 3 — injected 20 ms delays against a 5 ms compile deadline:
    // delayed entries find their deadline passed at the first poll and are
    // cancelled, undelayed ones compile normally.
    let service = Service::new(ServiceConfig {
        workers: 4,
        zac_config: soak_config(),
        compile_deadline_ms: Some(5),
        breaker_cooldown_ms: 50,
        breaker_threshold: 0,
        ..Default::default()
    });
    let corpus = bundled_corpus();
    fault::arm(FaultPlan::parse("23:serve.exec.compile=delay20@0.5").expect("plan parses"));
    let mut cancelled_any = false;
    for wave in 0..3 {
        let (_, _, failed) = drain_strictly(
            &service,
            Request::new(format!("delay-{wave}"), "Zoned-ZAC", corpus.clone()),
        );
        cancelled_any |= failed > 0;
    }
    fault::disarm();
    assert!(cancelled_any, "20 ms delays against a 5 ms budget must cancel entries");
    assert_eq!(service.worker_respawns(), 0, "cancellation never costs a worker");
    drop(service);

    assert!(fault::injected() > injected_before, "the soak actually injected faults");

    // Recovery: with injection disarmed, a fresh service compiles the full
    // 17-circuit paper suite bit-identically to direct compiles — the
    // instrumentation must be invisible when off.
    let service =
        Service::new(ServiceConfig { workers: 4, zac_config: soak_config(), ..Default::default() });
    let mut entries = Vec::new();
    let mut staged = Vec::new();
    for bench in bench_circuits::paper_suite() {
        let name = bench.circuit.name().to_string();
        let qasm = to_qasm(&bench.circuit);
        staged.push(preprocess(&parse_qasm(&qasm, &name).expect("suite QASM round-trips")));
        entries.push(CircuitEntry { name, qasm });
    }
    assert_eq!(entries.len(), 17, "the full paper suite");
    let mut outputs = HashMap::new();
    for response in service.submit(Request::new("recovery", "Zoned-ZAC", entries)) {
        match response {
            Response::Result { entry, outcome, .. } => {
                let out = outcome.output().expect("recovery wave compiles").clone();
                outputs.insert(entry, out);
            }
            Response::Done(done) => assert_eq!((done.ok, done.rejected, done.failed), (17, 0, 0)),
            other => panic!("unexpected response {other:?}"),
        }
    }
    let zac = Zac::with_config(Architecture::reference(), soak_config());
    for (index, circuit) in staged.iter().enumerate() {
        let direct =
            Compiler::compile(&zac, circuit).unwrap_or_else(|e| panic!("{}: {e}", circuit.name));
        assert_eq!(
            outputs[&index].semantic_json(),
            direct.semantic_json(),
            "{}: disarmed service output diverges from the direct compile",
            circuit.name
        );
    }
}
