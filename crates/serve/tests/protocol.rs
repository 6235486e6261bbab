//! End-to-end smoke test of the `zac-serve` binary over its line-delimited
//! JSON protocol — the test CI runs as the service smoke job.
//!
//! Spawns the real binary, submits the bundled QASM corpus
//! (`tests/corpus/` at the workspace root) plus two malformed inputs over
//! stdin, and asserts that *every* stdout line parses against the
//! versioned [`Response`] schema, that every corpus entry's output matches
//! a direct compile's semantic digest, and that the `Done` line carries a
//! telemetry metrics delta. When `ZAC_SERVE_METRICS_OUT` names a path, the
//! per-request metrics blocks are written there as a JSON artifact for CI
//! to upload.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use zac_arch::Architecture;
use zac_circuit::preprocess;
use zac_circuit::qasm::parse_qasm;
use zac_core::{CompileOutput, Compiler, Zac};
use zac_serve::{CircuitEntry, Request, Response};

/// The bundled corpus: (file stem, QASM source) in sorted file-name order.
fn bundled_corpus() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("bundled corpus directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x.eq_ignore_ascii_case("qasm")))
        .collect();
    files.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
    files
        .into_iter()
        .map(|path| {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&path).expect("corpus file readable");
            (stem, source)
        })
        .collect()
}

#[test]
fn binary_serves_the_bundled_corpus_over_the_wire() {
    let corpus = bundled_corpus();
    assert!(corpus.len() >= 10, "the bundled corpus is non-trivial");

    let mut child = Command::new(env!("CARGO_BIN_EXE_zac-serve"))
        .env("ZAC_SERVE_WORKERS", "2")
        .env("ZAC_TELEMETRY", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn zac-serve");

    {
        let mut stdin = child.stdin.take().unwrap();
        let request = Request::new(
            "corpus",
            "Zoned-ZAC",
            corpus
                .iter()
                .map(|(name, qasm)| CircuitEntry { name: name.clone(), qasm: qasm.clone() })
                .collect(),
        );
        writeln!(stdin, "{}", serde_json::to_string(&request).unwrap()).unwrap();
        writeln!(stdin, "this line is not JSON").unwrap();
        let unknown = Request::new(
            "bad-compiler",
            "Quantum-Fantasy",
            vec![CircuitEntry { name: corpus[0].0.clone(), qasm: corpus[0].1.clone() }],
        );
        writeln!(stdin, "{}", serde_json::to_string(&unknown).unwrap()).unwrap();
        // stdin drops here: the binary drains in-flight work, then exits.
    }

    let mut outputs: HashMap<usize, CompileOutput> = HashMap::new();
    let mut corpus_done = None;
    let mut metrics_artifacts = Vec::new();
    let mut saw_malformed_error = false;
    let mut saw_unknown_compiler_error = false;
    for line in BufReader::new(child.stdout.take().unwrap()).lines() {
        let line = line.expect("read response line");
        // Every line the binary emits must parse against the versioned
        // response schema — this is the wire-compatibility assertion.
        let response: Response =
            serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        match response {
            Response::Result { id, entry, name, outcome } => {
                assert_eq!(id, "corpus", "only the corpus request streams results");
                assert_eq!(name, corpus[entry].0);
                let out = outcome.output().unwrap_or_else(|| panic!("{name} compiles"));
                assert!(outputs.insert(entry, out.clone()).is_none(), "{name} reported once");
            }
            Response::Done(done) => {
                assert_eq!(done.id, "corpus");
                assert!(done.metrics.is_some(), "telemetry on: Done carries a metrics delta");
                metrics_artifacts.push(serde_json::from_str::<serde::Value>(&line).unwrap());
                corpus_done = Some(done);
            }
            Response::Error { id, reason } => match id.as_deref() {
                None => {
                    assert!(reason.contains("malformed"), "{reason}");
                    saw_malformed_error = true;
                }
                Some("bad-compiler") => {
                    assert!(reason.contains("unknown compiler"), "{reason}");
                    saw_unknown_compiler_error = true;
                }
                other => panic!("unexpected error for {other:?}: {reason}"),
            },
            Response::Rejected { id, reason } => panic!("unexpected rejection {id}: {reason}"),
        }
    }
    assert!(child.wait().expect("binary exits").success());
    assert!(saw_malformed_error && saw_unknown_compiler_error);

    let done = corpus_done.expect("corpus request terminates with Done");
    assert_eq!((done.ok, done.rejected, done.failed), (corpus.len(), 0, 0));
    assert!(done.phase_totals.place_ns > 0 && done.phase_totals.schedule_ns > 0);

    // Served outputs must match direct compiles of the same sources with
    // the same (paper) configuration, bit-for-bit in semantic content.
    let zac = Zac::with_config(Architecture::reference(), zac_bench::zac_config());
    for (index, (name, qasm)) in corpus.iter().enumerate() {
        let served = &outputs[&index];
        let circuit = parse_qasm(qasm, name).expect("corpus QASM parses");
        let direct = Compiler::compile(&zac, &preprocess(&circuit)).expect("direct compile");
        assert_eq!(
            served.semantic_digest(),
            direct.semantic_digest(),
            "{name}: served output must match a direct compile"
        );
    }

    // CI artifact: the terminal lines (latency, phase totals, metrics
    // delta) of every request, one JSON document.
    if let Ok(path) = std::env::var("ZAC_SERVE_METRICS_OUT") {
        let artifact = serde_json::to_string(&metrics_artifacts).unwrap();
        std::fs::write(&path, artifact).expect("write metrics artifact");
    }
}

#[test]
fn stdin_eof_drains_in_flight_work_and_exits_zero() {
    let corpus = bundled_corpus();
    // One worker plus an injected 100 ms delay per compile guarantees the
    // batch is still genuinely in flight when stdin closes below — the
    // graceful drain, not scheduling luck, is what delivers the responses.
    let mut child = Command::new(env!("CARGO_BIN_EXE_zac-serve"))
        .env("ZAC_SERVE_WORKERS", "1")
        .env("ZAC_FAULTS", "11:serve.exec.compile=delay100")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn zac-serve");

    let total = 4usize;
    {
        let mut stdin = child.stdin.take().unwrap();
        let request = Request::new(
            "drain",
            "Zoned-ZAC",
            (0..total)
                .map(|i| CircuitEntry { name: format!("e{i}"), qasm: corpus[0].1.clone() })
                .collect(),
        );
        writeln!(stdin, "{}", serde_json::to_string(&request).unwrap()).unwrap();
        // stdin drops here, long before the delayed compiles can finish.
    }

    let mut results = 0usize;
    let mut done = None;
    for line in BufReader::new(child.stdout.take().unwrap()).lines() {
        let line = line.expect("read response line");
        match serde_json::from_str::<Response>(&line)
            .unwrap_or_else(|e| panic!("bad line `{line}`: {e}"))
        {
            Response::Result { id, outcome, .. } => {
                assert_eq!(id, "drain");
                assert!(outcome.output().is_some(), "in-flight entries still compile");
                results += 1;
            }
            Response::Done(d) => done = Some(d),
            other => panic!("unexpected response {other:?}"),
        }
    }
    let status = child.wait().expect("binary exits");
    assert!(status.success(), "graceful shutdown exits 0, got {status:?}");
    assert_eq!(results, total, "every in-flight entry got its terminal response");
    let done = done.expect("the request terminates with Done after EOF");
    assert_eq!((done.ok, done.rejected, done.failed), (total, 0, 0));
}

/// Sends one hostile request, then a normal one, to a fresh binary. The
/// hostile line must come back as a typed `error` naming the request whose
/// reason contains `expected`; the next request must still be served
/// exactly as a direct compile would produce it; and the process must exit
/// 0 at EOF.
fn hostile_line_gets_an_error_and_the_binary_keeps_serving(qasm: String, expected: &str) {
    let corpus = bundled_corpus();
    let mut child = Command::new(env!("CARGO_BIN_EXE_zac-serve"))
        .env("ZAC_SERVE_WORKERS", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn zac-serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        let hostile = Request::new(
            "hostile",
            "Zoned-ZAC",
            vec![CircuitEntry { name: "hostile".into(), qasm }],
        );
        writeln!(stdin, "{}", serde_json::to_string(&hostile).unwrap()).unwrap();
        let normal = Request::new(
            "normal",
            "Zoned-ZAC",
            vec![CircuitEntry { name: corpus[0].0.clone(), qasm: corpus[0].1.clone() }],
        );
        writeln!(stdin, "{}", serde_json::to_string(&normal).unwrap()).unwrap();
    }

    let mut saw_error = false;
    let mut served = None;
    let mut done = None;
    for line in BufReader::new(child.stdout.take().unwrap()).lines() {
        let line = line.expect("read response line");
        match serde_json::from_str::<Response>(&line)
            .unwrap_or_else(|e| panic!("bad line `{line}`: {e}"))
        {
            Response::Error { id, reason } => {
                assert_eq!(id.as_deref(), Some("hostile"));
                assert!(reason.contains(expected), "{reason}");
                saw_error = true;
            }
            Response::Result { id, outcome, .. } => {
                assert_eq!(id, "normal");
                served = Some(outcome.output().expect("the next request compiles").clone());
            }
            Response::Done(d) => done = Some(d),
            other => panic!("unexpected response {other:?}"),
        }
    }
    let status = child.wait().expect("binary exits");
    assert!(status.success(), "no panic exit, got {status:?}");
    assert!(saw_error, "the hostile request got its typed error");
    let done = done.expect("the normal request terminates with Done");
    assert_eq!((done.id.as_str(), done.ok, done.rejected, done.failed), ("normal", 1, 0, 0));

    let zac = Zac::with_config(Architecture::reference(), zac_bench::zac_config());
    let circuit = parse_qasm(&corpus[0].1, &corpus[0].0).expect("corpus QASM parses");
    let direct = Compiler::compile(&zac, &preprocess(&circuit)).expect("direct compile");
    assert_eq!(
        served.expect("the normal request streamed its result").semantic_json().unwrap(),
        direct.semantic_json().unwrap(),
        "served output must match a direct compile"
    );
}

/// `qreg q]x[;` once panicked the QASM parser and killed the binary with
/// exit 101.
#[test]
fn reversed_qreg_brackets_get_an_error_and_the_binary_keeps_serving() {
    hostile_line_gets_an_error_and_the_binary_keeps_serving(
        "OPENQASM 2.0;\nqreg q]x[;".into(),
        "malformed qreg",
    );
}

/// A parameter nested 100,000 parentheses deep once overflowed the parsing
/// thread's stack and aborted the binary.
#[test]
fn deeply_nested_expression_gets_an_error_and_the_binary_keeps_serving() {
    let depth = 100_000;
    let qasm =
        format!("OPENQASM 2.0;\nqreg q[1];\nrz({}1{}) q[0];", "(".repeat(depth), ")".repeat(depth));
    hostile_line_gets_an_error_and_the_binary_keeps_serving(qasm, "nested deeper than");
}

/// Register sizes summing past `usize::MAX` once wrapped in release: the
/// second register's offset pointed outside the circuit, `Circuit::push`
/// panicked on the session thread, and the binary exited 101.
#[test]
fn register_size_overflow_gets_an_error_and_the_binary_keeps_serving() {
    hostile_line_gets_an_error_and_the_binary_keeps_serving(
        "OPENQASM 2.0;\nqreg a[18446744073709551615];\nqreg b[2];\ncx b[0],b[1];".into(),
        "total qubit count overflows",
    );
}

/// `(Threads, VmSize in KiB)` of a live process, from `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
fn threads_and_vm_kib(pid: u32) -> (usize, usize) {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    let field = |key: &str| -> usize {
        let line = status.lines().find(|l| l.starts_with(key)).expect(key);
        line[key.len()..].trim().trim_end_matches("kB").trim().parse().expect(key)
    };
    (field("Threads:"), field("VmSize:"))
}

/// A long session must not leak a thread (or its stack mapping) per
/// request: the binary keeps main, one writer and its workers, and its
/// address space stays flat once warm.
#[cfg(target_os = "linux")]
#[test]
fn long_sessions_hold_threads_and_address_space_flat() {
    const WORKERS: usize = 2;
    const REQUESTS: usize = 1_000;
    let corpus = bundled_corpus();
    let mut child = Command::new(env!("CARGO_BIN_EXE_zac-serve"))
        .env("ZAC_SERVE_WORKERS", WORKERS.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn zac-serve");
    let pid = child.id();
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    // One small circuit, repeated: after the first compile every request is
    // a memory-cache hit, so the loop measures the session, not the compiler.
    let entry = CircuitEntry { name: corpus[0].0.clone(), qasm: corpus[0].1.clone() };

    let mut warm_vm = 0;
    let mut max_threads = 0;
    for i in 0..REQUESTS {
        let request = Request::new(format!("r{i}"), "Zoned-ZAC", vec![entry.clone()]);
        writeln!(stdin, "{}", serde_json::to_string(&request).unwrap()).unwrap();
        // Closed loop: read this request's stream through its terminal line.
        loop {
            let line = lines.next().expect("a response line").expect("read response line");
            match serde_json::from_str::<Response>(&line)
                .unwrap_or_else(|e| panic!("bad line `{line}`: {e}"))
            {
                Response::Result { outcome, .. } => assert!(outcome.output().is_some()),
                Response::Done(done) => {
                    assert_eq!((done.id, done.ok), (format!("r{i}"), 1));
                    break;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        if i % 50 == 49 || i + 1 == REQUESTS {
            let (threads, vm_kib) = threads_and_vm_kib(pid);
            max_threads = max_threads.max(threads);
            if i + 1 == 100 {
                warm_vm = vm_kib;
            }
            if i + 1 == REQUESTS {
                let growth_mib = vm_kib.saturating_sub(warm_vm) / 1024;
                assert!(growth_mib < 64, "VmSize grew {growth_mib} MiB from request 100 to {i}");
            }
        }
    }
    assert!(max_threads <= WORKERS + 2, "{max_threads} threads for {WORKERS} workers");

    drop(stdin);
    assert!(lines.next().is_none(), "every response was already delivered");
    let status = child.wait().expect("binary exits");
    assert!(status.success(), "graceful shutdown exits 0, got {status:?}");
}
