//! The repository benchmark: closed-loop `zac-serve` workloads.
//!
//! ```text
//! bash zacbench/run.sh --workload <cold_fresh|warm_sweep|store_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation, run from the repository root:
//!
//! 1. generates the workload's request lines from the seed;
//! 2. starts `zac-serve` several times with a pinned environment and takes
//!    the median spawn-to-readiness time (`setup_s`), keeping the last
//!    server;
//! 3. runs the untimed warm-up (`warm_sweep`), then the timed closed loop
//!    (2 clients) for `--seconds`, after which the server drains and exits;
//! 4. runs the post-run correctness check over every captured line;
//! 5. with `--trace 1`, runs the in-process traced ledger (`trace.rs`) on
//!    the same inputs and writes `.bench_out/<workload>/trace.json` and
//!    `layers.txt`.
//!
//! Human-readable lines go to stdout first; the last stdout line is the
//! result JSON. Every file it writes lies under `.bench_out/`.

mod check;
mod client;
mod metrics;
mod stats;
mod trace;
mod window;
mod workload;

use check::Cell;
use client::{Plan, Server};
use serde::{Number, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::{RequestSpec, Stream, Workload};
use zac_cache::{CacheKey, CompileCache};

/// Concurrent clients of the closed loop.
const CLIENTS: usize = 2;
/// Server starts per invocation; `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;
/// Environment variables that change what the service does; cleared for
/// the server (and for this process, which runs the traced ledger).
const HIDDEN_ENV: [&str; 9] = [
    "ZAC_PLACER",
    "ZAC_FAULTS",
    "ZAC_TELEMETRY",
    "ZAC_TRACE_OUT",
    "ZAC_WARM_MANIFEST",
    "ZAC_SERVE_LOG",
    "ZAC_REDACT",
    "ZAC_CACHE_DIR",
    "ZAC_SERVE_WORKERS",
];

/// A server's environment: exactly these variables, nothing inherited.
type Env = Vec<(String, String)>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            "--server" => server = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
    })
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("zacbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Requests below this index feed the deterministic quality figures
/// (`response_kb_per_circuit`, `fidelity_geomean`,
/// `exec_duration_geomean_us`) and the point where `peak_rss_mb` is read,
/// so they measure a fixed amount of work whatever the run's throughput.
fn quality_prefix(workload: Workload) -> usize {
    match workload {
        Workload::ColdFresh => 1024,
        Workload::WarmSweep => 12,
        Workload::StoreChurn => 1024,
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let began = std::time::Instant::now();
    let phase = |what: &str| eprintln!("zacbench: {what} at {:.2}s", began.elapsed().as_secs_f64());
    for var in HIDDEN_ENV {
        std::env::remove_var(var);
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let out_dir = root.join(".bench_out").join(args.workload.name());
    if out_dir.exists() {
        std::fs::remove_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let stream = Stream::new(args.workload, args.seed, &root.join("tests/corpus"))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(CLIENTS);

    // Cold digests known before the timed drive, per cell.
    let mut cold: HashMap<Cell, u64> = HashMap::new();
    let store = out_dir.join("store");
    if args.workload == Workload::StoreChurn {
        cold = populate(&stream, &store)?;
        phase("store populated");
    }

    // One server start: a fresh store copy on `store_churn`, then spawn →
    // readiness. Returns the server, its setup seconds and environment.
    let start = |k: usize| -> Result<(Server, f64, Env), String> {
        let mut env = vec![("ZAC_SERVE_WORKERS".to_string(), workers.to_string())];
        if args.workload == Workload::StoreChurn {
            let copy = out_dir.join(format!("run-{k}"));
            copy_dir(&store, &copy)?;
            env.push(("ZAC_CACHE_DIR".to_string(), copy.display().to_string()));
        }
        let (server, setup) =
            Server::start(&args.server, &env).map_err(|e| format!("starting zac-serve: {e}"))?;
        Ok((server, setup.as_secs_f64(), env))
    };
    let probe_start = |k: usize, setups: &mut Vec<f64>| -> Result<(), String> {
        let (server, setup, _) = start(k)?;
        setups.push(setup);
        server.shutdown().map_err(|e| format!("stopping zac-serve: {e}"))?;
        std::fs::remove_dir_all(out_dir.join(format!("run-{k}"))).ok();
        Ok(())
    };
    // Half the starts come before the timed drive and half after it: on a
    // shared host the machine's speed drifts over tens of seconds, and
    // spreading the samples keeps one slow stretch from setting the median.
    let mut setups = Vec::new();
    for k in 0..SETUP_SAMPLES / 2 {
        probe_start(k, &mut setups)?;
    }
    let (mut server, setup, env) = start(SETUP_SAMPLES / 2)?;
    setups.push(setup);
    phase("server ready");

    let mut attempted = 0;
    let mut failed = 0;
    let mut messages = Vec::new();
    let warmup: Vec<RequestSpec> = stream.warmup().to_vec();
    if !warmup.is_empty() {
        let lines: Vec<String> = warmup.iter().enumerate().map(|(i, r)| r.line(i)).collect();
        let capture = out_dir.join("warmup.ndjson");
        server
            .drive(Plan::Fixed(&lines), CLIENTS, &capture)
            .map_err(|e| format!("warm-up: {e}"))?;
        let report = check::check(&warmup, read_lines(&capture)?, &mut cold, 0, true);
        attempted += report.attempted;
        failed += report.failed;
        messages.extend(report.messages);
    }

    let line = |i: usize| stream.request(i).line(i);
    let duration = Duration::from_secs(args.seconds);
    let capture = out_dir.join("capture.ndjson");
    let drive = server
        .drive(
            Plan::Timed { line: &line, duration, rss_after: quality_prefix(args.workload) },
            CLIENTS,
            &capture,
        )
        .map_err(|e| format!("timed drive: {e}"))?;
    server.shutdown().map_err(|e| format!("stopping zac-serve: {e}"))?;
    phase("timed drive done");
    for k in SETUP_SAMPLES / 2 + 1..SETUP_SAMPLES {
        probe_start(k, &mut setups)?;
    }

    let requests: Vec<RequestSpec> = (0..drive.sent.len()).map(|i| stream.request(i)).collect();
    let digests = args.workload != Workload::ColdFresh;
    let report = check::check(
        &requests,
        read_lines(&capture)?,
        &mut cold,
        quality_prefix(args.workload),
        digests,
    );
    attempted += report.attempted;
    failed += report.failed;
    messages.extend(report.messages.iter().cloned());
    phase("post-run check done");
    for message in messages.iter().take(8) {
        eprintln!("zacbench: check failed: {message}");
    }

    let window_s = (drive.end - drive.start).as_secs_f64();
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let window::Figures {
        rates,
        server_cpu_ms_per_circuit,
        latencies_ms,
        raw_latencies_ms,
        steal_share,
    } = window::figures(&drive, &report.ok_by_request, ncpu);
    let ok_in_window: usize = drive.in_window().map(|(i, _)| report.ok_by_request[i]).sum();
    let ok = ok_in_window.max(1) as f64;
    let end_to_end: Vec<(&str, f64)> = vec![
        ("circuits_per_s", stats::median(&rates)),
        ("request_p50_ms", stats::median(&latencies_ms)),
        ("request_p99_ms", stats::quantile(&latencies_ms, 0.99)),
        ("server_cpu_ms_per_circuit", stats::median(&server_cpu_ms_per_circuit)),
        ("response_kb_per_circuit", stats::mean(&report.response_bytes) / 1024.0),
        ("fidelity_geomean", stats::geomean(&report.fidelities)),
        ("exec_duration_geomean_us", stats::geomean(&report.durations_us)),
        ("setup_s", stats::median(&setups)),
        ("peak_rss_mb", drive.peak_rss_mb),
    ];
    let failed_ratio = stats::ratio(failed as f64, attempted as f64);
    let client_cpu_ms_per_circuit = drive.client_cpu_s * 1e3 / ok;

    println!(
        "# {} seed={} seconds={} requests_in_window={} ok_circuits_in_window={} hits={} quality_circuits={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        latencies_ms.len(),
        ok_in_window,
        report.hits,
        report.fidelities.len()
    );
    println!(
        "# unscaled: {:.1} circuits/s over the window, p50 {:.3} ms, p99 {:.3} ms, server cpu {:.4} ms/circuit; machine steal {:.1}% of CPU",
        ok_in_window as f64 / window_s,
        stats::median(&raw_latencies_ms),
        stats::quantile(&raw_latencies_ms, 0.99),
        drive.server_cpu_s * 1e3 / ok,
        steal_share * 100.0
    );
    println!("failed_ratio {failed_ratio} ratio ({failed} of {attempted} circuits)");
    println!(
        "cpu server_s={} client_s={} client_cpu_ms_per_circuit={client_cpu_ms_per_circuit}",
        drive.server_cpu_s, drive.client_cpu_s
    );
    for (name, value) in &end_to_end {
        println!("{name} {value} {}", metrics::unit(name));
    }

    let layers = if args.trace {
        let mut layers = trace::run(&trace::Setup {
            stream: &stream,
            workload: args.workload,
            store: &store,
            scratch: &out_dir,
            untraced_p50_us: stats::median(&latencies_ms) * 1e3,
        })?;
        layers.push(("client.cpu_ms_per_circuit", client_cpu_ms_per_circuit));
        phase("traced ledger done");
        for (name, value) in &layers {
            println!("{name} {value} {}", metrics::unit(name));
        }
        Some(layers)
    } else {
        None
    };

    let record = Value::object()
        .with("workload", Value::String(args.workload.name().into()))
        .with("seed", num(args.seed as f64))
        .with("seconds", num(args.seconds as f64))
        .with("trace", Value::Bool(args.trace))
        .with("nproc", num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64))
        .with("clients", num(CLIENTS as f64))
        .with(
            "server_env",
            Value::Object(env.iter().map(|(k, v)| (k.clone(), Value::String(v.clone()))).collect()),
        )
        .with(
            "cleared_env",
            Value::Array(HIDDEN_ENV.iter().map(|v| Value::String((*v).into())).collect()),
        )
        .with("git_revision", Value::String(git_revision(&root)))
        .with("source_digest", Value::String(format!("{:016x}", source_digest(&root))))
        .with("failed_ratio", num(failed_ratio))
        .with("steal_share", num(steal_share))
        .with(
            "unscaled",
            Value::object()
                .with("circuits_per_s", num(ok_in_window as f64 / window_s))
                .with("request_p50_ms", num(stats::median(&raw_latencies_ms)))
                .with("request_p99_ms", num(stats::quantile(&raw_latencies_ms, 0.99))),
        )
        .with("server_cpu_s", num(drive.server_cpu_s))
        .with("client_cpu_s", num(drive.client_cpu_s))
        .with("end_to_end", metrics_json(&end_to_end))
        .with("per_layer", layers.as_deref().map_or(Value::Null, metrics_json));
    let record_path = out_dir.join(if args.trace { "result-trace.json" } else { "result.json" });
    std::fs::write(&record_path, serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?)
        .map_err(|e| format!("{}: {e}", record_path.display()))?;
    // Keep only the reports: store copies are large and rebuilt per run.
    std::fs::remove_dir_all(out_dir.join(format!("run-{}", SETUP_SAMPLES / 2))).ok();
    for dir in ["store", "probe-store", "trace-untraced", "trace-traced", "trace-exec"] {
        std::fs::remove_dir_all(out_dir.join(dir)).ok();
    }
    for file in ["warmup.ndjson", "capture.ndjson"] {
        std::fs::remove_file(out_dir.join(file)).ok();
    }

    let result = Value::object()
        .with("correct", Value::Bool(failed == 0))
        .with("attempted", num(attempted.max(1) as f64))
        .with("failed", num(failed as f64))
        .with("metrics", metrics_json(layers.as_deref().unwrap_or(&end_to_end)));
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(())
}

fn num(x: f64) -> Value {
    Value::Number(Number::from_f64(x))
}

fn metrics_json(metrics: &[(&str, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value)| {
                let entry = Value::object()
                    .with("value", num(*value))
                    .with("unit", Value::String(metrics::unit(name).into()));
                ((*name).to_string(), entry)
            })
            .collect(),
    )
}

/// Populates the `store_churn` segment store in-process with the stream's
/// stored circuits, compiled exactly as the service compiles them (the
/// binder's `Zoned-ZAC` with the windowed engine), on two threads. Returns
/// each record's cold-compile digest.
fn populate(stream: &Stream, dir: &Path) -> Result<HashMap<Cell, u64>, String> {
    let cache = CompileCache::with_segment_store(4096, dir).map_err(|e| format!("store: {e}"))?;
    let compiler = trace::bind_compiler("Zoned-ZAC", Some(workload::WINDOWED))?;
    let arm = stream.request(0).arm();
    let stored = stream.stored();
    let digests: Result<Vec<Vec<(String, u64)>>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|part| {
                let (cache, compiler) = (&cache, &compiler);
                scope.spawn(move || -> Result<Vec<(String, u64)>, String> {
                    let mut out = Vec::new();
                    for spec in stored.iter().skip(part).step_by(CLIENTS) {
                        let staged = trace::stage(spec)?;
                        let compiled = compiler.compile(&staged).map_err(|e| e.to_string())?;
                        cache.put(CacheKey::compute(&**compiler, &staged), &compiled);
                        out.push((spec.name.clone(), compiled.semantic_digest()));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("populate thread panicked")).collect()
    });
    Ok(digests?.into_iter().flatten().map(|(name, digest)| ((arm.clone(), name), digest)).collect())
}

/// The lines of a capture file, newline included.
fn read_lines(path: &Path) -> Result<impl Iterator<Item = std::io::Result<Vec<u8>>>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader = std::io::BufReader::with_capacity(1 << 20, file);
    Ok(std::iter::from_fn(move || {
        let mut line = Vec::new();
        match std::io::BufRead::read_until(&mut reader, b'\n', &mut line) {
            Ok(0) => None,
            Ok(_) => Some(Ok(line)),
            Err(e) => Some(Err(e)),
        }
    }))
}

/// Copies a store directory (flat or nested) to `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
fn git_revision(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(|| "unknown".into(), |out| String::from_utf8_lossy(&out.stdout).trim().into())
}

/// FNV-1a over the workspace sources (`Cargo.toml`, `Cargo.lock`,
/// `crates/`, `vendor/`, `src/`) in path order: identifies the code under
/// test where no git revision is available.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor", "src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut fp = zac_circuit::Fingerprint::new();
    for file in files {
        fp.write_str(&file.strip_prefix(root).unwrap_or(&file).to_string_lossy());
        fp.write_bytes(&std::fs::read(&file).unwrap_or_default());
    }
    fp.finish()
}
