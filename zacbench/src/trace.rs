//! The traced run: the per-layer ledger, measured from outside each layer.
//!
//! On the same generated requests as the timed run, and in-process, the
//! benchmark calls each layer's public function in the order the service
//! does — decode → `Binder::bind` → `Planner::plan` → `CacheKey::compute`
//! → `CompileCache::get` → `Compiler::compile` → `CompileCache::put` →
//! response encode — and records a span around each call (name, start,
//! end, parent, request id). Spans stay in memory and are written at the
//! end as a Chrome trace plus a per-layer table of self time, counts and
//! ratios. The telemetry registry is on only during this pass, so its
//! `cache.lookup.*`, `place.sa.*` and `schedule.emit.*` counters feed the
//! ratios.
//!
//! Around that pass:
//!
//! * an identical pass with spans and the registry off gives the tracing
//!   overhead (traced minus untraced in-process request p50);
//! * `parse_qasm` and `preprocess` are timed alone on every circuit, and
//!   compiler construction (`bind.resolve_us_per_request`, bind minus
//!   both) alone as a bind of the same request with no circuits;
//! * probes off the request path time `output_bin` encode/decode and the
//!   segment store (`open`, `get`, `append`) on this workload's outputs —
//!   on `store_churn` against a copy of the populated store, elsewhere
//!   against an empty scratch store the probe fills;
//! * one more pass submits the same requests to an `Executor` with 2
//!   workers from 2 closed-loop clients; queue wait is each entry's time
//!   from submit to result minus its service time in the traced pass.

use crate::stats;
use crate::workload::{CircuitSpec, RequestSpec, Stream, Workload};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zac_cache::disk::LoadOutcome;
use zac_cache::segment::SegmentStore;
use zac_cache::{CacheKey, CompileCache};
use zac_circuit::qasm::parse_qasm;
use zac_circuit::{preprocess, StagedCircuit};
use zac_core::{CompileError, CompileOutput, Compiler};
use zac_serve::bind::Binder;
use zac_serve::exec::{Executor, ResilienceConfig};
use zac_serve::plan::{PlannedEntry, Planner};
use zac_serve::{AdmissionLimits, Done, EntryOutcome, PhaseTotals, Request, Response};
use zac_telemetry::MetricsSnapshot;

/// Stream requests every in-process pass runs: a fixed count, so the
/// ledger's counts (`zair.*`, ratios) repeat exactly per seed.
fn traced_requests(workload: Workload) -> usize {
    match workload {
        Workload::ColdFresh => 512,
        Workload::WarmSweep => 24,
        Workload::StoreChurn => 256,
    }
}
/// Executor workers (as in the timed run).
const WORKERS: usize = 2;
/// Distinct outputs of the traced pass the off-path probes run on.
const PROBE_OUTPUTS: usize = 512;

/// What the traced run needs from the invocation.
pub struct Setup<'a> {
    /// The workload's request stream.
    pub stream: &'a Stream,
    /// The workload.
    pub workload: Workload,
    /// The populated `store_churn` store.
    pub store: &'a Path,
    /// Directory for store copies and the trace outputs.
    pub scratch: &'a Path,
    /// The timed run's `request_p50_ms`, in µs.
    pub untraced_p50_us: f64,
}

/// The compiler the service binds for `label` (+ engine).
///
/// # Errors
///
/// The binder's message for an unknown label or engine.
pub fn bind_compiler(label: &str, engine: Option<&str>) -> Result<Arc<dyn Compiler>, String> {
    let mut request = Request::new("probe", label, Vec::new());
    request.engine = engine.map(str::to_string);
    Binder::new(zac_bench::zac_config()).bind(request).map(|bound| bound.compiler)
}

/// The staged circuit the service compiles for `spec`.
///
/// # Errors
///
/// The parser's message.
pub fn stage(spec: &CircuitSpec) -> Result<StagedCircuit, String> {
    Ok(preprocess(&parse_qasm(&spec.qasm, &spec.name).map_err(|e| e.to_string())?))
}

/// One recorded span.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: String,
}

/// Spans recorded by this file's code, in memory until the run ends.
struct Recorder {
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    fn open(&mut self, name: &'static str, parent: Option<usize>, request: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        self.spans.push(Span { name, start: now, end: now, parent, request: request.to_string() });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = Instant::now();
        }
    }

    /// A span whose interval is already known (compile phases).
    fn record(&mut self, name: &'static str, parent: Option<usize>, start: Instant, end: Instant) {
        if self.on {
            let request = parent.map(|p| self.spans[p].request.clone()).unwrap_or_default();
            self.spans.push(Span { name, start, end, parent, request });
        }
    }
}

/// Tallies of one in-process pass.
#[derive(Default)]
struct Tally {
    decode: Vec<f64>,
    decode_circuits: usize,
    bind: Vec<f64>,
    bind_circuits: usize,
    parse: Vec<f64>,
    preprocess: Vec<f64>,
    resolve: Vec<f64>,
    plan: Vec<f64>,
    key: Vec<f64>,
    get_hit: Vec<f64>,
    /// `CompileCache::get` calls served by the segment store.
    get_disk: Vec<f64>,
    get_miss: Vec<f64>,
    put: Vec<f64>,
    compile_ms: Vec<f64>,
    place_ms: Vec<f64>,
    schedule_ms: Vec<f64>,
    analyze_ms: Vec<f64>,
    encode: Vec<f64>,
    encode_bytes: u64,
    ok_circuits: usize,
    zac_compiles: usize,
    zair_instructions: Vec<f64>,
    zair_transfers: Vec<f64>,
    /// Whole-request time of stream requests (µs), warm-up excluded.
    request_us: Vec<f64>,
    /// Service time (key + get + compile + put) per `(request, entry)`.
    service: HashMap<(usize, usize), Duration>,
    /// The traced pass's first distinct outputs, for the off-path probes.
    outputs: Vec<(CacheKey, CompileOutput)>,
    registry: Option<MetricsSnapshot>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A fresh cache in the state the timed run's server starts in.
fn service_cache(setup: &Setup<'_>, tag: &str) -> Result<CompileCache, String> {
    if setup.workload == Workload::StoreChurn {
        let copy = setup.scratch.join(format!("trace-{tag}"));
        crate::copy_dir(setup.store, &copy)?;
        CompileCache::with_segment_store(4096, &copy).map_err(|e| e.to_string())
    } else {
        Ok(CompileCache::in_memory(256))
    }
}

/// The requests a pass runs: the warm-up (ids `w<i>`), then stream
/// requests `r0..r<n>`.
fn pass_requests(setup: &Setup<'_>) -> Vec<(String, Option<usize>, RequestSpec)> {
    let warmup = setup.stream.warmup().iter().enumerate();
    warmup
        .map(|(i, r)| (format!("w{i}"), None, r.clone()))
        .chain(
            (0..traced_requests(setup.workload))
                .map(|i| (format!("r{i}"), Some(i), setup.stream.request(i))),
        )
        .collect()
}

/// One sequential in-process pass over `requests` through every layer.
fn pass(
    setup: &Setup<'_>,
    requests: &[(String, Option<usize>, RequestSpec)],
    recorder: &mut Recorder,
    tag: &str,
) -> Result<Tally, String> {
    let traced = recorder.on;
    let binder = Binder::new(zac_bench::zac_config());
    let planner = Planner::new(AdmissionLimits::default());
    let cache = service_cache(setup, tag)?;
    let mut tally = Tally::default();
    let mut seen = std::collections::HashSet::new();
    zac_telemetry::set_enabled(traced);
    zac_telemetry::take_spans();
    let base = traced.then(MetricsSnapshot::capture);
    for (id, index, spec) in requests {
        let line = spec.line_for(id);
        let t_request = Instant::now();
        let root = recorder.open("request", None, id);

        let s = recorder.open("protocol.decode", root, id);
        let t = Instant::now();
        let request: Request = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        tally.decode.push(us(t.elapsed()));
        tally.decode_circuits += request.circuits.len();
        recorder.close(s);

        let circuits: Vec<(String, String)> =
            request.circuits.iter().map(|c| (c.name.clone(), c.qasm.clone())).collect();
        let s = recorder.open("bind", root, id);
        let t = Instant::now();
        let bound = binder.bind(request)?;
        tally.bind.push(us(t.elapsed()));
        recorder.close(s);
        tally.bind_circuits += circuits.len();
        let compiler = Arc::clone(&bound.compiler);

        let s = recorder.open("plan", root, id);
        let t = Instant::now();
        let planned = planner.plan(bound).map_err(|e| format!("{id}: plan rejected: {e:?}"))?;
        tally.plan.push(us(t.elapsed()));
        recorder.close(s);

        let total = planned.entries.len();
        let mut ok = 0;
        for entry in planned.entries {
            let PlannedEntry::Run { index: entry_index, staged } = entry else {
                return Err(format!("{id}: an entry was rejected at admission"));
            };
            let e = recorder.open("entry", root, id);
            let t_service = Instant::now();
            let s = recorder.open("cache.key", e, id);
            let t = Instant::now();
            let key = CacheKey::compute(&*compiler, &staged);
            tally.key.push(us(t.elapsed()));
            recorder.close(s);

            let before = cache.stats();
            let s = recorder.open("cache.get", e, id);
            let t = Instant::now();
            let got = cache.get(key);
            let get_us = us(t.elapsed());
            recorder.close(s);
            let after = cache.stats();
            let out = match got {
                Some(out) => {
                    if after.disk_hits > before.disk_hits {
                        tally.get_disk.push(get_us);
                    } else {
                        tally.get_hit.push(get_us);
                    }
                    out
                }
                None => {
                    tally.get_miss.push(get_us);
                    let s = recorder.open("compile", e, id);
                    let t = Instant::now();
                    let out = compiler
                        .compile(&staged)
                        .map_err(|err: CompileError| format!("{id}: {err}"))?;
                    let t_end = Instant::now();
                    recorder.close(s);
                    let wall = t_end - t;
                    tally.compile_ms.push(wall.as_secs_f64() * 1e3);
                    if let Some(phases) = out.phases {
                        tally.zac_compiles += 1;
                        let place_end = t + phases.place;
                        let schedule_end = place_end + phases.schedule;
                        recorder.record("place", s, t, place_end);
                        recorder.record("schedule", s, place_end, schedule_end.min(t_end));
                        recorder.record("analyze", s, schedule_end.min(t_end), t_end);
                        tally.place_ms.push(phases.place.as_secs_f64() * 1e3);
                        tally.schedule_ms.push(phases.schedule.as_secs_f64() * 1e3);
                        tally
                            .analyze_ms
                            .push(wall.saturating_sub(out.compile_time).as_secs_f64() * 1e3);
                    }
                    let s = recorder.open("cache.put", e, id);
                    let t = Instant::now();
                    cache.put(key, &out);
                    tally.put.push(us(t.elapsed()));
                    recorder.close(s);
                    out
                }
            };
            if let Some(index) = index {
                tally.service.insert((*index, entry_index), t_service.elapsed());
            }
            if let Some(program) = &out.program {
                tally.zair_instructions.push(program.instructions.len() as f64);
                tally.zair_transfers.push(out.counts.n_tran as f64);
            }
            if traced && tally.outputs.len() < PROBE_OUTPUTS && seen.insert(key) {
                tally.outputs.push((key, out.clone()));
            }
            let response = Response::Result {
                id: id.clone(),
                entry: entry_index,
                name: staged.name.clone(),
                outcome: EntryOutcome::Ok(Box::new(out)),
            };
            let s = recorder.open("protocol.encode", e, id);
            let t = Instant::now();
            let encoded = serde_json::to_string(&response).map_err(|e| e.to_string())?;
            tally.encode.push(us(t.elapsed()));
            recorder.close(s);
            tally.encode_bytes += encoded.len() as u64 + 1;
            recorder.close(e);
            ok += 1;
        }
        let done = Response::Done(Done {
            id: id.clone(),
            ok,
            rejected: 0,
            failed: total - ok,
            latency_ms: 0,
            phase_totals: PhaseTotals::default(),
            metrics: None,
            trace: None,
        });
        let s = recorder.open("protocol.encode", root, id);
        let t = Instant::now();
        let encoded = serde_json::to_string(&done).map_err(|e| e.to_string())?;
        tally.encode.push(us(t.elapsed()));
        recorder.close(s);
        tally.encode_bytes += encoded.len() as u64 + 1;
        tally.ok_circuits += ok;
        recorder.close(root);
        if index.is_some() {
            tally.request_us.push(us(t_request.elapsed()));
        }
        // Drop the library's own spans; this run records its own.
        zac_telemetry::take_spans();

        // Off the request path: parse and preprocess alone.
        for (name, qasm) in &circuits {
            let t = Instant::now();
            let parsed = parse_qasm(qasm, name).map_err(|e| e.to_string())?;
            let parse_us = us(t.elapsed());
            let t = Instant::now();
            let staged = preprocess(&parsed);
            let preprocess_us = us(t.elapsed());
            std::hint::black_box(staged);
            tally.parse.push(parse_us);
            tally.preprocess.push(preprocess_us);
        }
        // Compiler construction alone: the same request with no circuits.
        let mut empty = Request::new(id.as_str(), spec.compiler, Vec::new());
        empty.engine = spec.engine.map(str::to_string);
        let t = Instant::now();
        std::hint::black_box(binder.bind(empty)?);
        tally.resolve.push(us(t.elapsed()));
    }
    tally.registry = base.map(|base| MetricsSnapshot::capture().delta_since(&base));
    zac_telemetry::set_enabled(false);
    zac_telemetry::take_spans();
    Ok(tally)
}

/// Off-path probes over the pass's distinct outputs: memory get on a
/// resident key, `output_bin` round trip, and the segment store.
struct Probes {
    get_hit: Vec<f64>,
    bin_encode: Vec<f64>,
    bin_decode: Vec<f64>,
    segment_open_ms: f64,
    segment_get: Vec<f64>,
    segment_append: Vec<f64>,
}

fn probes(setup: &Setup<'_>, outputs: &[(CacheKey, CompileOutput)]) -> Result<Probes, String> {
    let mut p = Probes {
        get_hit: Vec::new(),
        bin_encode: Vec::new(),
        bin_decode: Vec::new(),
        segment_open_ms: 0.0,
        segment_get: Vec::new(),
        segment_append: Vec::new(),
    };
    let memory = CompileCache::in_memory(256);
    for (key, out) in outputs.iter().rev().take(256) {
        memory.put(*key, out);
        let t = Instant::now();
        std::hint::black_box(memory.get(*key));
        p.get_hit.push(us(t.elapsed()));
    }
    for (_, out) in outputs {
        let t = Instant::now();
        let bytes = zac_core::encode_output(out).map_err(|e| e.to_string())?;
        p.bin_encode.push(us(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(zac_core::decode_output(&bytes).map_err(|e| e.to_string())?);
        p.bin_decode.push(us(t.elapsed()));
    }
    let dir = setup.scratch.join("probe-store");
    if setup.workload == Workload::StoreChurn {
        crate::copy_dir(setup.store, &dir)?;
    }
    let open = |p: &mut Probes| -> Result<SegmentStore, String> {
        let t = Instant::now();
        let store = SegmentStore::open(&dir).map_err(|e| e.to_string())?;
        p.segment_open_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(store)
    };
    let store = open(&mut p)?;
    for (key, out) in outputs {
        if !matches!(store.load_classified(*key), LoadOutcome::Hit(_)) {
            let t = Instant::now();
            store.append(*key, out).map_err(|e| e.to_string())?;
            p.segment_append.push(us(t.elapsed()));
        }
        let t = Instant::now();
        let loaded = store.load_classified(*key);
        p.segment_get.push(us(t.elapsed()));
        if !matches!(loaded, LoadOutcome::Hit(_)) {
            return Err("segment probe: appended record did not load".into());
        }
    }
    drop(store);
    if setup.workload != Workload::StoreChurn {
        // Re-open the store the probe filled with this workload's outputs.
        open(&mut p)?;
    }
    Ok(p)
}

/// The executor pass: 2 closed-loop clients submit the stream requests to
/// an `Executor` with 2 workers. Returns each entry's queue wait (ms).
fn executor_pass(
    setup: &Setup<'_>,
    requests: &[(String, Option<usize>, RequestSpec)],
    service: &HashMap<(usize, usize), Duration>,
) -> Result<Vec<f64>, String> {
    let cache = service_cache(setup, "exec")?;
    let executor = Executor::new(WORKERS, 1024, cache, ResilienceConfig::default());
    let binder = Binder::new(zac_bench::zac_config());
    let planner = Planner::new(AdmissionLimits::default());
    let submit = |line: &str| -> Result<(Instant, Vec<(usize, Instant)>), String> {
        let request: Request = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let planned = planner.plan(binder.bind(request)?).map_err(|e| format!("{e:?}"))?;
        let (tx, rx) = channel();
        let submitted = Instant::now();
        executor.submit(planned, tx, None);
        let mut results = Vec::new();
        for response in rx {
            match response {
                Response::Result { entry, .. } => results.push((entry, Instant::now())),
                _ => break,
            }
        }
        Ok((submitted, results))
    };
    // The warm-up runs first, untimed, so the cache matches the timed run.
    for (i, (_, index, spec)) in requests.iter().enumerate() {
        if index.is_none() {
            submit(&spec.line(i))?;
        }
    }
    let stream: Vec<(usize, &RequestSpec)> =
        requests.iter().filter_map(|(_, index, spec)| index.map(|i| (i, spec))).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let waits: Result<Vec<Vec<f64>>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..crate::CLIENTS)
            .map(|_| {
                scope.spawn(|| -> Result<Vec<f64>, String> {
                    let mut waits = Vec::new();
                    loop {
                        let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(index, spec)) = stream.get(k) else { return Ok(waits) };
                        let (submitted, results) = submit(&spec.line(index))?;
                        for (entry, at) in results {
                            let service = service.get(&(index, entry)).copied().unwrap_or_default();
                            let wait = (at - submitted).saturating_sub(service);
                            waits.push(wait.as_secs_f64() * 1e3);
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("executor client panicked")).collect()
    });
    Ok(waits?.into_iter().flatten().collect())
}

/// Runs the ledger and writes `trace.json` and `layers.txt` under
/// `setup.scratch`. Returns the per-layer metrics.
///
/// # Errors
///
/// Any layer call that fails on a benchmark input.
pub fn run(setup: &Setup<'_>) -> Result<Vec<(&'static str, f64)>, String> {
    let requests = pass_requests(setup);
    let mut quiet = Recorder { on: false, spans: Vec::new() };
    let untraced = pass(setup, &requests, &mut quiet, "untraced")?;
    let mut recorder = Recorder { on: true, spans: Vec::new() };
    let t = pass(setup, &requests, &mut recorder, "traced")?;
    let p = probes(setup, &t.outputs)?;
    let waits = executor_pass(setup, &requests, &t.service)?;

    let registry = t.registry.clone().unwrap_or_else(MetricsSnapshot::capture);
    let counter = |name: &str| registry.counter(name) as f64;
    let lookups = counter("cache.lookup.hits")
        + counter("cache.lookup.disk_hits")
        + counter("cache.lookup.misses");
    let sa_moves = counter("place.sa.moves_accepted") + counter("place.sa.moves_rejected");
    let circuits = t.decode_circuits.max(1) as f64;
    let ok = t.ok_circuits.max(1) as f64;
    // Request-path calls where the path makes them, probes elsewhere.
    let get_hit = if t.get_hit.is_empty() { &p.get_hit } else { &t.get_hit };
    let segment_get = if t.get_disk.is_empty() { &p.segment_get } else { &t.get_disk };

    let (self_us, self_per_request) = self_times(&recorder.spans);
    let layer_sum_us = stats::median(&self_per_request);
    let traced_p50 = stats::median(&t.request_us);
    let untraced_p50 = stats::median(&untraced.request_us);
    let metrics: Vec<(&'static str, f64)> = vec![
        ("protocol.decode_us_per_circuit", t.decode.iter().sum::<f64>() / circuits),
        ("protocol.encode_us_per_circuit", t.encode.iter().sum::<f64>() / ok),
        ("protocol.response_bytes_per_circuit", t.encode_bytes as f64 / ok),
        ("bind.us_per_circuit", t.bind.iter().sum::<f64>() / t.bind_circuits.max(1) as f64),
        ("circuit.parse_us_per_circuit", stats::mean(&t.parse)),
        ("circuit.preprocess_us_per_circuit", stats::mean(&t.preprocess)),
        ("bind.resolve_us_per_request", stats::mean(&t.resolve)),
        ("plan.us_per_request", stats::mean(&t.plan)),
        ("exec.queue_wait_ms_p50", stats::median(&waits)),
        ("exec.queue_wait_ms_p99", stats::quantile(&waits, 0.99)),
        ("cache.key_us_per_circuit", stats::mean(&t.key)),
        ("cache.get_hit_us", stats::mean(get_hit)),
        ("cache.get_miss_us", stats::mean(&t.get_miss)),
        ("cache.put_us", stats::mean(&t.put)),
        (
            "cache.hit_ratio",
            stats::ratio(counter("cache.lookup.hits") + counter("cache.lookup.disk_hits"), lookups),
        ),
        ("cache.disk_hit_ratio", stats::ratio(counter("cache.lookup.disk_hits"), lookups)),
        ("cache.segment.open_ms", p.segment_open_ms),
        ("cache.segment.get_us", stats::mean(segment_get)),
        ("cache.segment.append_us", stats::mean(&p.segment_append)),
        ("output_bin.encode_us", stats::mean(&p.bin_encode)),
        ("output_bin.decode_us", stats::mean(&p.bin_decode)),
        ("compile.ms_per_circuit", stats::mean(&t.compile_ms)),
        ("place.ms_per_circuit", stats::mean(&t.place_ms)),
        ("schedule.ms_per_circuit", stats::mean(&t.schedule_ms)),
        ("analyze.ms_per_circuit", stats::mean(&t.analyze_ms)),
        ("place.sa.accept_ratio", stats::ratio(counter("place.sa.moves_accepted"), sa_moves)),
        (
            "schedule.jobs_per_circuit",
            stats::ratio(counter("schedule.emit.jobs_emitted"), t.zac_compiles as f64),
        ),
        ("zair.instructions_per_circuit", stats::mean(&t.zair_instructions)),
        ("zair.transfers_per_circuit", stats::mean(&t.zair_transfers)),
        ("session.unattributed_us_per_request", setup.untraced_p50_us - layer_sum_us),
        ("trace.overhead_us_per_request", traced_p50 - untraced_p50),
        ("layers.self_us_per_request", layer_sum_us),
    ];

    write_outputs(setup, &recorder.spans, &self_us, &metrics, &t, &registry)?;
    Ok(metrics)
}

/// Self time per span name (total µs, calls), and per stream request the
/// summed self time of its layer spans (the root's own gaps excluded).
fn self_times(spans: &[Span]) -> (Vec<(&'static str, f64, usize)>, Vec<f64>) {
    let mut child_us = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_us[parent] += us(span.end - span.start);
        }
    }
    let mut by_name: Vec<(&'static str, f64, usize)> = Vec::new();
    let mut per_request: HashMap<&str, f64> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        let own = (us(span.end - span.start) - child_us[i]).max(0.0);
        match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
            Some(row) => {
                row.1 += own;
                row.2 += 1;
            }
            None => by_name.push((span.name, own, 1)),
        }
        if span.parent.is_some() && span.request.starts_with('r') {
            *per_request.entry(span.request.as_str()).or_default() += own;
        }
    }
    (by_name, per_request.into_values().collect())
}

fn write_outputs(
    setup: &Setup<'_>,
    spans: &[Span],
    self_us: &[(&'static str, f64, usize)],
    metrics: &[(&'static str, f64)],
    tally: &Tally,
    registry: &MetricsSnapshot,
) -> Result<(), String> {
    let epoch = spans.first().map_or_else(Instant::now, |s| s.start);
    let mut trace = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            trace.push(',');
        }
        let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        write!(
            trace,
            "{{\"name\":\"{}\",\"cat\":\"zacbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"request\":\"{}\"}}}}",
            span.name,
            us(span.start - epoch),
            us(span.end - span.start),
            span.request
        )
        .expect("write to String cannot fail");
    }
    trace.push_str("]}");
    let path = setup.scratch.join("trace.json");
    std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;

    let total_self: f64 = self_us.iter().map(|(_, t, _)| t).sum();
    let mut table = format!(
        "# {} per-layer ledger ({} requests traced, {} circuits ok)\n\n{:<20} {:>8} {:>14} {:>12} {:>8}\n",
        setup.workload.name(),
        tally.request_us.len(),
        tally.ok_circuits,
        "span",
        "calls",
        "self_us_total",
        "self_us_mean",
        "share"
    );
    for (name, total, calls) in self_us {
        writeln!(
            table,
            "{name:<20} {calls:>8} {total:>14.1} {:>12.2} {:>7.1}%",
            total / *calls as f64,
            100.0 * total / total_self.max(f64::MIN_POSITIVE)
        )
        .expect("write to String cannot fail");
    }
    table.push_str("\n# metrics\n");
    for (name, value) in metrics {
        writeln!(table, "{name:<40} {value:>14.4} {}", crate::metrics::unit(name))
            .expect("write to String cannot fail");
    }
    table.push_str(concat!(
        "\n# sources\n",
        "request path, traced pass: protocol.*, bind.*, plan.*, cache.key/get_miss/put, compile, place, schedule, analyze, zair.*\n",
        "timed alone, off the path: circuit.parse, circuit.preprocess, bind.resolve (bind with no circuits)\n",
        "probes on this workload's outputs: output_bin.*, cache.segment.open_ms/append_us; cache.get_hit_us and cache.segment.get_us when the path makes no such calls\n",
        "executor pass (2 workers, 2 clients): exec.queue_wait_*\n",
        "registry counters of the traced pass: cache.hit_ratio, cache.disk_hit_ratio, place.sa.accept_ratio, schedule.jobs_per_circuit\n",
    ));
    table.push_str("\n# registry counters during the traced pass\n");
    for prefix in ["cache.lookup.", "cache.segment.", "place.sa.", "schedule.emit."] {
        for (name, value) in registry.counters.iter().filter(|(n, _)| n.starts_with(prefix)) {
            writeln!(table, "{name:<40} {value:>14}").expect("write to String cannot fail");
        }
    }
    let path = setup.scratch.join("layers.txt");
    std::fs::write(&path, table).map_err(|e| format!("{}: {e}", path.display()))
}
