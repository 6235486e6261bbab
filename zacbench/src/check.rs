//! The post-run correctness check, run after timing stops.
//!
//! Every captured line is decoded. Each `ok` entry is checked against an
//! oracle independent of the compiler that produced it:
//!
//! * `Zoned-ZAC` programs are replayed with `Program::verify_against` on
//!   the reference architecture and the staged input (every CZ executes
//!   exactly once, in dependency order); their `counts.g2` must equal the
//!   input's CZ count;
//! * baseline outputs must report the input's CZ count as `counts.g2` —
//!   plus whole SWAPs (3 CZ each) for the compilers that route
//!   (`SC-Heron`, `SC-Grid`, `Monolithic-Atomique`);
//! * a cache hit's `semantic_digest` must equal the cold-compile digest of
//!   the same cell from this invocation.
//!
//! Every circuit whose entry is missing, not `ok`, or fails a check counts
//! once into `failed`.

use crate::workload::RequestSpec;
use std::collections::HashMap;
use std::sync::Arc;
use zac_arch::Architecture;
use zac_circuit::qasm::parse_qasm;
use zac_circuit::{preprocess, StagedCircuit};
use zac_core::CompileOutput;
use zac_serve::{EntryOutcome, Response};

/// Compilers whose `g2` includes inserted SWAPs (3 CZ each).
const ROUTING_COMPILERS: [&str; 3] = ["SC-Heron", "SC-Grid", "Monolithic-Atomique"];

/// A cell's identity across requests: compiler arm and circuit name.
pub type Cell = (String, String);

/// Post-run verdict and the deterministic quality figures.
#[derive(Debug, Default)]
pub struct Report {
    /// Circuits in every request sent.
    pub attempted: usize,
    /// Circuits missing, not `ok`, or failing a check.
    pub failed: usize,
    /// `ok` circuits per request index (that passed every check).
    pub ok_by_request: Vec<usize>,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// Cache hits seen (entries with `from_cache`).
    pub hits: usize,
    /// Per distinct ok circuit of the requests below the prefix (first
    /// occurrence): its output's fidelity.
    pub fidelities: Vec<f64>,
    /// The same circuits' `summary.duration_us`.
    pub durations_us: Vec<f64>,
    /// The same circuits' response bytes: the result line plus its share
    /// of the request's `done` line, with the wall-clock fields written as
    /// zero.
    pub response_bytes: Vec<f64>,
}

/// One decoded, checked line.
enum Line {
    Entry {
        request: usize,
        entry: usize,
        verdict: Result<EntryOk, String>,
        bytes: u64,
    },
    Terminal {
        request: usize,
        /// Whether the terminal is a `done` (not `rejected`/`error`).
        done: bool,
        bytes: u64,
    },
    Undecodable(String),
}

#[derive(Clone)]
struct EntryOk {
    cell: Cell,
    digest: Option<u64>,
    from_cache: bool,
    fidelity: f64,
    duration_us: f64,
}

/// Checks `lines`, the responses to `requests[i]` sent as id `r<i>`, in
/// arrival order. `cold` holds cold-compile digests known before the drive
/// (warm-up, store population) and gains this drive's cold compiles.
/// Requests below `prefix` feed the quality figures. `digests` turns on
/// the hit check. Lines are decoded on two threads as they are read.
pub fn check(
    requests: &[RequestSpec],
    lines: impl Iterator<Item = std::io::Result<Vec<u8>>>,
    cold: &mut HashMap<Cell, u64>,
    prefix: usize,
    digests: bool,
) -> Report {
    let decoded: Vec<Line> = std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, std::io::Result<Vec<u8>>)>(64);
        // Shared by the two checkers only: once both have ended, the
        // receiver drops and the reader below stops instead of blocking.
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let rx = Arc::clone(&rx);
                scope.spawn(move || {
                    let mut checker = Checker::new(requests, prefix, digests);
                    let mut out = Vec::new();
                    // A poisoned lock means the other checker panicked;
                    // its join below reports that.
                    while let Ok((i, line)) =
                        rx.lock().map_err(|_| ()).and_then(|r| r.recv().map_err(|_| ()))
                    {
                        let checked = match line {
                            Ok(line) => checker.line(&line),
                            Err(e) => Line::Undecodable(format!("capture read failed: {e}")),
                        };
                        out.push((i, checked));
                    }
                    out
                })
            })
            .collect();
        drop(rx);
        for item in lines.enumerate() {
            if tx.send(item).is_err() {
                break;
            }
        }
        drop(tx);
        let mut all: Vec<(usize, Line)> =
            handles.into_iter().flat_map(|h| h.join().expect("check thread panicked")).collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, line)| line).collect()
    });

    let mut report = Report {
        attempted: requests.iter().map(|r| r.circuits.len()).sum(),
        ok_by_request: vec![0; requests.len()],
        ..Report::default()
    };
    // Per circuit: `None` unanswered, `Some(true)` ok so far, `Some(false)`
    // failed. Each circuit counts into `failed` at most once.
    let mut state: Vec<Vec<Option<bool>>> =
        requests.iter().map(|r| vec![None; r.circuits.len()]).collect();
    let mut terminal: Vec<Option<bool>> = vec![None; requests.len()];
    let mut quality: HashMap<(usize, usize), (Cell, f64, f64, u64)> = HashMap::new();
    let mut done_bytes = vec![0u64; requests.len()];
    let mut hits = Vec::new();
    let mut stray = 0usize;
    let note = |report: &mut Report, message: String| {
        if report.messages.len() < 8 {
            report.messages.push(message);
        }
    };
    for line in decoded {
        match line {
            Line::Undecodable(message) => {
                stray += 1;
                note(&mut report, message);
            }
            Line::Terminal { request, done, bytes } => {
                if terminal[request].replace(done).is_some() {
                    note(&mut report, format!("r{request}: second terminal line"));
                    state[request].iter_mut().for_each(|s| *s = Some(false));
                }
                done_bytes[request] = bytes;
            }
            Line::Entry { request, entry, verdict, bytes } => {
                if state[request][entry].is_some() {
                    note(&mut report, format!("r{request} entry {entry}: reported twice"));
                    state[request][entry] = Some(false);
                    continue;
                }
                let ok = match verdict {
                    Err(message) => {
                        note(&mut report, format!("r{request} entry {entry}: {message}"));
                        state[request][entry] = Some(false);
                        continue;
                    }
                    Ok(ok) => ok,
                };
                let mut good = true;
                if request < prefix {
                    quality.insert(
                        (request, entry),
                        (ok.cell.clone(), ok.fidelity, ok.duration_us, bytes),
                    );
                }
                if ok.from_cache {
                    hits.push((request, entry, ok.cell, ok.digest));
                } else if let Some(digest) = ok.digest {
                    if cold.insert(ok.cell.clone(), digest).is_some_and(|prev| prev != digest) {
                        note(
                            &mut report,
                            format!("r{request} entry {entry}: cold compile of {:?} differs from an earlier one", ok.cell),
                        );
                        good = false;
                    }
                }
                state[request][entry] = Some(good);
            }
        }
    }
    report.hits = hits.len();
    if digests {
        for (request, entry, cell, digest) in hits {
            if cold.get(&cell) != digest.as_ref() {
                note(
                    &mut report,
                    format!("r{request} entry {entry}: cache hit on {cell:?} differs from its cold compile"),
                );
                state[request][entry] = Some(false);
            }
        }
    }
    // Quality figures count each circuit once, at its first occurrence, so
    // a skewed draw of repeats does not weight them toward a few circuits.
    let mut counted = std::collections::HashSet::new();
    for (request, circuits) in state.iter_mut().enumerate() {
        // A request must end in exactly one `done`; `rejected`/`error`
        // terminals or none at all fail every circuit it carried.
        if terminal[request] != Some(true) {
            note(
                &mut report,
                format!("r{request}: terminal line {:?}, expected done", terminal[request]),
            );
            circuits.iter_mut().for_each(|s| *s = Some(false));
        }
        for (entry, s) in circuits.iter().enumerate() {
            if *s == Some(true) {
                report.ok_by_request[request] += 1;
                if let Some((cell, fidelity, duration, bytes)) = quality.remove(&(request, entry)) {
                    if counted.insert(cell) {
                        report.fidelities.push(fidelity);
                        report.durations_us.push(duration);
                        let done_share = done_bytes[request] as f64 / circuits.len() as f64;
                        report.response_bytes.push(bytes as f64 + done_share);
                    }
                }
            } else {
                report.failed += 1;
            }
        }
    }
    report.failed = (report.failed + stray).min(report.attempted);
    report
}

/// Per-thread checking state: staged inputs are parsed once per circuit.
struct Checker<'a> {
    requests: &'a [RequestSpec],
    prefix: usize,
    digests: bool,
    arch: Architecture,
    staged: HashMap<String, Arc<StagedCircuit>>,
    /// Verdicts by content: a cache hit repeats its cell's line byte for
    /// byte after the id, so its replay and digest are done once.
    verdicts: HashMap<u64, Result<EntryOk, String>>,
}

impl<'a> Checker<'a> {
    fn new(requests: &'a [RequestSpec], prefix: usize, digests: bool) -> Self {
        Self {
            requests,
            prefix,
            digests,
            arch: Architecture::reference(),
            staged: HashMap::new(),
            verdicts: HashMap::new(),
        }
    }

    fn line(&mut self, raw: &[u8]) -> Line {
        let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
        let text = match std::str::from_utf8(raw) {
            Ok(text) => text,
            Err(e) => return Line::Undecodable(format!("non-UTF-8 line: {e}")),
        };
        let response: Response = match serde_json::from_str(text) {
            Ok(response) => response,
            Err(e) => return Line::Undecodable(format!("undecodable line: {e}")),
        };
        let Some(request) = response
            .id()
            .and_then(|id| id.strip_prefix('r')?.parse::<usize>().ok())
            .filter(|&i| i < self.requests.len())
        else {
            return Line::Undecodable(format!("line for an unknown request: {:?}", response.id()));
        };
        let bytes = if request < self.prefix { normalized_len(&response) } else { 0 };
        match response {
            Response::Result { entry, outcome, .. } => {
                let Some(circuit) = self.requests[request].circuits.get(entry) else {
                    return Line::Undecodable(format!("r{request}: entry {entry} out of range"));
                };
                // Everything the verdict depends on: the arm, the input, and
                // the line from `"entry":` on.
                let mut fp = zac_circuit::Fingerprint::new();
                fp.write_str(&self.requests[request].arm());
                fp.write_str(&circuit.qasm);
                let at = text.find(",\"entry\":").unwrap_or(0);
                fp.write_str(&text[at..]);
                let key = fp.finish();
                let verdict = match self.verdicts.get(&key) {
                    Some(verdict) => verdict.clone(),
                    None => {
                        let verdict = self.entry(request, entry, outcome);
                        self.verdicts.insert(key, verdict.clone());
                        verdict
                    }
                };
                Line::Entry { request, entry, verdict, bytes }
            }
            Response::Done(_) => Line::Terminal { request, done: true, bytes },
            Response::Rejected { .. } | Response::Error { .. } => {
                Line::Terminal { request, done: false, bytes }
            }
        }
    }

    fn entry(
        &mut self,
        request: usize,
        entry: usize,
        outcome: EntryOutcome,
    ) -> Result<EntryOk, String> {
        let spec = &self.requests[request];
        let circuit = spec.circuits.get(entry).ok_or("entry out of range")?;
        let out = match outcome {
            EntryOutcome::Ok(out) => out,
            EntryOutcome::Rejected(reason) => return Err(format!("rejected: {reason:?}")),
            EntryOutcome::Failed(err) => return Err(format!("failed: {err}")),
        };
        let staged = match self.staged.get(&circuit.name) {
            Some(staged) => Arc::clone(staged),
            None => {
                let parsed = parse_qasm(&circuit.qasm, &circuit.name)
                    .map_err(|e| format!("benchmark input does not parse: {e}"))?;
                let staged = Arc::new(preprocess(&parsed));
                self.staged.insert(circuit.name.clone(), Arc::clone(&staged));
                staged
            }
        };
        verify_output(spec.compiler, &out, &staged, &self.arch)?;
        Ok(EntryOk {
            cell: (spec.arm(), circuit.name.clone()),
            digest: self.digests.then(|| out.semantic_digest()),
            from_cache: out.from_cache,
            fidelity: out.total_fidelity(),
            duration_us: out.summary.duration_us,
        })
    }
}

/// Checks one output against its staged input (see the module docs).
///
/// # Errors
///
/// What the oracle rejected.
pub fn verify_output(
    compiler: &str,
    out: &CompileOutput,
    staged: &StagedCircuit,
    arch: &Architecture,
) -> Result<(), String> {
    let cz = staged.num_2q_gates();
    let g2 = out.counts.g2;
    if compiler == "Zoned-ZAC" {
        let program = out.program.as_ref().ok_or("Zoned-ZAC output without a program")?;
        program.verify_against(arch, staged).map_err(|e| format!("ZAIR replay: {e}"))?;
        if g2 != cz {
            return Err(format!("counts.g2 = {g2}, input has {cz} CZ"));
        }
    } else if ROUTING_COMPILERS.contains(&compiler) {
        if g2 < cz || !(g2 - cz).is_multiple_of(3) {
            return Err(format!("counts.g2 = {g2} is not {cz} CZ plus whole SWAPs"));
        }
    } else if g2 != cz {
        return Err(format!("counts.g2 = {g2}, input has {cz} CZ"));
    }
    if !(out.total_fidelity() > 0.0 && out.total_fidelity() <= 1.0) {
        return Err(format!("fidelity {} out of (0, 1]", out.total_fidelity()));
    }
    Ok(())
}

/// Length of the response line re-encoded with its wall-clock fields
/// (`compile_time_ns`, phase nanoseconds, `latency_ms`) and the
/// `from_cache` marker written as zero/false: the exact byte count of the
/// line minus what varies from run to run.
fn normalized_len(response: &Response) -> u64 {
    let normalized = match response {
        Response::Result { id, entry, name, outcome: EntryOutcome::Ok(out) } => Response::Result {
            id: id.clone(),
            entry: *entry,
            name: name.clone(),
            outcome: EntryOutcome::Ok(Box::new(out.normalized())),
        },
        Response::Done(done) => {
            let mut done = done.clone();
            done.latency_ms = 0;
            done.phase_totals = zac_serve::PhaseTotals::default();
            Response::Done(done)
        }
        other => other.clone(),
    };
    serde_json::to_string(&normalized).map_or(0, |line| line.len() as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Stream, Workload};
    use zac_serve::bind::Binder;
    use zac_serve::{Done, PhaseTotals, Request};
    use zac_zair::Instruction;

    /// A one-request cold_fresh stream and its real compiled output.
    fn compiled() -> (Vec<RequestSpec>, CompileOutput) {
        let stream =
            Stream::new(Workload::ColdFresh, 5, std::path::Path::new("../tests/corpus")).unwrap();
        let spec = stream.request(0);
        let request: Request = serde_json::from_str(&spec.line(0)).unwrap();
        let bound = Binder::new(zac_bench::zac_config()).bind(request).unwrap();
        let out = bound.compiler.compile(&bound.circuits[0]).unwrap();
        (vec![spec], out)
    }

    fn lines_for(out: CompileOutput) -> impl Iterator<Item = std::io::Result<Vec<u8>>> {
        let result = Response::Result {
            id: "r0".into(),
            entry: 0,
            name: "c".into(),
            outcome: EntryOutcome::Ok(Box::new(out)),
        };
        let done = Response::Done(Done {
            id: "r0".into(),
            ok: 1,
            rejected: 0,
            failed: 0,
            latency_ms: 3,
            phase_totals: PhaseTotals::default(),
            metrics: None,
            trace: None,
        });
        [result, done].map(|r| Ok(serde_json::to_string(&r).unwrap().into_bytes())).into_iter()
    }

    #[test]
    fn a_correct_response_passes() {
        let (requests, out) = compiled();
        let report = check(&requests, lines_for(out), &mut HashMap::new(), 1, true);
        assert_eq!((report.attempted, report.failed), (1, 0), "{:?}", report.messages);
        assert_eq!(report.ok_by_request, vec![1]);
        assert_eq!(report.fidelities.len(), 1);
        assert!(report.response_bytes[0] > 1000.0);
    }

    #[test]
    fn a_tampered_program_raises_failed() {
        let (requests, mut out) = compiled();
        let program = out.program.as_mut().unwrap();
        let rydberg = program
            .instructions
            .iter()
            .position(|i| matches!(i, Instruction::Rydberg { .. }))
            .unwrap();
        program.instructions.remove(rydberg);
        let report = check(&requests, lines_for(out), &mut HashMap::new(), 1, true);
        assert_eq!(report.failed, 1, "the replay checker must reject the program");
        assert!(report.messages[0].contains("ZAIR replay"), "{:?}", report.messages);
    }

    #[test]
    fn a_hit_that_differs_from_its_cold_compile_fails() {
        let (requests, mut out) = compiled();
        let cell = (requests[0].arm(), requests[0].circuits[0].name.clone());
        let mut cold = HashMap::from([(cell, out.semantic_digest() ^ 1)]);
        out.from_cache = true;
        let report = check(&requests, lines_for(out), &mut cold, 1, true);
        assert_eq!(report.failed, 1, "{:?}", report.messages);
    }

    #[test]
    fn missing_answers_count_per_circuit() {
        let (requests, _) = compiled();
        let report = check(&requests, std::iter::empty(), &mut HashMap::new(), 1, true);
        // The entry was never answered and no terminal line arrived: one
        // circuit, one failure.
        assert_eq!(report.failed, 1);
        assert_eq!(report.ok_by_request, vec![0]);
    }
}
