//! Seeded input generation for the three workloads.
//!
//! Everything the server receives is produced here from the workload seed:
//! request `i` of a stream depends only on `(seed, i)`, so the client can
//! generate lines on demand, and the same seed always gives byte-identical
//! lines. Request ids are `r<i>`; the readiness probe uses `ready`.

use std::f64::consts::PI;
use std::path::Path;
use std::sync::Arc;
use zac_circuit::{bench_circuits, qasm::to_qasm, Circuit};
use zac_serve::{CircuitEntry, Request};

/// The placement engine every `Zoned-ZAC` request of a workload names.
pub const EXHAUSTIVE: &str = "exhaustive";
/// The windowed engine (the `store_churn` compiler).
pub const WINDOWED: &str = "windowed";

/// Records in the `store_churn` segment store, populated once per
/// invocation.
pub const STORED_CIRCUITS: usize = 1000;
/// Share of `store_churn` circuits never seen before.
const FRESH_SHARE: f64 = 0.1;
/// Circuits per `store_churn` request. A fleet member serves small
/// batches; a single-circuit request would spend most of its time in
/// per-request thread and pipe hand-offs, whose cost on a shared virtual
/// machine swings with the host's load.
const CHURN_BATCH: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Circuits the service has never seen, against a memory-only cache.
    ColdFresh,
    /// The paper suite plus the bundled corpus, every lookup a memory hit.
    WarmSweep,
    /// Skewed draws from a populated segment store plus fresh circuits.
    StoreChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ColdFresh, Workload::WarmSweep, Workload::StoreChurn];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFresh => "cold_fresh",
            Workload::WarmSweep => "warm_sweep",
            Workload::StoreChurn => "store_churn",
        }
    }
}

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream position `index` under `seed`.
    pub fn at(seed: u64, stream: u64, index: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.0 ^= rng.next_u64() ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One circuit as sent: display name plus OpenQASM source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Display name (unique within a workload stream).
    pub name: String,
    /// OpenQASM 2.0 source.
    pub qasm: String,
}

/// One generated request, before its id is attached.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    /// Compiler label.
    pub compiler: &'static str,
    /// Placement engine (named on every `Zoned-ZAC` request).
    pub engine: Option<&'static str>,
    /// The circuits, shared with the post-run check.
    pub circuits: Vec<Arc<CircuitSpec>>,
    /// The request line with an empty id: `{"id":"",...}`.
    tail: Arc<str>,
}

impl RequestSpec {
    fn new(
        compiler: &'static str,
        engine: Option<&'static str>,
        circuits: Vec<Arc<CircuitSpec>>,
    ) -> Self {
        let mut request = Request::new(
            "",
            compiler,
            circuits
                .iter()
                .map(|c| CircuitEntry { name: c.name.clone(), qasm: c.qasm.clone() })
                .collect(),
        );
        request.engine = engine.map(str::to_string);
        let line = serde_json::to_string(&request).expect("requests always serialize");
        let tail = line.strip_prefix("{\"id\":\"\",").expect("the id leads every request");
        Self { compiler, engine, circuits, tail: tail.into() }
    }

    /// The protocol line for request id `r<index>`.
    pub fn line(&self, index: usize) -> String {
        self.line_for(&format!("r{index}"))
    }

    /// The protocol line under request id `id` (plain ASCII, no quotes).
    pub fn line_for(&self, id: &str) -> String {
        format!("{{\"id\":\"{id}\",{}", self.tail)
    }

    /// The cache-identity label of this request's compiler arm.
    pub fn arm(&self) -> String {
        match self.engine {
            Some(engine) => format!("{}/{engine}", self.compiler),
            None => self.compiler.to_string(),
        }
    }
}

/// The readiness probe: an empty batch, answered by a `done` once the
/// session loop, binder and executor are up.
pub fn readiness_line() -> &'static str {
    "{\"id\":\"ready\",\"compiler\":\"Zoned-ZAC\",\"engine\":\"exhaustive\",\"circuits\":[]}"
}

/// The paper-family generators a seeded circuit is drawn from, with the
/// qubit range drawn for each (odd-only families round up).
const FAMILIES: [(&str, usize, usize); 8] = [
    ("ghz", 8, 40),
    ("cat", 8, 40),
    ("bv", 8, 40),
    ("ising", 8, 40),
    ("qft", 5, 14),
    ("wstate", 6, 30),
    ("swap_test", 5, 25),
    ("knn", 5, 25),
];

/// A seeded paper-family circuit with a seeded 1Q angle, so its contents
/// (not just its name) differ from every other draw.
fn family_circuit(rng: &mut Rng, label: &str, max_qubits: usize) -> Circuit {
    let (family, lo, hi) = FAMILIES[rng.range(0, FAMILIES.len() - 1)];
    let mut n = rng.range(lo, hi.min(max_qubits.max(lo)));
    let base = match family {
        "ghz" => bench_circuits::ghz(n),
        "cat" => bench_circuits::cat(n),
        "bv" => bench_circuits::bv(n, rng.range(1, n - 1)),
        "ising" => bench_circuits::ising(n),
        "qft" => bench_circuits::qft(n),
        "wstate" => bench_circuits::wstate(n),
        _ => {
            n |= 1;
            if family == "swap_test" {
                bench_circuits::swap_test(n)
            } else {
                bench_circuits::knn(n)
            }
        }
    };
    salted(&base, &format!("{family}_n{n}_{label}"), rng)
}

/// `base` renamed, with one seeded `rz` appended on a seeded qubit.
fn salted(base: &Circuit, name: &str, rng: &mut Rng) -> Circuit {
    let mut circuit = Circuit::new(name, base.num_qubits());
    for gate in base.gates() {
        circuit.push(*gate);
    }
    let qubit = rng.range(0, base.num_qubits() - 1);
    circuit.rz(rng.unit() * 2.0 * PI, qubit);
    circuit
}

fn spec_of(circuit: &Circuit) -> Arc<CircuitSpec> {
    Arc::new(CircuitSpec { name: circuit.name().to_string(), qasm: to_qasm(circuit) })
}

/// A workload's deterministic request stream.
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// `warm_sweep`: the six lineup batches in rotation order.
    batches: Vec<RequestSpec>,
    /// `store_churn`: the populated set.
    stored: Vec<Arc<CircuitSpec>>,
}

impl Stream {
    /// Builds the stream; `corpus_dir` holds the bundled `.qasm` files
    /// `warm_sweep` sends.
    ///
    /// # Errors
    ///
    /// A message when the corpus cannot be read.
    pub fn new(workload: Workload, seed: u64, corpus_dir: &Path) -> Result<Self, String> {
        let mut stream = Self { workload, seed, batches: Vec::new(), stored: Vec::new() };
        match workload {
            Workload::ColdFresh => {}
            Workload::WarmSweep => stream.batches = sweep_batches(seed, corpus_dir)?,
            Workload::StoreChurn => {
                stream.stored = (0..STORED_CIRCUITS)
                    .map(|i| {
                        let mut rng = Rng::at(seed, 2, i as u64);
                        spec_of(&family_circuit(&mut rng, &format!("s{i}"), 24))
                    })
                    .collect();
            }
        }
        Ok(stream)
    }

    /// The `store_churn` populated set (empty for other workloads).
    pub fn stored(&self) -> &[Arc<CircuitSpec>] {
        &self.stored
    }

    /// The untimed warm-up requests (`warm_sweep`: one batch per lineup
    /// label, so every later lookup hits memory).
    pub fn warmup(&self) -> &[RequestSpec] {
        &self.batches
    }

    /// Request `index` of the timed stream.
    pub fn request(&self, index: usize) -> RequestSpec {
        let i = index as u64;
        match self.workload {
            Workload::ColdFresh => {
                let mut rng = Rng::at(self.seed, 1, i);
                let circuit = family_circuit(&mut rng, &format!("c{index}"), usize::MAX);
                RequestSpec::new("Zoned-ZAC", Some(EXHAUSTIVE), vec![spec_of(&circuit)])
            }
            Workload::WarmSweep => self.batches[index % self.batches.len()].clone(),
            Workload::StoreChurn => {
                let mut rng = Rng::at(self.seed, 3, i);
                let circuits = (0..CHURN_BATCH)
                    .map(|k| {
                        if rng.unit() < FRESH_SHARE {
                            spec_of(&family_circuit(&mut rng, &format!("f{index}_{k}"), 24))
                        } else {
                            // Skewed toward low ranks: half the draws land
                            // in the first eighth of the store.
                            let rank = (rng.unit().powi(3) * STORED_CIRCUITS as f64) as usize;
                            Arc::clone(&self.stored[rank.min(STORED_CIRCUITS - 1)])
                        }
                    })
                    .collect();
                RequestSpec::new("Zoned-ZAC", Some(WINDOWED), circuits)
            }
        }
    }
}

/// The 27-circuit sweep (17-circuit paper suite + 10 corpus files), salted
/// and shuffled by the seed, as one batch per lineup label; the rotation
/// starts at a seeded label.
fn sweep_batches(seed: u64, corpus_dir: &Path) -> Result<Vec<RequestSpec>, String> {
    let mut rng = Rng::at(seed, 4, 0);
    let mut circuits: Vec<Arc<CircuitSpec>> = bench_circuits::paper_suite()
        .iter()
        .map(|entry| {
            let name = entry.circuit.name().to_string();
            spec_of(&salted(&entry.circuit, &name, &mut rng))
        })
        .collect();
    for (name, qasm) in corpus_files(corpus_dir)? {
        circuits.push(Arc::new(CircuitSpec { qasm: salted_qasm(&qasm, &mut rng), name }));
    }
    // Fisher–Yates under the seed.
    for i in (1..circuits.len()).rev() {
        circuits.swap(i, rng.range(0, i));
    }
    let start = rng.range(0, zac_bench::COMPILERS.len() - 1);
    Ok((0..zac_bench::COMPILERS.len())
        .map(|k| {
            let label = zac_bench::COMPILERS[(start + k) % zac_bench::COMPILERS.len()];
            let engine = (label == "Zoned-ZAC").then_some(EXHAUSTIVE);
            RequestSpec::new(label, engine, circuits.clone())
        })
        .collect())
}

/// The bundled corpus, sorted by file name: `(stem, source)`.
fn corpus_files(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("corpus {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "qasm") {
            let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned());
            let source = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            files.push((stem.unwrap_or_default(), source));
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("corpus {} holds no .qasm files", dir.display()));
    }
    Ok(files)
}

/// Appends one seeded `rz` on qubit 0 of the file's first register.
fn salted_qasm(source: &str, rng: &mut Rng) -> String {
    let register = source
        .lines()
        .find_map(|line| line.trim().strip_prefix("qreg "))
        .and_then(|decl| decl.split('[').next())
        .unwrap_or("q")
        .trim()
        .to_string();
    format!("{source}\nrz({}) {register}[0];\n", rng.unit() * 2.0 * PI)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/corpus")
    }

    fn lines(workload: Workload, seed: u64, n: usize) -> Vec<String> {
        let stream = Stream::new(workload, seed, &corpus()).unwrap();
        let mut lines: Vec<String> = stream.warmup().iter().map(|r| r.line(0)).collect();
        lines.extend((0..n).map(|i| stream.request(i).line(i)));
        lines.extend(stream.stored().iter().map(|c| c.qasm.clone()));
        lines
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        for workload in Workload::ALL {
            assert_eq!(lines(workload, 7, 40), lines(workload, 7, 40), "{workload:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_circuits() {
        for workload in Workload::ALL {
            let circuits = |seed| {
                let stream = Stream::new(workload, seed, &corpus()).unwrap();
                (0..12)
                    .flat_map(|i| stream.request(i).circuits)
                    .map(|c| c.qasm.clone())
                    .collect::<Vec<_>>()
            };
            assert_ne!(circuits(1), circuits(2), "{workload:?}");
        }
    }

    #[test]
    fn requests_parse_and_name_their_engine() {
        for workload in Workload::ALL {
            let stream = Stream::new(workload, 3, &corpus()).unwrap();
            for i in 0..12 {
                let spec = stream.request(i);
                let request: Request = serde_json::from_str(&spec.line(i)).unwrap();
                assert_eq!(request.id, format!("r{i}"));
                assert_eq!(request.circuits.len(), spec.circuits.len());
                if request.compiler == "Zoned-ZAC" {
                    assert!(request.engine.is_some(), "{workload:?} request {i}");
                }
            }
        }
        let ready: Request = serde_json::from_str(readiness_line()).unwrap();
        assert!(ready.circuits.is_empty());
    }

    #[test]
    fn cold_fresh_circuits_are_distinct() {
        let stream = Stream::new(Workload::ColdFresh, 11, &corpus()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            assert!(seen.insert(stream.request(i).circuits[0].qasm.clone()), "request {i}");
        }
    }
}
