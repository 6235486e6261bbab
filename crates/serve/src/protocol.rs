//! The line-delimited JSON protocol.
//!
//! One request per line in, one response object per line out. A request
//! names a compiler, carries a batch of QASM circuits, and optionally caps
//! itself with [`AdmissionLimits`]; the service streams one
//! [`Response::Result`] per entry *as it finishes* (entries complete out of
//! order under the worker pool — correlate by `entry` index), then a
//! terminal [`Response::Done`] with aggregates, latency, deterministic
//! phase totals, and — when telemetry is on — a metrics delta and optional
//! Chrome trace. Requests that never reach the executor end with a single
//! [`Response::Rejected`] (admission) or [`Response::Error`] (malformed
//! input) instead.
//!
//! Every response object leads with `"type"` and `"protocol"`, and every
//! successful entry embeds the versioned `CompileOutput` envelope from
//! `zac_core::output_json` — the same bytes a direct compile serializes to,
//! which is what the bit-identity tests assert.

use serde::{DeError, Deserialize, ObjectView, Serialize, Value};
use zac_core::admission::{AdmissionLimits, RejectReason};
use zac_core::CompileOutput;

/// Version tag carried by every response line. Readers accept 1..=current.
pub const PROTOCOL_VERSION: u64 = 1;

/// One circuit in a request: a display name plus OpenQASM 2.0 source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitEntry {
    /// Display name (used in responses; redacted on log surfaces).
    pub name: String,
    /// OpenQASM 2.0 source text.
    pub qasm: String,
}

impl Serialize for CircuitEntry {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("qasm".into(), self.qasm.to_value()),
        ])
    }
}

impl Deserialize for CircuitEntry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        Ok(Self { name: obj.field("name")?, qasm: obj.field("qasm")? })
    }
}

/// One compile request: a compiler, a batch of circuits, and scheduling
/// knobs. Everything but `id`, `compiler`, and `circuits` is optional on
/// the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on every response.
    pub id: String,
    /// Compiler label — one of the paper lineup (`zac_bench::COMPILERS`),
    /// e.g. `"Zoned-ZAC"` or `"SC-Heron"`.
    pub compiler: String,
    /// Placement-engine override for `Zoned-ZAC`: `"exhaustive"` or
    /// `"windowed"`. Rejected for other compilers (they have no engine).
    pub engine: Option<String>,
    /// Scheduling priority; higher runs first, ties in submission order.
    pub priority: i64,
    /// Deadline budget in milliseconds from submission; entries still
    /// queued when it expires are rejected, not compiled.
    pub deadline_ms: Option<u64>,
    /// Request-side admission caps, tightened against the service policy
    /// (strictest wins — a client can never widen the policy).
    pub limits: AdmissionLimits,
    /// The circuits to compile.
    pub circuits: Vec<CircuitEntry>,
    /// Request a Chrome trace of this request's spans in the `Done`
    /// response (needs telemetry enabled service-side).
    pub trace: bool,
}

impl Request {
    /// A request with default knobs (priority 0, no deadline, no caps).
    pub fn new(
        id: impl Into<String>,
        compiler: impl Into<String>,
        circuits: Vec<CircuitEntry>,
    ) -> Self {
        Self {
            id: id.into(),
            compiler: compiler.into(),
            engine: None,
            priority: 0,
            deadline_ms: None,
            limits: AdmissionLimits::default(),
            circuits,
            trace: false,
        }
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("id".into(), self.id.to_value()),
            ("compiler".into(), self.compiler.to_value()),
            ("engine".into(), self.engine.to_value()),
            ("priority".into(), self.priority.to_value()),
            ("deadline_ms".into(), self.deadline_ms.to_value()),
            ("limits".into(), self.limits.to_value()),
            ("circuits".into(), self.circuits.to_value()),
            ("trace".into(), self.trace.to_value()),
        ])
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        Ok(Self {
            id: obj.field("id")?,
            compiler: obj.field("compiler")?,
            engine: obj.opt_field("engine")?,
            priority: obj.field_or_default("priority")?,
            deadline_ms: obj.opt_field("deadline_ms")?,
            limits: obj.field_or_default("limits")?,
            circuits: obj.field("circuits")?,
            trace: obj.field_or_default("trace")?,
        })
    }
}

/// Why an entry failed terminally (produced no output). On the wire the
/// `reason` field stays a human-readable string for every kind — pre-9
/// readers keep working — and a `kind` tag ("compile" / "panic" /
/// "cancelled") plus kind-specific fields carry the typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// The compiler reported a failure — a bug, not a capacity limit.
    Compile(String),
    /// The compiler panicked mid-entry; the worker was respawned and the
    /// panic payload is reported here instead of taking the process down.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The compile ran past its deadline and was cancelled cooperatively.
    Cancelled {
        /// Milliseconds the compile ran before cancellation took effect.
        after_ms: u64,
    },
}

impl EntryError {
    /// The wire `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Compile(_) => "compile",
            Self::Panicked { .. } => "panic",
            Self::Cancelled { .. } => "cancelled",
        }
    }
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Compile(reason) => write!(f, "{reason}"),
            Self::Panicked { message } => write!(f, "compiler panicked: {message}"),
            Self::Cancelled { after_ms } => {
                write!(f, "compile cancelled after {after_ms} ms (deadline)")
            }
        }
    }
}

impl std::error::Error for EntryError {}

/// How one entry ended: the serving-side mirror of the bench harness's
/// three-way `RunOutcome`, with the full output (not a row projection) on
/// success.
#[derive(Debug, Clone)]
pub enum EntryOutcome {
    /// Compiled (or served from cache): the versioned output envelope.
    Ok(Box<CompileOutput>),
    /// Turned away by admission control or hardware capacity, with the
    /// typed reason.
    Rejected(RejectReason),
    /// The entry failed terminally, with the typed [`EntryError`].
    Failed(EntryError),
}

impl EntryOutcome {
    /// The output, if the entry succeeded.
    pub fn output(&self) -> Option<&CompileOutput> {
        match self {
            Self::Ok(out) => Some(out),
            _ => None,
        }
    }
}

impl Serialize for EntryOutcome {
    fn to_value(&self) -> Value {
        match self {
            Self::Ok(out) => Value::Object(vec![
                ("status".into(), "ok".to_value()),
                ("output".into(), out.to_value()),
            ]),
            Self::Rejected(reason) => Value::Object(vec![
                ("status".into(), "rejected".to_value()),
                ("reason".into(), reason.to_value()),
            ]),
            Self::Failed(err) => {
                let mut obj = vec![
                    ("status".into(), "failed".to_value()),
                    ("kind".into(), err.kind().to_value()),
                    ("reason".into(), err.to_string().to_value()),
                ];
                match err {
                    EntryError::Compile(_) => {}
                    EntryError::Panicked { message } => {
                        obj.push(("message".into(), message.to_value()));
                    }
                    EntryError::Cancelled { after_ms } => {
                        obj.push(("after_ms".into(), after_ms.to_value()));
                    }
                }
                Value::Object(obj)
            }
        }
    }
}

impl Deserialize for EntryOutcome {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        Ok(match obj.tag("status")? {
            "ok" => Self::Ok(Box::new(obj.field("output")?)),
            "rejected" => Self::Rejected(obj.field("reason")?),
            "failed" => {
                // Pre-9 writers emitted no `kind`; their failures were all
                // compiler failures.
                let kind: Option<String> = obj.opt_field("kind")?;
                Self::Failed(match kind.as_deref().unwrap_or("compile") {
                    "compile" => EntryError::Compile(obj.field("reason")?),
                    "panic" => EntryError::Panicked { message: obj.field("message")? },
                    "cancelled" => EntryError::Cancelled { after_ms: obj.field("after_ms")? },
                    other => return Err(DeError::msg(format!("unknown failure kind `{other}`"))),
                })
            }
            other => return Err(DeError::msg(format!("unknown entry status `{other}`"))),
        })
    }
}

/// Deterministic per-request phase totals: place/schedule nanoseconds
/// summed over the successful entries (cache hits contribute their
/// *original* split, so a warm request reports the same totals as the cold
/// one that populated it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTotals {
    /// Total placement nanoseconds across ok entries.
    pub place_ns: u64,
    /// Total scheduling nanoseconds across ok entries.
    pub schedule_ns: u64,
}

impl Serialize for PhaseTotals {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("place_ns".into(), self.place_ns.to_value()),
            ("schedule_ns".into(), self.schedule_ns.to_value()),
        ])
    }
}

impl Deserialize for PhaseTotals {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        Ok(Self { place_ns: obj.field("place_ns")?, schedule_ns: obj.field("schedule_ns")? })
    }
}

/// The terminal response of a request that reached the executor.
#[derive(Debug, Clone)]
pub struct Done {
    /// Echoed request id.
    pub id: String,
    /// Entries that produced an output.
    pub ok: usize,
    /// Entries rejected (admission caps, deadline, hardware capacity).
    pub rejected: usize,
    /// Entries whose compiler failed.
    pub failed: usize,
    /// Wall-clock milliseconds from submission to this response.
    pub latency_ms: u64,
    /// Deterministic phase totals over the ok entries.
    pub phase_totals: PhaseTotals,
    /// Registry metrics delta since submission (snapshot-schema JSON),
    /// attached when telemetry is enabled. Process-global: concurrent
    /// requests' activity overlaps, exactly like
    /// `BatchRunner::run_with_metrics`.
    pub metrics: Option<Value>,
    /// Chrome trace of the spans drained at completion, when the request
    /// asked for one and telemetry is enabled. Same global caveat.
    pub trace: Option<Value>,
}

/// One response line. `Result` streams per entry; exactly one of
/// `Done`/`Rejected`/`Error` terminates each request.
#[derive(Debug, Clone)]
pub enum Response {
    /// One entry finished (in completion order, not submission order).
    Result {
        /// Echoed request id.
        id: String,
        /// Index of the entry within the request's `circuits`.
        entry: usize,
        /// The entry's circuit name.
        name: String,
        /// How it ended.
        outcome: EntryOutcome,
    },
    /// The whole request was turned away before any entry ran.
    Rejected {
        /// Echoed request id.
        id: String,
        /// The typed reason.
        reason: RejectReason,
    },
    /// Terminal summary of an executed request.
    Done(Done),
    /// The request could not be understood (malformed JSON, unknown
    /// compiler, QASM parse failure). `id` is present when it could be
    /// recovered from the input.
    Error {
        /// Echoed request id, when parseable.
        id: Option<String>,
        /// Human-readable reason.
        reason: String,
    },
}

impl Response {
    /// The request id this response belongs to, when known.
    pub fn id(&self) -> Option<&str> {
        match self {
            Self::Result { id, .. } | Self::Rejected { id, .. } => Some(id),
            Self::Done(done) => Some(&done.id),
            Self::Error { id, .. } => id.as_deref(),
        }
    }

    /// Whether this is the last response of its request.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Self::Result { .. })
    }
}

fn head(kind: &str) -> Vec<(String, Value)> {
    vec![("type".into(), kind.to_value()), ("protocol".into(), PROTOCOL_VERSION.to_value())]
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Self::Result { id, entry, name, outcome } => {
                let mut obj = head("result");
                obj.push(("id".into(), id.to_value()));
                obj.push(("entry".into(), entry.to_value()));
                obj.push(("name".into(), name.to_value()));
                obj.push(("outcome".into(), outcome.to_value()));
                Value::Object(obj)
            }
            Self::Rejected { id, reason } => {
                let mut obj = head("rejected");
                obj.push(("id".into(), id.to_value()));
                obj.push(("reason".into(), reason.to_value()));
                Value::Object(obj)
            }
            Self::Done(done) => {
                let mut obj = head("done");
                obj.push(("id".into(), done.id.to_value()));
                obj.push(("ok".into(), done.ok.to_value()));
                obj.push(("rejected".into(), done.rejected.to_value()));
                obj.push(("failed".into(), done.failed.to_value()));
                obj.push(("latency_ms".into(), done.latency_ms.to_value()));
                obj.push(("phase_totals".into(), done.phase_totals.to_value()));
                obj.push(("metrics".into(), done.metrics.to_value()));
                obj.push(("trace".into(), done.trace.to_value()));
                Value::Object(obj)
            }
            Self::Error { id, reason } => {
                let mut obj = head("error");
                obj.push(("id".into(), id.to_value()));
                obj.push(("reason".into(), reason.to_value()));
                Value::Object(obj)
            }
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        let protocol: u64 = obj.field_or_default("protocol")?;
        if !(0..=PROTOCOL_VERSION).contains(&protocol) {
            return Err(DeError::msg(format!(
                "unsupported protocol version {protocol} (reader supports <= {PROTOCOL_VERSION})"
            )));
        }
        Ok(match obj.tag("type")? {
            "result" => Self::Result {
                id: obj.field("id")?,
                entry: obj.field("entry")?,
                name: obj.field("name")?,
                outcome: obj.field("outcome")?,
            },
            "rejected" => Self::Rejected { id: obj.field("id")?, reason: obj.field("reason")? },
            "done" => Self::Done(Done {
                id: obj.field("id")?,
                ok: obj.field("ok")?,
                rejected: obj.field("rejected")?,
                failed: obj.field("failed")?,
                latency_ms: obj.field("latency_ms")?,
                phase_totals: obj.field("phase_totals")?,
                metrics: obj.opt_field("metrics")?,
                trace: obj.opt_field("trace")?,
            }),
            "error" => Self::Error { id: obj.opt_field("id")?, reason: obj.field("reason")? },
            other => return Err(DeError::msg(format!("unknown response type `{other}`"))),
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_fills_defaults() {
        let json = "{\"id\":\"r1\",\"compiler\":\"Zoned-ZAC\",\"circuits\":[{\"name\":\"c\",\"qasm\":\"...\"}]}";
        let req: Request = serde_json::from_str(json).unwrap();
        assert_eq!(req.id, "r1");
        assert_eq!(req.priority, 0);
        assert_eq!(req.engine, None);
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.limits, AdmissionLimits::default());
        assert!(!req.trace);
        assert_eq!(req.circuits.len(), 1);
    }

    #[test]
    fn full_request_roundtrips() {
        let mut req = Request::new(
            "r2",
            "Zoned-ZAC",
            vec![CircuitEntry { name: "ghz".into(), qasm: "OPENQASM 2.0;".into() }],
        );
        req.engine = Some("windowed".into());
        req.priority = 7;
        req.deadline_ms = Some(5_000);
        req.limits = AdmissionLimits { max_qubits: Some(64), ..Default::default() };
        req.trace = true;
        let json = serde_json::to_string(&req).unwrap();
        assert_eq!(serde_json::from_str::<Request>(&json).unwrap(), req);
    }

    #[test]
    fn responses_roundtrip_and_tag_their_type() {
        let rejected = Response::Rejected {
            id: "r".into(),
            reason: RejectReason::QueueFull { depth: 9, cap: 9 },
        };
        let json = serde_json::to_string(&rejected).unwrap();
        assert!(json.starts_with("{\"type\":\"rejected\",\"protocol\":1,"), "{json}");
        match serde_json::from_str::<Response>(&json).unwrap() {
            Response::Rejected { id, reason } => {
                assert_eq!(id, "r");
                assert_eq!(reason, RejectReason::QueueFull { depth: 9, cap: 9 });
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let done = Response::Done(Done {
            id: "r".into(),
            ok: 3,
            rejected: 1,
            failed: 0,
            latency_ms: 42,
            phase_totals: PhaseTotals { place_ns: 10, schedule_ns: 20 },
            metrics: None,
            trace: None,
        });
        assert!(done.is_terminal());
        let back: Response = serde_json::from_str(&serde_json::to_string(&done).unwrap()).unwrap();
        match back {
            Response::Done(d) => {
                assert_eq!((d.ok, d.rejected, d.failed, d.latency_ms), (3, 1, 0, 42));
                assert_eq!(d.phase_totals, PhaseTotals { place_ns: 10, schedule_ns: 20 });
                assert!(d.metrics.is_none() && d.trace.is_none());
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let err = Response::Error { id: None, reason: "bad json".into() };
        assert_eq!(err.id(), None);
        let back: Response = serde_json::from_str(&serde_json::to_string(&err).unwrap()).unwrap();
        assert!(matches!(back, Response::Error { id: None, .. }));

        assert!(serde_json::from_str::<Response>("{\"type\":\"martian\",\"protocol\":1}").is_err());
        assert!(serde_json::from_str::<Response>("{\"type\":\"done\",\"protocol\":99}").is_err());
    }

    #[test]
    fn entry_outcomes_roundtrip() {
        let rejected = EntryOutcome::Rejected(RejectReason::TooLarge { needed: 40, available: 16 });
        let json = serde_json::to_string(&rejected).unwrap();
        assert!(json.contains("\"status\":\"rejected\""), "{json}");
        assert!(matches!(
            serde_json::from_str::<EntryOutcome>(&json).unwrap(),
            EntryOutcome::Rejected(RejectReason::TooLarge { needed: 40, available: 16 })
        ));
        let failed = EntryOutcome::Failed(EntryError::Compile("boom".into()));
        assert!(failed.output().is_none());
        let json = serde_json::to_string(&failed).unwrap();
        assert!(json.contains("\"kind\":\"compile\""), "{json}");
        let back: EntryOutcome = serde_json::from_str(&json).unwrap();
        assert!(matches!(back, EntryOutcome::Failed(EntryError::Compile(r)) if r == "boom"));
    }

    #[test]
    fn entry_errors_roundtrip_with_typed_payloads() {
        for err in [
            EntryError::Compile("no detour trap".into()),
            EntryError::Panicked { message: "index out of bounds".into() },
            EntryError::Cancelled { after_ms: 125 },
        ] {
            let json = serde_json::to_string(&EntryOutcome::Failed(err.clone())).unwrap();
            assert!(json.contains(&format!("\"kind\":\"{}\"", err.kind())), "{json}");
            assert!(json.contains("\"reason\":"), "every kind keeps the legacy string: {json}");
            match serde_json::from_str::<EntryOutcome>(&json).unwrap() {
                EntryOutcome::Failed(back) => assert_eq!(back, err),
                other => panic!("wrong variant: {other:?}"),
            }
        }

        // Pre-9 lines carried no kind: they deserialize as compiler failures.
        let legacy = "{\"status\":\"failed\",\"reason\":\"boom\"}";
        assert!(matches!(
            serde_json::from_str::<EntryOutcome>(legacy).unwrap(),
            EntryOutcome::Failed(EntryError::Compile(r)) if r == "boom"
        ));
        let unknown = "{\"status\":\"failed\",\"kind\":\"martian\",\"reason\":\"x\"}";
        assert!(serde_json::from_str::<EntryOutcome>(unknown).is_err());
    }
}
