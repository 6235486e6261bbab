//! The binder: raw [`Request`] → validated, compiler-resolved work.
//!
//! Binding is everything that can fail *loudly* (a [`Response::Error`](crate::protocol::Response)
//! on the wire) before admission control even looks at the request: QASM
//! parse failures, unknown compiler labels, engine overrides on compilers
//! that have none. Past the binder, a request is well-formed; whether it
//! *runs* is the planner's call.
//!
//! Compiler resolution is a table lookup: [`Binder::new`] builds every
//! compiler a request can name once, and each bind hands out a shared
//! handle. The instances are fingerprint-faithful — constructed exactly like
//! `zac_bench::default_compilers()`'s lineup (the `Zoned-ZAC` config is the
//! service's, `zac_bench::zac_config()` unless overridden) — so a serve-side
//! cache key equals the bench-side key and serving shares warm state with
//! direct `BatchRunner` runs.

use crate::protocol::Request;
use std::sync::Arc;
use zac_arch::Architecture;
use zac_circuit::qasm::parse_qasm;
use zac_circuit::{preprocess, StagedCircuit};
use zac_core::admission::AdmissionLimits;
use zac_core::{Compiler, Zac, ZacConfig};
use zac_place::PlacementEngine;

/// A validated request: compiler resolved, every circuit parsed and staged.
pub struct BoundRequest {
    /// Echoed request id.
    pub id: String,
    /// The resolved compiler (shared with the worker pool).
    pub compiler: Arc<dyn Compiler>,
    /// Preprocessed circuits, in request order.
    pub circuits: Vec<StagedCircuit>,
    /// Scheduling priority (higher first).
    pub priority: i64,
    /// Deadline budget in milliseconds from submission.
    pub deadline_ms: Option<u64>,
    /// Request-side caps (not yet tightened against the service policy).
    pub limits: AdmissionLimits,
    /// Whether the client asked for a Chrome trace.
    pub trace: bool,
}

impl std::fmt::Debug for BoundRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundRequest")
            .field("id", &self.id)
            .field("compiler", &self.compiler.name())
            .field("circuits", &self.circuits.len())
            .field("priority", &self.priority)
            .field("deadline_ms", &self.deadline_ms)
            .field("limits", &self.limits)
            .field("trace", &self.trace)
            .finish()
    }
}

/// Placement-engine overrides a `Zoned-ZAC` request may name.
const ENGINES: [&str; 2] = ["exhaustive", "windowed"];

/// Resolves compilers and parses circuits. One per service, configured
/// with the service's `Zoned-ZAC` configuration.
pub struct Binder {
    /// `(label, engine override)` → the compiler every such request shares.
    compilers: Vec<(String, Option<&'static str>, Arc<dyn Compiler>)>,
}

impl Binder {
    /// A binder whose `Zoned-ZAC` uses `zac_config` (the service default is
    /// `zac_bench::zac_config()`, the paper configuration). Builds the
    /// lineup's five baselines plus `Zoned-ZAC` under the base config and
    /// under each engine override.
    pub fn new(zac_config: ZacConfig) -> Self {
        let mut compilers: Vec<(String, Option<&'static str>, Arc<dyn Compiler>)> =
            zac_bench::default_compilers()
                .into_iter()
                .filter(|c| c.name() != "Zoned-ZAC")
                .map(|c| (c.name().to_owned(), None, Arc::from(c)))
                .collect();
        for engine in [None, Some("exhaustive"), Some("windowed")] {
            let mut config = zac_config.clone();
            if let Some(engine) = engine {
                config.placement.engine = match engine {
                    "windowed" => PlacementEngine::windowed(),
                    _ => PlacementEngine::Exhaustive,
                };
            }
            let zac = Zac::with_config(Architecture::reference(), config);
            compilers.push(("Zoned-ZAC".to_owned(), engine, Arc::new(zac)));
        }
        Self { compilers }
    }

    /// Validates `request` into runnable work.
    ///
    /// # Errors
    ///
    /// A human-readable reason (for [`Response::Error`](crate::protocol::Response))
    /// on unknown compiler labels, invalid engine overrides, or QASM that
    /// does not parse. Error messages name the *entry*, not the circuit
    /// contents, so they are safe to log redacted.
    pub fn bind(&self, request: Request) -> Result<BoundRequest, String> {
        let compiler = self.resolve(&request.compiler, request.engine.as_deref())?;
        let mut circuits = Vec::with_capacity(request.circuits.len());
        for (index, entry) in request.circuits.iter().enumerate() {
            let circuit = parse_qasm(&entry.qasm, &entry.name)
                .map_err(|e| format!("entry {index}: QASM parse error: {e}"))?;
            circuits.push(preprocess(&circuit));
        }
        Ok(BoundRequest {
            id: request.id,
            compiler,
            circuits,
            priority: request.priority,
            deadline_ms: request.deadline_ms,
            limits: request.limits,
            trace: request.trace,
        })
    }

    /// Looks up a compiler label (+ optional engine override) in the table.
    fn resolve(&self, name: &str, engine: Option<&str>) -> Result<Arc<dyn Compiler>, String> {
        if let Some(other) = engine.filter(|e| !ENGINES.contains(e)) {
            return Err(format!("unknown engine `{other}` (expected `exhaustive` or `windowed`)"));
        }
        match self.compilers.iter().find(|(label, e, _)| label == name && *e == engine) {
            Some((_, _, compiler)) => Ok(Arc::clone(compiler)),
            None if engine.is_some() => {
                Err(format!("engine override only applies to `Zoned-ZAC`, not `{name}`"))
            }
            None => Err(format!(
                "unknown compiler `{name}` (known: {})",
                zac_bench::COMPILERS.join(", ")
            )),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::protocol::CircuitEntry;
    use zac_circuit::bench_circuits;
    use zac_circuit::qasm::to_qasm;

    fn binder() -> Binder {
        Binder::new(zac_bench::zac_config())
    }

    fn ghz_request(id: &str, compiler: &str) -> Request {
        let circuit = bench_circuits::ghz(4);
        Request::new(
            id,
            compiler,
            vec![CircuitEntry { name: circuit.name().to_string(), qasm: to_qasm(&circuit) }],
        )
    }

    #[test]
    fn binds_every_lineup_compiler_fingerprint_faithfully() {
        for (bench, label) in zac_bench::default_compilers().iter().zip(zac_bench::COMPILERS.iter())
        {
            let bound = binder().bind(ghz_request("r", label)).expect(label);
            assert_eq!(bound.compiler.name(), *label);
            assert_eq!(
                bound.compiler.fingerprint(),
                bench.fingerprint(),
                "{label}: serve-side instance must share the bench cache identity"
            );
            assert_eq!(bound.circuits.len(), 1);
            assert_eq!(bound.circuits[0].num_qubits, 4);
        }
    }

    #[test]
    fn engine_override_changes_only_the_zac_fingerprint() {
        // Pin the base engine explicitly, so the check below compares the
        // `exhaustive` override against a known base rather than whatever
        // the service default happens to be.
        let mut config = zac_bench::zac_config();
        config.placement.engine = zac_place::PlacementEngine::Exhaustive;
        let binder = Binder::new(config);

        let mut req = ghz_request("r", "Zoned-ZAC");
        req.engine = Some("windowed".into());
        let windowed = binder.bind(req).unwrap();
        let exhaustive = binder.bind(ghz_request("r", "Zoned-ZAC")).unwrap();
        assert_ne!(windowed.compiler.fingerprint(), exhaustive.compiler.fingerprint());

        let mut explicit = ghz_request("r", "Zoned-ZAC");
        explicit.engine = Some("exhaustive".into());
        assert_eq!(
            binder.bind(explicit).unwrap().compiler.fingerprint(),
            exhaustive.compiler.fingerprint(),
            "explicit `exhaustive` equals the pinned base engine"
        );
    }

    #[test]
    fn binds_of_one_label_and_engine_share_one_compiler() {
        let binder = binder();
        for label in zac_bench::COMPILERS {
            let a = binder.bind(ghz_request("a", label)).unwrap();
            let b = binder.bind(ghz_request("b", label)).unwrap();
            assert!(Arc::ptr_eq(&a.compiler, &b.compiler), "{label}");
        }
        for engine in ENGINES {
            let bind = |id| {
                let mut req = ghz_request(id, "Zoned-ZAC");
                req.engine = Some(engine.into());
                binder.bind(req).unwrap().compiler
            };
            assert!(Arc::ptr_eq(&bind("a"), &bind("b")), "{engine}");
        }
    }

    #[test]
    fn bad_inputs_error_with_the_offending_entry() {
        let err = binder().bind(ghz_request("r", "Quantum-Fantasy")).unwrap_err();
        assert!(err.contains("unknown compiler"), "{err}");
        assert!(err.contains("Zoned-ZAC"), "lists known labels: {err}");

        let mut req = ghz_request("r", "SC-Heron");
        req.engine = Some("windowed".into());
        let err = binder().bind(req).unwrap_err();
        assert!(err.contains("only applies to `Zoned-ZAC`"), "{err}");

        let mut req = ghz_request("r", "Zoned-ZAC");
        req.engine = Some("quantum".into());
        assert!(binder().bind(req).unwrap_err().contains("unknown engine"));

        let mut req = ghz_request("r", "Zoned-ZAC");
        req.circuits.push(CircuitEntry { name: "bad".into(), qasm: "not qasm".into() });
        let err = binder().bind(req).unwrap_err();
        assert!(err.contains("entry 1"), "names the offending entry: {err}");
    }
}
