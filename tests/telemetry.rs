//! Telemetry integration contract: recording must never change what the
//! compiler produces, and when enabled it must actually observe the whole
//! pipeline.
//!
//! The recorder is process-global, so everything runs inside one ordered
//! test: a telemetry-off sweep of the full 17-circuit paper suite, then a
//! telemetry-on sweep, for both placement engines — outputs compared
//! bit-for-bit — followed by assertions that the enabled run emitted
//! counters from every pipeline namespace and a span tree with the
//! place/schedule phase split for every circuit.

use zac::circuit::{bench_circuits, preprocess};
use zac::compiler::{Zac, ZacConfig};
use zac::prelude::*;

/// Full pipeline with a reduced SA budget so the double sweep stays quick;
/// identical for the on and off passes, which is all bit-identity needs.
fn engine_config(engine: &PlacementEngine) -> ZacConfig {
    let mut cfg = ZacConfig::full();
    cfg.placement.sa_iterations = 100;
    cfg.placement.engine = engine.clone();
    cfg
}

/// Compiles the paper suite and returns per-circuit (name, program JSON,
/// fidelity bits) — everything downstream consumers can observe.
fn compile_suite(engine: &PlacementEngine) -> Vec<(String, String, u64)> {
    let arch = Architecture::reference();
    bench_circuits::paper_suite()
        .iter()
        .map(|entry| {
            let staged = preprocess(&entry.circuit);
            let out = Zac::with_config(arch.clone(), engine_config(engine))
                .compile_staged(&staged)
                .unwrap_or_else(|e| panic!("{}: {e}", staged.name));
            let json = out.program.to_json().expect("program serializes");
            (staged.name.clone(), json, out.total_fidelity().to_bits())
        })
        .collect()
}

#[test]
fn telemetry_never_changes_output_and_observes_the_pipeline() {
    for engine in &[PlacementEngine::Exhaustive, PlacementEngine::windowed()] {
        zac::telemetry::set_enabled(false);
        let off = compile_suite(engine);

        zac::telemetry::set_enabled(true);
        let before = MetricsSnapshot::capture();
        let on = compile_suite(engine);
        // A cached pass exercises the cache namespace under the recorder:
        // one miss, one memory hit.
        let cache = CompileCache::in_memory(16);
        let zac = Zac::with_config(Architecture::reference(), engine_config(engine));
        let staged = preprocess(&bench_circuits::ghz(8));
        let first = cache.get_or_compile(&zac, &staged).expect("cold compile");
        let second = cache.get_or_compile(&zac, &staged).expect("warm compile");
        assert_eq!(first.program, second.program);
        // And a QASM parse exercises the circuit namespace.
        let qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0], q[1];\n";
        zac::circuit::qasm::parse_qasm(qasm, "telemetry_probe").expect("probe parses");
        let delta = MetricsSnapshot::capture().delta_since(&before);
        let spans = zac::telemetry::take_spans();
        zac::telemetry::set_enabled(false);

        // Bit-identity: the recorder must be invisible to compiler output.
        assert_eq!(off.len(), on.len());
        for ((name_off, json_off, fid_off), (name_on, json_on, fid_on)) in off.iter().zip(&on) {
            assert_eq!(name_off, name_on);
            assert_eq!(json_off, json_on, "{name_off}: program changed under telemetry");
            assert_eq!(fid_off, fid_on, "{name_off}: fidelity changed under telemetry");
        }

        // Counters arrived from every pipeline namespace.
        for ns in ["core.", "circuit.", "place.", "schedule.", "cache."] {
            assert!(
                delta.counter_sum_with_prefix(ns) > 0,
                "namespace '{ns}' recorded nothing while enabled"
            );
        }
        assert!(delta.counter("cache.lookup.hits") >= 1, "warm compile should hit the cache");
        assert!(delta.counter("cache.lookup.misses") >= 1, "cold compile should miss the cache");

        // The span tree shows the place/schedule phase split per circuit,
        // parented under the compile root.
        for (name, _, _) in &off {
            for phase in ["core.place", "core.schedule"] {
                assert!(
                    spans.iter().any(|s| {
                        s.name == phase
                            && s.label.as_deref() == Some(name)
                            && s.parent == Some("core.compile")
                    }),
                    "no {phase} span for {name}"
                );
            }
        }

        // The Chrome-trace export of those spans is well-formed JSON with
        // one complete event per span.
        let trace = zac::telemetry::chrome_trace_json(&spans);
        let doc: serde_json::Value = serde_json::from_str(&trace).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
        assert_eq!(events.len(), spans.len());
    }
}
