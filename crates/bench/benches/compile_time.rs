//! Compile-time trajectory harness: wall-clock per compiler across the
//! 17-circuit paper suite plus the bundled QASM corpus.
//!
//! Unlike the paper figures, this bench measures *our own* compile latency
//! so perf PRs are measured, not asserted. It sweeps every compiler through
//! `BatchRunner::serial()` (parallel timing would include contention from
//! co-running cells) and emits `BENCH_compile_time.json` at the workspace
//! root — one snapshot of the perf trajectory per run.
//!
//! Environment knobs:
//!
//! * `ZAC_BENCH_SMOKE=1` — smoke mode for CI: reduced SA iterations and the
//!   suite capped to one representative per circuit family, so the sweep
//!   finishes in seconds while still exercising every code path.
//! * `ZAC_BENCH_OUT=<path>` — overrides the JSON output path.
//! * `ZAC_BENCH_BASELINE=<path>` — a previous `BENCH_compile_time.json`;
//!   when set, the report prints per-compiler geomean speedups vs. it.
//! * `--engine exhaustive|windowed|both` (or `ZAC_BENCH_ENGINE`) — which
//!   ZAC placement-engine arms to sweep. `both` (the default) runs the
//!   exhaustive pipeline *and* a `Zoned-ZAC-windowed` arm, and emits a
//!   quality/speed `frontier` block into the JSON: per-circuit compile-time
//!   speedup, fidelity delta, and placement movement-cost ratio.
//! * `ZAC_TELEMETRY=1` — records the sweep through `zac-telemetry`: the JSON
//!   gains a `metrics` block (one counter/histogram snapshot per circuit,
//!   attributed via `BatchRunner::run_with_metrics`) and the span tree is
//!   exported as a Chrome-trace file.
//! * `ZAC_TRACE_OUT=<path>` — overrides the Chrome-trace output path
//!   (default `BENCH_compile_time.trace.json` at the workspace root).

use serde::Value;
use zac_arch::{Architecture, GeomCache};
use zac_bench::{
    default_compilers, geomean, print_header, BatchRunner, CircuitMetrics, ComparisonRow,
};
use zac_circuit::{bench_circuits, preprocess, StagedCircuit};
use zac_core::{Compiler, Labeled, Zac, ZacConfig};
use zac_place::{plan_placement, PlacementEngine};

/// Schema version of the emitted JSON.
const FORMAT_VERSION: u64 = 1;

/// One sweep cell: circuit name, total compile seconds, optional
/// (place, schedule) phase split.
type Cell<'a> = (&'a str, f64, Option<(f64, f64)>);

/// The large-circuit tier the acceptance criteria track (the suite's
/// heaviest placement/scheduling instances).
const LARGE_TIER: [&str; 3] = ["ising_n98", "qft_n18", "knn_n31"];

/// The two ZAC placement-engine arms of the frontier.
const ZAC_EXHAUSTIVE: &str = "Zoned-ZAC";
const ZAC_WINDOWED: &str = "Zoned-ZAC-windowed";

/// Which placement-engine arms to sweep (the `--engine` axis).
#[derive(Clone, Copy, PartialEq)]
enum EngineAxis {
    Exhaustive,
    Windowed,
    Both,
}

impl EngineAxis {
    /// Parses `--engine <value>` from the CLI (after cargo-bench's `--`),
    /// falling back to `ZAC_BENCH_ENGINE`, defaulting to `both`.
    fn parse() -> Self {
        let mut args = std::env::args();
        let cli = std::iter::from_fn(|| args.next())
            .skip_while(|a| a != "--engine")
            .nth(1)
            .or_else(|| std::env::var("ZAC_BENCH_ENGINE").ok());
        match cli.as_deref() {
            Some("exhaustive") => Self::Exhaustive,
            Some("windowed") => Self::Windowed,
            Some("both") | None => Self::Both,
            Some(other) => panic!("unknown --engine '{other}' (exhaustive|windowed|both)"),
        }
    }

    fn runs(self, arm: &str) -> bool {
        match self {
            Self::Exhaustive => arm == ZAC_EXHAUSTIVE,
            Self::Windowed => arm == ZAC_WINDOWED,
            Self::Both => true,
        }
    }
}

fn main() {
    let smoke = std::env::var("ZAC_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let axis = EngineAxis::parse();
    print_header(
        "Compile-time trajectory (wall-clock per compiler, serial sweep)",
        "perf PRs are measured, not asserted: this JSON accumulates per PR",
    );
    if smoke {
        println!("mode: SMOKE (reduced SA iterations, capped suite)\n");
    }

    let suite = build_suite(smoke);
    let compilers = build_compilers(smoke, axis);
    // With telemetry on, `run_with_metrics` snapshots the registry around
    // each circuit so counters are attributed per circuit; the plain path
    // stays byte-for-byte what it was when telemetry is off.
    let telemetry = zac_telemetry::enabled();
    let (rows, metrics) = if telemetry {
        let (rows, metrics) = BatchRunner::serial().run_with_metrics(&compilers, &suite);
        (rows, Some(metrics))
    } else {
        (BatchRunner::serial().run(&compilers, &suite), None)
    };

    report(&rows, &compilers, &suite, smoke, metrics.as_deref());
    if telemetry {
        write_chrome_trace();
    }
}

/// Drains the recorded spans and writes them as a Chrome-trace-format file
/// (loadable in `chrome://tracing` or Perfetto). Sanity-checks that the
/// pipeline phase spans actually made it into the tree so CI fails loudly
/// if instrumentation regresses.
fn write_chrome_trace() {
    let spans = zac_telemetry::take_spans();
    for phase in ["core.compile", "core.place", "core.schedule"] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "telemetry enabled but no '{phase}' span was recorded"
        );
    }
    let path = std::env::var("ZAC_TRACE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compile_time.trace.json").to_owned()
    });
    std::fs::write(&path, zac_telemetry::chrome_trace_json(&spans))
        .expect("write Chrome-trace JSON");
    println!("wrote {path} ({} spans)", spans.len());
}

/// The 17-circuit paper suite plus the bundled corpus; smoke mode keeps one
/// circuit per family so CI stays fast while covering every code path.
fn build_suite(smoke: bool) -> Vec<StagedCircuit> {
    let mut suite: Vec<StagedCircuit> =
        bench_circuits::paper_suite().iter().map(|e| preprocess(&e.circuit)).collect();
    if smoke {
        let mut seen = std::collections::HashSet::new();
        suite.retain(|s| {
            let family = s.name.split("_n").next().unwrap_or(&s.name).to_owned();
            seen.insert(family)
        });
        // Keep the large tier in smoke mode too: it is what the perf
        // acceptance criteria track.
        for entry in bench_circuits::paper_suite() {
            if LARGE_TIER.contains(&entry.circuit.name())
                && !suite.iter().any(|s| s.name == entry.circuit.name())
            {
                suite.push(preprocess(&entry.circuit));
            }
        }
    }
    let corpus_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let corpus = zac_bench::corpus::load_corpus(corpus_dir);
    for f in &corpus.failures {
        eprintln!("warning: corpus file skipped: {f:?}");
    }
    suite.extend(corpus.suite());
    suite
}

/// ZAC's pipeline configuration for one engine arm (smoke mode reduces the
/// SA budget identically for both arms, keeping the frontier comparable).
fn arm_config(engine: PlacementEngine, smoke: bool) -> ZacConfig {
    let mut cfg = ZacConfig::full();
    cfg.placement.engine = engine;
    if smoke {
        cfg.placement.sa_iterations = 100;
    }
    cfg
}

/// The compiler lineup: the six-compiler paper comparison plus (under
/// `--engine both`/`windowed`) the windowed-engine ZAC arm. Smoke mode swaps
/// ZAC for a reduced-SA variant so the sweep finishes quickly (the relabeled
/// compiler keeps the paper name so JSON rows stay comparable within one
/// mode).
fn build_compilers(smoke: bool, axis: EngineAxis) -> Vec<Box<dyn Compiler>> {
    let exhaustive =
        Zac::with_config(Architecture::reference(), arm_config(PlacementEngine::Exhaustive, smoke));
    let mut compilers: Vec<Box<dyn Compiler>> =
        default_compilers().into_iter().filter(|c| c.name() != ZAC_EXHAUSTIVE).collect();
    if axis.runs(ZAC_EXHAUSTIVE) {
        // `Zac`'s own name is already the paper label; the engine is pinned
        // explicitly so the arm is the exhaustive search whatever the base
        // config says.
        compilers.push(Box::new(exhaustive));
    }
    if axis.runs(ZAC_WINDOWED) {
        compilers.push(Box::new(Labeled::new(
            ZAC_WINDOWED,
            Zac::with_config(
                Architecture::reference(),
                arm_config(PlacementEngine::windowed(), smoke),
            ),
        )));
    }
    compilers
}

fn report(
    rows: &[ComparisonRow],
    compilers: &[Box<dyn Compiler>],
    suite: &[StagedCircuit],
    smoke: bool,
    metrics: Option<&[CircuitMetrics]>,
) {
    println!(
        "{:<26}{:>8}{:>14}{:>16}{:>18}{:>12}{:>12}",
        "compiler", "cells", "total (s)", "geomean (s)", "large tier (s)", "place (s)", "sched (s)"
    );
    let mut compiler_objs: Vec<Value> = Vec::new();
    for compiler in compilers {
        let name = compiler.name();
        let cells: Vec<Cell<'_>> = rows
            .iter()
            .filter_map(|r| r.result(name).map(|x| (r.name.as_str(), x.compile_secs, x.phase_secs)))
            .collect();
        if cells.is_empty() {
            continue;
        }
        let times: Vec<f64> = cells.iter().map(|&(_, t, _)| t).collect();
        let total: f64 = times.iter().sum();
        let gm = geomean(&times);
        let large: f64 =
            cells.iter().filter(|(n, _, _)| LARGE_TIER.contains(n)).map(|&(_, t, _)| t).sum();
        // Per-phase (place vs. schedule) breakdown, for compilers reporting
        // one (ZAC's pipeline); the phase acceptance criteria track the
        // schedule slice of the large tier.
        let has_phases = cells.iter().any(|(_, _, p)| p.is_some());
        let phase_sum = |pick: fn((f64, f64)) -> f64, large_only: bool| -> f64 {
            cells
                .iter()
                .filter(|(n, _, _)| !large_only || LARGE_TIER.contains(n))
                .filter_map(|&(_, _, p)| p.map(pick))
                .sum()
        };
        let (place, sched) = (phase_sum(|p| p.0, false), phase_sum(|p| p.1, false));
        if has_phases {
            println!(
                "{name:<26}{:>8}{total:>14.4}{gm:>16.6}{large:>18.4}{place:>12.4}{sched:>12.4}",
                cells.len()
            );
        } else {
            println!(
                "{name:<26}{:>8}{total:>14.4}{gm:>16.6}{large:>18.4}{:>12}{:>12}",
                cells.len(),
                "-",
                "-"
            );
        }

        let per_circuit = Value::Array(
            cells
                .iter()
                .map(|&(n, t, p)| {
                    let mut fields = vec![
                        ("circuit".into(), Value::String(n.into())),
                        ("secs".into(), Value::Number(serde::Number::from_f64(t))),
                    ];
                    if let Some((pl, sc)) = p {
                        fields.push((
                            "place_secs".into(),
                            Value::Number(serde::Number::from_f64(pl)),
                        ));
                        fields.push((
                            "schedule_secs".into(),
                            Value::Number(serde::Number::from_f64(sc)),
                        ));
                    }
                    Value::Object(fields)
                })
                .collect(),
        );
        let mut fields = vec![
            ("name".into(), Value::String(name.into())),
            ("cells".into(), Value::Number(serde::Number::from_f64(cells.len() as f64))),
            ("total_secs".into(), Value::Number(serde::Number::from_f64(total))),
            ("geomean_secs".into(), Value::Number(serde::Number::from_f64(gm))),
            ("large_tier_secs".into(), Value::Number(serde::Number::from_f64(large))),
        ];
        if has_phases {
            fields.push(("place_secs".into(), Value::Number(serde::Number::from_f64(place))));
            fields.push(("schedule_secs".into(), Value::Number(serde::Number::from_f64(sched))));
            fields.push((
                "large_tier_place_secs".into(),
                Value::Number(serde::Number::from_f64(phase_sum(|p| p.0, true))),
            ));
            fields.push((
                "large_tier_schedule_secs".into(),
                Value::Number(serde::Number::from_f64(phase_sum(|p| p.1, true))),
            ));
        }
        fields.push(("per_circuit".into(), per_circuit));
        compiler_objs.push(Value::Object(fields));
    }

    let mut doc_fields = vec![
        ("version".into(), Value::Number(serde::Number::from_f64(FORMAT_VERSION as f64))),
        ("smoke".into(), Value::Bool(smoke)),
        (
            "large_tier".into(),
            Value::Array(LARGE_TIER.iter().map(|n| Value::String((*n).into())).collect()),
        ),
        ("num_circuits".into(), Value::Number(serde::Number::from_f64(rows.len() as f64))),
        ("compilers".into(), Value::Array(compiler_objs)),
    ];
    if let Some(frontier) = frontier_block(rows, suite, smoke) {
        doc_fields.push(("frontier".into(), frontier));
    }
    if let Some(per) = metrics {
        doc_fields.push(("metrics".into(), metrics_block(per)));
    }
    let doc = Value::Object(doc_fields);

    let out_path = std::env::var("ZAC_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compile_time.json").to_owned()
    });
    let json = serde_json::to_string_pretty(&doc).expect("JSON serialization");
    std::fs::write(&out_path, json).expect("write BENCH_compile_time.json");
    println!("\nwrote {out_path}");

    if let Ok(baseline_path) = std::env::var("ZAC_BENCH_BASELINE") {
        match std::fs::read_to_string(&baseline_path)
            .ok()
            .and_then(|s| serde_json::from_str::<Value>(&s).ok())
        {
            Some(baseline) => print_speedups(&doc, &baseline, &baseline_path),
            None => eprintln!("warning: could not read baseline {baseline_path}"),
        }
    }
}

/// The per-circuit telemetry block: one `zac-telemetry` snapshot delta per
/// circuit (counters accumulated across every compiler arm that swept it)
/// plus a whole-run total. Each snapshot is validated before it is embedded
/// so the CI assertion on the emitted JSON cannot silently pass on an empty
/// block.
fn metrics_block(per: &[CircuitMetrics]) -> Value {
    let mut per_circuit = Vec::with_capacity(per.len());
    for cm in per {
        // Every circuit is swept by at least one ZAC arm, so the pipeline
        // counters must be non-zero; a zero here means instrumentation or
        // attribution broke.
        assert!(
            cm.metrics.counter("core.pipeline.compiles") >= 1,
            "no core.pipeline.compiles recorded for {}",
            cm.circuit
        );
        for prefix in ["place.", "schedule."] {
            assert!(
                cm.metrics.counter_sum_with_prefix(prefix) > 0,
                "no {prefix} counters recorded for {}",
                cm.circuit
            );
        }
        let snapshot = serde_json::from_str::<Value>(&cm.metrics.to_json())
            .expect("telemetry snapshot is valid JSON");
        assert!(snapshot.get("counters").is_some(), "snapshot missing 'counters'");
        per_circuit.push(Value::Object(vec![
            ("circuit".into(), Value::String(cm.circuit.clone())),
            ("snapshot".into(), snapshot),
        ]));
    }
    let totals =
        serde_json::from_str::<Value>(&zac_telemetry::MetricsSnapshot::capture().to_json())
            .expect("telemetry snapshot is valid JSON");
    Value::Object(vec![
        ("per_circuit".into(), Value::Array(per_circuit)),
        ("totals".into(), totals),
    ])
}

/// Placement movement cost (paper Eq. 1) of one circuit under one engine,
/// mirroring `Zac::compile_staged`'s stage-width splitting so the plan is the
/// one the compiler arm actually scheduled.
fn movement_cost(
    arch: &Architecture,
    geom: &GeomCache,
    staged: &StagedCircuit,
    engine: PlacementEngine,
    smoke: bool,
) -> Option<f64> {
    let num_sites = arch.num_sites();
    let split;
    let staged = if staged.max_parallelism() > num_sites && num_sites > 0 {
        split = staged.with_max_stage_width(num_sites);
        &split
    } else {
        staged
    };
    let cfg = arm_config(engine, smoke).placement;
    plan_placement(arch, staged, &cfg).ok().map(|plan| plan.movement_cost(geom))
}

/// The quality/speed frontier between the exhaustive and windowed ZAC arms:
/// per-circuit compile-time speedup, fidelity delta, and placement
/// movement-cost ratio, plus the large-tier aggregates the acceptance
/// criteria track. `None` unless both arms were swept.
fn frontier_block(rows: &[ComparisonRow], suite: &[StagedCircuit], smoke: bool) -> Option<Value> {
    let arch = Architecture::reference();
    let geom = GeomCache::new(&arch);
    let num = serde::Number::from_f64;
    let mut per_circuit = Vec::new();
    let (mut exh_large, mut win_large) = (0.0, 0.0);
    let (mut exh_cost_all, mut win_cost_all) = (0.0, 0.0);
    let (mut exh_cost_large, mut win_cost_large) = (0.0, 0.0);
    println!(
        "\nengine frontier ({ZAC_EXHAUSTIVE} vs. {ZAC_WINDOWED}):\n\
         {:<20}{:>10}{:>10}{:>8}{:>12}{:>12}{:>10}",
        "circuit", "exh (ms)", "win (ms)", "speed", "Δfidelity", "cost ratio", ""
    );
    for row in rows {
        let Some((exh, win)) = row.result(ZAC_EXHAUSTIVE).zip(row.result(ZAC_WINDOWED)) else {
            continue;
        };
        let Some(staged) = suite.iter().find(|s| s.name == row.name) else { continue };
        let speedup = exh.compile_secs / win.compile_secs;
        let fid_delta = win.fidelity() - exh.fidelity();
        let costs = movement_cost(&arch, &geom, staged, PlacementEngine::Exhaustive, smoke)
            .zip(movement_cost(&arch, &geom, staged, PlacementEngine::windowed(), smoke));
        if LARGE_TIER.contains(&row.name.as_str()) {
            exh_large += exh.compile_secs;
            win_large += win.compile_secs;
        }
        let mut fields = vec![
            ("circuit".into(), Value::String(row.name.clone())),
            ("exhaustive_secs".into(), Value::Number(num(exh.compile_secs))),
            ("windowed_secs".into(), Value::Number(num(win.compile_secs))),
            ("speedup".into(), Value::Number(num(speedup))),
            ("fidelity_delta".into(), Value::Number(num(fid_delta))),
        ];
        let mut ratio_str = "-".to_owned();
        if let Some((ce, cw)) = costs {
            exh_cost_all += ce;
            win_cost_all += cw;
            if LARGE_TIER.contains(&row.name.as_str()) {
                exh_cost_large += ce;
                win_cost_large += cw;
            }
            fields.push(("exhaustive_movement_cost".into(), Value::Number(num(ce))));
            fields.push(("windowed_movement_cost".into(), Value::Number(num(cw))));
            if ce > 0.0 {
                ratio_str = format!("{:.4}", cw / ce);
            }
        }
        println!(
            "{:<20}{:>10.3}{:>10.3}{:>8.2}{:>12.2e}{:>12}{:>10}",
            row.name,
            exh.compile_secs * 1e3,
            win.compile_secs * 1e3,
            speedup,
            fid_delta,
            ratio_str,
            ""
        );
        per_circuit.push(Value::Object(fields));
    }
    if per_circuit.is_empty() {
        return None;
    }
    let large_speedup = if win_large > 0.0 { exh_large / win_large } else { 1.0 };
    let cost_ratio = if exh_cost_all > 0.0 { win_cost_all / exh_cost_all } else { 1.0 };
    let large_cost_ratio = if exh_cost_large > 0.0 { win_cost_large / exh_cost_large } else { 1.0 };
    println!(
        "frontier aggregates: large-tier speedup {large_speedup:.2}x, suite cost ratio \
         {cost_ratio:.4}, large-tier cost ratio {large_cost_ratio:.4}"
    );
    Some(Value::Object(vec![
        ("reference".into(), Value::String(ZAC_EXHAUSTIVE.into())),
        ("fast".into(), Value::String(ZAC_WINDOWED.into())),
        ("large_tier_speedup".into(), Value::Number(num(large_speedup))),
        ("movement_cost_ratio".into(), Value::Number(num(cost_ratio))),
        ("large_tier_movement_cost_ratio".into(), Value::Number(num(large_cost_ratio))),
        ("per_circuit".into(), Value::Array(per_circuit)),
    ]))
}

/// Prints per-compiler geomean and large-tier speedups vs. a previous run.
/// Smoke and full runs measure different suites and SA budgets, so
/// cross-mode comparisons are refused instead of silently misleading.
fn print_speedups(current: &Value, baseline: &Value, baseline_path: &str) {
    let mode = |doc: &Value| doc.get("smoke").cloned();
    if mode(current) != mode(baseline) {
        println!(
            "\nbaseline {baseline_path} was recorded in a different mode \
             (smoke vs. full); skipping the speedup comparison"
        );
        return;
    }
    println!("\nspeedup vs. baseline {baseline_path} (>1 = faster now):");
    let lookup = |doc: &Value, name: &str, field: &str| -> Option<f64> {
        doc.get("compilers")?.as_array()?.iter().find_map(|c| {
            (c.get("name")?.as_str()? == name).then_some(())?;
            c.get(field)?.as_f64()
        })
    };
    let Some(compilers) = current.get("compilers").and_then(Value::as_array) else {
        return;
    };
    for c in compilers {
        let Some(name) = c.get("name").and_then(Value::as_str) else { continue };
        for (field, label) in [
            ("geomean_secs", "geomean"),
            ("large_tier_secs", "large tier"),
            ("place_secs", "place phase"),
            ("schedule_secs", "sched phase"),
            ("large_tier_place_secs", "lt place"),
            ("large_tier_schedule_secs", "lt sched"),
        ] {
            if let (Some(now), Some(then)) =
                (lookup(current, name, field), lookup(baseline, name, field))
            {
                if now > 0.0 && then > 0.0 {
                    println!("  {name:<26}{label:<12}{:>8.2}x", then / now);
                }
            }
        }
    }
}
