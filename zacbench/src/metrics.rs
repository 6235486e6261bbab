//! The metric catalogue. Every name printed appears here, and the tests
//! hold this catalogue equal to `BENCHMARK.json`.

/// `(name, unit, better)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("circuits_per_s", "1/s", "higher"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p99_ms", "ms", "lower"),
    ("server_cpu_ms_per_circuit", "ms", "lower"),
    ("response_kb_per_circuit", "KiB", "lower"),
    ("fidelity_geomean", "ratio", "higher"),
    ("exec_duration_geomean_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric (`--trace 1`).
pub const PER_LAYER: [(&str, &str, &str); 33] = [
    ("protocol.decode_us_per_circuit", "us", "lower"),
    ("protocol.encode_us_per_circuit", "us", "lower"),
    ("protocol.response_bytes_per_circuit", "bytes", "lower"),
    ("bind.us_per_circuit", "us", "lower"),
    ("circuit.parse_us_per_circuit", "us", "lower"),
    ("circuit.preprocess_us_per_circuit", "us", "lower"),
    ("bind.resolve_us_per_request", "us", "lower"),
    ("plan.us_per_request", "us", "lower"),
    ("exec.queue_wait_ms_p50", "ms", "lower"),
    ("exec.queue_wait_ms_p99", "ms", "lower"),
    ("cache.key_us_per_circuit", "us", "lower"),
    ("cache.get_hit_us", "us", "lower"),
    ("cache.get_miss_us", "us", "lower"),
    ("cache.put_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.disk_hit_ratio", "ratio", "higher"),
    ("cache.segment.open_ms", "ms", "lower"),
    ("cache.segment.get_us", "us", "lower"),
    ("cache.segment.append_us", "us", "lower"),
    ("output_bin.encode_us", "us", "lower"),
    ("output_bin.decode_us", "us", "lower"),
    ("compile.ms_per_circuit", "ms", "lower"),
    ("place.ms_per_circuit", "ms", "lower"),
    ("schedule.ms_per_circuit", "ms", "lower"),
    ("analyze.ms_per_circuit", "ms", "lower"),
    ("place.sa.accept_ratio", "ratio", "higher"),
    ("schedule.jobs_per_circuit", "count", "lower"),
    ("zair.instructions_per_circuit", "count", "lower"),
    ("zair.transfers_per_circuit", "count", "lower"),
    ("session.unattributed_us_per_request", "us", "lower"),
    ("trace.overhead_us_per_request", "us", "lower"),
    ("layers.self_us_per_request", "us", "lower"),
    ("client.cpu_ms_per_circuit", "ms", "lower"),
];

/// The unit of a catalogued metric.
///
/// # Panics
///
/// Panics on a name outside the catalogue: printing an uncatalogued metric
/// is a benchmark bug.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        table.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
    }

    #[test]
    fn every_printed_metric_is_in_benchmark_json_with_unit_and_direction() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        for (_, _, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(*better == "higher" || *better == "lower");
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let expected: Vec<&str> = crate::workload::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn the_ledger_names_only_catalogued_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("ledger.json");
        let ledger: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let mut named = Vec::new();
        for stage in ledger.get("stages").and_then(Value::as_array).unwrap() {
            for m in stage.get("metrics").and_then(Value::as_array).unwrap() {
                named.push(m.as_str().unwrap().to_string());
            }
        }
        for p in ledger.get("predictions").and_then(Value::as_array).unwrap() {
            named.push(p.get("metric").and_then(Value::as_str).unwrap().to_string());
            for moved in p.get("moves").and_then(Value::as_array).unwrap() {
                named.push(moved.as_str().unwrap().to_string());
            }
        }
        for name in named {
            unit(&name); // panics on an uncatalogued name
        }
        // Every per-layer metric has a prediction.
        let predicted: Vec<String> = ledger
            .get("predictions")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|p| p.get("metric").and_then(Value::as_str).unwrap().to_string())
            .collect();
        for (name, _, _) in PER_LAYER {
            assert!(predicted.iter().any(|p| p == name), "no prediction for {name}");
        }
    }
}
