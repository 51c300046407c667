//! Metric catalogue and the one-line JSON summary.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off:
/// `(name, unit)`. The unit of work behind `p50_ms`, `tail_ms` and
/// `throughput_per_s` is the workload's own (request or training epoch;
/// see `Outcome::unit`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Highest percentile `tail_ms` may report. On a shared 2-vCPU host the
/// p99 of `net-mixed` doubled during slow phases of the host while its
/// p90 and median moved by a fifth, so p99 is printed but not gated.
pub const TAIL_CAP: f64 = 90.0;

/// Models whose forward pass is measured layer by layer:
/// (zoo name, metric key).
pub const MODELS: [(&str, &str); 3] = [
    ("DHGCN", "dhgcn"),
    ("DHGCN-lite", "dhgcn-lite"),
    ("ST-GCN", "st-gcn"),
];

/// Batch sizes of the per-sample forward curve.
pub const BATCHES: [usize; 4] = [1, 2, 4, 8];

/// Per-layer metrics, reported by every workload in the traced run:
/// `(name, unit)`. A layer the workload's path bypasses reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed_head: [(&str, &str); 14] = [
        ("proto.codec_us", "us"),
        ("proto.bytes_per_req", "bytes"),
        ("net.wire_us", "us"),
        ("net.retries", "count"),
        ("net.reconnects", "count"),
        ("net.swap_ms", "ms"),
        ("router.mean_us", "us"),
        ("router.swap_ms", "ms"),
        ("checkpoint.save_ms", "ms"),
        ("checkpoint.load_ms", "ms"),
        ("checkpoint.bytes", "bytes"),
        ("serve.queue_wait_us", "us"),
        ("serve.batch_size_mean", "count"),
        ("serve.shed", "count"),
    ];
    let fixed_tail: [(&str, &str); 14] = [
        ("hypergraph.dynamic_operators_us", "us"),
        ("hypergraph.topology_us", "us"),
        ("hypergraph.rolling_push_us", "us"),
        ("gemm.packed_gflops", "GFLOP/s"),
        ("gemm.packed_over_reference", "ratio"),
        ("tensor.workspace_high_water_bytes", "bytes"),
        ("streaming.emit_push_us", "us"),
        ("streaming.warm_push_us", "us"),
        ("trainer.batch_assembly_ms", "ms"),
        ("trainer.forward_ms", "ms"),
        ("trainer.backward_ms", "ms"),
        ("trainer.step_ms", "ms"),
        ("autograd.nodes_per_batch", "count"),
        ("trace.overhead_pct", "%"),
    ];
    let mut out: Vec<(String, &str)> = fixed_head
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for (_, key) in MODELS {
        for b in BATCHES {
            out.push((format!("infer.fwd_ms.{key}.b{b}"), "ms"));
        }
        out.push((format!("infer.batch_efficiency.{key}"), "ratio"));
        out.push((format!("infer.gflops.{key}.b8"), "GFLOP/s"));
        out.push((format!("infer.efficiency.{key}.b8"), "ratio"));
    }
    out.extend(fixed_tail.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The final stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with each value printed with all its digits. Every
/// `catalogue` name must be present in `values`, and nothing else is
/// reported.
pub fn summary(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(String, &str)],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    if let Some(extra) = values
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_train::json::Value;

    fn catalogue(names: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name") && !valid_name(".dot") && !valid_name("x{y}"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(catalogue(&END_TO_END)));
        assert_eq!(listed("per_layer"), own(per_layer()));
    }

    #[test]
    fn summary_round_trips_through_the_repository_json_parser() {
        let cat = catalogue(&[("p50_ms", "ms"), ("setup_s", "s")]);
        let values: BTreeMap<String, f64> = [
            ("p50_ms".to_string(), 1.203_456_789_012_3),
            ("setup_s".to_string(), 0.8127),
        ]
        .into();
        let line = summary(true, 1000, 2, &cat, &values).expect("complete");
        let doc = Value::parse(&line).expect("valid json");
        let Value::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1000.0));
        let p50 = doc
            .get("metrics")
            .and_then(|m| m.get("p50_ms"))
            .expect("p50");
        assert_eq!(
            p50.get("value").and_then(Value::as_f64),
            Some(1.203_456_789_012_3)
        );
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    fn summary_refuses_missing_extra_or_non_finite_metrics() {
        let cat = catalogue(&[("p50_ms", "ms")]);
        assert!(summary(true, 1, 0, &cat, &BTreeMap::new()).is_err());
        let nan: BTreeMap<String, f64> = [("p50_ms".to_string(), f64::NAN)].into();
        assert!(summary(true, 1, 0, &cat, &nan).is_err());
        let extra: BTreeMap<String, f64> =
            [("p50_ms".to_string(), 1.0), ("other".to_string(), 1.0)].into();
        assert!(summary(true, 1, 0, &cat, &extra).is_err());
    }
}
