//! The benchmark's own tests: a smoke-scale run of every workload in
//! `BENCHMARK.json` prints each metric the file names, with its unit,
//! and the correctness gate trips on a deliberately corrupted read-back.

use serde::value::Value;
use std::path::PathBuf;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key:?} in {v:?}")),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::parse_value_str(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON")
}

/// Runs one smoke-scale invocation and returns its result line.
fn run(workload: &str, trace: &str, extra: &[&str]) -> Value {
    let state: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("perfbench-{workload}-{trace}-{}", extra.len()),
    ]
    .iter()
    .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--scale", "smoke"])
        .arg("--state-dir")
        .arg(&state)
        .args(extra)
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!state.exists(), "a run removes its state directory");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse_value_str(last).expect("the result line is JSON")
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let spec = spec();
    for workload in items(field(&spec, "workloads")) {
        let name = text(field(workload, "name"));
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(name, trace, &[]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{name}");
            assert_eq!(number(field(&result, "failed")), 0.0, "{name}");
            assert!(number(field(&result, "attempted")) >= 1.0, "{name}");
            let metrics = field(&result, "metrics");
            for metric in items(field(&spec, list)) {
                let metric_name = text(field(metric, "name"));
                let printed = field(metrics, metric_name);
                assert_eq!(
                    text(field(printed, "unit")),
                    text(field(metric, "unit")),
                    "{name}: unit of {metric_name}"
                );
                let value = number(field(printed, "value"));
                assert!(value.is_finite(), "{name}: {metric_name}");
                if list == "end_to_end" {
                    assert!(value > 0.0, "{name}: {metric_name} must never read 0");
                }
            }
        }
    }
}

#[test]
fn corrupted_readback_trips_the_gate() {
    let result = run("ops-longrun", "0", &["--corrupt-readback"]);
    assert_eq!(field(&result, "correct"), &Value::Bool(false));
    assert!(number(field(&result, "failed")) >= 1.0);
}
