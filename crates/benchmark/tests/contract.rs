//! The benchmark's contract: `BENCHMARK.json` matches the metric table,
//! every workload emits every listed metric with its unit, deterministic
//! outputs repeat bitwise, and `compare` tells a regression from noise.

use chs_benchmark::compare::RunSet;
use chs_benchmark::metrics::{self, END_TO_END, WORKLOADS};
use chs_benchmark::runner::{self, Reading, RunReport};
use serde::value::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str_value(&text).expect("BENCHMARK.json parses")
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::String(s)) => s.clone(),
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn number(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(x)) => *x as f64,
        other => panic!("`{key}` is not a number: {other:?}"),
    }
}

/// `(name, unit)` pairs a `BENCHMARK.json` metric list names.
fn listed(key: &str) -> Vec<(String, String)> {
    list(&benchmark_json(), key)
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let doc = benchmark_json();
    let Value::Object(entries) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("paths"),
        Some(&Value::Array(vec![Value::String(
            "crates/benchmark".into()
        )]))
    );
    let names: Vec<String> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);

    let gated: Vec<_> = END_TO_END.iter().filter(|m| m.gated).collect();
    let e2e = list(&doc, "end_to_end");
    assert_eq!(e2e.len(), gated.len());
    for (json, def) in e2e.iter().zip(gated) {
        assert_eq!(text(json, "name"), def.name);
        assert_eq!(text(json, "unit"), def.unit);
        assert_eq!(text(json, "better"), def.better.as_str());
        assert_eq!(number(json, "bound"), def.bound, "{}", def.name);
        assert!(
            def.workloads == WORKLOADS,
            "{} must be reported by every workload",
            def.name
        );
    }

    let layers = list(&doc, "per_layer");
    let table = metrics::per_layer();
    assert_eq!(layers.len(), table.len());
    for (json, layer) in layers.iter().zip(table) {
        assert_eq!(text(json, "name"), layer.name);
        assert_eq!(text(json, "unit"), layer.unit, "{}", layer.name);
        assert_eq!(
            text(json, "better"),
            layer.better.as_str(),
            "{}",
            layer.name
        );
    }
    assert_eq!(number(&doc, "run_seconds"), runner::DEFAULT_SECONDS);
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chs-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// A quick single run: its full report and its parsed result line.
fn quick_run(workload: &str, trace: &str) -> (RunReport, Value) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--threads",
        "1",
        "--trace",
        trace,
        "--quick",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let report = stdout
        .lines()
        .find_map(|l| l.strip_prefix("{\"report\":")?.strip_suffix('}'))
        .expect("report line");
    let report: RunReport = serde_json::from_str(report).expect("report parses");
    let last = stdout.lines().last().expect("result line");
    (
        report,
        serde_json::from_str_value(last).expect("result line parses"),
    )
}

/// The result line has exactly the contract's keys, and its metrics are
/// exactly `expected`, each finite with its unit.
fn assert_result_line(workload: &str, line: &Value, expected: &[(String, String)]) {
    let Value::Object(entries) = line else {
        panic!("{workload}: result line is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{workload}");
    assert!(number(line, "attempted") >= 1.0, "{workload}");
    let Some(Value::Object(metrics)) = line.get("metrics") else {
        panic!("{workload}: no metrics object")
    };
    assert_eq!(metrics.len(), expected.len(), "{workload}");
    for (name, unit) in expected {
        let m = line
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload}: missing {name}"));
        assert_eq!(&text(m, "unit"), unit, "{workload} {name}");
        assert!(number(m, "value").is_finite(), "{workload} {name}");
    }
}

#[test]
fn every_workload_emits_every_metric_and_repeats_bitwise() {
    let e2e = listed("end_to_end");
    for workload in WORKLOADS {
        let (first, line) = quick_run(workload, "0");
        assert_result_line(workload, &line, &e2e);
        let (second, _) = quick_run(workload, "0");
        assert_eq!(first.digest, second.digest, "{workload}: output digests");
        for def in END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&workload))
        {
            let a = &first.end_to_end[def.name];
            assert_eq!(a.unit, def.unit, "{workload} {}", def.name);
            if def.kind == metrics::Kind::Deterministic {
                let b = &second.end_to_end[def.name];
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "{workload} {}",
                    def.name
                );
            }
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let layers = listed("per_layer");
    for workload in WORKLOADS {
        let (report, line) = quick_run(workload, "1");
        assert_result_line(workload, &line, &layers);
        assert!(!report.spans.is_empty(), "{workload}: no spans recorded");
        assert!(
            report.traced_wall_s.len() >= 3,
            "{workload}: traced iterations"
        );
    }
}

/// A run set of ten runs of one workload whose `wall_s` follows `walls`.
fn run_set(walls: impl Iterator<Item = f64>) -> RunSet {
    let runs = walls
        .map(|wall| {
            let end_to_end: BTreeMap<String, Reading> = [("wall_s", wall), ("efficiency", 0.5)]
                .into_iter()
                .map(|(name, value)| {
                    let unit = metrics::end_to_end(name).expect("known").unit.into();
                    (name.to_string(), Reading { value, unit })
                })
                .collect();
            RunReport {
                workload: "pool-congested".into(),
                seed: 2005,
                threads: 1,
                trace: false,
                quick: true,
                counters: false,
                setup_s: vec![0.01],
                wall_s: vec![wall],
                traced_wall_s: Vec::new(),
                digest: "0".into(),
                correct: true,
                failures: Vec::new(),
                attempted: 1,
                failed: 0,
                end_to_end,
                per_layer: BTreeMap::new(),
                boundaries: BTreeMap::new(),
                spans: Vec::new(),
            }
        })
        .collect();
    RunSet {
        seed: 2005,
        threads: 1,
        seconds: 1.0,
        trace: false,
        quick: true,
        runs,
    }
}

fn compare_files(name: &str, parent: &RunSet, change: &RunSet) -> (bool, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let write = |side: &str, set: &RunSet| {
        let path = dir.join(format!("{name}-{side}.json"));
        std::fs::write(&path, serde_json::to_string(set).expect("serializable")).expect("write");
        path.to_string_lossy().into_owned()
    };
    let (p, c) = (write("parent", parent), write("change", change));
    let out = bench(&["compare", &p, &c]);
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8"),
    )
}

#[test]
fn compare_flags_a_regression_and_passes_an_identical_pair() {
    let walls = || (0..10).map(|i| 1.0 + 0.003 * f64::from(i % 4));
    let parent = run_set(walls());

    let (ok, table) = compare_files("identical", &parent, &parent);
    assert!(ok, "identical sets must pass:\n{table}");
    assert!(!table.contains("worse"), "{table}");

    // 30%: beyond the 20% wall_s bound.
    let (ok, table) = compare_files("slower", &parent, &run_set(walls().map(|w| w * 1.3)));
    assert!(!ok, "a 30% wall_s regression must fail:\n{table}");
    let row = table
        .lines()
        .find(|l| l.contains("wall_s"))
        .expect("wall_s row");
    assert!(row.ends_with("worse"), "{row}");
}
