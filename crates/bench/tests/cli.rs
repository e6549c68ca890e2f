//! The bench binaries' shared command-line parser: degenerate input is a
//! usage error (exit 2, no panic), and a sweep over no work fails its
//! gate with the report on disk.

use serde_json::Value;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn bench binary")
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("bad or missing argument"),
        "{args:?}: {stderr}"
    );
}

#[test]
fn zero_counts_are_usage_errors() {
    let zero = ["--machines", "0"];
    assert_usage_error(env!("CARGO_BIN_EXE_pool_bench"), &zero);
    assert_usage_error(env!("CARGO_BIN_EXE_serve_bench"), &zero);
    assert_usage_error(env!("CARGO_BIN_EXE_sweep_bench"), &zero);
    assert_usage_error(env!("CARGO_BIN_EXE_serve_bench"), &["--queries", "0"]);
}

#[test]
fn pool_bench_window_is_a_positive_finite_number() {
    let bin = env!("CARGO_BIN_EXE_pool_bench");
    // A fractional window parses; `--help` then exits 0 before any work.
    let out = run(bin, &["--window", "3600.5", "--help"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for bad in ["0", "-60", "nan", "inf", "soon"] {
        assert_usage_error(bin, &["--window", bad]);
    }
}

#[test]
fn sweep_over_no_usable_machine_fails_with_its_report_written() {
    // 20 observations per machine is under the 25-duration training
    // prefix, so every machine is dropped and the sweep has no work.
    let dir = std::env::temp_dir().join(format!("chs-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("BENCH_sweep_empty.json");
    let path = path.to_str().expect("utf-8 path");
    let args = ["--machines", "2", "--observations", "20", "--json", path];
    let out = run(env!("CARGO_BIN_EXE_sweep_bench"), &args);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(path).expect("report on disk");
    let report = serde_json::from_str_value(&text).expect("report parses");
    let Some(Value::Array(gates)) = report.get("gates") else {
        panic!("no gates array");
    };
    let nonempty = gates
        .iter()
        .find(|g| g.get("name") == Some(&Value::String("nonempty".into())));
    assert_eq!(
        nonempty.and_then(|g| g.get("pass")),
        Some(&Value::Bool(false))
    );
    assert_eq!(report.get("pass"), Some(&Value::Bool(false)));
}
