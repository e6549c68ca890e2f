//! The layer benches' one report-and-gate path.
//!
//! Every `*_bench` binary records its correctness and performance checks
//! in a [`Gates`] list, times its paths with [`best_of`], and ends with
//! [`finish`], which writes the report in a common envelope and then
//! exits 1 if any gate failed:
//!
//! ```json
//! { "bench": "BENCH_gamma", ...the binary's own fields...,
//!   "gates": [{ "name": "...", "pass": true, "detail": "..." }],
//!   "pass": true }
//! ```
//!
//! `bench` is the report file's stem. The report is written before the
//! verdict, so a failing run always leaves its evidence on disk, and an
//! empty gate list fails: a bench that checked nothing has not passed.

use serde::value::Value;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// One named check of a bench run.
#[derive(Debug, Clone, Serialize)]
struct Gate {
    /// Stable name, e.g. `weibull.lane_speedup` or `replay@x2.bytes`.
    name: String,
    /// Whether the check held.
    pass: bool,
    /// The measured evidence, e.g. `3.1x, floor 2.0x`.
    detail: String,
}

/// The gates a bench run has recorded, in order.
#[derive(Debug, Clone, Default)]
pub struct Gates(Vec<Gate>);

impl Gates {
    /// An empty list (which does not pass until a gate is recorded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one check and print its `PASS`/`FAIL` line.
    pub fn check(&mut self, name: impl Into<String>, pass: bool, detail: impl Into<String>) {
        let gate = Gate {
            name: name.into(),
            pass,
            detail: detail.into(),
        };
        let verdict = if pass { "PASS" } else { "FAIL" };
        eprintln!("{verdict}: {} ({})", gate.name, gate.detail);
        self.0.push(gate);
    }

    /// True when at least one gate was recorded and every one passed.
    pub fn passed(&self) -> bool {
        !self.0.is_empty() && self.0.iter().all(|g| g.pass)
    }
}

/// A prebuilt JSON tree, written as is.
struct Tree(Value);

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// `report` in the envelope: `bench`, the report's own fields, `gates`
/// and `pass`. A report that does not serialize to an object is kept
/// whole under `report`.
fn envelope(bench: &str, report: &impl Serialize, gates: &Gates) -> Value {
    let mut fields = vec![("bench".to_string(), Value::String(bench.into()))];
    match report.to_value() {
        Value::Object(body) => fields.extend(body),
        other => fields.push(("report".into(), other)),
    }
    fields.push(("gates".into(), gates.0.to_value()));
    fields.push(("pass".into(), Value::Bool(gates.passed())));
    Value::Object(fields)
}

/// Write `report` in the envelope to `path` (its stem is the `bench`
/// name). Returns whether every gate passed.
fn write_report(path: &str, report: &impl Serialize, gates: &Gates) -> std::io::Result<bool> {
    let bench = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    let json = serde_json::to_string_pretty(&Tree(envelope(bench, report, gates)))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")?;
    Ok(gates.passed())
}

/// Write the report, then exit 1 unless every gate passed (an empty
/// list or a failed write also exits 1). Returns only on a pass.
pub fn finish(path: &str, report: &impl Serialize, gates: &Gates) {
    let failed = gates.0.iter().filter(|g| !g.pass).count();
    match write_report(path, report, gates) {
        Ok(true) => eprintln!(
            "report written to {path}; all {} gates passed",
            gates.0.len()
        ),
        Ok(false) => {
            eprintln!(
                "report written to {path}; FAIL: {failed} of {} gates failed",
                gates.0.len()
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Run `f` `reps` times (at least once). Returns the last run's output
/// and the best wall-clock seconds.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(value);
    }
    (out.expect("at least one run"), best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Body {
        speedup: f64,
    }

    fn read(path: &str) -> Value {
        serde_json::from_str_value(&std::fs::read_to_string(path).expect("report")).expect("json")
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("chs-bench-harness-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn envelope_wraps_the_body_and_records_each_gate() {
        let mut gates = Gates::new();
        gates.check("holds", true, "ok");
        gates.check("breaks", false, "3 mismatches");
        let Value::Object(fields) = envelope("BENCH_x", &Body { speedup: 2.5 }, &gates) else {
            panic!("envelope is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "speedup", "gates", "pass"]);
        assert_eq!(fields[0].1, Value::String("BENCH_x".into()));
        assert_eq!(fields[3].1, Value::Bool(false));
        assert_eq!(gates.0[1].detail, "3 mismatches");
    }

    #[test]
    fn empty_gate_list_fails() {
        let path = temp_path("BENCH_empty.json");
        assert!(!write_report(&path, &Body { speedup: 1.0 }, &Gates::new()).unwrap());
        let v = read(&path);
        assert_eq!(v.get("pass"), Some(&Value::Bool(false)));
        assert_eq!(v.get("gates"), Some(&Value::Array(Vec::new())));
    }

    /// `finish` exits the process, so the test re-runs itself as a child
    /// (`CHS_HARNESS_CHILD` holds the report path) and checks the exit
    /// status and the report the child left behind.
    #[test]
    fn finish_writes_the_report_then_exits_1_on_a_failed_gate() {
        if let Ok(path) = std::env::var("CHS_HARNESS_CHILD") {
            let mut gates = Gates::new();
            gates.check("holds", true, "ok");
            gates.check("breaks", false, "forced");
            finish(&path, &Body { speedup: 1.0 }, &gates);
            std::process::exit(0);
        }
        let path = temp_path("BENCH_fail.json");
        let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "harness::tests::finish_writes_the_report_then_exits_1_on_a_failed_gate",
            ])
            .env("CHS_HARNESS_CHILD", &path)
            .output()
            .expect("spawn child")
            .status;
        assert_eq!(status.code(), Some(1));
        let v = read(&path);
        assert_eq!(v.get("bench"), Some(&Value::String("BENCH_fail".into())));
        assert_eq!(v.get("pass"), Some(&Value::Bool(false)));
        let Some(Value::Array(gates)) = v.get("gates") else {
            panic!("gates array");
        };
        assert_eq!(gates[1].get("name"), Some(&Value::String("breaks".into())));
        assert_eq!(gates[1].get("pass"), Some(&Value::Bool(false)));
    }
}
