//! Every committed `BENCH_*.json` at the repository root is a report in
//! the common envelope whose gates all passed.

use serde_json::Value;

#[test]
fn committed_reports_are_enveloped_and_pass() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    for entry in std::fs::read_dir(&root).expect("repository root") {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_owned();
        let Some(stem) = name
            .strip_suffix(".json")
            .filter(|s| s.starts_with("BENCH_"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).expect("readable report");
        let report = serde_json::from_str_value(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            report.get("bench"),
            Some(&Value::String(stem.into())),
            "{name}: bench"
        );
        let Some(Value::Array(gates)) = report.get("gates") else {
            panic!("{name}: no gates array");
        };
        assert!(!gates.is_empty(), "{name}: empty gate list");
        for gate in gates {
            let pass = gate.get("pass") == Some(&Value::Bool(true));
            assert!(
                pass,
                "{name}: gate {:?} failed ({:?})",
                gate.get("name"),
                gate.get("detail")
            );
        }
        assert_eq!(report.get("pass"), Some(&Value::Bool(true)), "{name}: pass");
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} committed reports found");
}
