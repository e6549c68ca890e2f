//! End-to-end tests of the `chs` binary: generate → fit → schedule →
//! simulate over a trace file, with the exit codes of each step, the
//! schedules it prints pinned to known output, and the usage errors of
//! a zero-size `generate`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory unique to one test in this process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chs-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `chs` in `dir` with `args`.
fn chs(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chs"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("chs runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// The `model:` line, the table header and the first three rows of a
/// `schedule` run.
fn schedule_head(out: &Output) -> Vec<String> {
    stdout(out).lines().take(5).map(str::to_string).collect()
}

#[test]
fn generate_fit_schedule_simulate_pipeline() {
    let dir = scratch("pipeline");
    let generate = chs(
        &dir,
        &[
            "generate",
            "--machines",
            "8",
            "--observations",
            "60",
            "--seed",
            "5",
            "--out",
            "pool.csv",
        ],
    );
    assert_eq!(generate.status.code(), Some(0));
    assert!(stdout(&generate).starts_with("wrote 8 machines x 60 observations"));

    let fit = chs(&dir, &["fit", "--trace", "pool.csv", "--machine", "2"]);
    assert_eq!(fit.status.code(), Some(0));
    assert!(stdout(&fit).contains("Weibull"));

    let schedule = |model: &str| {
        chs(
            &dir,
            &[
                "schedule",
                "--trace",
                "pool.csv",
                "--machine",
                "2",
                "--model",
                model,
                "--cost",
                "110",
                "--age",
                "600",
            ],
        )
    };
    let weibull = schedule("weibull");
    assert_eq!(weibull.status.code(), Some(0));
    assert_eq!(
        schedule_head(&weibull),
        [
            "model: Weibull   C = 110 s, R = 110 s, T_elapsed = 600 s",
            "   #    start age  work interval   efficiency",
            "   0        600 s          736 s        0.720",
            "   1       1446 s          738 s        0.724",
            "   2       2294 s          741 s        0.726",
        ]
    );
    let best = schedule("best");
    assert_eq!(best.status.code(), Some(0));
    assert_eq!(
        schedule_head(&best),
        [
            "model: Exponential   C = 110 s, R = 110 s, T_elapsed = 600 s",
            "   #    start age  work interval   efficiency",
            "   0        600 s          737 s        0.725",
            "   1       1447 s          737 s        0.725",
            "   2       2294 s          737 s        0.725",
        ]
    );

    let simulate = chs(&dir, &["simulate", "--trace", "pool.csv", "--cost", "250"]);
    assert_eq!(simulate.status.code(), Some(0));
    assert!(stdout(&simulate).starts_with("pool of 8 usable machines at C = R = 250 s"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_size_generate_is_a_usage_error() {
    let dir = scratch("zero");
    for (size, out) in [
        (["--machines", "0"], "machines.csv"),
        (["--observations", "0"], "observations.csv"),
    ] {
        let mut args = vec!["generate", "--out", out];
        args.extend(size);
        let run = chs(&dir, &args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&run.stderr).contains("usage: chs"));
        assert!(!dir.join(out).exists(), "{out} written");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
