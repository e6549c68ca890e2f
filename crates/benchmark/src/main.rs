//! `chs-benchmark`: run one workload, run sets of workloads, or compare
//! two run sets.
//!
//! ```text
//! chs-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--threads T] [--quick]
//! chs-benchmark run [--workload all|NAME] [--runs N] [--seed N] [--seconds S]
//!                   [--threads T] [--trace] [--quick] --out FILE
//! chs-benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! A single run prints its full report as one JSON line, then the result
//! line `{"correct", "attempted", "failed", "metrics"}` last. `run`
//! starts every (workload, repetition) as its own child process, one
//! after another, reversing the workload order on alternate
//! repetitions. Every mode exits nonzero when a check fails.

use chs_benchmark::alloc::CountingAlloc;
use chs_benchmark::compare::{compare, RunSet, Verdict};
use chs_benchmark::metrics::{self, Kind, WORKLOADS};
use chs_benchmark::runner::{
    run_named, RunArgs, RunReport, DEFAULT_SECONDS, DEFAULT_SEED, DEFAULT_THREADS,
};
use chs_benchmark::stats::{quartiles, relative_spread};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_sets(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        _ => single(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(usage) => {
            eprintln!("chs-benchmark: {usage}");
            ExitCode::from(2)
        }
    }
}

/// Flags shared by single runs and run sets.
struct Options {
    run: RunArgs,
    runs: usize,
    out: Option<String>,
}

fn parse(args: &[String], set: bool) -> Result<Options, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut o = Options {
        run: RunArgs {
            workload: if set { "all".into() } else { String::new() },
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            threads: DEFAULT_THREADS.min(cores),
            quick: false,
        },
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{flag}: `{v}` is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => o.run.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                o.run.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => o.run.seconds = number(value()?)?,
            "--threads" => o.run.threads = number(value()?)? as usize,
            "--runs" if set => o.runs = number(value()?)? as usize,
            "--out" if set => o.out = Some(value()?.clone()),
            "--trace" if set => o.run.trace = true,
            "--trace" => {
                o.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--quick" => o.run.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.run.threads == 0 || o.run.threads > cores {
        return Err(format!(
            "--threads must be between 1 and the {cores} cores present"
        ));
    }
    let known = WORKLOADS.contains(&o.run.workload.as_str());
    if !(known || (set && o.run.workload == "all")) {
        return Err(format!(
            "--workload must be {}one of {}",
            if set { "all or " } else { "" },
            WORKLOADS.join(", ")
        ));
    }
    if set && (o.runs == 0 || o.out.is_none()) {
        return Err("run needs --runs ≥ 1 and --out FILE".into());
    }
    Ok(o)
}

/// One run in this process (what `bench.sh` runs).
fn single(args: &[String]) -> Result<bool, String> {
    let o = parse(args, false)?;
    let report = run_named(&o.run)?;
    println!(
        "{{\"report\":{}}}",
        serde_json::to_string(&report).expect("serializable")
    );
    println!("{}", report.result_line());
    for failure in &report.failures {
        eprintln!("FAIL {}: {failure}", report.workload);
    }
    Ok(report.correct)
}

/// `run`: every (workload, repetition) in its own child process.
fn run_sets(args: &[String]) -> Result<bool, String> {
    let o = parse(args, true)?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let names: Vec<&str> = if o.run.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![o.run.workload.as_str()]
    };
    let mut ok = true;
    let mut runs: Vec<RunReport> = Vec::new();
    for rep in 0..o.runs {
        let order: Vec<&str> = if rep % 2 == 1 {
            names.iter().rev().copied().collect()
        } else {
            names.clone()
        };
        for name in order {
            eprintln!("run {}/{}: {name}", rep + 1, o.runs);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &o.run.seed.to_string()])
                .args(["--seconds", &o.run.seconds.to_string()])
                .args(["--threads", &o.run.threads.to_string()])
                .args(["--trace", if o.run.trace { "1" } else { "0" }]);
            if o.run.quick {
                cmd.arg("--quick");
            }
            let child = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let report = stdout
                .lines()
                .find_map(|l| l.strip_prefix("{\"report\":")?.strip_suffix('}'))
                .and_then(|json| serde_json::from_str::<RunReport>(json).ok());
            match report {
                Some(report) => {
                    ok &= child.status.success() && report.correct;
                    runs.push(report);
                }
                None => {
                    eprintln!("FAIL {name}: no report ({})", child.status);
                    ok = false;
                }
            }
        }
    }
    let set = RunSet {
        seed: o.run.seed,
        threads: o.run.threads,
        seconds: o.run.seconds,
        trace: o.run.trace,
        quick: o.run.quick,
        runs,
    };
    for line in set.nondeterminism() {
        eprintln!("FAIL {line}");
        ok = false;
    }
    let out = o.out.expect("checked in parse");
    let json = serde_json::to_string_pretty(&set).expect("serializable");
    std::fs::write(&out, json + "\n").map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out}");
    print_summary(&set);
    Ok(ok)
}

fn print_summary(set: &RunSet) {
    let layers = metrics::per_layer();
    println!(
        "{:<17} {:<38} {:>13} {:>13} {:>13} {:>3} {:>7}  unit",
        "workload", "metric", "median", "q1", "q3", "n", "spread"
    );
    for w in set.workloads() {
        let first = set.runs.iter().find(|r| r.workload == w).expect("present");
        for (name, reading) in first.end_to_end.iter().chain(&first.per_layer) {
            let values: Vec<f64> = set
                .runs
                .iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| r.end_to_end.get(name).or(r.per_layer.get(name)))
                .map(|m| m.value)
                .collect();
            let layer = layers.iter().find(|l| &l.name == name);
            // A layer this workload never crosses reads 0 on every run.
            if layer.is_some() && values.iter().all(|v| *v == 0.0) {
                continue;
            }
            let [q1, q2, q3] = quartiles(&values);
            println!(
                "{w:<17} {name:<38} {q2:>13.6e} {q1:>13.6e} {q3:>13.6e} {:>3} {:>6.2}%  {}{}",
                values.len(),
                100.0 * relative_spread(&values),
                reading.unit,
                layer.map_or(String::new(), |l| format!(
                    " (moves {} on {})",
                    l.moves, l.on
                ))
            );
        }
    }
}

/// `compare PARENT CHANGE`: one row per workload × end-to-end metric.
fn compare_sets(args: &[String]) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("compare needs PARENT.json CHANGE.json".into());
    };
    let load = |path: &String| -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let (parent, change) = (load(parent)?, load(change)?);
    println!(
        "{:<17} {:<18} {:>12} {:>25} {:>12} {:>25}  verdict",
        "workload", "metric", "parent", "[q1, q3] (n)", "change", "[q1, q3] (n)"
    );
    let rows = compare(&parent, &change);
    for r in &rows {
        let side = |q: [f64; 3], n: usize| format!("[{:.4e}, {:.4e}] ({n})", q[0], q[2]);
        println!(
            "{:<17} {:<18} {:>12.5e} {:>25} {:>12.5e} {:>25}  {}{}",
            r.workload,
            r.def.name,
            r.parent[1],
            side(r.parent, r.parent_runs),
            r.change[1],
            side(r.change, r.change_runs),
            r.verdict.as_str(),
            if r.def.kind == Kind::Deterministic && r.parent[1] != r.change[1] {
                " (deterministic value changed)"
            } else {
                ""
            }
        );
    }
    Ok(!rows.iter().any(|r| r.verdict == Verdict::Worse))
}
