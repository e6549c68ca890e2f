//! `chs` — the cycle-harvest command line.
//!
//! Operates on availability-trace files (the CSV/JSON formats of
//! `chs_trace::io`) so the system can be driven without writing Rust:
//!
//! ```text
//! chs analyze  --trace pool.csv                      # descriptive statistics
//! chs fit      --trace pool.csv --machine 3          # fit all families, GOF scores
//! chs schedule --trace pool.csv --machine 3 \
//!              --model weibull --cost 110 --age 600  # print a checkpoint schedule
//! chs simulate --trace pool.csv --cost 250           # paper-style pool simulation
//! chs generate --machines 64 --out pool.csv          # synthesize a calibrated pool
//! ```
//!
//! Every subcommand prints human-readable tables to stdout; exit code 2
//! signals a usage error, 1 an execution failure.

use cycle_harvest::dist::fit::fit_model;
use cycle_harvest::dist::{gof, ModelKind};
use cycle_harvest::markov::{CheckpointCosts, Schedule, VaidyaModel};
use cycle_harvest::sim::{prepare_experiments_reported, sweep_paper_grid};
use cycle_harvest::trace::synthetic::{generate_pool, PoolConfig};
use cycle_harvest::trace::{analysis, io as trace_io, MachineId, MachinePool, PAPER_TRAIN_LEN};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Piping into `head` closes stdout early; dying quietly (the POSIX
    // default) beats a panic backtrace.
    reset_sigpipe();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    // Reject typo'd flags: a misspelled `--machne` silently analyzing the
    // whole pool is worse than an error.
    let allowed: &[&str] = match command.as_str() {
        "analyze" => &["trace", "machine"],
        "fit" => &["trace", "machine", "train"],
        "schedule" => &[
            "trace", "machine", "model", "cost", "recovery", "age", "horizon",
        ],
        "simulate" => &["trace", "machine", "cost", "train"],
        "generate" => &["machines", "observations", "seed", "out"],
        _ => &[],
    };
    if !allowed.is_empty() {
        for key in opts.keys() {
            if !allowed.contains(&key.as_str()) {
                eprintln!(
                    "error: unknown option --{key} for `{command}` (expected: {})",
                    allowed
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    // A zero-size pool is a usage error, not an empty trace file.
    if command == "generate" {
        for key in ["machines", "observations"] {
            if get_usize(&opts, key, 1) == Ok(0) {
                eprintln!("error: --{key} must be at least 1");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    let result = match command.as_str() {
        "analyze" => cmd_analyze(&opts),
        "fit" => cmd_fit(&opts),
        "schedule" => cmd_schedule(&opts),
        "simulate" => cmd_simulate(&opts),
        "generate" => cmd_generate(&opts),
        "help" | "--help" | "-h" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            usage();
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Restore the default SIGPIPE disposition on Unix so `chs ... | head`
/// terminates quietly instead of panicking on a closed stdout. Uses the
/// raw syscall via `std`'s libc re-export-free path: a tiny `extern`
/// declaration avoids pulling in the `libc` crate for one constant.
fn reset_sigpipe() {
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        signal(SIGPIPE, SIG_DFL);
    }
}

fn usage() {
    eprintln!(
        "usage: chs <command> [options]\n\
         \n\
         commands:\n\
         \x20 analyze   --trace FILE [--machine N]          trace statistics\n\
         \x20 fit       --trace FILE --machine N [--train N] fit all families + GOF\n\
         \x20 schedule  --trace FILE --machine N --model M\n\
         \x20           [--cost S] [--recovery S] [--age S] [--horizon S]\n\
         \x20 simulate  --trace FILE [--cost S] [--train N]  pool simulation, all models\n\
         \x20 generate  --machines N [--observations N] [--seed S] --out FILE\n\
         \n\
         models: exponential | weibull | hyper2 | hyper3 | best\n\
         trace files: .csv (machine,start,duration) or .json"
    );
}

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{flag}`"));
        };
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    Ok(opts)
}

fn get_f64(opts: &Opts, key: &str, default: f64) -> Result<f64, String> {
    // Every f64 option of this CLI is a duration/cost in seconds; reject
    // negatives and non-finite values here so they cannot reach the
    // simulation layer (whose config validation would abort the whole
    // pool sweep rather than fail one flag).
    match opts.get(key) {
        None => Ok(default),
        Some(v) => match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
            Ok(x) => Err(format!("--{key}: must be a non-negative number, got {x}")),
            Err(_) => Err(format!("--{key}: not a number: {v}")),
        },
    }
}

fn get_usize(opts: &Opts, key: &str, default: usize) -> Result<usize, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: not an integer: {v}")),
    }
}

fn load_pool(opts: &Opts) -> Result<MachinePool, String> {
    let path = opts.get("trace").ok_or("--trace FILE is required")?;
    if path.ends_with(".json") {
        trace_io::load_pool(path).map_err(|e| e.to_string())
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        trace_io::read_csv(std::io::BufReader::new(file)).map_err(|e| e.to_string())
    }
}

fn pick_machine<'p>(
    pool: &'p MachinePool,
    opts: &Opts,
) -> Result<&'p cycle_harvest::trace::AvailabilityTrace, String> {
    let id = get_usize(opts, "machine", usize::MAX)?;
    if id == usize::MAX {
        return Err("--machine N is required".to_string());
    }
    // Machine ids are u32 on disk; a larger number must not silently
    // truncate onto some other machine.
    let id32 = u32::try_from(id).map_err(|_| format!("--machine {id}: out of range"))?;
    pool.get(MachineId(id32))
        .ok_or_else(|| format!("machine {id} not in trace file"))
}

fn parse_model(name: &str) -> Result<Option<ModelKind>, String> {
    match name {
        "exponential" | "exp" | "e" => Ok(Some(ModelKind::Exponential)),
        "weibull" | "w" => Ok(Some(ModelKind::Weibull)),
        "hyper2" | "2" => Ok(Some(ModelKind::HyperExponential { phases: 2 })),
        "hyper3" | "3" => Ok(Some(ModelKind::HyperExponential { phases: 3 })),
        "best" => Ok(None),
        other => Err(format!("unknown model `{other}`")),
    }
}

fn cmd_analyze(opts: &Opts) -> Result<(), String> {
    let pool = load_pool(opts)?;
    let machine = get_usize(opts, "machine", usize::MAX)?;
    if machine != usize::MAX {
        let trace = pick_machine(&pool, opts)?;
        let s = analysis::stats(&trace.durations()).map_err(|e| e.to_string())?;
        println!("machine {machine}: {} observations", s.count);
        println!(
            "  mean {:.0} s  median {:.0} s  CV {:.2}",
            s.mean, s.median, s.cv
        );
        println!(
            "  min {:.0} s  max {:.0} s  lag-1 ACF {:.3}",
            s.min, s.max, s.lag1_autocorrelation
        );
        return Ok(());
    }
    println!(
        "{} machines, {:>8} observations total",
        pool.len(),
        pool.traces().iter().map(|t| t.len()).sum::<usize>()
    );
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>7}",
        "machine", "obs", "mean(s)", "median(s)", "CV"
    );
    for t in pool.traces() {
        if let Ok(s) = analysis::stats(&t.durations()) {
            println!(
                "{:>8} {:>6} {:>10.0} {:>10.0} {:>7.2}",
                t.machine.0, s.count, s.mean, s.median, s.cv
            );
        }
    }
    Ok(())
}

fn cmd_fit(opts: &Opts) -> Result<(), String> {
    let pool = load_pool(opts)?;
    let trace = pick_machine(&pool, opts)?;
    let train_len = get_usize(opts, "train", PAPER_TRAIN_LEN)?;
    let (train, test) = trace
        .split(train_len.min(trace.len()))
        .map_err(|e| e.to_string())?;
    let score_set = if test.len() >= 10 { &test } else { &train };
    println!(
        "fitting on {} durations, scoring on {} held-out",
        train.len(),
        score_set.len()
    );
    println!(
        "{:>20} {:>12} {:>12} {:>9} {:>9}",
        "family", "logLik", "BIC", "KS", "KS p"
    );
    for kind in ModelKind::PAPER_SET {
        match fit_model(kind, &train) {
            Ok(fit) => {
                let s = gof::score(&fit, score_set).map_err(|e| e.to_string())?;
                println!(
                    "{:>20} {:>12.1} {:>12.1} {:>9.3} {:>9.3}",
                    kind.label(),
                    s.log_likelihood,
                    s.bic,
                    s.ks,
                    s.ks_p
                );
            }
            Err(e) => println!("{:>20}  fit failed: {e}", kind.label()),
        }
    }
    if let Ok(ln) = cycle_harvest::dist::fit_lognormal(&train) {
        let s = gof::score(&ln, score_set).map_err(|e| e.to_string())?;
        println!(
            "{:>20} {:>12.1} {:>12.1} {:>9.3} {:>9.3}",
            "Log-normal (ext)", s.log_likelihood, s.bic, s.ks, s.ks_p
        );
    }
    Ok(())
}

fn cmd_schedule(opts: &Opts) -> Result<(), String> {
    let pool = load_pool(opts)?;
    let trace = pick_machine(&pool, opts)?;
    let cost = get_f64(opts, "cost", 110.0)?;
    let recovery = get_f64(opts, "recovery", cost)?;
    let age = get_f64(opts, "age", 0.0)?;
    let horizon = get_f64(opts, "horizon", 8.0 * 3_600.0)?;
    let model_name = opts.get("model").map(String::as_str).unwrap_or("best");
    let durations = trace.durations();
    let fit = match parse_model(model_name)? {
        Some(kind) => fit_model(kind, &durations),
        None => gof::fit_best(&durations),
    }
    .map_err(|e| format!("fit: {e}"))?;
    println!(
        "model: {}   C = {cost} s, R = {recovery} s, T_elapsed = {age} s",
        fit.kind().label()
    );
    // Work intervals between 1 s and 30 days.
    let schedule = VaidyaModel::new(&fit, CheckpointCosts::new(cost, recovery))
        .and_then(|vaidya| vaidya.with_bounds(1.0, 30.0 * 86_400.0))
        .and_then(|vaidya| Schedule::compute(&vaidya, age, horizon, 64))
        .map_err(|e| format!("schedule: {e}"))?;
    println!(
        "{:>4} {:>12} {:>14} {:>12}",
        "#", "start age", "work interval", "efficiency"
    );
    for (i, e) in schedule.entries().iter().enumerate() {
        println!(
            "{:>4} {:>10.0} s {:>12.0} s {:>12.3}",
            i, e.start_age, e.interval.work_seconds, e.interval.efficiency
        );
    }
    println!(
        "predicted steady-state efficiency: {:.3}",
        schedule.predicted_efficiency()
    );
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), String> {
    let mut pool = load_pool(opts)?;
    let cost = get_f64(opts, "cost", 110.0)?;
    let train_len = get_usize(opts, "train", PAPER_TRAIN_LEN)?;
    let machine = get_usize(opts, "machine", usize::MAX)?;
    if machine != usize::MAX {
        pool = MachinePool::new(vec![pick_machine(&pool, opts)?.clone()]);
    }
    // One row of the paper's Table 1/3 at the requested C, through the
    // sweep's prepare: a family whose fit fails plans on its fallback.
    let prepared = prepare_experiments_reported(&pool, train_len);
    let experiments = &prepared.experiments;
    if experiments.is_empty() {
        return Err(if machine == usize::MAX {
            "no machine had enough observations to fit and hold out".to_string()
        } else {
            "trace too short to hold out an experimental set".to_string()
        });
    }
    let grid = sweep_paper_grid(experiments, &[cost], 500.0);
    let widths = if machine == usize::MAX {
        println!(
            "pool of {} usable machines at C = R = {cost} s (500 MB images)",
            experiments.len()
        );
        println!("{:>20} {:>12} {:>14}", "model", "mean eff", "mean MB");
        14
    } else {
        println!(
            "machine {machine}: C = R = {cost} s over {} held-out durations",
            experiments[0].test_durations.len()
        );
        println!("{:>20} {:>12} {:>12}", "model", "efficiency", "megabytes");
        12
    };
    for (mi, kind) in ModelKind::PAPER_SET.iter().enumerate() {
        println!(
            "{:>20} {:>12.3} {:>widths$.0}",
            kind.label(),
            grid.mean_efficiency(0, mi),
            grid.mean_megabytes(0, mi)
        );
    }
    let r = &prepared.report;
    if r.fallback_exponential + r.fallback_fixed > 0 {
        println!(
            "fit failures: {} slot(s) on the exponential fallback, {} on Young's interval",
            r.fallback_exponential, r.fallback_fixed
        );
    }
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let machines = get_usize(opts, "machines", 64)?;
    let observations = get_usize(opts, "observations", 225)?;
    let seed = get_usize(opts, "seed", 2_005)? as u64;
    let out = opts.get("out").ok_or("--out FILE is required")?;
    let config = PoolConfig {
        machines,
        observations_per_machine: observations,
        seed,
        ..PoolConfig::default()
    };
    let pool = generate_pool(&config).as_machine_pool();
    if out.ends_with(".json") {
        trace_io::save_pool(&pool, out).map_err(|e| e.to_string())?;
    } else {
        let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
        trace_io::write_csv(&pool, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    }
    let total_time: f64 = pool.traces().iter().map(|t| t.total_available()).sum();
    println!(
        "wrote {} machines x {} observations ({:.1} machine-days of availability) to {out}",
        machines,
        observations,
        total_time / 86_400.0
    );
    Ok(())
}
