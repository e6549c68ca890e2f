//! Fault-injection benchmark and correctness gate: sweeps fault
//! intensity × model family over the resilient live emulation, the
//! shared-link manager server in its classic profile
//! (`ManagerConfig::classic`), and the resilient prepare, and writes the
//! degradation curves to `BENCH_fault.json`.
//!
//! ```text
//! cargo run -p chs-bench --release --bin fault_bench [--quick | --full] [--json PATH]
//! ```
//!
//! The run is also a correctness gate and exits nonzero when any of
//! these is violated:
//!
//! * **zero-fault identity** — under `FaultPlan::none()` the resilient
//!   live driver must reproduce the classic one **bitwise** (`PartialEq`
//!   over every field, no tolerances). The manager has no second driver
//!   to match; `tests/contention_differential.rs` checks it against the
//!   frozen classic loop;
//! * **conservation** — at every sweep point every ledger must balance
//!   time (`useful + lost + recovery + checkpoint = total`) and bytes
//!   (`megabytes = full + partial + wasted`), and the fault report must
//!   agree exactly with the aggregated ledger counters;
//! * **no silent drops** — under injected fit failures the resilient
//!   prepare must keep every machine the classic prepare would keep or
//!   drop for a fit failure (only short traces may still be dropped).

use chs_bench::CommonArgs;
use chs_condor::{run_experiment, run_experiment_with_faults, ExperimentConfig, FaultReport};
use chs_cycle::CycleAccounting;
use chs_dist::ModelKind;
use chs_manager::{run_manager, ManagerConfig};
use chs_net::FaultPlan;
use chs_sim::{prepare_experiments_reported, prepare_experiments_resilient};
use chs_trace::synthetic::generate_pool;
use chs_trace::PAPER_TRAIN_LEN;
use serde::Serialize;
use std::time::Instant;

/// The fault-intensity grid: `FaultPlan::uniform(intensity, seed)`
/// splits `intensity` evenly over the four transfer-fault kinds and uses
/// it directly as the fit-failure probability.
const INTENSITIES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

#[derive(Serialize)]
struct LiveModelPoint {
    model: ModelKind,
    avg_efficiency: f64,
    megabytes_per_hour: f64,
    mean_transfer_seconds: f64,
    sample_size: usize,
}

#[derive(Serialize)]
struct LivePoint {
    intensity: f64,
    report: FaultReport,
    wasted_megabytes: f64,
    models: Vec<LiveModelPoint>,
    wall_ms: u64,
}

#[derive(Serialize)]
struct ContentionPoint {
    intensity: f64,
    model: ModelKind,
    efficiency: f64,
    stretch: f64,
    mean_link_concurrency: f64,
    wasted_megabytes: f64,
    report: FaultReport,
    wall_ms: u64,
}

#[derive(Serialize)]
struct PreparePoint {
    intensity: f64,
    machines_usable: usize,
    fallback_exponential: usize,
    fallback_fixed: usize,
}

#[derive(Serialize)]
struct FaultBenchReport {
    intensities: Vec<f64>,
    live: Vec<LivePoint>,
    contention: Vec<ContentionPoint>,
    prepare: Vec<PreparePoint>,
    gates_passed: bool,
    gate_failures: Vec<String>,
}

/// Conservation + report/ledger agreement for one aggregated ledger.
fn check_conservation(
    label: &str,
    total: &CycleAccounting,
    report: &FaultReport,
    failures: &mut Vec<String>,
) {
    let time = total.conservation_residual().abs();
    if time >= 1e-6 * total.total_seconds.max(1.0) {
        failures.push(format!("{label}: time conservation residual {time}"));
    }
    let bytes = total.byte_conservation_residual().abs();
    if bytes >= 1e-6 * total.megabytes.max(1.0) {
        failures.push(format!("{label}: byte conservation residual {bytes}"));
    }
    if total.faults_injected != report.total_faults() {
        failures.push(format!(
            "{label}: ledger faults {} != report faults {}",
            total.faults_injected,
            report.total_faults()
        ));
    }
    if total.transfer_retries != report.retries + report.checkpoints_abandoned {
        failures.push(format!(
            "{label}: ledger retries {} != report retries {} + abandoned {}",
            total.transfer_retries, report.retries, report.checkpoints_abandoned
        ));
    }
    if total.checkpoints_abandoned != report.checkpoints_abandoned {
        failures.push(format!(
            "{label}: ledger abandoned {} != report abandoned {}",
            total.checkpoints_abandoned, report.checkpoints_abandoned
        ));
    }
}

fn main() {
    let mut args = CommonArgs::parse();
    let json_path = args
        .json
        .take()
        .unwrap_or_else(|| "BENCH_fault.json".into());
    let quick = args.machines <= 24;

    let mut live_config = ExperimentConfig::campus();
    let mut cont_base = ManagerConfig::classic(8, ModelKind::Exponential);
    if quick {
        live_config.machines = 6;
        live_config.streams = 1;
        live_config.window = 0.25 * 86_400.0;
        cont_base.clients = 4;
        cont_base.window = 0.5 * 86_400.0;
    } else {
        live_config.machines = 16;
        live_config.streams = 2;
        live_config.window = 86_400.0;
        cont_base.window = 2.0 * 86_400.0;
    }
    live_config.seed = args.seed;
    cont_base.seed = args.seed;

    let mut failures: Vec<String> = Vec::new();

    // ---- Gate: zero-fault bitwise identity --------------------------
    eprintln!("verifying zero-fault bitwise identity ...");
    let classic_live = run_experiment(&live_config).expect("classic live run");
    match run_experiment_with_faults(&live_config, &FaultPlan::none()) {
        Ok((resilient, report)) => {
            if resilient != classic_live {
                failures.push("live: zero-fault run differs from classic driver".into());
            }
            if report != FaultReport::default() {
                failures.push("live: zero-fault run reported injected faults".into());
            }
        }
        Err(e) => failures.push(format!("live: zero-fault run failed: {e}")),
    }
    eprintln!(
        "zero-fault identity: {}",
        if failures.is_empty() { "ok" } else { "FAILED" }
    );

    // ---- Sweep: intensity × driver × model family -------------------
    let mut live_points = Vec::new();
    let mut cont_points = Vec::new();
    for &intensity in &INTENSITIES {
        let plan = FaultPlan::uniform(intensity, args.seed ^ 0xFA);

        let t0 = Instant::now();
        let (result, report) =
            run_experiment_with_faults(&live_config, &plan).expect("faulted live run");
        let mut total = CycleAccounting::default();
        for run in &result.runs {
            total.absorb(&run.cycle);
        }
        check_conservation(&format!("live@{intensity}"), &total, &report, &mut failures);
        live_points.push(LivePoint {
            intensity,
            report,
            wasted_megabytes: total.wasted_megabytes,
            models: result
                .summaries
                .iter()
                .map(|s| LiveModelPoint {
                    model: s.model,
                    avg_efficiency: s.avg_efficiency,
                    megabytes_per_hour: s.megabytes_per_hour,
                    mean_transfer_seconds: s.mean_transfer_seconds,
                    sample_size: s.sample_size,
                })
                .collect(),
            wall_ms: t0.elapsed().as_millis() as u64,
        });

        for kind in ModelKind::PAPER_SET {
            let config = ManagerConfig {
                model: kind,
                ..cont_base.clone()
            };
            let t0 = Instant::now();
            let outcome = run_manager(&config, &plan).expect("faulted contention run");
            let (result, report) = (outcome.result, outcome.report.faults);
            check_conservation(
                &format!("contention/{}@{intensity}", kind.label()),
                &result.cycle,
                &report,
                &mut failures,
            );
            cont_points.push(ContentionPoint {
                intensity,
                model: kind,
                efficiency: result.efficiency(),
                stretch: result.stretch(&config),
                mean_link_concurrency: result.mean_link_concurrency,
                wasted_megabytes: result.cycle.wasted_megabytes,
                report,
                wall_ms: t0.elapsed().as_millis() as u64,
            });
        }
        eprintln!(
            "intensity {intensity}: live + {} contention families swept",
            4
        );
    }

    // ---- Gate: injected fit failures never silently drop machines ---
    eprintln!("verifying fit-failure degradation keeps every machine ...");
    let pool = generate_pool(&args.pool_config()).as_machine_pool();
    let classic_prepare = prepare_experiments_reported(&pool, PAPER_TRAIN_LEN);
    let expected_usable =
        classic_prepare.report.machines_usable + classic_prepare.report.dropped_fit_failure;
    let mut prepare_points = Vec::new();
    for &intensity in &INTENSITIES {
        let plan = FaultPlan::uniform(intensity, args.seed ^ 0xF17);
        let prepared = prepare_experiments_resilient(&pool, PAPER_TRAIN_LEN, &plan);
        if prepared.report.machines_usable != expected_usable {
            failures.push(format!(
                "prepare@{intensity}: {} machines usable, expected {} (silent drop)",
                prepared.report.machines_usable, expected_usable
            ));
        }
        if intensity == 0.0
            && prepared.report.fallback_exponential + prepared.report.fallback_fixed
                < classic_prepare.report.dropped_fit_failure
        {
            failures.push(format!(
                "prepare@0: {} fallbacks cannot cover {} classic fit-failure drops",
                prepared.report.fallback_exponential + prepared.report.fallback_fixed,
                classic_prepare.report.dropped_fit_failure
            ));
        }
        prepare_points.push(PreparePoint {
            intensity,
            machines_usable: prepared.report.machines_usable,
            fallback_exponential: prepared.report.fallback_exponential,
            fallback_fixed: prepared.report.fallback_fixed,
        });
    }

    // ---- Report -----------------------------------------------------
    println!("\nlive degradation (occupied-time-weighted efficiency):");
    print!("{:>10}", "intensity");
    for kind in ModelKind::PAPER_SET {
        print!("{:>16}", kind.label());
    }
    println!("{:>10}{:>9}", "faults", "retries");
    for p in &live_points {
        print!("{:>10.2}", p.intensity);
        for m in &p.models {
            print!("{:>16.4}", m.avg_efficiency);
        }
        println!("{:>10}{:>9}", p.report.total_faults(), p.report.retries);
    }

    println!("\ncontention degradation (efficiency / stretch):");
    print!("{:>10}", "intensity");
    for kind in ModelKind::PAPER_SET {
        print!("{:>16}", kind.label());
    }
    println!();
    for &intensity in &INTENSITIES {
        print!("{:>10.2}", intensity);
        for p in cont_points.iter().filter(|p| p.intensity == intensity) {
            print!("{:>9.4}/{:>6.3}", p.efficiency, p.stretch);
        }
        println!();
    }

    println!("\nfit-failure degradation (machines kept / exp / fixed):");
    for p in &prepare_points {
        println!(
            "{:>10.2}{:>10}{:>8}{:>8}",
            p.intensity, p.machines_usable, p.fallback_exponential, p.fallback_fixed
        );
    }

    let gates_passed = failures.is_empty();
    let report = FaultBenchReport {
        intensities: INTENSITIES.to_vec(),
        live: live_points,
        contention: cont_points,
        prepare: prepare_points,
        gates_passed,
        gate_failures: failures.clone(),
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&json_path, json) {
                eprintln!("could not write {json_path}: {e}");
            } else {
                eprintln!("raw results written to {json_path}");
            }
        }
        Err(e) => eprintln!("could not serialize results: {e}"),
    }

    if !gates_passed {
        eprintln!("\nFAULT BENCH GATES FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    eprintln!("\nall fault-bench gates passed");
}
