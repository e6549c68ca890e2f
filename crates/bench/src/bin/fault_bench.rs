//! Fault-injection benchmark and correctness gate: sweeps fault
//! intensity × model family over the live emulation, the
//! shared-link manager server in its classic profile
//! (`ManagerConfig::classic`), and the resilient prepare, and writes the
//! degradation curves to `BENCH_fault.json`.
//!
//! ```text
//! cargo run -p chs-bench --release --bin fault_bench [--quick | --full] [--json PATH]
//! ```
//!
//! The report uses the common envelope. The run is also a correctness
//! gate and exits 1 when any of these gates fails:
//!
//! * `live.zero_fault_identity`, `live.zero_fault_report` — under
//!   `FaultPlan::none()` the live driver must reproduce the frozen
//!   classic driver (`crates/condor/tests/frozen/live.rs`) **bitwise**
//!   (`PartialEq` over every field, no tolerances) and count no fault.
//!   The manager is checked against its own frozen classic loop in
//!   `tests/contention_differential.rs`;
//! * `live@{intensity}.conservation`,
//!   `contention/{model}@{intensity}.conservation` — at every sweep point every ledger must balance
//!   time (`useful + lost + recovery + checkpoint = total`) and bytes
//!   (`megabytes = full + partial + wasted`), and the fault report must
//!   agree exactly with the aggregated ledger counters;
//! * `prepare@{intensity}.no_silent_drop`, `prepare@0.fallback_coverage`
//!   — under injected fit failures the prepare must keep every machine it
//!   keeps without injection (only short traces may be dropped), and
//!   without injection every natural fit failure must land on a fallback
//!   tier.

use chs_bench::harness::{finish, Gates};
use chs_bench::{conservation_gate, CommonArgs};
use chs_condor::{run_experiment, ExperimentConfig, FaultReport};
use chs_cycle::CycleAccounting;
use chs_dist::ModelKind;
use chs_manager::{run_manager, ManagerConfig};
use chs_net::FaultPlan;
use chs_sim::{prepare_experiments_reported, prepare_experiments_resilient};
use chs_trace::synthetic::generate_pool;
use chs_trace::PAPER_TRAIN_LEN;
use serde::Serialize;
use std::time::Instant;

// The frozen classic live driver, shared with chs-condor's
// `fault_differential` proptests.
#[path = "../../../condor/tests/frozen/live.rs"]
mod frozen;

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
}

fn main() {
    let args = CommonArgs::parse();
    let json_path = args.report_path("BENCH_fault.json");

    let mut live_config = ExperimentConfig::campus();
    let mut cont_base = ManagerConfig::classic(8, ModelKind::Exponential);
    if args.quick {
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

    let mut gates = Gates::new();

    // ---- Gate: zero-fault bitwise identity --------------------------
    eprintln!("verifying zero-fault bitwise identity ...");
    let classic_live = frozen::run_experiment(&live_config).expect("frozen classic live run");
    match run_experiment(&live_config, &FaultPlan::none()) {
        Ok((live, report)) => {
            gates.check(
                "live.zero_fault_identity",
                live == classic_live,
                "live driver vs frozen classic driver under FaultPlan::none(), full PartialEq",
            );
            gates.check(
                "live.zero_fault_report",
                report == FaultReport::default(),
                format!(
                    "{} faults, {} retries reported",
                    report.total_faults(),
                    report.retries
                ),
            );
        }
        Err(e) => {
            gates.check(
                "live.zero_fault_identity",
                false,
                format!("zero-fault run failed: {e}"),
            );
        }
    }

    // ---- Sweep: intensity × driver × model family -------------------
    let mut live_points = Vec::new();
    let mut cont_points = Vec::new();
    for &intensity in &INTENSITIES {
        let plan = FaultPlan::uniform(intensity, args.seed ^ 0xFA);

        let t0 = Instant::now();
        let (result, report) = run_experiment(&live_config, &plan).expect("faulted live run");
        let mut total = CycleAccounting::default();
        for run in &result.runs {
            total.absorb(&run.cycle);
        }
        conservation_gate(&mut gates, &format!("live@{intensity}"), &total, &report, 0);
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
            conservation_gate(
                &mut gates,
                &format!("contention/{}@{intensity}", kind.label()),
                &result.cycle,
                &report,
                0,
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
        eprintln!("intensity {intensity}: live + 4 contention families swept");
    }

    // ---- Gate: injected fit failures never silently drop machines ---
    eprintln!("verifying fit-failure degradation keeps every machine ...");
    let pool = generate_pool(&args.pool_config()).as_machine_pool();
    let classic_prepare = prepare_experiments_reported(&pool, PAPER_TRAIN_LEN);
    let expected_usable = classic_prepare.report.machines_usable;
    let mut prepare_points = Vec::new();
    for &intensity in &INTENSITIES {
        let plan = FaultPlan::uniform(intensity, args.seed ^ 0xF17);
        let prepared = prepare_experiments_resilient(&pool, PAPER_TRAIN_LEN, &plan);
        gates.check(
            format!("prepare@{intensity}.no_silent_drop"),
            prepared.report.machines_usable == expected_usable,
            format!(
                "{} machines usable, expected {}",
                prepared.report.machines_usable, expected_usable
            ),
        );
        if intensity == 0.0 {
            // With nothing injected, every fallback is a natural failure.
            let fallbacks = prepared.report.fallback_exponential + prepared.report.fallback_fixed;
            let natural: usize = prepared
                .report
                .fit_failures
                .iter()
                .map(|f| f.failures)
                .sum();
            gates.check(
                "prepare@0.fallback_coverage",
                fallbacks == natural,
                format!("{fallbacks} fallbacks for {natural} natural fit failures"),
            );
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

    let report = FaultBenchReport {
        intensities: INTENSITIES.to_vec(),
        live: live_points,
        contention: cont_points,
        prepare: prepare_points,
    };
    finish(&json_path, &report, &gates);
}
