//! Regenerates the **§5.3 validation**: replay the post-mortem occupancy
//! durations captured by the live-experiment logs through the trace
//! simulator (with each model's mean *measured* transfer time as the
//! constant C = R), and compare simulated efficiency against the
//! empirical efficiency the checkpoint manager observed.
//!
//! The paper reports small discrepancies from (a) the 2-day experimental
//! window right-censoring the durations and (b) the simulator's constant
//! C/R versus the live system's variable transfers; the same two effects
//! appear here.
//!
//! ```text
//! cargo run -p chs-bench --release --bin validate [--seed S]
//! ```

use chs_bench::{maybe_dump_json, CommonArgs, TablePrinter};
use chs_condor::{run_experiment, ExperimentConfig};
use chs_dist::fit::fit_model;
use chs_markov::CheckpointCosts;
use chs_net::FaultPlan;
use chs_sim::{simulate_trace, CachedPolicy, SimConfig};

fn main() {
    let args = CommonArgs::parse();
    let mut config = ExperimentConfig::campus();
    config.seed = args.seed;
    let (live, _) = run_experiment(&config, &FaultPlan::none()).expect("live experiment");

    println!("\nValidation (paper 5.3): empirical vs post-mortem simulated efficiency");
    println!("simulation uses each model's mean measured transfer as constant C = R\n");
    let printer = TablePrinter::new(vec![18, 11, 11, 11, 9]);
    printer.row(&[
        "Distribution".to_string(),
        "empirical".to_string(),
        "simulated".to_string(),
        "abs diff".to_string(),
        "runs".to_string(),
    ]);
    printer.rule();

    let mut report: Vec<(String, f64, f64)> = Vec::new();
    for summary in &live.summaries {
        let kind = summary.model;
        // Post-mortem durations for this model: how long each run held its
        // machine (the occupancy the monitor would have recorded).
        let durations: Vec<f64> = live
            .runs
            .iter()
            .filter(|r| r.model == kind && r.occupied_seconds() > 0.0)
            .map(|r| r.occupied_seconds())
            .collect();
        if durations.len() < 26 {
            println!(
                "{:>18}  too few runs ({}) to validate",
                kind.label(),
                durations.len()
            );
            continue;
        }
        let c = summary.mean_transfer_seconds.max(1.0);
        // Fit the model to the first 25 post-mortem durations, simulate
        // the remainder — the same pipeline as the main simulation but on
        // the live system's own measurements.
        let (train, test) = durations.split_at(25);
        let Ok(fit) = fit_model(kind, train) else {
            println!("{:>18}  post-mortem fit failed", kind.label());
            continue;
        };
        let max_age = test.iter().cloned().fold(0.0f64, f64::max);
        let policy = CachedPolicy::new(fit, CheckpointCosts::symmetric(c), max_age);
        let sim = simulate_trace(test, &policy, &SimConfig::paper(c)).expect("valid durations");
        let empirical = summary.avg_efficiency;
        let simulated = sim.efficiency();
        printer.row(&[
            kind.label(),
            format!("{empirical:.3}"),
            format!("{simulated:.3}"),
            format!("{:.3}", (empirical - simulated).abs()),
            format!("{}", durations.len()),
        ]);
        report.push((kind.label(), empirical, simulated));
    }
    println!(
        "\npaper shape: discrepancies are small and explained by right-censoring \
         (2-day window) and constant-vs-variable C; the model ordering is preserved"
    );
    maybe_dump_json(&args, &report);
}
