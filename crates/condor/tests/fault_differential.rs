//! Differential gate for the live driver (in the style of
//! `chs-sim/tests/frozen_engine.rs`): under a **zero-fault plan**
//! `run_experiment` must reproduce the frozen classic driver
//! (`frozen/live.rs`, shared with chs-bench's `fault_bench`) **bitwise**
//! — `PartialEq` over every `f64` field, no tolerances — across random
//! seeds, pool sizes, and windows. The fault layer earns its place only
//! if it is invisible when no fault is injected. (The shared-link
//! manager is checked against its frozen classic loop in the root
//! `tests/contention_differential.rs`.)

// The frozen classic live driver, verbatim but for the fit fallback.
#[path = "frozen/live.rs"]
mod frozen;

use chs_condor::{run_experiment, ExperimentConfig, FaultReport, RunRecord};
use chs_dist::ModelKind;
use chs_net::FaultPlan;
use proptest::prelude::*;

fn live_config(seed: u64, machines: usize, window_hours: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::campus();
    c.machines = machines.max(2);
    c.streams = 1;
    c.window = window_hours as f64 * 3_600.0;
    c.seed = seed;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Zero-fault live runs are bitwise-identical to the classic driver:
    /// same runs, same logs, same summaries, and an empty fault report.
    #[test]
    fn zero_fault_live_is_bitwise_frozen(
        seed in 0u64..5_000,
        machines in 2usize..10,
        window_hours in 3u64..12,
    ) {
        let config = live_config(seed, machines, window_hours);
        let classic = frozen::run_experiment(&config).unwrap();
        let (resilient, report) =
            run_experiment(&config, &FaultPlan::none()).unwrap();
        prop_assert_eq!(classic, resilient);
        prop_assert_eq!(report, FaultReport::default());
    }

    /// A plan whose probabilities are all zero but whose seed varies is
    /// still a zero plan: the seed must never leak into the run.
    #[test]
    fn zero_plan_seed_is_inert(plan_seed in 0u64..10_000) {
        let config = live_config(42, 4, 6);
        let baseline = frozen::run_experiment(&config).unwrap();
        let plan = FaultPlan { seed: plan_seed, ..FaultPlan::none() };
        let (resilient, _) = run_experiment(&config, &plan).unwrap();
        prop_assert_eq!(baseline, resilient);
    }
}

fn small_live() -> ExperimentConfig {
    ExperimentConfig {
        machines: 6,
        streams: 1,
        window: 0.5 * 86_400.0,
        ..ExperimentConfig::campus()
    }
}

#[test]
fn zero_fault_live_run_is_bitwise_identical() {
    let config = small_live();
    let classic = frozen::run_experiment(&config).unwrap();
    let (resilient, report) = run_experiment(&config, &FaultPlan::none()).unwrap();
    assert_eq!(classic, resilient);
    assert_eq!(report, FaultReport::default());
}

#[test]
fn natural_fit_failures_degrade_in_the_live_driver() {
    // A Weibull ground truth with an astronomically large shape samples
    // exactly its scale, so every machine records identical durations
    // and defeats the Weibull MLE. The driver plans them on the
    // exponential fallback, counted once per machine it places, and the
    // oracle, which resolves the same chain, agrees bitwise.
    let config = ExperimentConfig {
        pool: chs_trace::synthetic::PoolConfig {
            weibull_fraction: 1.0,
            bimodal_fraction: 0.0,
            diurnal_fraction: 0.0,
            shape_range: (1e18, 1e18),
            scale_log_sigma: 0.0,
            ..chs_trace::synthetic::PoolConfig::default()
        },
        ..small_live()
    };
    let is_weibull = |r: &&RunRecord| r.model == ModelKind::Weibull;
    let (result, report) = run_experiment(&config, &FaultPlan::none()).unwrap();
    assert_eq!(frozen::run_experiment(&config).unwrap(), result);
    let weibull_runs: Vec<_> = result.runs.iter().filter(is_weibull).collect();
    assert!(!weibull_runs.is_empty());
    let mut placed: Vec<_> = weibull_runs.iter().map(|r| r.machine).collect();
    placed.sort();
    placed.dedup();
    assert_eq!(report.fallback_exponential, placed.len() as u64);
    assert_eq!(report.fallback_fixed, 0);
}
