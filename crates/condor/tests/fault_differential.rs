//! Differential gate for the resilient live driver (in the style of
//! `chs-sim/tests/frozen_engine.rs`): under a **zero-fault plan** the
//! fault-aware driver must reproduce the classic frozen driver
//! **bitwise** — `PartialEq` over every `f64` field, no tolerances —
//! across random seeds, pool sizes, and windows. The fault layer earns
//! its place only if it is invisible when no fault is injected. (The
//! shared-link manager is checked against its frozen classic loop in the
//! root `tests/contention_differential.rs`.)

use chs_condor::{run_experiment, run_experiment_with_faults, ExperimentConfig, FaultReport};
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
        let classic = run_experiment(&config).unwrap();
        let (resilient, report) =
            run_experiment_with_faults(&config, &FaultPlan::none()).unwrap();
        prop_assert_eq!(classic, resilient);
        prop_assert_eq!(report, FaultReport::default());
    }

    /// A plan whose probabilities are all zero but whose seed varies is
    /// still a zero plan: the seed must never leak into the run.
    #[test]
    fn zero_plan_seed_is_inert(plan_seed in 0u64..10_000) {
        let config = live_config(42, 4, 6);
        let baseline = run_experiment(&config).unwrap();
        let plan = FaultPlan { seed: plan_seed, ..FaultPlan::none() };
        let (resilient, _) = run_experiment_with_faults(&config, &plan).unwrap();
        prop_assert_eq!(baseline, resilient);
    }
}
