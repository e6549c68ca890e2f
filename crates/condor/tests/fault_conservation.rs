//! Conservation properties of the live driver under **random
//! fault plans**: whatever the injected fault mix, every ledger must
//! balance its books — time (`useful + lost + recovery + checkpoint =
//! total`) and bytes (`megabytes = full + partial + wasted`) — and the
//! run's [`FaultReport`] must agree exactly with the per-run ledgers.

use chs_condor::{run_experiment, ExperimentConfig, FaultReport};
use chs_cycle::CycleAccounting;
use chs_net::FaultPlan;
use proptest::prelude::*;

/// A random fault plan: independent per-kind probabilities (each < 0.25
/// so their sum stays ≤ 1) plus a fit-failure rate and a seed.
fn plan_from(stall: f64, drop: f64, corrupt: f64, unavail: f64, fit: f64, seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        p_stall: stall,
        p_drop: drop,
        p_corrupt: corrupt,
        p_unavailable: unavail,
        p_fit_failure: fit,
        ..FaultPlan::none()
    }
}

/// Cross-check one aggregated ledger against the run's fault report.
/// Every stall/drop/corruption is retried-or-abandoned, unavailability
/// waits are faults but not retries, and abandonment is bounded by the
/// checkpoint attempt count.
fn check_ledger_vs_report(
    total: &CycleAccounting,
    report: &FaultReport,
) -> std::result::Result<(), TestCaseError> {
    prop_assert!(total.conservation_residual().abs() < 1e-6 * total.total_seconds.max(1.0));
    prop_assert!(total.byte_conservation_residual().abs() < 1e-6 * total.megabytes.max(1.0));
    prop_assert_eq!(total.faults_injected, report.total_faults());
    prop_assert_eq!(
        total.transfer_retries,
        report.stalls + report.drops + report.corruptions
    );
    prop_assert_eq!(
        total.transfer_retries,
        report.retries + report.checkpoints_abandoned
    );
    prop_assert_eq!(total.checkpoints_abandoned, report.checkpoints_abandoned);
    prop_assert_eq!(report.timeouts, report.stalls);
    prop_assert!(total.wasted_megabytes >= 0.0);
    prop_assert!(total.lost_work_seconds >= 0.0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Live runs conserve time and bytes under any fault plan, run by
    /// run and in aggregate, and the report matches the ledgers.
    #[test]
    fn live_runs_conserve_under_faults(
        stall in 0.0f64..0.25, drop in 0.0f64..0.25, corrupt in 0.0f64..0.25,
        unavail in 0.0f64..0.25, fit in 0.0f64..1.0, plan_seed in 0u64..1_000_000,
        seed in 0u64..2_000,
    ) {
        let plan = plan_from(stall, drop, corrupt, unavail, fit, plan_seed);
        let mut config = ExperimentConfig::campus();
        config.machines = 5;
        config.streams = 1;
        config.window = 6.0 * 3_600.0;
        config.seed = seed;

        let (result, report) = run_experiment(&config, &plan).unwrap();
        let mut total = CycleAccounting::default();
        for run in &result.runs {
            prop_assert!(
                run.cycle.conservation_residual().abs()
                    < 1e-6 * run.cycle.total_seconds.max(1.0),
                "time leak on one run: {}", run.cycle.conservation_residual()
            );
            prop_assert!(
                run.cycle.byte_conservation_residual().abs()
                    < 1e-6 * run.cycle.megabytes.max(1.0),
                "byte leak on one run: {}", run.cycle.byte_conservation_residual()
            );
            // Transfer records and ledger agree: every delivered byte is
            // recorded once per attempt and enters the ledger once —
            // at a waste event (corrupted re-send, abandonment) or at a
            // completion/interruption. The sums must match.
            let recorded: f64 = run.transfers.iter().map(|t| t.megabytes).sum();
            prop_assert!(
                (recorded - run.cycle.megabytes).abs()
                    < 1e-6 * run.cycle.megabytes.max(1.0),
                "records {} vs ledger {} (wasted {})",
                recorded, run.cycle.megabytes, run.cycle.wasted_megabytes
            );
            total.absorb(&run.cycle);
        }
        check_ledger_vs_report(&total, &report)?;
    }
}
