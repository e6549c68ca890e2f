//! Conservation gates for the manager server: time and byte books
//! balance under any fault mix, the dead-letter queue reconciles
//! exactly (tracked ⇒ enqueued ⇒ replayed or explicitly abandoned),
//! and the crash → DLQ → replay chain conserves bytes end to end.

use chs_condor::FaultReport;
use chs_cycle::{CycleAccounting, CycleObserver};
use chs_dist::ModelKind;
use chs_manager::{
    replay_dead_letters, replay_dead_letters_observed, run_manager, run_manager_observed,
    ManagerConfig, ReplayConfig,
};
use chs_net::FaultPlan;
use proptest::prelude::*;

fn faulty_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        p_stall: 0.12,
        p_drop: 0.12,
        p_corrupt: 0.08,
        p_unavailable: 0.06,
        p_fit_failure: 0.2,
        ..FaultPlan::none()
    }
}

fn stressed_config(clients: usize, seed: u64) -> ManagerConfig {
    let mut config = ManagerConfig::campus(clients, ModelKind::Exponential);
    config.window = 2.0 * 86_400.0;
    config.seed = seed;
    config.retry.max_retries = 2; // exhaust budgets often → deep DLQ
    config
}

#[test]
fn faulted_runs_balance_time_and_bytes() {
    for seed in [11, 501, 2_005] {
        let config = stressed_config(8, seed);
        let outcome = run_manager(&config, &faulty_plan(seed ^ 0xF00D)).unwrap();
        let total = &outcome.result.cycle;
        assert!(
            total.conservation_residual().abs() < 1e-6 * total.total_seconds.max(1.0),
            "time leak at seed {seed}: {}",
            total.conservation_residual()
        );
        assert!(
            total.byte_conservation_residual().abs() < 1e-6 * total.megabytes.max(1.0),
            "byte leak at seed {seed}: {}",
            total.byte_conservation_residual()
        );
        let report = &outcome.report.faults;
        assert_eq!(total.faults_injected, report.total_faults());
        assert_eq!(
            total.transfer_retries,
            report.stalls + report.drops + report.corruptions
        );
        assert_eq!(
            total.transfer_retries,
            report.retries + report.checkpoints_abandoned
        );
        assert_eq!(report.timeouts, report.stalls);
    }
}

#[test]
fn ledger_dlq_and_report_reconcile_exactly() {
    let config = stressed_config(10, 99);
    let outcome = run_manager(&config, &faulty_plan(31_337)).unwrap();

    // Every retry-exhausted checkpoint was *enqueued*, never just
    // counted: the fault report's abandonment count IS the DLQ inflow.
    assert_eq!(
        outcome.dlq.enqueued,
        outcome.report.faults.checkpoints_abandoned
    );
    assert_eq!(outcome.dlq.enqueued as usize, outcome.dlq.len());
    // The client ledgers' abandonments split exactly into
    // retry-exhausted (dead-lettered) and admission-deferred.
    assert_eq!(
        outcome.result.cycle.checkpoints_abandoned,
        outcome.report.faults.checkpoints_abandoned + outcome.report.deferred_checkpoints
    );
    assert!(
        outcome.dlq.enqueued > 0,
        "stress profile produced no dead letters; weaken the retry budget"
    );
    for letter in outcome.dlq.iter() {
        assert!(letter.validate().is_ok());
        assert!((letter.client as usize) < config.clients);
        assert!(letter.remaining_mb() > 0.0);
        assert!(letter.attempts > config.retry.max_retries);
    }
}

#[test]
fn admission_defers_are_lost_work_not_lost_bytes() {
    let mut config = stressed_config(14, 7);
    config.link_mb_per_s /= 6.0; // overload → watermark crossings
    let outcome = run_manager(&config, &FaultPlan::none()).unwrap();
    assert!(
        outcome.report.deferred_checkpoints > 0,
        "overloaded link never crossed the admission watermark"
    );
    // Deferred checkpoints moved no bytes, so the zero-fault byte books
    // stay exact and nothing is wasted on the wire.
    let total = &outcome.result.cycle;
    assert_eq!(total.wasted_megabytes, 0.0);
    assert_eq!(
        total.checkpoints_abandoned,
        outcome.report.deferred_checkpoints
    );
    assert!(total.lost_work_seconds > 0.0);
    assert!(total.conservation_residual().abs() < 1e-6 * total.total_seconds.max(1.0));
    assert!(outcome.dlq.is_empty());
}

#[test]
fn crash_dlq_replay_chain_conserves_bytes() {
    let config = stressed_config(10, 404);
    let mut outcome = run_manager(&config, &faulty_plan(8_080)).unwrap();
    assert!(outcome.dlq.enqueued > 0);
    let owed: f64 = outcome.dlq.iter().map(|l| l.remaining_mb()).sum();

    let replay_config = ReplayConfig {
        link_mb_per_s: config.link_mb_per_s,
        max_in_flight: 3,
        retry: config.retry,
        image_mb: config.image_mb,
    };
    // Replay under its own (milder) weather.
    let replay_plan = FaultPlan {
        seed: 5,
        p_drop: 0.1,
        p_corrupt: 0.05,
        ..FaultPlan::none()
    };
    let report = replay_dead_letters(&mut outcome.dlq, &replay_config, &replay_plan).unwrap();

    // Every enqueued letter ended replayed or explicitly abandoned.
    assert_eq!(report.popped, outcome.dlq.enqueued);
    assert_eq!(report.replayed + report.abandoned, outcome.dlq.enqueued);
    assert_eq!(outcome.dlq.reconciliation_residual(), 0);
    assert!(outcome.dlq.is_empty());
    // Byte books: what was owed splits into delivered and abandoned,
    // and the wire carried delivered + wasted.
    assert!(
        (report.replayed_mb + report.abandoned_mb - owed).abs() < 1e-6 * owed.max(1.0),
        "owed {owed} vs replayed {} + abandoned {}",
        report.replayed_mb,
        report.abandoned_mb
    );
    assert!(report.conservation_residual().abs() < 1e-5 * report.wire_mb.max(1.0));
    assert!(report.wire_mb <= replay_config.link_mb_per_s * report.elapsed_seconds * (1.0 + 1e-9));
}

#[test]
fn zero_fault_replay_always_drains() {
    let config = stressed_config(10, 404);
    let mut outcome = run_manager(&config, &faulty_plan(8_080)).unwrap();
    assert!(outcome.dlq.enqueued > 0);
    let report = replay_dead_letters(
        &mut outcome.dlq,
        &ReplayConfig::campus(),
        &FaultPlan::none(),
    )
    .unwrap();
    assert_eq!(report.abandoned, 0);
    assert_eq!(report.final_depth, 0);
    assert_eq!(report.replayed, outcome.dlq.enqueued);
    assert_eq!(outcome.dlq.reconciliation_residual(), 0);
}

/// Counts manager-level policy events as they stream past.
#[derive(Default)]
struct PolicyTap {
    deferred: u64,
    enqueued: u64,
    replayed: u64,
}

impl CycleObserver for PolicyTap {
    fn on_checkpoint_deferred(&mut self, _at: f64, forecast: f64, lost_work: f64) {
        assert!(forecast.is_finite() && forecast > 0.0);
        assert!(lost_work >= 0.0);
        self.deferred += 1;
    }
    fn on_dead_letter_enqueued(&mut self, _at: f64, attempts: u32, remaining_mb: f64) {
        assert!(attempts > 0);
        assert!(remaining_mb > 0.0);
        self.enqueued += 1;
    }
    fn on_dead_letter_replayed(&mut self, _at: f64, replayed_mb: f64) {
        assert!(replayed_mb >= 0.0);
        self.replayed += 1;
    }
}

#[test]
fn observer_sees_every_policy_event() {
    let mut config = stressed_config(12, 55);
    config.link_mb_per_s /= 4.0;
    let mut tap = PolicyTap::default();
    let mut outcome = run_manager_observed(&config, &faulty_plan(616), &mut tap).unwrap();
    assert_eq!(tap.deferred, outcome.report.deferred_checkpoints);
    assert_eq!(tap.enqueued, outcome.dlq.enqueued);
    assert_eq!(tap.replayed, 0);

    let popped = outcome.dlq.enqueued;
    replay_dead_letters_observed(
        &mut outcome.dlq,
        &ReplayConfig::campus(),
        &FaultPlan::none(),
        &mut tap,
    )
    .unwrap();
    assert_eq!(tap.replayed, popped);
}

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

    /// Contention runs conserve time and bytes under any fault plan, and
    /// the report matches the aggregate ledger.
    #[test]
    fn contention_runs_conserve_under_faults(
        stall in 0.0f64..0.25, drop in 0.0f64..0.25, corrupt in 0.0f64..0.25,
        unavail in 0.0f64..0.25, fit in 0.0f64..1.0, plan_seed in 0u64..1_000_000,
        seed in 0u64..2_000,
    ) {
        let plan = plan_from(stall, drop, corrupt, unavail, fit, plan_seed);
        let mut config = ManagerConfig::classic(4, ModelKind::Exponential);
        config.window = 12.0 * 3_600.0;
        config.seed = seed;

        let outcome = run_manager(&config, &plan).unwrap();
        let result = &outcome.result;
        check_ledger_vs_report(&result.cycle, &outcome.report.faults)?;
        // The headline fields mirror the embedded ledger.
        prop_assert_eq!(result.useful_seconds, result.cycle.useful_seconds);
        prop_assert_eq!(result.megabytes, result.cycle.megabytes);
        prop_assert!(result.useful_seconds <= result.occupied_seconds + 1e-9);
    }
}
