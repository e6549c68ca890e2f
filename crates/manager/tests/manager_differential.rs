//! Differential suite for the manager server's own invariants: a
//! zero-fault run reports nothing, the bootstrap thread count never
//! changes a run (the digest gate), and the weighted lanes favor
//! recovery. The comparison against the frozen classic event loop lives
//! in the root `tests/contention_differential.rs`.

use chs_dist::ModelKind;
use chs_manager::{run_manager, ManagerConfig};
use chs_net::FaultPlan;

#[test]
fn zero_fault_run_has_empty_report_and_dlq() {
    let config = ManagerConfig::campus(4, ModelKind::Exponential);
    let outcome = run_manager(&config, &FaultPlan::none()).unwrap();
    assert_eq!(outcome.report.faults.total_faults(), 0);
    assert_eq!(outcome.report.faults.retries, 0);
    assert_eq!(outcome.report.faults.checkpoints_abandoned, 0);
    assert_eq!(outcome.report.deferred_checkpoints, 0);
    assert!(outcome.dlq.is_empty());
    assert_eq!(outcome.dlq.enqueued, 0);
    assert_eq!(outcome.result.cycle.faults_injected, 0);
}

#[test]
fn bootstrap_thread_count_never_changes_the_run() {
    let plan = FaultPlan {
        seed: 1_234,
        p_stall: 0.08,
        p_drop: 0.08,
        p_corrupt: 0.05,
        p_unavailable: 0.05,
        p_fit_failure: 0.3,
        ..FaultPlan::none()
    };
    let mut config = ManagerConfig::campus(9, ModelKind::Exponential);
    config.window = 2.0 * 86_400.0;
    config.prefetch_probability = 0.4;

    config.threads = 1;
    let one = run_manager(&config, &plan).unwrap();
    config.threads = 4;
    let four = run_manager(&config, &plan).unwrap();
    config.threads = 0; // one per core
    let auto = run_manager(&config, &plan).unwrap();

    assert_eq!(one.result.digest, four.result.digest);
    assert_eq!(one.result.digest, auto.result.digest);
    assert_eq!(one, four);
    assert_eq!(one, auto);
}

#[test]
fn recovery_lane_outranks_checkpoint_lane() {
    // Saturate the link and check the weighted shares show up in the
    // lane busy-time split: with recovery 4× checkpoint weight, the
    // recovery lane must never be starved below its uniform share.
    let mut config = ManagerConfig::campus(12, ModelKind::Exponential);
    config.window = 2.0 * 86_400.0;
    config.link_mb_per_s /= 4.0; // force sustained contention
    let weighted = run_manager(&config, &FaultPlan::none()).unwrap();
    assert!(weighted.result.recovery_busy_seconds > 0.0);
    assert!(weighted.result.checkpoint_busy_seconds > 0.0);

    // Same physics under uniform weights: recovery completions (the
    // prioritized lane's throughput) must not get *worse* when its
    // weight quadruples.
    let mut uniform = config.clone();
    uniform.weights = chs_net::LaneWeights::uniform();
    let flat = run_manager(&uniform, &FaultPlan::none()).unwrap();
    assert!(
        weighted.result.cycle.recoveries_completed >= flat.result.cycle.recoveries_completed,
        "weighted {} < uniform {}",
        weighted.result.cycle.recoveries_completed,
        flat.result.cycle.recoveries_completed
    );
}
