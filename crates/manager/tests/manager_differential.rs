//! Differential suite for the manager server's own invariants: a
//! zero-fault run reports nothing, the bootstrap thread count never
//! changes a run (the digest gate), and the weighted lanes favor
//! recovery. The comparison against the frozen classic event loop lives
//! in the root `tests/contention_differential.rs`.

use chs_dist::ModelKind;
use chs_manager::{run_manager, ManagerConfig, ManagerResult};
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
    // Saturate the link and compare weighted lanes (recovery 4× the
    // checkpoint weight) with uniform ones under the same physics, over
    // sixteen seeds. The direct effect of the weight is that each
    // completed recovery holds its lane for less time, on every seed.
    // How many recoveries complete is a knock-on effect: on one seed it
    // can go either way (a change of the planned intervals below 1e-6
    // relative flips seed 2005 alone), so that count is asserted summed
    // over the seeds.
    let (mut weighted_total, mut flat_total) = (0, 0);
    for seed in 2_005..=2_020 {
        let mut config = ManagerConfig::campus(12, ModelKind::Exponential);
        config.window = 2.0 * 86_400.0;
        config.link_mb_per_s /= 4.0; // force sustained contention
        config.seed = seed;
        let weighted = run_manager(&config, &FaultPlan::none()).unwrap().result;
        assert!(weighted.recovery_busy_seconds > 0.0);
        assert!(weighted.checkpoint_busy_seconds > 0.0);

        let mut uniform = config.clone();
        uniform.weights = chs_net::LaneWeights::uniform();
        let flat = run_manager(&uniform, &FaultPlan::none()).unwrap().result;

        let per_recovery =
            |r: &ManagerResult| r.recovery_busy_seconds / r.cycle.recoveries_completed as f64;
        assert!(
            per_recovery(&weighted) < per_recovery(&flat),
            "seed {seed}: {:.1} s per weighted recovery vs {:.1} s uniform",
            per_recovery(&weighted),
            per_recovery(&flat)
        );
        weighted_total += weighted.cycle.recoveries_completed;
        flat_total += flat.cycle.recoveries_completed;
    }
    assert!(
        weighted_total >= flat_total,
        "weighted {weighted_total} < uniform {flat_total} recoveries over 16 seeds"
    );
}

#[test]
fn natural_fit_failures_degrade_instead_of_aborting() {
    // A Weibull ground truth with an astronomically large shape samples
    // exactly its scale, so every client records identical durations:
    // the Weibull MLE fails on each, and each client plans on the
    // exponential fallback instead of aborting the run.
    let config = ManagerConfig {
        pool: chs_trace::synthetic::PoolConfig {
            weibull_fraction: 1.0,
            bimodal_fraction: 0.0,
            diurnal_fraction: 0.0,
            shape_range: (1e18, 1e18),
            scale_log_sigma: 0.0,
            ..chs_trace::synthetic::PoolConfig::default()
        },
        ..ManagerConfig::campus(4, ModelKind::Weibull)
    };
    let outcome = run_manager(&config, &FaultPlan::none()).unwrap();
    assert_eq!(outcome.report.faults.fallback_exponential, 4);
    assert_eq!(outcome.report.faults.fallback_fixed, 0);
    assert!(outcome.result.cycle.useful_seconds > 0.0);
}
