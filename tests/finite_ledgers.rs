//! No NaN in any ledger: the batch simulator, the live driver and the
//! manager, run on configurations at the edge of what `validate` accepts
//! (zero checkpoint and recovery costs, a zero-megabyte or subnormal
//! image, subnormal costs and backoffs, zero waits), report only finite
//! numbers in every `CycleAccounting`, `FaultReport`, `ManagerReport`
//! and result field.

use chs_condor::{run_experiment, ExperimentConfig};
use chs_dist::fit::fit_model;
use chs_dist::ModelKind;
use chs_manager::{run_manager, ManagerConfig};
use chs_markov::CheckpointCosts;
use chs_net::{FaultPlan, RetryPolicy};
use chs_sim::{simulate_trace, FixedIntervalPolicy, ModelPolicy, SimConfig};
use serde::Serialize;

/// The smallest positive `f64` (a subnormal).
const TINY: f64 = 5e-324;

/// Every number in `value`'s serialized form is finite. JSON has no
/// NaN or infinity, so the serializer writes them as `null`; none of the
/// checked types has an optional field, so any `null` is one.
fn assert_finite(what: &str, value: &impl Serialize) {
    let json = serde_json::to_string(value).expect("serializable");
    if let Some(at) = json.find("null") {
        let from = json[..at]
            .rfind('"')
            .and_then(|q| json[..q].rfind('"'))
            .unwrap_or(0);
        panic!("{what}: non-finite field at {}", &json[from..at + 4]);
    }
}

/// Retry policies with zero and subnormal waits.
fn edge_retry_policies() -> [RetryPolicy; 2] {
    [
        RetryPolicy {
            max_retries: 2,
            backoff_base: 0.0,
            backoff_factor: 1.0,
            backoff_jitter: 1.0,
            timeout_factor: 1.5,
            max_backoff: 0.0,
        },
        RetryPolicy {
            max_retries: 1,
            backoff_base: TINY,
            backoff_factor: 2.0,
            backoff_jitter: 0.0,
            timeout_factor: 2.0,
            max_backoff: TINY,
        },
    ]
}

/// Fault plans with zero and subnormal waits and delivered fractions.
fn edge_fault_plans() -> [FaultPlan; 3] {
    [
        FaultPlan::none(),
        FaultPlan {
            unavailable_wait: 0.0,
            stall_fraction: 0.0,
            drop_fraction: 0.0,
            ..FaultPlan::uniform(0.4, 11)
        },
        FaultPlan {
            unavailable_wait: TINY,
            stall_fraction: TINY,
            drop_fraction: 1.0,
            ..FaultPlan::uniform(0.2, 12)
        },
    ]
}

#[test]
fn batch_simulator_ledgers_stay_finite() {
    let durations: Vec<f64> = (0..60)
        .map(|i| match i % 6 {
            0 => TINY,
            1 => 1e-3,
            _ => (i as f64 * 977.3) % 40_000.0 + 1.0,
        })
        .collect();
    let fit = fit_model(ModelKind::Weibull, &durations[6..31]).expect("fit");
    for (checkpoint, recovery, image_mb) in [
        (0.0, 0.0, 500.0),
        (50.0, 50.0, 0.0),
        (0.0, 0.0, 0.0),
        (TINY, TINY, 500.0),
        (110.0, TINY, TINY),
        (110.0, 0.0, 0.0),
        (TINY, 0.0, 0.0),
    ] {
        for count_recovery_bytes in [false, true] {
            let config = SimConfig {
                checkpoint_cost: checkpoint,
                recovery_cost: recovery,
                image_mb,
                count_recovery_bytes,
            };
            let what = format!("simulate_trace C={checkpoint:e} R={recovery:e} image={image_mb:e}");
            let fixed = FixedIntervalPolicy { interval: 600.0 };
            let r = simulate_trace(&durations, &fixed, &config).expect("legal config");
            assert_finite(&what, &r);
            assert!(r.efficiency().is_finite() && r.megabytes_per_hour().is_finite());
            // Below C = 1 s the model plans 1 s intervals, each from an
            // exact search of about a millisecond, so the 40,000 s
            // segments would take minutes; the fixed interval covers
            // the small costs.
            if checkpoint >= 1.0 {
                let costs = CheckpointCosts::new(checkpoint, recovery);
                let model = ModelPolicy::new(fit.clone(), costs);
                let r = simulate_trace(&durations, &model, &config).expect("legal config");
                assert_finite(&what, &r);
                assert!(r.efficiency().is_finite() && r.megabytes_per_hour().is_finite());
            }
        }
    }
}

#[test]
fn live_driver_ledgers_stay_finite() {
    for retry in edge_retry_policies() {
        for plan in edge_fault_plans() {
            for image_mb in [TINY, 500.0] {
                let mut config = ExperimentConfig::campus();
                config.machines = 3;
                config.streams = 1;
                config.window = 4.0 * 3_600.0;
                config.image_mb = image_mb;
                config.retry = retry;
                let (result, report) = run_experiment(&config, &plan).expect("legal config");
                assert!(!result.runs.is_empty());
                let what = format!("run_experiment image={image_mb:e} {retry:?} {plan:?}");
                assert_finite(&what, &result);
                assert_finite(&what, &report);
            }
        }
    }
}

#[test]
fn manager_reports_stay_finite() {
    for retry in edge_retry_policies() {
        for plan in edge_fault_plans() {
            for image_mb in [TINY, 500.0] {
                let mut config = ManagerConfig::campus(4, ModelKind::Exponential);
                config.window = 6.0 * 3_600.0;
                config.image_mb = image_mb;
                config.retry = retry;
                config.prefetch_probability = 0.5;
                let outcome = run_manager(&config, &plan).expect("legal config");
                assert!(outcome.result.transfers_started > 0);
                let what = format!("run_manager image={image_mb:e} {retry:?} {plan:?}");
                assert_finite(&what, &outcome.result);
                assert_finite(&what, &outcome.report);
                assert_finite(&what, &outcome.dlq);
                assert!(outcome.result.efficiency().is_finite());
            }
        }
    }
}
