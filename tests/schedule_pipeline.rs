//! Integration test of the production path: record history → persist →
//! reload → fit → schedule, plus determinism and cost-update behaviour.

use cycle_harvest::dist::fit::fit_model;
use cycle_harvest::dist::{FittedModel, ModelKind};
use cycle_harvest::markov::{CheckpointCosts, Schedule, VaidyaModel};
use cycle_harvest::net::forecast::Forecaster;
use cycle_harvest::net::AdaptiveForecaster;
use cycle_harvest::trace::io::{pool_from_json, pool_to_json};
use cycle_harvest::trace::synthetic::{generate_pool, PoolConfig};
use cycle_harvest::trace::{AvailabilityTrace, MachineId, MachinePool, Observation};

/// The scheduler's interval bounds: 1 s to 30 days.
fn vaidya(fit: &FittedModel, checkpoint: f64, recovery: f64) -> VaidyaModel<'_> {
    VaidyaModel::new(fit, CheckpointCosts::new(checkpoint, recovery))
        .and_then(|v| v.with_bounds(1.0, 30.0 * 86_400.0))
        .unwrap()
}

/// The first work interval for a machine of `age` under `fit` at the
/// campus path's 110 s checkpoint and recovery costs.
fn first_interval(fit: &FittedModel, age: f64) -> f64 {
    vaidya(fit, 110.0, 110.0)
        .optimal_interval(age)
        .unwrap()
        .work_seconds
}

#[test]
fn record_persist_reload_schedule() {
    // Record a pool's observations.
    let pool = generate_pool(&PoolConfig::small(4, 80, 33)).as_machine_pool();

    // Persist and reload through JSON.
    let json = pool_to_json(&pool).unwrap();
    let reloaded = pool_from_json(&json).unwrap();

    // Fit + schedule from both copies must agree exactly.
    let machine = pool.traces()[0].machine;
    let fit = |p: &MachinePool| {
        fit_model(ModelKind::Weibull, &p.get(machine).unwrap().durations()).unwrap()
    };
    let t1 = first_interval(&fit(&pool), 300.0);
    let t2 = first_interval(&fit(&reloaded), 300.0);
    assert_eq!(t1, t2, "persistence must not perturb schedules");
}

#[test]
fn scheduler_serde_preserves_schedules() {
    let pool = generate_pool(&PoolConfig::small(1, 120, 44)).as_machine_pool();
    let durations = pool.traces()[0].durations();
    let s = fit_model(ModelKind::HyperExponential { phases: 2 }, &durations).unwrap();
    let json = serde_json::to_string(&s).unwrap();
    let back: FittedModel = serde_json::from_str(&json).unwrap();
    let a = Schedule::compute(&vaidya(&s, 110.0, 110.0), 0.0, 50_000.0, 8).unwrap();
    let b = Schedule::compute(&vaidya(&back, 110.0, 110.0), 0.0, 50_000.0, 8).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.entries().iter().zip(b.entries()) {
        assert!((x.interval.work_seconds - y.interval.work_seconds).abs() < 1e-9);
    }
}

#[test]
fn estimator_feeds_scheduler() {
    // Live loop: measure transfers, forecast the next cost, observe the
    // interval respond. No recovery is measured, so the recovery cost
    // mirrors the checkpoint forecast (the paper's symmetric path).
    let pool = generate_pool(&PoolConfig::small(1, 100, 55)).as_machine_pool();
    let durations = pool.traces()[0].durations();
    let fit = fit_model(ModelKind::Weibull, &durations).unwrap();

    let mut forecaster = AdaptiveForecaster::standard();
    for c in [100.0, 115.0, 108.0, 112.0] {
        forecaster.update(c);
    }
    let cost = forecaster.predict().unwrap();
    let campus_t = vaidya(&fit, cost, cost)
        .optimal_interval(0.0)
        .unwrap()
        .work_seconds;

    // Path degrades to wide-area speeds.
    for c in [480.0, 470.0, 465.0, 490.0, 475.0, 471.0, 484.0] {
        forecaster.update(c);
    }
    let cost = forecaster.predict().unwrap();
    let wan_t = vaidya(&fit, cost, cost)
        .optimal_interval(0.0)
        .unwrap()
        .work_seconds;

    assert!(
        wan_t > campus_t,
        "wide-area costs should lengthen intervals: {campus_t} vs {wan_t}"
    );
}

#[test]
fn store_accumulates_across_sessions() {
    // Two monitoring sessions record into one machine's history.
    let m = MachineId(5);
    let record = |range: std::ops::Range<i32>| -> Vec<Observation> {
        range
            .map(|i| Observation {
                start: f64::from(i) * 10_000.0,
                duration: 500.0 + 100.0 * f64::from(i % 7),
            })
            .collect()
    };
    let mut history = record(0..12);
    history.extend(record(12..30));
    let pool = MachinePool::new(vec![AvailabilityTrace::new(m, history).unwrap()]);
    assert_eq!(pool.get(m).unwrap().len(), 30);
    let fit = fit_model(ModelKind::Exponential, &pool.get(m).unwrap().durations()).unwrap();
    assert!(first_interval(&fit, 0.0) > 0.0);
}
