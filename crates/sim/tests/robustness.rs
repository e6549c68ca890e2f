//! Schedule quality under a mis-scaled training history: a policy fitted
//! to wrongly scaled durations and simulated on the true trace must
//! degrade gracefully, not collapse.

use chs_markov::CheckpointCosts;
use chs_trace::synthetic::known_weibull_trace;

#[test]
fn robustness_schedule_quality_degrades_gracefully() {
    // End-to-end robustness check: train on a *mis-scaled* history
    // (2x optimistic), simulate on the true trace, compare against
    // training on the truthful history. Quality must drop, but by a
    // bounded amount (no collapse).
    let t = known_weibull_trace(0.43, 3_409.0, 500, 9);
    let (train, test) = t.split(100).unwrap();
    let c = 250.0;
    let config = chs_sim::SimConfig::paper(c);
    let max_age = test.iter().cloned().fold(0.0f64, f64::max);

    let honest = chs_dist::fit::fit_weibull(&train).unwrap();
    let honest_policy = chs_sim::CachedPolicy::new(
        chs_dist::FittedModel::Weibull(honest),
        CheckpointCosts::symmetric(c),
        max_age,
    );
    let honest_eff = chs_sim::simulate_trace(&test, &honest_policy, &config)
        .unwrap()
        .efficiency();

    let eff_with_scale = |factor: f64| {
        let scaled_train: Vec<f64> = train.iter().map(|d| d * factor).collect();
        let fit = chs_dist::fit::fit_weibull(&scaled_train).unwrap();
        let policy = chs_sim::CachedPolicy::new(
            chs_dist::FittedModel::Weibull(fit),
            CheckpointCosts::symmetric(c),
            max_age,
        );
        chs_sim::simulate_trace(&test, &policy, &config)
            .unwrap()
            .efficiency()
    };

    // A 2x scale error barely matters — Γ/T is flat near its minimum
    // (graceful degradation, in either direction on one realization).
    let mild = eff_with_scale(2.0);
    assert!(
        (mild - honest_eff).abs() < 0.10,
        "2x scale error should move efficiency < 0.10: {honest_eff} -> {mild}"
    );
    // A 50x *pessimistic* error forces near-continuous checkpointing
    // and must hurt badly — the degradation is real, just gradual.
    let gross = eff_with_scale(1.0 / 50.0);
    assert!(
        gross < honest_eff - 0.10,
        "50x pessimistic error should cost > 0.10: {honest_eff} -> {gross}"
    );
}
