//! Cross-validation of the analytic steady-state predictor against the
//! trace simulator: on traces drawn from the *same* distribution the
//! schedule was computed from, the renewal-reward prediction and the
//! discrete-event simulation must agree on both efficiency and network
//! load.

use cycle_harvest::dist::{AvailabilityModel, Exponential, FittedModel, Weibull};
use cycle_harvest::markov::{predict_steady_state, CheckpointCosts, VaidyaModel};
use cycle_harvest::sim::{simulate_trace, CachedPolicy, SimConfig};
use rand::SeedableRng;

fn cross_validate(dist: &dyn AvailabilityModel, fit: FittedModel, c: f64, seed: u64) {
    let costs = CheckpointCosts::symmetric(c);
    let vaidya = VaidyaModel::new(&fit, costs).unwrap();
    let predicted = predict_steady_state(&vaidya, &fit, 500.0).unwrap();

    // Simulate on 40k segments drawn from the same distribution.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let durations: Vec<f64> = (0..40_000)
        .map(|_| dist.sample(&mut rng).max(1e-3))
        .collect();
    let max_age = durations.iter().cloned().fold(0.0f64, f64::max);
    let policy = CachedPolicy::new(fit, costs, max_age);
    let sim = simulate_trace(&durations, &policy, &SimConfig::paper(c)).unwrap();

    let eff_err = (predicted.efficiency - sim.efficiency()).abs();
    assert!(
        eff_err < 0.03,
        "efficiency: predicted {:.4} vs simulated {:.4}",
        predicted.efficiency,
        sim.efficiency()
    );

    let sim_mb_per_hour = sim.megabytes_per_hour();
    let mb_rel = (predicted.megabytes_per_hour - sim_mb_per_hour).abs() / sim_mb_per_hour;
    assert!(
        mb_rel < 0.08,
        "MB/h: predicted {:.1} vs simulated {:.1} (rel {mb_rel:.3})",
        predicted.megabytes_per_hour,
        sim_mb_per_hour
    );
}

#[test]
fn prediction_matches_simulation_exponential() {
    let d = Exponential::from_mean(3_600.0).unwrap();
    cross_validate(&d, FittedModel::Exponential(d), 110.0, 1);
}

#[test]
fn prediction_matches_simulation_exponential_large_c() {
    let d = Exponential::from_mean(3_600.0).unwrap();
    cross_validate(&d, FittedModel::Exponential(d), 750.0, 2);
}

#[test]
fn prediction_matches_simulation_weibull() {
    let d = Weibull::paper_exemplar();
    cross_validate(&d, FittedModel::Weibull(d), 110.0, 3);
}

#[test]
fn prediction_matches_simulation_weibull_large_c() {
    let d = Weibull::paper_exemplar();
    cross_validate(&d, FittedModel::Weibull(d), 500.0, 4);
}

#[test]
fn prediction_matches_simulation_hyperexp() {
    let d =
        cycle_harvest::dist::HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)])
            .unwrap();
    cross_validate(&d, FittedModel::HyperExponential(d.clone()), 250.0, 5);
}

#[test]
fn prediction_reproduces_table3_ordering_analytically() {
    // The paper's headline — exponential moves the most data — falls out
    // of the analytic predictor alone (no simulation): fit all four
    // models to the same heavy-tailed training data and predict.
    use cycle_harvest::dist::fit::fit_model;
    use cycle_harvest::dist::ModelKind;

    let truth = Weibull::paper_exemplar();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
    let train: Vec<f64> = (0..2_000).map(|_| truth.sample(&mut rng)).collect();

    let c = 500.0;
    let mut rates = Vec::new();
    for kind in ModelKind::PAPER_SET {
        let fit = fit_model(kind, &train).unwrap();
        let vaidya = VaidyaModel::new(&fit, CheckpointCosts::symmetric(c)).unwrap();
        // Evaluate the load each schedule would put on the *true* pool:
        // schedule from the fit, segment distribution = truth.
        let policy_pred = predict_steady_state(&vaidya, &fit, 500.0).unwrap();
        rates.push((kind, policy_pred.megabytes_per_hour));
    }
    let exp_rate = rates[0].1;
    for (kind, rate) in &rates[1..] {
        assert!(
            *rate < exp_rate,
            "{kind:?} should predict less load than exponential: {rate} vs {exp_rate}"
        );
    }
}
