//! Integration test of the §5.3 right-censoring story: a short
//! measurement window truncates availability durations; naive fits on
//! the truncated data are biased pessimistic, the censored MLEs are not,
//! and the bias propagates into the checkpoint schedule.

use cycle_harvest::dist::fit::{
    censor_at_window, fit_exponential, fit_exponential_censored, fit_weibull, fit_weibull_censored,
    CensoredObs,
};
use cycle_harvest::dist::{AvailabilityModel, FittedModel, Weibull};
use cycle_harvest::markov::{CheckpointCosts, VaidyaModel};
use rand::SeedableRng;

fn ground_truth_durations(n: usize, seed: u64) -> Vec<f64> {
    let truth = Weibull::paper_exemplar();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| truth.sample(&mut rng).max(1.0)).collect()
}

/// Censor each duration individually at a cap (what a per-run observation
/// window does).
fn cap_censor(durations: &[f64], cap: f64) -> Vec<CensoredObs> {
    durations
        .iter()
        .map(|&d| {
            if d > cap {
                CensoredObs::censored(cap)
            } else {
                CensoredObs::exact(d)
            }
        })
        .collect()
}

#[test]
fn naive_fit_on_censored_data_is_pessimistic() {
    let durations = ground_truth_durations(8_000, 1);
    let cap = 2.0 * 3_600.0; // 2-hour observation cap
    let censored = cap_censor(&durations, cap);

    // Naive: pretend the capped values are real deaths.
    let naive_values: Vec<f64> = censored.iter().map(|o| o.value).collect();
    let naive = fit_weibull(&naive_values).unwrap();
    let proper = fit_weibull_censored(&censored).unwrap();
    let truth_mean = Weibull::paper_exemplar().mean();

    assert!(
        naive.mean() < 0.75 * truth_mean,
        "naive fit should understate the mean badly: {} vs {truth_mean}",
        naive.mean()
    );
    assert!(
        (proper.mean() / truth_mean - 1.0).abs() < 0.25,
        "censored fit should land near the truth: {} vs {truth_mean}",
        proper.mean()
    );
}

#[test]
fn censoring_bias_shortens_schedules() {
    // The downstream effect the paper cares about: a pessimistic fit
    // checkpoints too often, wasting network bandwidth.
    let durations = ground_truth_durations(8_000, 2);
    let cap = 2.0 * 3_600.0;
    let censored = cap_censor(&durations, cap);
    let naive_values: Vec<f64> = censored.iter().map(|o| o.value).collect();

    let c = 250.0;
    let t_of = |fit: FittedModel| {
        let v = VaidyaModel::new(&fit, CheckpointCosts::symmetric(c)).unwrap();
        v.optimal_interval(3_600.0).unwrap().work_seconds
    };
    let t_naive = t_of(FittedModel::Weibull(fit_weibull(&naive_values).unwrap()));
    let t_proper = t_of(FittedModel::Weibull(
        fit_weibull_censored(&censored).unwrap(),
    ));
    let t_truth = t_of(FittedModel::Weibull(Weibull::paper_exemplar()));

    assert!(
        t_naive < t_proper,
        "naive fit should checkpoint more often: {t_naive} !< {t_proper}"
    );
    let naive_err = (t_naive / t_truth - 1.0).abs();
    let proper_err = (t_proper / t_truth - 1.0).abs();
    assert!(
        proper_err < naive_err,
        "censored fit should be closer to the truth's schedule: \
         naive {t_naive}, proper {t_proper}, truth {t_truth}"
    );
}

#[test]
fn window_censoring_of_a_stream() {
    // censor_at_window models a *campaign* window over a back-to-back
    // stream; exponential censored MLE must still recover the rate.
    use cycle_harvest::dist::Exponential;
    let truth = Exponential::from_mean(3_600.0).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let mut all = Vec::new();
    // Many independent 6-hour windows over the stream.
    for _ in 0..4_000 {
        let durations: Vec<f64> = (0..4).map(|_| truth.sample(&mut rng)).collect();
        all.extend(censor_at_window(&durations, 6.0 * 3_600.0));
    }
    let censored_count = all.iter().filter(|o| o.censored).count();
    assert!(
        censored_count > 400,
        "windows should censor a meaningful share: {censored_count}"
    );
    let fit = fit_exponential_censored(&all).unwrap();
    assert!(
        (fit.mean() / 3_600.0 - 1.0).abs() < 0.05,
        "censored fit mean {}",
        fit.mean()
    );
    // Naive comparison.
    let naive_values: Vec<f64> = all.iter().map(|o| o.value).collect();
    let naive = fit_exponential(&naive_values).unwrap();
    assert!(naive.mean() < fit.mean(), "naive must be biased low");
}
