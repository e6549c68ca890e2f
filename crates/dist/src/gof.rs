//! Goodness of fit: log-likelihood comparison, information criteria, and
//! the Kolmogorov–Smirnov statistic.
//!
//! The paper notes that prior work proposing Weibull availability fits
//! "provides no quantitative measure of goodness-of-fit"; this module
//! supplies those measures so the model-selection question the paper
//! raises can actually be answered on any trace.

use crate::fit::fit_model;
use crate::{AvailabilityModel, DistError, FittedModel, ModelKind, Result};

/// Akaike information criterion: `2k − 2 ln L̂` (lower is better).
pub fn aic(model: &dyn AvailabilityModel, data: &[f64]) -> f64 {
    2.0 * model.parameter_count() as f64 - 2.0 * model.log_likelihood(data)
}

/// Bayesian information criterion: `k ln n − 2 ln L̂` (lower is better).
pub fn bic(model: &dyn AvailabilityModel, data: &[f64]) -> f64 {
    model.parameter_count() as f64 * (data.len() as f64).ln() - 2.0 * model.log_likelihood(data)
}

/// Kolmogorov–Smirnov statistic `D_n = sup_x |F_n(x) − F(x)|` between the
/// empirical CDF of `data` and the model CDF.
///
/// # Errors
/// [`DistError::InvalidData`] when `data` is empty or non-finite.
pub fn ks_statistic(model: &dyn AvailabilityModel, data: &[f64]) -> Result<f64> {
    if data.is_empty() || data.iter().any(|x| !x.is_finite()) {
        return Err(DistError::InvalidData {
            message: "KS needs a non-empty finite sample",
        });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = model.cdf(x);
        let lo = i as f64 / n; // empirical CDF just below x
        let hi = (i as f64 + 1.0) / n; // empirical CDF at x
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    Ok(d)
}

/// Asymptotic p-value for the KS statistic via the Kolmogorov
/// distribution: `Q(λ) = 2 Σ_{j≥1} (−1)^{j−1} e^{−2 j² λ²}` with
/// `λ = (√n + 0.12 + 0.11/√n) · D` (Numerical Recipes `probks`).
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    if n == 0 || d <= 0.0 {
        return 1.0;
    }
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    let mut sum = 0.0;
    let mut sign = 1.0;
    let mut prev_term = f64::INFINITY;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64) * (j as f64) * lambda * lambda).exp();
        sum += sign * term;
        if term < 1e-12 * sum.abs() || term >= prev_term {
            break;
        }
        prev_term = term;
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// A model-selection scorecard for one candidate on one data set.
#[derive(Debug, Clone, PartialEq)]
pub struct FitScore {
    /// Log-likelihood of the data under the model.
    pub log_likelihood: f64,
    /// Akaike information criterion.
    pub aic: f64,
    /// Bayesian information criterion.
    pub bic: f64,
    /// Kolmogorov–Smirnov statistic.
    pub ks: f64,
    /// Asymptotic KS p-value.
    pub ks_p: f64,
}

/// Compute the full scorecard for `model` on `data`.
pub fn score(model: &dyn AvailabilityModel, data: &[f64]) -> Result<FitScore> {
    let ll = model.log_likelihood(data);
    let ks = ks_statistic(model, data)?;
    Ok(FitScore {
        log_likelihood: ll,
        aic: aic(model, data),
        bic: bic(model, data),
        ks,
        ks_p: ks_p_value(ks, data.len()),
    })
}

/// Fit all four paper families to `data` and keep the one with the
/// lowest BIC — automatic model selection (an extension beyond the
/// paper, which compares the families but does not auto-select). Ties
/// keep the earlier family in [`ModelKind::PAPER_SET`] order.
///
/// # Errors
/// The last estimator's error when no family fits.
pub fn fit_best(data: &[f64]) -> Result<FittedModel> {
    let mut best: Option<(f64, FittedModel)> = None;
    let mut last_err = None;
    for kind in ModelKind::PAPER_SET {
        match fit_model(kind, data) {
            Ok(model) => {
                let score = bic(&model, data);
                if best.as_ref().is_none_or(|(b, _)| score < *b) {
                    best = Some((score, model));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some((_, model)) => Ok(model),
        None => Err(last_err.expect("at least one fit attempted")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fit, Exponential, Weibull};
    use rand::SeedableRng;

    fn weibull_sample(n: usize, seed: u64) -> Vec<f64> {
        let truth = Weibull::paper_exemplar();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| truth.sample(&mut rng)).collect()
    }

    #[test]
    fn ks_zero_for_perfect_grid() {
        // Data placed exactly at the (i − 1/2)/n quantiles has D = 1/(2n).
        let d = Exponential::new(1.0).unwrap();
        let n = 100;
        let data: Vec<f64> = (0..n)
            .map(|i| d.quantile((i as f64 + 0.5) / n as f64).unwrap())
            .collect();
        let ks = ks_statistic(&d, &data).unwrap();
        assert!((ks - 0.5 / n as f64).abs() < 1e-10, "ks={ks}");
    }

    #[test]
    fn ks_detects_wrong_model() {
        let data = weibull_sample(2_000, 12);
        let weib = fit::fit_weibull(&data).unwrap();
        let exp = fit::fit_exponential(&data).unwrap();
        let ks_w = ks_statistic(&weib, &data).unwrap();
        let ks_e = ks_statistic(&exp, &data).unwrap();
        assert!(
            ks_w < ks_e,
            "Weibull fit should beat exponential: {ks_w} vs {ks_e}"
        );
        // And the exponential should be *rejected* on heavy-tailed data.
        assert!(ks_p_value(ks_e, data.len()) < 0.01);
    }

    #[test]
    fn ks_accepts_true_model() {
        let truth = Weibull::paper_exemplar();
        let data = weibull_sample(500, 77);
        let ks = ks_statistic(&truth, &data).unwrap();
        assert!(
            ks_p_value(ks, data.len()) > 0.01,
            "true model rejected: ks={ks}"
        );
    }

    #[test]
    fn aic_prefers_parsimony_on_exponential_data() {
        let truth = Exponential::from_mean(500.0).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let data: Vec<f64> = (0..3_000).map(|_| truth.sample(&mut rng)).collect();
        let exp_fit = fit::fit_exponential(&data).unwrap();
        let hyp_fit = fit::fit_hyperexponential(&data, 3, &fit::EmOptions::default())
            .unwrap()
            .model;
        // BIC penalizes the 5-parameter hyperexponential hard on data the
        // 1-parameter exponential explains.
        assert!(bic(&exp_fit, &data) < bic(&hyp_fit, &data));
    }

    #[test]
    fn aic_prefers_weibull_on_heavy_tail() {
        let data = weibull_sample(3_000, 5);
        let weib = fit::fit_weibull(&data).unwrap();
        let exp = fit::fit_exponential(&data).unwrap();
        assert!(aic(&weib, &data) < aic(&exp, &data));
    }

    #[test]
    fn p_value_bounds() {
        assert_eq!(ks_p_value(0.0, 100), 1.0);
        assert_eq!(ks_p_value(0.5, 0), 1.0);
        let p = ks_p_value(0.04, 1_000);
        assert!((0.0..=1.0).contains(&p));
        assert!(ks_p_value(0.9, 1_000) < 1e-6);
    }

    #[test]
    fn scorecard_consistency() {
        let data = weibull_sample(400, 8);
        let weib = fit::fit_weibull(&data).unwrap();
        let s = score(&weib, &data).unwrap();
        assert_eq!(s.aic, aic(&weib, &data));
        assert_eq!(s.bic, bic(&weib, &data));
        assert!(s.ks > 0.0 && s.ks < 1.0);
        assert!(s.bic > s.aic); // ln(400) > 2 so BIC penalty dominates
    }

    #[test]
    fn fit_best_picks_plausible_model_on_heavy_data() {
        // Heavy-tailed Weibull data: BIC should not select the exponential.
        let best = fit_best(&weibull_sample(1_500, 3)).unwrap();
        assert_ne!(
            best.kind(),
            ModelKind::Exponential,
            "picked {:?}",
            best.kind()
        );
    }

    #[test]
    fn fit_best_picks_exponential_on_memoryless_data() {
        let truth = Exponential::from_mean(3_600.0).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let data: Vec<f64> = (0..1_500).map(|_| truth.sample(&mut rng)).collect();
        assert_eq!(fit_best(&data).unwrap().kind(), ModelKind::Exponential);
    }

    #[test]
    fn ks_rejects_empty() {
        let d = Exponential::new(1.0).unwrap();
        assert!(ks_statistic(&d, &[]).is_err());
    }
}
