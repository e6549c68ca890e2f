//! Parameter estimation (paper §3.4).
//!
//! * Exponential — closed-form MLE (`λ̂ = 1/x̄`), the Matlab `expfit`
//!   equivalent.
//! * Weibull — profile-likelihood MLE solved with safeguarded Newton, the
//!   Matlab `wblfit` equivalent.
//! * Hyperexponential — expectation–maximization over a mixture of
//!   exponentials with deterministic quantile-based multi-start, the
//!   EMPht substitute (a k-phase hyperexponential is exactly the
//!   mixture-of-exponentials sub-family of phase-type distributions).
//!
//! [`fit_model`] dispatches on [`ModelKind`] and is what the scheduler,
//! simulator and experiment harness call.

mod censored;
mod em;
mod estep;
mod exponential;
mod moments;
mod streaming;
mod weibull;

pub use censored::{
    censor_at_window, censored_log_likelihood, fit_exponential_censored, fit_weibull_censored,
    CensoredObs,
};
pub use em::{fit_hyperexponential, EmOptions, EmReport, EmScratch, EmState, RACE_LL_SLACK};
pub use exponential::fit_exponential;
pub use moments::fit_hyperexp2_moments;
pub use streaming::{
    refit_window, validate_duration, DetectorConfig, RefitJob, RefitOutcome, RefitTrigger,
    RegimeDetector, SlidingWindow, StreamingFit, StreamingFitConfig, WindowStats,
};
pub use weibull::fit_weibull;

/// Validate a plain sample with the crate's default minimum size —
/// shared by estimators living outside this module (e.g. the log-normal
/// extension).
pub fn validate_sample(data: &[f64]) -> Result<()> {
    validate_data(data, MIN_SAMPLE)
}

use crate::{DistError, FittedModel, ModelKind, Result};

/// Minimum usable sample size for any fit. The paper trains on the first
/// 25 durations of each trace; we accept anything ≥ 2 but hyperexponential
/// fits additionally require ≥ 2k observations.
pub const MIN_SAMPLE: usize = 2;

/// Validate a data set: non-empty, all finite, all strictly positive.
pub(crate) fn validate_data(data: &[f64], min_len: usize) -> Result<()> {
    if data.len() < min_len {
        return Err(DistError::InvalidData {
            message: "sample too small for this model",
        });
    }
    data.iter().try_for_each(|&x| validate_duration(x))
}

/// Fit the requested family to `data` (availability durations, seconds).
///
/// # Errors
/// Propagates [`DistError::InvalidData`] for unusable samples and
/// [`DistError::NoConvergence`] when an iterative estimator fails.
pub fn fit_model(kind: ModelKind, data: &[f64]) -> Result<FittedModel> {
    match kind {
        ModelKind::Exponential => Ok(FittedModel::Exponential(fit_exponential(data)?)),
        ModelKind::Weibull => Ok(FittedModel::Weibull(fit_weibull(data)?)),
        ModelKind::HyperExponential { phases } => Ok(FittedModel::HyperExponential(
            fit_hyperexponential(data, phases, &EmOptions::default())?.model,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AvailabilityModel;
    use rand::SeedableRng;

    #[test]
    fn validate_rejects_bad_data() {
        assert!(validate_data(&[], 1).is_err());
        assert!(validate_data(&[1.0], 2).is_err());
        assert!(validate_data(&[1.0, -2.0], 2).is_err());
        assert!(validate_data(&[1.0, 0.0], 2).is_err());
        assert!(validate_data(&[1.0, f64::NAN], 2).is_err());
        assert!(validate_data(&[1.0, 2.0], 2).is_ok());
    }

    #[test]
    fn fit_model_dispatches() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let gen = crate::Weibull::new(0.6, 2_000.0).unwrap();
        let data: Vec<f64> = (0..400).map(|_| gen.sample(&mut rng)).collect();
        for kind in ModelKind::PAPER_SET {
            let m = fit_model(kind, &data).unwrap();
            assert_eq!(m.kind(), kind);
            // Every fit should produce a mean within a factor of ~3 of the sample mean.
            let sample_mean = data.iter().sum::<f64>() / data.len() as f64;
            let ratio = m.mean() / sample_mean;
            assert!(ratio > 0.3 && ratio < 3.0, "{kind:?} mean ratio {ratio}");
        }
    }
}
