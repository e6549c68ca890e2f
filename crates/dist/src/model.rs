//! The [`AvailabilityModel`] trait and the [`FittedModel`] enum that
//! carries a fitted distribution through the scheduler, simulator and
//! experiment harness.

use crate::{DistError, Exponential, HyperExponential, Result, Weibull};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Behaviour required of a machine-availability lifetime distribution:
/// the unconditional law, sampling, and the likelihood the fitting and
/// goodness-of-fit code scores.
///
/// The trait is object-safe (`&dyn AvailabilityModel`), so trace
/// generators and goodness-of-fit reports take any family. The Markov
/// model does not consume it: it conditions on age through
/// [`crate::ConditionedDist`], which carries each paper family's closed
/// form (Eqs. 8–10).
pub trait AvailabilityModel {
    /// Probability density `f(x)`; 0 for `x < 0`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution `F(x) = P(X ≤ x)`; 0 for `x < 0`.
    fn cdf(&self, x: f64) -> f64;

    /// Survival `S(x) = 1 − F(x)`, overridden where a direct form avoids
    /// cancellation for large `x`.
    fn survival(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).max(0.0)
    }

    /// Hazard rate `h(x) = f(x) / S(x)`; `+∞` when the survival is 0.
    fn hazard(&self, x: f64) -> f64 {
        let s = self.survival(x);
        if s <= 0.0 {
            f64::INFINITY
        } else {
            self.pdf(x) / s
        }
    }

    /// Expected lifetime `E[X]`.
    fn mean(&self) -> f64;

    /// Quantile function `F⁻¹(p)` for `p ∈ [0, 1)`.
    fn quantile(&self, p: f64) -> Result<f64>;

    /// Draw one lifetime using the supplied RNG.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Log-likelihood of an i.i.d. sample under this model.
    fn log_likelihood(&self, data: &[f64]) -> f64 {
        data.iter()
            .map(|&x| self.pdf(x).max(f64::MIN_POSITIVE).ln())
            .sum()
    }

    /// Number of free parameters (for AIC/BIC).
    fn parameter_count(&self) -> usize;
}

/// The distribution families the paper evaluates. `phases` follows the
/// paper's experiments: 2-phase and 3-phase hyperexponentials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Single-parameter exponential (memoryless baseline).
    Exponential,
    /// Two-parameter Weibull (shape, scale).
    Weibull,
    /// k-phase hyperexponential (mixture of exponentials).
    HyperExponential {
        /// Number of mixture phases (`k ≥ 2`).
        phases: usize,
    },
}

impl ModelKind {
    /// The four model kinds evaluated throughout the paper's §5, in the
    /// column order of Tables 1–5.
    pub const PAPER_SET: [ModelKind; 4] = [
        ModelKind::Exponential,
        ModelKind::Weibull,
        ModelKind::HyperExponential { phases: 2 },
        ModelKind::HyperExponential { phases: 3 },
    ];

    /// Short label matching the paper's table headers.
    pub fn label(&self) -> String {
        match self {
            ModelKind::Exponential => "Exponential".to_string(),
            ModelKind::Weibull => "Weibull".to_string(),
            ModelKind::HyperExponential { phases } => format!("{phases}-phase Hyperexp."),
        }
    }

    /// One-character marker used in the significance annotations of
    /// Tables 1 and 3: `e`, `w`, `2`, `3`.
    pub fn marker(&self) -> char {
        match self {
            ModelKind::Exponential => 'e',
            ModelKind::Weibull => 'w',
            ModelKind::HyperExponential { phases } => {
                char::from_digit(*phases as u32, 10).unwrap_or('h')
            }
        }
    }

    /// Whether the family is memoryless (conditional distribution is
    /// age-independent, so a single periodic interval suffices).
    pub fn is_memoryless(&self) -> bool {
        matches!(self, ModelKind::Exponential)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A fitted availability distribution: enum dispatch over the three
/// families so it can be stored, serialized and sent across threads
/// without trait objects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FittedModel {
    /// Fitted exponential.
    Exponential(Exponential),
    /// Fitted Weibull.
    Weibull(Weibull),
    /// Fitted hyperexponential.
    HyperExponential(HyperExponential),
}

impl FittedModel {
    /// Which family this model belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            FittedModel::Exponential(_) => ModelKind::Exponential,
            FittedModel::Weibull(_) => ModelKind::Weibull,
            FittedModel::HyperExponential(h) => ModelKind::HyperExponential { phases: h.phases() },
        }
    }

    /// Borrow as a trait object.
    pub fn as_model(&self) -> &dyn AvailabilityModel {
        match self {
            FittedModel::Exponential(m) => m,
            FittedModel::Weibull(m) => m,
            FittedModel::HyperExponential(m) => m,
        }
    }
}

macro_rules! delegate {
    ($self:ident, $m:ident, $($arg:expr),*) => {
        match $self {
            FittedModel::Exponential(d) => d.$m($($arg),*),
            FittedModel::Weibull(d) => d.$m($($arg),*),
            FittedModel::HyperExponential(d) => d.$m($($arg),*),
        }
    };
}

impl AvailabilityModel for FittedModel {
    fn pdf(&self, x: f64) -> f64 {
        delegate!(self, pdf, x)
    }
    fn cdf(&self, x: f64) -> f64 {
        delegate!(self, cdf, x)
    }
    fn survival(&self, x: f64) -> f64 {
        delegate!(self, survival, x)
    }
    fn hazard(&self, x: f64) -> f64 {
        delegate!(self, hazard, x)
    }
    fn mean(&self) -> f64 {
        delegate!(self, mean,)
    }
    fn quantile(&self, p: f64) -> Result<f64> {
        delegate!(self, quantile, p)
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        delegate!(self, sample, rng)
    }
    fn parameter_count(&self) -> usize {
        delegate!(self, parameter_count,)
    }
}

/// Validate that a would-be probability is a usable `p` for quantiles.
pub(crate) fn check_probability(p: f64) -> Result<()> {
    if !(0.0..1.0).contains(&p) {
        return Err(DistError::InvalidParameter {
            parameter: "p",
            value: p,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_order_and_markers() {
        let markers: Vec<char> = ModelKind::PAPER_SET.iter().map(|k| k.marker()).collect();
        assert_eq!(markers, vec!['e', 'w', '2', '3']);
    }

    #[test]
    fn labels_match_paper_headers() {
        assert_eq!(ModelKind::Exponential.label(), "Exponential");
        assert_eq!(ModelKind::Weibull.label(), "Weibull");
        assert_eq!(
            ModelKind::HyperExponential { phases: 2 }.label(),
            "2-phase Hyperexp."
        );
        assert_eq!(
            ModelKind::HyperExponential { phases: 3 }.label(),
            "3-phase Hyperexp."
        );
    }

    #[test]
    fn memorylessness_flag() {
        assert!(ModelKind::Exponential.is_memoryless());
        assert!(!ModelKind::Weibull.is_memoryless());
        assert!(!ModelKind::HyperExponential { phases: 2 }.is_memoryless());
    }

    #[test]
    fn probability_validation() {
        assert!(check_probability(0.0).is_ok());
        assert!(check_probability(0.999).is_ok());
        assert!(check_probability(1.0).is_err());
        assert!(check_probability(-0.1).is_err());
        assert!(check_probability(f64::NAN).is_err());
    }
}
