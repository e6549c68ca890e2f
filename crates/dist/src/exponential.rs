//! The exponential distribution (paper Eqs. 1–2).
//!
//! `f(x) = λ e^{−λx}`, `F(x) = 1 − e^{−λx}`. Memoryless: the conditional
//! future-lifetime distribution equals the unconditional one for every
//! age, which is why exponential-based checkpoint schedules are periodic.

use crate::model::check_probability;
use crate::{AvailabilityModel, DistError, Result};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Exponential lifetime distribution with rate `λ > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create from a rate `λ > 0`.
    pub fn new(lambda: f64) -> Result<Self> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(DistError::InvalidParameter {
                parameter: "lambda",
                value: lambda,
            });
        }
        Ok(Self { lambda })
    }

    /// Create from a mean lifetime `μ = 1/λ`.
    pub fn from_mean(mean: f64) -> Result<Self> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistError::InvalidParameter {
                parameter: "mean",
                value: mean,
            });
        }
        Self::new(1.0 / mean)
    }

    /// Rate parameter `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl AvailabilityModel for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            // expm1 avoids cancellation for small λx.
            -(-self.lambda * x).exp_m1()
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-self.lambda * x).exp()
        }
    }

    fn hazard(&self, _x: f64) -> f64 {
        self.lambda
    }

    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        check_probability(p)?;
        Ok(-(-p).ln_1p() / self.lambda)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Inverse transform on U ∈ (0, 1].
        let u = loop {
            let u = rand::Rng::gen::<f64>(rng);
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / self.lambda
    }

    fn log_likelihood(&self, data: &[f64]) -> f64 {
        // n ln λ − λ Σx: exact closed form, avoids n pdf evaluations.
        let n = data.len() as f64;
        let sum: f64 = data.iter().sum();
        n * self.lambda.ln() - self.lambda * sum
    }

    fn parameter_count(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConditionedDist;
    use chs_numerics::approx_eq;
    use rand::SeedableRng;

    fn exp(lambda: f64) -> Exponential {
        Exponential::new(lambda).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::from_mean(0.0).is_err());
        assert!(approx_eq(
            Exponential::from_mean(100.0).unwrap().lambda(),
            0.01,
            1e-15,
            0.0
        ));
    }

    #[test]
    fn pdf_cdf_known_values() {
        let d = exp(0.5);
        assert!(approx_eq(d.pdf(0.0), 0.5, 1e-15, 0.0));
        assert!(approx_eq(d.cdf(2.0), 1.0 - (-1.0f64).exp(), 1e-14, 0.0));
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.survival(-1.0), 1.0);
    }

    #[test]
    fn memorylessness() {
        let d = exp(0.001);
        for &age in &[0.0, 100.0, 10_000.0, 1e6] {
            let kern = ConditionedDist::new(&d, age);
            for &x in &[1.0, 500.0, 5_000.0] {
                assert!(approx_eq(kern.cdf(x), d.cdf(x), 1e-14, 0.0));
                assert!(approx_eq(kern.survival(x), d.survival(x), 1e-14, 0.0));
            }
        }
    }

    #[test]
    fn hazard_constant() {
        let d = exp(0.25);
        assert_eq!(d.hazard(0.0), 0.25);
        assert_eq!(d.hazard(1e9), 0.25);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = exp(0.01);
        for &p in &[0.01, 0.25, 0.5, 0.9, 0.999] {
            let x = d.quantile(p).unwrap();
            assert!(approx_eq(d.cdf(x), p, 1e-12, 1e-14), "p={p}");
        }
        assert!(d.quantile(1.0).is_err());
        assert!(d.quantile(-0.5).is_err());
    }

    #[test]
    fn median_is_ln2_over_lambda() {
        let d = exp(2.0);
        assert!(approx_eq(
            d.quantile(0.5).unwrap(),
            std::f64::consts::LN_2 / 2.0,
            1e-13,
            0.0
        ));
    }

    #[test]
    fn sample_mean_converges() {
        let d = exp(0.002); // mean 500
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(approx_eq(mean, 500.0, 0.02, 0.0), "mean={mean}");
    }

    #[test]
    fn closed_form_loglik_matches_generic() {
        let d = exp(0.013);
        let data = [10.0, 55.0, 230.0, 770.0, 1500.0];
        let closed = d.log_likelihood(&data);
        let generic: f64 = data.iter().map(|&x| d.pdf(x).ln()).sum();
        assert!(approx_eq(closed, generic, 1e-12, 1e-12));
    }

    #[test]
    fn survival_deep_tail_no_cancellation() {
        let d = exp(1.0);
        // 1 − cdf would be exactly 0 beyond ~37; survival keeps precision.
        let s = d.survival(100.0);
        assert!(s > 0.0 && s < 1e-40);
    }
}
