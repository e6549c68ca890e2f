//! The Weibull distribution (paper Eqs. 3–4).
//!
//! `F(x) = 1 − e^{−(x/β)^α}` with shape `α > 0` and scale `β > 0`. For
//! `α < 1` the hazard decreases with age — the "infant mortality" shape
//! that desktop availability traces exhibit (the paper's exemplar machine
//! fit is `α = 0.43`, `β = 3409`), making long-lived machines likely to
//! keep living and motivating aperiodic checkpoint schedules.
//!
//! Note on Eq. 9: the paper prints the conditional future-lifetime CDF as
//! `1 − e^{(t/β)^α − (x/β)^α}`; the correct conditional survival is
//! `S_t(x) = e^{(t/β)^α − ((t+x)/β)^α}` (the `t + x` shift is required for
//! `F_t(0) = 0`). This module carries only the unconditional law; the
//! corrected conditional form and its survival integral live in
//! [`crate::ConditionedDist`]. It agrees with the generic Eq. 8 ratio,
//! which the tests verify.

use crate::model::check_probability;
use crate::{AvailabilityModel, DistError, Result};
use chs_numerics::special::ln_gamma;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Weibull lifetime distribution with shape `α` and scale `β`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Create from shape `α > 0` and a normal (not subnormal) scale
    /// `β > 0`.
    ///
    /// A subnormal `β` is rejected: `(t/β)^α` then overflows at any age
    /// above about 1e-12 s, and no age-dependent policy can be built
    /// from it.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(DistError::InvalidParameter {
                parameter: "shape",
                value: shape,
            });
        }
        if !(scale.is_normal() && scale > 0.0) {
            return Err(DistError::InvalidParameter {
                parameter: "scale",
                value: scale,
            });
        }
        Ok(Self { shape, scale })
    }

    /// Shape parameter `α`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `β`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The paper's exemplar machine fit (§5.1): shape 0.43, scale 3409.
    pub fn paper_exemplar() -> Self {
        Self {
            shape: 0.43,
            scale: 3409.0,
        }
    }

    #[inline]
    fn z(&self, x: f64) -> f64 {
        (x / self.scale).powf(self.shape)
    }
}

impl AvailabilityModel for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // α < 1: density diverges at 0; α = 1: λ = 1/β; α > 1: 0.
            return match self.shape.partial_cmp(&1.0) {
                Some(std::cmp::Ordering::Less) => f64::INFINITY,
                Some(std::cmp::Ordering::Equal) => 1.0 / self.scale,
                _ => 0.0,
            };
        }
        let z = self.z(x);
        (self.shape / x) * z * (-z).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.z(x)).exp_m1()
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-self.z(x)).exp()
        }
    }

    fn hazard(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return self.pdf(0.0);
        }
        // h(x) = (α/β)(x/β)^{α−1}: exact, no survival division needed.
        (self.shape / self.scale) * (x / self.scale).powf(self.shape - 1.0)
    }

    fn mean(&self) -> f64 {
        // E[X] = β Γ(1 + 1/α)
        self.scale
            * ln_gamma(1.0 + 1.0 / self.shape)
                .map(f64::exp)
                .unwrap_or(f64::NAN)
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        check_probability(p)?;
        // x = β (−ln(1−p))^{1/α}
        Ok(self.scale * (-(-p).ln_1p()).powf(1.0 / self.shape))
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = loop {
            let u = rand::Rng::gen::<f64>(rng);
            if u > 0.0 {
                break u;
            }
        };
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }

    fn log_likelihood(&self, data: &[f64]) -> f64 {
        // n(ln α − α ln β) + (α−1) Σ ln x − Σ (x/β)^α
        let n = data.len() as f64;
        let mut sum_ln = 0.0;
        let mut sum_z = 0.0;
        for &x in data {
            let x = x.max(f64::MIN_POSITIVE);
            sum_ln += x.ln();
            sum_z += self.z(x);
        }
        n * (self.shape.ln() - self.shape * self.scale.ln()) + (self.shape - 1.0) * sum_ln - sum_z
    }

    fn parameter_count(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConditionedDist;
    use chs_numerics::approx_eq;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(-1.0, 1.0).is_err());
        assert!(Weibull::new(f64::INFINITY, 1.0).is_err());
        assert!(Weibull::new(0.43, 3409.0).is_ok());
        assert!(Weibull::new(1.0, 9.5e-321).is_err(), "subnormal scale");
        assert!(Weibull::new(1.0, f64::MIN_POSITIVE).is_ok());
    }

    #[test]
    fn fit_of_varied_subnormal_durations_fails() {
        // Unchecked, this window fits β ≈ 4.5e-321, and its policy table
        // bisects to the depth limit (16,384 segments, ~50 s).
        let data: Vec<f64> = (1..=40).map(|i| f64::from(i % 7 + 1) * 1e-321).collect();
        assert!(crate::fit::fit_weibull(&data).is_err());
    }

    #[test]
    fn reduces_to_exponential_at_shape_one() {
        use crate::Exponential;
        let w = Weibull::new(1.0, 200.0).unwrap();
        let e = Exponential::from_mean(200.0).unwrap();
        for &x in &[0.0, 1.0, 50.0, 200.0, 2_000.0] {
            assert!(approx_eq(w.cdf(x), e.cdf(x), 1e-13, 1e-14), "x={x}");
            assert!(approx_eq(w.pdf(x), e.pdf(x), 1e-13, 1e-14), "x={x}");
        }
        assert!(approx_eq(w.mean(), 200.0, 1e-10, 0.0));
    }

    #[test]
    fn exemplar_mean() {
        // E = 3409 Γ(1 + 1/0.43) = 3409 Γ(3.3256…) ≈ 9147 s ≈ 2.5 h
        let w = Weibull::paper_exemplar();
        let m = w.mean();
        assert!(m > 8_000.0 && m < 10_500.0, "mean={m}");
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let w = Weibull::new(1.7, 10.0).unwrap();
        let integral =
            chs_numerics::quadrature::adaptive_simpson(|x| w.pdf(x), 0.0, 25.0, 1e-11).unwrap();
        assert!(approx_eq(integral, w.cdf(25.0), 1e-8, 1e-9));
    }

    #[test]
    fn pdf_heavy_tail_integrates() {
        // shape < 1: integrable singularity at 0 — quadrature must cope.
        let w = Weibull::paper_exemplar();
        let integral = chs_numerics::quadrature::adaptive_simpson(
            |x| if x == 0.0 { 0.0 } else { w.pdf(x) },
            0.0,
            10_000.0,
            1e-10,
        )
        .unwrap();
        assert!(
            approx_eq(integral, w.cdf(10_000.0), 1e-5, 1e-6),
            "int={integral}"
        );
    }

    #[test]
    fn conditioned_cdf_matches_generic_ratio() {
        let w = Weibull::paper_exemplar();
        for &age in &[10.0, 500.0, 3_409.0, 50_000.0] {
            for &x in &[1.0, 100.0, 5_000.0] {
                let generic = (w.cdf(age + x) - w.cdf(age)) / w.survival(age);
                let closed = ConditionedDist::new(&w, age).cdf(x);
                assert!(approx_eq(generic, closed, 1e-9, 1e-11), "age={age} x={x}");
            }
        }
    }

    #[test]
    fn decreasing_hazard_for_shape_below_one() {
        let w = Weibull::paper_exemplar();
        let mut prev = w.hazard(1.0);
        for i in 1..50 {
            let x = 1.0 + 500.0 * i as f64;
            let h = w.hazard(x);
            assert!(h < prev, "hazard not decreasing at {x}");
            prev = h;
        }
    }

    #[test]
    fn aging_increases_conditional_survival_heavy_tail() {
        // With α < 1, a machine that has lived long is *more* likely to
        // survive the next hour — the effect the schedule exploits.
        let w = Weibull::paper_exemplar();
        let s_young = ConditionedDist::new(&w, 60.0).survival(3_600.0);
        let s_old = ConditionedDist::new(&w, 86_400.0).survival(3_600.0);
        assert!(s_old > s_young, "old {s_old} !> young {s_young}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let w = Weibull::new(0.43, 3_409.0).unwrap();
        for &p in &[0.001, 0.1, 0.5, 0.9, 0.9999] {
            let x = w.quantile(p).unwrap();
            assert!(approx_eq(w.cdf(x), p, 1e-10, 1e-12), "p={p}");
        }
    }

    #[test]
    fn sample_mean_converges() {
        let w = Weibull::new(2.0, 100.0).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| w.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            approx_eq(mean, w.mean(), 0.02, 0.0),
            "sample mean {mean} vs {}",
            w.mean()
        );
    }

    #[test]
    fn closed_form_loglik_matches_generic() {
        let w = Weibull::new(0.7, 1_000.0).unwrap();
        let data = [10.0, 55.0, 230.0, 770.0, 15_000.0];
        let closed = w.log_likelihood(&data);
        let generic: f64 = data.iter().map(|&x| w.pdf(x).ln()).sum();
        assert!(approx_eq(closed, generic, 1e-11, 1e-11));
    }

    #[test]
    fn pdf_at_zero_by_shape() {
        assert!(Weibull::new(0.5, 1.0).unwrap().pdf(0.0).is_infinite());
        assert!(approx_eq(
            Weibull::new(1.0, 4.0).unwrap().pdf(0.0),
            0.25,
            1e-15,
            0.0
        ));
        assert_eq!(Weibull::new(2.0, 1.0).unwrap().pdf(0.0), 0.0);
    }
}
