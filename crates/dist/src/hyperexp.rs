//! The k-phase hyperexponential distribution (paper Eqs. 5–7, 10).
//!
//! A probabilistic mixture of `k` exponentials: with probability `p_i` a
//! lifetime is drawn from `Exp(λ_i)`. Hyperexponentials have a coefficient
//! of variation ≥ 1 and capture the bimodal availability pattern of
//! desktop machines — short interactive-hours evictions mixed with long
//! overnight/weekend stretches — which is why the 2-phase fit produces the
//! most bandwidth-parsimonious schedules in the paper.
//!
//! Note on Eq. 10: the paper prints the conditional survival denominator
//! as `Σ p_i e^{−λ_i x}`; it must be `Σ p_i e^{−λ_i t}` (survival at the
//! conditioning age `t`). [`crate::ConditionedDist`] implements the
//! corrected form; the tests verify it against the generic Eq. 8 ratio.

use crate::model::check_probability;
use crate::{AvailabilityModel, DistError, Result};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Hyperexponential distribution: mixture of `k ≥ 1` exponential phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperExponential {
    /// Mixture weights, strictly positive, summing to 1.
    weights: Vec<f64>,
    /// Phase rates, strictly positive, pairwise distinct.
    rates: Vec<f64>,
}

impl HyperExponential {
    /// Create from per-phase `(weight, rate)` pairs. Weights must be
    /// positive and sum to 1 (within 1e-9; they are renormalized), rates
    /// must be positive and pairwise distinct.
    pub fn new(phases: &[(f64, f64)]) -> Result<Self> {
        if phases.is_empty() {
            return Err(DistError::InvalidData {
                message: "hyperexponential needs >= 1 phase",
            });
        }
        let mut weights = Vec::with_capacity(phases.len());
        let mut rates = Vec::with_capacity(phases.len());
        let mut total = 0.0;
        for &(p, l) in phases {
            if !(p.is_finite() && p > 0.0) {
                return Err(DistError::InvalidParameter {
                    parameter: "weight",
                    value: p,
                });
            }
            if !(l.is_finite() && l > 0.0) {
                return Err(DistError::InvalidParameter {
                    parameter: "rate",
                    value: l,
                });
            }
            total += p;
            weights.push(p);
            rates.push(l);
        }
        if (total - 1.0).abs() > 1e-9 {
            return Err(DistError::InvalidParameter {
                parameter: "sum(weights)",
                value: total,
            });
        }
        for w in &mut weights {
            *w /= total;
        }
        for i in 0..rates.len() {
            for j in (i + 1)..rates.len() {
                if (rates[i] - rates[j]).abs() <= 1e-12 * rates[i].abs() {
                    return Err(DistError::InvalidParameter {
                        parameter: "rates (must be pairwise distinct)",
                        value: rates[i],
                    });
                }
            }
        }
        Ok(Self { weights, rates })
    }

    /// Number of phases `k`.
    pub fn phases(&self) -> usize {
        self.rates.len()
    }

    /// Mixture weights `p_i`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Phase rates `λ_i`.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Squared coefficient of variation `Var/E²`; ≥ 1 for any
    /// hyperexponential, = 1 only in the single-phase (exponential) case.
    pub fn cv_squared(&self) -> f64 {
        let m1: f64 = self
            .weights
            .iter()
            .zip(&self.rates)
            .map(|(p, l)| p / l)
            .sum();
        let m2: f64 = self
            .weights
            .iter()
            .zip(&self.rates)
            .map(|(p, l)| 2.0 * p / (l * l))
            .sum();
        (m2 - m1 * m1) / (m1 * m1)
    }

    /// Weighted survival at `x`: `Σ p_i e^{−λ_i x}` (shared by several
    /// methods; kept precise in the deep tail).
    #[inline]
    fn mix_survival(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(p, l)| p * (-l * x).exp())
            .sum()
    }
}

impl AvailabilityModel for HyperExponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(p, l)| p * l * (-l * x).exp())
            .sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - self.mix_survival(x)
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            self.mix_survival(x)
        }
    }

    fn mean(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(p, l)| p / l)
            .sum()
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        check_probability(p)?;
        if p == 0.0 {
            return Ok(0.0);
        }
        // No closed form for k > 1: invert the CDF numerically. The CDF is
        // strictly increasing; bracket by the slowest phase's quantile.
        let slowest = self.rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = -(-p).ln_1p() / slowest + 1.0;
        let target = p;
        chs_numerics::roots::brent_root(|x| self.cdf(x) - target, 0.0, hi, 1e-10)
            .map_err(DistError::from)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Select a phase by weight, then inverse-transform the exponential.
        let u: f64 = rand::Rng::gen(rng);
        let mut acc = 0.0;
        let mut rate = *self.rates.last().expect("nonempty");
        for (p, l) in self.weights.iter().zip(&self.rates) {
            acc += p;
            if u <= acc {
                rate = *l;
                break;
            }
        }
        let v = loop {
            let v = rand::Rng::gen::<f64>(rng);
            if v > 0.0 {
                break v;
            }
        };
        -v.ln() / rate
    }

    fn parameter_count(&self) -> usize {
        // k rates + (k − 1) free weights.
        2 * self.rates.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConditionedDist;
    use chs_numerics::approx_eq;
    use rand::SeedableRng;

    fn bimodal() -> HyperExponential {
        // Short interactive evictions (mean 300 s, 70 %) + long overnight
        // stretches (mean 30 000 s, 30 %).
        HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(HyperExponential::new(&[]).is_err());
        assert!(HyperExponential::new(&[(0.5, 1.0), (0.6, 2.0)]).is_err()); // weights sum 1.1
        assert!(HyperExponential::new(&[(0.5, 1.0), (0.5, 1.0)]).is_err()); // equal rates
        assert!(HyperExponential::new(&[(1.0, -1.0)]).is_err());
        assert!(HyperExponential::new(&[(-0.5, 1.0), (1.5, 2.0)]).is_err());
        assert!(bimodal().phases() == 2);
    }

    #[test]
    fn single_phase_equals_exponential() {
        use crate::Exponential;
        let h = HyperExponential::new(&[(1.0, 0.01)]).unwrap();
        let e = Exponential::new(0.01).unwrap();
        for &x in &[0.0, 10.0, 100.0, 1_000.0] {
            assert!(approx_eq(h.cdf(x), e.cdf(x), 1e-13, 1e-14));
            assert!(approx_eq(h.pdf(x), e.pdf(x), 1e-13, 1e-14));
        }
        assert!(approx_eq(h.mean(), 100.0, 1e-13, 0.0));
        assert!(approx_eq(h.cv_squared(), 1.0, 1e-10, 1e-12));
    }

    #[test]
    fn mean_is_weighted_sum() {
        let h = bimodal();
        assert!(approx_eq(
            h.mean(),
            0.7 * 300.0 + 0.3 * 30_000.0,
            1e-12,
            0.0
        ));
    }

    #[test]
    fn cv_squared_exceeds_one() {
        assert!(bimodal().cv_squared() > 1.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let h = bimodal();
        let integral =
            chs_numerics::quadrature::adaptive_simpson(|x| h.pdf(x), 0.0, 500_000.0, 1e-10)
                .unwrap();
        assert!(approx_eq(integral, 1.0, 1e-6, 0.0), "integral={integral}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let h = bimodal();
        for &p in &[0.01, 0.3, 0.5, 0.7, 0.95, 0.999] {
            let x = h.quantile(p).unwrap();
            assert!(approx_eq(h.cdf(x), p, 1e-8, 1e-9), "p={p} x={x}");
        }
    }

    #[test]
    fn conditioned_cdf_matches_generic_ratio() {
        let h = bimodal();
        for &age in &[10.0, 300.0, 3_000.0, 60_000.0] {
            for &x in &[1.0, 100.0, 10_000.0] {
                let generic = (h.cdf(age + x) - h.cdf(age)) / (1.0 - h.cdf(age));
                let closed = ConditionedDist::new(&h, age).cdf(x);
                assert!(approx_eq(generic, closed, 1e-9, 1e-11), "age={age} x={x}");
            }
        }
    }

    #[test]
    fn aged_mixture_tends_to_slowest_phase() {
        // After a long uptime the mixture is dominated by the long phase,
        // so the conditional survival approaches e^{−λ_slow x}.
        let h = bimodal();
        let x = 10_000.0;
        let s = ConditionedDist::new(&h, 200_000.0).survival(x);
        let slow = (-x / 30_000.0f64).exp();
        assert!(approx_eq(s, slow, 1e-3, 1e-4), "s={s} slow={slow}");
    }

    #[test]
    fn decreasing_hazard() {
        // Any k≥2 hyperexponential has a strictly decreasing hazard.
        let h = bimodal();
        let mut prev = h.hazard(0.0);
        for i in 1..40 {
            let x = i as f64 * 500.0;
            let cur = h.hazard(x);
            // Strictly decreasing mathematically; allow float ties once the
            // mixture has collapsed onto the slow phase.
            assert!(
                cur <= prev + 1e-15,
                "hazard increased at {x}: {prev} -> {cur}"
            );
            prev = cur;
        }
        // Endpoints: starts near the mixture-average rate, ends at the
        // slow-phase rate.
        assert!(h.hazard(0.0) > h.hazard(200_000.0) * 10.0);
        assert!(approx_eq(h.hazard(500_000.0), 1.0 / 30_000.0, 1e-3, 1e-9));
    }

    #[test]
    fn sample_mean_converges() {
        let h = bimodal();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let n = 300_000;
        let mean: f64 = (0..n).map(|_| h.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            approx_eq(mean, h.mean(), 0.02, 0.0),
            "mean={mean} vs {}",
            h.mean()
        );
    }

    #[test]
    fn parameter_count_follows_2k_minus_1() {
        assert_eq!(bimodal().parameter_count(), 3);
        let h3 = HyperExponential::new(&[(0.5, 1.0), (0.3, 0.1), (0.2, 0.01)]).unwrap();
        assert_eq!(h3.parameter_count(), 5);
    }

    #[test]
    fn serde_roundtrip() {
        let h = bimodal();
        let json = serde_json::to_string(&h).unwrap();
        let back: HyperExponential = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
