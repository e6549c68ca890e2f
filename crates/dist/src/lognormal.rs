//! The log-normal distribution — an *extension* family beyond the
//! paper's three.
//!
//! The related-work debate the paper joins (exponential vs. Weibull vs.
//! hyperexponential availability) has a classic fourth participant:
//! machine lifetimes whose logarithm is normal. Its MLE is closed-form
//! (sample mean/variance of `ln x`), making it a cheap extra column for
//! the goodness-of-fit report, and its hazard is non-monotone (rises then
//! falls) — a shape none of the paper's three families can express.

use crate::model::check_probability;
use crate::{AvailabilityModel, DistError, Result};
use chs_numerics::special::{erf, erfc};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Log-normal lifetime distribution: `ln X ~ N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create from the log-space mean `mu` and log-space standard
    /// deviation `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(DistError::InvalidParameter {
                parameter: "mu",
                value: mu,
            });
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(DistError::InvalidParameter {
                parameter: "sigma",
                value: sigma,
            });
        }
        Ok(Self { mu, sigma })
    }

    /// Log-space location `mu`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-space scale `sigma`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Median lifetime `e^mu`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    #[inline]
    fn z(&self, x: f64) -> f64 {
        (x.ln() - self.mu) / self.sigma
    }
}

/// Standard normal CDF via erf.
#[inline]
fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal survival via erfc (tail-accurate).
#[inline]
fn phi_bar(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Inverse standard normal CDF (Acklam-style rational approximation,
/// |ε| < 1.2e-8 after one Halley refinement step).
fn phi_inv(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    // Beasley-Springer-Moro style bounds with a central rational fit.
    let x = if (0.02425..=0.97575).contains(&p) {
        // Central region.
        const A: [f64; 6] = [
            -39.696_830_286_653_76,
            220.946_098_424_520_8,
            -275.928_510_446_969_,
            138.357_751_867_269,
            -30.664_798_066_147_16,
            2.506_628_277_459_239,
        ];
        const B: [f64; 5] = [
            -54.476_098_798_224_06,
            161.585_836_858_040_9,
            -155.698_979_859_886_6,
            66.801_311_887_719_72,
            -13.280_681_552_885_72,
        ];
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        // Tails.
        const C: [f64; 6] = [
            -0.007_784_894_002_430_293,
            -0.322_396_458_041_136_4,
            -2.400_758_277_161_838,
            -2.549_732_539_343_734,
            4.374_664_141_464_968,
            2.938_163_982_698_783,
        ];
        const D: [f64; 4] = [
            0.007_784_695_709_041_462,
            0.322_467_129_070_039_9,
            2.445_134_137_142_996,
            3.754_408_661_907_416,
        ];
        let (q, sign) = if p < 0.5 { (p, -1.0) } else { (1.0 - p, 1.0) };
        let r = (-2.0 * q.ln()).sqrt();
        sign * -((((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
            / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0))
    };
    // One Halley step against the accurate CDF.
    let e = phi(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

impl AvailabilityModel for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = self.z(x);
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            phi(self.z(x))
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            phi_bar(self.z(x))
        }
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        check_probability(p)?;
        if p == 0.0 {
            return Ok(0.0);
        }
        Ok((self.mu + self.sigma * phi_inv(p)).exp())
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Box–Muller.
        let u1: f64 = rand::Rng::gen::<f64>(rng).max(1e-300);
        let u2: f64 = rand::Rng::gen(rng);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }

    fn parameter_count(&self) -> usize {
        2
    }

    fn log_likelihood(&self, data: &[f64]) -> f64 {
        // −Σ ln x − n ln(σ√2π) − Σ z²/2
        let n = data.len() as f64;
        let mut sum_ln = 0.0;
        let mut sum_z2 = 0.0;
        for &x in data {
            let x = x.max(f64::MIN_POSITIVE);
            sum_ln += x.ln();
            let z = self.z(x);
            sum_z2 += z * z;
        }
        -sum_ln - n * (self.sigma * (2.0 * std::f64::consts::PI).sqrt()).ln() - 0.5 * sum_z2
    }
}

/// Closed-form log-normal MLE: `mu = mean(ln x)`, `sigma² = var(ln x)`
/// (biased n-denominator, the MLE).
pub fn fit_lognormal(data: &[f64]) -> Result<LogNormal> {
    crate::fit::validate_sample(data)?;
    let n = data.len() as f64;
    let lns: Vec<f64> = data.iter().map(|x| x.ln()).collect();
    let mu = lns.iter().sum::<f64>() / n;
    let var = lns.iter().map(|u| (u - mu) * (u - mu)).sum::<f64>() / n;
    // Identical observations leave only rounding residue in the variance.
    if var <= 1e-20 {
        return Err(DistError::InvalidData {
            message: "all observations identical: log-normal sigma is zero",
        });
    }
    LogNormal::new(mu, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_numerics::approx_eq;
    use rand::SeedableRng;

    fn ln(mu: f64, sigma: f64) -> LogNormal {
        LogNormal::new(mu, sigma).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
        assert!(LogNormal::new(5.0, 1.2).is_ok());
    }

    #[test]
    fn cdf_at_median_is_half() {
        let d = ln(7.0, 1.3);
        assert!(approx_eq(d.cdf(d.median()), 0.5, 1e-12, 1e-13));
    }

    #[test]
    fn mean_formula() {
        let d = ln(2.0, 0.5);
        assert!(approx_eq(d.mean(), (2.0f64 + 0.125).exp(), 1e-12, 0.0));
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let d = ln(6.0, 1.0);
        let integral =
            chs_numerics::quadrature::adaptive_simpson(|x| d.pdf(x), 0.0, 5_000.0, 1e-10).unwrap();
        assert!(approx_eq(integral, d.cdf(5_000.0), 1e-7, 1e-8));
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = ln(8.0, 0.9);
        for &p in &[0.001, 0.024, 0.1, 0.5, 0.9, 0.976, 0.9999] {
            let x = d.quantile(p).unwrap();
            assert!(
                approx_eq(d.cdf(x), p, 1e-7, 1e-8),
                "p={p}: x={x} cdf={}",
                d.cdf(x)
            );
        }
    }

    #[test]
    fn survival_tail_accuracy() {
        // At z = 8 the survival is ~6e-16; 1 − cdf would be 0.
        let d = ln(0.0, 1.0);
        let x = (8.0f64).exp();
        assert!(d.survival(x) > 0.0 && d.survival(x) < 1e-14);
    }

    #[test]
    fn nonmonotone_hazard() {
        // Log-normal hazard rises then falls — a shape the paper's three
        // families cannot express (exponential flat, Weibull monotone,
        // hyperexponential decreasing).
        let d = ln(6.0, 1.2);
        let hs: Vec<f64> = (1..200).map(|i| d.hazard(i as f64 * 30.0)).collect();
        let peak = hs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            peak > 0 && peak < hs.len() - 1,
            "hazard peak at boundary ({peak})"
        );
    }

    #[test]
    fn sample_and_fit_roundtrip() {
        let truth = ln(7.5, 1.1);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let data: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_lognormal(&data).unwrap();
        assert!(approx_eq(fit.mu(), 7.5, 0.01, 0.0), "mu {}", fit.mu());
        assert!(
            approx_eq(fit.sigma(), 1.1, 0.02, 0.0),
            "sigma {}",
            fit.sigma()
        );
    }

    #[test]
    fn mle_maximizes_likelihood() {
        let data = [10.0, 300.0, 55.0, 2_000.0, 120.0, 8_000.0, 40.0];
        let fit = fit_lognormal(&data).unwrap();
        let best = fit.log_likelihood(&data);
        for &(dm, ds) in &[(0.9, 1.0), (1.1, 1.0), (1.0, 0.9), (1.0, 1.1)] {
            let alt = LogNormal::new(fit.mu() * dm, fit.sigma() * ds).unwrap();
            assert!(alt.log_likelihood(&data) <= best + 1e-9, "({dm},{ds})");
        }
    }

    #[test]
    fn fit_rejects_degenerate() {
        assert!(fit_lognormal(&[5.0; 10]).is_err());
        assert!(fit_lognormal(&[]).is_err());
        assert!(fit_lognormal(&[1.0, -1.0]).is_err());
    }
}
