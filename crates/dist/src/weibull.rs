//! The Weibull distribution (paper Eqs. 3–4, 9).
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
//! `F_t(0) = 0`). We implement the corrected form; it agrees with the
//! generic Eq. 8 ratio, which the tests verify.

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

/// The tail branch (`z_t ≥ 1`) of the conditional survival integral at
/// one age: `e^{z_t}(β/α)Γ(1/α)[Q(1/α, z_t) − Q(1/α, z_{t+a})]`, summed
/// in log space. Each `Q` carries the rounding of its `e^{−z}` exponent,
/// about `ulp(z_t)` relative, so their difference keeps about
/// `ulp(z_t)·Q/diff` relative error. Where that exceeds ~2e-10, or `Q`
/// underflows outright, [`LogTail`] takes over. With no log form (`z_t <
/// 1/α + 1`, or no convergence) a difference below `1e-8·Q` returns
/// `None`, and the caller integrates by quadrature.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QTail {
    /// `s = 1/α`, the incomplete-gamma order.
    s: f64,
    zt: f64,
    /// `ln Γ(1/α)`.
    ln_g: f64,
    /// `ln(β/α)`.
    ln_scale_term: f64,
    /// `Q(1/α, z_t)`.
    q_lo: f64,
    log: Option<LogTail>,
}

impl QTail {
    /// Use the log form where `diff ≤ CANCELLATION · z_t · Q(1/α, z_t)`.
    const CANCELLATION: f64 = 1e-6;

    /// The age-only part at `age` (with `z_t = (age/β)^α ≥ 1`); `None` if
    /// `Q(1/α, z_t)` fails.
    pub(crate) fn new(d: &Weibull, age: f64, zt: f64, ln_g: f64) -> Option<Self> {
        let s = 1.0 / d.shape;
        let log = LogTail::new(d, age, zt);
        let q_lo = match log {
            // `reg_inc_gamma_q` on its continued-fraction branch, bit for
            // bit, without running the fraction twice.
            Some(tail) => (-zt + s * zt.ln() - ln_g).exp() * tail.h_lo,
            None => chs_numerics::special::reg_inc_gamma_q(s, zt).ok()?,
        };
        Some(Self {
            s,
            zt,
            ln_g,
            ln_scale_term: (d.scale / d.shape).ln(),
            q_lo,
            log,
        })
    }

    /// Whether [`QTail::integral_with`] reads `Q(1/α, z_{t+a})`: not
    /// once `Q(1/α, z_t)` is subnormal or zero.
    pub(crate) fn needs_q_hi(&self) -> bool {
        self.q_lo >= f64::MIN_POSITIVE
    }

    /// `∫₀^a S_t(x) dx` at `zta = z_{t+a}`; `None` sends the caller to
    /// quadrature.
    pub(crate) fn integral(&self, a: f64, zta: f64) -> Option<f64> {
        let q_hi = self
            .needs_q_hi()
            .then(|| chs_numerics::special::reg_inc_gamma_q(self.s, zta).ok())
            .flatten();
        self.integral_with(a, q_hi, || {
            chs_numerics::special::inc_gamma_cf_factor(self.s, zta).ok()
        })
    }

    /// [`QTail::integral`] given `q_hi = Q(1/α, z_{t+a})` (when
    /// [`needs_q_hi`](Self::needs_q_hi); `None` if it failed) and a way to
    /// get `h(z_{t+a})`, which runs only if the log form is taken. The
    /// lane path passes values it computed four at a time.
    pub(crate) fn integral_with(
        &self,
        a: f64,
        q_hi: Option<f64>,
        h_hi: impl FnOnce() -> Option<f64>,
    ) -> Option<f64> {
        if self.needs_q_hi() {
            let diff = self.q_lo - q_hi?;
            let cancels = diff <= Self::CANCELLATION * self.zt * self.q_lo;
            if !cancels || self.log.is_none() {
                if diff <= 1e-8 * self.q_lo {
                    return None;
                }
                return Some((self.zt + diff.ln() + self.ln_g + self.ln_scale_term).exp());
            }
        }
        Some(self.log?.integral(a, h_hi()?))
    }
}

/// The conditional survival integral where `Q(1/α, z_t)` underflows or
/// its difference cancels, evaluated in log space. With `s = 1/α`, `h`
/// the continued-fraction factor of `Q(s, x) = e^{−x} x^s h(x) / Γ(s)`,
/// `u = ln(1 + a/t)` and `Δz = z_{t+a} − z_t = z_t · expm1(α u)`,
///
/// ```text
/// ∫₀^a S_t = (β/α) · exp(s ln z_t + ln h(z_t) + ln(−expm1(r)))
/// r = −Δz + u + ln(h(z_{t+a}) / h(z_t))
/// ```
///
/// `r` is the log of `Q(s, z_{t+a}) / Q(s, z_t)`, built from `expm1` and
/// `ln1p` terms so that nothing differences two numbers near `z_t`. Its
/// last term is about `−Δz/z_t`. Once `Δz` is tiny, the two `h` values
/// agree to nearly every bit, and their rounding would swamp `r ≈ −Δz`.
/// So below `Δz = 1e-4` that term is `Δz · (ln h)'(z_t)` instead, with
/// `(ln h)' = 1 − s/x − 1/(x h)` (from `d ln Q/dx = −1/(x h)`). The
/// dropped second-order part is below `Δz/(2 z_t²)` of `r`.
///
/// Everything that depends on the age alone is computed once, in
/// [`LogTail::new`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogTail {
    shape: f64,
    age: f64,
    zt: f64,
    /// `β/α`.
    scale_term: f64,
    /// `h(z_t)`.
    h_lo: f64,
    /// `(ln h)'(z_t)`.
    dlnh_lo: f64,
    /// `s ln z_t + ln h(z_t)`.
    ln_front: f64,
}

impl LogTail {
    /// Below this `Δz`, `ln(h(z_{t+a}) / h(z_t))` is taken to first order.
    const LINEAR_DZ: f64 = 1e-4;

    /// The age-only part at `age` (with `z_t = (age/β)^α`); `None` where
    /// the continued fraction does not apply (`z_t < 1/α + 1`) or fails.
    pub(crate) fn new(d: &Weibull, age: f64, zt: f64) -> Option<Self> {
        let s = 1.0 / d.shape;
        let h_lo = chs_numerics::special::inc_gamma_cf_factor(s, zt).ok()?;
        Some(Self {
            shape: d.shape,
            age,
            zt,
            scale_term: d.scale / d.shape,
            h_lo,
            dlnh_lo: 1.0 - s / zt - 1.0 / (zt * h_lo),
            ln_front: s * zt.ln() + h_lo.ln(),
        })
    }

    /// `∫₀^a S_t(x) dx` given `h_hi = h(z_{t+a})`.
    pub(crate) fn integral(&self, a: f64, h_hi: f64) -> f64 {
        let u = (a / self.age).ln_1p();
        let dz = self.zt * (self.shape * u).exp_m1();
        let ln_h_ratio = if dz < Self::LINEAR_DZ {
            dz * self.dlnh_lo
        } else {
            (h_hi / self.h_lo).ln()
        };
        let r = -dz + u + ln_h_ratio;
        self.scale_term * (self.ln_front + (-r.exp_m1()).ln()).exp()
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

    fn conditional_survival(&self, age: f64, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        if age <= 0.0 {
            return self.survival(x);
        }
        // Closed form (corrected Eq. 9): e^{(t/β)^α − ((t+x)/β)^α}.
        (self.z(age) - self.z(age + x)).exp().clamp(0.0, 1.0)
    }

    fn conditional_cdf(&self, age: f64, x: f64) -> f64 {
        1.0 - self.conditional_survival(age, x)
    }

    fn conditional_pdf(&self, age: f64, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if age <= 0.0 {
            return self.pdf(x);
        }
        // f_t(x) = f(t+x) e^{(t/β)^α} = h(t+x) S_t(x)
        self.hazard(age + x) * self.conditional_survival(age, x)
    }

    fn conditional_survival_integral(&self, age: f64, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        let age = age.max(0.0);
        let zt = self.z(age);
        let zta = self.z(age + a);
        let s = 1.0 / self.shape;
        // Substituting u = (x/β)^α turns ∫ e^{−u} dx into an incomplete
        // gamma: ∫₀^a S_t(x) dx
        //   = e^{z_t} (β/α) Γ(1/α) [P(1/α, z_{t+a}) − P(1/α, z_t)]
        //   = e^{z_t} (β/α) Γ(1/α) [Q(1/α, z_t) − Q(1/α, z_{t+a})].
        // Use the P form when the arguments sit in the body (small z_t,
        // where Q ≈ 1 would cancel) and the log-space Q form in the tail
        // (where P ≈ 1 would cancel and e^{z_t} would overflow); `QTail`
        // switches to the continued-fraction form where Q underflows or
        // the difference cancels.
        let closed = (|| -> Option<f64> {
            let ln_g = chs_numerics::special::ln_gamma(s).ok()?;
            if zt < 1.0 {
                let scale_term = self.scale / self.shape;
                let p_hi = chs_numerics::special::reg_inc_gamma_p(s, zta).ok()?;
                let p_lo = chs_numerics::special::reg_inc_gamma_p(s, zt).ok()?;
                Some(zt.exp() * scale_term * ln_g.exp() * (p_hi - p_lo))
            } else {
                QTail::new(self, age, zt, ln_g)?.integral(a, zta)
            }
        })();
        if let Some(v) = closed {
            if v.is_finite() {
                return v.clamp(0.0, a);
            }
        }
        // Fallback quadrature. S_t(x) = e^{z_t − z_{t+x}} drops below
        // 1e-12 once z_{t+x} > z_t + 28, i.e. beyond
        // x_lim = β (z_t + 28)^{1/α} − t; integrating past that wastes
        // panels and (for increasing hazards at extreme ages) can miss the
        // narrow support entirely.
        let x_lim = (self.scale * (zt + 28.0).powf(1.0 / self.shape) - age).max(1e-9);
        let upper = a.min(x_lim);
        chs_numerics::quadrature::composite_gauss_legendre(
            |x| self.conditional_survival(age, x),
            0.0,
            upper,
            32,
        )
        .clamp(0.0, a)
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
    fn tail_q_lo_is_reg_inc_gamma_q_bitwise() {
        // The tail end rebuilds Q(1/α, z_t) from the continued-fraction
        // factor it keeps; it must be the library's Q bit for bit, on
        // both sides of the series/fraction switch and past underflow.
        for (shape, scale) in [(0.43, 3_409.0), (0.94, 1_080.0), (2.5, 50.0), (0.005, 1e3)] {
            let w = Weibull::new(shape, scale).unwrap();
            let s = 1.0 / shape;
            let ln_g = ln_gamma(s).unwrap();
            for zt in [1.0f64, 1.5, 2.2, 3.4, 40.0, 202.0, 700.0, 745.0, 1e4] {
                let age = scale * zt.powf(s);
                if !age.is_finite() {
                    continue;
                }
                let zt = w.z(age);
                let want = chs_numerics::special::reg_inc_gamma_q(s, zt).unwrap();
                let tail = QTail::new(&w, age, zt, ln_g).unwrap();
                assert_eq!(tail.q_lo.to_bits(), want.to_bits(), "α={shape} z_t={zt}");
            }
        }
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
    fn conditional_matches_generic_ratio() {
        let w = Weibull::paper_exemplar();
        for &age in &[10.0, 500.0, 3_409.0, 50_000.0] {
            for &x in &[1.0, 100.0, 5_000.0] {
                let generic = (w.cdf(age + x) - w.cdf(age)) / w.survival(age);
                let closed = w.conditional_cdf(age, x);
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
        let s_young = w.conditional_survival(60.0, 3_600.0);
        let s_old = w.conditional_survival(86_400.0, 3_600.0);
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
