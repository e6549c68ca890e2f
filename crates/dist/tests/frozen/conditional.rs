//! The per-call age-conditioning path, copied verbatim: each family's
//! closed-form conditional survival, CDF and survival integral (paper
//! Eqs. 8–10), re-derived from scratch on every call, and the
//! `FutureLifetime` view that conditioned a model through them. Only the
//! forms the kernels are compared on are kept.
//!
//! This is the frozen oracle the `ConditionedDist` kernels are pinned
//! against. The kernels replicate this arithmetic operation for
//! operation, so the two agree bitwise. It is included with `#[path]` by
//! `kernel_properties.rs` (proptests against the kernels), by chs-markov's
//! `tests/frozen/gamma.rs` (the frozen Γ and `T_opt` search), and by
//! chs-bench's `gamma_bench` (the timed baseline and the
//! `kernel_identity` gate), so there is one copy.
//!
//! It is written over the families' public accessors. The Weibull tail
//! forms (`QTail`, `LogTail`) are private to the crate, so this file
//! keeps its own copy of them.

use chs_dist::{AvailabilityModel, Exponential, FittedModel, HyperExponential, Weibull};

/// The conditional (age-`t`) forms of an availability distribution, as
/// each family computed them.
pub trait Conditional: AvailabilityModel {
    /// Conditional CDF of the *future* lifetime given the resource has
    /// already been available `age` seconds (paper Eq. 8):
    /// `F_age(x) = (F(age + x) − F(age)) / (1 − F(age))`.
    fn conditional_cdf(&self, age: f64, x: f64) -> f64;

    /// Conditional survival `S_age(x) = S(age + x) / S(age)`, in a
    /// cancellation-free form per family.
    fn conditional_survival(&self, age: f64, x: f64) -> f64;

    /// `∫₀^a S_age(x) dx`, in closed form per family.
    fn conditional_survival_integral(&self, age: f64, a: f64) -> f64;
}

impl Conditional for Exponential {
    fn conditional_cdf(&self, _age: f64, x: f64) -> f64 {
        // Memoryless: F_t = F for all t.
        self.cdf(x)
    }

    fn conditional_survival(&self, _age: f64, x: f64) -> f64 {
        self.survival(x)
    }

    fn conditional_survival_integral(&self, _age: f64, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        // ∫₀^a e^{−λx} dx = (1 − e^{−λa}) / λ, age-independent.
        -(-self.lambda() * a).exp_m1() / self.lambda()
    }
}

/// `(x/β)^α`.
fn z(d: &Weibull, x: f64) -> f64 {
    (x / d.scale()).powf(d.shape())
}

/// The tail branch (`z_t ≥ 1`) of the conditional survival integral at
/// one age: `e^{z_t}(β/α)Γ(1/α)[Q(1/α, z_t) − Q(1/α, z_{t+a})]`, summed
/// in log space, switching to [`LogTail`] where `Q` underflows or the
/// difference cancels.
#[derive(Debug, Clone, Copy)]
struct QTail {
    s: f64,
    zt: f64,
    ln_g: f64,
    ln_scale_term: f64,
    q_lo: f64,
    log: Option<LogTail>,
}

impl QTail {
    const CANCELLATION: f64 = 1e-6;

    fn new(d: &Weibull, age: f64, zt: f64, ln_g: f64) -> Option<Self> {
        let s = 1.0 / d.shape();
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
            ln_scale_term: (d.scale() / d.shape()).ln(),
            q_lo,
            log,
        })
    }

    fn needs_q_hi(&self) -> bool {
        self.q_lo >= f64::MIN_POSITIVE
    }

    fn integral(&self, a: f64, zta: f64) -> Option<f64> {
        let q_hi = self
            .needs_q_hi()
            .then(|| chs_numerics::special::reg_inc_gamma_q(self.s, zta).ok())
            .flatten();
        self.integral_with(a, q_hi, || {
            chs_numerics::special::inc_gamma_cf_factor(self.s, zta).ok()
        })
    }

    fn integral_with(
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
/// its difference cancels, in log space:
/// `∫₀^a S_t = (β/α) · exp(s ln z_t + ln h(z_t) + ln(−expm1(r)))` with
/// `r = −Δz + u + ln(h(z_{t+a}) / h(z_t))`, the last term taken to first
/// order below `Δz = 1e-4`.
#[derive(Debug, Clone, Copy)]
struct LogTail {
    shape: f64,
    age: f64,
    zt: f64,
    scale_term: f64,
    h_lo: f64,
    dlnh_lo: f64,
    ln_front: f64,
}

impl LogTail {
    const LINEAR_DZ: f64 = 1e-4;

    fn new(d: &Weibull, age: f64, zt: f64) -> Option<Self> {
        let s = 1.0 / d.shape();
        let h_lo = chs_numerics::special::inc_gamma_cf_factor(s, zt).ok()?;
        Some(Self {
            shape: d.shape(),
            age,
            zt,
            scale_term: d.scale() / d.shape(),
            h_lo,
            dlnh_lo: 1.0 - s / zt - 1.0 / (zt * h_lo),
            ln_front: s * zt.ln() + h_lo.ln(),
        })
    }

    fn integral(&self, a: f64, h_hi: f64) -> f64 {
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

impl Conditional for Weibull {
    fn conditional_survival(&self, age: f64, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        if age <= 0.0 {
            return self.survival(x);
        }
        // Closed form (corrected Eq. 9): e^{(t/β)^α − ((t+x)/β)^α}.
        (z(self, age) - z(self, age + x)).exp().clamp(0.0, 1.0)
    }

    fn conditional_cdf(&self, age: f64, x: f64) -> f64 {
        1.0 - self.conditional_survival(age, x)
    }

    fn conditional_survival_integral(&self, age: f64, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        let age = age.max(0.0);
        let zt = z(self, age);
        let zta = z(self, age + a);
        let s = 1.0 / self.shape();
        // ∫₀^a S_t(x) dx
        //   = e^{z_t} (β/α) Γ(1/α) [P(1/α, z_{t+a}) − P(1/α, z_t)]
        //   = e^{z_t} (β/α) Γ(1/α) [Q(1/α, z_t) − Q(1/α, z_{t+a})]:
        // the P form in the body, the log-space Q form in the tail.
        let closed = (|| -> Option<f64> {
            let ln_g = chs_numerics::special::ln_gamma(s).ok()?;
            if zt < 1.0 {
                let scale_term = self.scale() / self.shape();
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
        // Fallback quadrature, cut where S_t(x) drops below 1e-12:
        // x_lim = β (z_t + 28)^{1/α} − t.
        let x_lim = (self.scale() * (zt + 28.0).powf(1.0 / self.shape()) - age).max(1e-9);
        let upper = a.min(x_lim);
        chs_numerics::quadrature::composite_gauss_legendre(
            |x| self.conditional_survival(age, x),
            0.0,
            upper,
            32,
        )
        .clamp(0.0, a)
    }
}

/// Fold over the age-`t` conditional phase weights `q_i ∝ p_i e^{−λ_i t}`
/// without materializing them, max-shifted so it stays exact even when
/// every `e^{−λ_i t}` underflows. `f(q_unnormalized_i, λ_i)` is
/// accumulated and the normalizer returned alongside.
fn fold_conditional<F: FnMut(f64, f64)>(d: &HyperExponential, t: f64, mut f: F) -> f64 {
    // Shift by the smallest exponent λ_min·t so at least one term is 1.
    let min_rate = d.rates().iter().cloned().fold(f64::INFINITY, f64::min);
    let mut denom = 0.0;
    for (p, l) in d.weights().iter().zip(d.rates()) {
        let q = p * (-(l - min_rate) * t).exp();
        denom += q;
        f(q, *l);
    }
    denom
}

impl Conditional for HyperExponential {
    fn conditional_survival(&self, age: f64, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        if age <= 0.0 {
            return self.survival(x);
        }
        // Corrected Eq. 10: Σ p_i e^{−λ_i (t+x)} / Σ p_i e^{−λ_i t},
        // evaluated shift-stably so extreme ages don't underflow to 0/0.
        let mut num = 0.0;
        let denom = fold_conditional(self, age, |q, l| num += q * (-l * x).exp());
        if denom <= 0.0 {
            return 0.0;
        }
        (num / denom).clamp(0.0, 1.0)
    }

    fn conditional_cdf(&self, age: f64, x: f64) -> f64 {
        1.0 - self.conditional_survival(age, x)
    }

    fn conditional_survival_integral(&self, age: f64, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        let age = age.max(0.0);
        // ∫₀^a Σ q_i e^{−λ_i x} dx = Σ q_i (1 − e^{−λ_i a}) / λ_i,
        // with q_i the (shift-stable) conditional phase weights.
        let mut num = 0.0;
        let denom = fold_conditional(self, age, |q, l| num += q * -(-l * a).exp_m1() / l);
        if denom <= 0.0 {
            return 0.0;
        }
        (num / denom).clamp(0.0, a)
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

impl Conditional for FittedModel {
    fn conditional_cdf(&self, age: f64, x: f64) -> f64 {
        delegate!(self, conditional_cdf, age, x)
    }
    fn conditional_survival(&self, age: f64, x: f64) -> f64 {
        delegate!(self, conditional_survival, age, x)
    }
    fn conditional_survival_integral(&self, age: f64, a: f64) -> f64 {
        delegate!(self, conditional_survival_integral, age, a)
    }
}

/// A borrowed view of an availability distribution conditioned on the
/// resource having already survived `age` seconds.
#[derive(Clone, Copy)]
pub struct FutureLifetime<'a> {
    model: &'a dyn Conditional,
    age: f64,
}

impl<'a> FutureLifetime<'a> {
    /// Condition `model` on survival to `age` (clamped at 0).
    pub fn new(model: &'a dyn Conditional, age: f64) -> Self {
        Self {
            model,
            age: age.max(0.0),
        }
    }

    /// Conditional CDF `F_t(x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.model.conditional_cdf(self.age, x)
    }

    /// Conditional survival `S_t(x)`.
    pub fn survival(&self, x: f64) -> f64 {
        self.model.conditional_survival(self.age, x)
    }

    /// `∫₀^a S_t(x) dx` — closed-form per family where available.
    pub fn survival_integral(&self, a: f64) -> f64 {
        self.model.conditional_survival_integral(self.age, a)
    }

    /// Truncated conditional mean `E[x | x < a]` under `F_t`, by
    /// `E[x | x < a] = (∫₀^a S_t(x) dx − a·S_t(a)) / F_t(a)`; 0 when
    /// `F_t(a) = 0`.
    pub fn truncated_mean(&self, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        let fa = self.cdf(a);
        if fa <= 0.0 {
            return 0.0;
        }
        let integral = self.survival_integral(a);
        (((integral - a * self.survival(a)) / fa).max(0.0)).min(a)
    }
}
