//! Age-conditioned evaluation kernels: per-family snapshots of the
//! conditional future-lifetime distribution with every age-dependent
//! invariant hoisted out of the per-probe path.
//!
//! This is the crate's one implementation of the conditional
//! future-lifetime law `F_t` (paper Eqs. 8–10). The `T_opt` search
//! evaluates Γ(T) dozens of times per conditioning age, and each Γ needs
//! the conditional survival, CDF and survival integral at one horizon.
//! Everything that depends on the age alone is derived once, at
//! construction: the hyperexponential's posterior phase weights (a
//! mixture of exponentials conditioned on age is *again* a mixture with
//! the same rates and reweighted phases), and the Weibull's `z_t =
//! (t/β)^α`, `ln Γ(1/α)` and the lower incomplete-gamma endpoint. Each
//! probe then pays only the horizon-dependent arithmetic (one `powf` +
//! one incomplete gamma for Weibull, one `exp`/`exp_m1` pair per phase
//! for the hyperexponential, a single `exp` for the memoryless
//! exponential).
//!
//! Dispatch is an enum monomorphized over [`FittedModel`]'s variants —
//! no `dyn` indirection in the hot loop.
//!
//! Every kernel replicates, operation for operation, the per-call
//! arithmetic of the frozen test oracle
//! `crates/dist/tests/frozen/conditional.rs` — same association, same
//! branch structure, same guard ordering — so the two are bit-identical
//! wherever a computation is reached the same way (the differential
//! suites in `chs-dist` and `chs-markov` pin this).

use crate::{AvailabilityModel, Exponential, FittedModel, HyperExponential, Weibull};

/// Relaxed atomic counters for the benchmark harness: how many Weibull
/// survival-integral probes abandoned the closed forms and took the
/// composite Gauss–Legendre fallback. Compiled out unless the
/// `bench-counters` feature is on, so the hot path stays branch-free in
/// normal builds. `gamma_bench` reads these to *prove* its Weibull tail
/// band actually exercised the quadrature path rather than silently
/// staying on the closed forms.
#[cfg(feature = "bench-counters")]
pub mod counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Probes (lanes) that integrated the Weibull survival by quadrature.
    pub static QUAD_FALLBACKS: AtomicU64 = AtomicU64::new(0);

    /// Zero the counters before a measured section.
    pub fn reset() {
        QUAD_FALLBACKS.store(0, Ordering::Relaxed);
    }

    /// Quadrature-fallback probes since the last [`reset`].
    pub fn quad_fallbacks() -> u64 {
        QUAD_FALLBACKS.load(Ordering::Relaxed)
    }
}

/// A borrowed reference to one of the three paper families. This is the
/// "which family?" question answered once, so the optimizer's inner loop
/// never asks it again.
#[derive(Debug, Clone, Copy)]
pub enum DistRef<'a> {
    /// Memoryless exponential.
    Exponential(&'a Exponential),
    /// Weibull (the paper's exemplar family).
    Weibull(&'a Weibull),
    /// k-phase hyperexponential.
    HyperExponential(&'a HyperExponential),
}

impl<'a> From<&'a Exponential> for DistRef<'a> {
    fn from(d: &'a Exponential) -> Self {
        DistRef::Exponential(d)
    }
}

impl<'a> From<&'a Weibull> for DistRef<'a> {
    fn from(d: &'a Weibull) -> Self {
        DistRef::Weibull(d)
    }
}

impl<'a> From<&'a HyperExponential> for DistRef<'a> {
    fn from(d: &'a HyperExponential) -> Self {
        DistRef::HyperExponential(d)
    }
}

impl<'a> From<&'a FittedModel> for DistRef<'a> {
    fn from(m: &'a FittedModel) -> Self {
        match m {
            FittedModel::Exponential(d) => DistRef::Exponential(d),
            FittedModel::Weibull(d) => DistRef::Weibull(d),
            FittedModel::HyperExponential(d) => DistRef::HyperExponential(d),
        }
    }
}

impl DistRef<'_> {
    /// Expected lifetime `E[X]` of the underlying distribution.
    pub fn mean(self) -> f64 {
        match self {
            DistRef::Exponential(d) => d.mean(),
            DistRef::Weibull(d) => d.mean(),
            DistRef::HyperExponential(d) => d.mean(),
        }
    }

    /// Build the conditioned kernel for `age` (clamped at 0).
    pub fn condition(self, age: f64) -> ConditionedDist {
        match self {
            DistRef::Exponential(d) => ConditionedDist::Exponential(ExpKernel::new(d, age)),
            DistRef::Weibull(d) => ConditionedDist::Weibull(WeibullKernel::new(d, age)),
            DistRef::HyperExponential(d) => {
                ConditionedDist::HyperExponential(HyperKernel::new(d, age))
            }
        }
    }
}

/// A per-family snapshot of the age-`t` conditional future-lifetime
/// distribution. Construction does all conditioning work; the probe
/// methods ([`survival`](ConditionedDist::survival),
/// [`survival_integral`](ConditionedDist::survival_integral),
/// [`truncated_mean`](ConditionedDist::truncated_mean)) do only
/// horizon-dependent arithmetic.
///
/// The family kernels own their (few) parameters outright, so a kernel
/// can outlive the borrow it was built from, which is what lets a policy
/// own both its `Arc<FittedModel>` and a long-lived optimizer over it.
#[derive(Debug, Clone)]
pub enum ConditionedDist {
    /// Conditioned exponential (the identity: memoryless).
    Exponential(ExpKernel),
    /// Conditioned Weibull with `z_t`, `ln Γ(1/α)` and the fixed
    /// incomplete-gamma endpoint precomputed.
    Weibull(WeibullKernel),
    /// Conditioned hyperexponential with posterior phase weights
    /// precomputed.
    HyperExponential(HyperKernel),
}

impl ConditionedDist {
    /// Condition `dist` on survival to `age` (clamped at 0).
    pub fn new<'a>(dist: impl Into<DistRef<'a>>, age: f64) -> Self {
        dist.into().condition(age)
    }

    /// The conditioning age `t`.
    pub fn age(&self) -> f64 {
        match self {
            ConditionedDist::Exponential(k) => k.age,
            ConditionedDist::Weibull(k) => k.age,
            ConditionedDist::HyperExponential(k) => k.age,
        }
    }

    /// Conditional survival `S_t(x)`.
    pub fn survival(&self, x: f64) -> f64 {
        match self {
            ConditionedDist::Exponential(k) => k.survival(x),
            ConditionedDist::Weibull(k) => k.survival(x),
            ConditionedDist::HyperExponential(k) => k.survival(x),
        }
    }

    /// Conditional CDF `F_t(x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        match self {
            ConditionedDist::Exponential(k) => k.cdf(x),
            ConditionedDist::Weibull(k) => 1.0 - k.survival(x),
            ConditionedDist::HyperExponential(k) => 1.0 - k.survival(x),
        }
    }

    /// `∫₀^a S_t(x) dx`.
    pub fn survival_integral(&self, a: f64) -> f64 {
        match self {
            ConditionedDist::Exponential(k) => k.survival_integral(a),
            ConditionedDist::Weibull(k) => k.survival_integral(a),
            ConditionedDist::HyperExponential(k) => k.survival_integral(a),
        }
    }

    /// Truncated conditional mean `E[x | x < a]` under `F_t`, by the
    /// integration-by-parts identity
    /// `E[x | x < a] = (∫₀^a S_t(x) dx − a·S_t(a)) / F_t(a)`, clamped to
    /// `[0, a]`. This is the `K02`/`K22` cost of the paper's Markov
    /// model. Returns 0 when `a ≤ 0` or `F_t(a) = 0` (failure within `a`
    /// is impossible, so the caller's `P·K` product is 0 either way).
    pub fn truncated_mean(&self, a: f64) -> f64 {
        self.survival_and_truncated_mean(a).1
    }

    /// `(S_t(a), E[x | x < a])` in one call — the pair every Γ probe
    /// needs, sharing the horizon-dependent work between them (the
    /// Weibull computes `z_{t+a}` once instead of three times).
    pub fn survival_and_truncated_mean(&self, a: f64) -> (f64, f64) {
        match self {
            ConditionedDist::Exponential(k) => k.eval(a),
            ConditionedDist::Weibull(k) => k.eval(a),
            ConditionedDist::HyperExponential(k) => k.eval(a),
        }
    }

    /// Lane-batched [`survival_and_truncated_mean`]: four probe horizons
    /// through one kernel pass.
    ///
    /// The per-age conditioning invariants are already hoisted into the
    /// kernel; this additionally shares the per-*call* work across the
    /// four probes — one dispatch, one `ln Γ(1/α)` reuse across the
    /// batched incomplete-gamma evaluations (Weibull), one fused
    /// survival + integral phase sweep per lane (hyperexponential), and
    /// one four-lane Gauss–Legendre sweep when the Weibull integral
    /// falls back to quadrature.
    ///
    /// Accuracy contract (pinned by the `lane_differential` proptest
    /// suite): exponential and Weibull lanes are **bit-identical** to
    /// four scalar calls (the lane code replicates the scalar operation
    /// order, freezing each incomplete-gamma lane at its own
    /// convergence point); hyperexponential *survival* is bit-identical
    /// while the survival integral deviates ≤ ~1e-15 relative — the
    /// fused sweep derives `expm1(−λx)` from the already-computed
    /// `e^{−λx}` in the decayed regime `λx ≥ ln 2` and multiplies by
    /// precomputed reciprocal rates. The truncated mean inherits that
    /// deviation through its `1/F(a)` conditioning (so its *raw*
    /// relative error is unbounded as `F(a) → 0`), but every Γ built
    /// from the pair multiplies `F(a)` back in and stays within 1e-12
    /// relative of the scalar path.
    ///
    /// [`survival_and_truncated_mean`]: Self::survival_and_truncated_mean
    pub fn survival_and_truncated_mean_x4(&self, a: [f64; 4]) -> [(f64, f64); 4] {
        match self {
            ConditionedDist::Exponential(k) => a.map(|ai| k.eval(ai)),
            ConditionedDist::Weibull(k) => k.eval_x4(a),
            ConditionedDist::HyperExponential(k) => k.eval_x4(a),
        }
    }
}

/// Conditioned exponential: memorylessness makes conditioning the
/// identity, so the kernel is just the rate.
#[derive(Debug, Clone, Copy)]
pub struct ExpKernel {
    lambda: f64,
    age: f64,
}

impl ExpKernel {
    fn new(d: &Exponential, age: f64) -> Self {
        Self {
            lambda: d.lambda(),
            age: age.max(0.0),
        }
    }

    #[inline]
    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-self.lambda * x).exp()
        }
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            // expm1 form, matching `Exponential::cdf` bit-for-bit (NOT
            // 1 − survival, which differs by ulps for small λx).
            -(-self.lambda * x).exp_m1()
        }
    }

    #[inline]
    fn survival_integral(&self, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        -(-self.lambda * a).exp_m1() / self.lambda
    }

    fn eval(&self, a: f64) -> (f64, f64) {
        let s = self.survival(a);
        if a <= 0.0 {
            return (s, 0.0);
        }
        let fa = self.cdf(a);
        if fa <= 0.0 {
            return (s, 0.0);
        }
        let integral = self.survival_integral(a);
        (s, (((integral - a * s) / fa).max(0.0)).min(a))
    }
}

/// Conditioned Weibull. Precomputes `z_t = (t/β)^α`, `ln Γ(1/α)`, the
/// `z_t`-endpoint of the incomplete-gamma pair the closed-form survival
/// integral needs (P form in the body, log-space Q form in the tail,
/// continued-fraction factor where `Q` underflows), and the
/// quadrature-fallback cutoff `x_lim` — leaving one `powf` and one
/// incomplete-gamma evaluation per probe.
#[derive(Debug, Clone, Copy)]
pub struct WeibullKernel {
    shape: f64,
    scale: f64,
    age: f64,
    /// `z_t = (age/β)^α`.
    zt: f64,
    /// `s = 1/α`, the incomplete-gamma order.
    inv_shape: f64,
    /// `ln Γ(1/α)`; `None` if the Lanczos evaluation failed (then the
    /// closed form is unavailable and probes fall back to quadrature,
    /// exactly as the original per-call path did).
    ln_g: Option<f64>,
    /// Body branch (`z_t < 1`): `(front, P(1/α, z_t))` with
    /// `front = e^{z_t}·(β/α)·Γ(1/α)` multiplied in the original's exact
    /// association order.
    front_p: Option<(f64, f64)>,
    /// Tail branch (`z_t ≥ 1`): the `z_t` end of its closed form.
    tail: Option<QTail>,
    /// Quadrature cutoff: `S_t` is below 1e-12 past this horizon.
    x_lim: f64,
}

impl WeibullKernel {
    fn new(d: &Weibull, age: f64) -> Self {
        let age = age.max(0.0);
        let shape = d.shape();
        let scale = d.scale();
        let zt = (age / scale).powf(shape);
        let inv_shape = 1.0 / shape;
        let ln_g = chs_numerics::special::ln_gamma(inv_shape).ok();
        let scale_term = scale / shape;
        let front_p = if zt < 1.0 {
            match (
                ln_g,
                chs_numerics::special::reg_inc_gamma_p(inv_shape, zt).ok(),
            ) {
                (Some(lg), Some(p_lo)) => Some((zt.exp() * scale_term * lg.exp(), p_lo)),
                _ => None,
            }
        } else {
            None
        };
        let tail = if zt >= 1.0 {
            ln_g.and_then(|lg| QTail::new(d, age, zt, lg))
        } else {
            None
        };
        let x_lim = (scale * (zt + 28.0).powf(1.0 / shape) - age).max(1e-9);
        Self {
            shape,
            scale,
            age,
            zt,
            inv_shape,
            ln_g,
            front_p,
            tail,
            x_lim,
        }
    }

    /// `z_{t+x} = ((t+x)/β)^α` — the one per-probe `powf`.
    #[inline]
    fn z_shifted(&self, x: f64) -> f64 {
        ((self.age + x) / self.scale).powf(self.shape)
    }

    #[inline]
    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        self.survival_with(self.z_shifted(x))
    }

    /// Survival given a precomputed `z_{t+x}` (shared with the integral).
    /// At `age = 0`, `z_t = 0` and `(0 − z).exp()` is bitwise
    /// `(−z).exp()`, so one formula covers both of the original's
    /// branches; the clamp is a no-op on `[0, 1]` values.
    #[inline]
    fn survival_with(&self, zta: f64) -> f64 {
        (self.zt - zta).exp().clamp(0.0, 1.0)
    }

    #[inline]
    fn survival_integral(&self, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        self.integral_with(a, self.z_shifted(a))
    }

    /// The closed-form survival integral with quadrature fallback: the
    /// P form in the body, the log-space Q form in the tail, the
    /// continued-fraction form where `Q(1/α, z_t)` underflows or its
    /// difference cancels, Gauss–Legendre capped at `x_lim` when no
    /// closed form holds.
    fn integral_with(&self, a: f64, zta: f64) -> f64 {
        let closed = if self.zt < 1.0 {
            self.front_p.and_then(|(front, p_lo)| {
                chs_numerics::special::reg_inc_gamma_p(self.inv_shape, zta)
                    .ok()
                    .map(|p_hi| front * (p_hi - p_lo))
            })
        } else {
            self.tail.and_then(|tail| tail.integral(a, zta))
        };
        if let Some(v) = closed {
            if v.is_finite() {
                return v.clamp(0.0, a);
            }
        }
        #[cfg(feature = "bench-counters")]
        counters::QUAD_FALLBACKS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let upper = a.min(self.x_lim);
        chs_numerics::quadrature::composite_gauss_legendre(|x| self.survival(x), 0.0, upper, 32)
            .clamp(0.0, a)
    }

    fn eval(&self, a: f64) -> (f64, f64) {
        if a <= 0.0 {
            return (1.0, 0.0);
        }
        let zta = self.z_shifted(a);
        let s = self.survival_with(zta);
        let fa = 1.0 - s;
        if fa <= 0.0 {
            return (s, 0.0);
        }
        let integral = self.integral_with(a, zta);
        (s, (((integral - a * s) / fa).max(0.0)).min(a))
    }

    /// Four-probe [`WeibullKernel::eval`], bit-identical per lane.
    ///
    /// Per-lane `z_{t+x}`/survival/guard arithmetic is the scalar
    /// sequence verbatim; the incomplete-gamma evaluations run through
    /// the lane-lockstep routines with this kernel's `ln Γ(1/α)` passed
    /// in once (the same value the scalar path recomputes per call),
    /// and any lanes whose closed form cancels or overflows integrate
    /// together in one four-lane Gauss–Legendre sweep.
    fn eval_x4(&self, a: [f64; 4]) -> [(f64, f64); 4] {
        let mut out = [(1.0f64, 0.0f64); 4];
        let mut live = [false; 4];
        let mut zta = [0.0f64; 4];
        let mut s = [0.0f64; 4];
        let mut fa = [0.0f64; 4];
        for l in 0..4 {
            if a[l] <= 0.0 {
                continue;
            }
            zta[l] = self.z_shifted(a[l]);
            s[l] = self.survival_with(zta[l]);
            fa[l] = 1.0 - s[l];
            if fa[l] <= 0.0 {
                out[l] = (s[l], 0.0);
                continue;
            }
            live[l] = true;
        }
        if live == [false; 4] {
            return out;
        }
        let integral = self.integral_with_x4(a, zta, live);
        for l in 0..4 {
            if live[l] {
                out[l] = (
                    s[l],
                    (((integral[l] - a[l] * s[l]) / fa[l]).max(0.0)).min(a[l]),
                );
            }
        }
        out
    }

    /// Lane version of [`WeibullKernel::integral_with`]: closed forms
    /// batched through the shared `ln Γ(1/α)`, quadrature-fallback
    /// lanes integrated in one sweep (non-fallback lanes ride along
    /// with a zero-width interval). Each lane takes exactly the branch
    /// its scalar evaluation takes and produces the same bits.
    fn integral_with_x4(&self, a: [f64; 4], zta: [f64; 4], live: [bool; 4]) -> [f64; 4] {
        let closed: [Option<f64>; 4] = match self.ln_g {
            Some(gln) if self.zt < 1.0 => match self.front_p {
                Some((front, p_lo)) => {
                    chs_numerics::special::reg_inc_gamma_p_x4(self.inv_shape, zta, gln)
                        .map(|p| p.map(|p_hi| front * (p_hi - p_lo)))
                }
                None => [None; 4],
            },
            Some(gln) => match self.tail {
                Some(tail) if tail.needs_q_hi() => {
                    let q_hi = chs_numerics::special::reg_inc_gamma_q_x4(self.inv_shape, zta, gln);
                    std::array::from_fn(|l| {
                        tail.integral_with(a[l], q_hi[l], || {
                            chs_numerics::special::inc_gamma_cf_factor(self.inv_shape, zta[l]).ok()
                        })
                    })
                }
                Some(tail) => {
                    let h_hi = chs_numerics::special::inc_gamma_cf_factor_x4(self.inv_shape, zta);
                    std::array::from_fn(|l| tail.integral_with(a[l], None, || h_hi[l]))
                }
                None => [None; 4],
            },
            None => [None; 4],
        };
        let mut out = [0.0f64; 4];
        let mut quad = [false; 4];
        let mut uppers = [0.0f64; 4];
        for l in 0..4 {
            if !live[l] {
                continue;
            }
            if let Some(v) = closed[l] {
                if v.is_finite() {
                    out[l] = v.clamp(0.0, a[l]);
                    continue;
                }
            }
            quad[l] = true;
            uppers[l] = a[l].min(self.x_lim);
        }
        if quad != [false; 4] {
            #[cfg(feature = "bench-counters")]
            counters::QUAD_FALLBACKS.fetch_add(
                quad.iter().filter(|&&q| q).count() as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
            let swept = chs_numerics::quadrature::composite_gauss_legendre_x4(
                |xs| xs.map(|x| self.survival(x)),
                0.0,
                uppers,
                32,
            );
            for l in 0..4 {
                if quad[l] {
                    out[l] = swept[l].clamp(0.0, a[l]);
                }
            }
        }
        out
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
struct QTail {
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

    /// Whether [`QTail::integral_with`] reads `Q(1/α, z_{t+a})`: not
    /// once `Q(1/α, z_t)` is subnormal or zero.
    fn needs_q_hi(&self) -> bool {
        self.q_lo >= f64::MIN_POSITIVE
    }

    /// `∫₀^a S_t(x) dx` at `zta = z_{t+a}`; `None` sends the caller to
    /// quadrature.
    fn integral(&self, a: f64, zta: f64) -> Option<f64> {
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
struct LogTail {
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

    /// `∫₀^a S_t(x) dx` given `h_hi = h(z_{t+a})`.
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

/// Conditioned hyperexponential: a mixture of exponentials conditioned
/// on age `t` is again a mixture with the same rates and posterior
/// weights `q_i ∝ p_i e^{−λ_i t}`. The kernel stores the (unnormalized,
/// max-shifted — so extreme ages never underflow to 0/0) posterior
/// weights and their normalizer, collapsing every probe to one
/// `exp`/`exp_m1` per phase.
#[derive(Debug, Clone)]
pub struct HyperKernel {
    weights: Vec<f64>,
    rates: Vec<f64>,
    /// `1/λ_i`, for the lane path's division-free integral fold.
    inv_rates: Vec<f64>,
    /// Unnormalized posterior phase weights `p_i e^{−(λ_i−λ_min) t}`.
    q: Vec<f64>,
    /// `Σ q_i`.
    denom: f64,
    age: f64,
}

impl HyperKernel {
    fn new(d: &HyperExponential, age: f64) -> Self {
        let age = age.max(0.0);
        let weights = d.weights().to_vec();
        let rates = d.rates().to_vec();
        let inv_rates: Vec<f64> = rates.iter().map(|l| 1.0 / l).collect();
        // Shift by the smallest exponent λ_min·t so at least one term is 1
        // and extreme ages never underflow to 0/0; at age 0 every factor
        // is exactly 1.0, so q == weights bitwise.
        let min_rate = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut denom = 0.0;
        let mut q = Vec::with_capacity(rates.len());
        for (p, l) in weights.iter().zip(&rates) {
            let qi = p * (-(l - min_rate) * age).exp();
            denom += qi;
            q.push(qi);
        }
        Self {
            weights,
            rates,
            inv_rates,
            q,
            denom,
            age,
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        if self.age <= 0.0 {
            // Matches the original's `age <= 0` branch: the plain
            // mixture survival, no normalizer division.
            return self
                .weights
                .iter()
                .zip(&self.rates)
                .map(|(p, l)| p * (-l * x).exp())
                .sum();
        }
        let mut num = 0.0;
        for (q, l) in self.q.iter().zip(&self.rates) {
            num += q * (-l * x).exp();
        }
        if self.denom <= 0.0 {
            return 0.0;
        }
        (num / self.denom).clamp(0.0, 1.0)
    }

    fn survival_integral(&self, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        // The original integral takes the fold path at every age
        // (including 0, where q == weights exactly), so this does too.
        let mut num = 0.0;
        for (q, l) in self.q.iter().zip(&self.rates) {
            num += q * -(-l * a).exp_m1() / l;
        }
        if self.denom <= 0.0 {
            return 0.0;
        }
        (num / self.denom).clamp(0.0, a)
    }

    fn eval(&self, a: f64) -> (f64, f64) {
        let s = self.survival(a);
        if a <= 0.0 {
            return (s, 0.0);
        }
        let fa = 1.0 - s;
        if fa <= 0.0 {
            return (s, 0.0);
        }
        let integral = self.survival_integral(a);
        (s, (((integral - a * s) / fa).max(0.0)).min(a))
    }

    /// Four-probe [`HyperKernel::eval`] through the fused phase sweep.
    fn eval_x4(&self, a: [f64; 4]) -> [(f64, f64); 4] {
        a.map(|ai| self.eval_fused(ai))
    }

    /// One-pass survival + integral evaluation for the lane path: each
    /// phase's `e^{−λx}` is computed once and reused for the survival
    /// numerator *and* — in the decayed regime `λx ≥ ln 2`, where the
    /// subtraction differences a quantity ≥ 1/2 and is exact to one ulp
    /// — for `expm1(−λx) = e^{−λx} − 1`, skipping the second libm call
    /// that costs twice an `exp`; the integral's per-phase division
    /// becomes a multiplication by the precomputed reciprocal rate.
    ///
    /// Survival is bit-identical to [`HyperKernel::survival`] (same
    /// fold, same operands). The integral deviates from the scalar path
    /// by ≤ ~1e-15 relative: both rewrites perturb only the individual
    /// terms of a non-negative sum, so no cancellation amplifies them.
    /// Outside the decayed regime `expm1` stays a libm call — deriving
    /// it from `e^{−λx} ≈ 1` would lose all significant digits exactly
    /// where the CDF `1 − S` is small and most error-sensitive.
    fn eval_fused(&self, a: f64) -> (f64, f64) {
        if a <= 0.0 {
            return (1.0, 0.0);
        }
        let mut num_s = 0.0;
        let mut num_i = 0.0;
        for ((q, l), inv_l) in self.q.iter().zip(&self.rates).zip(&self.inv_rates) {
            let x = -l * a;
            let e = x.exp();
            num_s += q * e;
            let em1 = if x <= -std::f64::consts::LN_2 {
                e - 1.0
            } else {
                x.exp_m1()
            };
            num_i += q * -em1 * inv_l;
        }
        // `q == weights` bitwise at age 0, so the plain-mixture branch
        // of `survival` is the same fold.
        let s = if self.age <= 0.0 {
            num_s
        } else if self.denom <= 0.0 {
            0.0
        } else {
            (num_s / self.denom).clamp(0.0, 1.0)
        };
        let fa = 1.0 - s;
        if fa <= 0.0 {
            return (s, 0.0);
        }
        let integral = if self.denom <= 0.0 {
            0.0
        } else {
            (num_i / self.denom).clamp(0.0, a)
        };
        (s, (((integral - a * s) / fa).max(0.0)).min(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_numerics::approx_eq;

    fn bimodal() -> HyperExponential {
        HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap()
    }

    #[test]
    fn tail_q_lo_is_reg_inc_gamma_q_bitwise() {
        // The tail end rebuilds Q(1/α, z_t) from the continued-fraction
        // factor it keeps; it must be the library's Q bit for bit, on
        // both sides of the series/fraction switch and past underflow.
        for (shape, scale) in [(0.43, 3_409.0), (0.94, 1_080.0), (2.5, 50.0), (0.005, 1e3)] {
            let w = Weibull::new(shape, scale).unwrap();
            let s = 1.0 / shape;
            let ln_g = chs_numerics::special::ln_gamma(s).unwrap();
            for zt in [1.0f64, 1.5, 2.2, 3.4, 40.0, 202.0, 700.0, 745.0, 1e4] {
                let age = scale * zt.powf(s);
                if !age.is_finite() {
                    continue;
                }
                let zt = (age / w.scale()).powf(w.shape());
                let want = chs_numerics::special::reg_inc_gamma_q(s, zt).unwrap();
                let tail = QTail::new(&w, age, zt, ln_g).unwrap();
                assert_eq!(tail.q_lo.to_bits(), want.to_bits(), "α={shape} z_t={zt}");
            }
        }
    }

    #[test]
    fn fitted_kernel_outlives_its_borrow_and_is_concrete() {
        let kern = {
            let m = FittedModel::Weibull(Weibull::paper_exemplar());
            ConditionedDist::new(&m, 500.0)
        };
        // The borrow of `m` ended above; the kernel still evaluates.
        assert!(matches!(kern, ConditionedDist::Weibull(_)));
        let w = Weibull::paper_exemplar();
        assert_eq!(
            kern.survival(1_000.0).to_bits(),
            ConditionedDist::new(&w, 500.0).survival(1_000.0).to_bits()
        );
    }

    #[test]
    fn combined_eval_matches_separate_calls() {
        let h = bimodal();
        let kern = ConditionedDist::new(&h, 12_345.0);
        for &a in &[1.0, 410.0, 30_000.0] {
            let (s, tm) = kern.survival_and_truncated_mean(a);
            assert_eq!(s.to_bits(), kern.survival(a).to_bits());
            assert_eq!(tm.to_bits(), kern.truncated_mean(a).to_bits());
        }
    }

    /// Exponential and Weibull lanes replicate the scalar operation
    /// order exactly; hyperexponential survival does too, while its
    /// truncated mean rides the fused sweep (≤ ~1e-15 relative).
    #[test]
    fn x4_matches_scalar_per_family() {
        let e = Exponential::from_mean(3_600.0).unwrap();
        let w = Weibull::paper_exemplar();
        let h = bimodal();
        let refs = [DistRef::from(&e), DistRef::from(&w), DistRef::from(&h)];
        let batches = [
            [0.5, 110.0, 1_234.5, 250_000.0],
            [-1.0, 0.0, 10.0, 1e7],
            [42.0, 42.0, 42.0, 42.0],
            [1e-3, 3.3, 7e4, 1e10],
        ];
        for dist_ref in refs {
            for &age in &[0.0, 1.0, 3_409.0, 1e6, 1e10] {
                let kern = dist_ref.condition(age);
                let bitwise = !matches!(kern, ConditionedDist::HyperExponential(_));
                for batch in batches {
                    let lanes = kern.survival_and_truncated_mean_x4(batch);
                    for l in 0..4 {
                        let (s, tm) = kern.survival_and_truncated_mean(batch[l]);
                        assert_eq!(
                            lanes[l].0.to_bits(),
                            s.to_bits(),
                            "survival age={age} lane {l}"
                        );
                        if bitwise {
                            assert_eq!(lanes[l].1.to_bits(), tm.to_bits(), "tm age={age} lane {l}");
                        } else {
                            // tm divides by the CDF, so gate the
                            // product that re-enters Γ: |Δtm|·F(a) is
                            // bounded by the integral's absolute
                            // deviation (≤ ~1e-15 · max phase mean).
                            let fa = 1.0 - s;
                            let dev = (lanes[l].1 - tm).abs() * fa;
                            assert!(dev <= 1e-10, "tm age={age} lane {l} dev={dev:e}");
                        }
                    }
                }
            }
        }
    }

    /// Lane batches must match four scalar evaluations bit for bit.
    fn assert_x4_bitwise(kern: &ConditionedDist, batch: [f64; 4]) {
        let lanes = kern.survival_and_truncated_mean_x4(batch);
        for l in 0..4 {
            let (s, tm) = kern.survival_and_truncated_mean(batch[l]);
            assert_eq!(lanes[l].0.to_bits(), s.to_bits(), "survival lane {l}");
            assert_eq!(lanes[l].1.to_bits(), tm.to_bits(), "tm lane {l}");
        }
    }

    /// At α = 0.005 the body form's `e^{z_t}(β/α)Γ(1/α)` overflows
    /// (Γ(200) > f64::MAX), so every probe routes lanes through the
    /// batched quadrature fallback, which must match the scalar fallback
    /// bit for bit (same panel arithmetic, same integrand).
    #[test]
    fn x4_quadrature_fallback_band_bitwise() {
        let w = Weibull::new(0.005, 1_000.0).unwrap();
        for age in [0.0, 10.0] {
            let kern = ConditionedDist::new(&w, age);
            assert_x4_bitwise(&kern, [500.0, 2_000.0, 5_000.0, 20_000.0]);
        }
    }

    /// The subnormal-Q ages evaluate lanes through the lockstep
    /// continued-fraction factors, bit for bit with the scalar path.
    #[test]
    fn x4_log_tail_band_bitwise() {
        let w = Weibull::new(0.9387113626453845, 1080.429178916454).unwrap();
        for age in [1_238_663.234801525, 1.6e6, 2.4e6] {
            let kern = ConditionedDist::new(&w, age);
            assert!(matches!(
                kern,
                ConditionedDist::Weibull(WeibullKernel {
                    tail: Some(tail),
                    ..
                }) if !tail.needs_q_hi()
            ));
            assert_x4_bitwise(&kern, [500.0, 2_000.0, 5_000.0, 20_000.0]);
            assert_x4_bitwise(&kern, [1.0, 950.0, 1e6, -3.0]);
        }
    }

    #[test]
    fn age_zero_equals_unconditional() {
        let w = Weibull::paper_exemplar();
        let kern = ConditionedDist::new(&w, 0.0);
        for &x in &[1.0, 100.0, 10_000.0] {
            assert!(approx_eq(kern.cdf(x), w.cdf(x), 1e-13, 1e-14));
        }
    }

    #[test]
    fn exponential_truncated_mean_closed_form() {
        // E[x | x < a] = 1/λ − a e^{−λa} / (1 − e^{−λa})
        let e = Exponential::new(0.01).unwrap();
        let kern = ConditionedDist::new(&e, 1_234.0); // age irrelevant
        for &a in &[10.0, 100.0, 1_000.0] {
            let la: f64 = 0.01 * a;
            let expected = 100.0 - a * (-la).exp() / (1.0 - (-la).exp());
            let got = kern.truncated_mean(a);
            assert!(
                approx_eq(got, expected, 1e-7, 1e-8),
                "a={a} got={got} want={expected}"
            );
        }
    }

    #[test]
    fn truncated_mean_below_truncation_point() {
        let h = bimodal();
        for &age in &[0.0, 500.0, 20_000.0] {
            let kern = ConditionedDist::new(&h, age);
            for &a in &[50.0, 600.0, 10_000.0] {
                let m = kern.truncated_mean(a);
                assert!(m > 0.0 && m < a, "age={age} a={a} m={m}");
            }
        }
    }

    #[test]
    fn truncated_mean_approaches_conditional_mean() {
        // As a → ∞ the truncated mean approaches the full conditional mean;
        // for the exponential that is 1/λ by memorylessness.
        let e = Exponential::new(0.002).unwrap();
        let m = ConditionedDist::new(&e, 777.0).truncated_mean(50_000.0);
        assert!(approx_eq(m, 500.0, 1e-4, 0.1), "m={m}");
    }

    #[test]
    fn truncated_mean_zero_cases() {
        let w = Weibull::paper_exemplar();
        let kern = ConditionedDist::new(&w, 10.0);
        assert_eq!(kern.truncated_mean(0.0), 0.0);
        assert_eq!(kern.truncated_mean(-5.0), 0.0);
    }

    #[test]
    fn survival_integral_closed_forms_match_quadrature() {
        // Every family's closed form must agree with brute-force
        // integration of its conditional survival.
        let w = Weibull::paper_exemplar();
        let w2 = Weibull::new(2.2, 800.0).unwrap();
        let e = Exponential::new(0.003).unwrap();
        let h = bimodal();
        let models = [
            DistRef::from(&w),
            DistRef::from(&w2),
            DistRef::from(&e),
            DistRef::from(&h),
        ];
        for (mi, m) in models.into_iter().enumerate() {
            for &age in &[0.0, 50.0, 2_000.0, 40_000.0] {
                let kern = m.condition(age);
                for &a in &[5.0, 160.0, 4_000.0, 60_000.0] {
                    let closed = kern.survival_integral(a);
                    let brute = chs_numerics::quadrature::adaptive_simpson(
                        |x| kern.survival(x),
                        0.0,
                        a,
                        1e-10 * a,
                    )
                    .unwrap();
                    assert!(
                        (closed - brute).abs() < 1e-6 * brute.max(1.0),
                        "model {mi} age={age} a={a}: closed {closed} vs brute {brute}"
                    );
                }
            }
        }
    }

    #[test]
    fn survival_integral_extreme_age_stable() {
        // Deep-tail ages: the closed forms (or their fallbacks) must stay
        // finite, positive, and bounded by a.
        let w = Weibull::paper_exemplar();
        let h = HyperExponential::new(&[(0.9, 0.01), (0.1, 1e-5)]).unwrap();
        for &age in &[1e6, 1e8, 1e10] {
            for m in [DistRef::from(&w), DistRef::from(&h)] {
                let v = m.condition(age).survival_integral(1_000.0);
                assert!(
                    v.is_finite() && (0.0..=1_000.0).contains(&v),
                    "age={age} v={v}"
                );
                // At these ages both distributions are dominated by their
                // flattest regime, so survival over 1000 s is near-certain.
                assert!(v > 500.0, "age={age} v={v}");
            }
        }
    }

    #[test]
    fn negative_age_clamps() {
        let w = Weibull::paper_exemplar();
        let kern = ConditionedDist::new(&w, -3.0);
        assert_eq!(kern.age(), 0.0);
        assert_eq!(
            kern.survival(100.0).to_bits(),
            ConditionedDist::new(&w, 0.0).survival(100.0).to_bits()
        );
    }
}
