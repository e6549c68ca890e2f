//! Special functions: log-gamma, gamma, digamma, error function, and the
//! regularized incomplete gamma/beta functions.
//!
//! These are the ingredients for Weibull moments (`Γ(1 + 1/α)`), Student-t
//! tail probabilities (incomplete beta), and goodness-of-fit statistics.
//! Implementations follow the classical Lanczos / continued-fraction
//! formulations with double-precision coefficient sets.

use crate::{NumericsError, Result};

/// Lanczos coefficients (g = 7, n = 9), good to ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.9999999999998099,
    676.5203681218851,
    -1259.1392167224028,
    771.3234287776531,
    -176.6150291621406,
    12.507343278686905,
    -0.13857109526572012,
    9.984369578019572e-6,
    1.5056327351493116e-7,
];

/// Natural logarithm of the gamma function for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
///
/// # Errors
/// Returns [`NumericsError::DomainError`] for non-finite or non-positive
/// inputs (other than the reflected range handled internally).
pub fn ln_gamma(x: f64) -> Result<f64> {
    if !x.is_finite() {
        return Err(NumericsError::DomainError {
            routine: "ln_gamma",
            message: "non-finite input",
        });
    }
    if x <= 0.0 {
        return Err(NumericsError::DomainError {
            routine: "ln_gamma",
            message: "requires x > 0",
        });
    }
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let s = (std::f64::consts::PI * x).sin();
        return Ok(std::f64::consts::PI.ln() - s.ln() - ln_gamma(1.0 - x)?);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    Ok(0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln())
}

/// The gamma function `Γ(x)` for `x > 0`.
pub fn gamma(x: f64) -> Result<f64> {
    Ok(ln_gamma(x)?.exp())
}

/// Digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Recurrence to push the argument above 6, then the asymptotic series.
pub fn digamma(x: f64) -> Result<f64> {
    if !x.is_finite() || x <= 0.0 {
        return Err(NumericsError::DomainError {
            routine: "digamma",
            message: "requires finite x > 0",
        });
    }
    let mut x = x;
    let mut result = 0.0;
    // Push the argument above 10 so the truncated asymptotic series is
    // accurate to ~3e-13 relative (next Bernoulli term B10/(10 x^10)).
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic expansion: ln x − 1/2x − Σ B_{2n} / (2n x^{2n})
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result += x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)));
    Ok(result)
}

/// Error function `erf(x)`, accurate to ~1.2e-16 via the incomplete gamma
/// relation `erf(x) = P(1/2, x²)` for `x ≥ 0` and odd symmetry.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = reg_inc_gamma_p(0.5, x * x).unwrap_or(1.0);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)` with care for the
/// large-`x` tail (uses `Q(1/2, x²)` directly instead of `1 − erf`).
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        reg_inc_gamma_q(0.5, x * x).unwrap_or(0.0)
    } else {
        2.0 - erfc(-x)
    }
}

const MAX_ITER: usize = 500;
const EPS: f64 = 1e-15;
const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
pub fn reg_inc_gamma_p(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || x < 0.0 || !a.is_finite() || !x.is_finite() {
        return Err(NumericsError::DomainError {
            routine: "reg_inc_gamma_p",
            message: "requires a > 0, x >= 0",
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        Ok(1.0 - gamma_cf(a, x)?)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
pub fn reg_inc_gamma_q(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || x < 0.0 || !a.is_finite() || !x.is_finite() {
        return Err(NumericsError::DomainError {
            routine: "reg_inc_gamma_q",
            message: "requires a > 0, x >= 0",
        });
    }
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_series(a, x)?)
    } else {
        gamma_cf(a, x)
    }
}

/// Regularized lower incomplete gamma `P(a, x)` with a caller-supplied
/// `gln = ln Γ(a)`.
///
/// The kernel layer evaluates `P(a, ·)` at many points for one fixed
/// order `a`; recomputing the Lanczos `ln Γ(a)` inside every call is
/// ~40% of the series cost. Passing the identical `gln` value makes the
/// result bit-identical to [`reg_inc_gamma_p`] (same arithmetic on the
/// same operands, in the same order).
pub fn reg_inc_gamma_p_gln(a: f64, x: f64, gln: f64) -> Result<f64> {
    if a <= 0.0 || x < 0.0 || !a.is_finite() || !x.is_finite() {
        return Err(NumericsError::DomainError {
            routine: "reg_inc_gamma_p",
            message: "requires a > 0, x >= 0",
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_series_gln(a, x, gln)
    } else {
        Ok(1.0 - gamma_cf_gln(a, x, gln)?)
    }
}

/// Regularized upper incomplete gamma `Q(a, x)` with a caller-supplied
/// `gln = ln Γ(a)`; bit-identical to [`reg_inc_gamma_q`] when `gln`
/// equals `ln_gamma(a)`.
pub fn reg_inc_gamma_q_gln(a: f64, x: f64, gln: f64) -> Result<f64> {
    if a <= 0.0 || x < 0.0 || !a.is_finite() || !x.is_finite() {
        return Err(NumericsError::DomainError {
            routine: "reg_inc_gamma_q",
            message: "requires a > 0, x >= 0",
        });
    }
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_series_gln(a, x, gln)?)
    } else {
        gamma_cf_gln(a, x, gln)
    }
}

/// Lane-batched `P(a, x_l)`: four evaluation points, one shared order
/// `a` and one shared `gln = ln Γ(a)`.
///
/// Each lane takes exactly the branch the scalar dispatch would take
/// (series for `x < a + 1`, continued fraction otherwise) and runs the
/// scalar iteration on its own variables in lockstep with the other
/// lanes of the same branch — converged lanes freeze, so every lane
/// stops with bit-identical state to its scalar run. Lanes that fail
/// (domain, non-convergence) return `None`, mirroring the `.ok()`
/// handling every kernel call site applies.
pub fn reg_inc_gamma_p_x4(a: f64, x: [f64; 4], gln: f64) -> [Option<f64>; 4] {
    if a <= 0.0 || !a.is_finite() {
        return [None; 4];
    }
    let mut out = [None; 4];
    let mut series_active = [false; 4];
    let mut cf_active = [false; 4];
    for l in 0..4 {
        if x[l] < 0.0 || !x[l].is_finite() {
            continue;
        }
        if x[l] == 0.0 {
            out[l] = Some(0.0);
        } else if x[l] < a + 1.0 {
            series_active[l] = true;
        } else {
            cf_active[l] = true;
        }
    }
    if series_active.iter().any(|&b| b) {
        let series = gamma_series_x4(a, x, gln, series_active);
        for l in 0..4 {
            if series_active[l] {
                out[l] = series[l];
            }
        }
    }
    if cf_active.iter().any(|&b| b) {
        let cf = gamma_cf_x4(a, x, gln, cf_active);
        for l in 0..4 {
            if cf_active[l] {
                out[l] = cf[l].map(|q| 1.0 - q);
            }
        }
    }
    out
}

/// Lane-batched `Q(a, x_l)`; see [`reg_inc_gamma_p_x4`].
pub fn reg_inc_gamma_q_x4(a: f64, x: [f64; 4], gln: f64) -> [Option<f64>; 4] {
    if a <= 0.0 || !a.is_finite() {
        return [None; 4];
    }
    let mut out = [None; 4];
    let mut series_active = [false; 4];
    let mut cf_active = [false; 4];
    for l in 0..4 {
        if x[l] < 0.0 || !x[l].is_finite() {
            continue;
        }
        if x[l] == 0.0 {
            out[l] = Some(1.0);
        } else if x[l] < a + 1.0 {
            series_active[l] = true;
        } else {
            cf_active[l] = true;
        }
    }
    if series_active.iter().any(|&b| b) {
        let series = gamma_series_x4(a, x, gln, series_active);
        for l in 0..4 {
            if series_active[l] {
                out[l] = series[l].map(|p| 1.0 - p);
            }
        }
    }
    if cf_active.iter().any(|&b| b) {
        let cf = gamma_cf_x4(a, x, gln, cf_active);
        for l in 0..4 {
            if cf_active[l] {
                out[l] = cf[l];
            }
        }
    }
    out
}

/// Series representation of `P(a, x)`, convergent for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> Result<f64> {
    let gln = ln_gamma(a)?;
    gamma_series_gln(a, x, gln)
}

/// [`gamma_series`] with the `ln Γ(a)` hoisted to the caller.
fn gamma_series_gln(a: f64, x: f64, gln: f64) -> Result<f64> {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            return Ok(sum * (-x + a * x.ln() - gln).exp());
        }
    }
    Err(NumericsError::NoConvergence {
        routine: "gamma_series",
        iterations: MAX_ITER,
    })
}

/// Lane-lockstep [`gamma_series_gln`]: four independent series chains
/// advanced together (the `sum += del` recurrence is latency-bound, so
/// interleaving four chains hides most of the mul/div latency). Each
/// lane performs exactly the scalar operation sequence on its own
/// variables and freezes at its own convergence point — the outputs are
/// bit-identical to four scalar calls.
fn gamma_series_x4(a: f64, x: [f64; 4], gln: f64, active: [bool; 4]) -> [Option<f64>; 4] {
    let mut ap = a;
    let mut sum = [1.0 / a; 4];
    let mut del = sum;
    let mut done = [false; 4];
    for l in 0..4 {
        done[l] = !active[l];
    }
    let mut out = [None; 4];
    for _ in 0..MAX_ITER {
        ap += 1.0;
        for l in 0..4 {
            if done[l] {
                continue;
            }
            del[l] *= x[l] / ap;
            sum[l] += del[l];
            if del[l].abs() < sum[l].abs() * EPS {
                done[l] = true;
                out[l] = Some(sum[l] * (-x[l] + a * x[l].ln() - gln).exp());
            }
        }
        if done == [true; 4] {
            return out;
        }
    }
    out
}

/// Lane-lockstep [`gamma_cf_gln`]: the four [`lentz_factor_x4`] chains,
/// each scaled by its own prefactor exactly as the scalar path does.
fn gamma_cf_x4(a: f64, x: [f64; 4], gln: f64, active: [bool; 4]) -> [Option<f64>; 4] {
    let h = lentz_factor_x4(a, x, active);
    std::array::from_fn(|l| h[l].map(|h| (-x[l] + a * x[l].ln() - gln).exp() * h))
}

/// Lane-lockstep [`lentz_factor`] (modified Lentz, four chains). Same
/// freeze-at-own-convergence contract as [`gamma_series_x4`].
fn lentz_factor_x4(a: f64, x: [f64; 4], active: [bool; 4]) -> [Option<f64>; 4] {
    let mut b = [0.0f64; 4];
    let mut c = [1.0 / FPMIN; 4];
    let mut d = [0.0f64; 4];
    let mut h = [0.0f64; 4];
    let mut done = [false; 4];
    for l in 0..4 {
        done[l] = !active[l];
        if active[l] {
            b[l] = x[l] + 1.0 - a;
            d[l] = 1.0 / b[l];
            h[l] = d[l];
        }
    }
    let mut out = [None; 4];
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        for l in 0..4 {
            if done[l] {
                continue;
            }
            b[l] += 2.0;
            d[l] = an * d[l] + b[l];
            if d[l].abs() < FPMIN {
                d[l] = FPMIN;
            }
            c[l] = b[l] + an / c[l];
            if c[l].abs() < FPMIN {
                c[l] = FPMIN;
            }
            d[l] = 1.0 / d[l];
            let del = d[l] * c[l];
            h[l] *= del;
            if (del - 1.0).abs() < EPS {
                done[l] = true;
                out[l] = Some(h[l]);
            }
        }
        if done == [true; 4] {
            return out;
        }
    }
    out
}

/// Continued-fraction representation of `Q(a, x)`, convergent for
/// `x ≥ a + 1` (modified Lentz).
fn gamma_cf(a: f64, x: f64) -> Result<f64> {
    let gln = ln_gamma(a)?;
    gamma_cf_gln(a, x, gln)
}

/// [`gamma_cf`] with the `ln Γ(a)` hoisted to the caller.
fn gamma_cf_gln(a: f64, x: f64, gln: f64) -> Result<f64> {
    let h = lentz_factor(a, x)?;
    Ok((-x + a * x.ln() - gln).exp() * h)
}

/// The continued-fraction factor `h(x)` of the upper incomplete gamma,
/// defined by `Q(a, x) = e^{−x} x^a h(x) / Γ(a)` for `x ≥ a + 1`.
///
/// `Q` itself underflows once `x` passes about 708, but `h(x) ≈
/// 1/(x + 1 − a)` stays a moderate number at any finite `x`, so a caller
/// working in log space keeps full precision where `Q` has none. This
/// is the same Lentz iteration [`reg_inc_gamma_q`] runs on its
/// continued-fraction branch: multiplying by `exp(−x + a ln x − ln Γ(a))`
/// gives that `Q` bit for bit.
///
/// # Errors
/// [`NumericsError::DomainError`] unless `a > 0` and `x ≥ a + 1` are
/// finite; [`NumericsError::NoConvergence`] if the fraction does not
/// settle.
pub fn inc_gamma_cf_factor(a: f64, x: f64) -> Result<f64> {
    if !(a > 0.0 && a.is_finite() && x.is_finite() && x >= a + 1.0) {
        return Err(NumericsError::DomainError {
            routine: "inc_gamma_cf_factor",
            message: "requires finite a > 0, x >= a + 1",
        });
    }
    lentz_factor(a, x)
}

/// Lane-batched [`inc_gamma_cf_factor`]: four points, one order `a`,
/// the four Lentz chains in lockstep. Each lane is bit-identical to its
/// scalar call; lanes outside the domain or without convergence return
/// `None`.
pub fn inc_gamma_cf_factor_x4(a: f64, x: [f64; 4]) -> [Option<f64>; 4] {
    if !(a > 0.0 && a.is_finite()) {
        return [None; 4];
    }
    lentz_factor_x4(a, x, x.map(|x| x.is_finite() && x >= a + 1.0))
}

/// Modified Lentz evaluation of the continued fraction for `Q(a, x)`,
/// without its `e^{−x} x^a / Γ(a)` prefactor.
fn lentz_factor(a: f64, x: f64) -> Result<f64> {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return Ok(h);
        }
    }
    Err(NumericsError::NoConvergence {
        routine: "gamma_cf",
        iterations: MAX_ITER,
    })
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Continued fraction (modified Lentz) with the symmetry transformation
/// for `x > (a+1)/(a+b+2)`; this is the basis for Student-t probabilities.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || b <= 0.0 || !(0.0..=1.0).contains(&x) {
        return Err(NumericsError::DomainError {
            routine: "reg_inc_beta",
            message: "requires a, b > 0 and 0 <= x <= 1",
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_front = ln_gamma(a + b)? - ln_gamma(a)? - ln_gamma(b)? + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok(front * beta_cf(a, b, x)? / a)
    } else {
        Ok(1.0 - front * beta_cf(b, a, 1.0 - x)? / b)
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes `betacf`).
fn beta_cf(a: f64, b: f64, x: f64) -> Result<f64> {
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // even step
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // odd step
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return Ok(h);
        }
    }
    Err(NumericsError::NoConvergence {
        routine: "beta_cf",
        iterations: MAX_ITER,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let lg = ln_gamma((n + 1) as f64).unwrap();
            assert!(approx_eq(lg, f64::ln(f), 1e-12, 1e-12), "n={n} lg={lg}");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π
        let lg = ln_gamma(0.5).unwrap();
        assert!(approx_eq(lg.exp(), std::f64::consts::PI.sqrt(), 1e-12, 0.0));
    }

    #[test]
    fn ln_gamma_reflection_region() {
        // Γ(0.25) ≈ 3.6256099082219083
        let g = gamma(0.25).unwrap();
        assert!(approx_eq(g, 3.625_609_908_221_908, 1e-12, 0.0), "g={g}");
    }

    #[test]
    fn ln_gamma_rejects_nonpositive() {
        assert!(ln_gamma(0.0).is_err());
        assert!(ln_gamma(-1.5).is_err());
        assert!(ln_gamma(f64::NAN).is_err());
    }

    #[test]
    fn gamma_recurrence_property() {
        // Γ(x+1) = x Γ(x) across a range of x
        for i in 1..200 {
            let x = i as f64 * 0.11;
            let lhs = gamma(x + 1.0).unwrap();
            let rhs = x * gamma(x).unwrap();
            assert!(
                approx_eq(lhs, rhs, 1e-10, 1e-12),
                "x={x} lhs={lhs} rhs={rhs}"
            );
        }
    }

    #[test]
    fn digamma_known_values() {
        // ψ(1) = −γ (Euler–Mascheroni)
        let euler = 0.577_215_664_901_532_9;
        assert!(approx_eq(digamma(1.0).unwrap(), -euler, 1e-10, 1e-12));
        // ψ(1/2) = −γ − 2 ln 2
        let expected = -euler - 2.0 * std::f64::consts::LN_2;
        assert!(approx_eq(digamma(0.5).unwrap(), expected, 1e-10, 1e-12));
    }

    #[test]
    fn digamma_recurrence() {
        // ψ(x+1) = ψ(x) + 1/x
        for i in 1..100 {
            let x = i as f64 * 0.173;
            let lhs = digamma(x + 1.0).unwrap();
            let rhs = digamma(x).unwrap() + 1.0 / x;
            assert!(approx_eq(lhs, rhs, 1e-9, 1e-10), "x={x}");
        }
    }

    #[test]
    fn erf_known_values() {
        assert!(approx_eq(erf(0.0), 0.0, 0.0, 1e-15));
        assert!(approx_eq(erf(1.0), 0.842_700_792_949_714_9, 1e-10, 0.0));
        assert!(approx_eq(erf(-1.0), -0.842_700_792_949_714_9, 1e-10, 0.0));
        assert!(approx_eq(erf(2.0), 0.995_322_265_018_952_7, 1e-10, 0.0));
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(5) ≈ 1.5374597944280349e-12; naive 1-erf would lose all digits.
        assert!(approx_eq(erfc(5.0), 1.537_459_794_428_035e-12, 1e-8, 0.0));
    }

    #[test]
    fn erf_erfc_complementarity() {
        for i in -40..=40 {
            let x = i as f64 * 0.1;
            assert!(approx_eq(erf(x) + erfc(x), 1.0, 1e-12, 1e-12), "x={x}");
        }
    }

    #[test]
    fn inc_gamma_exponential_cdf() {
        // P(1, x) = 1 − e^{−x}: the exponential CDF.
        for i in 0..60 {
            let x = i as f64 * 0.25;
            let p = reg_inc_gamma_p(1.0, x).unwrap();
            assert!(approx_eq(p, 1.0 - (-x).exp(), 1e-12, 1e-14), "x={x}");
        }
    }

    #[test]
    fn inc_gamma_p_plus_q_is_one() {
        for &a in &[0.3, 0.5, 1.0, 2.5, 10.0, 42.0] {
            for &x in &[0.01, 0.5, 1.0, 3.0, 10.0, 60.0] {
                let p = reg_inc_gamma_p(a, x).unwrap();
                let q = reg_inc_gamma_q(a, x).unwrap();
                assert!(approx_eq(p + q, 1.0, 1e-12, 1e-12), "a={a} x={x}");
            }
        }
    }

    #[test]
    fn inc_gamma_gln_variants_bitwise() {
        for &a in &[0.3, 0.5, 1.0, 1.9, 2.5, 10.0] {
            let gln = ln_gamma(a).unwrap();
            for &x in &[0.0, 0.01, 0.5, 1.0, 3.0, 10.0, 60.0, 300.0] {
                let p = reg_inc_gamma_p(a, x).unwrap();
                let q = reg_inc_gamma_q(a, x).unwrap();
                assert_eq!(
                    reg_inc_gamma_p_gln(a, x, gln).unwrap().to_bits(),
                    p.to_bits(),
                    "P a={a} x={x}"
                );
                assert_eq!(
                    reg_inc_gamma_q_gln(a, x, gln).unwrap().to_bits(),
                    q.to_bits(),
                    "Q a={a} x={x}"
                );
            }
        }
    }

    #[test]
    fn inc_gamma_x4_bitwise_matches_scalar() {
        // Batches straddling the series/CF boundary, zero lanes, and
        // bad lanes — each live lane must be bit-identical to its
        // scalar evaluation.
        for &a in &[0.45, 1.0, 1.9, 7.3] {
            let gln = ln_gamma(a).unwrap();
            let batches = [
                [0.0, 0.3, a + 0.5, a + 40.0],
                [1e-6, a + 0.99, a + 1.01, 700.0],
                [0.2, 0.4, 0.6, 0.8],
                [a + 2.0, a + 20.0, a + 200.0, f64::NAN],
            ];
            for x in batches {
                let p4 = reg_inc_gamma_p_x4(a, x, gln);
                let q4 = reg_inc_gamma_q_x4(a, x, gln);
                for l in 0..4 {
                    let p = reg_inc_gamma_p(a, x[l]).ok();
                    let q = reg_inc_gamma_q(a, x[l]).ok();
                    assert_eq!(
                        p4[l].map(f64::to_bits),
                        p.map(f64::to_bits),
                        "P a={a} x={:?} lane {l}",
                        x
                    );
                    assert_eq!(
                        q4[l].map(f64::to_bits),
                        q.map(f64::to_bits),
                        "Q a={a} x={:?} lane {l}",
                        x
                    );
                }
            }
        }
    }

    /// The single-loop continued fraction before the Lentz factor was
    /// split out, kept as the oracle for the refactor.
    fn gamma_cf_gln_monolithic(a: f64, x: f64, gln: f64) -> Option<f64> {
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / FPMIN;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..=MAX_ITER {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = b + an / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < EPS {
                return Some((-x + a * x.ln() - gln).exp() * h);
            }
        }
        None
    }

    #[test]
    fn cf_branch_is_bitwise_the_monolithic_loop() {
        for &a in &[0.005, 0.3, 0.667, 1.0, 1.9, 7.3, 200.0] {
            let gln = ln_gamma(a).unwrap();
            for &x in &[a + 1.0, a + 3.7, 60.0, 300.0, 708.0, 744.6, 1e4, 1e9] {
                if x < a + 1.0 {
                    continue;
                }
                let frozen = gamma_cf_gln_monolithic(a, x, gln).map(f64::to_bits);
                let q = reg_inc_gamma_q_gln(a, x, gln).ok().map(f64::to_bits);
                assert_eq!(q, frozen, "a={a} x={x}");
                // The exposed factor times the prefactor is that same Q.
                let h = inc_gamma_cf_factor(a, x).unwrap();
                let rebuilt = (-x + a * x.ln() - gln).exp() * h;
                assert_eq!(Some(rebuilt.to_bits()), frozen, "a={a} x={x}");
            }
        }
    }

    #[test]
    fn cf_factor_survives_where_q_underflows() {
        let a = 1.0 / 0.94;
        for &x in &[744.6, 1e3, 1e5, 1e12] {
            assert!(reg_inc_gamma_q(a, x).unwrap() < f64::MIN_POSITIVE);
            let h = inc_gamma_cf_factor(a, x).unwrap();
            // h ≈ 1/(x + 1 − a), with the next correction O(1/x²).
            let lead = 1.0 / (x + 1.0 - a);
            assert!((h / lead - 1.0).abs() < 1e-4, "x={x} h={h}");
        }
    }

    #[test]
    fn cf_factor_x4_bitwise_matches_scalar() {
        for &a in &[0.45, 1.0, 3.3, 200.0] {
            let batches = [
                [a + 1.0, a + 2.5, 700.0, 1e5],
                [0.0, a + 0.5, f64::INFINITY, f64::NAN],
                [750.0, 750.0, 2e3, 1e15],
            ];
            for x in batches {
                let lanes = inc_gamma_cf_factor_x4(a, x);
                for l in 0..4 {
                    let scalar = inc_gamma_cf_factor(a, x[l]).ok();
                    assert_eq!(
                        lanes[l].map(f64::to_bits),
                        scalar.map(f64::to_bits),
                        "a={a} x={:?} lane {l}",
                        x
                    );
                }
            }
        }
        assert_eq!(inc_gamma_cf_factor_x4(0.0, [5.0; 4]), [None; 4]);
        assert!(inc_gamma_cf_factor(2.0, 2.5).is_err());
        assert!(inc_gamma_cf_factor(2.0, f64::INFINITY).is_err());
    }

    #[test]
    fn inc_gamma_x4_rejects_bad_order() {
        assert_eq!(reg_inc_gamma_p_x4(-1.0, [1.0; 4], 0.0), [None; 4]);
        assert_eq!(reg_inc_gamma_q_x4(f64::NAN, [1.0; 4], 0.0), [None; 4]);
    }

    #[test]
    fn inc_gamma_domain_errors() {
        assert!(reg_inc_gamma_p(-1.0, 1.0).is_err());
        assert!(reg_inc_gamma_p(1.0, -1.0).is_err());
        assert!(reg_inc_gamma_q(0.0, 1.0).is_err());
    }

    #[test]
    fn inc_beta_symmetry() {
        // I_x(a,b) = 1 − I_{1−x}(b,a)
        for &(a, b) in &[(0.5, 0.5), (2.0, 3.0), (10.0, 1.5), (0.3, 7.0)] {
            for i in 1..10 {
                let x = i as f64 / 10.0;
                let lhs = reg_inc_beta(a, b, x).unwrap();
                let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x).unwrap();
                assert!(approx_eq(lhs, rhs, 1e-11, 1e-12), "a={a} b={b} x={x}");
            }
        }
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1,1) = x
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            assert!(approx_eq(
                reg_inc_beta(1.0, 1.0, x).unwrap(),
                x,
                1e-12,
                1e-14
            ));
        }
    }

    #[test]
    fn inc_beta_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.25}(2,2) = 5/32 ... compute:
        // I_x(2,2) = x^2 (3 - 2x). At x=0.25: 0.0625 * 2.5 = 0.15625.
        assert!(approx_eq(
            reg_inc_beta(2.0, 2.0, 0.25).unwrap(),
            0.15625,
            1e-12,
            0.0
        ));
        assert!(approx_eq(
            reg_inc_beta(2.0, 2.0, 0.5).unwrap(),
            0.5,
            1e-12,
            0.0
        ));
    }

    #[test]
    fn inc_beta_bounds_and_domain() {
        assert_eq!(reg_inc_beta(2.0, 3.0, 0.0).unwrap(), 0.0);
        assert_eq!(reg_inc_beta(2.0, 3.0, 1.0).unwrap(), 1.0);
        assert!(reg_inc_beta(0.0, 1.0, 0.5).is_err());
        assert!(reg_inc_beta(1.0, 1.0, 1.5).is_err());
    }

    #[test]
    fn inc_beta_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..100 {
            let x = i as f64 / 100.0;
            let v = reg_inc_beta(3.0, 1.7, x).unwrap();
            assert!(v >= prev, "non-monotone at x={x}");
            prev = v;
        }
    }
}
