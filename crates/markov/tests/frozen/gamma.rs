//! The pre-kernel Γ and `T_opt` search, copied verbatim: `FutureLifetime`
//! conditioning on every probe (the frozen per-call path of
//! `crates/dist/tests/frozen/conditional.rs`), no fresh-quantity memo,
//! and the same golden-section + parabolic polish over `ln T` with the
//! same default bounds as `VaidyaModel`. It never takes the exponential
//! closed form, so it is also the search oracle for exponential fits.
//!
//! This is the frozen oracle the kernel-based `VaidyaModel` is pinned
//! against. It is included with `#[path]` by `kernel_differential.rs`
//! (bitwise quantities, Γ and `T_opt`) and by `memoryless.rs` (the
//! closed form against the search), so there is one copy.

use chs_markov::{CheckpointCosts, IntervalQuantities};

// The frozen per-call conditioning path, shared with chs-dist's
// `kernel_properties` suite.
#[path = "../../../dist/tests/frozen/conditional.rs"]
pub mod conditional;

use conditional::{Conditional, FutureLifetime};

/// Frozen pre-kernel quantities: `FutureLifetime` conditioning per call,
/// exactly as `VaidyaModel::quantities` computed them before the kernel
/// layer.
pub fn ref_quantities(
    dist: &dyn Conditional,
    costs: CheckpointCosts,
    t: f64,
    age: f64,
) -> IntervalQuantities {
    let (c, r, l) = (costs.checkpoint, costs.recovery, costs.latency);
    let horizon01 = c + t;
    let horizon21 = l + r + t;
    let conditioned = FutureLifetime::new(dist, age);
    let p01 = conditioned.survival(horizon01);
    let p02 = 1.0 - p01;
    let k02 = if p02 > 0.0 {
        conditioned.truncated_mean(horizon01)
    } else {
        0.0
    };
    let fresh = FutureLifetime::new(dist, 0.0);
    let p21 = fresh.survival(horizon21);
    let k22 = if 1.0 - p21 > 0.0 {
        fresh.truncated_mean(horizon21)
    } else {
        0.0
    };
    IntervalQuantities {
        p01,
        k01: horizon01,
        p02,
        k02,
        p21,
        k21: horizon21,
        p22: 1.0 - p21,
        k22,
    }
}

/// Frozen pre-kernel Γ.
pub fn ref_gamma(dist: &dyn Conditional, costs: CheckpointCosts, t: f64, age: f64) -> f64 {
    let q = ref_quantities(dist, costs, t, age);
    if q.p02 <= 0.0 {
        return q.k01;
    }
    if q.p21 <= f64::MIN_POSITIVE {
        return f64::INFINITY;
    }
    let retry = q.k21 + (q.p22 / q.p21) * q.k22;
    q.p01 * q.k01 + q.p02 * (q.k02 + retry)
}

/// Frozen pre-kernel optimizer: the same golden-section + parabolic
/// polish over `ln T`, driving `ref_gamma` instead of the kernels, with
/// the same default bound derivation.
pub fn ref_optimal_interval(dist: &dyn Conditional, costs: CheckpointCosts, age: f64) -> f64 {
    let age = age.max(0.0);
    let span = costs.checkpoint + costs.recovery + costs.latency;
    let t_min: f64 = 1.0;
    let t_max = (1_000.0 * dist.mean()).max(100.0 * span).max(1e4);
    let obj = |u: f64| {
        let t = u.exp();
        let ratio = if t <= 0.0 {
            f64::INFINITY
        } else {
            ref_gamma(dist, costs, t, age) / t
        };
        if ratio.is_finite() {
            ratio
        } else {
            1e300
        }
    };
    let (lo, hi) = (t_min.ln(), t_max.ln());
    let min = chs_numerics::optimize::minimize_bounded(obj, lo, hi, 1e-9).unwrap();
    let polished = chs_numerics::optimize::spi_refine(obj, min.x, 2e-3, 12);
    polished.x.clamp(lo, hi).exp()
}
