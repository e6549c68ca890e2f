//! Differential suite for the kernel-based `VaidyaModel`: a frozen copy
//! of the pre-kernel evaluation path (`frozen/gamma.rs`) — per-call
//! `FutureLifetime` conditioning on every probe, no fresh-quantity memo —
//! must reproduce the kernel path's
//! quantities, Γ, and `T_opt` across all four paper families, ages up to
//! 1e10 (including the Weibull quadrature-fallback region), and the
//! checkpoint-cost range of the paper's sweep.
//!
//! The contract is ≤ 1e-12 relative; the arithmetic is replicated
//! operation for operation, so quantities and Γ are asserted **bitwise**
//! and the optimizer (which then sees a bitwise-identical objective and
//! makes identical probe decisions) must land on a bitwise-identical
//! `T_opt` as well. The exponential family is the exception: its `T_opt`
//! is a closed form, not a search, so it must only be no worse in Γ/T
//! than the frozen optimizer's answer.

use chs_dist::{Exponential, FittedModel, HyperExponential, Weibull};
use chs_markov::{CheckpointCosts, VaidyaModel};

// The frozen pre-kernel Γ and `T_opt` search (verbatim).
#[path = "frozen/gamma.rs"]
mod frozen;

use frozen::{ref_gamma, ref_optimal_interval, ref_quantities};

/// The four availability families of the paper's experiments.
fn families() -> Vec<(&'static str, FittedModel)> {
    vec![
        (
            "exponential",
            FittedModel::Exponential(Exponential::from_mean(3_600.0).unwrap()),
        ),
        ("weibull", FittedModel::Weibull(Weibull::paper_exemplar())),
        (
            "hyperexp2",
            FittedModel::HyperExponential(
                HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap(),
            ),
        ),
        (
            "hyperexp3",
            FittedModel::HyperExponential(
                HyperExponential::new(&[
                    (0.5, 1.0 / 120.0),
                    (0.3, 1.0 / 2_500.0),
                    (0.2, 1.0 / 40_000.0),
                ])
                .unwrap(),
            ),
        ),
    ]
}

const AGES: [f64; 9] = [0.0, 1.0, 60.0, 500.0, 3_409.0, 86_400.0, 1e6, 1e8, 1e10];
const COSTS: [f64; 4] = [50.0, 110.0, 500.0, 1_500.0];

fn rel(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

#[test]
fn quantities_and_gamma_bitwise_match_reference() {
    // 4 families × 9 ages × 4 cost levels × 8 intervals.
    let t_grid = [1.0, 10.0, 110.0, 777.0, 3_409.0, 25_000.0, 2.5e5, 1e6];
    for (name, fit) in families() {
        for &c in &COSTS {
            let costs = CheckpointCosts::symmetric(c);
            let model = VaidyaModel::new(&fit, costs).unwrap();
            for &age in &AGES {
                for &t in &t_grid {
                    let kq = model.quantities(t, age);
                    let rq = ref_quantities(&fit, costs, t, age);
                    for (field, k, r) in [
                        ("p01", kq.p01, rq.p01),
                        ("k01", kq.k01, rq.k01),
                        ("p02", kq.p02, rq.p02),
                        ("k02", kq.k02, rq.k02),
                        ("p21", kq.p21, rq.p21),
                        ("k21", kq.k21, rq.k21),
                        ("p22", kq.p22, rq.p22),
                        ("k22", kq.k22, rq.k22),
                    ] {
                        assert!(
                            k.to_bits() == r.to_bits(),
                            "{name} C={c} age={age} t={t}: {field} kernel {k:.17e} vs ref {r:.17e}"
                        );
                    }
                    let kg = model.gamma(t, age);
                    let rg = ref_gamma(&fit, costs, t, age);
                    assert!(
                        kg.to_bits() == rg.to_bits(),
                        "{name} C={c} age={age} t={t}: gamma kernel {kg:.17e} vs ref {rg:.17e}"
                    );
                }
            }
        }
    }
}

#[test]
fn t_opt_matches_reference_optimizer() {
    // The kernel path feeds a bitwise-identical objective to the same
    // optimizer, so the search trajectory — and hence T_opt — must be
    // bitwise equal, not merely within the 1e-12 contract. Exponential
    // fits take the closed-form optimum instead of searching: their
    // contract is a Γ/T no worse than the reference's by 1e-12.
    for (name, fit) in families() {
        for &c in &COSTS {
            let costs = CheckpointCosts::symmetric(c);
            let model = VaidyaModel::new(&fit, costs).unwrap();
            for &age in &AGES {
                let kernel_t = model.optimal_interval(age).unwrap().work_seconds;
                let ref_t = ref_optimal_interval(&fit, costs, age);
                if let FittedModel::Exponential(_) = fit {
                    let closed = ref_gamma(&fit, costs, kernel_t, age) / kernel_t;
                    let searched = ref_gamma(&fit, costs, ref_t, age) / ref_t;
                    assert!(
                        closed <= searched * (1.0 + 1e-12),
                        "{name} C={c} age={age}: Γ/T closed form {closed:.17e} (T {kernel_t:.17e}) \
                         vs reference {searched:.17e} (T {ref_t:.17e})"
                    );
                    continue;
                }
                assert!(
                    rel(kernel_t, ref_t) <= 1e-12,
                    "{name} C={c} age={age}: T_opt kernel {kernel_t:.17e} vs ref {ref_t:.17e}"
                );
                assert!(
                    kernel_t.to_bits() == ref_t.to_bits(),
                    "{name} C={c} age={age}: T_opt not bitwise ({kernel_t:.17e} vs {ref_t:.17e})"
                );
                // Γ at the optimum through both paths.
                let kg = model.gamma(kernel_t, age);
                let rg = ref_gamma(&fit, costs, ref_t, age);
                assert!(
                    rel(kg, rg) <= 1e-12,
                    "{name} C={c} age={age}: Γ(T_opt) kernel {kg:.17e} vs ref {rg:.17e}"
                );
            }
        }
    }
}

#[test]
fn warm_start_path_matches_reference_optimizer_too() {
    // The four-lane warm search with a good hint must stay within the
    // optimizer's plateau of the frozen cold reference — the warm search
    // takes a different trajectory, so this is the 5e-4 lane plateau
    // bound, not bitwise (the same bound the policy-grid tests use).
    for (name, fit) in families() {
        let costs = CheckpointCosts::symmetric(110.0);
        let model = VaidyaModel::new(&fit, costs).unwrap();
        let mut hint = model.optimal_interval(0.0).unwrap().work_seconds;
        for &age in &[1.0, 500.0, 3_409.0, 86_400.0, 1e6] {
            let warm = model.optimal_work_near_lane(age, hint).unwrap();
            let ref_t = ref_optimal_interval(&fit, costs, age);
            assert!(
                rel(warm, ref_t) <= 5e-4,
                "{name} age={age}: warm {warm:.17e} vs frozen cold {ref_t:.17e}"
            );
            hint = warm;
        }
    }
}
