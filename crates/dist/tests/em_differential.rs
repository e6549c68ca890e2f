//! Differential suite for the batched EM fitting pipeline.
//!
//! `frozen` (`frozen/em.rs`, shared with chs-bench's `fit_bench`) is a
//! **verbatim copy** of the pre-batching multi-start
//! EM pipeline (quantile initial guesses → per-observation AoS E-step →
//! closed-form M-step with reseed repair → best-likelihood pick → phase
//! merge), kept as the oracle the restructured pipeline is pinned
//! against, the same way `crates/sim/tests/frozen_engine.rs` pinned the
//! cycle-engine port and `crates/markov/tests/kernel_differential.rs`
//! pinned the Γ kernels:
//!
//! * with racing **off** the new pipeline (hoisted log-constants,
//!   chunked SoA E-step, underflow skip, resumable starts) must
//!   reproduce the frozen pipeline **bitwise** — weights, rates,
//!   log-likelihood, iteration count, and the error/success outcome;
//! * with racing **on** (the default) the selected optimum must never
//!   fall below the exhaustive one by more than the documented
//!   [`RACE_LL_SLACK`] per observation.

use chs_dist::fit::{fit_hyperexponential, EmOptions, RACE_LL_SLACK};
use proptest::prelude::*;

// The frozen pipeline (pre-batching fit_hyperexponential, verbatim).
#[path = "frozen/em.rs"]
mod frozen;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Options shared by both paths: the pre-racing defaults with a bounded
/// iteration budget so adversarial samples stay fast.
fn options(race: bool) -> EmOptions {
    EmOptions {
        max_iterations: 500,
        race,
        ..EmOptions::default()
    }
}

fn assert_bitwise_identical(data: &[f64], phases: usize) {
    let opts = options(false);
    let batched = fit_hyperexponential(data, phases, &opts);
    let frozen = frozen::fit_hyperexponential(data, phases, &opts);
    match (batched, frozen) {
        (Ok(b), Ok(f)) => {
            assert_eq!(
                b.log_likelihood.to_bits(),
                f.log_likelihood.to_bits(),
                "log-likelihood: batched {:e} frozen {:e}",
                b.log_likelihood,
                f.log_likelihood
            );
            assert_eq!(b.iterations, f.iterations, "iterations");
            assert_eq!(b.starts, f.starts, "starts");
            assert_eq!(b.finished_starts, f.starts, "exhaustive finishes all");
            assert_eq!(b.model.phases(), f.model.phases(), "merged phase count");
            for j in 0..b.model.phases() {
                assert_eq!(
                    b.model.weights()[j].to_bits(),
                    f.model.weights()[j].to_bits(),
                    "weight[{j}]"
                );
                assert_eq!(
                    b.model.rates()[j].to_bits(),
                    f.model.rates()[j].to_bits(),
                    "rate[{j}]"
                );
            }
        }
        (Err(_), Err(_)) => {}
        (b, f) => panic!(
            "outcome diverged: batched {:?} frozen {:?}",
            b.map(|r| r.log_likelihood),
            f.map(|r| r.log_likelihood)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exhaustive batched pipeline ≡ frozen pipeline, bitwise, across
    /// data (log-uniform durations spanning seconds to weeks), phase
    /// count, and — through the sample length and spread — every start
    /// geometry the quantile initializer produces.
    #[test]
    fn batched_exhaustive_matches_frozen_bitwise(
        xs_log in prop::collection::vec(-2.0f64..6.0, 8..80),
        phases in 1usize..4,
    ) {
        let data: Vec<f64> = xs_log.iter().map(|&e| 10f64.powf(e)).collect();
        assert_bitwise_identical(&data, phases);
    }

    /// Tight clustered samples drive the weight floor and reseed/merge
    /// repair paths; the pipelines must still agree bitwise.
    #[test]
    fn batched_matches_frozen_on_degenerate_clusters(
        base in 0.0f64..4.0,
        jitter in prop::collection::vec(0.0f64..1e-3, 10..30),
        phases in 2usize..4,
    ) {
        let data: Vec<f64> = jitter.iter().map(|&j| 10f64.powf(base) * (1.0 + j)).collect();
        assert_bitwise_identical(&data, phases);
    }

    /// Racing never selects an optimum more than RACE_LL_SLACK per
    /// observation below the exhaustive multi-start's.
    #[test]
    fn raced_ll_within_slack_of_exhaustive(
        xs_log in prop::collection::vec(-2.0f64..6.0, 8..80),
        phases in 2usize..4,
    ) {
        let data: Vec<f64> = xs_log.iter().map(|&e| 10f64.powf(e)).collect();
        let raced = fit_hyperexponential(&data, phases, &options(true));
        let exhaustive = fit_hyperexponential(&data, phases, &options(false));
        match (raced, exhaustive) {
            (Ok(r), Ok(e)) => {
                let slack = RACE_LL_SLACK * data.len() as f64;
                prop_assert!(
                    r.log_likelihood >= e.log_likelihood - slack,
                    "raced ll {} fell more than {slack:e} below exhaustive ll {}",
                    r.log_likelihood,
                    e.log_likelihood
                );
                prop_assert!(r.finished_starts <= e.finished_starts);
            }
            (Err(_), Err(_)) => {}
            (r, e) => {
                return Err(TestCaseError::Fail(format!(
                    "outcome diverged: raced {:?} exhaustive {:?}",
                    r.map(|x| x.log_likelihood),
                    e.map(|x| x.log_likelihood)
                )));
            }
        }
    }
}

/// The paper-regime spot check: 25-observation training prefixes drawn
/// from the exemplar machine, both phase counts, bitwise identity.
#[test]
fn paper_regime_training_prefixes_match_bitwise() {
    use chs_dist::AvailabilityModel;
    use rand::SeedableRng;
    let truth = chs_dist::Weibull::paper_exemplar();
    for seed in [7u64, 21, 1999, 2005] {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let data: Vec<f64> = (0..25).map(|_| truth.sample(&mut rng)).collect();
        assert_bitwise_identical(&data, 2);
        assert_bitwise_identical(&data, 3);
    }
}
