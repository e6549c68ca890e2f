//! `CachedPolicy` fills only the ages an executor can reach. The table
//! starts at the last lattice age at or below the recovery cost `R`; the
//! kept knots must be a bitwise suffix of the full lattice (so every age
//! `≥ R` interpolates between the same brackets), and ages below the
//! first knot must fall through to the exact search.

use chs_dist::{FittedModel, ModelKind};
use chs_markov::{CheckpointCosts, VaidyaModel};
use chs_sim::{prepare_experiments_reported, CachedPolicy, ModelPolicy, SchedulePolicy};
use chs_trace::synthetic::{generate_pool, PoolConfig};
use std::sync::Arc;

/// The non-memoryless fits (Weibull, H2, H3) of a few synthetic
/// machines, each with the machine's longest held-out segment.
fn fits() -> Vec<(Arc<FittedModel>, f64)> {
    let pool = generate_pool(&PoolConfig::small(4, 80, 7)).as_machine_pool();
    let experiments = prepare_experiments_reported(&pool, 25).experiments;
    assert!(experiments.len() >= 2, "too few usable machines");
    let fits: Vec<_> = experiments
        .iter()
        .flat_map(|e| {
            e.fits
                .iter()
                .flatten()
                .filter(|fit| !fit.kind().is_memoryless())
                .map(|fit| (Arc::clone(fit), e.max_age()))
                .collect::<Vec<_>>()
        })
        .collect();
    for kind in &ModelKind::PAPER_SET[1..] {
        assert!(
            fits.iter().any(|(fit, _)| fit.kind() == *kind),
            "no {kind:?} fit"
        );
    }
    fits
}

/// `(C, max_age)` pairs: the machine's own ceiling, a short one, and a
/// long one, at paper checkpoint costs.
fn cases(machine_max_age: f64) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &c in &[50.0, 250.0, 1_500.0] {
        for &max_age in &[machine_max_age, 2_000.0, 400_000.0] {
            out.push((c, max_age));
        }
    }
    out
}

/// The full lattice, as a table whose recovery cost keeps every point.
fn full_lattice(fit: &Arc<FittedModel>, c: f64, max_age: f64) -> Vec<f64> {
    let full = CachedPolicy::new(Arc::clone(fit), CheckpointCosts::new(c, 0.0), max_age);
    full.grid().0.to_vec()
}

#[test]
fn recovery_below_one_second_keeps_the_whole_lattice() {
    for (fit, max_age) in fits() {
        for &r in &[0.0, 0.25, 0.999] {
            let table =
                CachedPolicy::new(Arc::clone(&fit), CheckpointCosts::new(110.0, r), max_age);
            let (ages, ts) = table.grid();
            assert_eq!(ages.len(), 65, "{:?}, R = {r}", fit.kind());
            assert_eq!(ts.len(), 65);
            assert_eq!(ages[0], 0.0);
            assert_eq!(ages[1], 1.0);
            // Geometric from 1 s to the (floored) ceiling.
            let ratio = ages[2] / ages[1];
            for pair in ages[1..].windows(2) {
                assert!((pair[1] / pair[0] / ratio - 1.0).abs() < 1e-12);
            }
            let top = max_age.max(10.0);
            assert!(
                (ages[64] / top - 1.0).abs() < 1e-9,
                "last age {} vs {top}",
                ages[64]
            );
        }
    }
}

#[test]
fn kept_ages_are_the_lattice_suffix_from_the_recovery_cost() {
    for (fit, machine_max_age) in fits() {
        for (c, max_age) in cases(machine_max_age) {
            let lattice = full_lattice(&fit, c, max_age);
            // R exactly on a lattice age keeps that age.
            for r in [c, 1.0, lattice[17]] {
                let table =
                    CachedPolicy::new(Arc::clone(&fit), CheckpointCosts::new(c, r), max_age);
                let ages = table.grid().0;
                let first = lattice.iter().rposition(|&a| a <= r).expect("age 0 ≤ R");
                assert_eq!(ages.len(), lattice.len() - first, "C = {c}, R = {r}");
                for (kept, full) in ages.iter().zip(&lattice[first..]) {
                    assert_eq!(kept.to_bits(), full.to_bits(), "C = {c}, R = {r}");
                }
                assert!(ages[0] <= r);
                assert!(ages.len() == 1 || ages[1] > r);
            }
        }
    }
}

#[test]
fn weibull_knots_match_the_cold_search() {
    let weibull: Vec<_> = fits()
        .into_iter()
        .filter(|(fit, _)| fit.kind() == ModelKind::Weibull)
        .collect();
    assert!(!weibull.is_empty());
    for (fit, machine_max_age) in weibull {
        for (c, max_age) in cases(machine_max_age) {
            let costs = CheckpointCosts::symmetric(c);
            let table = CachedPolicy::new(Arc::clone(&fit), costs, max_age);
            let vaidya = VaidyaModel::new(fit.as_ref(), costs).expect("valid costs");
            let (ages, ts) = table.grid();
            for (&age, &t) in ages.iter().zip(ts) {
                let cold = vaidya
                    .optimal_interval(age)
                    .expect("cold search")
                    .work_seconds;
                assert!(
                    (t / cold - 1.0).abs() < 5e-4,
                    "C = {c}, age {age}: table {t} vs cold {cold}"
                );
            }
        }
    }
}

#[test]
fn ages_below_the_first_knot_use_the_exact_search() {
    for (fit, machine_max_age) in fits() {
        for (c, max_age) in cases(machine_max_age) {
            let costs = CheckpointCosts::symmetric(c);
            let table = CachedPolicy::new(Arc::clone(&fit), costs, max_age);
            let exact = ModelPolicy::new(Arc::clone(&fit), costs);
            let first = table.grid().0[0];
            assert!(first > 0.0, "C = {c} ≥ 1 s must trim age 0");
            for age in [0.0, 0.5, first * 0.5, first * (1.0 - 1e-12)] {
                assert_eq!(
                    table.next_interval(age).to_bits(),
                    exact.next_interval(age).to_bits(),
                    "{:?}, C = {c}, age {age} below first knot {first}",
                    fit.kind()
                );
            }
        }
    }
}
