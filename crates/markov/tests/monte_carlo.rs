//! Monte-Carlo validation of the Markov model: simulate the
//! recovery–work–checkpoint renewal process against ground-truth machine
//! lifetimes and check the measured mean time to complete one interval
//! converges to the analytic Γ(T).
//!
//! This is the linchpin test of the reproduction: if Γ is wrong, every
//! table and figure downstream is wrong.

use chs_dist::{AvailabilityModel, DistRef, Exponential, HyperExponential, Weibull};
use chs_markov::{CheckpointCosts, VaidyaModel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Simulate completing one checkpoint interval starting on a machine of
/// `initial_age`, drawing machine lifetimes from `dist`. Returns total
/// wall-clock seconds spent until the interval's checkpoint completes.
///
/// Lifetimes are drawn from the conditional distribution given the age at
/// which the job starts (inverse-transform on the conditional CDF via
/// rejection-free sampling: lifetime = age + fresh draw conditioned on
/// exceeding age, sampled by redrawing).
fn simulate_one_interval(
    dist: &dyn AvailabilityModel,
    costs: CheckpointCosts,
    t: f64,
    initial_age: f64,
    rng: &mut ChaCha8Rng,
) -> f64 {
    let mut elapsed = 0.0;
    // Remaining lifetime of the current machine incarnation. First
    // incarnation: conditional on having survived `initial_age` — sample
    // by rejection (redraw until > age, return the excess). For ages in
    // the body of the distribution this is cheap.
    let mut remaining = loop {
        let x = dist.sample(rng);
        if x > initial_age {
            break x - initial_age;
        }
    };
    // First attempt needs work + checkpoint (job already recovered/running).
    let mut need = t + costs.checkpoint;
    loop {
        if remaining >= need {
            elapsed += need;
            return elapsed;
        }
        // Failure mid-attempt: lose the partial attempt, machine restarts
        // fresh (age 0) and the job must recover, redo the work, and
        // commit the checkpoint (latency L).
        elapsed += remaining;
        remaining = dist.sample(rng);
        need = costs.recovery + t + costs.latency;
    }
}

/// Compare the analytic Γ of the monomorphized kernel for `dist` with
/// the simulated mean.
fn check_gamma<'a, D>(dist: &'a D, costs: CheckpointCosts, t: f64, age: f64, seed: u64)
where
    D: AvailabilityModel,
    &'a D: Into<DistRef<'a>>,
{
    let model = VaidyaModel::new(dist, costs).unwrap();
    let analytic = model.gamma(t, age);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = 60_000;
    let mean: f64 = (0..n)
        .map(|_| simulate_one_interval(dist, costs, t, age, &mut rng))
        .sum::<f64>()
        / n as f64;
    let rel = (mean - analytic).abs() / analytic;
    assert!(
        rel < 0.03,
        "Γ mismatch: analytic {analytic:.1} vs simulated {mean:.1} (rel {rel:.3}) \
         [t={t}, age={age}]"
    );
}

#[test]
fn gamma_matches_simulation_exponential() {
    let d = Exponential::from_mean(3_600.0).unwrap();
    let costs = CheckpointCosts::symmetric(110.0);
    for &t in &[300.0, 900.0, 2_500.0] {
        check_gamma(&d, costs, t, 0.0, 1);
    }
}

#[test]
fn gamma_matches_simulation_exponential_any_age() {
    // Memoryless: age must not change the answer.
    let d = Exponential::from_mean(3_600.0).unwrap();
    let costs = CheckpointCosts::symmetric(110.0);
    check_gamma(&d, costs, 900.0, 5_000.0, 2);
}

#[test]
fn gamma_matches_simulation_weibull() {
    let d = Weibull::paper_exemplar();
    let costs = CheckpointCosts::symmetric(110.0);
    for &(t, age) in &[(500.0, 0.0), (1_500.0, 1_000.0), (4_000.0, 50_000.0)] {
        check_gamma(&d, costs, t, age, 3);
    }
}

#[test]
fn gamma_matches_simulation_hyperexp() {
    let d = HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap();
    let costs = CheckpointCosts::symmetric(110.0);
    for &(t, age) in &[(300.0, 0.0), (2_000.0, 2_000.0), (5_000.0, 20_000.0)] {
        check_gamma(&d, costs, t, age, 4);
    }
}

#[test]
fn gamma_matches_simulation_asymmetric_costs() {
    let d = Weibull::new(0.6, 5_000.0).unwrap();
    let costs = CheckpointCosts {
        checkpoint: 250.0,
        recovery: 400.0,
        latency: 250.0,
    };
    check_gamma(&d, costs, 1_200.0, 300.0, 5);
}

#[test]
fn efficiency_at_t_opt_beats_fixed_alternatives() {
    // Simulated steady-state efficiency at T_opt must beat simulated
    // efficiency at 3× and ⅓× T_opt (T_opt is argmin of simulated cost
    // too, not just analytic cost).
    let d = Weibull::paper_exemplar();
    let costs = CheckpointCosts::symmetric(500.0);
    let model = VaidyaModel::new(&d, costs).unwrap();
    let age = 1_000.0;
    let t_opt = model.optimal_interval(age).unwrap().work_seconds;
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let n = 40_000;
    let sim_ratio = |t: f64, rng: &mut ChaCha8Rng| -> f64 {
        let mean: f64 = (0..n)
            .map(|_| simulate_one_interval(&d, costs, t, age, rng))
            .sum::<f64>()
            / n as f64;
        mean / t
    };
    let at_opt = sim_ratio(t_opt, &mut rng);
    let at_high = sim_ratio(3.0 * t_opt, &mut rng);
    let at_low = sim_ratio(t_opt / 3.0, &mut rng);
    assert!(at_opt < at_high, "T_opt {at_opt} !< 3x {at_high}");
    assert!(at_opt < at_low, "T_opt {at_opt} !< 1/3x {at_low}");
}
