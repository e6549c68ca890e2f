//! Expectation–maximization for k-phase hyperexponentials.
//!
//! The paper uses the EMPht package (EM for general phase-type
//! distributions) to fit its 2- and 3-phase hyperexponentials. A k-phase
//! hyperexponential is exactly the mixture-of-exponentials sub-family of
//! phase type, for which EM has a clean closed-form M-step:
//!
//! * E-step: responsibilities
//!   `γᵢⱼ = pⱼ λⱼ e^{−λⱼ xᵢ} / Σₖ pₖ λₖ e^{−λₖ xᵢ}`
//! * M-step: `pⱼ = (1/n) Σᵢ γᵢⱼ`, `λⱼ = Σᵢ γᵢⱼ / Σᵢ γᵢⱼ xᵢ`
//!
//! Each iteration is guaranteed not to decrease the likelihood. EM on
//! mixtures is sensitive to initialization, so we run a deterministic
//! multi-start: quantile splits of the sorted data at several split
//! geometries, keeping the highest-likelihood result. If phases collapse
//! (equal rates or vanishing weight) the result degrades gracefully to
//! fewer effective phases and is repaired by nudging rates apart.
//!
//! Plain EM crawls along the mixture likelihood's ridge, so by default
//! every start is accelerated with SQUAREM (Varadhan & Roland, *Scand. J.
//! Stat.* 35, 2008): each cycle takes two EM maps, extrapolates along
//! them in `(ln w, ln λ)` coordinates and stabilises the jump with a
//! third map, falling back to the plain two-map result whenever the jump
//! loses likelihood (see [`EmState::advance`]). The fixed points and the
//! convergence test are plain EM's.

use super::estep::{estep_batched, EstepScratch};
use super::validate_data;
use crate::{DistError, HyperExponential, Result};
use serde::{Deserialize, Serialize};

/// Slack allowed to the accelerated default, in **per-observation**
/// log-likelihood units: its final log-likelihood must stay within
/// `RACE_LL_SLACK · n` of the plain-EM multi-start's
/// ([`EmOptions::exhaustive`]). The documented contract the
/// differential property test and `fit_bench`'s exit gate enforce.
pub const RACE_LL_SLACK: f64 = 1e-3;

/// E-steps one accelerated cycle spends at most: two EM maps and the
/// stabilising map of the extrapolated point.
const CYCLE_ESTEPS: usize = 3;

/// Per-observation log-likelihood gain of one EM map above which a
/// cycle does not extrapolate. Early maps gain a lot and decide which
/// local maximum the start climbs; extrapolating there can jump to
/// another one. Below this gain EM crawls along the ridge of the
/// maximum it has chosen, which is where the E-steps go.
const CRAWL_GAIN: f64 = 1e-4;

/// Factor by which the SQUAREM step-length bound grows after a step
/// that used all of it, and shrinks after one that was rejected
/// (Varadhan & Roland's default schedule, starting from 1).
const STEP_GROWTH: f64 = 4.0;

/// Tunables for the EM fit.
#[derive(Debug, Clone)]
pub struct EmOptions {
    /// E-step budget per start. Plain EM spends one per iteration; an
    /// accelerated cycle spends up to three and is started only while
    /// the budget left holds all three.
    pub max_iterations: usize,
    /// Convergence threshold on the per-sample log-likelihood change
    /// across one EM map.
    pub tolerance: f64,
    /// Floor for mixture weights; phases below it are reseeded.
    pub weight_floor: f64,
    /// Accelerate every start with SQUAREM cycles. Off, every start runs
    /// plain EM: the exhaustive path the differential suite pins
    /// bitwise to the frozen pipeline and `fit_bench` compares against.
    pub accelerate: bool,
}

impl Default for EmOptions {
    fn default() -> Self {
        Self {
            max_iterations: 2_000,
            tolerance: 1e-10,
            weight_floor: 1e-6,
            accelerate: true,
        }
    }
}

impl EmOptions {
    /// Plain EM on every start, run to full convergence: reproduces the
    /// frozen pipeline bitwise.
    pub fn exhaustive() -> Self {
        Self {
            accelerate: false,
            ..Self::default()
        }
    }
}

/// Diagnostics from one EM fit.
#[derive(Debug, Clone)]
pub struct EmReport {
    /// The fitted distribution.
    pub model: HyperExponential,
    /// Final log-likelihood over the training data.
    pub log_likelihood: f64,
    /// E-steps consumed by the winning start.
    pub iterations: usize,
    /// Whether the winning start met the convergence test (`false`: the
    /// E-step budget stopped it).
    pub converged: bool,
    /// Number of initializations attempted.
    pub starts: usize,
    /// E-steps consumed by all starts together.
    pub esteps: usize,
}

/// Fit a `phases`-phase hyperexponential by EM with deterministic
/// multi-start (the EMPht substitute).
///
/// Every start runs until it converges, degenerates or spends
/// `options.max_iterations` E-steps; the highest log-likelihood wins,
/// ties going to the earlier start. With `options.accelerate` on (the
/// default) each start takes SQUAREM cycles; off, plain EM reproduces
/// the frozen pipeline **bitwise** (pinned by `tests/em_differential.rs`).
///
/// # Errors
/// * [`DistError::InvalidData`] — sample shorter than `2·phases` or
///   containing non-positive values, or `phases == 0`.
/// * [`DistError::NoConvergence`] — every start degenerated.
pub fn fit_hyperexponential(data: &[f64], phases: usize, options: &EmOptions) -> Result<EmReport> {
    if phases == 0 {
        return Err(DistError::InvalidData {
            message: "phases must be >= 1",
        });
    }
    validate_data(data, (2 * phases).max(super::MIN_SAMPLE))?;

    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));

    let starts = initial_guesses(&sorted, phases);
    let n_starts = starts.len();
    let mut scratch = EmScratch::new(phases);
    let mut esteps = 0usize;
    let mut best: Option<EmState> = None;
    for (weights, rates) in starts {
        let mut state = EmState::new(weights, rates);
        state.advance(data, options.max_iterations, options, &mut scratch);
        esteps += state.iterations;
        // Strict `>` against the running best, like the frozen pick:
        // ties keep the earlier (first-geometry) start.
        if !state.dead && best.as_ref().is_none_or(|b| state.ll > b.ll) {
            best = Some(state);
        }
    }
    let state = best.ok_or(DistError::NoConvergence {
        routine: "fit_hyperexponential",
        iterations: options.max_iterations,
    })?;

    Ok(EmReport {
        model: state.model()?,
        log_likelihood: state.ll,
        iterations: state.iterations,
        converged: state.converged,
        starts: n_starts,
        esteps,
    })
}

/// Deterministic initializations: quantile splits of the sorted data with
/// several boundary geometries (even, head-heavy, tail-heavy). Each group
/// seeds one phase with `λ = 1/mean(group)`, `p = |group|/n`.
fn initial_guesses(sorted: &[f64], k: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    let n = sorted.len();
    if k == 1 {
        return vec![(vec![1.0], vec![1.0 / sorted_mean(sorted)])];
    }
    // Split geometries: fractions of the sorted data per phase.
    let geometries: Vec<Vec<f64>> = vec![
        vec![1.0 / k as f64; k],     // even split
        geometric_fractions(k, 2.0), // head-heavy (short durations dominate)
        geometric_fractions(k, 0.5), // tail-heavy
    ];
    let mut out = Vec::new();
    for fracs in geometries {
        let mut weights = Vec::with_capacity(k);
        let mut rates = Vec::with_capacity(k);
        let mut start = 0usize;
        let mut ok = true;
        for (j, f) in fracs.iter().enumerate() {
            let end = if j + 1 == k {
                n
            } else {
                (start + (f * n as f64).ceil() as usize).min(n)
            };
            if end <= start {
                ok = false;
                break;
            }
            let group = &sorted[start..end];
            let mean = group.iter().sum::<f64>() / group.len() as f64;
            if mean <= 0.0 {
                ok = false;
                break;
            }
            weights.push(group.len() as f64 / n as f64);
            rates.push(1.0 / mean);
            start = end;
        }
        if ok && rates.len() == k && start == n {
            // Nudge identical rates apart (possible with ties in the data).
            for i in 1..k {
                if (rates[i] - rates[i - 1]).abs() < 1e-9 * rates[i].abs() {
                    rates[i] *= 1.5;
                }
            }
            out.push((weights, rates));
        }
    }
    if out.is_empty() {
        // Fallback: single global mean split by powers of 4.
        let mean = sorted_mean(sorted);
        let weights = vec![1.0 / k as f64; k];
        let rates = (0..k).map(|j| 4f64.powi(j as i32) / mean).collect();
        out.push((weights, rates));
    }
    out
}

/// Mean of the sorted sample — the one global scan shared by the k == 1
/// path and the degenerate-geometry fallback (previously duplicated at
/// both sites). Summation order over the *sorted* data is part of the
/// frozen pipeline's bitwise contract, so this must not be replaced by a
/// scan of the unsorted input.
fn sorted_mean(sorted: &[f64]) -> f64 {
    sorted.iter().sum::<f64>() / sorted.len() as f64
}

/// Fractions `∝ r^j`, normalized.
fn geometric_fractions(k: usize, r: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..k).map(|j| r.powi(j as i32)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / total).collect()
}

/// Reusable EM workspace: the E-step buffers, the M-step sums and the
/// accelerated cycle's parameter copies, so no iteration or cycle
/// allocates. One scratch serves any number of sequential advances with
/// the same phase count.
#[derive(Debug)]
pub struct EmScratch {
    estep: EstepScratch,
    sum_resp: Vec<f64>,
    sum_resp_x: Vec<f64>,
    reseeded: Vec<usize>,
    /// θ₀ and θ₁ of the running cycle as `[ln w₁…ln w_k, ln λ₁…ln λ_k]`.
    log0: Vec<f64>,
    log1: Vec<f64>,
    /// θ₂, kept while the extrapolated point is tried.
    weights2: Vec<f64>,
    rates2: Vec<f64>,
}

impl EmScratch {
    /// Workspace for `phases`-phase fits.
    pub fn new(phases: usize) -> Self {
        Self {
            estep: EstepScratch::new(phases),
            sum_resp: vec![0.0; phases],
            sum_resp_x: vec![0.0; phases],
            reseeded: Vec::with_capacity(phases),
            log0: vec![0.0; 2 * phases],
            log1: vec![0.0; 2 * phases],
            weights2: vec![0.0; phases],
            rates2: vec![0.0; phases],
        }
    }
}

/// A resumable EM run: one multi-start candidate's parameters plus the
/// bookkeeping needed to pause it and resume it later on exactly the
/// trajectory an uninterrupted run would follow.
///
/// Public (and serializable) so long-running services can park a fit,
/// persist it, and resume later: a deserialized state advanced by `b₂`
/// E-steps lands bitwise on the trajectory the uninterrupted
/// `b₁ + b₂`-E-step run follows (pinned by the `em_resume` regression
/// suite).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmState {
    weights: Vec<f64>,
    rates: Vec<f64>,
    /// Log-likelihood of the parameters whose EM map produced the
    /// current ones (the frozen loop's report, and the reference the
    /// next map's change is tested against); −∞ before the first map.
    ll: f64,
    /// E-steps consumed so far.
    iterations: usize,
    /// Converged to `options.tolerance`.
    converged: bool,
    /// Degenerated beyond repair (the frozen loop's `None`).
    dead: bool,
    /// Largest SQUAREM step length the next cycle may take.
    step_max: f64,
}

impl EmState {
    /// Fresh state from an initial mixture guess. `weights` and `rates`
    /// must be the same length; EM itself repairs degenerate values.
    pub fn new(weights: Vec<f64>, rates: Vec<f64>) -> Self {
        Self {
            weights,
            rates,
            ll: f64::NEG_INFINITY,
            iterations: 0,
            converged: false,
            dead: false,
            step_max: 1.0,
        }
    }

    /// Seed a resumable state from an already-fitted mixture — the warm
    /// start a streaming refit resumes from after the data window moved.
    pub fn from_model(model: &HyperExponential) -> Self {
        Self::new(model.weights().to_vec(), model.rates().to_vec())
    }

    /// Advance by up to `budget` E-steps over `data`, stopping early on
    /// convergence or degeneracy. Splitting one budget across several
    /// calls reproduces the single-call trajectory bitwise.
    ///
    /// Plain EM (`options.accelerate` off) spends the budget one map at
    /// a time. Accelerated, each SQUAREM cycle from θ₀:
    ///
    /// 1. takes two EM maps θ₀ → θ₁ → θ₂, each under the plain
    ///    convergence test;
    /// 2. once the second map gained less than `CRAWL_GAIN` (1e-4) per
    ///    observation, extrapolates in `(ln w, ln λ)` coordinates to
    ///    `θ′ = θ₀ + 2s·r + s²·v`, with `r = θ₁ − θ₀`,
    ///    `v = θ₂ − 2θ₁ + θ₀` and step length `s = ‖r‖/‖v‖` clamped to
    ///    `[1, step_max]` (`s = 1` gives θ₂ back, and the cycle ends
    ///    there);
    /// 3. applies one stabilising EM map to θ′, keeping `M(θ′)` only when
    ///    `ll(θ′) ≥ ll(θ₁)` and the map reseeded no phase; otherwise the
    ///    cycle ends at θ₂, as it does without extrapolating when either
    ///    of the first two maps reseeded.
    ///
    /// `step_max` starts at 1, grows fourfold after a step that used all
    /// of it and shrinks fourfold after such a step is rejected
    /// (Varadhan & Roland's default schedule). A cycle is started only
    /// while the budget left holds all three of its E-steps, so the
    /// split-budget guarantee holds for both modes; up to two E-steps of
    /// a budget may go unspent.
    pub fn advance(
        &mut self,
        data: &[f64],
        budget: usize,
        options: &EmOptions,
        scratch: &mut EmScratch,
    ) {
        let cost = if options.accelerate { CYCLE_ESTEPS } else { 1 };
        let mut left = budget;
        while !(self.converged || self.dead) && left >= cost {
            let before = self.iterations;
            if options.accelerate {
                self.cycle(data, options, scratch);
            } else {
                self.step(data, options, scratch);
            }
            left -= self.iterations - before;
        }
    }

    /// Re-open a converged (or fresh) state for a **new** data window:
    /// convergence bookkeeping is reset so the next [`EmState::advance`]
    /// iterates against the new likelihood surface, while the fitted
    /// mixture carries over as the warm start.
    pub fn reopen(&mut self) {
        self.ll = f64::NEG_INFINITY;
        self.iterations = 0;
        self.converged = false;
        self.step_max = 1.0;
    }

    /// The current mixture, repaired into a valid [`HyperExponential`]
    /// (near-identical phases merged, weights renormalized).
    pub fn model(&self) -> Result<HyperExponential> {
        let phases: Vec<(f64, f64)> = self
            .weights
            .iter()
            .copied()
            .zip(self.rates.iter().copied())
            .collect();
        build_repaired(&phases)
    }

    /// Log-likelihood reported by the most recent accepted EM map.
    pub fn log_likelihood(&self) -> f64 {
        self.ll
    }

    /// E-steps consumed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the state converged to the options' tolerance.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Whether the run degenerated beyond repair.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Current mixture weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Current phase rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// One plain EM iteration under the convergence test; returns
    /// whether it reseeded a phase.
    fn step(&mut self, data: &[f64], options: &EmOptions, scratch: &mut EmScratch) -> bool {
        let Some((ll, reseeded)) =
            em_map(data, &mut self.weights, &mut self.rates, options, scratch)
        else {
            self.dead = true;
            return false;
        };
        self.iterations += 1;
        self.converged = (ll - self.ll).abs() < options.tolerance * data.len() as f64;
        self.ll = ll;
        reseeded
    }

    /// One SQUAREM cycle (see [`EmState::advance`]).
    fn cycle(&mut self, data: &[f64], options: &EmOptions, scratch: &mut EmScratch) {
        to_log_coords(&self.weights, &self.rates, &mut scratch.log0);
        let reseeded = self.step(data, options, scratch);
        if self.converged || self.dead {
            return;
        }
        to_log_coords(&self.weights, &self.rates, &mut scratch.log1);
        let ll0 = self.ll;
        let reseeded_again = self.step(data, options, scratch);
        // Extrapolate only along a smooth crawl: not across a reseed and
        // not while the maps still climb fast.
        if reseeded
            || reseeded_again
            || self.converged
            || self.dead
            || self.ll - ll0 > CRAWL_GAIN * data.len() as f64
        {
            return;
        }
        let Some(step) = step_length(
            &scratch.log0,
            &scratch.log1,
            &self.weights,
            &self.rates,
            self.step_max,
        ) else {
            return;
        };
        let at_max = step == self.step_max;
        if step > 1.0 && !self.try_extrapolated(data, step, options, scratch) {
            if at_max {
                self.step_max = (self.step_max / STEP_GROWTH).max(1.0);
            }
            return;
        }
        if at_max {
            self.step_max *= STEP_GROWTH;
        }
    }

    /// Replace θ₂ by the stabilising map of the SQUAREM point of length
    /// `step` when `ll(θ′) ≥ ll(θ₁)` and no phase reseeds; otherwise keep
    /// θ₂. Returns whether the point was taken.
    fn try_extrapolated(
        &mut self,
        data: &[f64],
        step: f64,
        options: &EmOptions,
        scratch: &mut EmScratch,
    ) -> bool {
        scratch.weights2.copy_from_slice(&self.weights);
        scratch.rates2.copy_from_slice(&self.rates);
        let finite = extrapolate(
            &scratch.log0,
            &scratch.log1,
            step,
            &mut self.weights,
            &mut self.rates,
        );
        let taken = finite && {
            self.iterations += 1;
            match em_map(data, &mut self.weights, &mut self.rates, options, scratch) {
                // `>=` rejects a NaN likelihood.
                Some((ll, false)) if ll >= self.ll => {
                    self.ll = ll;
                    true
                }
                _ => false,
            }
        };
        if !taken {
            self.weights.copy_from_slice(&scratch.weights2);
            self.rates.copy_from_slice(&scratch.rates2);
        }
        taken
    }
}

/// One EM map in place: E-step at `(weights, rates)`, closed-form M-step
/// with reseed repair into them. Returns the log-likelihood of the
/// parameters it started from and whether a phase was reseeded, or
/// `None` when the E-step degenerates (parameters then untouched).
fn em_map(
    data: &[f64],
    weights: &mut [f64],
    rates: &mut [f64],
    options: &EmOptions,
    scratch: &mut EmScratch,
) -> Option<(f64, bool)> {
    let n = data.len();
    // E-step in a numerically shifted domain (densities of widely
    // separated rates underflow otherwise), batched: see `estep.rs`.
    let ll = estep_batched(
        data,
        weights,
        rates,
        &mut scratch.sum_resp,
        &mut scratch.sum_resp_x,
        &mut scratch.estep,
    )?;
    // M-step.
    let (sum_resp, sum_resp_x) = (&scratch.sum_resp, &scratch.sum_resp_x);
    let reseeded = &mut scratch.reseeded;
    reseeded.clear();
    for j in 0..rates.len() {
        if sum_resp[j] < options.weight_floor * n as f64 || sum_resp_x[j] <= 0.0 {
            // Phase starved of data: reseed it at a rate off to the
            // side of the current fastest phase.
            let fastest = rates.iter().cloned().fold(0.0f64, f64::max);
            rates[j] = fastest * 3.0;
            weights[j] = 1.0 / n as f64;
            reseeded.push(j);
        } else {
            weights[j] = sum_resp[j] / n as f64;
            rates[j] = sum_resp[j] / sum_resp_x[j];
        }
    }
    // Nudge reseeded rates apart from every other phase, the same way
    // the initializer separates ties: a reseed can collide with a rate
    // another phase's normal update just produced, and duplicate rates
    // make the next E-step's responsibilities (and the final mixture)
    // degenerate.
    for &j in reseeded.iter() {
        while rates
            .iter()
            .enumerate()
            .any(|(i, &r)| i != j && (rates[j] - r).abs() < 1e-9 * rates[j].abs())
        {
            rates[j] *= 1.5;
        }
    }
    // Renormalize weights (reseeding can perturb the sum).
    let total: f64 = weights.iter().sum();
    weights.iter_mut().for_each(|w| *w /= total);
    Some((ll, !reseeded.is_empty()))
}

/// `[ln w…, ln λ…]` into `out` (length `2k`).
fn to_log_coords(weights: &[f64], rates: &[f64], out: &mut [f64]) {
    for (o, &p) in out.iter_mut().zip(weights.iter().chain(rates)) {
        *o = p.ln();
    }
}

/// SQUAREM step length `‖r‖/‖v‖` for θ₀, θ₁ (log coordinates) and θ₂
/// (`weights`, `rates`), clamped to `[1, step_max]`; `None` when `v`
/// vanishes or the length is not finite.
fn step_length(
    log0: &[f64],
    log1: &[f64],
    weights: &[f64],
    rates: &[f64],
    step_max: f64,
) -> Option<f64> {
    let (mut rr, mut vv) = (0.0f64, 0.0f64);
    for (i, &p2) in weights.iter().chain(rates).enumerate() {
        let r = log1[i] - log0[i];
        let v = p2.ln() - 2.0 * log1[i] + log0[i];
        rr += r * r;
        vv += v * v;
    }
    let step = (rr / vv).sqrt().max(1.0).min(step_max);
    (vv > 0.0 && step.is_finite()).then_some(step)
}

/// Overwrite θ₂ (`weights`, `rates`) with the SQUAREM point
/// `θ₀ + 2·step·r + step²·v` built from θ₀ and θ₁ in log coordinates, weights
/// renormalized. Returns `false`, leaving the parameters unusable, when
/// the point is not finite and positive.
fn extrapolate(
    log0: &[f64],
    log1: &[f64],
    step: f64,
    weights: &mut [f64],
    rates: &mut [f64],
) -> bool {
    for (i, p) in weights.iter_mut().chain(rates.iter_mut()).enumerate() {
        let (r, v) = (log1[i] - log0[i], p.ln() - 2.0 * log1[i] + log0[i]);
        *p = (log0[i] + 2.0 * step * r + step * step * v).exp();
    }
    let total: f64 = weights.iter().sum();
    weights.iter_mut().for_each(|w| *w /= total);
    weights
        .iter()
        .chain(rates.iter())
        .all(|&p| p > 0.0 && p.is_finite())
}

/// Build a [`HyperExponential`], merging near-identical phases so the
/// pairwise-distinct-rates invariant holds.
fn build_repaired(phases: &[(f64, f64)]) -> Result<HyperExponential> {
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(phases.len());
    'outer: for &(p, l) in phases {
        for slot in merged.iter_mut() {
            if (slot.1 - l).abs() <= 1e-9 * slot.1.abs() {
                slot.0 += p; // combine weights of indistinguishable phases
                continue 'outer;
            }
        }
        merged.push((p, l));
    }
    let total: f64 = merged.iter().map(|(p, _)| p).sum();
    for slot in merged.iter_mut() {
        slot.0 /= total;
    }
    HyperExponential::new(&merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AvailabilityModel;
    use chs_numerics::approx_eq;
    use rand::SeedableRng;

    fn sample(truth: &HyperExponential, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| truth.sample(&mut rng)).collect()
    }

    #[test]
    fn recovers_well_separated_mixture() {
        let truth = HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap();
        let data = sample(&truth, 20_000, 4);
        let report = fit_hyperexponential(&data, 2, &EmOptions::default()).unwrap();
        let m = report.model;
        // Identify the fast phase (largest rate).
        let (fast_idx, _) = m
            .rates()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let slow_idx = 1 - fast_idx;
        assert!(
            approx_eq(m.rates()[fast_idx], 1.0 / 300.0, 0.10, 0.0),
            "fast rate {}",
            m.rates()[fast_idx]
        );
        assert!(
            approx_eq(m.rates()[slow_idx], 1.0 / 30_000.0, 0.10, 0.0),
            "slow rate {}",
            m.rates()[slow_idx]
        );
        assert!(
            approx_eq(m.weights()[fast_idx], 0.7, 0.10, 0.0),
            "fast weight {}",
            m.weights()[fast_idx]
        );
    }

    #[test]
    fn likelihood_never_below_single_exponential() {
        // A k≥2 mixture strictly contains the exponential family, so the EM
        // optimum cannot be worse than the exponential MLE.
        let truth = crate::Weibull::paper_exemplar();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let data: Vec<f64> = (0..2_000).map(|_| truth.sample(&mut rng)).collect();
        let exp_fit = crate::fit::fit_exponential(&data).unwrap();
        let exp_ll = exp_fit.log_likelihood(&data);
        for k in [2usize, 3] {
            let report = fit_hyperexponential(&data, k, &EmOptions::default()).unwrap();
            assert!(
                report.log_likelihood >= exp_ll - 1e-6,
                "k={k}: EM ll {} < exp ll {exp_ll}",
                report.log_likelihood
            );
        }
    }

    #[test]
    fn three_phase_beats_or_ties_two_phase() {
        let truth = crate::Weibull::paper_exemplar();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
        let data: Vec<f64> = (0..3_000).map(|_| truth.sample(&mut rng)).collect();
        let r2 = fit_hyperexponential(&data, 2, &EmOptions::default()).unwrap();
        let r3 = fit_hyperexponential(&data, 3, &EmOptions::default()).unwrap();
        assert!(
            r3.log_likelihood >= r2.log_likelihood - 1e-3,
            "3-phase {} < 2-phase {}",
            r3.log_likelihood,
            r2.log_likelihood
        );
    }

    #[test]
    fn em_monotone_likelihood_via_report() {
        // The winning start's final likelihood must equal the model's
        // likelihood over the data (internal consistency).
        let truth = HyperExponential::new(&[(0.5, 0.01), (0.5, 0.0001)]).unwrap();
        let data = sample(&truth, 5_000, 99);
        let report = fit_hyperexponential(&data, 2, &EmOptions::default()).unwrap();
        let recomputed = report.model.log_likelihood(&data);
        assert!(
            approx_eq(report.log_likelihood, recomputed, 1e-6, 1e-3),
            "report {} recomputed {recomputed}",
            report.log_likelihood
        );
    }

    #[test]
    fn exponential_data_collapses_gracefully() {
        // Fitting k=2 to pure exponential data: phases may merge; the
        // resulting model must still be valid and close in mean.
        let truth = crate::Exponential::from_mean(1_000.0).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let data: Vec<f64> = (0..5_000).map(|_| truth.sample(&mut rng)).collect();
        let report = fit_hyperexponential(&data, 2, &EmOptions::default()).unwrap();
        assert!(
            approx_eq(report.model.mean(), 1_000.0, 0.08, 0.0),
            "mean {}",
            report.model.mean()
        );
    }

    #[test]
    fn small_sample_rules() {
        assert!(fit_hyperexponential(&[1.0, 2.0, 3.0], 2, &EmOptions::default()).is_err());
        assert!(fit_hyperexponential(&[1.0, 2.0], 0, &EmOptions::default()).is_err());
        // 25-sample training (the paper's regime) must work for k = 2, 3.
        let truth = HyperExponential::new(&[(0.6, 1.0 / 200.0), (0.4, 1.0 / 20_000.0)]).unwrap();
        let data = sample(&truth, 25, 31);
        assert!(fit_hyperexponential(&data, 2, &EmOptions::default()).is_ok());
        assert!(fit_hyperexponential(&data, 3, &EmOptions::default()).is_ok());
    }

    #[test]
    fn single_phase_em_is_exponential_mle() {
        let data = [100.0, 300.0, 500.0, 700.0];
        let report = fit_hyperexponential(&data, 1, &EmOptions::default()).unwrap();
        assert!(approx_eq(report.model.rates()[0], 1.0 / 400.0, 1e-9, 0.0));
    }

    #[test]
    fn reseeded_rates_stay_pairwise_distinct() {
        // Crafted collision: all data at x = 1/3 so phase 1's normal
        // M-step update lands at rate ≈ 3.0, while phase 0 (starved by a
        // vanishing weight) reseeds to 3 · fastest = 3 · 1.0 = exactly 3.0.
        // Without the post-reseed nudge the two phases ride the duplicate
        // rate to convergence.
        let data = vec![1.0 / 3.0; 200];
        let weights = vec![1e-300, 1.0 - 1e-300];
        let rates = vec![0.9, 1.0];
        // One iteration: degenerate single-valued data would eventually
        // pull both phases to 1/x through *normal* updates, which is the
        // repairer's job, not the reseed nudge's. The first M-step is
        // where the reseed/update collision happens (a plain map: an
        // accelerated cycle needs a budget of three).
        let options = EmOptions {
            max_iterations: 1,
            ..EmOptions::exhaustive()
        };
        let mut state = EmState::new(weights, rates);
        state.advance(&data, 1, &options, &mut EmScratch::new(2));
        assert_eq!(state.iterations(), 1);
        assert!(!state.is_dead());
        let rates = state.rates();
        for i in 0..rates.len() {
            for j in (i + 1)..rates.len() {
                assert!(
                    (rates[i] - rates[j]).abs() > 1e-9 * rates[i].abs(),
                    "duplicate rates survived EM: {rates:?}"
                );
            }
        }
    }
}
