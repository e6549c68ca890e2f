//! The pre-batching multi-start EM pipeline, copied verbatim: quantile
//! initial guesses → per-observation AoS E-step with `ln` recomputed per
//! term → closed-form M-step with reseed repair → best-likelihood pick →
//! phase merge, every start run to convergence.
//!
//! This is the frozen oracle the batched pipeline is pinned against. It
//! is included with `#[path]` by `em_differential.rs` (the proptest
//! suite) and by chs-bench's `fit_bench` (the timed baseline and the
//! `batched_bitwise` gate), so there is one copy.

use chs_dist::fit::EmOptions;
use chs_dist::{DistError, HyperExponential};

pub struct FrozenReport {
    pub model: HyperExponential,
    pub log_likelihood: f64,
    pub iterations: usize,
    pub starts: usize,
}

pub fn fit_hyperexponential(
    data: &[f64],
    phases: usize,
    options: &EmOptions,
) -> Result<FrozenReport, DistError> {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));

    let starts = initial_guesses(&sorted, phases);
    let n_starts = starts.len();
    let mut best: Option<(Vec<f64>, Vec<f64>, f64, usize)> = None;
    for (weights, rates) in starts {
        if let Some((w, r, ll, iters)) = em_run(data, weights, rates, options) {
            let better = match &best {
                None => true,
                Some((_, _, best_ll, _)) => ll > *best_ll,
            };
            if better {
                best = Some((w, r, ll, iters));
            }
        }
    }
    let (weights, rates, ll, iterations) = best.ok_or(DistError::NoConvergence {
        routine: "fit_hyperexponential",
        iterations: options.max_iterations,
    })?;

    let phases_vec: Vec<(f64, f64)> = weights.into_iter().zip(rates).collect();
    let model = build_repaired(&phases_vec)?;
    Ok(FrozenReport {
        model,
        log_likelihood: ll,
        iterations,
        starts: n_starts,
    })
}

fn initial_guesses(sorted: &[f64], k: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    let n = sorted.len();
    if k == 1 {
        let mean = sorted.iter().sum::<f64>() / n as f64;
        return vec![(vec![1.0], vec![1.0 / mean])];
    }
    let geometries: Vec<Vec<f64>> = vec![
        vec![1.0 / k as f64; k],
        geometric_fractions(k, 2.0),
        geometric_fractions(k, 0.5),
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
            for i in 1..k {
                if (rates[i] - rates[i - 1]).abs() < 1e-9 * rates[i].abs() {
                    rates[i] *= 1.5;
                }
            }
            out.push((weights, rates));
        }
    }
    if out.is_empty() {
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let weights = vec![1.0 / k as f64; k];
        let rates = (0..k).map(|j| 4f64.powi(j as i32) / mean).collect();
        out.push((weights, rates));
    }
    out
}

fn geometric_fractions(k: usize, r: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..k).map(|j| r.powi(j as i32)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / total).collect()
}

fn em_run(
    data: &[f64],
    mut weights: Vec<f64>,
    mut rates: Vec<f64>,
    options: &EmOptions,
) -> Option<(Vec<f64>, Vec<f64>, f64, usize)> {
    let n = data.len();
    let k = rates.len();
    let mut resp = vec![0.0f64; k];
    let mut sum_resp = vec![0.0f64; k];
    let mut sum_resp_x = vec![0.0f64; k];
    let mut reseeded: Vec<usize> = Vec::with_capacity(k);
    let mut prev_ll = f64::NEG_INFINITY;
    for iter in 0..options.max_iterations {
        sum_resp.iter_mut().for_each(|v| *v = 0.0);
        sum_resp_x.iter_mut().for_each(|v| *v = 0.0);
        let mut ll = 0.0;
        for &x in data {
            let mut max_log = f64::NEG_INFINITY;
            for j in 0..k {
                let lw = weights[j].ln() + rates[j].ln() - rates[j] * x;
                resp[j] = lw;
                if lw > max_log {
                    max_log = lw;
                }
            }
            let mut denom = 0.0;
            for r in resp.iter_mut() {
                *r = (*r - max_log).exp();
                denom += *r;
            }
            if denom <= 0.0 || !denom.is_finite() {
                return None;
            }
            ll += max_log + denom.ln();
            for j in 0..k {
                let g = resp[j] / denom;
                sum_resp[j] += g;
                sum_resp_x[j] += g * x;
            }
        }
        reseeded.clear();
        for j in 0..k {
            if sum_resp[j] < options.weight_floor * n as f64 || sum_resp_x[j] <= 0.0 {
                let fastest = rates.iter().cloned().fold(0.0f64, f64::max);
                rates[j] = fastest * 3.0;
                weights[j] = 1.0 / n as f64;
                reseeded.push(j);
            } else {
                weights[j] = sum_resp[j] / n as f64;
                rates[j] = sum_resp[j] / sum_resp_x[j];
            }
        }
        for &j in &reseeded {
            while rates
                .iter()
                .enumerate()
                .any(|(i, &r)| i != j && (rates[j] - r).abs() < 1e-9 * rates[j].abs())
            {
                rates[j] *= 1.5;
            }
        }
        let total: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= total);

        if (ll - prev_ll).abs() < options.tolerance * n as f64 {
            return Some((weights, rates, ll, iter + 1));
        }
        prev_ll = ll;
    }
    Some((weights, rates, prev_ll, options.max_iterations))
}

fn build_repaired(phases: &[(f64, f64)]) -> Result<HyperExponential, DistError> {
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(phases.len());
    'outer: for &(p, l) in phases {
        for slot in merged.iter_mut() {
            if (slot.1 - l).abs() <= 1e-9 * slot.1.abs() {
                slot.0 += p;
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
