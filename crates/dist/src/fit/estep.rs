//! Batched E-step kernel for the hyperexponential EM fit.
//!
//! The frozen per-observation loop (see `tests/em_differential.rs`) spends
//! most of its time on two redundancies:
//!
//! 1. `weights[j].ln() + rates[j].ln()` is recomputed for every
//!    observation — `n·k` `ln` calls per iteration for values that only
//!    change at the M-step. Here the per-phase log-constant
//!    `ln wⱼ + ln λⱼ` is hoisted and the shifted log-density becomes one
//!    multiply-subtract per term.
//! 2. The AoS responsibility loop touches every phase of every
//!    observation in one interleaved pass. Here the E-step runs as a
//!    chunked structure-of-arrays pipeline: per-phase `lw` rows over a
//!    64-observation chunk, a per-observation max reduction, a per-phase
//!    `exp` pass with an underflow early-skip, and per-phase fused
//!    accumulators for `Σγ`, `Σγ·x` and the log-likelihood.
//!
//! **Bitwise contract.** Every arithmetic operation that reaches an
//! accumulator is identical to the frozen loop's, in the same order per
//! accumulator:
//!
//! * the hoisted constant keeps the frozen association
//!   `(ln w + ln λ) − λ·x`;
//! * `max_log` folds over phases in ascending `j` with the same `>`
//!   compare;
//! * each `denom` receives its `exp` terms in ascending `j`, each
//!   per-phase accumulator receives its observations in ascending `i` —
//!   exactly the sequences the interleaved loop produces;
//! * the underflow skip only elides terms whose `exp` is **exactly**
//!   `+0.0` (shifted exponent below [`EXP_UNDERFLOW`]), and adding `+0.0`
//!   to a non-negative accumulator is a bitwise identity;
//! * a shifted exponent of exactly `±0.0` (the max phase, and any phase
//!   tied with it) takes `1.0` without calling `exp`, which returns
//!   exactly `1.0` there.
//!
//! The differential suite in `crates/dist/tests/em_differential.rs` pins
//! this contract against a verbatim copy of the pre-batching loop.

/// Shifted exponents below this value underflow to exactly `+0.0` in
/// f64: `exp(x) == 0.0` for every `x ≤ −745.14` (the cutoff is
/// `ln 2⁻¹⁰⁷⁵ ≈ −745.133`, below which the result rounds to zero rather
/// than the smallest subnormal). −745.2 sits safely past the boundary, so
/// skipping such terms changes no bit of any accumulator.
pub(crate) const EXP_UNDERFLOW: f64 = -745.2;

/// Observations per SoA chunk: big enough to amortize the per-chunk
/// passes, small enough that `(k + 2)` rows of scratch stay in L1.
const CHUNK: usize = 64;

/// Reusable buffers for [`estep_batched`]: allocated once per EM run and
/// shared across iterations and starts.
#[derive(Debug)]
pub(crate) struct EstepScratch {
    /// Per-phase log-constants `ln wⱼ + ln λⱼ` (length `k`).
    log_const: Vec<f64>,
    /// SoA responsibility rows, `lw[j * CHUNK + c]`; holds the shifted
    /// log-densities in pass 1 and their exponentials from pass 3 on.
    lw: Vec<f64>,
    /// Per-observation max of the shifted log-densities.
    max_log: [f64; CHUNK],
    /// Per-observation normalizer `Σⱼ exp(lwⱼ − max)`.
    denom: [f64; CHUNK],
}

impl EstepScratch {
    /// Scratch for a `k`-phase fit.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            log_const: vec![0.0; k],
            lw: vec![0.0; k * CHUNK],
            max_log: [f64::NEG_INFINITY; CHUNK],
            denom: [0.0; CHUNK],
        }
    }
}

/// One batched E-step pass: accumulates `Σγ` into `sum_resp`, `Σγ·x` into
/// `sum_resp_x` (both zeroed here) and returns the data log-likelihood
/// under the current `(weights, rates)`. Returns `None` when a
/// normalizer degenerates (zero or non-finite), matching the frozen
/// loop's mid-iteration abort.
pub(crate) fn estep_batched(
    data: &[f64],
    weights: &[f64],
    rates: &[f64],
    sum_resp: &mut [f64],
    sum_resp_x: &mut [f64],
    scratch: &mut EstepScratch,
) -> Option<f64> {
    let k = rates.len();
    debug_assert_eq!(weights.len(), k);
    debug_assert_eq!(scratch.log_const.len(), k);
    sum_resp.iter_mut().for_each(|v| *v = 0.0);
    sum_resp_x.iter_mut().for_each(|v| *v = 0.0);

    // Hoisted per-iteration constants: 2k `ln` calls instead of 2nk.
    for j in 0..k {
        scratch.log_const[j] = weights[j].ln() + rates[j].ln();
    }

    let mut ll = 0.0;
    for chunk in data.chunks(CHUNK) {
        let m = chunk.len();

        // Pass 1 — per-phase shifted log-densities: lwⱼ(x) = cⱼ − λⱼ·x.
        for (j, (&c0, &rate)) in scratch.log_const.iter().zip(rates).enumerate() {
            let row = &mut scratch.lw[j * CHUNK..j * CHUNK + m];
            for (v, &x) in row.iter_mut().zip(chunk) {
                *v = c0 - rate * x;
            }
        }

        // Pass 2 — per-observation max over phases, ascending j with the
        // frozen loop's strict `>` compare.
        scratch.max_log[..m].fill(f64::NEG_INFINITY);
        for j in 0..k {
            let row = &scratch.lw[j * CHUNK..j * CHUNK + m];
            for (&v, max) in row.iter().zip(&mut scratch.max_log[..m]) {
                if v > *max {
                    *max = v;
                }
            }
        }

        // Pass 3 — exponentials and normalizers. Each denom[c] receives
        // its terms in ascending j, the frozen accumulation order; terms
        // past the underflow cutoff are exactly +0.0 and are skipped, and
        // the max phase's shifted exponent is exactly 0.0, whose `exp` is
        // exactly 1.0 without the call.
        scratch.denom[..m].fill(0.0);
        for j in 0..k {
            let row = &mut scratch.lw[j * CHUNK..j * CHUNK + m];
            for ((v, &max), dn) in row
                .iter_mut()
                .zip(&scratch.max_log[..m])
                .zip(&mut scratch.denom[..m])
            {
                let d = *v - max;
                if d < EXP_UNDERFLOW {
                    *v = 0.0;
                } else {
                    let e = if d == 0.0 { 1.0 } else { d.exp() };
                    *v = e;
                    *dn += e;
                }
            }
        }

        // Pass 4 — degeneracy gate and log-likelihood, in observation
        // order (the max phase contributes exp(0) = 1, so a zero denom
        // means non-finite inputs, exactly as in the frozen loop).
        for c in 0..m {
            let dn = scratch.denom[c];
            if dn <= 0.0 || !dn.is_finite() {
                return None;
            }
            ll += scratch.max_log[c] + dn.ln();
        }

        // Pass 5 — fused per-phase accumulators: each receives its
        // observations in ascending order, matching the frozen loop's
        // per-accumulator sequence. Exact-zero responsibilities are
        // skipped (γ = +0.0 adds are bitwise identities).
        for j in 0..k {
            let row = &scratch.lw[j * CHUNK..j * CHUNK + m];
            let mut sr = sum_resp[j];
            let mut srx = sum_resp_x[j];
            for c in 0..m {
                let e = row[c];
                if e == 0.0 {
                    continue;
                }
                let g = e / scratch.denom[c];
                sr += g;
                srx += g * chunk[c];
            }
            sum_resp[j] = sr;
            sum_resp_x[j] = srx;
        }
    }
    Some(ll)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-batching E-step, verbatim: the in-crate bitwise oracle
    /// (the full frozen pipeline lives in `tests/em_differential.rs`).
    fn estep_frozen(
        data: &[f64],
        weights: &[f64],
        rates: &[f64],
        sum_resp: &mut [f64],
        sum_resp_x: &mut [f64],
    ) -> Option<f64> {
        let k = rates.len();
        let mut resp = vec![0.0f64; k];
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
        Some(ll)
    }

    fn assert_bitwise_match(data: &[f64], weights: &[f64], rates: &[f64]) {
        let k = rates.len();
        let mut scratch = EstepScratch::new(k);
        let (mut sr_b, mut srx_b) = (vec![0.0; k], vec![0.0; k]);
        let (mut sr_f, mut srx_f) = (vec![0.0; k], vec![0.0; k]);
        let ll_b = estep_batched(data, weights, rates, &mut sr_b, &mut srx_b, &mut scratch);
        let ll_f = estep_frozen(data, weights, rates, &mut sr_f, &mut srx_f);
        match (ll_b, ll_f) {
            (None, None) => {}
            (Some(b), Some(f)) => {
                assert_eq!(b.to_bits(), f.to_bits(), "ll: batched {b:e} frozen {f:e}");
                for j in 0..k {
                    assert_eq!(sr_b[j].to_bits(), sr_f[j].to_bits(), "sum_resp[{j}]");
                    assert_eq!(srx_b[j].to_bits(), srx_f[j].to_bits(), "sum_resp_x[{j}]");
                }
            }
            (b, f) => panic!("divergent degeneracy: batched {b:?} frozen {f:?}"),
        }
    }

    #[test]
    fn matches_frozen_small() {
        let data = [3.0, 700.0, 12_000.0, 45.0, 0.5, 88.0];
        assert_bitwise_match(&data, &[0.6, 0.4], &[1.0 / 10.0, 1.0 / 5_000.0]);
        assert_bitwise_match(
            &data,
            &[0.5, 0.3, 0.2],
            &[1.0 / 2.0, 1.0 / 300.0, 1.0 / 40_000.0],
        );
        assert_bitwise_match(&data, &[1.0], &[1.0 / 100.0]);
    }

    #[test]
    fn matches_frozen_across_chunk_boundaries() {
        // Lengths straddling the 64-observation chunk: 1, 63, 64, 65, 200.
        for n in [1usize, 63, 64, 65, 200] {
            let data: Vec<f64> = (0..n)
                .map(|i| ((i as f64) * 173.3) % 9_000.0 + 0.25)
                .collect();
            assert_bitwise_match(&data, &[0.7, 0.3], &[1.0 / 50.0, 1.0 / 20_000.0]);
        }
    }

    #[test]
    fn matches_frozen_under_deep_underflow() {
        // Rates separated enough that the slow phase's shifted exponent
        // falls past the −745 cutoff for large x: the skip must engage
        // and still agree bitwise (the frozen loop adds the exact +0.0).
        let data = [1e-3, 1.0, 5e4, 2e5, 8e5];
        assert_bitwise_match(&data, &[0.9, 0.1], &[5.0, 1e-7]);
        assert_bitwise_match(&data, &[0.5, 0.5], &[900.0, 1e-9]);
    }

    #[test]
    fn degenerate_inputs_return_none_like_frozen() {
        // All-zero weights: every shifted log-density is −∞, the shift
        // produces NaN exponents and a NaN normalizer — both paths must
        // abort with None.
        let data = [10.0, 250.0, 4_000.0];
        let k = 2;
        let mut scratch = EstepScratch::new(k);
        let (mut sr, mut srx) = (vec![0.0; k], vec![0.0; k]);
        let batched = estep_batched(
            &data,
            &[0.0, 0.0],
            &[0.1, 0.001],
            &mut sr,
            &mut srx,
            &mut scratch,
        );
        let frozen = estep_frozen(&data, &[0.0, 0.0], &[0.1, 0.001], &mut sr, &mut srx);
        assert!(batched.is_none());
        assert!(frozen.is_none());
    }
}
