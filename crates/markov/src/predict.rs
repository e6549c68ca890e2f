//! Analytic prediction of steady-state efficiency and network load —
//! what a pool administrator needs to *size the network* without running
//! trace simulations.
//!
//! In steady state a job's life is a renewal process over availability
//! segments: each segment starts with a recovery, then follows the
//! aperiodic schedule until the owner returns. With the fitted
//! availability CDF `F` (survival `S`), schedule boundaries
//!
//! ```text
//! b_0 = R,  w_k = b_{k-1} + T_k,  b_k = w_k + C
//! ```
//!
//! (work interval `T_k` is computed at age `b_{k-1}`), the expected
//! per-segment quantities are exact sums over the schedule:
//!
//! * useful work   `Σ_k T_k · S(b_k)`
//! * committed checkpoints `Σ_k S(b_k)`
//! * partial checkpoint bytes via
//!   `∫_w^b (a−w) f(a) da = ∫_w^b S − (b−w)·S(b)`
//!
//! Dividing by the mean segment length `E[A]` turns them into rates.

use crate::vaidya::VaidyaModel;
use crate::Result;
use chs_dist::{ConditionedDist, DistRef};
use serde::{Deserialize, Serialize};

/// Predicted steady-state behaviour of a job driven by the model's own
/// schedule, assuming availability truly follows the fitted distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteadyStatePrediction {
    /// Expected useful work per availability segment, seconds.
    pub useful_per_segment: f64,
    /// Expected committed checkpoints per segment.
    pub checkpoints_per_segment: f64,
    /// Expected megabytes per segment (recovery + committed + partial
    /// transfers).
    pub megabytes_per_segment: f64,
    /// Mean segment length under the model, seconds.
    pub mean_segment: f64,
    /// Predicted efficiency: useful / mean segment.
    pub efficiency: f64,
    /// Predicted megabytes per available hour.
    pub megabytes_per_hour: f64,
    /// Schedule intervals actually summed before survival became
    /// negligible.
    pub intervals_summed: usize,
}

/// Hard cap on summed intervals (survival usually dies out long before).
pub const MAX_PREDICTION_INTERVALS: usize = 4_096;

/// Predict steady-state efficiency and network load for a job following
/// `model`'s optimal schedule, with `image_mb`-sized checkpoint/recovery
/// images.
///
/// The prediction is *self-consistent*: it assumes availability follows
/// the same distribution the schedule was computed from, so comparing it
/// against trace simulation on model-generated traces validates both
/// sides (see the `prediction_matches_simulation` integration test).
pub fn predict_steady_state<'a>(
    vaidya: &VaidyaModel<'_>,
    dist: impl Into<DistRef<'a>>,
    image_mb: f64,
) -> Result<SteadyStatePrediction> {
    let costs = vaidya.costs();
    let c = costs.checkpoint;
    let r = costs.recovery;
    let dist = dist.into();
    let mean_segment = dist.mean();

    // The law at age 0 is the unconditional one: S(x) and
    // I_S(x) = ∫₀^x S(a) da.
    let fresh = ConditionedDist::new(dist, 0.0);
    let integral = |x: f64| fresh.survival_integral(x);

    // Recovery bytes: full image if the segment survives R, else the
    // transferred fraction a/R.  E = I·[S(R) + (∫₀^R S − R·S(R))/R]
    // since ∫₀^R a f(a) da = ∫₀^R S − R·S(R).
    let mut megabytes = if r > 0.0 {
        image_mb * (fresh.survival(r) + (integral(r) - r * fresh.survival(r)) / r)
    } else {
        image_mb
    };

    let mut useful = 0.0;
    let mut checkpoints = 0.0;
    let mut boundary = r; // b_{k-1}
    let mut summed = 0;
    for _ in 0..MAX_PREDICTION_INTERVALS {
        let t_k = vaidya.optimal_interval(boundary)?.work_seconds;
        let work_end = boundary + t_k; // w_k
        let commit = work_end + c; // b_k
        let s_commit = fresh.survival(commit);
        useful += t_k * s_commit;
        checkpoints += s_commit;
        megabytes += image_mb * s_commit;
        if c > 0.0 {
            // Partial bytes when the owner returns mid-transfer.
            let partial_seconds = (integral(commit) - integral(work_end)) - c * s_commit;
            megabytes += image_mb * (partial_seconds / c).max(0.0);
        }
        summed += 1;
        boundary = commit;
        if s_commit < 1e-9 {
            break;
        }
    }

    Ok(SteadyStatePrediction {
        useful_per_segment: useful,
        checkpoints_per_segment: checkpoints,
        megabytes_per_segment: megabytes,
        mean_segment,
        efficiency: if mean_segment > 0.0 {
            useful / mean_segment
        } else {
            0.0
        },
        megabytes_per_hour: if mean_segment > 0.0 {
            megabytes / (mean_segment / 3_600.0)
        } else {
            0.0
        },
        intervals_summed: summed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckpointCosts;
    use chs_dist::{Exponential, HyperExponential, Weibull};

    /// The paper exemplar Weibull, a bimodal 2-phase hyperexponential and
    /// an exponential at C = 110 s with a 500 MB image, pinned to the
    /// bits `predict_steady_state` produced when it integrated through
    /// the per-family trait forms. The switch to the age-0 kernel must
    /// not move a single bit.
    #[test]
    fn predictions_are_pinned_to_exact_bits() {
        let w = Weibull::paper_exemplar();
        let h = HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap();
        let e = Exponential::from_mean(3_600.0).unwrap();
        let costs = CheckpointCosts::symmetric(110.0);
        // (useful, checkpoints, megabytes, mean segment, efficiency,
        // MB per hour) bits, and the intervals summed.
        let cases: [(DistRef<'_>, [u64; 6], usize); 3] = [
            (
                DistRef::from(&w),
                [
                    0x40c0_1182_4c50_705d,
                    0x4013_d42e_7ec1_a6f7,
                    0x40a6_c7d6_7257_42f9,
                    0x40c2_5928_c66f_4dfe,
                    0x3fec_0618_3f14_73d8,
                    0x4091_75a4_1812_eb25,
                ],
                836,
            ),
            (
                DistRef::from(&h),
                [
                    0x40bf_de4b_3abc_c18b,
                    0x4007_3b1e_63f7_36cc,
                    0x409d_a552_5c4d_219c,
                    0x40c1_fd00_0000_0000,
                    0x3fec_588a_842f_9787,
                    0x4087_2d05_2e4e_a4b3,
                ],
                224,
            ),
            (
                DistRef::from(&e),
                [
                    0x40a5_143a_198b_c63b,
                    0x400a_61c2_e63d_8cd1,
                    0x40a0_ed82_c598_232b,
                    0x40ac_2000_0000_0000,
                    0x3fe7_fbb5_052c_1dd8,
                    0x40a0_ed82_c598_232b,
                ],
                81,
            ),
        ];
        for (dist, bits, summed) in cases {
            let m = VaidyaModel::new(dist, costs).unwrap();
            let p = predict_steady_state(&m, dist, 500.0).unwrap();
            let got = [
                p.useful_per_segment,
                p.checkpoints_per_segment,
                p.megabytes_per_segment,
                p.mean_segment,
                p.efficiency,
                p.megabytes_per_hour,
            ]
            .map(f64::to_bits);
            assert_eq!(got, bits, "{dist:?}: {p:?}");
            assert_eq!(p.intervals_summed, summed, "{dist:?}");
        }
    }

    #[test]
    fn prediction_fields_sane() {
        let d = Weibull::paper_exemplar();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let p = predict_steady_state(&m, &d, 500.0).unwrap();
        assert!(p.efficiency > 0.0 && p.efficiency < 1.0, "{p:?}");
        assert!(p.useful_per_segment > 0.0);
        assert!(p.megabytes_per_segment >= 500.0 * p.checkpoints_per_segment);
        assert!(p.intervals_summed > 1);
        assert!(p.megabytes_per_hour > 0.0);
    }

    #[test]
    fn higher_cost_less_efficiency_fewer_checkpoints_per_hour() {
        let d = Weibull::paper_exemplar();
        let cheap = VaidyaModel::new(&d, CheckpointCosts::symmetric(50.0)).unwrap();
        let dear = VaidyaModel::new(&d, CheckpointCosts::symmetric(1_000.0)).unwrap();
        let pc = predict_steady_state(&cheap, &d, 500.0).unwrap();
        let pd = predict_steady_state(&dear, &d, 500.0).unwrap();
        assert!(pc.efficiency > pd.efficiency);
        assert!(pc.megabytes_per_hour > pd.megabytes_per_hour);
    }

    #[test]
    fn exponential_prediction_matches_per_interval_efficiency_loosely() {
        // For a memoryless model the schedule is periodic and the
        // renewal-over-segments efficiency must land close to (but below,
        // because of per-segment recovery and end-of-segment loss) the
        // per-interval analytic efficiency T/Γ.
        let d = Exponential::from_mean(3_600.0).unwrap();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let per_interval = m.optimal_interval(0.0).unwrap().efficiency;
        let p = predict_steady_state(&m, &d, 500.0).unwrap();
        assert!(
            p.efficiency < per_interval,
            "segment view must pay recovery: {} !< {per_interval}",
            p.efficiency
        );
        assert!(
            p.efficiency > 0.5 * per_interval,
            "but not collapse: {} vs {per_interval}",
            p.efficiency
        );
    }

    #[test]
    fn zero_recovery_counts_full_image_once() {
        let d = Exponential::from_mean(10_000.0).unwrap();
        let m = VaidyaModel::new(
            &d,
            CheckpointCosts {
                checkpoint: 100.0,
                recovery: 0.0,
                latency: 100.0,
            },
        )
        .unwrap();
        let p = predict_steady_state(&m, &d, 500.0).unwrap();
        // megabytes >= recovery image + committed checkpoints.
        assert!(p.megabytes_per_segment >= 500.0 + 500.0 * p.checkpoints_per_segment - 1e-9);
    }
}
