//! Synthetic Condor-pool generation.
//!
//! **Substitution note (DESIGN.md §5).** The paper's evaluation runs over
//! ~640 UW machines observed for 18 months. That data set is not
//! available, so experiments here run over a synthetic pool whose
//! per-machine ground-truth processes are drawn from a heterogeneous
//! meta-distribution calibrated to what the paper reports:
//!
//! * the exemplar machine MLE fit is Weibull(shape 0.43, scale 3409) —
//!   our Weibull machines draw shapes uniformly from \[0.3, 0.7\] and
//!   log-normal scales with median 3409;
//! * availability is bimodal in practice (short interactive-hours
//!   evictions vs. long nights/weekends) — a fraction of machines are
//!   2-phase hyperexponential, optionally with *diurnal* phase selection
//!   (day-time starts favor the short phase);
//! * a small fraction of machines are genuinely memoryless (exponential),
//!   keeping the model-comparison honest.
//!
//! Everything is deterministic given a seed: machine `i` derives its own
//! `ChaCha8` stream from `(seed, i)`.

use crate::{AvailabilityTrace, MachineId, MachinePool, Observation};
use chs_dist::{AvailabilityModel, Exponential, HyperExponential, Weibull};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Seconds per day.
pub const DAY: f64 = 86_400.0;
/// Seconds per hour.
pub const HOUR: f64 = 3_600.0;

/// The ground-truth availability process of one synthetic machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroundTruth {
    /// Heavy-tailed Weibull machine (the dominant population).
    Weibull(Weibull),
    /// Bimodal machine: short interactive evictions + long quiet periods.
    Bimodal(HyperExponential),
    /// Memoryless machine.
    Memoryless(Exponential),
    /// Bimodal with diurnal phase selection: an interval starting during
    /// working hours (9–17 local) draws from the short phase with
    /// probability `day_short_prob`, otherwise `night_short_prob`.
    Diurnal {
        /// Mean of the short (interactive-eviction) phase, seconds.
        short_mean: f64,
        /// Mean of the long (overnight/weekend) phase, seconds.
        long_mean: f64,
        /// P(short phase) for day-time starts.
        day_short_prob: f64,
        /// P(short phase) for night/weekend starts.
        night_short_prob: f64,
    },
}

impl GroundTruth {
    /// Draw one availability duration starting at UTC `start` seconds.
    pub fn sample_duration(&self, start: f64, rng: &mut ChaCha8Rng) -> f64 {
        match self {
            GroundTruth::Weibull(w) => w.sample(rng),
            GroundTruth::Bimodal(h) => h.sample(rng),
            GroundTruth::Memoryless(e) => e.sample(rng),
            GroundTruth::Diurnal {
                short_mean,
                long_mean,
                day_short_prob,
                night_short_prob,
            } => {
                let hour_of_day = (start % DAY) / HOUR;
                let weekday = ((start / DAY) as u64) % 7 < 5;
                let is_work_hours = weekday && (9.0..17.0).contains(&hour_of_day);
                let p_short = if is_work_hours {
                    *day_short_prob
                } else {
                    *night_short_prob
                };
                let mean = if rng.gen::<f64>() < p_short {
                    *short_mean
                } else {
                    *long_mean
                };
                // Each phase is exponential.
                -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() * mean
            }
        }
    }

    /// The stationary mean duration (time-of-day averaged for diurnal).
    pub fn mean(&self) -> f64 {
        match self {
            GroundTruth::Weibull(w) => w.mean(),
            GroundTruth::Bimodal(h) => h.mean(),
            GroundTruth::Memoryless(e) => e.mean(),
            GroundTruth::Diurnal {
                short_mean,
                long_mean,
                day_short_prob,
                night_short_prob,
            } => {
                // Work hours are 8/24 of weekdays, i.e. 40/168 of the week.
                let work_frac: f64 = 40.0 / 168.0;
                let p = work_frac * day_short_prob + (1.0 - work_frac) * night_short_prob;
                p * short_mean + (1.0 - p) * long_mean
            }
        }
    }
}

/// Configuration for the synthetic pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Number of machines (the paper's usable pool: ~640).
    pub machines: usize,
    /// Observations recorded per machine.
    pub observations_per_machine: usize,
    /// Fraction of heavy-tailed Weibull machines.
    pub weibull_fraction: f64,
    /// Fraction of bimodal hyperexponential machines.
    pub bimodal_fraction: f64,
    /// Fraction of diurnal machines (the remainder is memoryless).
    pub diurnal_fraction: f64,
    /// Weibull shape range (uniform).
    pub shape_range: (f64, f64),
    /// Median Weibull scale; per-machine scales are log-normal around it.
    pub median_scale: f64,
    /// σ of the log-normal scale spread.
    pub scale_log_sigma: f64,
    /// Mean un-availability gap between observations, seconds.
    pub mean_gap: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            machines: 640,
            observations_per_machine: 225, // 25 training + 200 experimental
            weibull_fraction: 0.45,
            bimodal_fraction: 0.38,
            diurnal_fraction: 0.12,
            shape_range: (0.30, 0.70),
            // Calibrated so the pool-average efficiency curve matches the
            // paper's Figure 3 (≈0.75 at C = 50 s falling to ≈0.33 at
            // C = 1500 s): pool-median availability ≈ 25–40 min, with a
            // log-normal spread wide enough that the paper's exemplar
            // machine (scale 3409) sits in the upper quartile.
            median_scale: 700.0,
            scale_log_sigma: 0.9,
            mean_gap: 2.0 * HOUR,
            seed: 0xC0_4D_02, // "condor"
        }
    }
}

impl PoolConfig {
    /// Check the distribution knobs; the error names the first field out
    /// of range. Fractions lie in `[0, 1]` and sum to at most 1, the
    /// shape range is `0 < low ≤ high`, the median scale is positive and
    /// the scale spread and mean gap are non-negative, all finite.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let fractions = [
            ("weibull_fraction", self.weibull_fraction),
            ("bimodal_fraction", self.bimodal_fraction),
            ("diurnal_fraction", self.diurnal_fraction),
        ];
        for (name, f) in fractions {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("{name} must be in [0, 1]: {f}"));
            }
        }
        let total: f64 = fractions.iter().map(|(_, f)| f).sum();
        if total > 1.0 {
            return Err(format!(
                "weibull_fraction + bimodal_fraction + diurnal_fraction must be at most 1: {total}"
            ));
        }
        let (lo, hi) = self.shape_range;
        if !(lo > 0.0 && lo <= hi && hi.is_finite()) {
            return Err(format!(
                "shape_range must be finite with 0 < low <= high: ({lo}, {hi})"
            ));
        }
        if !(self.median_scale.is_finite() && self.median_scale > 0.0) {
            return Err(format!(
                "median_scale must be positive and finite: {}",
                self.median_scale
            ));
        }
        for (name, v) in [
            ("scale_log_sigma", self.scale_log_sigma),
            ("mean_gap", self.mean_gap),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and non-negative: {v}"));
            }
        }
        Ok(())
    }

    /// A small pool for fast tests and examples.
    pub fn small(machines: usize, observations: usize, seed: u64) -> Self {
        Self {
            machines,
            observations_per_machine: observations,
            seed,
            ..Self::default()
        }
    }
}

/// A generated machine: its trace plus the ground truth that produced it
/// (kept so experiments can compare fitted models against the truth).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticMachine {
    /// The generated availability history.
    pub trace: AvailabilityTrace,
    /// The process that generated it.
    pub ground_truth: GroundTruth,
}

/// A fully generated pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticPool {
    /// Per-machine traces with their ground truths.
    pub machines: Vec<SyntheticMachine>,
    /// The configuration that produced the pool.
    pub config: PoolConfig,
}

impl SyntheticPool {
    /// Strip ground truths, yielding the plain [`MachinePool`] view the
    /// fitting pipeline consumes.
    pub fn as_machine_pool(&self) -> MachinePool {
        MachinePool::new(self.machines.iter().map(|m| m.trace.clone()).collect())
    }
}

/// Generate a synthetic Condor pool deterministically from `config`.
pub fn generate_pool(config: &PoolConfig) -> SyntheticPool {
    let machines = (0..config.machines)
        .map(|i| generate_machine(config, i as u32))
        .collect();
    SyntheticPool {
        machines,
        config: clone_config(config),
    }
}

fn clone_config(c: &PoolConfig) -> PoolConfig {
    c.clone()
}

/// Generate one machine (deterministic in `(config.seed, index)`).
pub fn generate_machine(config: &PoolConfig, index: u32) -> SyntheticMachine {
    let mut rng = machine_rng(config.seed, index);
    let ground_truth = draw_ground_truth(config, &mut rng);
    let trace = synthesize_trace(
        MachineId(index),
        &ground_truth,
        config.observations_per_machine,
        config.mean_gap,
        &mut rng,
    );
    SyntheticMachine {
        trace,
        ground_truth,
    }
}

/// Derive machine `index`'s RNG stream from the pool seed.
fn machine_rng(seed: u64, index: u32) -> ChaCha8Rng {
    // SplitMix-style mix so adjacent indices decorrelate.
    let mut z = seed ^ (u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ChaCha8Rng::seed_from_u64(z ^ (z >> 31))
}

fn draw_ground_truth(config: &PoolConfig, rng: &mut ChaCha8Rng) -> GroundTruth {
    let (lo, hi) = config.shape_range;
    let class: f64 = rng.gen();
    if class < config.weibull_fraction {
        let shape = lo + (hi - lo) * rng.gen::<f64>();
        // log-normal scale: median · e^{σZ} with Z ~ N(0,1) (Box–Muller).
        let z = standard_normal(rng);
        let scale = config.median_scale * (config.scale_log_sigma * z).exp();
        GroundTruth::Weibull(Weibull::new(shape, scale).expect("valid synthetic params"))
    } else if class < config.weibull_fraction + config.bimodal_fraction {
        // Short phase: minutes; long phase: a few hours (nights/weekends).
        let short_mean = 60.0 + 360.0 * rng.gen::<f64>();
        let long_mean = 1.5 * HOUR + 6.0 * HOUR * rng.gen::<f64>();
        let p_short = 0.55 + 0.35 * rng.gen::<f64>();
        GroundTruth::Bimodal(
            HyperExponential::new(&[
                (p_short, 1.0 / short_mean),
                (1.0 - p_short, 1.0 / long_mean),
            ])
            .expect("valid synthetic params"),
        )
    } else if class < config.weibull_fraction + config.bimodal_fraction + config.diurnal_fraction {
        GroundTruth::Diurnal {
            short_mean: 180.0 + 600.0 * rng.gen::<f64>(),
            long_mean: 3.0 * HOUR + 9.0 * HOUR * rng.gen::<f64>(),
            day_short_prob: 0.85,
            night_short_prob: 0.25,
        }
    } else {
        let mean = 0.5 * HOUR + 2.0 * HOUR * rng.gen::<f64>();
        GroundTruth::Memoryless(Exponential::from_mean(mean).expect("valid synthetic params"))
    }
}

fn standard_normal(rng: &mut ChaCha8Rng) -> f64 {
    // Box–Muller; u1 bounded away from 0.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Synthesize a trace: alternating availability durations and
/// exponentially distributed off-pool gaps, starting from a random phase
/// of the week.
fn synthesize_trace(
    id: MachineId,
    truth: &GroundTruth,
    n: usize,
    mean_gap: f64,
    rng: &mut ChaCha8Rng,
) -> AvailabilityTrace {
    let mut t = rng.gen::<f64>() * 7.0 * DAY;
    let mut observations = Vec::with_capacity(n);
    for _ in 0..n {
        let d = truth.sample_duration(t, rng).max(1.0);
        observations.push(Observation {
            start: t,
            duration: d,
        });
        let gap = -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() * mean_gap;
        t += d + gap;
    }
    AvailabilityTrace::new(id, observations).expect("synthesized durations are positive")
}

/// The paper's Table 2 synthetic trace: `n` durations drawn from a known
/// Weibull (shape 0.43, scale 3409 by default).
pub fn known_weibull_trace(shape: f64, scale: f64, n: usize, seed: u64) -> AvailabilityTrace {
    let w = Weibull::new(shape, scale).expect("caller supplies valid parameters");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let durations: Vec<f64> = (0..n).map(|_| w.sample(&mut rng).max(1e-6)).collect();
    AvailabilityTrace::from_durations(MachineId(0), &durations)
        .expect("weibull samples are positive")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_deterministic() {
        let cfg = PoolConfig::small(8, 40, 99);
        let a = generate_pool(&cfg);
        let b = generate_pool(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_pool(&PoolConfig::small(4, 30, 1));
        let b = generate_pool(&PoolConfig::small(4, 30, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn machines_are_heterogeneous() {
        let pool = generate_pool(&PoolConfig::small(64, 30, 7));
        let means: Vec<f64> = pool
            .machines
            .iter()
            .map(|m| m.ground_truth.mean())
            .collect();
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = means.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 3.0, "pool too homogeneous: {min}..{max}");
    }

    #[test]
    fn class_mix_matches_config() {
        let pool = generate_pool(&PoolConfig::small(400, 5, 3));
        let weibulls = pool
            .machines
            .iter()
            .filter(|m| matches!(m.ground_truth, GroundTruth::Weibull(_)))
            .count();
        let frac = weibulls as f64 / 400.0;
        assert!(
            (frac - PoolConfig::default().weibull_fraction).abs() < 0.10,
            "weibull fraction {frac}"
        );
    }

    #[test]
    fn traces_have_requested_length_and_positive_durations() {
        let pool = generate_pool(&PoolConfig::small(10, 55, 5));
        for m in &pool.machines {
            assert_eq!(m.trace.len(), 55);
            assert!(m.trace.durations().iter().all(|&d| d > 0.0));
        }
    }

    #[test]
    fn observations_strictly_ordered_with_gaps() {
        let pool = generate_pool(&PoolConfig::small(3, 50, 11));
        for m in &pool.machines {
            let obs = m.trace.observations();
            for w in obs.windows(2) {
                assert!(
                    w[1].start > w[0].start + w[0].duration,
                    "observations overlap"
                );
            }
        }
    }

    #[test]
    fn pool_mean_in_condor_ballpark() {
        // Calibration: pool-wide mean duration should be hours-scale
        // (the exemplar machine's mean is ~2.5 h).
        let pool = generate_pool(&PoolConfig::default()).as_machine_pool();
        let mean = pool.mean_duration();
        assert!(
            mean > 0.5 * HOUR && mean < 24.0 * HOUR,
            "pool mean {mean} s out of calibration band"
        );
    }

    #[test]
    fn diurnal_short_during_work_hours() {
        let truth = GroundTruth::Diurnal {
            short_mean: 300.0,
            long_mean: 30_000.0,
            day_short_prob: 0.9,
            night_short_prob: 0.1,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let monday_10am = 10.0 * HOUR; // day 0 hour 10
        let saturday_3am = 5.0 * DAY + 3.0 * HOUR;
        let n = 4_000;
        let day_mean: f64 = (0..n)
            .map(|_| truth.sample_duration(monday_10am, &mut rng))
            .sum::<f64>()
            / n as f64;
        let night_mean: f64 = (0..n)
            .map(|_| truth.sample_duration(saturday_3am, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(
            night_mean > 3.0 * day_mean,
            "diurnal effect missing: day {day_mean} night {night_mean}"
        );
    }

    #[test]
    fn known_weibull_trace_statistics() {
        let t = known_weibull_trace(0.43, 3_409.0, 5_000, 42);
        assert_eq!(t.len(), 5_000);
        let mean = t.total_available() / 5_000.0;
        let w = Weibull::paper_exemplar();
        assert!(
            (mean / w.mean() - 1.0).abs() < 0.15,
            "sample mean {mean} vs dist mean {}",
            w.mean()
        );
    }

    #[test]
    fn known_weibull_trace_fit_recovers_parameters() {
        // End-to-end: the Table 2 pipeline premise — fitting the true
        // family to the synthetic trace recovers the generator.
        let t = known_weibull_trace(0.43, 3_409.0, 5_000, 1);
        let fit = chs_dist::fit::fit_weibull(&t.durations()).unwrap();
        assert!((fit.shape() - 0.43).abs() < 0.03, "shape {}", fit.shape());
        assert!(
            (fit.scale() / 3_409.0 - 1.0).abs() < 0.10,
            "scale {}",
            fit.scale()
        );
    }
}
