//! Deterministic, seed-driven fault injection for checkpoint transfers.
//!
//! The emulation's transfers are otherwise perfect — they only ever end
//! by eviction — so every resilience claim needs a fault source that is
//! (a) *deterministic*: the same [`FaultPlan`] seed reproduces the same
//! faults bit-for-bit regardless of thread count or evaluation order,
//! and (b) *non-invasive*: a zero-probability plan must leave the
//! driver's RNG streams untouched so the fault-aware pipeline reproduces
//! the classic one bitwise (the repo's standing differential-gate
//! convention).
//!
//! Both properties come from per-decision seeding: each fault decision
//! hashes `(plan seed, lane, index)` through a splitmix-style mixer into
//! its own private [`ChaCha8Rng`], so decision *k* of lane *l* is a pure
//! function of the plan — drivers can consult decisions in any order, in
//! parallel, or not at all, without perturbing anything else.
//!
//! The vocabulary matches the cycle layer's `TransferFaultKind`
//! (stall / drop / corruption / unavailability) plus fit-failure
//! injection for the model-fitting pipeline; [`RetryPolicy`] carries the
//! manager-side resilience knobs (bounded retries, exponential backoff
//! with jitter, forecast-derived timeouts).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::io::BufRead;

/// Parse one JSONL record per line, validate each, and point errors at
/// their line — the `ProcessLog::read_jsonl` convention shared by every
/// durable format in the repo.
fn read_validated_jsonl<R, T>(
    r: R,
    validate: impl Fn(&T) -> Result<(), String>,
) -> std::io::Result<Vec<T>>
where
    R: BufRead,
    T: Deserialize,
{
    let mut out = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(|err| {
            std::io::Error::new(err.kind(), format!("line {}: {err}", lineno + 1))
        })?;
        if line.trim().is_empty() {
            continue;
        }
        let invalid = |msg: String| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {msg}", lineno + 1),
            )
        };
        let record: T = serde_json::from_str(&line).map_err(|e| invalid(e.to_string()))?;
        validate(&record).map_err(invalid)?;
        out.push(record);
    }
    Ok(out)
}

/// Domain-separation salts for the independent decision families.
const SALT_TRANSFER: u64 = 0x7472_616E_7366_6572; // "transfer"
const SALT_FIT: u64 = 0x6669_745F_6661_696C; // "fit_fail"

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed for one fault decision: order-independent in how drivers
/// interleave lanes, collision-resistant across (lane, index) pairs.
fn decision_seed(seed: u64, lane: u64, index: u64, salt: u64) -> u64 {
    mix(seed ^ mix(lane.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ mix(index ^ salt)))
}

/// One injected fault on a transfer attempt, fully parameterized.
///
/// The fraction/wait parameters are sampled from the decision's private
/// RNG, so two faults of the same kind on different attempts differ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransferFault {
    /// The transfer stops making progress after delivering
    /// `progress_fraction` of the payload; only the manager's timeout
    /// ends the attempt. The delivered prefix survives (resumable).
    Stall {
        /// Fraction of the payload delivered before progress stops.
        progress_fraction: f64,
    },
    /// The connection dies after delivering `progress_fraction` of the
    /// payload. The delivered prefix survives (resumable).
    Drop {
        /// Fraction of the payload delivered before the connection dies.
        progress_fraction: f64,
    },
    /// The transfer completes but its checksum fails at commit: the
    /// whole image is wasted and must be re-sent from scratch.
    Corruption,
    /// The checkpoint manager is unreachable for `wait_seconds` before
    /// the attempt can start; no payload moves while waiting.
    Unavailable {
        /// Seconds the attempt is delayed before it can start.
        wait_seconds: f64,
    },
}

/// Manager-side resilience knobs: bounded retries with exponential
/// backoff + jitter, and the per-transfer timeout multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retry attempts after the first before a checkpoint is abandoned
    /// (recovery transfers retry until eviction regardless — there is
    /// no older image to fall back to).
    pub max_retries: u32,
    /// Backoff before retry 1, seconds.
    pub backoff_base: f64,
    /// Multiplier applied per additional retry (≥ 1).
    pub backoff_factor: f64,
    /// Jitter half-width as a fraction of the deterministic backoff:
    /// the waited time is `backoff · (1 + jitter·u)`, `u ∈ [−1, 1)`
    /// drawn from the *run* RNG stream (only on faulted attempts, so
    /// zero-fault runs draw nothing extra).
    pub backoff_jitter: f64,
    /// A transfer attempt times out after `timeout_factor ×` the
    /// forecasted duration. Only injected stalls can hit the timeout:
    /// healthy sampled transfers always run to completion, preserving
    /// bitwise identity with the classic pipeline.
    pub timeout_factor: f64,
    /// Ceiling on the deterministic backoff, seconds. The exponential
    /// schedule saturates here instead of growing without bound (or
    /// overflowing to non-finite for absurd attempt counts).
    pub max_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base: 5.0,
            backoff_factor: 2.0,
            backoff_jitter: 0.25,
            timeout_factor: 3.0,
            max_backoff: 3_600.0,
        }
    }
}

impl RetryPolicy {
    /// Check the knob ranges; returns a human-readable reason on error.
    pub fn validate(&self) -> Result<(), String> {
        if !self.backoff_base.is_finite() || self.backoff_base < 0.0 {
            return Err(format!(
                "backoff_base must be finite ≥ 0: {}",
                self.backoff_base
            ));
        }
        if !self.backoff_factor.is_finite() || self.backoff_factor < 1.0 {
            return Err(format!(
                "backoff_factor must be finite ≥ 1: {}",
                self.backoff_factor
            ));
        }
        if !self.backoff_jitter.is_finite() || !(0.0..=1.0).contains(&self.backoff_jitter) {
            return Err(format!(
                "backoff_jitter must be in [0, 1]: {}",
                self.backoff_jitter
            ));
        }
        if !self.timeout_factor.is_finite() || self.timeout_factor <= 1.0 {
            return Err(format!(
                "timeout_factor must be finite > 1: {}",
                self.timeout_factor
            ));
        }
        if !self.max_backoff.is_finite() || self.max_backoff < 0.0 {
            return Err(format!(
                "max_backoff must be finite ≥ 0: {}",
                self.max_backoff
            ));
        }
        Ok(())
    }

    /// Deterministic part of the backoff before retry `attempt` (1-based),
    /// saturating at [`max_backoff`](Self::max_backoff). The exponent is
    /// clamped *before* `powi` so huge attempt counts (up to `u32::MAX`,
    /// which would wrap when cast to `i32`) cannot overflow to a
    /// non-finite — or, worse, tiny — backoff.
    pub fn backoff(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(4_096) as i32;
        let raw = self.backoff_base * self.backoff_factor.powi(exp);
        if raw.is_finite() {
            raw.min(self.max_backoff)
        } else {
            self.max_backoff
        }
    }

    /// Backoff with jitter applied; `u` must be a uniform draw in [0, 1)
    /// from the run's RNG stream.
    pub fn backoff_jittered(&self, attempt: u32, u: f64) -> f64 {
        self.backoff(attempt) * (1.0 + self.backoff_jitter * (2.0 * u - 1.0))
    }

    /// Read a JSONL stream of policies, validating each; errors point at
    /// the offending line.
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<Vec<Self>> {
        read_validated_jsonl(r, Self::validate)
    }
}

/// A seeded, serializable description of every fault a run will see.
///
/// Probabilities are per *decision site*: each transfer attempt draws at
/// most one fault, each (machine, model) fit draws one failure decision.
/// [`FaultPlan::none`] injects nothing and — by contract, enforced by
/// the `fault_bench` identity gate — reproduces the classic pipeline
/// bitwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root seed for every per-decision RNG.
    pub seed: u64,
    /// P(transfer attempt stalls).
    pub p_stall: f64,
    /// P(transfer attempt drops mid-flight).
    pub p_drop: f64,
    /// P(transfer completes but is corrupt at commit).
    pub p_corrupt: f64,
    /// P(manager transiently unavailable before the attempt).
    pub p_unavailable: f64,
    /// P(a model fit is forced to fail and walk the fit-fallback chain).
    pub p_fit_failure: f64,
    /// Upper bound on the payload fraction delivered before a stall
    /// (the actual fraction is uniform in [0, `stall_fraction`)).
    pub stall_fraction: f64,
    /// Upper bound on the payload fraction delivered before a drop.
    pub drop_fraction: f64,
    /// Mean unavailability wait, seconds (actual is uniform in
    /// [0, 2·mean)).
    pub unavailable_wait: f64,
}

impl FaultPlan {
    /// The zero plan: no faults, and the guarantee that fault-aware
    /// drivers reproduce the classic pipeline bitwise.
    pub fn none() -> Self {
        Self {
            seed: 0,
            p_stall: 0.0,
            p_drop: 0.0,
            p_corrupt: 0.0,
            p_unavailable: 0.0,
            p_fit_failure: 0.0,
            stall_fraction: 0.6,
            drop_fraction: 0.8,
            unavailable_wait: 30.0,
        }
    }

    /// An even mix at total per-attempt fault probability `intensity`
    /// (split equally across the four transfer kinds) with fit-failure
    /// probability `intensity` as well.
    pub fn uniform(intensity: f64, seed: u64) -> Self {
        let p = intensity / 4.0;
        Self {
            seed,
            p_stall: p,
            p_drop: p,
            p_corrupt: p,
            p_unavailable: p,
            p_fit_failure: intensity,
            ..Self::none()
        }
    }

    /// True when no decision can ever inject a fault — drivers use this
    /// to skip fault bookkeeping entirely on the hot path.
    pub fn is_zero(&self) -> bool {
        self.p_stall == 0.0
            && self.p_drop == 0.0
            && self.p_corrupt == 0.0
            && self.p_unavailable == 0.0
            && self.p_fit_failure == 0.0
    }

    /// Check probability and parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("p_stall", self.p_stall),
            ("p_drop", self.p_drop),
            ("p_corrupt", self.p_corrupt),
            ("p_unavailable", self.p_unavailable),
            ("p_fit_failure", self.p_fit_failure),
        ];
        for (name, p) in probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1]: {p}"));
            }
        }
        let total = self.p_stall + self.p_drop + self.p_corrupt + self.p_unavailable;
        if total > 1.0 {
            return Err(format!(
                "p_stall + p_drop + p_corrupt + p_unavailable must be at most 1: {total}"
            ));
        }
        for (name, f) in [
            ("stall_fraction", self.stall_fraction),
            ("drop_fraction", self.drop_fraction),
        ] {
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err(format!("{name} must be in [0, 1]: {f}"));
            }
        }
        if !self.unavailable_wait.is_finite() || self.unavailable_wait < 0.0 {
            return Err(format!(
                "unavailable_wait must be finite ≥ 0: {}",
                self.unavailable_wait
            ));
        }
        Ok(())
    }

    /// The fault (if any) injected on transfer attempt `index` of
    /// decision lane `lane`. A lane is one independent attempt counter —
    /// the live runner uses one per (stream, model) pair, the contention
    /// runner one per job — so decisions never depend on scheduling
    /// order across lanes.
    pub fn transfer_fault(&self, lane: u64, index: u64) -> Option<TransferFault> {
        let total = self.p_stall + self.p_drop + self.p_corrupt + self.p_unavailable;
        if total == 0.0 {
            return None;
        }
        let mut rng =
            ChaCha8Rng::seed_from_u64(decision_seed(self.seed, lane, index, SALT_TRANSFER));
        let u: f64 = rng.gen();
        let mut edge = self.p_stall;
        if u < edge {
            return Some(TransferFault::Stall {
                progress_fraction: rng.gen::<f64>() * self.stall_fraction,
            });
        }
        edge += self.p_drop;
        if u < edge {
            return Some(TransferFault::Drop {
                progress_fraction: rng.gen::<f64>() * self.drop_fraction,
            });
        }
        edge += self.p_corrupt;
        if u < edge {
            return Some(TransferFault::Corruption);
        }
        edge += self.p_unavailable;
        if u < edge {
            return Some(TransferFault::Unavailable {
                wait_seconds: rng.gen::<f64>() * 2.0 * self.unavailable_wait,
            });
        }
        None
    }

    /// Whether the fit of model family `model` on machine `machine` is
    /// forced to fail (exercising the degradation chain downstream).
    pub fn fit_failure(&self, machine: u64, model: u64) -> bool {
        if self.p_fit_failure == 0.0 {
            return false;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(decision_seed(self.seed, machine, model, SALT_FIT));
        rng.gen::<f64>() < self.p_fit_failure
    }

    /// Read a JSONL stream of plans, validating each; errors point at
    /// the offending line.
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<Vec<Self>> {
        read_validated_jsonl(r, Self::validate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        for lane in 0..8 {
            for index in 0..64 {
                assert_eq!(plan.transfer_fault(lane, index), None);
                assert!(!plan.fit_failure(lane, index));
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plan = FaultPlan::uniform(0.5, 42);
        let forward: Vec<_> = (0..200).map(|i| plan.transfer_fault(3, i)).collect();
        let backward: Vec<_> = (0..200).rev().map(|i| plan.transfer_fault(3, i)).collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        // And a rebuilt plan with the same seed agrees.
        let again = FaultPlan::uniform(0.5, 42);
        let replay: Vec<_> = (0..200).map(|i| again.transfer_fault(3, i)).collect();
        assert_eq!(forward, replay);
    }

    #[test]
    fn lanes_are_independent() {
        let plan = FaultPlan::uniform(0.5, 7);
        let a: Vec<_> = (0..100).map(|i| plan.transfer_fault(1, i)).collect();
        let b: Vec<_> = (0..100).map(|i| plan.transfer_fault(2, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_intensity_sets_observed_frequency() {
        let plan = FaultPlan::uniform(0.4, 11);
        let n = 4_000;
        let faults = (0..n)
            .filter(|&i| plan.transfer_fault(0, i).is_some())
            .count();
        let rate = faults as f64 / n as f64;
        assert!((rate - 0.4).abs() < 0.05, "observed fault rate {rate}");
    }

    #[test]
    fn fault_parameters_in_range() {
        let plan = FaultPlan::uniform(0.9, 13);
        for i in 0..500 {
            match plan.transfer_fault(0, i) {
                Some(TransferFault::Stall { progress_fraction }) => {
                    assert!((0.0..plan.stall_fraction).contains(&progress_fraction));
                }
                Some(TransferFault::Drop { progress_fraction }) => {
                    assert!((0.0..plan.drop_fraction).contains(&progress_fraction));
                }
                Some(TransferFault::Unavailable { wait_seconds }) => {
                    assert!((0.0..2.0 * plan.unavailable_wait).contains(&wait_seconds));
                }
                Some(TransferFault::Corruption) | None => {}
            }
        }
    }

    #[test]
    fn fit_failure_rate_matches() {
        let plan = FaultPlan::uniform(0.3, 5);
        let n = 4_000u64;
        let fails = (0..n).filter(|&m| plan.fit_failure(m, 2)).count();
        let rate = fails as f64 / n as f64;
        assert!(
            (rate - 0.3).abs() < 0.05,
            "observed fit-failure rate {rate}"
        );
    }

    #[test]
    fn plan_serde_round_trip() {
        let plan = FaultPlan::uniform(0.25, 99);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut plan = FaultPlan::none();
        plan.p_drop = 1.5;
        assert!(plan.validate().is_err());
        plan.p_drop = f64::NAN;
        assert!(plan.validate().is_err());
        plan.p_drop = 0.0;
        plan.unavailable_wait = -1.0;
        assert!(plan.validate().is_err());
        // Sum over 1 rejected even when each is individually legal.
        let mut plan = FaultPlan::none();
        plan.p_stall = 0.6;
        plan.p_drop = 0.6;
        assert!(plan.validate().is_err());
        assert!(FaultPlan::uniform(1.0, 0).validate().is_ok());
    }

    #[test]
    fn retry_policy_backoff_schedule() {
        let p = RetryPolicy::default();
        assert!(p.validate().is_ok());
        assert_eq!(p.backoff(1), 5.0);
        assert_eq!(p.backoff(2), 10.0);
        assert_eq!(p.backoff(3), 20.0);
        // Jitter bounds: u ∈ [0, 1) keeps the wait within ±jitter.
        let lo = p.backoff_jittered(2, 0.0);
        let hi = p.backoff_jittered(2, 1.0 - f64::EPSILON);
        assert!((lo - 7.5).abs() < 1e-12);
        assert!(hi < 12.5 + 1e-9);
        // Zero jitter is exactly deterministic.
        let mut nz = p;
        nz.backoff_jitter = 0.0;
        assert_eq!(nz.backoff_jittered(3, 0.77), 20.0);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy::default();
        // The cast `(u32::MAX − 1) as i32` used to wrap negative and
        // produce a near-zero backoff; the clamp must saturate instead.
        for attempt in [64, 1_000, 4_097, u32::MAX - 1, u32::MAX] {
            let b = p.backoff(attempt);
            assert!(b.is_finite(), "attempt {attempt}: backoff {b}");
            assert_eq!(b, p.max_backoff, "attempt {attempt}");
            let j = p.backoff_jittered(attempt, 0.999);
            assert!(j.is_finite() && j > 0.0, "attempt {attempt}: jittered {j}");
        }
        // The cap also binds for merely-large finite schedules.
        assert_eq!(p.backoff(12), 3_600.0); // 5·2^11 = 10_240 uncapped
        assert_eq!(p.backoff(11), 3_600.0); // 5·2^10 = 5_120 uncapped
        assert_eq!(p.backoff(10), 2_560.0); // below the cap: exact
                                            // A factor-1 schedule is flat and unaffected by the clamp.
        let flat = RetryPolicy {
            backoff_factor: 1.0,
            ..RetryPolicy::default()
        };
        assert_eq!(flat.backoff(u32::MAX), 5.0);
    }

    #[test]
    fn retry_policy_serde_round_trip() {
        let p = RetryPolicy {
            max_retries: 7,
            backoff_base: 2.5,
            backoff_factor: 3.0,
            backoff_jitter: 0.1,
            timeout_factor: 4.0,
            max_backoff: 900.0,
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: RetryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn jsonl_loaders_round_trip_and_point_at_bad_lines() {
        // FaultPlan: two good lines round-trip.
        let plans = [FaultPlan::uniform(0.2, 1), FaultPlan::none()];
        let mut buf = Vec::new();
        for p in &plans {
            buf.extend_from_slice(serde_json::to_string(p).unwrap().as_bytes());
            buf.push(b'\n');
        }
        let back = FaultPlan::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back, plans);
        // An out-of-range probability on line 3 fails *validation* (not
        // parsing) and the error names the line and the field.
        buf.extend_from_slice(
            br#"{"seed":0,"p_stall":2.0,"p_drop":0.0,"p_corrupt":0.0,"p_unavailable":0.0,"p_fit_failure":0.0,"stall_fraction":0.6,"drop_fraction":0.8,"unavailable_wait":30.0}
"#,
        );
        let err = FaultPlan::read_jsonl(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("p_stall"), "{msg}");
        // Syntactically corrupt JSON also points at its line.
        let text = "{\"seed\":0 not json\n";
        let err = FaultPlan::read_jsonl(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");

        // RetryPolicy: good line + out-of-range knob on line 2.
        let good = serde_json::to_string(&RetryPolicy::default()).unwrap();
        let bad_policy = r#"{"max_retries":3,"backoff_base":5.0,"backoff_factor":0.5,"backoff_jitter":0.25,"timeout_factor":3.0,"max_backoff":3600.0}"#;
        let text = format!("{good}\n{bad_policy}\n");
        let err = RetryPolicy::read_jsonl(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("line 2") && msg.contains("backoff_factor"),
            "{msg}"
        );
        let ok = RetryPolicy::read_jsonl(format!("{good}\n\n{good}\n").as_bytes()).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn retry_policy_validate_rejects_bad_knobs() {
        let bad = [
            RetryPolicy {
                backoff_factor: 0.5,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                timeout_factor: 1.0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                backoff_jitter: 2.0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                backoff_base: f64::INFINITY,
                ..RetryPolicy::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err());
        }
    }
}
