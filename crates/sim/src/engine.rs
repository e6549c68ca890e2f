//! The per-trace simulation engine — a thin closed-form driver over the
//! shared [`chs_cycle`] state machine.
//!
//! The cycle arithmetic itself lives in [`chs_cycle::run_trace`], which
//! plans each trace's schedule once and walks every segment along it
//! (per segment, operation-for-operation identical to the loop that used
//! to live here; `tests/frozen_engine.rs` pins the port bitwise against a
//! frozen copy). This module owns only what is simulator-specific:
//! validating configurations and traces, and mapping failures into
//! [`SimError`].

use crate::metrics::SimResult;
use crate::policy::SchedulePolicy;
use crate::{Result, SimError};
use chs_cycle::{run_trace, CycleObserver, NoopObserver};

/// Simulation parameters — the shared [`chs_cycle::CycleConfig`] under
/// its historical name.
pub use chs_cycle::CycleConfig as SimConfig;

/// Simulate a steady-state job over a machine's availability durations.
///
/// The job is assumed to have started before the first duration (the
/// paper's steady-state setup), so every segment begins with a recovery.
/// Returns the full accounting; see [`SimResult`].
pub fn simulate_trace(
    durations: &[f64],
    policy: &dyn SchedulePolicy,
    config: &SimConfig,
) -> Result<SimResult> {
    simulate_trace_observed(durations, policy, config, &mut NoopObserver)
}

/// [`simulate_trace`] with a [`CycleObserver`] attached to the single
/// engine pass — how [`crate::simulate_with_timeline`] records structure
/// without simulating twice. Generic over the observer, so
/// [`simulate_trace`]'s [`NoopObserver`] calls compile away; a
/// `&mut dyn CycleObserver` works too.
pub fn simulate_trace_observed<O: CycleObserver + ?Sized>(
    durations: &[f64],
    policy: &dyn SchedulePolicy,
    config: &SimConfig,
    obs: &mut O,
) -> Result<SimResult> {
    config
        .validate()
        .map_err(|message| SimError::InvalidConfig { message })?;
    if durations.iter().any(|d| !d.is_finite() || *d <= 0.0) {
        return Err(SimError::InvalidConfig {
            message: "durations must be finite and positive",
        });
    }
    let r = run_trace(durations, policy, config, obs);
    debug_assert!(
        r.conservation_residual().abs() <= 1e-6 * r.total_seconds.max(1.0),
        "time conservation violated: residual {}",
        r.conservation_residual()
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedIntervalPolicy;

    fn cfg(c: f64) -> SimConfig {
        SimConfig::paper(c)
    }

    #[test]
    fn config_validation() {
        assert!(SimConfig {
            checkpoint_cost: -1.0,
            ..cfg(50.0)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            image_mb: f64::NAN,
            ..cfg(50.0)
        }
        .validate()
        .is_err());
        assert!(cfg(50.0).validate().is_ok());
    }

    #[test]
    fn rejects_bad_durations() {
        let p = FixedIntervalPolicy { interval: 100.0 };
        assert!(simulate_trace(&[100.0, -5.0], &p, &cfg(10.0)).is_err());
        assert!(simulate_trace(&[f64::INFINITY], &p, &cfg(10.0)).is_err());
    }

    #[test]
    fn bad_config_surfaces_as_sim_error() {
        let p = FixedIntervalPolicy { interval: 100.0 };
        let bad = SimConfig {
            recovery_cost: f64::INFINITY,
            ..cfg(10.0)
        };
        match simulate_trace(&[100.0], &p, &bad) {
            Err(SimError::InvalidConfig { .. }) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn hand_computed_single_segment() {
        // Segment 1000 s, R = C = 50, T = 200 fixed.
        // recovery: [0, 50); intervals: work 200 + ckpt 50 = 250 each.
        // 50 + 250k <= 1000 → k = 3 full intervals end at 800; next work
        // [800, 1000) needs 200 → 800+200 = 1000 >= 1000 → evicted at
        // boundary, 200 s lost.
        let p = FixedIntervalPolicy { interval: 200.0 };
        let r = simulate_trace(&[1_000.0], &p, &cfg(50.0)).unwrap();
        assert_eq!(r.recoveries, 1);
        assert_eq!(r.checkpoints_committed, 3);
        assert_eq!(r.failures, 1);
        assert!((r.useful_seconds - 600.0).abs() < 1e-9);
        assert!((r.recovery_seconds - 50.0).abs() < 1e-9);
        assert!((r.checkpoint_seconds - 150.0).abs() < 1e-9);
        assert!((r.lost_seconds - 200.0).abs() < 1e-9);
        assert!((r.efficiency() - 0.6).abs() < 1e-12);
        // Bytes: 1 recovery + 3 checkpoints + 0 partial = 4 × 500 MB.
        assert!((r.megabytes - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_mid_checkpoint_counts_partial_bytes() {
        // Segment 330 s, R = C = 50, T = 200: recovery ends 50, work ends
        // 250, checkpoint would end 300 <= 330 → committed. Next work
        // [300, 330): 200 needed, evicted with 30 s lost.
        let p = FixedIntervalPolicy { interval: 200.0 };
        let r = simulate_trace(&[330.0], &p, &cfg(50.0)).unwrap();
        assert_eq!(r.checkpoints_committed, 1);
        assert!((r.lost_seconds - 30.0).abs() < 1e-9);

        // Segment 280: work ends 250, checkpoint cut at 280 (30/50 done).
        let r = simulate_trace(&[280.0], &p, &cfg(50.0)).unwrap();
        assert_eq!(r.checkpoints_committed, 0);
        assert_eq!(r.checkpoints_attempted, 1);
        assert!((r.lost_seconds - 230.0).abs() < 1e-9);
        let expected_mb = 500.0 + 500.0 * (30.0 / 50.0);
        assert!(
            (r.megabytes - expected_mb).abs() < 1e-9,
            "mb={}",
            r.megabytes
        );
    }

    #[test]
    fn eviction_mid_recovery() {
        let p = FixedIntervalPolicy { interval: 200.0 };
        let r = simulate_trace(&[20.0], &p, &cfg(50.0)).unwrap();
        assert_eq!(r.checkpoints_attempted, 0);
        assert_eq!(r.failures, 1);
        assert!((r.recovery_seconds - 20.0).abs() < 1e-9);
        assert!((r.megabytes - 500.0 * 20.0 / 50.0).abs() < 1e-9);
        assert_eq!(r.efficiency(), 0.0);
        // The refined ledger keeps the partial recovery visible instead of
        // folding it silently into the totals.
        assert!((r.partial_recovery_seconds - 20.0).abs() < 1e-9);
        assert!((r.partial_megabytes - 200.0).abs() < 1e-9);
        assert_eq!(r.recoveries_completed, 0);
    }

    #[test]
    fn recovery_bytes_can_be_excluded() {
        let p = FixedIntervalPolicy { interval: 200.0 };
        let mut config = cfg(50.0);
        config.count_recovery_bytes = false;
        let r = simulate_trace(&[1_000.0], &p, &config).unwrap();
        assert!((r.megabytes - 1_500.0).abs() < 1e-9); // 3 checkpoints only
    }

    #[test]
    fn conservation_over_many_segments() {
        let p = FixedIntervalPolicy { interval: 137.0 };
        let durations: Vec<f64> = (1..200)
            .map(|i| (i as f64 * 97.3) % 5_000.0 + 1.0)
            .collect();
        let r = simulate_trace(&durations, &p, &cfg(41.0)).unwrap();
        assert!(
            r.conservation_residual().abs() < 1e-6,
            "residual {}",
            r.conservation_residual()
        );
        assert_eq!(r.failures as usize, durations.len());
        assert_eq!(r.recoveries as usize, durations.len());
    }

    #[test]
    fn zero_cost_checkpoints_give_high_efficiency() {
        let p = FixedIntervalPolicy { interval: 10.0 };
        let mut config = cfg(0.0);
        config.recovery_cost = 0.0;
        let r = simulate_trace(&[10_000.0], &p, &config).unwrap();
        assert!(r.efficiency() > 0.99, "eff={}", r.efficiency());
    }

    #[test]
    fn shorter_checkpoint_cost_more_efficiency_less_loss() {
        let p = FixedIntervalPolicy { interval: 500.0 };
        let durations: Vec<f64> = (0..100)
            .map(|i| 2_000.0 + (i as f64 * 131.7) % 6_000.0)
            .collect();
        let fast = simulate_trace(&durations, &p, &cfg(50.0)).unwrap();
        let slow = simulate_trace(&durations, &p, &cfg(500.0)).unwrap();
        assert!(fast.efficiency() > slow.efficiency());
    }
}
