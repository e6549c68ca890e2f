//! The occupancy monitor of paper §4: Vanilla-universe sensor processes
//! that wake periodically, report elapsed time, and record — on eviction —
//! the availability duration they enjoyed. This is how the *historical*
//! training data is collected in the first place, closing the system
//! loop: monitor → a `MachinePool` of traces → model fits → schedules.
//!
//! The emulated monitor floods the pool with sensor jobs (one per
//! machine, resubmitted immediately after every eviction, as Condor's
//! idle-job queue effectively does) and records one observation per
//! availability segment it occupies.

use crate::machine::MachinePark;
use chs_trace::{AvailabilityTrace, MachinePool, Observation};
use serde::{Deserialize, Serialize};

/// Configuration of a monitoring campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// How long the campaign observes the pool, virtual seconds (the
    /// paper ran its monitor for 18 months).
    pub campaign: f64,
    /// The sensor's wake/report period, seconds (paper: the process
    /// "wakes periodically"; only the *last* report matters for the
    /// duration, so this just quantizes measurements).
    pub report_period: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            campaign: 180.0 * 86_400.0,
            report_period: 10.0,
        }
    }
}

/// Run a monitoring campaign over a park: every machine gets a pinned
/// sensor job that occupies each availability segment end to end and
/// records its duration (quantized to the report period, mirroring the
/// heartbeat-based measurement of the real monitor).
///
/// Returns one [`AvailabilityTrace`] per machine, containing every
/// segment that *completed* within the campaign window (a segment still
/// in progress at campaign end is discarded — the same right-censoring
/// §5.3 discusses; use `chs_dist::fit::censored` if you want to keep it).
pub fn run_monitor(park: &MachinePark, config: &MonitorConfig) -> MachinePool {
    let traces = park
        .machines()
        .iter()
        .map(|machine| {
            let mut observations = Vec::new();
            for seg in machine.segments() {
                if seg.end > config.campaign {
                    break;
                }
                // The sensor reports elapsed time every `report_period`;
                // the recorded duration is the last reported value.
                let duration = if config.report_period > 0.0 {
                    (seg.duration() / config.report_period).floor() * config.report_period
                } else {
                    seg.duration()
                };
                if duration > 0.0 {
                    observations.push(Observation {
                        start: seg.start,
                        duration,
                    });
                }
            }
            AvailabilityTrace::new(machine.id, observations)
                .expect("segment durations are positive")
        })
        .collect();
    MachinePool::new(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_trace::synthetic::PoolConfig;

    fn park() -> MachinePark {
        MachinePark::generate(&PoolConfig::default(), 12, 5, 200.0 * 86_400.0, 31)
    }

    #[test]
    fn monitor_records_completed_segments() {
        let park = park();
        let pool = run_monitor(&park, &MonitorConfig::default());
        assert_eq!(pool.len(), 12);
        for (machine, trace) in park.machines().iter().zip(pool.traces()) {
            assert!(!trace.is_empty(), "machine {} recorded nothing", machine.id);
            // Every observation corresponds to a real segment, quantized down.
            for obs in trace.observations() {
                let seg = machine
                    .segments()
                    .iter()
                    .find(|s| (s.start - obs.start).abs() < 1e-9)
                    .expect("observation matches a segment");
                assert!(obs.duration <= seg.duration() + 1e-9);
                assert!(obs.duration > seg.duration() - 10.0 - 1e-9);
            }
        }
    }

    #[test]
    fn campaign_window_right_censors() {
        let park = park();
        let short = run_monitor(
            &park,
            &MonitorConfig {
                campaign: 86_400.0,
                report_period: 10.0,
            },
        );
        let long = run_monitor(&park, &MonitorConfig::default());
        let short_total: usize = short.traces().iter().map(|t| t.len()).sum();
        let long_total: usize = long.traces().iter().map(|t| t.len()).sum();
        assert!(short_total < long_total);
    }

    #[test]
    fn monitored_traces_reflect_ground_truth_statistics() {
        // Fitting to monitor-collected data recovers each machine's mean
        // availability within sampling error — the premise of the whole
        // system.
        let park = MachinePark::generate(&PoolConfig::default(), 6, 5, 3_000.0 * 86_400.0, 47);
        let config = MonitorConfig {
            campaign: 3_000.0 * 86_400.0,
            report_period: 10.0,
        };
        let pool = run_monitor(&park, &config);
        for (machine, trace) in park.machines().iter().zip(pool.traces()) {
            if trace.len() < 200 {
                continue; // too few completions for a tight check
            }
            let observed_mean = trace.total_available() / trace.len() as f64;
            // The monitor cannot see occupancies shorter than one report
            // period (a genuine selection effect of the real §4 monitor),
            // so compare against the *observable* truth: segments ≥ one
            // period, floored to the period.
            let observable: Vec<f64> = machine
                .segments()
                .iter()
                .map(|s| (s.duration() / 10.0).floor() * 10.0)
                .filter(|&d| d > 0.0)
                .collect();
            let truth_mean = observable.iter().sum::<f64>() / observable.len() as f64;
            let rel = (observed_mean - truth_mean).abs() / truth_mean;
            assert!(
                rel < 0.02,
                "machine {}: monitor mean {observed_mean:.0} vs observable truth {truth_mean:.0}",
                machine.id
            );
        }
    }

    #[test]
    fn report_period_quantizes_down() {
        let park = park();
        let pool = run_monitor(
            &park,
            &MonitorConfig {
                campaign: 100.0 * 86_400.0,
                report_period: 60.0,
            },
        );
        for trace in pool.traces() {
            for obs in trace.observations() {
                let remainder = obs.duration % 60.0;
                assert!(
                    remainder.abs() < 1e-6,
                    "duration {} not quantized",
                    obs.duration
                );
            }
        }
    }
}
