//! The fault layer every event-driven driver shares: the
//! [`FaultReport`] counters and the per-machine [`MachinePlanner`] that
//! degrades instead of dropping a machine. The live driver
//! ([`crate::run_experiment`]) and `chs_manager::run_manager`, the
//! shared-link driver, both plan and count through them.
//!
//! A fit failure, natural or injected, falls back through
//! [`chs_markov::resolve_fit`] to an exponential-MLE fit of the same
//! history, and — if even that fails — to Young's fixed interval
//! `√(2·C·mean)`; the machine is never silently dropped. Mid-run `T_opt`
//! failures degrade to the fixed interval likewise, counted in
//! [`FaultReport::fallback_planning`].

use chs_cycle::{clamp_interval, TransferFaultKind};
use chs_dist::fit::fit_model;
use chs_dist::ModelKind;
use chs_markov::{resolve_fit, young_interval, FitTier, MeasuredCostPlanner};
use serde::{Deserialize, Serialize};

/// What the fault layer did to one run (live or manager): counts per
/// fault kind, the resilience work they triggered, and which policy
/// fallback paths fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Transfer attempts that stalled (each cut by the manager timeout).
    pub stalls: u64,
    /// Transfer attempts that dropped mid-flight.
    pub drops: u64,
    /// Transfers that completed but failed their commit checksum.
    pub corruptions: u64,
    /// Attempts delayed by transient manager unavailability.
    pub unavailabilities: u64,
    /// Attempts cut by the per-transfer timeout (= stalls detected).
    pub timeouts: u64,
    /// Retry attempts scheduled (with backoff).
    pub retries: u64,
    /// Checkpoints abandoned after exhausting the retry budget.
    pub checkpoints_abandoned: u64,
    /// Fit failures (natural or injected) that degraded to an
    /// exponential-MLE fit.
    pub fallback_exponential: u64,
    /// Fit failures (natural or injected) that degraded to Young's
    /// fixed interval.
    pub fallback_fixed: u64,
    /// Mid-run `T_opt` plans that errored or went non-finite and
    /// degraded to Young's fixed interval.
    pub fallback_planning: u64,
}

impl FaultReport {
    /// Total faults injected across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.stalls + self.drops + self.corruptions + self.unavailabilities
    }

    /// Count one injected transfer fault; a stall also counts the
    /// timeout that detects it.
    pub fn record_fault(&mut self, kind: TransferFaultKind) {
        match kind {
            TransferFaultKind::Stall => {
                self.stalls += 1;
                self.timeouts += 1;
            }
            TransferFaultKind::Drop => self.drops += 1,
            TransferFaultKind::Corruption => self.corruptions += 1,
            TransferFaultKind::Unavailable => self.unavailabilities += 1,
        }
    }
}

/// A machine's planner on the tier [`chs_markov::resolve_fit`] reached:
/// a [`MeasuredCostPlanner`] over the native or exponential fit, or
/// none on Young's fixed tier, plus the history mean every fallback
/// needs.
#[derive(Debug, Clone)]
pub struct MachinePlanner {
    planner: Option<MeasuredCostPlanner>,
    mean_history: f64,
}

impl MachinePlanner {
    /// Fit `kind` to `history` — skipped when fault injection makes the
    /// fit fail — and walk the degradation chain, counting a degraded
    /// machine in `report.fallback_exponential` or
    /// `report.fallback_fixed`. Natural and injected failures degrade
    /// alike; no machine is dropped.
    pub fn fit(kind: ModelKind, history: &[f64], injected: bool, report: &mut FaultReport) -> Self {
        let native = (!injected).then(|| fit_model(kind, history));
        let (fit, tier) = resolve_fit(native, history);
        match tier {
            FitTier::Native => {}
            FitTier::Exponential => report.fallback_exponential += 1,
            FitTier::Fixed => report.fallback_fixed += 1,
        }
        let mean_history = if history.is_empty() {
            0.0
        } else {
            history.iter().sum::<f64>() / history.len() as f64
        };
        MachinePlanner {
            planner: fit.map(MeasuredCostPlanner::new),
            mean_history,
        }
    }

    /// Plan the next work interval for checkpoint cost `cost` at machine
    /// age `age`: Vaidya's `T_opt`, clamped to the work floor, degrading
    /// to Young's interval if the model tier errors or goes non-finite —
    /// never dropping the machine, and counting each such degradation in
    /// `report.fallback_planning`. A NaN or negative age plans as age 0.
    pub fn interval(&mut self, cost: f64, age: f64, report: &mut FaultReport) -> f64 {
        let Some(planner) = &mut self.planner else {
            return young_interval(cost, self.mean_history);
        };
        match planner.plan(cost, age).map(clamp_interval) {
            Ok(t) if t.is_finite() => t,
            _ => {
                report.fallback_planning += 1;
                young_interval(cost, self.mean_history)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_experiment, ExperimentConfig};
    use chs_net::FaultPlan;

    fn small_live() -> ExperimentConfig {
        ExperimentConfig {
            machines: 6,
            streams: 1,
            window: 0.5 * 86_400.0,
            ..ExperimentConfig::campus()
        }
    }

    #[test]
    fn faulty_live_run_injects_and_conserves() {
        let config = small_live();
        let plan = FaultPlan::uniform(0.4, 7);
        let (result, report) = run_experiment(&config, &plan).unwrap();
        assert!(report.total_faults() > 0, "intensity 0.4 injected nothing");
        for run in &result.runs {
            let time = run.cycle.conservation_residual().abs();
            let bytes = run.cycle.byte_conservation_residual().abs();
            assert!(
                time < 1e-6 * run.cycle.total_seconds.max(1.0),
                "time leak {time}"
            );
            assert!(
                bytes < 1e-6 * run.cycle.megabytes.max(1.0),
                "byte leak {bytes}"
            );
            // Every run's transfer records must agree with its ledger.
            let recorded: f64 = run.transfers.iter().map(|tr| tr.megabytes).sum();
            let wasted_only_in_ledger = run.cycle.megabytes - recorded;
            assert!(
                wasted_only_in_ledger.abs() < 1e-6 * run.cycle.megabytes.max(1.0)
                    || wasted_only_in_ledger >= -1e-6,
                "transfer records drifted from ledger: {wasted_only_in_ledger}"
            );
        }
    }

    #[test]
    fn injected_fit_failures_degrade_instead_of_dropping() {
        let config = small_live();
        let plan = FaultPlan {
            p_fit_failure: 1.0,
            ..FaultPlan::none()
        };
        let (result, report) = run_experiment(&config, &plan).unwrap();
        assert!(
            report.fallback_exponential + report.fallback_fixed > 0,
            "forced fit failures produced no fallbacks"
        );
        assert!(
            !result.runs.is_empty(),
            "degraded policies must keep running"
        );
    }

    #[test]
    fn planning_failures_degrade_to_young_and_are_counted() {
        let history: Vec<f64> = (0..40).map(|i| 600.0 + 97.0 * i as f64).collect();
        let mean = history.iter().sum::<f64>() / history.len() as f64;
        let mut report = FaultReport::default();
        let mut fit = MachinePlanner::fit(ModelKind::Exponential, &history, false, &mut report);
        let planned = fit.interval(110.0, 500.0, &mut report);
        assert!(planned.is_finite() && planned > 0.0);
        assert_eq!(report, FaultReport::default());

        // A non-finite measured cost has no Vaidya plan: Young's interval
        // at the clamped cost, counted once per degraded plan.
        for cost in [f64::NAN, f64::INFINITY] {
            let t = fit.interval(cost, 500.0, &mut report);
            assert_eq!(t.to_bits(), young_interval(cost, mean).to_bits());
        }
        assert_eq!(report.fallback_planning, 2);
        assert_eq!(report.fallback_fixed, 0);

        // The fixed tier plans Young's interval by design: not a fallback.
        let mut fixed = MachinePlanner::fit(ModelKind::Exponential, &[], true, &mut report);
        assert_eq!(report.fallback_fixed, 1);
        fixed.interval(f64::NAN, 0.0, &mut report);
        assert_eq!(report.fallback_planning, 2);
    }

    #[test]
    fn abandoned_checkpoints_fall_back_to_verified_state() {
        let mut config = small_live();
        // No retry budget: a checkpoint's first fault abandons it; a
        // recovery fault just retries (recoveries have no budget).
        config.retry.max_retries = 0;
        let plan = FaultPlan {
            p_corrupt: 0.5,
            ..FaultPlan::none()
        };
        let (result, report) = run_experiment(&config, &plan).unwrap();
        assert!(report.corruptions > 0);
        assert!(report.checkpoints_abandoned > 0);
        let abandoned: u64 = result
            .runs
            .iter()
            .map(|r| r.cycle.checkpoints_abandoned)
            .sum();
        assert_eq!(abandoned, report.checkpoints_abandoned);
        // Half the checkpoints still commit: the run survives the faults.
        let committed: u64 = result
            .runs
            .iter()
            .map(|r| r.cycle.checkpoints_committed)
            .sum();
        assert!(committed > 0, "no checkpoint ever committed under p=0.5");
    }
}
