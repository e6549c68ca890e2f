//! Per-checkpoint `T_opt` planning at a measured transfer cost.
//!
//! The paper's live process recomputes `T_opt` after every checkpoint
//! from the measured cost `C = R` of the last transfer (§3.5, §5.2).
//! Every event-driven driver plans through one [`MeasuredCostPlanner`]
//! per machine: an exact Vaidya optimum with a one-entry memo.

use crate::{CheckpointCosts, Result, VaidyaModel};
use chs_dist::FittedModel;

/// Plans work intervals for one fitted availability model at measured
/// checkpoint costs.
///
/// [`MeasuredCostPlanner::plan`] is bitwise
/// `VaidyaModel::new(fit, CheckpointCosts::symmetric(cost))?
/// .optimal_interval(age)?.work_seconds`: the frozen scalar
/// golden-section search for Weibull and hyperexponential fits, and the
/// closed-form memoryless optimum for exponential fits, which evaluates
/// no Γ at all. The last successful plan is memoized under the exact
/// bits of `(cost, key age)`, so a re-plan at an unchanged cost — an
/// admission deferral, an abandoned checkpoint — returns the stored
/// answer without recomputing it. The key age is the sanitized age,
/// except for exponential fits: their optimum depends on the cost alone,
/// so every age shares one key.
#[derive(Debug, Clone)]
pub struct MeasuredCostPlanner {
    fit: FittedModel,
    /// `((cost bits, key-age bits), T_opt)` of the last successful plan.
    memo: Option<((u64, u64), f64)>,
}

impl MeasuredCostPlanner {
    /// A planner for `fit`, with an empty memo.
    pub fn new(fit: FittedModel) -> Self {
        MeasuredCostPlanner { fit, memo: None }
    }

    /// `T_opt` for symmetric checkpoint/recovery cost `cost` on a machine
    /// of age `age`; a NaN or negative age plans as age 0.
    ///
    /// # Errors
    /// Returns the search's error for an invalid cost or a failed search;
    /// errors are not memoized.
    pub fn plan(&mut self, cost: f64, age: f64) -> Result<f64> {
        let age = age.max(0.0);
        let key_age = match self.fit {
            FittedModel::Exponential(_) => 0.0,
            _ => age,
        };
        let key = (cost.to_bits(), key_age.to_bits());
        if let Some((memo_key, t)) = self.memo {
            if memo_key == key {
                return Ok(t);
            }
        }
        let t = VaidyaModel::new(&self.fit, CheckpointCosts::symmetric(cost))?.optimal_work(age)?;
        self.memo = Some((key, t));
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_dist::{Exponential, Weibull};

    fn exact(fit: &FittedModel, cost: f64, age: f64) -> Result<f64> {
        Ok(VaidyaModel::new(fit, CheckpointCosts::symmetric(cost))?
            .optimal_interval(age)?
            .work_seconds)
    }

    #[test]
    fn repeated_plans_hit_the_memo_and_stay_exact() {
        let fit = FittedModel::Weibull(Weibull::paper_exemplar());
        let mut planner = MeasuredCostPlanner::new(fit.clone());
        for (cost, age) in [(110.0, 60.0), (110.0, 60.0), (110.0, 9e4), (40.0, 9e4)] {
            let got = planner.plan(cost, age).unwrap();
            assert_eq!(got.to_bits(), exact(&fit, cost, age).unwrap().to_bits());
            assert_eq!(planner.memo, Some(((cost.to_bits(), age.to_bits()), got)));
        }
    }

    #[test]
    fn exponential_plans_share_one_key_across_ages() {
        let fit = FittedModel::Exponential(Exponential::from_mean(3_600.0).unwrap());
        let mut planner = MeasuredCostPlanner::new(fit);
        let t = planner.plan(110.0, 0.0).unwrap();
        assert_eq!(planner.plan(110.0, 1e6).unwrap().to_bits(), t.to_bits());
        assert_eq!(planner.memo, Some(((110f64.to_bits(), 0), t)));
    }

    #[test]
    fn invalid_costs_error_and_leave_the_memo_alone() {
        let fit = FittedModel::Exponential(Exponential::from_mean(3_600.0).unwrap());
        let mut planner = MeasuredCostPlanner::new(fit);
        let t = planner.plan(50.0, 0.0).unwrap();
        assert!(planner.plan(f64::NAN, 0.0).is_err());
        assert!(planner.plan(-1.0, 0.0).is_err());
        assert_eq!(planner.memo, Some(((50f64.to_bits(), 0), t)));
    }
}
