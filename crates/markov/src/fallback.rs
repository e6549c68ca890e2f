//! The fit-degradation chain that decides what a machine plans with:
//! native fit → exponential MLE → Young's fixed interval
//! ([`young_interval`]). The trace sweep, the live driver and the
//! manager all resolve through [`resolve_fit`], so a fit failure
//! degrades the same way everywhere; the model tiers then plan through
//! [`crate::MeasuredCostPlanner`] or the sweep's tables.

use crate::vaidya::DEFAULT_T_MIN;
use chs_dist::fit::fit_model;
use chs_dist::{FittedModel, ModelKind};
use serde::{Deserialize, Serialize};

/// The tier of the fit-degradation chain a machine plans on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitTier {
    /// The requested family fitted.
    Native,
    /// The native fit failed (naturally, or skipped by fault
    /// injection); the machine plans on an exponential-MLE fit of the
    /// same history.
    Exponential,
    /// Even the exponential fit failed; the machine plans Young's fixed
    /// interval and carries no model.
    Fixed,
}

/// Walk the fit-degradation chain from the outcome of the native fit
/// attempt: `Some(Ok(fit))` keeps the fit, `Some(Err(_))` (a natural
/// failure) and `None` (an attempt skipped by fault injection) both fall
/// back to an exponential-MLE fit of `history`, then to the
/// [`FitTier::Fixed`] tier, which has no model. Taking the attempt's
/// outcome rather than making it lets batched callers fan the native
/// fits out first. Never fails; the caller counts the tier.
pub fn resolve_fit(
    native: Option<chs_dist::Result<FittedModel>>,
    history: &[f64],
) -> (Option<FittedModel>, FitTier) {
    match native {
        Some(Ok(fit)) => (Some(fit), FitTier::Native),
        _ => match fit_model(ModelKind::Exponential, history) {
            Ok(fit) => (Some(fit), FitTier::Exponential),
            Err(_) => (None, FitTier::Fixed),
        },
    }
}

/// Young's first-order interval `√(2·C·mean)`, the plan of the
/// [`FitTier::Fixed`] tier, with the history mean as the MTTF. A
/// negative or NaN cost counts as 0, and the result is at least 1 s
/// (the smallest interval [`crate::VaidyaModel`] searches).
pub fn young_interval(cost: f64, mean: f64) -> f64 {
    (2.0 * cost.max(0.0) * mean).sqrt().max(DEFAULT_T_MIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_degrades_native_then_exponential_then_fixed() {
        let history: Vec<f64> = (0..25).map(|i| 600.0 + 97.0 * f64::from(i)).collect();
        let native = fit_model(ModelKind::Weibull, &history);
        let (fit, tier) = resolve_fit(Some(native), &history);
        assert_eq!(tier, FitTier::Native);
        assert_eq!(fit.unwrap().kind(), ModelKind::Weibull);

        // Identical durations defeat the Weibull MLE: the natural
        // failure and an injected skip walk the same tier.
        let flat = [600.0; 25];
        let natural = fit_model(ModelKind::Weibull, &flat);
        assert!(natural.is_err());
        for native in [Some(natural), None] {
            let (fit, tier) = resolve_fit(native, &flat);
            assert_eq!(tier, FitTier::Exponential);
            assert_eq!(fit.unwrap().kind(), ModelKind::Exponential);
        }

        // Nothing fits an empty history: Young's tier, no model.
        let (fit, tier) = resolve_fit(None, &[]);
        assert_eq!(tier, FitTier::Fixed);
        assert!(fit.is_none());
    }

    #[test]
    fn young_interval_is_floored_at_one_second() {
        assert_eq!(
            young_interval(110.0, 3_600.0),
            (2.0f64 * 110.0 * 3_600.0).sqrt()
        );
        for (cost, mean) in [(110.0, 0.0), (f64::NAN, 3_600.0), (-5.0, 3_600.0)] {
            assert_eq!(young_interval(cost, mean), 1.0);
        }
    }
}
