//! Availability distributions for cycle-harvesting resources.
//!
//! The paper (§3) models machine availability durations with three
//! families — exponential, Weibull, and k-phase hyperexponential — fits
//! them to observed occupancy traces (MLE for the first two, EM for the
//! hyperexponential), and then conditions on the machine's current age to
//! obtain *future-lifetime* distributions (Eqs. 8–10) that parameterize
//! the Markov checkpoint model.
//!
//! This crate provides:
//!
//! * [`Exponential`], [`Weibull`], [`HyperExponential`] — the three
//!   families with full pdf/cdf/survival/hazard/mean/quantile/sampling
//!   support.
//! * [`AvailabilityModel`] — the object-safe trait for the unconditional
//!   law: density, CDF, survival, hazard, mean, quantile, sampling and
//!   likelihood.
//! * [`ConditionedDist`] / [`DistRef`] — the one age-conditioned
//!   implementation of the future-lifetime law (Eqs. 8–10): per-family
//!   kernels with the conditioning invariants precomputed, monomorphized
//!   over the families for the optimizer's hot loop. The per-call path
//!   they replaced is a frozen test oracle in
//!   `crates/dist/tests/frozen/conditional.rs`.
//! * [`fit`] — maximum-likelihood fitting (closed-form exponential,
//!   profile-likelihood Newton for Weibull) and mixture-of-exponentials EM
//!   for hyperexponentials (the EMPht substitute).
//! * [`gof`] — log-likelihood, AIC/BIC, and Kolmogorov–Smirnov
//!   goodness-of-fit.
//! * [`FittedModel`] / [`ModelKind`] — enum dispatch used by schedulers,
//!   simulators and the experiment harness.

#![deny(missing_docs)]

mod exponential;
pub mod fit;
pub mod gof;
mod hyperexp;
mod kernel;
mod lognormal;
mod model;
mod weibull;

pub use exponential::Exponential;
pub use hyperexp::HyperExponential;
#[cfg(feature = "bench-counters")]
pub use kernel::counters;
pub use kernel::{ConditionedDist, DistRef};
pub use lognormal::{fit_lognormal, LogNormal};
pub use model::{AvailabilityModel, FittedModel, ModelKind};
pub use weibull::Weibull;

/// Errors produced while constructing or fitting distributions.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A distribution parameter was out of range (non-positive rate,
    /// weights not summing to one, …).
    InvalidParameter {
        /// Which parameter was rejected.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The data set handed to a fitting routine is unusable (empty, too
    /// short for the parameter count, or containing non-positive values).
    InvalidData {
        /// Human-readable description of the problem.
        message: &'static str,
    },
    /// An iterative fitting routine failed to converge.
    NoConvergence {
        /// Name of the routine.
        routine: &'static str,
        /// Iterations performed.
        iterations: usize,
    },
    /// A numerical sub-routine failed.
    Numerics(chs_numerics::NumericsError),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::InvalidParameter { parameter, value } => {
                write!(f, "invalid parameter {parameter} = {value}")
            }
            DistError::InvalidData { message } => write!(f, "invalid data: {message}"),
            DistError::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} failed to converge after {iterations} iterations"
                )
            }
            DistError::Numerics(e) => write!(f, "numerics failure: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<chs_numerics::NumericsError> for DistError {
    fn from(e: chs_numerics::NumericsError) -> Self {
        DistError::Numerics(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DistError>;
