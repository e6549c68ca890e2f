//! Vaidya's three-state Markov model of a checkpoint interval (paper
//! §3.5) generalized to arbitrary availability distributions, plus the
//! `T_opt` optimizer and aperiodic schedule generator.
//!
//! A checkpoint interval consists of a work phase of `T` seconds followed
//! by a checkpoint of `C` seconds; a job restarting after a failure first
//! pays a recovery of `R` seconds. The Markov chain has three states:
//!
//! * **0** — interval begins on a machine of known age,
//! * **1** — interval completed (work + checkpoint survived),
//! * **2** — the machine failed somewhere in the attempt.
//!
//! With `F_t` the *conditional future-lifetime* CDF of the machine at age
//! `t` and `F` the unconditional CDF (a machine that just failed has age
//! 0), the transition probabilities and expected costs are
//!
//! ```text
//! P01 = 1 − F_t(C+T)        K01 = C + T
//! P02 = F_t(C+T)            K02 = E[x | x < C+T]   (under F_t)
//! P21 = 1 − F(L+R+T)        K21 = L + R + T
//! P22 = F(L+R+T)            K22 = E[x | x < L+R+T] (under F)
//!
//! Γ(T) = P01·K01 + P02·(K02 + K21 + (P22/P21)·K22)
//! ```
//!
//! (`L` is the checkpoint latency; with sequential non-overlapped
//! checkpointing as in the paper, `L = C`.) `Γ/T` is the expected
//! wall-clock cost per unit of useful work; minimizing it with
//! golden-section search yields the optimal work interval `T_opt`. For
//! non-memoryless distributions `T_opt` depends on the machine's age, so
//! the model emits an *aperiodic schedule* recomputed after every failure.

#![deny(missing_docs)]

mod planner;
pub mod predict;
mod schedule;
mod store;
mod vaidya;

pub use planner::MeasuredCostPlanner;
pub use predict::{predict_steady_state, SteadyStatePrediction};
pub use schedule::{Schedule, ScheduleEntry};
pub use store::{
    mix64, CacheCounters, ClusterKey, CompressedPolicy, CompressionConfig, DedupKey, PolicyCache,
    PolicyStore, StoreStats, DEFAULT_CLUSTER_QUANTUM, DEFAULT_MAX_AGE, DEFAULT_MAX_REL_ERROR,
};
pub use vaidya::{CheckpointCosts, GammaAtAge, IntervalQuantities, OptimalInterval, VaidyaModel};

#[cfg(feature = "bench-counters")]
pub use vaidya::counters;

/// Errors from the checkpoint-interval optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// A cost or bound parameter was invalid (negative, non-finite, …).
    InvalidParameter {
        /// Which parameter.
        parameter: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The optimizer failed (objective non-finite everywhere, bracket
    /// failure, …).
    Optimization(chs_numerics::NumericsError),
}

impl std::fmt::Display for MarkovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkovError::InvalidParameter { parameter, value } => {
                write!(f, "invalid parameter {parameter} = {value}")
            }
            MarkovError::Optimization(e) => write!(f, "optimization failed: {e}"),
        }
    }
}

impl std::error::Error for MarkovError {}

impl From<chs_numerics::NumericsError> for MarkovError {
    fn from(e: chs_numerics::NumericsError) -> Self {
        MarkovError::Optimization(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MarkovError>;
