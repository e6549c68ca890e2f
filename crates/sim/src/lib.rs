//! Trace-driven discrete-event simulation of checkpointed execution
//! (paper §5.1).
//!
//! A long-running job executes on one machine whose availability is given
//! by a recorded trace. Within each availability segment the job:
//!
//! 1. **recovers** from its last checkpoint (`R` seconds),
//! 2. repeatedly asks its [`policy::SchedulePolicy`] for a work interval
//!    `T` (a function of the machine's current age), works `T` seconds,
//!    and **checkpoints** (`C` seconds),
//! 3. **fails** when the segment ends: work since the last completed
//!    checkpoint is lost, and the cycle restarts with a recovery on the
//!    next segment.
//!
//! The simulator credits *useful work* only for work intervals whose
//! checkpoint committed, and accounts every transferred megabyte —
//! recoveries, completed checkpoints, and the partial bytes of transfers
//! cut off by eviction — reproducing both metrics of the paper's Figures
//! 3–4 and Tables 1–3.

#![deny(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod policy;
pub mod sweep;
pub mod timeline;

pub use engine::{simulate_trace, simulate_trace_observed, SimConfig};
pub use metrics::SimResult;
pub use policy::{CachedPolicy, FixedIntervalPolicy, ModelPolicy, SchedulePolicy};
pub use sweep::{
    audit_warm_fill, prepare_experiments, prepare_experiments_reported,
    prepare_experiments_resilient, sweep_paper_grid, sweep_paper_grid_reference,
    sweep_paper_grid_serial, FillExcess, FitFailureCount, FitFallback, MachineExperiment,
    PrepareReport, PreparedExperiments, SweepCell, SweepGrid,
};
pub use timeline::{
    simulate_with_timeline, IntervalOutcome, IntervalRecord, SegmentRecord, Timeline,
    TimelineBuilder,
};

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Configuration rejected (non-finite costs, empty trace, …).
    InvalidConfig {
        /// What was wrong.
        message: &'static str,
    },
    /// A policy failed to produce an interval.
    Policy(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConfig { message } => write!(f, "invalid config: {message}"),
            SimError::Policy(e) => write!(f, "policy failure: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SimError>;
