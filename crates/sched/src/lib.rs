//! Online checkpoint scheduler: the serving side of the paper's
//! pipeline.
//!
//! The batch pipeline (fit 25 training observations per machine, sweep
//! the grid, write tables) answers the paper's questions but not a
//! production cluster's: machines come and go, availability regimes
//! drift, and the checkpoint library asks for `T_opt(machine, age)`
//! thousands of times per second. This crate turns the batch stages
//! into an online loop:
//!
//! * [`ingest`] — the one parallel fit fan-out shared by the batch
//!   prepare (`chs-sim` delegates here) and scheduler bootstraps, so
//!   "batch" is literally a replay of the online ingest path.
//! * [`Scheduler`] — a deterministic event-clock loop: availability
//!   observations stream into per-machine
//!   [`chs_dist::fit::StreamingFit`]s (change-point and cadence
//!   triggered refits); on publish boundaries the fitted models are
//!   compressed through a shared [`chs_markov::PolicyCache`] and swapped
//!   in as an immutable [`chs_markov::PolicyStore`] epoch; queries are
//!   served from the current epoch by table lookup.
//!
//! Refits stay off the ingest path. `observe` only records a machine's
//! trigger and parks its refit job; the machine keeps ingesting until
//! its next trigger could depend on the outcome. Parked jobs resolve in
//! one order-preserving parallel batch over every parked machine — at
//! `publish`, at [`Scheduler::flush`], or when a parked machine reaches
//! that horizon.
//!
//! Determinism is load-bearing: the event clock (not wall time) drives
//! publishes, per-decision seeds derive from stable
//! `(machine id, epoch)` keys, and both the refit batch and the publish
//! fan-out preserve input order — an N-thread run is bitwise identical
//! to a 1-thread run (pinned by `tests/determinism.rs`), and the
//! deferred refits are bitwise the inline loop's
//! (`tests/deferred_refit.rs`).

#![deny(missing_docs)]

pub mod ingest;
mod scheduler;

pub use scheduler::{Decision, Event, RunSummary, Scheduler, SchedulerConfig};

/// Errors from the online scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// A fit or observation was rejected by the estimation layer.
    Dist(chs_dist::DistError),
    /// Policy compression or optimization failed.
    Markov(chs_markov::MarkovError),
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// What was wrong.
        message: &'static str,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Dist(e) => write!(f, "estimation error: {e}"),
            SchedError::Markov(e) => write!(f, "policy error: {e}"),
            SchedError::InvalidConfig { message } => write!(f, "invalid config: {message}"),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<chs_dist::DistError> for SchedError {
    fn from(e: chs_dist::DistError) -> Self {
        SchedError::Dist(e)
    }
}

impl From<chs_markov::MarkovError> for SchedError {
    fn from(e: chs_markov::MarkovError) -> Self {
        SchedError::Markov(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SchedError>;
