//! A virtual-time emulation of the Condor cycle-harvesting system,
//! reproducing the paper's live experiment (§4–§5.2, Tables 4–5).
//!
//! **Substitution note (DESIGN.md §5).** The paper ran an instrumented
//! test process on the real UW–Madison Condor pool. We cannot, so this
//! crate emulates the pieces that experiment exercised:
//!
//! * [`machine`] — desktop machines whose owners reclaim them: each
//!   machine alternates *available* segments (drawn from its ground-truth
//!   availability process) and *owner-busy* gaps, exactly like the
//!   synthetic traces.
//! * [`negotiator`] — Vanilla-universe matchmaking: submitted jobs wait
//!   until a machine is idle-available, are placed (possibly mid-segment,
//!   so with a nonzero `T_elapsed`), and are **terminated on eviction**.
//! * [`manager`] — the checkpoint manager: serves the initial 500 MB
//!   recovery image, receives 500 MB checkpoints, times every transfer
//!   (stochastic per-transfer durations from `chs-net`), records
//!   heartbeats, and keeps a per-run log from which efficiency and
//!   network load are computed *post facto*.
//! * [`experiment`] — the §5.2 harness: repeatedly submit test processes
//!   over a measurement window; each process measures `C`/`R` from its
//!   own transfers, recomputes `T_opt` after every checkpoint with the
//!   machine's fitted availability model, and loops until evicted.
//!
//! * [`resilient`] — the live experiment under injected faults, plus the
//!   fit-fallback chain ([`resolve_fit`]) and [`FaultReport`] it shares
//!   with `chs_manager::run_manager`, the one driver for many jobs
//!   contending on a shared link (the paper's §5.2 conjecture).
//!
//! Every executor in this crate drives a `chs_cycle::CycleMachine`, the
//! same state machine the batch simulator executes in closed form, so
//! all accounting flows through one `chs_cycle::CycleAccounting` ledger.
//!
//! The emulation is deterministic given a seed and runs in virtual time.

#![deny(missing_docs)]

pub mod experiment;
pub mod log;
pub mod machine;
pub mod manager;
pub mod monitor;
pub mod negotiator;
pub mod resilient;

pub use experiment::{run_experiment, ExperimentConfig, ExperimentResult, ModelSummary};
pub use log::{LogDigest, LogEvent, LogRecorder, ProcessLog};
pub use machine::{EmulatedMachine, MachinePark};
pub use manager::{RunRecord, TransferKind, TransferRecord};
pub use monitor::{run_monitor, MonitorConfig};
pub use resilient::{resolve_fit, run_experiment_with_faults, FaultReport, ResolvedFit};

/// Errors from the emulation.
#[derive(Debug)]
pub enum CondorError {
    /// Bad configuration.
    InvalidConfig(&'static str),
    /// A model could not be fitted to a machine's history.
    Fit(chs_dist::DistError),
    /// Schedule optimization failed mid-run.
    Markov(chs_markov::MarkovError),
}

impl std::fmt::Display for CondorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CondorError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            CondorError::Fit(e) => write!(f, "fit: {e}"),
            CondorError::Markov(e) => write!(f, "markov: {e}"),
        }
    }
}

impl std::error::Error for CondorError {}

impl From<chs_dist::DistError> for CondorError {
    fn from(e: chs_dist::DistError) -> Self {
        CondorError::Fit(e)
    }
}

impl From<chs_markov::MarkovError> for CondorError {
    fn from(e: chs_markov::MarkovError) -> Self {
        CondorError::Markov(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CondorError>;
