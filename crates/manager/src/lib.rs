//! The checkpoint manager as a concurrent server.
//!
//! `chs-condor`'s live driver simulates every transfer *inline* inside
//! one job's loop. This crate's [`run_manager`] is the repo's one driver
//! for many jobs sharing a link: a server that multiplexes the clients'
//! checkpoint/recovery traffic over it — the component the paper's §5.2
//! identifies as the real bottleneck — with the robustness machinery a
//! production manager needs:
//!
//! * **Weighted fair lanes** ([`chs_net::Lane`]): recovery > checkpoint
//!   \> prefetch shares of the link, served max-min fairly by
//!   [`chs_pool::WeightedFairLink`], which runs on the virtual-volume
//!   lane core it shares with the pool's [`chs_pool::Fabric`]: one
//!   service integral and one finish-key heap per lane.
//! * **Admission control** ([`chs_net::AdmissionConfig`]): new
//!   checkpoints are *deferred* when forecast link utilization exceeds a
//!   watermark; the client falls back to its last verified image and the
//!   interval's work is re-accounted as lost, exactly like a
//!   retry-exhausted abandonment.
//! * **A durable dead-letter queue** ([`chs_net::DeadLetterQueue`]):
//!   transfers that exhaust their [`chs_net::RetryPolicy`] budget are
//!   *enqueued with full resume state*, never just counted, and
//!   [`replay_dead_letters`] drains them later under explicit
//!   backpressure. The invariant — tracked ⇒ enqueued ⇒ replayed or
//!   explicitly abandoned — is enforced by conservation gates in the
//!   test suites and `manager_bench`.
//! * **Determinism discipline**: every fault and jitter decision comes
//!   from a per-decision RNG keyed by a stable transfer id
//!   `(client, seq)`, so a 1-thread and an N-thread run produce bitwise
//!   identical results (the [`ManagerResult::digest`] gate).
//!
//! [`ManagerConfig::classic`] turns the policy layer off (uniform
//! weights, no admission, no prefetch): the link becomes processor
//! sharing, the model of the paper's §5.2 conjecture. The root
//! `tests/contention_differential.rs` checks that profile against a
//! frozen copy of the classic event loop.

#![deny(missing_docs)]

mod config;
mod index;
mod replay;
mod server;

pub use config::{ManagerConfig, ManagerOutcome, ManagerReport, ManagerResult};
pub use replay::{replay_dead_letters, replay_dead_letters_observed, ReplayConfig, ReplayReport};
pub use server::{run_manager, run_manager_observed};

/// Errors from manager configuration or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerError {
    /// A configuration knob is out of range; the message names it.
    InvalidConfig(String),
}

impl std::fmt::Display for ManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagerError::InvalidConfig(why) => write!(f, "invalid manager config: {why}"),
        }
    }
}

impl std::error::Error for ManagerError {}

/// Convenience alias for manager results.
pub type Result<T> = std::result::Result<T, ManagerError>;
