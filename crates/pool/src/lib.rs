//! Pool-scale discrete-event simulation: 10⁵–10⁶ machines contending on
//! a hierarchical network (machine NIC → rack uplink → core).
//!
//! The classic contention loop answers the paper's §5.2 conjecture for a
//! handful of jobs on one link (it survives as the frozen oracle
//! `run_contention` in the root `tests/contention_differential.rs`), but
//! it rescans every job on every bandwidth change — O(jobs) per event —
//! and pre-materializes every machine's availability timeline. Neither
//! survives a six-figure pool.
//! This crate keeps the *physics* (max-min fair bandwidth sharing, the
//! same [`chs_cycle::CycleMachine`] per-machine state machine, the same
//! ledger) and replaces the engine:
//!
//! * **Calendar-queue event heap** ([`calendar`]): time-keyed events
//!   (placement, work-interval end, segment end) live in a bucketed ring
//!   with O(1) amortized insert/pop; stale entries are invalidated by
//!   per-machine generation counters instead of being removed.
//! * **Structure-of-arrays machine state** ([`engine`]): phase clocks,
//!   segment bounds, pending-transfer bytes and policy measurements sit
//!   in parallel `Vec`s indexed by machine id — no per-machine boxes, no
//!   steady-state allocation.
//! * **Incremental max-min fair sharing** ([`fabric`]): for the symmetric
//!   machine → rack → core tree, every flow in a rack with `k` active
//!   transfers gets `min(nic, uplink/k, λ)`, where the core water level
//!   `λ` depends only on the *histogram* of rack flow-counts. An
//!   arrival/departure therefore touches its own rack plus an
//!   O(rack_size) bucket summary — never the other 10⁶ machines.
//! * **Virtual-volume completions** ([`fabric`]): per-bucket service
//!   integrals `A_k(t) = ∫ min(s_k, λ) dt` turn "when does this transfer
//!   finish?" into a *constant* key in volume space, so completions sit
//!   in ordinary heaps and survive every rate change without reindexing.
//! * **Lazy workloads** ([`workload`]): availability segments are drawn
//!   on demand from counter-mode splitmix64 streams keyed by stable
//!   machine ids — no pre-generated timelines, and bitwise determinism
//!   regardless of event ordering or thread count.
//! * **Table-driven policies** ([`policy`]): per-machine `next_interval`
//!   decisions come from [`chs_markov::PolicyStore`] /
//!   [`chs_markov::CompressedPolicy`] snapshots (dedup + cluster sharing
//!   make a million policies affordable).
//!
//! A frozen rescan-style reference engine ([`rescan`]) generalizes the
//! classic loop to the same topology and is kept deliberately
//! naive: the `pool_bench` binary gates the calendar engine's
//! machine-events/s against it.

mod calendar;
mod engine;
mod fabric;
mod fairshare;
mod policy;
mod rescan;
mod stats;
mod workload;

pub use calendar::{CalendarQueue, Event, EventKind};
pub use engine::{PoolResult, PoolSim, PoolSimConfig};
pub use fabric::{Fabric, FabricConfig};
pub use fairshare::WeightedFairLink;
pub use policy::{
    build_policy_store, AdaptiveVaidyaPolicy, FixedIntervalPolicy, PoolPolicy,
    SchedulePolicyBridge, StoreBuildReport, StorePolicy,
};
pub use rescan::{rescan_run, RescanResult};
pub use stats::{DistSummary, TimeHistogram};
pub use workload::{Seg, Timeline, VecTimeline, Workload, WorkloadConfig};

/// Errors from pool construction or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// A configuration knob was rejected.
    InvalidConfig(&'static str),
    /// A policy had no answer for a machine (e.g. missing store entry).
    MissingPolicy { machine: u64 },
    /// An availability-model operation failed.
    Markov(chs_markov::MarkovError),
    /// A distribution fit failed.
    Dist(chs_dist::DistError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::InvalidConfig(why) => write!(f, "invalid pool config: {why}"),
            PoolError::MissingPolicy { machine } => {
                write!(f, "no policy table for machine {machine}")
            }
            PoolError::Markov(e) => write!(f, "markov error: {e}"),
            PoolError::Dist(e) => write!(f, "dist error: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<chs_markov::MarkovError> for PoolError {
    fn from(e: chs_markov::MarkovError) -> Self {
        PoolError::Markov(e)
    }
}

impl From<chs_dist::DistError> for PoolError {
    fn from(e: chs_dist::DistError) -> Self {
        PoolError::Dist(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PoolError>;
