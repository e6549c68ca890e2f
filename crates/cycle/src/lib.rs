//! The checkpoint-cycle state machine shared by every executor.
//!
//! The recovery → work → checkpoint lifecycle (Vaidya's three-state
//! model, paper §3.5) used to be implemented four separate times — the
//! batch trace simulator, its timeline recorder, the emulated live
//! experiment, and the shared-link contention model — each with its own
//! accounting struct and its own copy of the `age + T + C > a` boundary
//! logic. The paper's §5.3 validation (replaying live logs through the
//! simulator and demanding agreement) is only meaningful if those paths
//! share semantics, so this crate holds the one implementation they all
//! call into:
//!
//! * [`CycleAccounting`] — the unified ledger (useful/lost/recovery/
//!   checkpoint seconds, committed/attempted counts, full + partial
//!   megabytes) subsuming the per-executor result structs.
//! * [`run_trace`] — closed-form execution of a trace of availability
//!   segments under fixed costs, the batch simulator's inner loop. It
//!   plans the schedule `T_opt(R), T_opt(R + T₁ + C), …` once per trace
//!   and walks every segment along that one plan; its arithmetic is kept
//!   operation-for-operation identical to the historical engine so
//!   ported simulators reproduce old results **bitwise**.
//! * [`CycleMachine`] — the step-driven form of the same machine:
//!   explicit `Recovery / Work / Checkpoint` states advanced by
//!   `advance(dt, megabytes)` and ended by `evict()`/`cutoff()`, for
//!   executors whose transfer progress is stochastic (measured per-
//!   transfer durations) or bandwidth-shared (processor-sharing links).
//! * [`CycleObserver`] — a no-op-by-default event tap through which both
//!   drivers report identical per-interval events; timeline recording and
//!   the checkpoint manager's process logs are observers, not re-
//!   implementations.
//! * [`guarded_interval`] — the one work-interval guard (NaN-age
//!   sanitization + minimum-interval clamp) that every executor plans
//!   through.

#![deny(missing_docs)]

mod accounting;
mod closed_form;
mod config;
mod guard;
mod machine;
mod observer;

pub use accounting::CycleAccounting;
pub use closed_form::{run_trace, MAX_PLAN_STEPS};
pub use config::CycleConfig;
pub use guard::{clamp_interval, guarded_interval, sanitize_age, MIN_WORK_SECONDS};
pub use machine::{CycleMachine, CyclePhase};
pub use observer::{
    CycleObserver, IntervalOutcome, NoopObserver, TransferDirection, TransferFaultKind,
};

/// Decides the next work interval given the machine's current age
/// (seconds since the start of its current availability segment).
///
/// This is the policy interface every executor plans through; it lives
/// here so the batch simulator, the timeline recorder, and differential
/// test drivers all speak to the same trait.
///
/// `next_interval` must be a pure function of the age: the same age
/// must always give the same interval, whatever was asked before.
/// [`run_trace`] relies on this to plan a trace's schedule once and reuse
/// it for every availability segment, so a policy that keeps state
/// between calls is asked fewer times than there are work intervals.
pub trait SchedulePolicy {
    /// Work interval to attempt next, seconds, for a machine `age`
    /// seconds into its availability segment; depends on `age` alone.
    fn next_interval(&self, age: f64) -> f64;
    /// Display label.
    fn label(&self) -> String;
}
