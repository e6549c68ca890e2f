//! The five workloads. Each drives public entry points of the library
//! crates from one caller that issues the next call only after the
//! previous one returns (a closed loop), on inputs generated from the
//! seed in [`Workload::setup`].

pub mod fleet;
pub mod manager;
pub mod paper_grid;
pub mod pool;

use crate::trace::Tracer;
use chs_cycle::CycleAccounting;
use std::collections::BTreeMap;

/// Workload sizes: the benchmark's own, or the tiny ones the tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes recorded in the crate README.
    Bench,
    /// Seconds-scale sizes for `cargo test` (debug builds).
    Quick,
}

/// One execution of a timed phase, reduced to what the runner compares
/// across iterations and reports.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Timing metrics of this execution (phase seconds, rates).
    pub timings: BTreeMap<&'static str, f64>,
    /// Fingerprint of every deterministic output.
    pub digest: u64,
    /// Deterministic end-to-end and per-layer values; bitwise equal
    /// across iterations of one seed.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// Output checks plus the deterministic metrics that are too costly to
/// recompute every iteration; run once per run, outside the timed phase.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// One line per violated check.
    pub failures: Vec<String>,
    /// Extra deterministic values.
    pub values: BTreeMap<&'static str, f64>,
}

/// A benchmark workload.
pub trait Workload {
    /// Inputs generated from the seed.
    type Input;
    /// What the timed phase produces.
    type Output;

    /// Generate the inputs (timed as `setup_s`).
    fn setup(&self, seed: u64) -> Self::Input;

    /// Fingerprint of the inputs: repeated set-ups must agree.
    fn input_digest(&self, input: &Self::Input) -> u64;

    /// The timed phase.
    fn run(&self, input: &Self::Input, tracer: &mut Tracer) -> Self::Output;

    /// Cheap reduction of one output, done after every iteration.
    fn summarize(&self, output: &Self::Output) -> Iteration;

    /// Output checks and costly metrics, done once per run.
    fn check(&self, input: &Self::Input, output: &Self::Output) -> Checked;
}

/// Fold `bits` into a running digest.
pub fn fold(h: u64, bits: u64) -> u64 {
    chs_markov::mix64(h ^ bits)
}

/// `efficiency`, `mb_per_useful_h` and the `cycle.*` per-layer values of
/// a merged ledger.
pub fn ledger_values(ledger: &CycleAccounting, values: &mut BTreeMap<&'static str, f64>) {
    values.insert("efficiency", ledger.efficiency());
    values.insert(
        "mb_per_useful_h",
        ledger.megabytes / (ledger.useful_seconds / 3_600.0),
    );
    values.insert(
        "cycle.checkpoints_attempted",
        ledger.checkpoints_attempted as f64,
    );
    values.insert(
        "cycle.commit_ratio",
        ledger.checkpoints_committed as f64 / ledger.checkpoints_attempted.max(1) as f64,
    );
    values.insert("cycle.lost_work_s", ledger.lost_work_seconds);
    values.insert("cycle.wasted_mb", ledger.wasted_megabytes);
}

/// Time and byte conservation of a merged ledger, to `1e-6` relative.
pub fn check_ledger(label: &str, ledger: &CycleAccounting, failures: &mut Vec<String>) {
    let time = ledger.conservation_residual().abs();
    if time.is_nan() || time > 1e-6 * ledger.total_seconds.max(1.0) {
        failures.push(format!("{label}: time conservation residual {time}"));
    }
    let bytes = ledger.byte_conservation_residual().abs();
    if bytes.is_nan() || bytes > 1e-6 * ledger.megabytes.max(1.0) {
        failures.push(format!("{label}: byte conservation residual {bytes}"));
    }
    if ledger.useful_seconds.is_nan() || ledger.useful_seconds <= 0.0 {
        failures.push(format!("{label}: no useful work committed"));
    }
}
