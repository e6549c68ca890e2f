//! Wall-clock benchmark for the shared checkpoint-cycle engine: times the
//! closed-form segment executor (`chs_cycle::run_trace`, the batch
//! simulator's path) against the step-driven `CycleMachine` drive of the
//! same trace (the condor/contention executors' path), and verifies the
//! two agree — the identity behind porting all four executors onto one
//! state machine.
//!
//! ```text
//! cargo run -p chs-bench --release --bin cycle_bench \
//!     [--quick | --full] [--seed S] [--json PATH]
//! ```
//!
//! The trace length reuses the pool-scale flags: `machines` ×
//! `observations` availability segments, drawn from the paper's fitted
//! Weibull, scheduled by the real fitted-and-cached policy. Results are
//! written to `BENCH_cycle.json` (override with `--json`) in the common
//! report envelope; the run exits 1 if a gate fails: `counts_identical`
//! (every discrete ledger count equal) or `ledger_identity` (useful,
//! megabyte and total seconds within 1e-9 relative of the closed form).
//! Each executor's `policy_queries` counts its `next_interval` calls in
//! one untimed pass: the closed form asks once per step of its per-trace
//! plan, the step-driven drive once per work interval.

use chs_bench::harness::{best_of, finish, Gates};
use chs_bench::{step_drive_trace, CommonArgs, TablePrinter};
use chs_cycle::{run_trace, CycleConfig, NoopObserver, SchedulePolicy};
use chs_dist::fit::fit_model;
use chs_dist::ModelKind;
use chs_markov::CheckpointCosts;
use chs_sim::CachedPolicy;
use chs_trace::synthetic::known_weibull_trace;
use serde::Serialize;
use std::cell::Cell;

/// Checkpoint/recovery cost for the benchmark (the paper's C = 110 s).
const CHECKPOINT_COST: f64 = 110.0;

#[derive(Debug, Serialize)]
struct PathReport {
    seconds: f64,
    segments_per_second: f64,
    /// `next_interval` calls over one pass of the trace.
    policy_queries: u64,
}

/// Counts the `next_interval` calls an executor makes.
struct Counted<'p> {
    inner: &'p dyn SchedulePolicy,
    queries: Cell<u64>,
}

impl SchedulePolicy for Counted<'_> {
    fn next_interval(&self, age: f64) -> f64 {
        self.queries.set(self.queries.get() + 1);
        self.inner.next_interval(age)
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

/// The policy queries `drive` makes in one pass.
fn count_queries(policy: &dyn SchedulePolicy, drive: impl FnOnce(&dyn SchedulePolicy)) -> u64 {
    let counted = Counted {
        inner: policy,
        queries: Cell::new(0),
    };
    drive(&counted);
    counted.queries.get()
}

#[derive(Debug, Serialize)]
struct CycleBenchReport {
    segments: usize,
    seed: u64,
    checkpoint_cost: f64,
    repetitions: usize,
    closed_form: PathReport,
    step_driven: PathReport,
    /// Step-driven wall-clock over closed-form wall-clock: the price of
    /// incremental stepping relative to executing each segment in one go.
    step_overhead: f64,
    /// Relative deviations between the two executors' ledgers. The
    /// drivers make bitwise-identical branch decisions, so these measure
    /// only floating-point accrual error and must stay ≤ 1e-9 (the
    /// `ledger_identity` gate).
    max_rel_dev_useful_seconds: f64,
    max_rel_dev_megabytes: f64,
    max_rel_dev_total_seconds: f64,
    counts_identical: bool,
}

fn main() {
    let args = CommonArgs::parse();
    let json_path = args.report_path("BENCH_cycle.json");
    let segments = args.machines * args.observations;
    let reps = 3;
    if segments < 26 {
        eprintln!("need at least 26 segments (25 train the policy); got {segments}");
        std::process::exit(2);
    }

    // One long trace from the paper's fitted Weibull; schedule with the
    // real fitted-and-cached policy so the per-interval lookup cost is
    // representative of the sweep's inner loop.
    let durations = known_weibull_trace(0.43, 3_409.0, segments, args.seed).durations();
    let fit = fit_model(ModelKind::Weibull, &durations[..25]).expect("fit");
    let max_age = durations.iter().cloned().fold(0.0f64, f64::max);
    let policy = CachedPolicy::new(fit, CheckpointCosts::symmetric(CHECKPOINT_COST), max_age);
    let config = CycleConfig::paper(CHECKPOINT_COST);

    eprintln!("timing closed-form executor ({segments} segments, best of {reps}) ...");
    let (closed, closed_secs) = best_of(reps, || {
        run_trace(&durations, &policy, &config, &mut NoopObserver)
    });

    eprintln!("timing step-driven executor ({segments} segments, best of {reps}) ...");
    let (step, step_secs) = best_of(reps, || step_drive_trace(&durations, &policy, &config));

    let closed_queries = count_queries(&policy, |p| {
        run_trace(&durations, p, &config, &mut NoopObserver);
    });
    let step_queries = count_queries(&policy, |p| {
        step_drive_trace(&durations, p, &config);
    });

    let counts_identical = step.recoveries == closed.recoveries
        && step.recoveries_completed == closed.recoveries_completed
        && step.checkpoints_attempted == closed.checkpoints_attempted
        && step.checkpoints_committed == closed.checkpoints_committed
        && step.failures == closed.failures;
    let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(y.abs()).max(1.0);
    let dev_useful = rel(step.useful_seconds, closed.useful_seconds);
    let dev_mb = rel(step.megabytes, closed.megabytes);
    let dev_total = rel(step.total_seconds, closed.total_seconds);

    let report = CycleBenchReport {
        segments,
        seed: args.seed,
        checkpoint_cost: CHECKPOINT_COST,
        repetitions: reps,
        closed_form: PathReport {
            seconds: closed_secs,
            segments_per_second: segments as f64 / closed_secs.max(1e-12),
            policy_queries: closed_queries,
        },
        step_driven: PathReport {
            seconds: step_secs,
            segments_per_second: segments as f64 / step_secs.max(1e-12),
            policy_queries: step_queries,
        },
        step_overhead: step_secs / closed_secs.max(1e-12),
        max_rel_dev_useful_seconds: dev_useful,
        max_rel_dev_megabytes: dev_mb,
        max_rel_dev_total_seconds: dev_total,
        counts_identical,
    };

    println!("\ncycle-engine benchmark ({segments} segments, C = {CHECKPOINT_COST} s)");
    let printer = TablePrinter::new(vec![12, 10, 12, 10]);
    printer.row(&[
        "executor".into(),
        "secs".into(),
        "seg/s".into(),
        "queries".into(),
    ]);
    printer.rule();
    for (name, p) in [
        ("closed-form", &report.closed_form),
        ("step-driven", &report.step_driven),
    ] {
        printer.row(&[
            name.into(),
            format!("{:.4}", p.seconds),
            format!("{:.0}", p.segments_per_second),
            format!("{}", p.policy_queries),
        ]);
    }
    printer.rule();
    println!("stepping overhead: {:.2}x", report.step_overhead);

    let mut gates = Gates::new();
    gates.check(
        "counts_identical",
        counts_identical,
        format!(
            "committed {} vs {}, failures {} vs {}",
            step.checkpoints_committed,
            closed.checkpoints_committed,
            step.failures,
            closed.failures
        ),
    );
    gates.check(
        "ledger_identity",
        dev_useful <= 1e-9 && dev_mb <= 1e-9 && dev_total <= 1e-9,
        format!(
            "useful {dev_useful:.3e}, megabytes {dev_mb:.3e}, total {dev_total:.3e}, bound 1e-9"
        ),
    );
    finish(&json_path, &report, &gates);
}
