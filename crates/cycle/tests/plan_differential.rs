//! Differential suite for the plan walk: [`run_trace`] plans a trace's
//! schedule once and walks every availability segment along it, where
//! the frozen per-segment executor (`frozen/closed_form.rs`) re-plans
//! from age R at every step. For any policy that is a pure function of
//! the age the two must agree bitwise — every [`CycleAccounting`] field
//! and every observer event — while the plan walk asks the policy at most
//! once per plan step (plus once per step past [`MAX_PLAN_STEPS`]).

use chs_cycle::{
    run_trace, CycleAccounting, CycleConfig, CycleObserver, SchedulePolicy, TransferDirection,
    MAX_PLAN_STEPS,
};
use proptest::prelude::*;
use std::cell::Cell;

// The per-segment executor as it stood before the plan walk, verbatim.
#[path = "frozen/closed_form.rs"]
mod frozen;

/// A pure function of the age, piecewise over pseudo-random slots: the
/// age's bits pick one of `values`, degenerate ones (0, negative, NaN)
/// included. Counts its queries.
struct Pure {
    values: Vec<f64>,
    queries: Cell<usize>,
}

impl Pure {
    fn new(values: Vec<f64>) -> Self {
        Pure {
            values,
            queries: Cell::new(0),
        }
    }
}

impl SchedulePolicy for Pure {
    fn next_interval(&self, age: f64) -> f64 {
        self.queries.set(self.queries.get() + 1);
        let mut h = age.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.values[(h % self.values.len() as u64) as usize]
    }
    fn label(&self) -> String {
        "pure".into()
    }
}

/// One observer event with its floating-point arguments as bits, so
/// equality is bitwise.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Placed(u64),
    TransferStarted(u64, TransferDirection),
    TransferCompleted(u64, TransferDirection, u64, u64),
    TransferInterrupted(u64, TransferDirection, u64, u64),
    IntervalPlanned(u64, u64),
    WorkCommitted(u64, u64),
    Evicted(u64),
}

#[derive(Default)]
struct Recorder(Vec<Event>);

impl CycleObserver for Recorder {
    fn on_placed(&mut self, expected_duration: f64) {
        self.0.push(Event::Placed(expected_duration.to_bits()));
    }
    fn on_transfer_started(&mut self, at: f64, direction: TransferDirection) {
        self.0.push(Event::TransferStarted(at.to_bits(), direction));
    }
    fn on_transfer_completed(
        &mut self,
        at: f64,
        direction: TransferDirection,
        elapsed: f64,
        megabytes: f64,
    ) {
        self.0.push(Event::TransferCompleted(
            at.to_bits(),
            direction,
            elapsed.to_bits(),
            megabytes.to_bits(),
        ));
    }
    fn on_transfer_interrupted(
        &mut self,
        at: f64,
        direction: TransferDirection,
        elapsed: f64,
        megabytes: f64,
    ) {
        self.0.push(Event::TransferInterrupted(
            at.to_bits(),
            direction,
            elapsed.to_bits(),
            megabytes.to_bits(),
        ));
    }
    fn on_interval_planned(&mut self, at: f64, planned_work: f64) {
        self.0
            .push(Event::IntervalPlanned(at.to_bits(), planned_work.to_bits()));
    }
    fn on_work_committed(&mut self, at: f64, seconds: f64) {
        self.0
            .push(Event::WorkCommitted(at.to_bits(), seconds.to_bits()));
    }
    fn on_evicted(&mut self, at: f64) {
        self.0.push(Event::Evicted(at.to_bits()));
    }
}

/// Every ledger field as bits. The exhaustive destructuring makes a new
/// field a compile error here until it is compared too.
fn ledger_bits(r: &CycleAccounting) -> Vec<u64> {
    let CycleAccounting {
        useful_seconds,
        lost_seconds,
        recovery_seconds,
        checkpoint_seconds,
        total_seconds,
        megabytes,
        checkpoints_committed,
        checkpoints_attempted,
        recoveries,
        failures,
        recoveries_completed,
        full_megabytes,
        partial_megabytes,
        lost_work_seconds,
        partial_recovery_seconds,
        wasted_megabytes,
        transfer_retries,
        faults_injected,
        checkpoints_abandoned,
    } = *r;
    vec![
        useful_seconds.to_bits(),
        lost_seconds.to_bits(),
        recovery_seconds.to_bits(),
        checkpoint_seconds.to_bits(),
        total_seconds.to_bits(),
        megabytes.to_bits(),
        checkpoints_committed,
        checkpoints_attempted,
        recoveries,
        failures,
        recoveries_completed,
        full_megabytes.to_bits(),
        partial_megabytes.to_bits(),
        lost_work_seconds.to_bits(),
        partial_recovery_seconds.to_bits(),
        wasted_megabytes.to_bits(),
        transfer_retries,
        faults_injected,
        checkpoints_abandoned,
    ]
}

/// Work intervals planned in each segment, from an event stream.
fn steps_per_segment(events: &[Event]) -> Vec<usize> {
    let mut steps = Vec::new();
    for e in events {
        match e {
            Event::Placed(_) => steps.push(0),
            Event::IntervalPlanned(..) => *steps.last_mut().expect("placed first") += 1,
            _ => {}
        }
    }
    steps
}

/// Run both executors over the same trace and check they agree bitwise,
/// and that the plan walk asked the policy exactly once per plan step
/// plus once per step past the cap. Returns the longest segment walk.
fn check(
    durations: &[f64],
    values: Vec<f64>,
    config: &CycleConfig,
) -> Result<usize, TestCaseError> {
    let oracle_policy = Pure::new(values.clone());
    let mut oracle_events = Recorder::default();
    let expect = frozen::run_trace(durations, &oracle_policy, config, &mut oracle_events);

    let policy = Pure::new(values);
    let mut events = Recorder::default();
    // Through `&mut dyn`, as trait-object callers do.
    let got = run_trace(
        durations,
        &policy,
        config,
        &mut events as &mut dyn CycleObserver,
    );

    prop_assert_eq!(ledger_bits(&got), ledger_bits(&expect));
    prop_assert!(events.0 == oracle_events.0, "observer event streams differ");

    // The oracle asks once per step.
    let steps = steps_per_segment(&oracle_events.0);
    prop_assert_eq!(oracle_policy.queries.get(), steps.iter().sum::<usize>());
    let longest = steps.iter().copied().max().unwrap_or(0);
    let past_cap: usize = steps
        .iter()
        .map(|&k| k.saturating_sub(MAX_PLAN_STEPS))
        .sum();
    prop_assert_eq!(
        policy.queries.get(),
        longest.min(MAX_PLAN_STEPS) + past_cap,
        "policy queries vs plan steps"
    );
    Ok(longest)
}

/// Planned intervals from drawn slots: slot 10 is 0, slot 11 negative,
/// slot 12 NaN, any other slot the regular value at its index (about one
/// in four is degenerate). The last interval is always regular, so no walk
/// is clamped to `MIN_WORK_SECONDS` at every step.
fn interval_values(slots: &[u8], regular: &[f64], negative: f64) -> Vec<f64> {
    let mut values: Vec<f64> = slots
        .iter()
        .enumerate()
        .map(|(i, &slot)| match slot {
            10 => 0.0,
            11 => negative,
            12 => f64::NAN,
            _ => regular[i],
        })
        .collect();
    values.push(regular[regular.len() - 1]);
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_walk_matches_the_per_segment_executor(
        long in prop::collection::vec(1e-3f64..200_000.0, 1..40),
        short in prop::collection::vec(1e-3f64..50.0, 0..8),
        slots in prop::collection::vec(0u8..13, 0..11),
        regular in prop::collection::vec(1.0f64..30_000.0, 12..13),
        negative in -100.0f64..0.0,
        checkpoint in -500.0f64..2_000.0,
        recovery in -500.0f64..2_000.0,
        image_mb in -2_000.0f64..5_000.0,
        count_recovery_bytes in 0u8..2,
    ) {
        // Segments shorter than R (and, when R = 0, ones of a few
        // milliseconds) spread through the trace.
        let mut durations = long;
        for (i, &a) in short.iter().enumerate() {
            let at = (i * 7) % (durations.len() + 1);
            durations.insert(at, a);
        }
        // About one cost in five, and one image in three, lands exactly
        // on zero.
        let config = CycleConfig {
            checkpoint_cost: checkpoint.max(0.0),
            recovery_cost: recovery.max(0.0),
            image_mb: image_mb.max(0.0),
            count_recovery_bytes: count_recovery_bytes == 1,
        };
        check(&durations, interval_values(&slots, &regular, negative), &config)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plan_walk_matches_past_the_plan_cap(
        extra_steps in prop::collection::vec(0usize..600, 1..4),
        short in prop::collection::vec(1e-3f64..400.0, 0..6),
        slots in prop::collection::vec(0u8..13, 0..11),
        regular in prop::collection::vec(0.25f64..1.0, 12..13),
        negative in -100.0f64..0.0,
        checkpoint in -0.25f64..0.5,
        recovery in -2.0f64..5.0,
        count_recovery_bytes in 0u8..2,
    ) {
        let config = CycleConfig {
            checkpoint_cost: checkpoint.max(0.0),
            recovery_cost: recovery.max(0.0),
            image_mb: 500.0,
            count_recovery_bytes: count_recovery_bytes == 1,
        };
        // Every step takes at most 1 + C seconds, so a segment this long
        // walks more than `MAX_PLAN_STEPS + extra` steps. Short segments
        // before and after re-read the plan from its start.
        let mut durations = short.clone();
        for extra in &extra_steps {
            let steps = (MAX_PLAN_STEPS + extra) as f64;
            durations.push(config.recovery_cost + steps * (1.0 + config.checkpoint_cost) + 0.5);
        }
        durations.extend(short);
        let values = interval_values(&slots, &regular, negative);
        let longest = check(&durations, values, &config)?;
        prop_assert!(longest > MAX_PLAN_STEPS);
    }
}
