//! The closed-form executor plans only at ages it can reach: every
//! availability segment opens with a recovery of `R` seconds, so no
//! `next_interval` call sees an age below `R`. Policy tables rely on
//! this to fill only the ages at or above the recovery cost.

use chs_cycle::{run_trace, CycleConfig, NoopObserver, SchedulePolicy};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};

/// Cycles through a fixed list of planned intervals (degenerate ones
/// included) and records every age it is asked about.
struct Recording {
    intervals: Vec<f64>,
    next: Cell<usize>,
    ages: RefCell<Vec<f64>>,
}

impl SchedulePolicy for Recording {
    fn next_interval(&self, age: f64) -> f64 {
        self.ages.borrow_mut().push(age);
        let i = self.next.get();
        self.next.set(i + 1);
        self.intervals[i % self.intervals.len()]
    }
    fn label(&self) -> String {
        "recording".into()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn never_plans_below_the_recovery_cost(
        durations in prop::collection::vec(1e-3f64..200_000.0, 1..40),
        checkpoint in -200.0f64..2_000.0,
        recovery in -200.0f64..2_000.0,
        count_recovery_bytes in 0u8..2,
        planned in prop::collection::vec(-100.0f64..50_000.0, 1..8),
        nan_slot in 0usize..16,
    ) {
        // About one cost in eleven lands exactly on zero.
        let (checkpoint, recovery) = (checkpoint.max(0.0), recovery.max(0.0));
        // Degenerate plans (zero, negative, NaN) go through the guard too.
        let mut intervals = planned;
        if let Some(t) = intervals.get_mut(nan_slot) {
            *t = f64::NAN;
        }
        let config = CycleConfig {
            checkpoint_cost: checkpoint,
            recovery_cost: recovery,
            image_mb: 500.0,
            count_recovery_bytes: count_recovery_bytes == 1,
        };
        let policy = Recording {
            intervals,
            next: Cell::new(0),
            ages: RefCell::new(Vec::new()),
        };
        let r = run_trace(&durations, &policy, &config, &mut NoopObserver);
        let ages = policy.ages.into_inner();
        // Every segment long enough to finish its recovery plans at
        // least once, and its first plan is exactly at age R.
        let reached = durations.iter().filter(|&&a| a >= recovery).count();
        prop_assert_eq!(r.recoveries_completed as usize, reached);
        prop_assert!(ages.len() >= reached);
        prop_assert_eq!(ages.iter().filter(|&&age| age == recovery).count(), reached);
        for &age in &ages {
            prop_assert!(age >= recovery, "planned at age {} below R = {}", age, recovery);
        }
    }
}
