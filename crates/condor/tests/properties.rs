//! Property-based tests for the Condor emulation and its log reader.

use chs_condor::{run_experiment, ExperimentConfig, ExperimentResult, ProcessLog, TransferKind};
use chs_net::FaultPlan;
use proptest::prelude::*;

fn config(seed: u64, machines: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::campus();
    c.machines = machines.max(2);
    c.streams = 1;
    c.window = 0.25 * 86_400.0;
    c.seed = seed;
    c
}

fn live(config: &ExperimentConfig) -> ExperimentResult {
    run_experiment(config, &FaultPlan::none()).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every run of every experiment satisfies the structural invariants,
    /// whatever the seed and pool size.
    #[test]
    fn run_invariants(seed in 0u64..5_000, machines in 2usize..12) {
        let result = live(&config(seed, machines));
        for r in &result.runs {
            prop_assert!(r.evicted_at > r.placed_at);
            prop_assert!(r.age_at_placement >= 0.0);
            prop_assert!(r.useful_seconds() >= 0.0);
            prop_assert!(r.useful_seconds() <= r.occupied_seconds() + 1e-9);
            // The shared ledger balances its books on every run.
            prop_assert!(r.cycle.conservation_residual().abs() < 1e-6);
            prop_assert_eq!(r.cycle.transfers_started(), r.transfers.len() as u64);
            // First transfer is always the recovery; committed work needs
            // a committed checkpoint.
            if let Some(first) = r.transfers.first() {
                prop_assert!(first.kind == TransferKind::Recovery);
            }
            if r.useful_seconds() > 0.0 {
                prop_assert!(r.checkpoints_committed() > 0);
            }
            // At most one interrupted transfer per run, and only at the end.
            let interrupted = r.transfers.iter().filter(|t| !t.completed).count();
            prop_assert!(interrupted <= 1);
            if interrupted == 1 {
                prop_assert!(!r.transfers.last().unwrap().completed);
            }
            // Planned intervals are positive and finite.
            for &t in &r.t_opts {
                prop_assert!(t.is_finite() && t > 0.0);
            }
        }
        // Summaries cover exactly the paper's four models.
        prop_assert_eq!(result.summaries.len(), 4);
        let total_runs: usize = result.summaries.iter().map(|s| s.sample_size).sum();
        prop_assert_eq!(total_runs, result.runs.len());
    }

    /// The post-facto digest of the live-recorded log reproduces every
    /// run's metrics for any seed (not just the fixed one in the unit
    /// tests).
    #[test]
    fn log_digest_faithful(seed in 0u64..5_000) {
        let result = live(&config(seed, 6));
        prop_assert_eq!(result.logs.len(), result.runs.len());
        for (r, log) in result.runs.iter().zip(&result.logs) {
            let d = log.digest();
            prop_assert!((d.useful_seconds - r.useful_seconds()).abs() < 1e-6);
            prop_assert!((d.megabytes - r.megabytes()).abs() < 1e-6);
            prop_assert_eq!(d.checkpoints_committed, r.checkpoints_committed());
        }
    }

    /// Runs never overlap on the same machine within a stream.
    #[test]
    fn no_machine_double_booking(seed in 0u64..5_000) {
        let result = live(&config(seed, 4));
        use std::collections::HashMap;
        // Group per (model, machine): within one model's stream, runs on
        // the same machine must be disjoint in time.
        let mut by_key: HashMap<(u32, &'static str), Vec<(f64, f64)>> = HashMap::new();
        for r in &result.runs {
            let label: &'static str = match r.model {
                chs_dist::ModelKind::Exponential => "e",
                chs_dist::ModelKind::Weibull => "w",
                chs_dist::ModelKind::HyperExponential { phases: 2 } => "2",
                _ => "3",
            };
            by_key
                .entry((r.machine.0, label))
                .or_default()
                .push((r.placed_at, r.evicted_at));
        }
        for intervals in by_key.values_mut() {
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in intervals.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1 - 1e-9,
                    "overlapping runs: {:?}",
                    w
                );
            }
        }
    }
}

/// One JSONL line per event variant; `$0`..`$2` are its quantities.
const EVENT_LINES: [&str; 10] = [
    r#"{"Placed":{"at":$0,"machine":3,"age":$1}}"#,
    r#"{"TransferStarted":{"at":$0,"kind":"Checkpoint"}}"#,
    r#"{"TransferCompleted":{"at":$0,"seconds":$1,"megabytes":$2}}"#,
    r#"{"TransferInterrupted":{"at":$0,"elapsed":$1,"megabytes":$2}}"#,
    r#"{"IntervalPlanned":{"at":$0,"t_opt":$1}}"#,
    r#"{"WorkCommitted":{"at":$0,"seconds":$1}}"#,
    r#"{"TransferFaulted":{"at":$0,"kind":"Recovery","fault":"Drop","elapsed":$1,"wasted_mb":$2}}"#,
    r#"{"RetryScheduled":{"at":$0,"attempt":1,"backoff_seconds":$1}}"#,
    r#"{"CheckpointAbandoned":{"at":$0,"lost_work":$1,"wasted_mb":$2}}"#,
    r#"{"Evicted":{"at":$0,"heartbeats":7}}"#,
];

/// The JSONL line of kind `kind` carrying `quantities`; ±∞ are spelled
/// `±1e999` (which parse as ±∞).
fn event_line(kind: u64, quantities: &[f64]) -> String {
    let mut line = EVENT_LINES[kind as usize].to_string();
    for (i, &v) in quantities.iter().enumerate() {
        let text = match v {
            f64::INFINITY => "1e999".to_string(),
            f64::NEG_INFINITY => "-1e999".to_string(),
            _ => format!("{v:e}"),
        };
        line = line.replace(&format!("${i}"), &text);
    }
    line
}

/// Decode one drawn word into an event kind and the quantities it
/// carries: mostly ordinary values, and one time in eight an extreme a
/// corrupt or hostile log can carry — the largest finite values,
/// negatives, or ±∞.
fn hostile_event(word: u64) -> (u64, Vec<f64>) {
    const EXTREMES: [f64; 8] = [
        0.0,
        -0.0,
        1e308,
        f64::MAX,
        -1.0,
        -1e308,
        f64::INFINITY,
        -f64::INFINITY,
    ];
    let kind = word % 10;
    let quantities = (0..EVENT_LINES[kind as usize].matches('$').count())
        .map(|i| {
            let bits = (word >> (4 + 20 * i)) & 0xF_FFFF;
            if bits & 31 < 28 {
                (bits >> 5) as f64 * 1.5
            } else {
                EXTREMES[((bits >> 5) % 8) as usize]
            }
        })
        .collect();
    (kind, quantities)
}

/// A log drawn to reach the placement check: a `Placed` at `p`, then
/// events at non-decreasing times — commits whose seconds mostly fit
/// the time elapsed since `p` (one in eight overshoots), other kinds in
/// between — and a closing `Evicted` that, one time in two, comes before
/// the committed seconds fit; one time in four a last commit follows it.
fn placed_log(word: u64, steps: &[u64]) -> Vec<(u64, Vec<f64>)> {
    let fraction = |bits: u64| (bits & 0xFF) as f64 / 256.0;
    let p = (word & 0xFFF) as f64;
    let (mut t, mut committed) = (p, 0.0);
    let mut log = vec![(0, vec![p, 0.0])];
    for &s in steps {
        t += (s & 0xFF) as f64 * 0.5;
        let kind = [5, 5, 5, 1, 2, 3, 4, 6, 7, 8][((s >> 8) % 10) as usize];
        let seconds = if kind != 5 {
            fraction(s >> 16) * 10.0
        } else if (s >> 12).is_multiple_of(8) {
            t - p - committed + 1.0
        } else {
            (t - p - committed) * fraction(s >> 16)
        };
        if kind == 5 {
            committed += seconds;
        }
        log.push((kind, vec![t, seconds, seconds]));
    }
    let evicted = if (word >> 12).is_multiple_of(2) {
        t + fraction(word >> 16) * 100.0
    } else {
        p + committed * fraction(word >> 16)
    };
    log.push((9, vec![evicted]));
    if (word >> 24).is_multiple_of(4) {
        log.push((5, vec![evicted + 1.0, fraction(word >> 32)]));
    }
    for (kind, quantities) in &mut log {
        quantities.truncate(EVENT_LINES[*kind as usize].matches('$').count());
    }
    log
}

/// Whether a line of kind `kind` with (valid) `quantities` keeps the
/// committed work inside the log's one placement: `placed` and `evicted`
/// are the times seen so far, `committed` the running commit sum.
fn fits_placement(
    kind: u64,
    quantities: &[f64],
    placed: &mut Option<f64>,
    evicted: &mut Option<f64>,
    committed: &mut f64,
) -> bool {
    let at = quantities[0];
    let within = |p: f64, end: f64, committed: f64| committed <= (end - p).max(0.0);
    match kind {
        0 if placed.is_some() => false,
        0 => {
            *placed = Some(at);
            true
        }
        5 => {
            *committed += quantities[1];
            placed.is_some_and(|p| within(p, evicted.map_or(at, |e| e.min(at)), *committed))
        }
        9 => {
            let ok = placed.is_none_or(|p| within(p, at, *committed));
            *evicted = Some(at);
            ok
        }
        _ => true,
    }
}

/// `read_jsonl` accepts the log of `events` exactly when every quantity
/// in it is finite and non-negative and its committed work fits inside
/// its one placement, names the offending line otherwise, and the digest
/// of every accepted log is free of NaN with an efficiency of at most 1.
fn check_log(events: &[(u64, Vec<f64>)]) -> Result<(), TestCaseError> {
    let mut text = String::new();
    let mut first_bad = None;
    let (mut placed, mut evicted, mut committed) = (None, None, 0.0);
    for (i, (kind, quantities)) in events.iter().enumerate() {
        if first_bad.is_none()
            && (quantities.iter().any(|v| !(v.is_finite() && *v >= 0.0))
                || !fits_placement(*kind, quantities, &mut placed, &mut evicted, &mut committed))
        {
            first_bad = Some(i + 1);
        }
        text += &event_line(*kind, quantities);
        text.push('\n');
    }
    match (ProcessLog::read_jsonl(text.as_bytes()), first_bad) {
        (Ok(log), None) => {
            prop_assert_eq!(log.events.len(), events.len());
            let d = log.digest();
            for v in [
                d.useful_seconds,
                d.occupied_seconds,
                d.megabytes,
                d.overhead_ratio,
                d.efficiency,
            ] {
                prop_assert!(!v.is_nan() && v >= 0.0, "digest {:?}", d);
            }
            prop_assert!(d.efficiency <= 1.0, "digest {:?}", d);
        }
        (Err(e), Some(line)) => {
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            prop_assert!(
                e.to_string().starts_with(&format!("line {line}: ")),
                "{}",
                e
            );
        }
        (got, want) => {
            let got = got.map(|log| log.events.len());
            prop_assert!(false, "read {:?}, first bad line {:?}", got, want);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Uniformly drawn lines, hostile quantities included (see
    /// [`check_log`]).
    #[test]
    fn hostile_logs_are_rejected_or_digest_cleanly(
        words in prop::collection::vec(0u64..u64::MAX, 0..12),
    ) {
        let events: Vec<_> = words.iter().map(|&w| hostile_event(w)).collect();
        check_log(&events)?;
    }

    /// Logs that open with a `Placed` and keep their times in order, so
    /// commits mostly fit and early evictions reach the placement check
    /// (see [`check_log`]).
    #[test]
    fn placed_logs_are_rejected_or_digest_cleanly(
        word in 0u64..u64::MAX,
        steps in prop::collection::vec(0u64..u64::MAX, 0..10),
    ) {
        check_log(&placed_log(word, &steps))?;
    }
}
