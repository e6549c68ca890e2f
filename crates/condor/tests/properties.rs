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

/// Decode one drawn word into an event line and the quantities it
/// carries: mostly ordinary values, and one time in eight an extreme a
/// corrupt or hostile log can carry — the largest finite values,
/// negatives, or ±∞, spelled `1e999` (which parses as ∞).
fn hostile_line(word: u64) -> (String, Vec<f64>) {
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
    let mut line = EVENT_LINES[(word % 10) as usize].to_string();
    let mut quantities = Vec::new();
    for i in 0..line.matches('$').count() {
        let bits = (word >> (4 + 20 * i)) & 0xF_FFFF;
        let v = if bits & 31 < 28 {
            (bits >> 5) as f64 * 1.5
        } else {
            EXTREMES[((bits >> 5) % 8) as usize]
        };
        let text = match v {
            f64::INFINITY => "1e999".to_string(),
            f64::NEG_INFINITY => "-1e999".to_string(),
            _ => format!("{v:e}"),
        };
        line = line.replace(&format!("${i}"), &text);
        quantities.push(v);
    }
    (line, quantities)
}

/// Whether a line of kind `word % 10` with (valid) `quantities` keeps the
/// committed work inside the log's one placement: `placed` and `evicted`
/// are the times seen so far, `committed` the running commit sum.
fn fits_placement(
    word: u64,
    quantities: &[f64],
    placed: &mut Option<f64>,
    evicted: &mut Option<f64>,
    committed: &mut f64,
) -> bool {
    let at = quantities[0];
    let within = |p: f64, end: f64, committed: f64| committed <= (end - p).max(0.0);
    match word % 10 {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `read_jsonl` accepts a log exactly when every quantity in it is
    /// finite and non-negative and its committed work fits inside its one
    /// placement, names the offending line otherwise, and the digest of
    /// every accepted log is free of NaN with an efficiency of at most 1.
    #[test]
    fn hostile_logs_are_rejected_or_digest_cleanly(
        words in prop::collection::vec(0u64..u64::MAX, 0..12),
    ) {
        let mut text = String::new();
        let mut first_bad = None;
        let (mut placed, mut evicted, mut committed) = (None, None, 0.0);
        for (i, &word) in words.iter().enumerate() {
            let (line, quantities) = hostile_line(word);
            if first_bad.is_none()
                && (quantities.iter().any(|v| !(v.is_finite() && *v >= 0.0))
                    || !fits_placement(word, &quantities, &mut placed, &mut evicted, &mut committed))
            {
                first_bad = Some(i + 1);
            }
            text += &line;
            text.push('\n');
        }
        match (ProcessLog::read_jsonl(text.as_bytes()), first_bad) {
            (Ok(log), None) => {
                prop_assert_eq!(log.events.len(), words.len());
                let d = log.digest();
                for v in [d.useful_seconds, d.occupied_seconds, d.megabytes, d.overhead_ratio, d.efficiency] {
                    prop_assert!(!v.is_nan() && v >= 0.0, "digest {:?}", d);
                }
                prop_assert!(d.efficiency <= 1.0, "digest {:?}", d);
            }
            (Err(e), Some(line)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                prop_assert!(e.to_string().starts_with(&format!("line {line}: ")), "{}", e);
            }
            (got, want) => {
                let got = got.map(|log| log.events.len());
                prop_assert!(false, "read {:?}, first bad line {:?}", got, want);
            }
        }
    }
}
