//! Per-process event logs — "The manager keeps a log file for each test
//! process from which the overhead ratio can be calculated *post facto*"
//! (§5.2).
//!
//! A [`ProcessLog`] is the raw, append-only record of everything the
//! manager saw for one run: placement, every transfer start/completion/
//! interruption, every `T_opt` the process reported, per-interval work
//! commits, the heartbeat count, and the eviction. Logs are written
//! **live** by a [`LogRecorder`] — a `chs_cycle::CycleObserver` attached
//! to the run's cycle machine — so every `WorkCommitted` event carries
//! the actual seconds that interval committed (the old post-hoc
//! reconstruction had to smear the committed total evenly over the
//! checkpoints because the per-interval amounts were gone by then).
//!
//! [`ProcessLog::digest`] recomputes the run's summary metrics *only*
//! from the events, and tests assert the digest agrees with the live
//! [`RunRecord`] ledger — i.e., the post-facto analysis pipeline
//! reproduces the online accounting, exactly the property the paper's
//! methodology relies on.
//!
//! Logs serialize as JSON Lines (one event per line) so campaigns can be
//! streamed to disk and replayed later.

use crate::manager::TransferKind;
use chs_cycle::{CycleObserver, TransferDirection, TransferFaultKind};
use chs_trace::MachineId;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

#[cfg(doc)]
use crate::manager::RunRecord;

/// One event in a test-process log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogEvent {
    /// The negotiator placed the process.
    Placed {
        /// Virtual time of placement.
        at: f64,
        /// Machine it landed on.
        machine: MachineId,
        /// Machine age (`T_elapsed`) at placement.
        age: f64,
    },
    /// A transfer started.
    TransferStarted {
        /// Virtual time.
        at: f64,
        /// Recovery (manager → process) or checkpoint (process → manager).
        kind: TransferKind,
    },
    /// A transfer finished.
    TransferCompleted {
        /// Virtual time of completion.
        at: f64,
        /// Measured duration, seconds.
        seconds: f64,
        /// Megabytes delivered.
        megabytes: f64,
    },
    /// A transfer was cut off by eviction.
    TransferInterrupted {
        /// Virtual time of the eviction.
        at: f64,
        /// Seconds the transfer ran before dying.
        elapsed: f64,
        /// Partial megabytes that crossed the network.
        megabytes: f64,
    },
    /// The process reported the `T_opt` it computed for its next interval.
    IntervalPlanned {
        /// Virtual time of the report.
        at: f64,
        /// The planned work interval, seconds.
        t_opt: f64,
    },
    /// A work interval's checkpoint committed, crediting the work.
    WorkCommitted {
        /// Virtual time.
        at: f64,
        /// Work seconds credited.
        seconds: f64,
    },
    /// An in-flight transfer attempt faulted (stall timeout, drop,
    /// checksum mismatch at commit, or manager unavailability).
    TransferFaulted {
        /// Virtual time the manager detected the fault.
        at: f64,
        /// Recovery or checkpoint.
        kind: TransferKind,
        /// What went wrong.
        fault: TransferFaultKind,
        /// Seconds the phase had been running (attempts + backoff).
        elapsed: f64,
        /// Megabytes that crossed the wire but must be re-sent (0 for
        /// resumable drops/stalls).
        wasted_mb: f64,
    },
    /// The manager scheduled a retry after a backoff wait.
    RetryScheduled {
        /// Virtual time the retry was scheduled.
        at: f64,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Seconds waited before the retry starts.
        backoff_seconds: f64,
    },
    /// The manager exhausted its retry budget and fell back to the last
    /// verified checkpoint.
    CheckpointAbandoned {
        /// Virtual time of the abandonment.
        at: f64,
        /// Work seconds lost with the abandoned interval.
        lost_work: f64,
        /// Megabytes that crossed the wire for nothing.
        wasted_mb: f64,
    },
    /// The owner reclaimed the machine; the trace of heartbeats ends.
    Evicted {
        /// Virtual time of eviction.
        at: f64,
        /// Total heartbeats the manager received.
        heartbeats: u64,
    },
}

/// The manager's log for one test process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessLog {
    /// Events in chronological order.
    pub events: Vec<LogEvent>,
}

/// Post-facto digest computed from a log alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogDigest {
    /// Committed work seconds.
    pub useful_seconds: f64,
    /// Placement-to-eviction occupancy.
    pub occupied_seconds: f64,
    /// Total megabytes moved.
    pub megabytes: f64,
    /// Committed checkpoints.
    pub checkpoints_committed: u64,
    /// Overhead ratio `occupied/useful` (∞ when no work committed).
    pub overhead_ratio: f64,
    /// Efficiency `useful/occupied`.
    pub efficiency: f64,
}

/// A [`CycleObserver`] that writes the manager's per-process log live,
/// as the run's cycle machine emits events.
///
/// The machine reports machine-local timestamps (seconds since
/// placement); the recorder offsets them by the placement time so the
/// log is in absolute virtual time like every other manager record.
#[derive(Debug, Clone)]
pub struct LogRecorder {
    placed_at: f64,
    events: Vec<LogEvent>,
}

impl LogRecorder {
    /// Open a log for a process placed at absolute virtual time
    /// `placed_at` on `machine`, whose machine age was `age`.
    pub fn new(placed_at: f64, machine: MachineId, age: f64) -> Self {
        Self {
            placed_at,
            events: vec![LogEvent::Placed {
                at: placed_at,
                machine,
                age,
            }],
        }
    }

    /// Close the log with the eviction event and hand it over. The
    /// eviction time is passed absolutely (the negotiator's exact
    /// timestamp) rather than reconstructed from the machine clock.
    pub fn finish(mut self, evicted_at: f64, heartbeats: u64) -> ProcessLog {
        self.events.push(LogEvent::Evicted {
            at: evicted_at,
            heartbeats,
        });
        ProcessLog {
            events: self.events,
        }
    }

    fn abs(&self, at: f64) -> f64 {
        self.placed_at + at
    }
}

fn kind_of(direction: TransferDirection) -> TransferKind {
    match direction {
        TransferDirection::Inbound => TransferKind::Recovery,
        TransferDirection::Outbound => TransferKind::Checkpoint,
    }
}

impl CycleObserver for LogRecorder {
    // `on_placed` is intentionally ignored: the Placed event needs the
    // machine id and age, which only the driver knows, so `new` wrote it.

    fn on_transfer_started(&mut self, at: f64, direction: TransferDirection) {
        self.events.push(LogEvent::TransferStarted {
            at: self.abs(at),
            kind: kind_of(direction),
        });
    }

    fn on_transfer_completed(
        &mut self,
        at: f64,
        _direction: TransferDirection,
        elapsed: f64,
        megabytes: f64,
    ) {
        self.events.push(LogEvent::TransferCompleted {
            at: self.abs(at),
            seconds: elapsed,
            megabytes,
        });
    }

    fn on_transfer_interrupted(
        &mut self,
        at: f64,
        _direction: TransferDirection,
        elapsed: f64,
        megabytes: f64,
    ) {
        self.events.push(LogEvent::TransferInterrupted {
            at: self.abs(at),
            elapsed,
            megabytes,
        });
    }

    fn on_interval_planned(&mut self, at: f64, planned_work: f64) {
        self.events.push(LogEvent::IntervalPlanned {
            at: self.abs(at),
            t_opt: planned_work,
        });
    }

    fn on_work_committed(&mut self, at: f64, seconds: f64) {
        self.events.push(LogEvent::WorkCommitted {
            at: self.abs(at),
            seconds,
        });
    }

    fn on_transfer_faulted(
        &mut self,
        at: f64,
        direction: TransferDirection,
        kind: TransferFaultKind,
        elapsed: f64,
        wasted_mb: f64,
    ) {
        self.events.push(LogEvent::TransferFaulted {
            at: self.abs(at),
            kind: kind_of(direction),
            fault: kind,
            elapsed,
            wasted_mb,
        });
    }

    fn on_retry_scheduled(&mut self, at: f64, attempt: u32, backoff_seconds: f64) {
        self.events.push(LogEvent::RetryScheduled {
            at: self.abs(at),
            attempt,
            backoff_seconds,
        });
    }

    fn on_checkpoint_abandoned(&mut self, at: f64, lost_work: f64, wasted_mb: f64) {
        self.events.push(LogEvent::CheckpointAbandoned {
            at: self.abs(at),
            lost_work,
            wasted_mb,
        });
    }

    // `on_evicted` is ignored too: `finish` pins the exact eviction time.
}

impl LogEvent {
    /// The first quantity of this event — a time, duration, size or age —
    /// that is negative or not finite, with its field name.
    fn invalid_quantity(&self) -> Option<(&'static str, f64)> {
        let quantities: &[(&'static str, f64)] = match *self {
            LogEvent::Placed { at, age, .. } => &[("at", at), ("age", age)],
            LogEvent::TransferStarted { at, .. } | LogEvent::Evicted { at, .. } => &[("at", at)],
            LogEvent::TransferCompleted {
                at,
                seconds,
                megabytes,
            } => &[("at", at), ("seconds", seconds), ("megabytes", megabytes)],
            LogEvent::TransferInterrupted {
                at,
                elapsed,
                megabytes,
            } => &[("at", at), ("elapsed", elapsed), ("megabytes", megabytes)],
            LogEvent::IntervalPlanned { at, t_opt } => &[("at", at), ("t_opt", t_opt)],
            LogEvent::WorkCommitted { at, seconds } => &[("at", at), ("seconds", seconds)],
            LogEvent::TransferFaulted {
                at,
                elapsed,
                wasted_mb,
                ..
            } => &[("at", at), ("elapsed", elapsed), ("wasted_mb", wasted_mb)],
            LogEvent::RetryScheduled {
                at,
                backoff_seconds,
                ..
            } => &[("at", at), ("backoff_seconds", backoff_seconds)],
            LogEvent::CheckpointAbandoned {
                at,
                lost_work,
                wasted_mb,
            } => &[
                ("at", at),
                ("lost_work", lost_work),
                ("wasted_mb", wasted_mb),
            ],
        };
        quantities
            .iter()
            .copied()
            .find(|&(_, v)| !(v.is_finite() && v >= 0.0))
    }
}

impl ProcessLog {
    /// Compute the run's metrics from the events alone. For any log
    /// whose quantities are finite and non-negative — every log
    /// [`ProcessLog::read_jsonl`] accepts — no field is NaN: sums that
    /// overflow saturate at ∞, and occupancy is the clamped difference
    /// of two finite times. The reader also holds the committed work
    /// inside the placement, so an accepted log's efficiency is at most 1.
    pub fn digest(&self) -> LogDigest {
        let mut placed_at = None;
        let mut evicted_at = None;
        let mut useful = 0.0;
        let mut megabytes = 0.0;
        let mut committed = 0u64;
        for e in &self.events {
            match e {
                LogEvent::Placed { at, .. } => placed_at = Some(*at),
                LogEvent::Evicted { at, .. } => evicted_at = Some(*at),
                LogEvent::TransferCompleted { megabytes: mb, .. } => megabytes += mb,
                LogEvent::TransferInterrupted { megabytes: mb, .. } => megabytes += mb,
                // Wasted payload still crossed the network: fold it in
                // event order so the digest matches the ledger bitwise.
                LogEvent::TransferFaulted { wasted_mb, .. } => megabytes += wasted_mb,
                LogEvent::CheckpointAbandoned { wasted_mb, .. } => megabytes += wasted_mb,
                LogEvent::WorkCommitted { seconds, .. } => {
                    useful += seconds;
                    committed += 1;
                }
                _ => {}
            }
        }
        let occupied = match (placed_at, evicted_at) {
            (Some(p), Some(e)) => (e - p).max(0.0),
            _ => 0.0,
        };
        LogDigest {
            useful_seconds: useful,
            occupied_seconds: occupied,
            megabytes,
            checkpoints_committed: committed,
            overhead_ratio: if useful > 0.0 {
                occupied / useful
            } else {
                f64::INFINITY
            },
            efficiency: if occupied > 0.0 {
                useful / occupied
            } else {
                0.0
            },
        }
    }

    /// Write as JSON Lines.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for e in &self.events {
            let line = serde_json::to_string(e)
                .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err))?;
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Read from JSON Lines. A malformed or truncated line, one with a
    /// negative or non-finite quantity (JSON's `1e999` parses as ∞), or
    /// one whose committed work no longer fits inside the log's placement
    /// (see `Placement`) produces an `InvalidData` error naming its
    /// 1-based line number, so a corrupt record in a streamed campaign log
    /// can be located (and the file repaired) instead of leaving only an
    /// anonymous parse failure, a NaN digest or an efficiency above 1.
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<Self> {
        let mut events = Vec::new();
        let mut placement = Placement::default();
        for (lineno, line) in r.lines().enumerate() {
            let line = line.map_err(|err| {
                std::io::Error::new(err.kind(), format!("line {}: {err}", lineno + 1))
            })?;
            if line.trim().is_empty() {
                continue;
            }
            let invalid = |msg: String| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {msg}", lineno + 1),
                )
            };
            let e: LogEvent =
                serde_json::from_str(&line).map_err(|err| invalid(err.to_string()))?;
            if let Some((field, v)) = e.invalid_quantity() {
                return Err(invalid(format!(
                    "`{field}` must be finite and non-negative, got {v}"
                )));
            }
            placement.admit(&e).map_err(invalid)?;
            events.push(e);
        }
        Ok(Self { events })
    }
}

/// What [`ProcessLog::read_jsonl`] has read so far of the one placement
/// a log records, to hold the committed work inside it.
///
/// [`ProcessLog::digest`] divides the committed seconds by the time from
/// the `Placed` to the last `Evicted`. The reader therefore rejects a
/// second `Placed`, a `WorkCommitted` before the `Placed`, and any
/// `WorkCommitted` or `Evicted` at which the cumulative committed seconds
/// exceed the time elapsed since the `Placed` — up to the commit itself,
/// or to the latest eviction if that came first. Elapsed time is clamped
/// at zero, as the digest's occupancy is. Every accepted log then digests
/// to `useful ≤ occupied`, so its efficiency is at most 1.
#[derive(Default)]
struct Placement {
    placed_at: Option<f64>,
    evicted_at: Option<f64>,
    committed: f64,
}

impl Placement {
    fn admit(&mut self, e: &LogEvent) -> Result<(), String> {
        match *e {
            LogEvent::Placed { .. } if self.placed_at.is_some() => {
                return Err("a second `Placed`: a log records one placement".into());
            }
            LogEvent::Placed { at, .. } => self.placed_at = Some(at),
            LogEvent::WorkCommitted { at, seconds } => {
                let Some(placed) = self.placed_at else {
                    return Err("`WorkCommitted` before the `Placed`".into());
                };
                self.committed += seconds;
                let end = self.evicted_at.map_or(at, |evicted| evicted.min(at));
                self.fits(placed, end)?;
            }
            LogEvent::Evicted { at, .. } => {
                if let Some(placed) = self.placed_at {
                    self.fits(placed, at)?;
                }
                self.evicted_at = Some(at);
            }
            _ => {}
        }
        Ok(())
    }

    fn fits(&self, placed: f64, end: f64) -> Result<(), String> {
        let elapsed = (end - placed).max(0.0);
        if self.committed > elapsed {
            return Err(format!(
                "{} s of committed work exceed the {elapsed} s elapsed since `Placed`",
                self.committed
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, ExperimentConfig, ExperimentResult};
    use chs_net::FaultPlan;

    fn small_experiment() -> ExperimentResult {
        let mut config = ExperimentConfig::campus();
        config.machines = 8;
        config.streams = 1;
        config.window = 0.5 * 86_400.0;
        run_experiment(&config, &FaultPlan::none()).unwrap().0
    }

    #[test]
    fn digest_matches_online_accounting() {
        // The paper's post-facto pipeline: for every run, the log digest
        // must reproduce the online ledger. Useful seconds and megabytes
        // fold the same event sequence the ledger folded, so they agree
        // bitwise, not just within a tolerance.
        let result = small_experiment();
        assert!(!result.runs.is_empty());
        assert_eq!(result.runs.len(), result.logs.len());
        for (run, log) in result.runs.iter().zip(&result.logs) {
            let d = log.digest();
            assert_eq!(
                d.useful_seconds.to_bits(),
                run.cycle.useful_seconds.to_bits(),
                "useful: {} vs {}",
                d.useful_seconds,
                run.cycle.useful_seconds
            );
            assert_eq!(
                d.megabytes.to_bits(),
                run.cycle.megabytes.to_bits(),
                "megabytes: {} vs {}",
                d.megabytes,
                run.cycle.megabytes
            );
            assert_eq!(d.occupied_seconds, run.occupied_seconds());
            assert_eq!(d.checkpoints_committed, run.checkpoints_committed());
            assert!((d.efficiency - run.efficiency()).abs() < 1e-12);
        }
    }

    #[test]
    fn work_commits_carry_their_planned_interval() {
        // Live recording restored the per-interval amounts: every
        // WorkCommitted credits exactly the T_opt planned for it.
        let result = small_experiment();
        let mut commits = 0;
        for log in &result.logs {
            let mut pending: Option<f64> = None;
            for e in &log.events {
                match e {
                    LogEvent::IntervalPlanned { t_opt, .. } => pending = Some(*t_opt),
                    LogEvent::WorkCommitted { seconds, .. } => {
                        assert_eq!(Some(*seconds), pending, "commit credits its plan");
                        commits += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(commits > 0, "experiment committed no work at all");
    }

    #[test]
    fn eviction_event_carries_heartbeats() {
        let result = small_experiment();
        for (run, log) in result.runs.iter().zip(&result.logs) {
            let Some(LogEvent::Evicted { at, heartbeats }) = log.events.last() else {
                panic!("log does not end with an eviction");
            };
            assert_eq!(*at, run.evicted_at);
            assert_eq!(*heartbeats, run.heartbeats);
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let result = small_experiment();
        let log = &result.logs[0];
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let back = ProcessLog::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(log, &back);
        assert_eq!(log.digest(), back.digest());
    }

    #[test]
    fn jsonl_skips_blank_lines_rejects_garbage() {
        let good = r#"{"Placed":{"at":1.0,"machine":3,"age":0.0}}

{"Evicted":{"at":5.0,"heartbeats":0}}"#;
        let log = ProcessLog::read_jsonl(good.as_bytes()).unwrap();
        assert_eq!(log.events.len(), 2);
        assert!(ProcessLog::read_jsonl("not json\n".as_bytes()).is_err());
    }

    #[test]
    fn jsonl_errors_carry_line_numbers() {
        // One good line, then a truncated record on line 3 (line 2 is
        // blank): the error must name line 3, not just "invalid data".
        let corrupt = "{\"Placed\":{\"at\":1.0,\"machine\":3,\"age\":0.0}}\n\n{\"WorkCommitted\":{\"at\":9.0,\n";
        let err = ProcessLog::read_jsonl(corrupt.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "no line number in error: {msg}");
    }

    #[test]
    fn jsonl_rejects_non_finite_and_negative_quantities() {
        // Accepted as-is, this log digests to NaN efficiency and NaN
        // overhead: a negative placement time and two huge commits make
        // both occupancy and useful work overflow to ∞.
        let hostile = [
            r#"{"Placed":{"at":-1e308,"machine":3,"age":0.0}}"#,
            r#"{"WorkCommitted":{"at":1.0,"seconds":1e308}}"#,
            r#"{"WorkCommitted":{"at":2.0,"seconds":1e308}}"#,
            r#"{"Evicted":{"at":1e308,"heartbeats":0}}"#,
        ]
        .join("\n");
        let err = ProcessLog::read_jsonl(hostile.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 1: `at`"), "{err}");

        for (line, field) in [
            (
                r#"{"TransferCompleted":{"at":5.0,"seconds":1.0,"megabytes":-500.0}}"#,
                "megabytes",
            ),
            (r#"{"WorkCommitted":{"at":1e999,"seconds":1.0}}"#, "at"),
            (r#"{"IntervalPlanned":{"at":0.0,"t_opt":-1e999}}"#, "t_opt"),
        ] {
            let text = format!("{}\n{line}\n", hostile.lines().last().unwrap());
            let msg = ProcessLog::read_jsonl(text.as_bytes())
                .unwrap_err()
                .to_string();
            assert!(msg.starts_with(&format!("line 2: `{field}`")), "{msg}");
        }

        // Finite quantities whose commits outgrow the placement are
        // rejected at the first commit that does not fit: 1e308 s
        // committed one second after placement.
        let huge = hostile.replacen("-1e308", "0.0", 1);
        let err = ProcessLog::read_jsonl(huge.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 2: "), "{err}");
    }

    #[test]
    fn jsonl_holds_committed_work_inside_the_placement() {
        let read = |lines: &[&str]| ProcessLog::read_jsonl(lines.join("\n").as_bytes());
        let placed = r#"{"Placed":{"at":100.0,"machine":3,"age":0.0}}"#;
        let commit = |at: f64, seconds: f64| {
            format!(r#"{{"WorkCommitted":{{"at":{at:e},"seconds":{seconds:e}}}}}"#)
        };
        let evicted = |at: f64| format!(r#"{{"Evicted":{{"at":{at:e},"heartbeats":0}}}}"#);
        let (c1, c2) = (commit(150.0, 40.0), commit(200.0, 60.0));

        // Exactly filled: 100 s committed in the 100 s since placement.
        let full = read(&[placed, &c1, &c2, &evicted(200.0)]).unwrap().digest();
        assert_eq!(full.efficiency, 1.0);

        let line_of = |lines: &[&str]| read(lines).unwrap_err().to_string();
        // The second commit brings 101 s into 100 s.
        let over = commit(200.0, 61.0);
        assert!(line_of(&[placed, &c1, &over]).starts_with("line 3: "));
        // An eviction before the committed work was done.
        assert!(line_of(&[placed, &c1, &c2, &evicted(199.0)]).starts_with("line 4: "));
        // A commit after the eviction is held to the eviction time.
        let late = commit(300.0, 1.0);
        assert!(line_of(&[placed, &c1, &c2, &evicted(200.0), &late]).starts_with("line 5: "));
        // Work with no placement, and a second placement.
        assert!(line_of(&[&c1, placed]).starts_with("line 1: "));
        assert!(line_of(&[placed, placed]).starts_with("line 2: "));
    }

    #[test]
    fn fault_events_round_trip_and_digest() {
        // A hand-built faulted run: recovery OK, one corrupted checkpoint
        // (500 MB wasted, retried, committed), one abandoned checkpoint.
        let log = ProcessLog {
            events: vec![
                LogEvent::Placed {
                    at: 0.0,
                    machine: chs_trace::MachineId(1),
                    age: 0.0,
                },
                LogEvent::TransferCompleted {
                    at: 50.0,
                    seconds: 50.0,
                    megabytes: 500.0,
                },
                LogEvent::TransferFaulted {
                    at: 350.0,
                    kind: TransferKind::Checkpoint,
                    fault: TransferFaultKind::Corruption,
                    elapsed: 100.0,
                    wasted_mb: 500.0,
                },
                LogEvent::RetryScheduled {
                    at: 350.0,
                    attempt: 1,
                    backoff_seconds: 5.0,
                },
                LogEvent::TransferCompleted {
                    at: 460.0,
                    seconds: 105.0,
                    megabytes: 500.0,
                },
                LogEvent::WorkCommitted {
                    at: 460.0,
                    seconds: 200.0,
                },
                LogEvent::CheckpointAbandoned {
                    at: 900.0,
                    lost_work: 300.0,
                    wasted_mb: 120.0,
                },
                LogEvent::Evicted {
                    at: 1_000.0,
                    heartbeats: 20,
                },
            ],
        };
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let back = ProcessLog::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(log, back);
        let d = log.digest();
        // Wasted megabytes count toward network load.
        assert_eq!(d.megabytes, 500.0 + 500.0 + 500.0 + 120.0);
        assert_eq!(d.useful_seconds, 200.0);
        assert_eq!(d.checkpoints_committed, 1);
    }

    #[test]
    fn empty_log_digest_is_safe() {
        let d = ProcessLog { events: vec![] }.digest();
        assert_eq!(d.useful_seconds, 0.0);
        assert_eq!(d.efficiency, 0.0);
        assert!(d.overhead_ratio.is_infinite());
    }

    #[test]
    fn events_chronological() {
        let result = small_experiment();
        for log in &result.logs {
            let times: Vec<f64> = log
                .events
                .iter()
                .map(|e| match e {
                    LogEvent::Placed { at, .. }
                    | LogEvent::TransferStarted { at, .. }
                    | LogEvent::TransferCompleted { at, .. }
                    | LogEvent::TransferInterrupted { at, .. }
                    | LogEvent::TransferFaulted { at, .. }
                    | LogEvent::RetryScheduled { at, .. }
                    | LogEvent::CheckpointAbandoned { at, .. }
                    | LogEvent::IntervalPlanned { at, .. }
                    | LogEvent::WorkCommitted { at, .. }
                    | LogEvent::Evicted { at, .. } => *at,
                })
                .collect();
            for w in times.windows(2) {
                assert!(w[1] + 1e-6 >= w[0], "log out of order: {times:?}");
            }
        }
    }
}
