//! Machine availability traces and the synthetic Condor-pool generator.
//!
//! The paper's monitor (§4) records, for every machine Condor assigns a
//! sensor process to, a sequence of **occupancy durations** with UTC
//! timestamps — ~640 Linux workstations over 18 months at the University
//! of Wisconsin. We do not have that proprietary data set, so this crate
//! supplies (a) the trace data structures and chronological train/test
//! split the paper's pipeline needs, and (b) a calibrated synthetic pool
//! generator (see [`synthetic`]) whose per-machine ground-truth processes
//! are heavy-tailed and heterogeneous in the way the paper reports
//! (exemplar machine fit: Weibull shape 0.43, scale 3409).

#![deny(missing_docs)]

pub mod analysis;
pub mod io;
pub mod synthetic;

use serde::{Deserialize, Serialize};

/// Identifier of a machine in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MachineId(pub u32);

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machine-{:04}", self.0)
    }
}

/// One recorded availability interval: the sensor occupied the machine
/// from `start` (seconds, UTC epoch) for `duration` seconds before being
/// evicted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// UTC timestamp (seconds) at which the availability interval began.
    pub start: f64,
    /// Length of the interval in seconds.
    pub duration: f64,
}

/// Errors from trace handling.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// An observation had a non-finite or non-positive duration.
    InvalidObservation {
        /// Index of the offending observation.
        index: usize,
    },
    /// An observation starts before the previous one (in start order)
    /// ends: one machine cannot be available twice at once.
    OverlappingObservation {
        /// Index, in start order, of the observation that overlaps its
        /// predecessor.
        index: usize,
    },
    /// A requested split needs more observations than the trace holds.
    SplitTooLarge {
        /// Requested training length.
        requested: usize,
        /// Available observations.
        available: usize,
    },
    /// Persistence failure.
    Io(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::InvalidObservation { index } => {
                write!(f, "invalid observation at index {index}")
            }
            TraceError::OverlappingObservation { index } => write!(
                f,
                "observation {index} (in start order) starts before observation {} ends",
                index - 1
            ),
            TraceError::SplitTooLarge {
                requested,
                available,
            } => {
                write!(f, "split of {requested} exceeds {available} observations")
            }
            TraceError::Io(e) => write!(f, "trace I/O: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, TraceError>;

/// The availability history of one machine, ordered chronologically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityTrace {
    /// The machine this history belongs to.
    pub machine: MachineId,
    observations: Vec<Observation>,
}

impl AvailabilityTrace {
    /// Build a trace, validating durations and sorting by start time.
    /// Intervals may touch (a start equal to the previous end) but not
    /// overlap.
    pub fn new(machine: MachineId, mut observations: Vec<Observation>) -> Result<Self> {
        for (i, o) in observations.iter().enumerate() {
            if !(o.duration.is_finite() && o.duration > 0.0 && o.start.is_finite()) {
                return Err(TraceError::InvalidObservation { index: i });
            }
        }
        observations.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("validated finite"));
        if let Some(i) = observations
            .windows(2)
            .position(|w| w[1].start < w[0].start + w[0].duration)
        {
            return Err(TraceError::OverlappingObservation { index: i + 1 });
        }
        Ok(Self {
            machine,
            observations,
        })
    }

    /// Build from bare durations with synthetic hourly timestamps (used
    /// when only durations matter, e.g. the paper's Table 2 trace).
    pub fn from_durations(machine: MachineId, durations: &[f64]) -> Result<Self> {
        let mut t = 0.0;
        let obs = durations
            .iter()
            .map(|&d| {
                let o = Observation {
                    start: t,
                    duration: d,
                };
                t += d + 1.0;
                o
            })
            .collect();
        Self::new(machine, obs)
    }

    /// The chronological observations.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// The availability durations in chronological order.
    pub fn durations(&self) -> Vec<f64> {
        self.observations.iter().map(|o| o.duration).collect()
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Sum of all availability durations (seconds of harvestable time).
    pub fn total_available(&self) -> f64 {
        self.observations.iter().map(|o| o.duration).sum()
    }

    /// Chronological split: the first `n_train` durations form the
    /// training set, the remainder the experimental set (paper §5.1 uses
    /// `n_train = 25`).
    pub fn split(&self, n_train: usize) -> Result<(Vec<f64>, Vec<f64>)> {
        if n_train > self.observations.len() {
            return Err(TraceError::SplitTooLarge {
                requested: n_train,
                available: self.observations.len(),
            });
        }
        let durations = self.durations();
        let (train, test) = durations.split_at(n_train);
        Ok((train.to_vec(), test.to_vec()))
    }
}

/// The paper's training-set size: the first 25 chronological durations.
pub const PAPER_TRAIN_LEN: usize = 25;

/// A pool of machine traces (the Condor pool view).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MachinePool {
    traces: Vec<AvailabilityTrace>,
}

impl MachinePool {
    /// Build a pool from traces.
    pub fn new(traces: Vec<AvailabilityTrace>) -> Self {
        Self { traces }
    }

    /// All traces.
    pub fn traces(&self) -> &[AvailabilityTrace] {
        &self.traces
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Retain only machines with at least `min_observations` recorded
    /// intervals — the paper's "sufficient number of times" filter that
    /// reduced >1000 monitored machines to ~640 usable ones.
    pub fn filter_min_observations(&self, min_observations: usize) -> MachinePool {
        MachinePool {
            traces: self
                .traces
                .iter()
                .filter(|t| t.len() >= min_observations)
                .cloned()
                .collect(),
        }
    }

    /// Look a machine up by id.
    pub fn get(&self, id: MachineId) -> Option<&AvailabilityTrace> {
        self.traces.iter().find(|t| t.machine == id)
    }

    /// Pool-wide mean availability duration.
    pub fn mean_duration(&self) -> f64 {
        let (sum, n) = self.traces.iter().fold((0.0, 0usize), |(s, n), t| {
            (s + t.total_available(), n + t.len())
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(start: f64, duration: f64) -> Observation {
        Observation { start, duration }
    }

    #[test]
    fn trace_validates_durations() {
        let m = MachineId(1);
        assert!(AvailabilityTrace::new(m, vec![obs(0.0, -5.0)]).is_err());
        assert!(AvailabilityTrace::new(m, vec![obs(0.0, 0.0)]).is_err());
        assert!(AvailabilityTrace::new(m, vec![obs(f64::NAN, 5.0)]).is_err());
        assert!(AvailabilityTrace::new(m, vec![obs(0.0, 5.0)]).is_ok());
    }

    #[test]
    fn trace_sorts_chronologically() {
        let t = AvailabilityTrace::new(
            MachineId(2),
            vec![obs(100.0, 5.0), obs(0.0, 7.0), obs(50.0, 3.0)],
        )
        .unwrap();
        assert_eq!(t.durations(), vec![7.0, 3.0, 5.0]);
    }

    #[test]
    fn split_is_chronological_prefix() {
        let durations: Vec<f64> = (1..=40).map(|i| i as f64).collect();
        let t = AvailabilityTrace::from_durations(MachineId(3), &durations).unwrap();
        let (train, test) = t.split(PAPER_TRAIN_LEN).unwrap();
        assert_eq!(train.len(), 25);
        assert_eq!(test.len(), 15);
        assert_eq!(train[0], 1.0);
        assert_eq!(test[0], 26.0);
    }

    #[test]
    fn split_too_large_errors() {
        let t = AvailabilityTrace::from_durations(MachineId(4), &[1.0, 2.0]).unwrap();
        assert!(t.split(3).is_err());
        assert!(t.split(2).is_ok());
    }

    #[test]
    fn totals() {
        let t = AvailabilityTrace::from_durations(MachineId(5), &[10.0, 20.0, 30.0]).unwrap();
        assert_eq!(t.total_available(), 60.0);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn pool_filter_and_stats() {
        let t1 = AvailabilityTrace::from_durations(MachineId(1), &[10.0; 30]).unwrap();
        let t2 = AvailabilityTrace::from_durations(MachineId(2), &[20.0; 10]).unwrap();
        let pool = MachinePool::new(vec![t1, t2]);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.filter_min_observations(26).len(), 1);
        let mean = pool.mean_duration();
        assert!((mean - (300.0 + 200.0) / 40.0).abs() < 1e-12);
        assert!(pool.get(MachineId(2)).is_some());
        assert!(pool.get(MachineId(9)).is_none());
    }

    #[test]
    fn machine_id_display() {
        assert_eq!(MachineId(7).to_string(), "machine-0007");
    }
}
