//! Manager-server configuration and results.

use crate::{ManagerError, Result};
use chs_cycle::CycleAccounting;
use chs_dist::ModelKind;
use chs_net::{AdmissionConfig, DeadLetterQueue, LaneWeights, RetryPolicy};
use chs_trace::synthetic::PoolConfig;
use serde::{Deserialize, Serialize};

/// Configuration for one manager-server run: the client/link/planning
/// knobs of a shared-link contention run plus the server-side policy
/// (lane weights, admission, prefetch) and the bootstrap thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManagerConfig {
    /// Number of client jobs (each pinned to its own machine).
    pub clients: usize,
    /// Manager link capacity, MB/s.
    pub link_mb_per_s: f64,
    /// Checkpoint image size per client, MB.
    pub image_mb: f64,
    /// Virtual-time window, seconds.
    pub window: f64,
    /// Availability model every client fits to its machine's history.
    pub model: ModelKind,
    /// Machine ground-truth meta-distribution.
    pub pool: PoolConfig,
    /// Historical durations per machine for fitting.
    pub history_len: usize,
    /// Master seed.
    pub seed: u64,
    /// Retry/backoff/timeout policy for faulted transfers.
    pub retry: RetryPolicy,
    /// Per-lane link shares (recovery / checkpoint / prefetch).
    pub weights: LaneWeights,
    /// Admission control for new checkpoint and prefetch transfers.
    pub admission: AdmissionConfig,
    /// Probability that a committed checkpoint spawns a cache-warming
    /// prefetch on the lowest-priority lane (0 disables, as the
    /// [`ManagerConfig::classic`] profile does).
    pub prefetch_probability: f64,
    /// Bootstrap worker threads (machine generation + model fitting).
    /// 0 means one per available core. The event loop itself is
    /// deterministic regardless: results are bitwise identical for every
    /// thread count, which [`crate::run_manager`]'s digest gate checks.
    pub threads: usize,
}

impl ManagerConfig {
    /// Campus-link defaults: `clients` jobs sharing a link that moves one
    /// 500 MB image in 110 s when uncontended, with the default priority
    /// weights and admission watermark.
    pub fn campus(clients: usize, model: ModelKind) -> Self {
        Self {
            clients,
            link_mb_per_s: 500.0 / 110.0,
            image_mb: 500.0,
            window: 4.0 * 86_400.0,
            model,
            pool: PoolConfig::default(),
            history_len: 25,
            seed: 2_005,
            retry: RetryPolicy::default(),
            weights: LaneWeights::default(),
            admission: AdmissionConfig::default(),
            prefetch_probability: 0.0,
            threads: 1,
        }
    }

    /// The classic shared-link profile on the campus defaults: uniform
    /// weights, admission disabled, no prefetch. Every transfer gets an
    /// equal share of the link — processor sharing, the paper's §5.2
    /// contention model. The oracle suite
    /// (`tests/contention_differential.rs`) checks it against a frozen
    /// copy of the classic event loop.
    pub fn classic(clients: usize, model: ModelKind) -> Self {
        Self {
            weights: LaneWeights::uniform(),
            admission: AdmissionConfig::disabled(),
            ..Self::campus(clients, model)
        }
    }

    /// Check every knob.
    pub fn validate(&self) -> Result<()> {
        if self.clients == 0 {
            return Err(ManagerError::InvalidConfig("need at least one client"));
        }
        if !(self.link_mb_per_s.is_finite() && self.link_mb_per_s > 0.0) {
            return Err(ManagerError::InvalidConfig(
                "link capacity must be positive and finite",
            ));
        }
        if !(self.image_mb.is_finite() && self.image_mb > 0.0) {
            return Err(ManagerError::InvalidConfig(
                "image size must be positive and finite",
            ));
        }
        if !(self.window.is_finite() && self.window > 0.0) {
            return Err(ManagerError::InvalidConfig(
                "window must be positive and finite",
            ));
        }
        if self.retry.validate().is_err() {
            return Err(ManagerError::InvalidConfig("invalid retry policy"));
        }
        if self.weights.validate().is_err() {
            return Err(ManagerError::InvalidConfig("invalid lane weights"));
        }
        if self.admission.validate().is_err() {
            return Err(ManagerError::InvalidConfig("invalid admission config"));
        }
        if !self.prefetch_probability.is_finite()
            || !(0.0..=1.0).contains(&self.prefetch_probability)
        {
            return Err(ManagerError::InvalidConfig(
                "prefetch probability must be in [0, 1]",
            ));
        }
        Ok(())
    }
}

/// What the manager's policy layer did during a run, alongside the
/// transfer-fault counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ManagerReport {
    /// Transfer-fault and retry counts (the live resilient driver's
    /// vocabulary).
    pub faults: chs_condor::FaultReport,
    /// Checkpoints deferred by admission control (fell back to the last
    /// verified image; counted in the ledger's `checkpoints_abandoned`
    /// alongside the retry-exhausted ones).
    pub deferred_checkpoints: u64,
    /// Prefetches dropped by admission control before starting.
    pub shed_prefetches: u64,
    /// Prefetch transfers started on the lowest-priority lane.
    pub prefetches_started: u64,
    /// Prefetch transfers that ran to completion inside the window.
    pub prefetches_completed: u64,
    /// Megabytes moved on the prefetch lane (not part of any client
    /// ledger — cache warming is manager-side traffic).
    pub prefetch_mb: f64,
}

/// Aggregate result of a manager run: views into the merged client
/// ledger, link statistics, and the per-lane busy times and digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManagerResult {
    /// The model used.
    pub model: ModelKind,
    /// Number of clients.
    pub clients: usize,
    /// Sum over clients of committed work seconds.
    pub useful_seconds: f64,
    /// Sum over clients of machine-occupied seconds.
    pub occupied_seconds: f64,
    /// Megabytes that crossed the link for client transfers (prefetch
    /// traffic is reported separately in [`ManagerReport::prefetch_mb`]).
    pub megabytes: f64,
    /// Checkpoints committed across all clients.
    pub checkpoints_committed: u64,
    /// Transfers started (recoveries + checkpoints).
    pub transfers_started: u64,
    /// Mean duration of completed transfers.
    pub mean_transfer_seconds: f64,
    /// Time-average concurrent transfers over busy periods (all lanes).
    pub mean_link_concurrency: f64,
    /// Fraction of the window the link was busy (any lane).
    pub link_utilization: f64,
    /// Seconds the recovery lane had at least one active flow.
    pub recovery_busy_seconds: f64,
    /// Seconds the checkpoint lane had at least one active flow.
    pub checkpoint_busy_seconds: f64,
    /// Seconds the prefetch lane had at least one active flow.
    pub prefetch_busy_seconds: f64,
    /// Iterations of the server's event loop — a measure of the work a
    /// run did, not of its outcome, so it stays out of `digest`.
    pub events: u64,
    /// The merged client cycle ledger.
    pub cycle: CycleAccounting,
    /// Order-independent digest of every client ledger, the report, and
    /// the dead-letter queue — the 1-thread ≡ N-thread gate.
    pub digest: u64,
}

impl ManagerResult {
    /// Aggregate efficiency across clients.
    pub fn efficiency(&self) -> f64 {
        if self.occupied_seconds > 0.0 {
            self.useful_seconds / self.occupied_seconds
        } else {
            0.0
        }
    }

    /// Stretch factor: mean transfer duration relative to the uncontended
    /// duration of one image. Returns 0 (never NaN or ∞) when the nominal
    /// duration is degenerate — e.g. a zero-byte image or an unvalidated
    /// zero-bandwidth config.
    pub fn stretch(&self, config: &ManagerConfig) -> f64 {
        let nominal = config.image_mb / config.link_mb_per_s;
        if nominal.is_finite() && nominal > 0.0 {
            self.mean_transfer_seconds / nominal
        } else {
            0.0
        }
    }

    /// Committed-checkpoint goodput in MB: image bytes that reached a
    /// verified commit (the numerator of the bench's goodput curves).
    pub fn goodput_mb(&self, image_mb: f64) -> f64 {
        self.checkpoints_committed as f64 * image_mb
    }
}

/// Everything one manager run produces: the aggregate result, the policy
/// report, and the dead-letter queue ready for [`crate::replay_dead_letters`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManagerOutcome {
    /// Aggregate ledgers and link statistics.
    pub result: ManagerResult,
    /// Fault/admission/prefetch counters.
    pub report: ManagerReport,
    /// Retry-exhausted transfers with full resume state.
    pub dlq: DeadLetterQueue,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_validates() {
        assert!(ManagerConfig::campus(4, ModelKind::Exponential)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let mut c = ManagerConfig::campus(1, ModelKind::Exponential);
        c.clients = 0;
        assert!(c.validate().is_err());
        let mut c = ManagerConfig::campus(1, ModelKind::Exponential);
        c.prefetch_probability = 1.5;
        assert!(c.validate().is_err());
        let mut c = ManagerConfig::campus(1, ModelKind::Exponential);
        c.weights.recovery = 0.0;
        assert!(c.validate().is_err());
        let mut c = ManagerConfig::campus(1, ModelKind::Exponential);
        c.admission.watermark = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_knobs() {
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            let mut c = ManagerConfig::classic(2, ModelKind::Exponential);
            c.window = bad;
            assert!(c.validate().is_err(), "window {bad} accepted");
            let mut c = ManagerConfig::classic(2, ModelKind::Exponential);
            c.image_mb = bad;
            assert!(c.validate().is_err(), "image {bad} accepted");
            let mut c = ManagerConfig::classic(2, ModelKind::Exponential);
            c.link_mb_per_s = bad;
            assert!(c.validate().is_err(), "link {bad} accepted");
        }
    }

    #[test]
    fn validation_rejects_bad_retry_knobs() {
        let mut c = ManagerConfig::classic(2, ModelKind::Exponential);
        c.retry.backoff_factor = 0.0;
        assert!(c.validate().is_err());
        let mut c = ManagerConfig::classic(2, ModelKind::Exponential);
        c.retry.timeout_factor = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ratio_accessors_never_return_nan_or_inf() {
        let mut cfg = ManagerConfig::classic(1, ModelKind::Exponential);
        cfg.window = 3_600.0;
        let mut r = crate::run_manager(&cfg, &chs_net::FaultPlan::none())
            .unwrap()
            .result;
        r.useful_seconds = 0.0;
        r.occupied_seconds = 0.0;
        assert_eq!(r.efficiency(), 0.0);
        cfg.image_mb = 0.0; // degenerate nominal duration
        assert_eq!(r.stretch(&cfg), 0.0);
        cfg.image_mb = 100.0;
        cfg.link_mb_per_s = 0.0; // nominal would be ∞
        assert_eq!(r.stretch(&cfg), 0.0);
    }

    #[test]
    fn classic_is_the_processor_sharing_profile() {
        let mc = ManagerConfig::classic(3, ModelKind::Weibull);
        assert_eq!(mc.clients, 3);
        assert_eq!(mc.weights, LaneWeights::uniform());
        assert!(!mc.admission.enabled);
        assert_eq!(mc.prefetch_probability, 0.0);
        assert!(mc.validate().is_ok());
    }
}
