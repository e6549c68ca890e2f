//! Checkpoint-manager protocol vocabulary: priority lanes, admission
//! control, and the durable dead-letter queue.
//!
//! The manager server (`chs-manager`) multiplexes many clients'
//! transfers over one shared link. This module holds the *protocol*
//! types that survive outside any one run: which lane a transfer rides
//! ([`Lane`]), how lanes split the link ([`LaneWeights`]), when a new
//! checkpoint is admitted ([`AdmissionConfig`]), and the durable record
//! of every transfer the manager gave up on ([`DeadLetter`],
//! [`DeadLetterQueue`]). The queue serializes to JSONL so a crashed
//! manager can be rebuilt from disk and its backlog replayed — the
//! "tracked ⇒ enqueued ⇒ replayed or explicitly abandoned" invariant
//! the conservation gates enforce.

use serde::{Deserialize, Serialize};
use std::io::BufRead;

/// The priority lane a transfer rides on the manager's shared link.
///
/// Recovery outranks checkpoint outranks prefetch: a client blocked on
/// its image cannot work at all, a checkpoint protects work already
/// done, and a prefetch is pure opportunism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Lane {
    /// Manager → client: recovery of a memory image (highest priority).
    Recovery,
    /// Client → manager: a checkpoint image.
    Checkpoint,
    /// Manager-side cache warming (lowest priority, shed freely).
    Prefetch,
}

impl Lane {
    /// Every lane, in priority order.
    pub const ALL: [Lane; 3] = [Lane::Recovery, Lane::Checkpoint, Lane::Prefetch];

    /// Dense index for per-lane arrays (priority order).
    pub fn index(self) -> usize {
        match self {
            Lane::Recovery => 0,
            Lane::Checkpoint => 1,
            Lane::Prefetch => 2,
        }
    }

    /// Human-readable lane name.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Recovery => "recovery",
            Lane::Checkpoint => "checkpoint",
            Lane::Prefetch => "prefetch",
        }
    }
}

/// Weighted shares of the manager link per lane: an active flow in lane
/// `l` receives `w_l / Σ n_m·w_m` of the capacity under weighted
/// max-min fair sharing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneWeights {
    /// Share weight of the recovery lane.
    pub recovery: f64,
    /// Share weight of the checkpoint lane.
    pub checkpoint: f64,
    /// Share weight of the prefetch lane.
    pub prefetch: f64,
}

impl Default for LaneWeights {
    fn default() -> Self {
        Self {
            recovery: 4.0,
            checkpoint: 2.0,
            prefetch: 1.0,
        }
    }
}

impl LaneWeights {
    /// Equal weights: weighted fair sharing degenerates to the classic
    /// `capacity / n` processor sharing of the frozen `run_contention`
    /// oracle (root `tests/contention_differential.rs`), which the
    /// manager's differential gates compare against.
    pub fn uniform() -> Self {
        Self {
            recovery: 1.0,
            checkpoint: 1.0,
            prefetch: 1.0,
        }
    }

    /// The weights as a dense array indexed by [`Lane::index`].
    pub fn as_array(&self) -> [f64; 3] {
        [self.recovery, self.checkpoint, self.prefetch]
    }

    /// The weight of one lane.
    pub fn weight(&self, lane: Lane) -> f64 {
        self.as_array()[lane.index()]
    }

    /// Check the weights: finite, positive, and ordered by priority
    /// (`recovery ≥ checkpoint ≥ prefetch`).
    pub fn validate(&self) -> Result<(), String> {
        for (name, w) in [
            ("recovery", self.recovery),
            ("checkpoint", self.checkpoint),
            ("prefetch", self.prefetch),
        ] {
            if !w.is_finite() || w <= 0.0 {
                return Err(format!("{name} weight must be finite > 0: {w}"));
            }
        }
        if self.recovery < self.checkpoint || self.checkpoint < self.prefetch {
            return Err(format!(
                "lane weights must respect priority (recovery ≥ checkpoint ≥ prefetch): \
                 {} / {} / {}",
                self.recovery, self.checkpoint, self.prefetch
            ));
        }
        Ok(())
    }
}

/// Admission control for new checkpoint (and prefetch) transfers.
///
/// Before starting a transfer the manager forecasts link utilization
/// over a short horizon: `(backlog + image) / (horizon_images ×
/// image)`, i.e. the time to drain the committed backlog plus this
/// transfer, relative to a budget of `horizon_images` uncontended image
/// transfers. When the forecast exceeds `watermark` the checkpoint is
/// *deferred*: the client falls back to its last verified image and the
/// interval's work is re-accounted as lost — the same arithmetic as a
/// retry-exhausted abandonment, but by explicit decision rather than
/// failure. Recovery transfers are never deferred: a client without its
/// image cannot run at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Master switch; disabled means every transfer is admitted.
    pub enabled: bool,
    /// Forecast-utilization threshold in (0, 1] above which new
    /// checkpoints are deferred.
    pub watermark: f64,
    /// Forecast horizon, in units of uncontended image-transfer times.
    pub horizon_images: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            watermark: 0.75,
            horizon_images: 4.0,
        }
    }
}

impl AdmissionConfig {
    /// Admission disabled: the no-admission baseline and the profile the
    /// differential gates use (nothing may perturb the classic path).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Check the knob ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !self.watermark.is_finite()
            || !(0.0..=1.0).contains(&self.watermark)
            || self.watermark == 0.0
        {
            return Err(format!("watermark must be in (0, 1]: {}", self.watermark));
        }
        if !self.horizon_images.is_finite() || self.horizon_images <= 0.0 {
            return Err(format!(
                "horizon_images must be finite > 0: {}",
                self.horizon_images
            ));
        }
        Ok(())
    }

    /// Forecast link utilization if a transfer of `image_mb` joins a
    /// link already owing `backlog_mb`.
    pub fn forecast_utilization(&self, backlog_mb: f64, image_mb: f64) -> f64 {
        if image_mb <= 0.0 {
            return 0.0;
        }
        (backlog_mb + image_mb) / (self.horizon_images * image_mb)
    }

    /// Whether a transfer of `image_mb` is admitted against the current
    /// backlog. Deterministic: a pure function of the two arguments.
    pub fn admits(&self, backlog_mb: f64, image_mb: f64) -> bool {
        !self.enabled || self.forecast_utilization(backlog_mb, image_mb) <= self.watermark
    }
}

/// A transfer the manager exhausted its retry budget on, preserved with
/// full resume state so a replay pass can finish the job later.
///
/// `(client, seq)` is the stable transfer id: `seq` counts transfer
/// phases on that client, so the id survives serialization, replay, and
/// any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadLetter {
    /// The owning client's stable id.
    pub client: u64,
    /// The transfer-phase sequence number on that client.
    pub seq: u64,
    /// Full image size, MB.
    pub image_mb: f64,
    /// Verified prefix already held by the manager, MB (0 after a
    /// corruption — corrupt payload is never resumable).
    pub delivered_mb: f64,
    /// Attempts consumed before the budget ran out.
    pub attempts: u32,
    /// Virtual time the letter was enqueued.
    pub enqueued_at: f64,
}

impl DeadLetter {
    /// Megabytes still to ship when replayed.
    pub fn remaining_mb(&self) -> f64 {
        self.image_mb - self.delivered_mb
    }

    /// Check the letter's invariants (used on deserialized queues).
    pub fn validate(&self) -> Result<(), String> {
        if !self.image_mb.is_finite() || self.image_mb <= 0.0 {
            return Err(format!("image_mb must be finite > 0: {}", self.image_mb));
        }
        if !self.delivered_mb.is_finite()
            || self.delivered_mb < 0.0
            || self.delivered_mb > self.image_mb
        {
            return Err(format!(
                "delivered_mb must be in [0, image_mb]: {}",
                self.delivered_mb
            ));
        }
        if !self.enqueued_at.is_finite() || self.enqueued_at < 0.0 {
            return Err(format!(
                "enqueued_at must be finite ≥ 0: {}",
                self.enqueued_at
            ));
        }
        Ok(())
    }
}

/// FIFO queue of dead letters with lifetime counters, the durable half
/// of the manager's failure path.
///
/// Every transfer that exhausts its [`crate::RetryPolicy`] budget is
/// pushed here — never just counted — and leaves only through
/// [`pop`](Self::pop) (a replay) or by the replay pass explicitly
/// abandoning it. The counters let conservation gates reconcile:
/// `enqueued == replayed + abandoned + len()`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeadLetterQueue {
    letters: Vec<DeadLetter>,
    /// Letters ever enqueued.
    pub enqueued: u64,
    /// Letters drained by a replay pass that delivered them.
    pub replayed: u64,
    /// Letters a replay pass explicitly gave up on (budget exhausted
    /// again).
    pub abandoned: u64,
}

impl DeadLetterQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a letter at the back.
    pub fn push(&mut self, letter: DeadLetter) {
        self.letters.push(letter);
        self.enqueued += 1;
    }

    /// Dequeue the oldest letter (FIFO). The caller must account it as
    /// replayed ([`Self::count_replayed`]) or abandoned
    /// ([`Self::count_abandoned`]) — the reconciliation gate checks.
    pub fn pop(&mut self) -> Option<DeadLetter> {
        if self.letters.is_empty() {
            None
        } else {
            Some(self.letters.remove(0))
        }
    }

    /// Record that a popped letter was delivered by replay.
    pub fn count_replayed(&mut self) {
        self.replayed += 1;
    }

    /// Record that a popped letter was explicitly abandoned by replay.
    pub fn count_abandoned(&mut self) {
        self.abandoned += 1;
    }

    /// Letters currently queued.
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// Iterate the queued letters front to back.
    pub fn iter(&self) -> impl Iterator<Item = &DeadLetter> {
        self.letters.iter()
    }

    /// Total megabytes still owed by queued letters.
    pub fn total_remaining_mb(&self) -> f64 {
        self.letters.iter().map(|l| l.remaining_mb()).sum()
    }

    /// Counter reconciliation residual: letters ever enqueued minus
    /// (replayed + abandoned + still queued). Zero when no letter was
    /// silently dropped.
    pub fn reconciliation_residual(&self) -> i64 {
        self.enqueued as i64 - self.replayed as i64 - self.abandoned as i64 - self.len() as i64
    }

    /// Serialize to JSONL: one header line with the counters, then one
    /// line per queued letter — the manager's crash-durable format.
    pub fn write_jsonl<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "{}",
            serde_json::to_string(&[self.enqueued, self.replayed, self.abandoned])
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        )?;
        for letter in &self.letters {
            writeln!(
                w,
                "{}",
                serde_json::to_string(letter).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?
            )?;
        }
        Ok(())
    }

    /// Rebuild a queue from its JSONL form, validating every letter.
    /// Errors point at the offending line, like `ProcessLog::read_jsonl`.
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<Self> {
        let mut queue = Self::new();
        let mut saw_header = false;
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
            if !saw_header {
                let counters: [u64; 3] =
                    serde_json::from_str(&line).map_err(|e| invalid(e.to_string()))?;
                queue.enqueued = counters[0];
                queue.replayed = counters[1];
                queue.abandoned = counters[2];
                saw_header = true;
                continue;
            }
            let letter: DeadLetter =
                serde_json::from_str(&line).map_err(|e| invalid(e.to_string()))?;
            letter.validate().map_err(invalid)?;
            queue.letters.push(letter);
        }
        if !saw_header {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "line 1: missing dead-letter queue header",
            ));
        }
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn letter(client: u64, seq: u64) -> DeadLetter {
        DeadLetter {
            client,
            seq,
            image_mb: 500.0,
            delivered_mb: 120.0,
            attempts: 4,
            enqueued_at: 1_000.0,
        }
    }

    #[test]
    fn lane_index_and_order() {
        for (i, lane) in Lane::ALL.into_iter().enumerate() {
            assert_eq!(lane.index(), i);
        }
        assert_eq!(Lane::Recovery.name(), "recovery");
    }

    #[test]
    fn weights_validate_priority_order() {
        assert!(LaneWeights::default().validate().is_ok());
        assert!(LaneWeights::uniform().validate().is_ok());
        let bad = LaneWeights {
            recovery: 1.0,
            checkpoint: 2.0,
            prefetch: 1.0,
        };
        assert!(bad.validate().is_err());
        let nan = LaneWeights {
            recovery: f64::NAN,
            ..LaneWeights::default()
        };
        assert!(nan.validate().is_err());
        let zero = LaneWeights {
            prefetch: 0.0,
            ..LaneWeights::default()
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn admission_watermark_defers_only_above_threshold() {
        let adm = AdmissionConfig {
            enabled: true,
            watermark: 0.5,
            horizon_images: 4.0,
        };
        // Budget = 0.5 × 4 images = 2 images of backlog including self.
        assert!(adm.admits(0.0, 500.0));
        assert!(adm.admits(500.0, 500.0));
        assert!(!adm.admits(500.1, 500.0));
        assert!(AdmissionConfig::disabled().admits(1e12, 500.0));
        assert!(AdmissionConfig::default().validate().is_ok());
        let bad = AdmissionConfig {
            watermark: 0.0,
            ..AdmissionConfig::default()
        };
        assert!(bad.validate().is_err());
        let nan = AdmissionConfig {
            horizon_images: f64::NAN,
            ..AdmissionConfig::default()
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn dead_letter_remaining_and_validation() {
        let l = letter(3, 7);
        assert_eq!(l.remaining_mb(), 380.0);
        assert!(l.validate().is_ok());
        let over = DeadLetter {
            delivered_mb: 600.0,
            ..l
        };
        assert!(over.validate().is_err());
        let nan = DeadLetter {
            image_mb: f64::NAN,
            ..l
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn queue_is_fifo_and_reconciles() {
        let mut q = DeadLetterQueue::new();
        q.push(letter(0, 1));
        q.push(letter(1, 1));
        q.push(letter(2, 1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.reconciliation_residual(), 0);
        let first = q.pop().unwrap();
        assert_eq!(first.client, 0);
        q.count_replayed();
        let second = q.pop().unwrap();
        assert_eq!(second.client, 1);
        q.count_abandoned();
        assert_eq!(q.len(), 1);
        assert_eq!(q.reconciliation_residual(), 0);
        assert_eq!(q.enqueued, 3);
        assert_eq!(q.replayed, 1);
        assert_eq!(q.abandoned, 1);
    }

    #[test]
    fn queue_jsonl_round_trip_preserves_state() {
        let mut q = DeadLetterQueue::new();
        for i in 0..4 {
            q.push(letter(i, i + 10));
        }
        q.pop().unwrap();
        q.count_replayed();
        let mut buf = Vec::new();
        q.write_jsonl(&mut buf).unwrap();
        let back = DeadLetterQueue::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(q, back);
        assert_eq!(back.total_remaining_mb(), q.total_remaining_mb());
    }

    #[test]
    fn queue_jsonl_errors_point_at_lines() {
        // Corrupt letter on line 3 (after header + one good letter).
        let mut buf = Vec::new();
        let mut q = DeadLetterQueue::new();
        q.push(letter(0, 1));
        q.write_jsonl(&mut buf).unwrap();
        buf.extend_from_slice(b"not json\n");
        let err = DeadLetterQueue::read_jsonl(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        // A NaN-bearing letter fails validation with its line number.
        let mut buf = Vec::new();
        q.write_jsonl(&mut buf).unwrap();
        buf.extend_from_slice(
            br#"{"client":9,"seq":9,"image_mb":500.0,"delivered_mb":-3.0,"attempts":1,"enqueued_at":0.0}
"#,
        );
        let err = DeadLetterQueue::read_jsonl(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("line 3") && msg.contains("delivered_mb"),
            "{msg}"
        );
        // Missing header.
        assert!(DeadLetterQueue::read_jsonl("".as_bytes()).is_err());
    }

    #[test]
    fn queue_serde_round_trip() {
        let mut q = DeadLetterQueue::new();
        q.push(letter(5, 2));
        let json = serde_json::to_string(&q).unwrap();
        let back: DeadLetterQueue = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }
}
