//! Streaming refit: sliding observation windows, a change-point detector,
//! and warm (resumable-EM) refits for long-running schedulers.
//!
//! The batch pipeline fits each machine once on a training prefix. A
//! serving scheduler instead sees availability durations arrive one at a
//! time, forever, and must decide *when* a machine's fitted model is
//! stale. This module provides the per-machine machinery:
//!
//! * [`SlidingWindow`] — a bounded ring of the most recent durations with
//!   incrementally maintained sufficient statistics (`n`, `Σx`, `Σln x`,
//!   `Σx²`); enough for closed-form exponential MLE, its
//!   log-likelihood, and a tail-weight estimate without touching the
//!   buffer.
//! * [`RegimeDetector`] — paired windowed generalized-likelihood-ratio
//!   tests: the recent window's best *exponential* explanation against
//!   the currently installed fit (catches family misfit), and a
//!   studentized two-sample GLR against evidence accumulated since the
//!   last refit (immune to training-sample noise). Stationary data
//!   keeps both near zero; a regime shift — rate change, family change —
//!   pushes both up by `n · KL` nats and trips the threshold. Refits
//!   are triggered only then.
//! * [`StreamingFit`] — window + detector + the installed model. A
//!   refit runs in three steps: [`StreamingFit::observe`] reports the
//!   trigger and captures a [`RefitJob`] (the window at the trigger plus
//!   the prior [`EmState`]); [`RefitJob::run`] is [`refit_window`] on
//!   those inputs; [`StreamingFit::apply`] installs the outcome. A
//!   **full** refit is the batch estimator verbatim (bitwise-equal
//!   fallback, pinned by the scheduler's differential suite), a **warm**
//!   refit resumes the persisted [`EmState`] on the new window instead
//!   of re-running the whole multi-start.
//!
//! [`StreamingFit::step`] runs the three steps inline. The scheduler
//! (`chs-sched`) instead parks each machine's job and resolves every
//! parked job in one parallel batch when an outcome is needed; a parked
//! machine keeps accepting observations until its next trigger could
//! depend on the outcome. A job is a pure function of its inputs, so the
//! batch reproduces the inline loop bitwise on any thread count.

use super::{fit_model, EmOptions, EmScratch, EmState};
use crate::{AvailabilityModel, DistError, FittedModel, ModelKind, Result};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Floor applied to per-observation log-densities entering the detector:
/// a zero/underflowed pdf is overwhelming evidence against the current
/// fit, but the statistic must stay finite arithmetic.
const LOG_PDF_FLOOR: f64 = -1e9;

/// Check one availability duration: finite and positive, the rule every
/// estimator enforces.
///
/// # Errors
/// [`DistError::InvalidData`] otherwise.
pub fn validate_duration(x: f64) -> Result<()> {
    if x.is_finite() && x > 0.0 {
        Ok(())
    } else {
        Err(DistError::InvalidData {
            message: "availability durations must be finite and positive",
        })
    }
}

/// Incrementally maintained sufficient statistics of a window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Observations in the window.
    pub n: usize,
    /// `Σ xᵢ`.
    pub sum: f64,
    /// `Σ ln xᵢ`.
    pub sum_ln: f64,
    /// `Σ xᵢ²` — carries the tail-weight (CV²) estimate the detector
    /// uses to studentize its split test.
    pub sum_sq: f64,
}

impl WindowStats {
    /// The all-zero statistics of an empty window.
    pub fn empty() -> Self {
        Self {
            n: 0,
            sum: 0.0,
            sum_ln: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Fold one observation in.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sum_ln += x.ln();
        self.sum_sq += x * x;
    }

    /// Pool two windows.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            n: self.n + other.n,
            sum: self.sum + other.sum,
            sum_ln: self.sum_ln + other.sum_ln,
            sum_sq: self.sum_sq + other.sum_sq,
        }
    }

    /// Window mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Population variance (0 when empty; clamped non-negative against
    /// rounding).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.n as f64 - m * m).max(0.0)
    }

    /// Squared coefficient of variation `Var/mean²` (1 for exponential
    /// data, ≫ 1 for heavy tails; 0 when degenerate/empty).
    pub fn cv_squared(&self) -> f64 {
        let m = self.mean();
        if m <= 0.0 {
            return 0.0;
        }
        self.variance() / (m * m)
    }

    /// Closed-form exponential MLE rate `λ̂ = n/Σx`.
    pub fn exp_rate(&self) -> f64 {
        if self.sum > 0.0 {
            self.n as f64 / self.sum
        } else {
            0.0
        }
    }

    /// Log-likelihood of the window under its own exponential MLE:
    /// `n·ln(n/Σx) − n`, no data pass needed.
    pub fn exp_mle_log_likelihood(&self) -> f64 {
        if self.n == 0 || self.sum <= 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        n * (n / self.sum).ln() - n
    }
}

/// Bounded ring buffer of the most recent availability durations with
/// incremental sufficient statistics.
///
/// `push` is O(1): the evicted observation's contribution is subtracted
/// from the running sums. Floating-point cancellation from long
/// add/subtract chains is bounded by rebuilding the sums exactly from
/// the buffer once per `capacity` evictions, so the incremental stats
/// never drift more than one window's worth of rounding from the exact
/// scan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlidingWindow {
    capacity: usize,
    buf: VecDeque<f64>,
    sum: f64,
    sum_ln: f64,
    sum_sq: f64,
    evictions_since_rebuild: usize,
}

impl SlidingWindow {
    /// A window holding at most `capacity` observations.
    ///
    /// # Errors
    /// [`DistError::InvalidData`] when `capacity == 0`.
    pub fn new(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(DistError::InvalidData {
                message: "sliding window capacity must be >= 1",
            });
        }
        Ok(Self {
            capacity,
            // Grown on demand: most windows of a large fleet never fill.
            buf: VecDeque::new(),
            sum: 0.0,
            sum_ln: 0.0,
            sum_sq: 0.0,
            evictions_since_rebuild: 0,
        })
    }

    /// Append one duration, evicting the oldest once full. Returns the
    /// evicted observation, if any. Non-finite or non-positive durations
    /// are rejected (the same rule every estimator enforces).
    pub fn push(&mut self, x: f64) -> Result<Option<f64>> {
        validate_duration(x)?;
        let evicted = if self.buf.len() == self.capacity {
            let old = self.buf.pop_front().expect("non-empty at capacity");
            self.sum -= old;
            self.sum_ln -= old.ln();
            self.sum_sq -= old * old;
            self.evictions_since_rebuild += 1;
            Some(old)
        } else {
            None
        };
        self.buf.push_back(x);
        self.sum += x;
        self.sum_ln += x.ln();
        self.sum_sq += x * x;
        if self.evictions_since_rebuild >= self.capacity {
            self.rebuild_stats();
        }
        Ok(evicted)
    }

    /// Empty the window, keeping its buffer: the state of a fresh
    /// [`SlidingWindow::new`] without reallocating.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.sum = 0.0;
        self.sum_ln = 0.0;
        self.sum_sq = 0.0;
        self.evictions_since_rebuild = 0;
    }

    /// Recompute the sums exactly from the buffer contents.
    fn rebuild_stats(&mut self) {
        self.sum = self.buf.iter().sum();
        self.sum_ln = self.buf.iter().map(|x| x.ln()).sum();
        self.sum_sq = self.buf.iter().map(|x| x * x).sum();
        self.evictions_since_rebuild = 0;
    }

    /// Observations currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the window is at capacity.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The window contents, oldest first — the input a refit sees.
    pub fn snapshot(&self) -> Vec<f64> {
        self.buf.iter().copied().collect()
    }

    /// Iterate the window contents, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }

    /// The incremental sufficient statistics.
    pub fn stats(&self) -> WindowStats {
        WindowStats {
            n: self.buf.len(),
            sum: self.sum,
            sum_ln: self.sum_ln,
            sum_sq: self.sum_sq,
        }
    }
}

/// Tunables for [`RegimeDetector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Observations the detector's test window holds.
    pub window: usize,
    /// Minimum observations (since the last reset) before the test is
    /// consulted — a half-filled window has too noisy a statistic.
    pub min_observations: usize,
    /// Trigger threshold on the *total* windowed log-likelihood-ratio,
    /// in nats. Under a stationary regime both statistics concentrate
    /// around ½·χ²₁ (up to tail-weight inflation of the split test and
    /// estimation-error inflation of the model test — each guarded by
    /// the other through the `min`), so a threshold of ~10 nats gives a
    /// negligible false-positive rate, while a rate doubling contributes
    /// ≈ 0.19 nats *per observation* to both sides and crosses within
    /// roughly two thirds of a window of post-shift data.
    pub threshold: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            window: 128,
            min_observations: 48,
            threshold: 10.0,
        }
    }
}

impl DetectorConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// [`DistError::InvalidData`] on a zero-sized window, a minimum
    /// larger than the window, or a non-positive/non-finite threshold.
    pub fn validate(&self) -> Result<()> {
        if self.window == 0 || self.min_observations == 0 || self.min_observations > self.window {
            return Err(DistError::InvalidData {
                message: "detector window/min_observations inconsistent",
            });
        }
        if !(self.threshold.is_finite() && self.threshold > 0.0) {
            return Err(DistError::InvalidData {
                message: "detector threshold must be finite and positive",
            });
        }
        Ok(())
    }
}

/// Windowed log-likelihood-ratio change-point detector.
///
/// For each observation the caller supplies the duration and its
/// log-density under the **currently installed** fit. The detector keeps
/// the last `window` of both and two GLR statistics over it:
///
/// ```text
/// Λ_model = sup_λ Σ ln f_exp(xᵢ; λ) − Σ ln f_current(xᵢ)
/// Λ_split = sup split exp ll(ref) + exp ll(win) − sup pooled exp ll(ref ∪ win)
/// ```
///
/// `Λ_model` — the best single-exponential explanation of the recent
/// window versus the standing model — tracks *family* misfit: under a
/// heavy-tailed stationary regime its best case is `−n·KL(f‖exp)`,
/// strictly negative, so heavy-tail stationarity cannot fire it. But it
/// also inflates by `n·KL(truth‖fitted)` when the installed fit carries
/// *estimation error* (a 25-observation training prefix easily mis-sets
/// an exponential mean by 40%), which is not a regime shift.
///
/// `Λ_split` — the classic two-sample exponential GLR between a
/// reference sample and the sliding window — is immune to estimation
/// error: under any stationary regime both samples share a mean and the
/// statistic concentrates as ½·χ²₁ (scaled by the regime's tail
/// weight). But heavy tails inflate its noise. Armed via
/// [`RegimeDetector::reset_armed`] (what [`StreamingFit`] does on every
/// install), the reference starts **empty** and absorbs every
/// observation that falls off the test window without triggering —
/// accumulated post-install stationary evidence, so the split test
/// sharpens the longer a regime holds. The training sample itself is
/// deliberately excluded: its sampling noise is exactly what the
/// installed fit inherited, so using it as the reference would make
/// both statistics fire together on nothing more than an unlucky
/// training draw.
///
/// Each statistic false-positives where the other is calibrated, so an
/// armed detector triggers only when **both** clear the threshold:
/// `min(Λ_model, Λ_split) > threshold`, and not at all until the
/// reference has accumulated `min_observations` (an un-armed detector —
/// plain [`RegimeDetector::reset`] or fresh construction — decides on
/// `Λ_model` alone). A genuine rate move drives both, a family move
/// with a rate component drives both; the deliberate blind spot is an
/// exactly-mean-preserving shape change, which checkpoint placement is
/// least sensitive to. All supremums are closed-form from sufficient
/// statistics, so the test is O(1) arithmetic per observation on top of
/// the O(1) window update. After a refit the caller re-arms the
/// detector; the new fit explains the recent window, pushing both
/// statistics back toward zero.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegimeDetector {
    config: DetectorConfig,
    /// Recent durations (for the exponential alternative).
    window: SlidingWindow,
    /// Matching log-densities under the current fit.
    log_pdf: VecDeque<f64>,
    /// Two-sample reference: accumulates observations evicted from the
    /// test window since the last (armed) reset. `None` = un-armed.
    reference: Option<WindowStats>,
    /// Observations since the last reset.
    since_reset: usize,
    /// Triggers since construction.
    triggers: u64,
}

impl RegimeDetector {
    /// Build a detector.
    ///
    /// # Errors
    /// Propagates [`DetectorConfig::validate`].
    pub fn new(config: DetectorConfig) -> Result<Self> {
        config.validate()?;
        let window = SlidingWindow::new(config.window)?;
        Ok(Self {
            config,
            window,
            log_pdf: VecDeque::new(),
            reference: None,
            since_reset: 0,
            triggers: 0,
        })
    }

    /// Record one observation and its log-density under the current fit;
    /// returns `true` when the windowed statistic exceeds the threshold.
    ///
    /// # Errors
    /// [`DistError::InvalidData`] on non-finite/non-positive durations.
    pub fn observe(&mut self, x: f64, log_pdf_current: f64) -> Result<bool> {
        let evicted = self.window.push(x)?;
        // An observation falling off the test window was seen without
        // triggering — it is stationary evidence, so it joins the
        // reference sample and sharpens the split test over time.
        if let (Some(r), Some(old)) = (self.reference.as_mut(), evicted) {
            r.add(old);
        }
        if self.log_pdf.len() == self.config.window {
            self.log_pdf.pop_front();
        }
        // NaN (from a caller feeding a broken fit) counts as "the model
        // cannot explain this" — same as underflow.
        let lp = if log_pdf_current.is_nan() {
            LOG_PDF_FLOOR
        } else {
            log_pdf_current.max(LOG_PDF_FLOOR)
        };
        self.log_pdf.push_back(lp);
        self.since_reset += 1;
        if self.since_reset < self.config.min_observations {
            return Ok(false);
        }
        let fired = match self.decision_statistic() {
            Some(s) => s > self.config.threshold,
            None => false,
        };
        if fired {
            self.triggers += 1;
        }
        Ok(fired)
    }

    /// The statistic the trigger compares against the threshold, or
    /// `None` while an armed detector's reference is still below
    /// `min_observations` (no trigger possible yet).
    fn decision_statistic(&self) -> Option<f64> {
        match &self.reference {
            None => Some(self.model_statistic()),
            Some(r) if r.n < self.config.min_observations => None,
            Some(_) => {
                let split = self.split_statistic()?;
                Some(self.model_statistic().min(split))
            }
        }
    }

    /// The trigger statistic, in nats: `min(Λ_model, Λ_split)` when
    /// armed (−∞ while the reference is still warming up — no trigger
    /// possible), `Λ_model` alone when un-armed. Both sides are
    /// recomputed exactly from the (small) deque and sufficient
    /// statistics on every call — order-stable, so the detector's
    /// decisions are bitwise reproducible regardless of how pushes were
    /// batched.
    pub fn statistic(&self) -> f64 {
        self.decision_statistic().unwrap_or(f64::NEG_INFINITY)
    }

    /// `Λ_model`: window under its own exp MLE minus window under the
    /// installed fit.
    pub fn model_statistic(&self) -> f64 {
        let alt = self.window.stats().exp_mle_log_likelihood();
        let cur: f64 = self.log_pdf.iter().sum();
        alt - cur
    }

    /// `Λ_split`: two-sample exponential GLR between the accumulated
    /// reference and the current window, **studentized** by the pooled
    /// squared coefficient of variation; `None` when un-armed or either
    /// side is still empty/degenerate.
    ///
    /// The raw exponential GLR concentrates as `CV²·χ²₁/2` under *any*
    /// finite-variance stationary regime (the mean-difference statistic
    /// it reduces to has variance proportional to the data's CV², and
    /// the exponential null assumes CV² = 1). Dividing by the pooled
    /// empirical CV² restores the ½·χ²₁ calibration for heavy-tailed
    /// regimes without giving up closed-form sufficient-statistic
    /// arithmetic; for exponential data the correction is ≈ 1 and
    /// changes nothing. The divisor is floored to keep near-degenerate
    /// (almost-constant-duration) windows finite.
    pub fn split_statistic(&self) -> Option<f64> {
        let r = self.reference?;
        let w = self.window.stats();
        if r.n == 0 || w.n == 0 || r.sum <= 0.0 || w.sum <= 0.0 {
            return None;
        }
        let split = r.exp_mle_log_likelihood() + w.exp_mle_log_likelihood();
        let pooled = r.merge(&w);
        let glr = split - pooled.exp_mle_log_likelihood();
        Some(glr / pooled.cv_squared().max(0.01))
    }

    /// Forget the window — called after a refit installed a new model
    /// (the recorded log-densities no longer describe it). Dis-arms the
    /// split test; prefer [`RegimeDetector::reset_armed`] in a
    /// streaming pipeline.
    pub fn reset(&mut self) {
        self.window.clear();
        self.log_pdf.clear();
        self.reference = None;
        self.since_reset = 0;
    }

    /// [`RegimeDetector::reset`], then arm the two-sample split test:
    /// the reference starts empty, accumulates observations as they age
    /// out of the test window, and until it holds `min_observations`
    /// the detector cannot trigger at all.
    pub fn reset_armed(&mut self) {
        self.reset();
        self.reference = Some(WindowStats::empty());
    }

    /// Count-only readiness: `m` such that the `m`-th observation from
    /// now is the first that can fire (always ≥ 1). It needs
    /// `since_reset` to reach `min_observations` and, when armed, the
    /// split reference to hold `min_observations` — which it only gains
    /// through evictions once the test window is full, so right after
    /// [`RegimeDetector::reset_armed`] it is `window + min_observations`,
    /// the most it can be. A lower bound on the actual first trigger,
    /// computed from counts alone: no duration or log-density can make
    /// the detector fire sooner.
    pub fn observations_until_ready(&self) -> usize {
        let c = &self.config;
        let since_reset = c.min_observations.saturating_sub(self.since_reset);
        let reference = match self.reference {
            None => 0,
            Some(r) => match c.min_observations.saturating_sub(r.n) {
                0 => 0,
                missing => missing + (c.window - self.window.len()),
            },
        };
        since_reset.max(reference).max(1)
    }

    /// Triggers fired since construction.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }
}

/// Why a refit is being (or was) performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefitTrigger {
    /// The window first reached `min_fit_observations`: nothing was
    /// fitted yet. Always a full (multi-start) fit.
    InitialFit,
    /// The change-point detector fired: the regime moved, so the stale
    /// optimum is not trusted as a warm start — full multi-start refit.
    RegimeShift,
    /// Periodic refresh while stationary: the window slid far enough
    /// that the fit should track it. Warm (resumed) refit.
    Refresh,
}

/// Tunables for [`StreamingFit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingFitConfig {
    /// Which family this machine is fitted with.
    pub kind: ModelKind,
    /// Observation window refits see.
    pub window: usize,
    /// First fit happens once this many observations arrived (the batch
    /// pipeline's training-prefix length keeps streaming's initial fit
    /// bitwise-comparable to batch).
    pub min_fit_observations: usize,
    /// Change-point detector settings.
    pub detector: DetectorConfig,
    /// Warm-refresh cadence: a refit every `refresh_every` observations
    /// even without a detector trigger (`None` disables refreshes).
    pub refresh_every: Option<usize>,
    /// E-step budget of a warm (resumed) EM refit. The resume takes the
    /// same SQUAREM cycles as the batch fit ([`EmState::advance`]), each
    /// spending up to three E-steps, so the default 400 buys 133 cycles.
    pub warm_iterations: usize,
}

impl Default for StreamingFitConfig {
    /// Weibull fits over a 64-observation window, first fit at 25
    /// observations, the default detector, a warm refresh every 64
    /// observations and a 400-E-step warm EM budget.
    ///
    /// With these defaults the regime-shift path never fires while
    /// refits succeed: every installed refit re-arms the detector, which
    /// then needs `window + min_observations` = 128 + 48 observations
    /// before it can first fire
    /// ([`RegimeDetector::observations_until_ready`]), but the next
    /// refresh comes after 64. Only a failed refit, which
    /// leaves the detector running, can let it reach readiness. A
    /// detector that should catch shifts between refreshes needs
    /// `refresh_every` above its armed readiness, or no refresh at all.
    fn default() -> Self {
        Self {
            kind: ModelKind::Weibull,
            window: 64,
            min_fit_observations: 25,
            detector: DetectorConfig::default(),
            refresh_every: Some(64),
            warm_iterations: 400,
        }
    }
}

impl StreamingFitConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// [`DistError::InvalidData`] on inconsistent sizes, plus anything
    /// [`DetectorConfig::validate`] rejects.
    pub fn validate(&self) -> Result<()> {
        if self.window == 0
            || self.min_fit_observations == 0
            || self.min_fit_observations > self.window
        {
            return Err(DistError::InvalidData {
                message: "streaming window/min_fit_observations inconsistent",
            });
        }
        if self.refresh_every == Some(0) || self.warm_iterations == 0 {
            return Err(DistError::InvalidData {
                message: "refresh_every/warm_iterations must be positive",
            });
        }
        self.detector.validate()
    }
}

/// Outcome of one [`refit_window`] call: the model to install plus the
/// resumable EM state to persist for the next warm refit (hyperexponential
/// family only).
#[derive(Debug, Clone)]
pub struct RefitOutcome {
    /// The freshly fitted model.
    pub model: FittedModel,
    /// Resumable state seeding the next warm refit.
    pub em: Option<EmState>,
}

/// Fit `kind` to one window of observations.
///
/// * `prior = None` (or a non-hyperexponential family): the **batch
///   estimator verbatim** — [`fit_model`] on the window, so a streaming
///   full refit is bitwise-equal to the batch pipeline fitting the same
///   data (the scheduler's differential suite pins this).
/// * `prior = Some(state)`: **warm refit** — the persisted [`EmState`]
///   is re-opened on the new window, advanced up to `warm_iterations`
///   E-steps of accelerated EM, and *raced* against the full
///   multi-start: the
///   candidate with the higher window log-likelihood wins (ties go to
///   the full fit, keeping the batch answer the canonical one). The
///   warm continuation preserves fit continuity on drifting data;
///   racing it guarantees a stationary stream never ends worse than
///   the batch estimator — the hyperexponential likelihood is
///   ridge-shaped on (effectively) exponential data, where a resumed
///   state can crawl to a different ridge point than the multi-start
///   reaches. Exponential and Weibull estimators are closed-form /
///   Newton and simply refit; only the EM family benefits from
///   resuming.
///
/// Pure function of its arguments: scheduler fan-outs may evaluate it on
/// any thread without perturbing results.
///
/// # Errors
/// Whatever the underlying estimator reports ([`DistError::InvalidData`],
/// [`DistError::NoConvergence`]).
pub fn refit_window(
    kind: ModelKind,
    window: &[f64],
    prior: Option<&EmState>,
    warm_iterations: usize,
) -> Result<RefitOutcome> {
    let warm = if let (ModelKind::HyperExponential { .. }, Some(state)) = (kind, prior) {
        let mut state = state.clone();
        state.reopen();
        // Sized to the state, which may hold fewer phases than `kind`
        // when the installed fit collapsed.
        let mut scratch = EmScratch::new(state.rates().len());
        let options = EmOptions::default();
        state.advance(window, warm_iterations, &options, &mut scratch);
        match (state.is_dead(), state.model()) {
            (false, Ok(model)) => Some((model, state)),
            // Degenerated warm resume: the full multi-start decides alone.
            _ => None,
        }
    } else {
        None
    };
    let model = fit_model(kind, window)?;
    if let Some((warm_model, warm_state)) = warm {
        let warm_fitted = FittedModel::HyperExponential(warm_model);
        // Same naive ln-pdf sum for both candidates: a fair race.
        if window_log_likelihood(&warm_fitted, window) > window_log_likelihood(&model, window) {
            return Ok(RefitOutcome {
                model: warm_fitted,
                em: Some(warm_state),
            });
        }
    }
    let em = match &model {
        FittedModel::HyperExponential(h) => Some(EmState::from_model(h)),
        _ => None,
    };
    Ok(RefitOutcome { model, em })
}

/// Log-likelihood of `model` over `window`, with the same underflow
/// floor both race candidates see.
fn window_log_likelihood(model: &FittedModel, window: &[f64]) -> f64 {
    window
        .iter()
        .map(|&x| model.pdf(x).max(f64::MIN_POSITIVE).ln())
        .sum()
}

/// A refit due on one machine: the window as it was at the trigger and
/// the warm-start state, borrowed from the machine's [`StreamingFit`].
/// [`RefitJob::run`] is a pure function of these, so the jobs of
/// different machines may run on any thread, in any order, and still
/// give the inline result bitwise.
#[derive(Debug, Clone, Copy)]
pub struct RefitJob<'a> {
    kind: ModelKind,
    window: JobWindow<'a>,
    /// Only a stationary [`RefitTrigger::Refresh`] trusts the standing
    /// optimum; initial fits and regime shifts run the full multi-start.
    prior: Option<&'a EmState>,
    warm_iterations: usize,
}

/// Where a job reads the window at its trigger from.
#[derive(Debug, Clone, Copy)]
enum JobWindow<'a> {
    /// Nothing was observed since the trigger: the live window.
    Live(&'a SlidingWindow),
    /// Copied before the first observation after the trigger.
    Snapshot(&'a [f64]),
}

impl RefitJob<'_> {
    /// Run the refit: [`refit_window`] on the captured inputs.
    ///
    /// # Errors
    /// Whatever [`refit_window`] reports.
    pub fn run(&self) -> Result<RefitOutcome> {
        let live;
        let window = match self.window {
            JobWindow::Live(w) => {
                live = w.snapshot();
                &live
            }
            JobWindow::Snapshot(w) => w,
        };
        refit_window(self.kind, window, self.prior, self.warm_iterations)
    }
}

/// A refit whose outcome is not applied yet. The window at the trigger
/// is copied only once an observation arrives behind it, so a job
/// resolved before that holds no copy.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PendingRefit {
    trigger: RefitTrigger,
    /// `observations` when the trigger fired.
    at: u64,
    /// The first observation count whose trigger could depend on the
    /// outcome.
    horizon: u64,
    /// The window at the trigger, once later observations moved it.
    snapshot: Option<Vec<f64>>,
    /// Durations observed since the trigger; their detector pushes wait
    /// for the outcome.
    replay: Vec<f64>,
}

/// Per-machine streaming state: window + detector + the installed fit.
///
/// A refit runs in three steps: [`StreamingFit::observe`] returns the
/// trigger and parks the [`RefitJob`] ([`StreamingFit::pending_job`]);
/// [`RefitJob::run`] fits it, on any thread; [`StreamingFit::apply`]
/// installs the outcome. [`StreamingFit::step`] runs all three inline.
///
/// Between the trigger and `apply` the fit keeps accepting observations
/// for as long as the trigger of the next one cannot depend on the
/// outcome ([`StreamingFit::accepts_observation`]). Each goes into the
/// window at once; its detector push is replayed at `apply` under
/// whichever model is installed then. The horizon is the next
/// observation after an [`RefitTrigger::InitialFit`] (a failed initial
/// fit triggers again at once); otherwise the earliest of the refresh
/// cadence (the same on success and failure) and the detector's
/// readiness on both branches ([`RegimeDetector::observations_until_ready`]):
/// unchanged after a failure, re-armed after a success — and a re-armed
/// detector is never closer to readiness, so the failure branch bounds
/// both. Deferred and inline runs therefore return the same triggers and
/// reach the same state bitwise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingFit {
    config: StreamingFitConfig,
    window: SlidingWindow,
    detector: RegimeDetector,
    /// Currently installed model (none until the initial fit).
    model: Option<FittedModel>,
    /// Resumable EM state matching `model` (hyperexponential only).
    em: Option<EmState>,
    observations: u64,
    observations_at_fit: u64,
    refits: u64,
    refit_failures: u64,
    pending: Option<PendingRefit>,
}

impl StreamingFit {
    /// Build the per-machine state.
    ///
    /// # Errors
    /// Propagates [`StreamingFitConfig::validate`].
    pub fn new(config: StreamingFitConfig) -> Result<Self> {
        config.validate()?;
        let window = SlidingWindow::new(config.window)?;
        let detector = RegimeDetector::new(config.detector.clone())?;
        Ok(Self {
            config,
            window,
            detector,
            model: None,
            em: None,
            observations: 0,
            observations_at_fit: 0,
            refits: 0,
            refit_failures: 0,
            pending: None,
        })
    }

    /// Record one duration; returns the refit now due, if any, and
    /// captures it as the pending job. The change-point test only runs
    /// once a model is installed (there is nothing to compare against
    /// before). While a job is pending the observation only enters the
    /// window and no trigger fires.
    ///
    /// # Errors
    /// [`DistError::InvalidData`] on non-finite/non-positive durations,
    /// or when the pending refit must be applied first
    /// ([`StreamingFit::accepts_observation`]). Nothing is recorded.
    pub fn observe(&mut self, x: f64) -> Result<Option<RefitTrigger>> {
        if !self.accepts_observation() {
            return Err(DistError::InvalidData {
                message: "the pending refit must be applied before the next observation",
            });
        }
        validate_duration(x)?;
        if let Some(pending) = &mut self.pending {
            pending
                .snapshot
                .get_or_insert_with(|| self.window.snapshot());
            pending.replay.push(x);
        }
        self.window.push(x)?;
        self.observations += 1;
        if self.pending.is_some() {
            return Ok(None);
        }
        let trigger = match &self.model {
            None => (self.window.len() >= self.config.min_fit_observations)
                .then_some(RefitTrigger::InitialFit),
            Some(model) => {
                let lp = model.as_model().pdf(x).ln();
                if self.detector.observe(x, lp)? {
                    Some(RefitTrigger::RegimeShift)
                } else {
                    self.config
                        .refresh_every
                        .filter(|&every| {
                            self.observations - self.observations_at_fit >= every as u64
                        })
                        .map(|_| RefitTrigger::Refresh)
                }
            }
        };
        if let Some(trigger) = trigger {
            self.park(trigger);
        }
        Ok(trigger)
    }

    /// Park the refit for `trigger` with the horizon up to which later
    /// observations cannot depend on its outcome.
    fn park(&mut self, trigger: RefitTrigger) {
        let wait = match trigger {
            RefitTrigger::InitialFit => 1,
            // The refresh cadence restarts at the trigger on both
            // branches. A failure leaves the detector as it is; a success
            // re-arms it, which puts it at least as far from readiness
            // (`window + min_observations`), so the failure branch bounds
            // both.
            RefitTrigger::RegimeShift | RefitTrigger::Refresh => {
                let detector = self.detector.observations_until_ready();
                self.config
                    .refresh_every
                    .map_or(detector, |every| every.min(detector))
            }
        };
        self.pending = Some(PendingRefit {
            trigger,
            at: self.observations,
            horizon: self.observations + wait as u64,
            snapshot: None,
            replay: Vec::new(),
        });
    }

    /// Whether [`StreamingFit::observe`] may take the next observation
    /// now: always, unless a pending refit's outcome could change that
    /// observation's trigger.
    pub fn accepts_observation(&self) -> bool {
        self.pending
            .as_ref()
            .is_none_or(|p| self.observations + 1 < p.horizon)
    }

    /// The refit due at the last trigger and not yet applied. The EM
    /// state only changes at [`StreamingFit::apply`], so the one
    /// installed now is the one the trigger saw.
    pub fn pending_job(&self) -> Option<RefitJob<'_>> {
        let pending = self.pending.as_ref()?;
        Some(RefitJob {
            kind: self.config.kind,
            window: match &pending.snapshot {
                Some(w) => JobWindow::Snapshot(w),
                None => JobWindow::Live(&self.window),
            },
            prior: match pending.trigger {
                RefitTrigger::Refresh => self.em.as_ref(),
                RefitTrigger::InitialFit | RefitTrigger::RegimeShift => None,
            },
            warm_iterations: self.config.warm_iterations,
        })
    }

    /// The current window contents, oldest first — at a trigger, the
    /// input its refit sees.
    pub fn refit_input(&self) -> Vec<f64> {
        self.window.snapshot()
    }

    /// Apply the outcome of the pending job ([`RefitJob::run`]), then
    /// replay the detector pushes of the observations parked behind it
    /// under whichever model is installed now. Does nothing without a
    /// pending job.
    ///
    /// A success installs the model and its EM state and re-arms the
    /// detector against it (empty split reference — the training
    /// window's noise is already baked into the fit and must not double
    /// as evidence). A failure is counted
    /// ([`StreamingFit::refit_failures`]) and installs nothing: the
    /// previous model keeps serving (stale beats absent), and a failed
    /// initial fit leaves the machine unfitted, so the next observation
    /// triggers it again. Either way the refresh cadence restarts at the
    /// trigger, so a failing refresh retries at the next one rather than
    /// on every observation.
    pub fn apply(&mut self, outcome: Result<RefitOutcome>) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        match outcome {
            Ok(outcome) => {
                self.model = Some(outcome.model);
                self.em = outcome.em;
                self.detector.reset_armed();
                self.refits += 1;
            }
            Err(_) => self.refit_failures += 1,
        }
        self.observations_at_fit = pending.at;
        if let Some(model) = &self.model {
            for x in pending.replay {
                let lp = model.as_model().pdf(x).ln();
                let fired = self
                    .detector
                    .observe(x, lp)
                    .expect("the window accepted this duration");
                debug_assert!(!fired, "a parked observation reached detector readiness");
            }
        }
    }

    /// Observe, and when a refit is due run it inline and apply it.
    /// Returns the trigger that fired, if any, whether or not its refit
    /// succeeded ([`StreamingFit::apply`]).
    ///
    /// # Errors
    /// As [`StreamingFit::observe`].
    pub fn step(&mut self, x: f64) -> Result<Option<RefitTrigger>> {
        let trigger = self.observe(x)?;
        if let Some(job) = self.pending_job() {
            let outcome = job.run();
            self.apply(outcome);
        }
        Ok(trigger)
    }

    /// The installed model, if any.
    pub fn model(&self) -> Option<&FittedModel> {
        self.model.as_ref()
    }

    /// The resumable EM state matching the installed model.
    pub fn em_state(&self) -> Option<&EmState> {
        self.em.as_ref()
    }

    /// The change-point detector.
    pub fn detector(&self) -> &RegimeDetector {
        &self.detector
    }

    /// Total observations seen.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Refits installed.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Refits that failed and installed nothing.
    pub fn refit_failures(&self) -> u64 {
        self.refit_failures
    }

    /// Change-point triggers fired by the detector.
    pub fn triggers(&self) -> u64 {
        self.detector.triggers()
    }

    /// The configuration in use.
    pub fn config(&self) -> &StreamingFitConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AvailabilityModel, Exponential, Weibull};
    use rand::SeedableRng;

    #[test]
    fn window_rejects_bad_input() {
        assert!(SlidingWindow::new(0).is_err());
        let mut w = SlidingWindow::new(4).unwrap();
        assert!(w.push(0.0).is_err());
        assert!(w.push(-1.0).is_err());
        assert!(w.push(f64::NAN).is_err());
        assert!(w.push(f64::INFINITY).is_err());
        assert!(w.push(5.0).unwrap().is_none());
    }

    #[test]
    fn window_evicts_and_tracks_stats() {
        let mut w = SlidingWindow::new(3).unwrap();
        for x in [1.0, 2.0, 3.0] {
            assert!(w.push(x).unwrap().is_none());
        }
        assert!(w.is_full());
        assert_eq!(w.push(4.0).unwrap(), Some(1.0));
        assert_eq!(w.snapshot(), vec![2.0, 3.0, 4.0]);
        let s = w.stats();
        assert_eq!(s.n, 3);
        assert!((s.sum - 9.0).abs() < 1e-12);
        let exact: f64 = w.iter().map(|x| x.ln()).sum();
        assert!((s.sum_ln - exact).abs() < 1e-12);
    }

    #[test]
    fn window_stats_stay_near_exact_over_long_streams() {
        // 10k pushes through a 16-slot window: periodic rebuilds must keep
        // the incremental sums within tight relative error of an exact
        // recompute.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let gen = Weibull::paper_exemplar();
        let mut w = SlidingWindow::new(16).unwrap();
        for _ in 0..10_000 {
            w.push(gen.sample(&mut rng)).unwrap();
        }
        let s = w.stats();
        let exact_sum: f64 = w.iter().sum();
        let exact_ln: f64 = w.iter().map(|x| x.ln()).sum();
        assert!((s.sum - exact_sum).abs() <= 1e-9 * exact_sum.abs().max(1.0));
        assert!((s.sum_ln - exact_ln).abs() <= 1e-9 * exact_ln.abs().max(1.0));
    }

    #[test]
    fn exp_mle_log_likelihood_matches_model() {
        let data = [120.0, 400.0, 77.0, 901.0, 333.0];
        let mut w = SlidingWindow::new(8).unwrap();
        for &x in &data {
            w.push(x).unwrap();
        }
        let s = w.stats();
        let fit = Exponential::from_mean(s.mean()).unwrap();
        let direct = fit.log_likelihood(&data);
        assert!((s.exp_mle_log_likelihood() - direct).abs() < 1e-9 * direct.abs());
    }

    #[test]
    fn detector_config_validation() {
        assert!(RegimeDetector::new(DetectorConfig {
            window: 0,
            ..DetectorConfig::default()
        })
        .is_err());
        assert!(RegimeDetector::new(DetectorConfig {
            min_observations: 99,
            window: 64,
            ..DetectorConfig::default()
        })
        .is_err());
        assert!(RegimeDetector::new(DetectorConfig {
            threshold: 0.0,
            ..DetectorConfig::default()
        })
        .is_err());
        assert!(RegimeDetector::new(DetectorConfig::default()).is_ok());
    }

    #[test]
    fn detector_silent_before_min_observations() {
        let mut d = RegimeDetector::new(DetectorConfig {
            window: 16,
            min_observations: 16,
            threshold: 0.001, // hair trigger — only the warm-up gate holds it
        })
        .unwrap();
        // Log-densities of a wildly wrong model: would trip instantly if
        // the warm-up gate were absent.
        for i in 0..15 {
            assert!(!d.observe(100.0 + i as f64, -1e6).unwrap());
        }
        assert!(d.observe(200.0, -1e6).unwrap());
    }

    #[test]
    fn streaming_config_validation() {
        assert!(StreamingFit::new(StreamingFitConfig {
            window: 10,
            min_fit_observations: 20,
            ..StreamingFitConfig::default()
        })
        .is_err());
        assert!(StreamingFit::new(StreamingFitConfig {
            refresh_every: Some(0),
            ..StreamingFitConfig::default()
        })
        .is_err());
        assert!(StreamingFit::new(StreamingFitConfig::default()).is_ok());
    }

    #[test]
    fn initial_fit_fires_at_min_observations() {
        let mut s = StreamingFit::new(StreamingFitConfig {
            min_fit_observations: 25,
            ..StreamingFitConfig::default()
        })
        .unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let gen = Weibull::paper_exemplar();
        for i in 0..24 {
            assert_eq!(s.step(gen.sample(&mut rng)).unwrap(), None, "obs {i}");
            assert!(s.model().is_none());
        }
        assert_eq!(
            s.step(gen.sample(&mut rng)).unwrap(),
            Some(RefitTrigger::InitialFit)
        );
        assert!(s.model().is_some());
        assert_eq!(s.refits(), 1);
    }

    #[test]
    fn initial_fit_is_bitwise_batch_fit() {
        // The streaming initial fit on the first 25 observations must be
        // exactly fit_model on those observations.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let gen = Weibull::paper_exemplar();
        let data: Vec<f64> = (0..25).map(|_| gen.sample(&mut rng)).collect();
        for kind in ModelKind::PAPER_SET {
            let mut s = StreamingFit::new(StreamingFitConfig {
                kind,
                min_fit_observations: 25,
                refresh_every: None,
                ..StreamingFitConfig::default()
            })
            .unwrap();
            for &x in &data {
                s.step(x).unwrap();
            }
            let batch = fit_model(kind, &data).unwrap();
            let stream = s.model().expect("fitted");
            assert_eq!(
                serde_json::to_string(stream).unwrap(),
                serde_json::to_string(&batch).unwrap(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn refresh_cadence_refits_warm() {
        let mut s = StreamingFit::new(StreamingFitConfig {
            kind: ModelKind::HyperExponential { phases: 2 },
            window: 64,
            min_fit_observations: 25,
            refresh_every: Some(32),
            // Stationary: the detector must not fire, only refreshes.
            ..StreamingFitConfig::default()
        })
        .unwrap();
        let truth =
            crate::HyperExponential::new(&[(0.6, 1.0 / 200.0), (0.4, 1.0 / 20_000.0)]).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut refreshes = 0;
        for _ in 0..200 {
            if let Some(RefitTrigger::Refresh) = s.step(truth.sample(&mut rng)).unwrap() {
                refreshes += 1;
            }
        }
        assert!(refreshes >= 3, "refreshes {refreshes}");
        assert_eq!(s.triggers(), 0, "stationary stream tripped the detector");
        assert!(s.em_state().is_some());
    }

    #[test]
    fn failed_refit_keeps_previous_model() {
        // A window collapsing to identical values defeats the Weibull
        // Newton solve; the streaming fit must keep serving the old model.
        let mut s = StreamingFit::new(StreamingFitConfig {
            kind: ModelKind::Weibull,
            window: 32,
            min_fit_observations: 8,
            refresh_every: Some(8),
            detector: DetectorConfig {
                window: 32,
                min_observations: 8,
                threshold: 8.0,
            },
            ..StreamingFitConfig::default()
        })
        .unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let gen = Weibull::paper_exemplar();
        for _ in 0..8 {
            s.step(gen.sample(&mut rng)).unwrap();
        }
        let before = serde_json::to_string(s.model().unwrap()).unwrap();
        // Constant durations: Weibull MLE degenerates (shape → ∞).
        for _ in 0..64 {
            s.step(500.0).unwrap();
        }
        assert!(
            s.model().is_some(),
            "model must survive refit failures: {before}"
        );
        assert!(s.refit_failures() > 0);
    }

    #[test]
    fn failed_initial_fit_is_counted_and_retried() {
        // Identical durations defeat the Weibull fit from the start: every
        // observation from the 8th on triggers an initial fit that fails.
        let mut s = StreamingFit::new(StreamingFitConfig {
            window: 16,
            min_fit_observations: 8,
            ..StreamingFitConfig::default()
        })
        .unwrap();
        for i in 1..=20u64 {
            let trigger = s.step(500.0).unwrap();
            assert_eq!(trigger, (i >= 8).then_some(RefitTrigger::InitialFit));
        }
        assert!(s.model().is_none());
        assert_eq!((s.refits(), s.refit_failures()), (0, 13));
    }

    #[test]
    fn pending_refit_blocks_only_past_its_horizon() {
        let mut s = StreamingFit::new(StreamingFitConfig {
            window: 16,
            min_fit_observations: 8,
            refresh_every: Some(10),
            ..StreamingFitConfig::default()
        })
        .unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let gen = Weibull::paper_exemplar();
        for _ in 0..7 {
            assert_eq!(s.observe(gen.sample(&mut rng)).unwrap(), None);
        }
        // A failed initial fit would trigger again at once: nothing may
        // be observed behind it.
        assert_eq!(
            s.observe(gen.sample(&mut rng)).unwrap(),
            Some(RefitTrigger::InitialFit)
        );
        assert!(!s.accepts_observation());
        assert!(s.observe(100.0).is_err());
        let outcome = s.pending_job().unwrap().run();
        s.apply(outcome);
        assert!(s.pending_job().is_none() && s.model().is_some());
        // A refresh parks until the next cadence point (the re-armed
        // default detector needs 176 observations).
        for _ in 0..9 {
            assert_eq!(s.observe(gen.sample(&mut rng)).unwrap(), None);
        }
        assert_eq!(
            s.observe(gen.sample(&mut rng)).unwrap(),
            Some(RefitTrigger::Refresh)
        );
        for _ in 0..9 {
            assert!(s.accepts_observation());
            assert_eq!(s.observe(gen.sample(&mut rng)).unwrap(), None);
        }
        assert!(!s.accepts_observation());
        let outcome = s.pending_job().unwrap().run();
        s.apply(outcome);
        assert_eq!(s.refits(), 2);
        assert_eq!(
            s.observe(gen.sample(&mut rng)).unwrap(),
            Some(RefitTrigger::Refresh)
        );
    }

    #[test]
    fn readiness_is_the_first_observation_that_can_fire() {
        // Hair trigger on drifting data: the detector fires at the first
        // observation its counts allow, so readiness must name exactly it.
        let config = DetectorConfig {
            window: 12,
            min_observations: 5,
            threshold: 1e-9,
        };
        for armed in [false, true] {
            for prefix in 0..40 {
                let mut d = RegimeDetector::new(config.clone()).unwrap();
                if armed {
                    d.reset_armed();
                }
                let mut x = 100.0;
                let mut next = || {
                    x *= 1.05;
                    x
                };
                for _ in 0..prefix {
                    d.observe(next(), -1e6).unwrap();
                }
                let ready = d.observations_until_ready();
                let first = (1..).find(|_| d.observe(next(), -1e6).unwrap()).unwrap();
                assert_eq!(first, ready, "armed {armed}, prefix {prefix}");
            }
        }
        let mut d = RegimeDetector::new(DetectorConfig::default()).unwrap();
        d.reset_armed();
        assert_eq!(d.observations_until_ready(), 128 + 48);
    }

    #[test]
    fn default_refresh_preempts_the_regime_shift_path() {
        // A 16x mean shift halfway through: with the default cadence every
        // refresh re-arms the detector before it can fire; without
        // refreshes it catches the shift within a few observations.
        let run = |refresh_every| {
            let mut s = StreamingFit::new(StreamingFitConfig {
                kind: ModelKind::Exponential,
                refresh_every,
                ..StreamingFitConfig::default()
            })
            .unwrap();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
            let before = Exponential::from_mean(1_000.0).unwrap();
            let after = Exponential::from_mean(16_000.0).unwrap();
            (0..2_000)
                .filter(|&i| {
                    let x = if i < 1_000 { &before } else { &after }.sample(&mut rng);
                    s.step(x).unwrap() == Some(RefitTrigger::RegimeShift)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(StreamingFitConfig::default().refresh_every), vec![]);
        let shifts = run(None);
        assert!(
            shifts.first().is_some_and(|&i| (1_000..1_032).contains(&i)),
            "{shifts:?}"
        );
    }

    #[test]
    fn warm_refit_resumes_a_collapsed_state() {
        // A 2-phase fit can collapse to one phase; its warm refresh must
        // run the EM state at its own size.
        let one_phase = crate::HyperExponential::new(&[(1.0, 1.0 / 500.0)]).unwrap();
        let state = EmState::from_model(&one_phase);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let window: Vec<f64> = (0..40).map(|_| one_phase.sample(&mut rng)).collect();
        let kind = ModelKind::HyperExponential { phases: 2 };
        assert!(refit_window(kind, &window, Some(&state), 50).is_ok());
    }
}
