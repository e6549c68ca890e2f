//! The generalized Vaidya checkpoint-interval model and `T_opt` search.

use crate::{MarkovError, Result};
use chs_dist::{ConditionedDist, DistRef, FittedModel};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

/// Relaxed instrumentation counters, compiled in only with the
/// `bench-counters` feature so the hot path stays branch-free in normal
/// builds. The sweep benchmark reads these to report Γ-evaluation counts
/// alongside wall-clock numbers.
#[cfg(feature = "bench-counters")]
pub mod counters {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Total Γ(T) evaluations since the last [`reset`].
    pub static GAMMA_EVALS: AtomicU64 = AtomicU64::new(0);
    /// Fresh-quantity memo hits since the last [`reset`].
    pub static FRESH_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
    /// Fresh-quantity memo misses (full recomputations) since [`reset`].
    pub static FRESH_MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

    /// Zero all counters.
    pub fn reset() {
        GAMMA_EVALS.store(0, Relaxed);
        FRESH_MEMO_HITS.store(0, Relaxed);
        FRESH_MEMO_MISSES.store(0, Relaxed);
    }

    /// `(gamma_evals, fresh_memo_hits, fresh_memo_misses)` right now.
    pub fn snapshot() -> (u64, u64, u64) {
        (
            GAMMA_EVALS.load(Relaxed),
            FRESH_MEMO_HITS.load(Relaxed),
            FRESH_MEMO_MISSES.load(Relaxed),
        )
    }
}

/// Phase costs of the recovery–work–checkpoint cycle, all in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCosts {
    /// Checkpoint overhead `C`: the job is stalled while the image moves
    /// to the checkpoint manager.
    pub checkpoint: f64,
    /// Recovery overhead `R`: restoring the last image after a failure.
    pub recovery: f64,
    /// Checkpoint latency `L`: time until the image is stable on the
    /// manager. Sequential non-overlapped checkpointing (the paper's
    /// setting) means `L = C`.
    pub latency: f64,
}

impl CheckpointCosts {
    /// The paper's setting: `C = R` (measured from the same 500 MB
    /// transfer path) and `L = C` (no overlap).
    pub fn symmetric(c: f64) -> Self {
        Self {
            checkpoint: c,
            recovery: c,
            latency: c,
        }
    }

    /// Explicit `C` and `R` with `L = C`.
    pub fn new(checkpoint: f64, recovery: f64) -> Self {
        Self {
            checkpoint,
            recovery,
            latency: checkpoint,
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("checkpoint", self.checkpoint),
            ("recovery", self.recovery),
            ("latency", self.latency),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(MarkovError::InvalidParameter {
                    parameter: name,
                    value: v,
                });
            }
        }
        Ok(())
    }
}

/// The eight transition quantities of the three-state chain for one
/// candidate work interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalQuantities {
    /// Probability the machine survives work + checkpoint.
    pub p01: f64,
    /// Cost of the success path: `C + T`.
    pub k01: f64,
    /// Probability of failure during work or checkpoint.
    pub p02: f64,
    /// Expected time until that failure.
    pub k02: f64,
    /// Probability a fresh machine survives recovery + work + latency.
    pub p21: f64,
    /// Cost of a successful retry: `L + R + T`.
    pub k21: f64,
    /// Probability the retry fails too.
    pub p22: f64,
    /// Expected time of a failed retry.
    pub k22: f64,
}

/// Result of the `T_opt` optimization at a given machine age.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimalInterval {
    /// The optimal work interval `T_opt` in seconds.
    pub work_seconds: f64,
    /// Expected time Γ to complete one interval when using `T_opt`.
    pub gamma: f64,
    /// The minimized overhead ratio `Γ/T_opt` (≥ 1).
    pub overhead_ratio: f64,
    /// Expected efficiency `T_opt/Γ` (≤ 1); the simulation's
    /// steady-state utilization converges to this.
    pub efficiency: f64,
}

/// The age-independent half of [`IntervalQuantities`]: what a *fresh*
/// machine (age 0, i.e. right after a failure) does with the retry
/// horizon `L + R + T`. `k21` is the horizon itself and `p22 = 1 − p21`,
/// so only the two integrals are stored.
#[derive(Debug, Clone, Copy)]
struct FreshQuantities {
    p21: f64,
    k22: f64,
}

/// Slot count of the fresh-quantity memo — a power of two so open
/// addressing can mask instead of mod. Sized for the warm-start probe
/// pattern: a full policy grid fill touches a few hundred distinct `T`
/// values (≈12 probes × 65 ages, heavily overlapping), which fits under
/// the load cap without ever wiping.
const FRESH_MEMO_SLOTS: usize = 512;

/// Wipe threshold (3/4 load): past this, linear probing degrades, so the
/// table is cleared wholesale. Correctness is unaffected — entries are
/// exact recomputation caches — and a wipe is rarer and cheaper than
/// per-insert eviction bookkeeping.
const FRESH_MEMO_MAX_LOAD: usize = 384;

/// Empty-slot sentinel. `u64::MAX` is a NaN bit pattern, which no probed
/// interval produces as a key (and even a crafted one would only turn
/// its own lookups into misses — the memo stays value-transparent).
const FRESH_MEMO_EMPTY: u64 = u64::MAX;

/// Open-addressed `T.to_bits() → FreshQuantities` table with Fibonacci
/// hashing and linear probing. Replaces the exact-f64-key linear-scan
/// `Vec::find` memo: lookups are O(1) instead of O(len), and the warm
/// sweep's repeated boundary probes stay hits across a whole grid fill.
/// The slots are allocated on the first insert, so a model that never
/// probes Γ — every exponential `T_opt` — never pays for the table.
struct FreshMemo {
    slots: Vec<(u64, FreshQuantities)>,
    len: usize,
}

impl FreshMemo {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Home slot: multiply by 2⁶⁴/φ and keep the top `log2(slots)` bits,
    /// which diffuses the near-identical exponent/sign bits of clustered
    /// `T` values.
    #[inline]
    fn home(key: u64) -> usize {
        const SHIFT: u32 = u64::BITS - FRESH_MEMO_SLOTS.trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> SHIFT) as usize
    }

    fn get(&self, key: u64) -> Option<FreshQuantities> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = Self::home(key);
        loop {
            let (k, v) = self.slots[i];
            if k == key {
                return Some(v);
            }
            if k == FRESH_MEMO_EMPTY {
                return None;
            }
            i = (i + 1) & (FRESH_MEMO_SLOTS - 1);
        }
    }

    fn insert(&mut self, key: u64, value: FreshQuantities) {
        if self.slots.is_empty() {
            self.slots =
                vec![(FRESH_MEMO_EMPTY, FreshQuantities { p21: 0.0, k22: 0.0 }); FRESH_MEMO_SLOTS];
        } else if self.len >= FRESH_MEMO_MAX_LOAD {
            for slot in &mut self.slots {
                slot.0 = FRESH_MEMO_EMPTY;
            }
            self.len = 0;
        }
        let mut i = Self::home(key);
        loop {
            let k = self.slots[i].0;
            if k == FRESH_MEMO_EMPTY {
                self.slots[i] = (key, value);
                self.len += 1;
                return;
            }
            if k == key {
                self.slots[i] = (key, value);
                return;
            }
            i = (i + 1) & (FRESH_MEMO_SLOTS - 1);
        }
    }
}

/// `w − expm1(w)` for `w ≤ 0`. Near 0 the plain difference cancels to
/// a relative error of about `ε/|w|`, so above `w = −1e-3` it is summed
/// from its Taylor series `−w²/2·(1 + w/3 + w²/12 + w³/60 + …)`, whose
/// truncation is below 1e-19 relative there.
fn w_minus_expm1(w: f64) -> f64 {
    if w > -1e-3 {
        let tail = 1.0 / 60.0 + w * (1.0 / 360.0 + w / 2_520.0);
        -0.5 * w * w * (1.0 + w * (1.0 / 3.0 + w * (1.0 / 12.0 + w * tail)))
    } else {
        w - w.exp_m1()
    }
}

/// Where the model's distribution lives: borrowed (the original
/// allocation-free binding) or shared behind an [`Arc`] (so a policy can
/// own the model *and* a `'static` optimizer over it — see
/// [`VaidyaModel::shared`]).
enum Source<'a> {
    Borrowed(DistRef<'a>),
    Shared(Arc<FittedModel>),
}

impl Source<'_> {
    /// The distribution, whichever way it is held.
    fn dist(&self) -> DistRef<'_> {
        match self {
            Source::Borrowed(d) => *d,
            Source::Shared(m) => DistRef::from(m.as_ref()),
        }
    }
}

/// Vaidya's model bound to one availability distribution and one set of
/// phase costs.
///
/// Evaluation runs on [`ConditionedDist`] kernels: `optimal_interval`
/// and the lane searches condition the distribution **once per age**
/// and probe Γ through that kernel, and the age-0 (fresh) kernel
/// for the retry quantities is built once per model lifetime. Families
/// are dispatched by enum, so there is no `dyn` call in the search's
/// inner loop.
///
/// `p21`/`k21`/`p22`/`k22` depend only on the distribution and `C+R+L+T`,
/// never on machine age, so they are memoized per candidate `T` in a
/// bits-keyed open-addressed table: repeated Γ evaluations at the same
/// `T` (boundary probes, post-search re-evaluation, grid fills across
/// ages) pay for one conditional-survival evaluation instead of two. The
/// memo is interior-mutable and exact (bit-identical to recomputation),
/// so all `&self` methods keep their signatures and results.
pub struct VaidyaModel<'a> {
    source: Source<'a>,
    costs: CheckpointCosts,
    t_min: f64,
    t_max: f64,
    /// Age-0 kernel for the fresh retry quantities, built once.
    fresh: ConditionedDist,
    fresh_memo: RefCell<FreshMemo>,
}

/// Default lower bound on the searched work interval (seconds): below
/// this, checkpoint overhead swamps all work and Γ/T is astronomically
/// large anyway.
pub const DEFAULT_T_MIN: f64 = 1.0;

impl<'a> VaidyaModel<'a> {
    /// Bind the model to a distribution and costs. Accepts any of the
    /// three family types or a [`FittedModel`]. The optimizer searches
    /// `T ∈ [1 s, max(1000·E[X], 100·(C+R+L))]` in log space; use
    /// [`VaidyaModel::with_bounds`] to override.
    pub fn new(dist: impl Into<DistRef<'a>>, costs: CheckpointCosts) -> Result<Self> {
        Self::from_source(Source::Borrowed(dist.into()), costs)
    }

    /// Bind to a shared fitted model. The returned model is `'static` —
    /// the family kernels own their parameters, so the optimizer can be
    /// stored alongside (or inside) whatever owns the `Arc`.
    pub fn shared(model: Arc<FittedModel>, costs: CheckpointCosts) -> Result<VaidyaModel<'static>> {
        VaidyaModel::from_source(Source::Shared(model), costs)
    }

    fn from_source(source: Source<'a>, costs: CheckpointCosts) -> Result<Self> {
        costs.validate()?;
        let mean = source.dist().mean();
        let span = costs.checkpoint + costs.recovery + costs.latency;
        let t_max = (1_000.0 * mean).max(100.0 * span).max(1e4);
        let fresh = source.dist().condition(0.0);
        Ok(Self {
            source,
            costs,
            t_min: DEFAULT_T_MIN,
            t_max,
            fresh,
            fresh_memo: RefCell::new(FreshMemo::new()),
        })
    }

    /// Override the search bounds for `T` (both must be positive and
    /// `t_min < t_max`).
    pub fn with_bounds(mut self, t_min: f64, t_max: f64) -> Result<Self> {
        if !(t_min.is_finite() && t_min > 0.0) {
            return Err(MarkovError::InvalidParameter {
                parameter: "t_min",
                value: t_min,
            });
        }
        if !(t_max.is_finite() && t_max > t_min) {
            return Err(MarkovError::InvalidParameter {
                parameter: "t_max",
                value: t_max,
            });
        }
        self.t_min = t_min;
        self.t_max = t_max;
        Ok(self)
    }

    /// The phase costs in use.
    pub fn costs(&self) -> CheckpointCosts {
        self.costs
    }

    /// Closed-form `T_opt` when the bound distribution is a memoryless
    /// exponential — borrowed as [`DistRef::Exponential`] or shared as
    /// [`FittedModel::Exponential`] — and `None` otherwise.
    ///
    /// Vaidya's Γ reduces to `e^{λ(L+R−C)}·(e^{λ(C+T)} − 1)/λ`, so R and
    /// L only scale Γ/T and the stationary condition is
    /// `u + ln(1 − u) = −λC` with `u = λT`. Newton runs in
    /// `w = ln(1 − u)` on `h(w) = w − expm1(w) + λC` (see
    /// [`w_minus_expm1`]), which is increasing and concave on `w ≤ 0`.
    /// The start `−√(2λC) − λC` lies at or below the root, so the iterates
    /// rise monotonically; the loop stops at the first step that no
    /// longer increases `w`. The answer is clamped into `[t_min, t_max]`,
    /// where Γ/T's unimodality makes the clamped point the bounded
    /// optimum: `C = 0` gives `t_min`, an overflowing `λC` gives `1/λ`
    /// clamped.
    fn memoryless_optimum(&self) -> Option<f64> {
        let DistRef::Exponential(d) = self.source.dist() else {
            return None;
        };
        let lambda = d.lambda();
        let x = lambda * self.costs.checkpoint;
        // At `x = 0` (w = 0) and `x = +∞` (w = −∞) the first step is NaN
        // and the start is already the answer.
        let mut w = -(2.0 * x).sqrt() - x;
        for _ in 0..64 {
            let next = w + (w_minus_expm1(w) + x) / w.exp_m1();
            if next > w {
                w = next;
            } else {
                break;
            }
        }
        Some((-w.exp_m1() / lambda).clamp(self.t_min, self.t_max))
    }

    /// Condition the distribution on `age` — one kernel construction,
    /// after which Γ probes at that age are conditioning-free.
    fn kernel_at(&self, age: f64) -> ConditionedDist {
        self.source.dist().condition(age)
    }

    /// A Γ evaluator bound to one conditioning age: the kernel is built
    /// here and every [`GammaAtAge::gamma`] probe reuses it. This is the
    /// surface the optimizer uses internally; it is public so callers
    /// with their own probe loops (benchmarks, plotters) can hoist the
    /// conditioning the same way.
    pub fn at_age(&self, age: f64) -> GammaAtAge<'_, 'a> {
        let age = age.max(0.0);
        GammaAtAge {
            model: self,
            kernel: self.kernel_at(age),
            age,
        }
    }

    /// State 2 entries use the unconditional distribution: a failure just
    /// occurred, so the machine age restarts at zero. They depend only on
    /// `t`, so look the pair up in the memo before integrating.
    fn fresh_quantities(&self, t: f64, horizon21: f64) -> FreshQuantities {
        let key = t.to_bits();
        if let Some(q) = self.fresh_memo.borrow().get(key) {
            #[cfg(feature = "bench-counters")]
            counters::FRESH_MEMO_HITS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return q;
        }
        #[cfg(feature = "bench-counters")]
        counters::FRESH_MEMO_MISSES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (p21, k22_raw) = self.fresh.survival_and_truncated_mean(horizon21);
        let k22 = if 1.0 - p21 > 0.0 { k22_raw } else { 0.0 };
        let q = FreshQuantities { p21, k22 };
        self.fresh_memo.borrow_mut().insert(key, q);
        q
    }

    /// Lane-batched [`VaidyaModel::fresh_quantities`]: memo lookups per
    /// lane, then one batched kernel evaluation covering every missing
    /// lane (unused lanes are padded with a missing horizon so the extra
    /// work is a duplicate, not a new probe).
    ///
    /// Memo entries written here are bitwise identical to the scalar
    /// path's for the exponential and Weibull kernels. For the
    /// hyper-exponential kernel the lane integral can differ from the
    /// scalar one by ≲1e-15 relative, so a scalar probe issued after a
    /// lane probe at the same `t` may observe the lane-computed value;
    /// every Γ assembled from either value agrees within 1e-12.
    fn fresh_quantities_x4(&self, t: [f64; 4], horizon21: [f64; 4]) -> [FreshQuantities; 4] {
        let mut out = [FreshQuantities { p21: 0.0, k22: 0.0 }; 4];
        let mut missing = [false; 4];
        {
            let memo = self.fresh_memo.borrow();
            for l in 0..4 {
                match memo.get(t[l].to_bits()) {
                    Some(q) => out[l] = q,
                    None => missing[l] = true,
                }
            }
        }
        #[cfg(feature = "bench-counters")]
        {
            let misses = missing.iter().filter(|&&m| m).count() as u64;
            counters::FRESH_MEMO_HITS.fetch_add(4 - misses, std::sync::atomic::Ordering::Relaxed);
            counters::FRESH_MEMO_MISSES.fetch_add(misses, std::sync::atomic::Ordering::Relaxed);
        }
        if let Some(first) = missing.iter().position(|&m| m) {
            let mut h = [horizon21[first]; 4];
            for l in 0..4 {
                if missing[l] {
                    h[l] = horizon21[l];
                }
            }
            let pairs = self.fresh.survival_and_truncated_mean_x4(h);
            let mut memo = self.fresh_memo.borrow_mut();
            for l in 0..4 {
                if missing[l] {
                    let (p21, k22_raw) = pairs[l];
                    let k22 = if 1.0 - p21 > 0.0 { k22_raw } else { 0.0 };
                    let q = FreshQuantities { p21, k22 };
                    memo.insert(t[l].to_bits(), q);
                    out[l] = q;
                }
            }
        }
        out
    }

    /// Transition probabilities and expected costs for work interval `t`
    /// on a machine of age `age`.
    pub fn quantities(&self, t: f64, age: f64) -> IntervalQuantities {
        let kern = self.kernel_at(age);
        self.quantities_with(&kern, t)
    }

    fn quantities_with(&self, kern: &ConditionedDist, t: f64) -> IntervalQuantities {
        let CheckpointCosts {
            checkpoint: c,
            recovery: r,
            latency: l,
        } = self.costs;
        let horizon01 = c + t;
        let horizon21 = l + r + t;

        let (p01, k02_cond) = kern.survival_and_truncated_mean(horizon01);
        let p02 = 1.0 - p01;
        let k02 = if p02 > 0.0 { k02_cond } else { 0.0 };

        let FreshQuantities { p21, k22 } = self.fresh_quantities(t, horizon21);

        IntervalQuantities {
            p01,
            k01: horizon01,
            p02,
            k02,
            p21,
            k21: horizon21,
            p22: 1.0 - p21,
            k22,
        }
    }

    /// Expected time Γ to advance from state 0 to state 1 (complete one
    /// work-plus-checkpoint interval, including any failure/retry loops).
    ///
    /// Returns `f64::INFINITY` when a fresh machine cannot survive
    /// recovery + work + latency with positive probability (`P21 = 0`) —
    /// the retry loop never terminates.
    pub fn gamma(&self, t: f64, age: f64) -> f64 {
        let kern = self.kernel_at(age);
        self.gamma_with(&kern, t)
    }

    fn gamma_with(&self, kern: &ConditionedDist, t: f64) -> f64 {
        #[cfg(feature = "bench-counters")]
        counters::GAMMA_EVALS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let q = self.quantities_with(kern, t);
        if q.p02 <= 0.0 {
            return q.k01;
        }
        if q.p21 <= f64::MIN_POSITIVE {
            return f64::INFINITY;
        }
        // E[2→1] = K21 + (P22/P21)·K22  (geometric retry sum)
        let retry = q.k21 + (q.p22 / q.p21) * q.k22;
        q.p01 * q.k01 + q.p02 * (q.k02 + retry)
    }

    /// Lane-batched [`VaidyaModel::gamma_with`]: one batched kernel
    /// evaluation for the four conditioned horizons, one batched fresh
    /// lookup, then per-lane Γ assembly replicating the scalar operation
    /// order. Exponential and Weibull lanes are bitwise identical to four
    /// scalar calls; hyper-exponential lanes agree within 1e-12 relative
    /// (the kernel's vectorized phase sweep reorders the reductions).
    fn gamma_with_x4(&self, kern: &ConditionedDist, t: [f64; 4]) -> [f64; 4] {
        #[cfg(feature = "bench-counters")]
        counters::GAMMA_EVALS.fetch_add(4, std::sync::atomic::Ordering::Relaxed);
        let CheckpointCosts {
            checkpoint: c,
            recovery: r,
            latency: l,
        } = self.costs;
        let horizon01 = t.map(|ti| c + ti);
        let horizon21 = t.map(|ti| l + r + ti);
        let pairs = kern.survival_and_truncated_mean_x4(horizon01);
        let fresh = self.fresh_quantities_x4(t, horizon21);
        let mut out = [0.0f64; 4];
        for i in 0..4 {
            let (p01, k02_cond) = pairs[i];
            let p02 = 1.0 - p01;
            let k02 = if p02 > 0.0 { k02_cond } else { 0.0 };
            let FreshQuantities { p21, k22 } = fresh[i];
            out[i] = if p02 <= 0.0 {
                horizon01[i]
            } else if p21 <= f64::MIN_POSITIVE {
                f64::INFINITY
            } else {
                let retry = horizon21[i] + ((1.0 - p21) / p21) * k22;
                p01 * horizon01[i] + p02 * (k02 + retry)
            };
        }
        out
    }

    /// The overhead ratio `Γ(T)/T` the paper minimizes.
    pub fn overhead_ratio(&self, t: f64, age: f64) -> f64 {
        if t <= 0.0 {
            return f64::INFINITY;
        }
        self.gamma(t, age) / t
    }

    /// Expected efficiency `T/Γ(T)` of running with work interval `t`.
    pub fn efficiency(&self, t: f64, age: f64) -> f64 {
        let g = self.gamma(t, age);
        if g.is_finite() && g > 0.0 {
            t / g
        } else {
            0.0
        }
    }

    /// Find `T_opt = argmin Γ(T)/T` for a machine of age `age` by
    /// golden-section search over `ln T` (the objective spans orders of
    /// magnitude in `T`; log-space keeps the search well-conditioned, as
    /// recommended for the Numerical Recipes `golden` routine we mirror).
    ///
    /// The distribution is conditioned on `age` exactly once; every Γ
    /// probe of the search reuses that kernel.
    pub fn optimal_interval(&self, age: f64) -> Result<OptimalInterval> {
        self.optimal_interval_full(&self.at_age(age))
    }

    /// `T_opt` alone from [`VaidyaModel::optimal_interval`]'s search —
    /// bitwise its `work_seconds`, without the trailing Γ(T) evaluation
    /// that assembles the full [`OptimalInterval`].
    pub(crate) fn optimal_work(&self, age: f64) -> Result<f64> {
        self.optimal_work_full(&self.at_age(age))
    }

    /// [`VaidyaModel::optimal_work_full`] packaged into an
    /// [`OptimalInterval`].
    fn optimal_interval_full(&self, view: &GammaAtAge<'_, 'a>) -> Result<OptimalInterval> {
        Ok(view.interval_at(self.optimal_work_full(view)?))
    }

    /// Full-bracket golden-section search through an already-conditioned
    /// view. Shared by the cold search and the warm-start fallback so a
    /// fallback never rebuilds the kernel the warm attempt just used.
    /// Exponential sources skip the search for the closed form.
    fn optimal_work_full(&self, view: &GammaAtAge<'_, 'a>) -> Result<f64> {
        if let Some(t) = self.memoryless_optimum() {
            return Ok(t);
        }
        let lo = self.t_min.ln();
        let hi = self.t_max.ln();
        let obj = view.log_objective();
        let min = chs_numerics::optimize::minimize_bounded(&obj, lo, hi, 1e-9)?;
        // Floor-limited polish (see `spi_refine`): golden section alone
        // stalls on the numerically flat plateau around the minimum.
        let polished = chs_numerics::optimize::spi_refine(&obj, min.x, 2e-3, 12);
        Ok(polished.x.clamp(lo, hi).exp())
    }

    /// [`VaidyaModel::optimal_interval`] warm-started from a nearby known
    /// optimum (typically `T_opt` at an adjacent age on a policy grid),
    /// with 4 Γ probes per kernel pass through [`GammaAtAge::gamma_x4`].
    ///
    /// The search trusts a `±ln 4` window around the hint and falls back
    /// to the full golden-section bracket if the hint is unusable or the
    /// refined point escapes the window (the true optimum moved more than
    /// 4× — possible around the hazard-mixture transitions of
    /// hyper-exponential fits). Used by the policy-table builders, where
    /// every probe arrives with an interpolated or extrapolated hint.
    ///
    /// The located `T_opt` agrees with the scalar cold search to within
    /// the optimizer plateau (≤ 5e-4 relative, inside the 1e-3 serving
    /// budget) but is *not* bitwise identical to it — callers that need
    /// the frozen scalar answer call [`VaidyaModel::optimal_interval`].
    pub fn optimal_interval_near_lane(&self, age: f64, hint: f64) -> Result<OptimalInterval> {
        let t = self.optimal_work_near_lane(age, hint)?;
        Ok(self.at_age(age.max(0.0)).interval_at(t))
    }

    /// `T_opt` alone from the lane-batched warm search — the build-path
    /// probe primitive. The policy builder and cluster verifier consume
    /// only the located work interval, so this skips the trailing Γ(T)
    /// evaluation [`VaidyaModel::optimal_interval_near_lane`] spends
    /// assembling the full [`OptimalInterval`].
    ///
    /// # Errors
    /// Propagates objective failures from the scalar fallback.
    pub fn optimal_work_near_lane(&self, age: f64, hint: f64) -> Result<f64> {
        const LN_SPAN: f64 = 1.386_294_361_119_890_6; // ln 4
        if let Some(t) = self.memoryless_optimum() {
            return Ok(t);
        }
        let age = age.max(0.0);
        if !(hint.is_finite() && hint > 0.0) {
            // Unusable hint: the frozen scalar cold search, so hint
            // quality never changes which reference the caller ends up on.
            return Ok(self.optimal_interval(age)?.work_seconds);
        }
        let view = self.at_age(age);
        let lo = self.t_min.ln();
        let hi = self.t_max.ln();
        let u0 = hint.ln().clamp(lo, hi);
        // Initial ±0.02 window: policy-grid hints are interpolated
        // between exact neighbours, so the true optimum is almost always
        // inside; worse hints recover through the ×4 re-centring rounds.
        // The 12-batch cap bounds the cost of a hopeless hint to about
        // half a full scalar fallback search before escaping into it.
        // The loose 6e-3 bracket tolerance lets a good hint certify in a
        // single batch: the answer is the parabola vertex of the probe
        // triple (spacing 8e-3), whose abscissa error on the smooth
        // near-quadratic ln Γ/T plateau is O(spacing²) ≈ 1e-4 — well
        // inside the 5e-4 per-probe slice of the serving budget. The
        // lane differential tests and the serve-bench fleet accuracy
        // gate hold this bound empirically.
        let refined = chs_numerics::optimize::minimize_batched_near(
            view.log_objective_x4(),
            u0,
            0.02,
            lo,
            hi,
            LN_SPAN,
            6e-3,
            12,
        );
        if refined.escaped || !refined.f.is_finite() {
            return Ok(self.optimal_interval_full(&view)?.work_seconds);
        }
        Ok(refined.x.clamp(lo, hi).exp())
    }

    /// Lane-batched [`VaidyaModel::optimal_interval`]: the hintless
    /// full-bracket search driven through [`GammaAtAge::gamma_x4`] — 4 Γ
    /// probes retire per kernel pass, cutting the cold anchor searches of
    /// a policy-table build to a fraction of the scalar bracket's cost.
    ///
    /// Like the warm lane search this lands within the optimizer plateau
    /// of the scalar answer (well inside the 1e-3 serving budget) but is
    /// not bitwise identical to it; an unconverged batch budget falls
    /// back to the frozen scalar search.
    ///
    /// # Errors
    /// Propagates objective failures from the scalar fallback.
    pub fn optimal_interval_lane(&self, age: f64) -> Result<OptimalInterval> {
        let t = self.optimal_work_lane(age)?;
        Ok(self.at_age(age.max(0.0)).interval_at(t))
    }

    /// `T_opt` alone from the lane-batched full-bracket search; see
    /// [`VaidyaModel::optimal_work_near_lane`] for why the builder wants
    /// the bare work interval.
    ///
    /// # Errors
    /// Propagates objective failures from the scalar fallback.
    pub fn optimal_work_lane(&self, age: f64) -> Result<f64> {
        if let Some(t) = self.memoryless_optimum() {
            return Ok(t);
        }
        let view = self.at_age(age.max(0.0));
        let lo = self.t_min.ln();
        let hi = self.t_max.ln();
        let refined =
            chs_numerics::optimize::minimize_batched(view.log_objective_x4(), lo, hi, 1e-3, 16);
        if refined.escaped || !refined.f.is_finite() {
            return Ok(self.optimal_interval_full(&view)?.work_seconds);
        }
        Ok(refined.x.clamp(lo, hi).exp())
    }
}

/// A Γ evaluator bound to one `(model, age)` pair: the conditioned
/// kernel is built once at [`VaidyaModel::at_age`] and every probe
/// reuses it. Created per age by the optimizer; exposed so external
/// probe loops (benchmarks, objective plotters) get the same hoisting.
pub struct GammaAtAge<'m, 'a> {
    model: &'m VaidyaModel<'a>,
    kernel: ConditionedDist,
    age: f64,
}

impl GammaAtAge<'_, '_> {
    /// The conditioning age.
    pub fn age(&self) -> f64 {
        self.age
    }

    /// Γ(T) at this age, through the prebuilt kernel.
    pub fn gamma(&self, t: f64) -> f64 {
        self.model.gamma_with(&self.kernel, t)
    }

    /// The transition quantities at this age.
    pub fn quantities(&self, t: f64) -> IntervalQuantities {
        self.model.quantities_with(&self.kernel, t)
    }

    /// Γ(T)/T at this age.
    pub fn overhead_ratio(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return f64::INFINITY;
        }
        self.gamma(t) / t
    }

    /// Lane-batched [`GammaAtAge::gamma`]: four Γ probes in one kernel
    /// pass. Bitwise identical to four scalar calls for the exponential
    /// and Weibull kernels; within 1e-12 relative for the
    /// hyper-exponential kernel (vectorized phase sweep).
    pub fn gamma_x4(&self, t: [f64; 4]) -> [f64; 4] {
        self.model.gamma_with_x4(&self.kernel, t)
    }

    /// Lane-batched [`GammaAtAge::overhead_ratio`].
    pub fn overhead_ratio_x4(&self, t: [f64; 4]) -> [f64; 4] {
        let g = self.gamma_x4(t);
        let mut out = [0.0f64; 4];
        for i in 0..4 {
            out[i] = if t[i] <= 0.0 {
                f64::INFINITY
            } else {
                g[i] / t[i]
            };
        }
        out
    }

    /// The minimization objective: overhead ratio as a function of
    /// `u = ln T`, with infinities capped so golden section (which cannot
    /// compare infinities) is pushed away from the region.
    fn log_objective(&self) -> impl Fn(f64) -> f64 + '_ {
        move |u: f64| {
            let r = self.overhead_ratio(u.exp());
            if r.is_finite() {
                r
            } else {
                1e300
            }
        }
    }

    /// Lane-batched [`GammaAtAge::log_objective`] with the same
    /// infinity-capping, for [`chs_numerics::optimize::minimize_batched_near`].
    fn log_objective_x4(&self) -> impl FnMut([f64; 4]) -> [f64; 4] + '_ {
        move |u: [f64; 4]| {
            let rs = self.overhead_ratio_x4(u.map(f64::exp));
            rs.map(|r| if r.is_finite() { r } else { 1e300 })
        }
    }

    /// Package the located `T_opt` into an [`OptimalInterval`].
    fn interval_at(&self, t_opt: f64) -> OptimalInterval {
        let gamma = self.gamma(t_opt);
        OptimalInterval {
            work_seconds: t_opt,
            gamma,
            overhead_ratio: gamma / t_opt,
            efficiency: if gamma.is_finite() {
                t_opt / gamma
            } else {
                0.0
            },
        }
    }
}

impl std::fmt::Debug for VaidyaModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VaidyaModel")
            .field("costs", &self.costs)
            .field("t_min", &self.t_min)
            .field("t_max", &self.t_max)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_dist::{Exponential, HyperExponential, Weibull};
    use chs_numerics::approx_eq;

    fn exp_mean_1h() -> Exponential {
        Exponential::from_mean(3_600.0).unwrap()
    }

    #[test]
    fn costs_validation() {
        let d = exp_mean_1h();
        assert!(VaidyaModel::new(&d, CheckpointCosts::new(-1.0, 1.0)).is_err());
        assert!(VaidyaModel::new(
            &d,
            CheckpointCosts {
                checkpoint: 1.0,
                recovery: f64::NAN,
                latency: 1.0
            }
        )
        .is_err());
        assert!(VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).is_ok());
    }

    #[test]
    fn bounds_validation() {
        let d = exp_mean_1h();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(50.0)).unwrap();
        assert!(m.with_bounds(0.0, 100.0).is_err());
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(50.0)).unwrap();
        assert!(m.with_bounds(100.0, 100.0).is_err());
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(50.0)).unwrap();
        assert!(m.with_bounds(10.0, 1e6).is_ok());
    }

    #[test]
    fn probabilities_are_probabilities() {
        let d = Weibull::paper_exemplar();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(250.0)).unwrap();
        for &t in &[10.0, 100.0, 1_000.0, 50_000.0] {
            for &age in &[0.0, 500.0, 86_400.0] {
                let q = m.quantities(t, age);
                for (name, v) in [
                    ("p01", q.p01),
                    ("p02", q.p02),
                    ("p21", q.p21),
                    ("p22", q.p22),
                ] {
                    assert!((0.0..=1.0).contains(&v), "{name}={v} at t={t} age={age}");
                }
                assert!(approx_eq(q.p01 + q.p02, 1.0, 1e-12, 1e-12));
                assert!(approx_eq(q.p21 + q.p22, 1.0, 1e-12, 1e-12));
                assert!(q.k02 <= q.k01, "truncated mean exceeds horizon");
                assert!(q.k22 <= q.k21);
            }
        }
    }

    #[test]
    fn gamma_at_least_success_cost() {
        // Γ ≥ min path cost and efficiency ≤ 1 always.
        let d = Weibull::paper_exemplar();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(100.0)).unwrap();
        for &t in &[10.0, 300.0, 3_000.0] {
            let g = m.gamma(t, 0.0);
            assert!(g >= t, "gamma {g} < t {t}");
            assert!(m.efficiency(t, 0.0) <= 1.0);
        }
    }

    #[test]
    fn zero_checkpoint_cost_perfect_efficiency_limit() {
        // With C = R = L = 0 and huge T... efficiency is limited by lost
        // work only; with tiny T it approaches 1.
        let d = exp_mean_1h();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(0.0)).unwrap();
        let eff = m.efficiency(1.0, 0.0);
        assert!(eff > 0.999, "eff={eff}");
    }

    #[test]
    fn exponential_t_opt_age_independent() {
        let d = exp_mean_1h();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let t0 = m.optimal_interval(0.0).unwrap();
        let t1 = m.optimal_interval(7_200.0).unwrap();
        let t2 = m.optimal_interval(1e6).unwrap();
        assert!(approx_eq(t0.work_seconds, t1.work_seconds, 1e-4, 1e-2));
        assert!(approx_eq(t1.work_seconds, t2.work_seconds, 1e-4, 1e-2));
    }

    #[test]
    fn exponential_t_opt_near_young_approximation() {
        // For λ(C+T) « 1, Young's first-order optimum is T ≈ √(2C/λ).
        // Vaidya's exact optimum differs by O(C), so compare loosely.
        let mean = 100_000.0;
        let c = 10.0;
        let d = Exponential::from_mean(mean).unwrap();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(c)).unwrap();
        let t = m.optimal_interval(0.0).unwrap().work_seconds;
        let young = (2.0 * c * mean).sqrt();
        assert!((t / young - 1.0).abs() < 0.25, "T_opt {t} vs Young {young}");
    }

    #[test]
    fn t_opt_is_local_minimum() {
        let d = Weibull::paper_exemplar();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(500.0)).unwrap();
        for &age in &[0.0, 1_000.0, 50_000.0] {
            let opt = m.optimal_interval(age).unwrap();
            let t = opt.work_seconds;
            let here = m.overhead_ratio(t, age);
            assert!(m.overhead_ratio(t * 1.05, age) >= here - 1e-9, "age={age}");
            assert!(m.overhead_ratio(t * 0.95, age) >= here - 1e-9, "age={age}");
        }
    }

    #[test]
    fn heavy_tail_t_opt_grows_with_age() {
        // Decreasing hazard: the longer a machine has been up, the longer
        // the next work interval can safely be.
        let d = Weibull::paper_exemplar();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let t_young = m.optimal_interval(60.0).unwrap().work_seconds;
        let t_old = m.optimal_interval(86_400.0).unwrap().work_seconds;
        assert!(t_old > 1.5 * t_young, "young {t_young} old {t_old}");
    }

    #[test]
    fn hyperexp_t_opt_depends_on_age() {
        // Non-memoryless: the schedule must be aperiodic. At age 0 the
        // mixture includes a 70 % fast phase the optimizer partially
        // writes off; once aged past it, T_opt tracks the slow phase.
        let d = HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let t_young = m.optimal_interval(0.0).unwrap().work_seconds;
        let t_old = m.optimal_interval(10_000.0).unwrap().work_seconds;
        let rel = (t_old - t_young).abs() / t_young;
        assert!(
            rel > 0.10,
            "T_opt should vary with age: young {t_young} old {t_old}"
        );
        // Once aged into the slow phase the process is locally memoryless:
        // T_opt stabilizes.
        let t_older = m.optimal_interval(60_000.0).unwrap().work_seconds;
        assert!(
            (t_older - t_old).abs() / t_old < 0.25,
            "slow-phase T_opt should stabilize: {t_old} vs {t_older}"
        );
    }

    #[test]
    fn larger_checkpoint_cost_lowers_efficiency() {
        let d = Weibull::paper_exemplar();
        let mut prev_eff = 1.0;
        let mut prev_t = 0.0;
        for &c in &[50.0, 100.0, 250.0, 500.0, 1_000.0, 1_500.0] {
            let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(c)).unwrap();
            let opt = m.optimal_interval(0.0).unwrap();
            assert!(
                opt.efficiency < prev_eff,
                "C={c}: eff {} !< {prev_eff}",
                opt.efficiency
            );
            assert!(opt.work_seconds > prev_t, "C={c}: T_opt should grow with C");
            prev_eff = opt.efficiency;
            prev_t = opt.work_seconds;
        }
    }

    #[test]
    fn efficiency_in_paper_ballpark() {
        // Paper Table 1 row C=110ish (interpolating rows 100–200): mean
        // efficiency ~0.6–0.7 for the exemplar-machine-scale fits. A single
        // exemplar machine won't match the pool average exactly, but must
        // land in (0.3, 0.95).
        let d = Weibull::paper_exemplar();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let opt = m.optimal_interval(0.0).unwrap();
        assert!(
            opt.efficiency > 0.3 && opt.efficiency < 0.95,
            "eff={}",
            opt.efficiency
        );
    }

    #[test]
    fn overhead_ratio_is_reciprocal_of_efficiency() {
        let d = exp_mean_1h();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(200.0)).unwrap();
        let opt = m.optimal_interval(0.0).unwrap();
        assert!(approx_eq(
            opt.overhead_ratio * opt.efficiency,
            1.0,
            1e-10,
            1e-12
        ));
        assert!(opt.overhead_ratio >= 1.0);
    }

    #[test]
    fn warm_start_matches_cold_search_weibull() {
        let d = Weibull::paper_exemplar();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let mut hint = m.optimal_interval(0.0).unwrap().work_seconds;
        let mut age = 1.0;
        while age < 500_000.0 {
            let cold = m.optimal_interval(age).unwrap().work_seconds;
            let warm = m.optimal_work_near_lane(age, hint).unwrap();
            let rel = (warm - cold).abs() / cold;
            // The lane search returns the parabola vertex of its last
            // probe triple, so it agrees with the golden-section search
            // to the lane plateau bound, not to the scalar floor.
            assert!(
                rel < 5e-4,
                "age {age}: warm {warm} vs cold {cold} (rel {rel:.3e})"
            );
            hint = warm;
            age *= 1.9;
        }
    }

    #[test]
    fn warm_start_matches_cold_search_hyperexp() {
        // The adversarial family: T_opt moves by large factors across the
        // mixture transition, exactly where a warm start could get stuck
        // in a stale valley. The fallback must keep warm on cold's optimum.
        let d = HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let mut hint = m.optimal_interval(0.0).unwrap().work_seconds;
        let mut age = 1.0;
        while age < 200_000.0 {
            let cold = m.optimal_interval(age).unwrap().work_seconds;
            let warm = m.optimal_work_near_lane(age, hint).unwrap();
            let rel = (warm - cold).abs() / cold;
            // Plateau-limited agreement; see the Weibull variant above.
            assert!(
                rel < 5e-4,
                "age {age}: warm {warm} vs cold {cold} (rel {rel:.3e})"
            );
            hint = warm;
            age *= 1.6;
        }
    }

    #[test]
    fn fresh_memo_is_value_transparent() {
        // Evaluating the same (t, age) twice must return bit-identical
        // quantities whether served from the memo or recomputed.
        let d = Weibull::paper_exemplar();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(250.0)).unwrap();
        let first = m.quantities(1_234.5, 77.0);
        let second = m.quantities(1_234.5, 77.0);
        assert_eq!(first, second);
        // A fresh model with an empty memo agrees too.
        let m2 = VaidyaModel::new(&d, CheckpointCosts::symmetric(250.0)).unwrap();
        assert_eq!(m2.quantities(1_234.5, 77.0), first);
        // Overflow past the wipe threshold and re-check an early key.
        for i in 0..(FRESH_MEMO_MAX_LOAD + 50) {
            let _ = m.quantities(10.0 + i as f64, 77.0);
        }
        assert_eq!(m.quantities(1_234.5, 77.0), first);
    }

    #[test]
    fn fresh_memo_colliding_slots_stay_distinct() {
        // Keys that share a home slot must not shadow each other: probe
        // many distinct T values twice and require identical answers.
        let d = exp_mean_1h();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let ts: Vec<f64> = (0..300).map(|i| 17.0 + 13.7 * i as f64).collect();
        let first: Vec<IntervalQuantities> = ts.iter().map(|&t| m.quantities(t, 0.0)).collect();
        let second: Vec<IntervalQuantities> = ts.iter().map(|&t| m.quantities(t, 0.0)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn shared_model_is_static_and_matches_borrowed() {
        let fit = Arc::new(FittedModel::Weibull(Weibull::paper_exemplar()));
        let costs = CheckpointCosts::symmetric(110.0);
        let shared: VaidyaModel<'static> = VaidyaModel::shared(Arc::clone(&fit), costs).unwrap();
        let borrowed = VaidyaModel::new(fit.as_ref(), costs).unwrap();
        for &age in &[0.0, 500.0, 86_400.0] {
            let a = shared.optimal_interval(age).unwrap();
            let b = borrowed.optimal_interval(age).unwrap();
            assert_eq!(a.work_seconds.to_bits(), b.work_seconds.to_bits());
            assert_eq!(a.gamma.to_bits(), b.gamma.to_bits());
        }
    }

    #[test]
    fn at_age_view_matches_per_call_api() {
        let d = HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let view = m.at_age(4_321.0);
        for &t in &[10.0, 333.0, 9_999.0] {
            assert_eq!(view.gamma(t).to_bits(), m.gamma(t, 4_321.0).to_bits());
            assert_eq!(view.quantities(t), m.quantities(t, 4_321.0));
        }
        assert_eq!(view.age(), 4_321.0);
    }

    #[test]
    fn infinite_gamma_when_retry_impossible() {
        // A machine whose lifetime is essentially never longer than
        // recovery+work: Γ must be infinite (job can never finish).
        let d = Exponential::from_mean(1.0).unwrap(); // mean 1 s
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(2_000.0)).unwrap();
        let g = m.gamma(10_000.0, 0.0);
        assert!(g > 1e100, "gamma={g}");
    }

    #[test]
    fn gamma_x4_matches_scalar_per_family() {
        let exp = exp_mean_1h();
        let wei = Weibull::paper_exemplar();
        let hyp = HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap();
        let batches: [[f64; 4]; 3] = [
            [10.0, 100.0, 1_000.0, 50_000.0],
            [1.0, 1.0, 3_600.0, 250_000.0],
            [55.0, 543.21, 9_876.5, 123_456.0],
        ];
        for (dist, bitwise) in [
            (DistRef::from(&exp), true),
            (DistRef::from(&wei), true),
            (DistRef::from(&hyp), false),
        ] {
            let m = VaidyaModel::new(dist, CheckpointCosts::symmetric(110.0)).unwrap();
            for &age in &[0.0, 500.0, 86_400.0] {
                let view = m.at_age(age);
                for batch in batches {
                    let lanes = view.gamma_x4(batch);
                    // Scalar reference on a fresh model so the shared
                    // fresh memo cannot leak lane-computed values into
                    // the reference path.
                    let refm = VaidyaModel::new(dist, CheckpointCosts::symmetric(110.0)).unwrap();
                    let refview = refm.at_age(age);
                    for l in 0..4 {
                        let s = refview.gamma(batch[l]);
                        if bitwise {
                            assert_eq!(
                                lanes[l].to_bits(),
                                s.to_bits(),
                                "lane {l} age {age} t {}",
                                batch[l]
                            );
                        } else {
                            assert!(
                                approx_eq(lanes[l], s, 1e-12, 0.0),
                                "lane {l} age {age} t {}: {} vs {s}",
                                batch[l],
                                lanes[l]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overhead_x4_matches_scalar_and_caps() {
        let d = exp_mean_1h();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        let view = m.at_age(0.0);
        let batch = [-5.0, 0.0, 100.0, 3_600.0];
        let lanes = view.overhead_ratio_x4(batch);
        for l in 0..4 {
            let s = view.overhead_ratio(batch[l]);
            if s.is_finite() {
                assert_eq!(lanes[l].to_bits(), s.to_bits());
            } else {
                assert!(!lanes[l].is_finite());
            }
        }
    }

    #[test]
    fn lane_warm_search_matches_scalar_search() {
        // The lane warm search must land on the same optimum as the
        // scalar searches within the optimizer plateau, across families
        // and ages, hinted from the scalar answer at a neighbouring age.
        let exp = exp_mean_1h();
        let wei = Weibull::paper_exemplar();
        let hyp = HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap();
        for dist in [
            DistRef::from(&exp),
            DistRef::from(&wei),
            DistRef::from(&hyp),
        ] {
            let m = VaidyaModel::new(dist, CheckpointCosts::symmetric(110.0)).unwrap();
            for &age in &[0.0, 900.0, 40_000.0, 400_000.0] {
                let cold = m.optimal_interval(age).unwrap();
                let hint = m
                    .optimal_interval((age * 0.9).max(0.0))
                    .unwrap()
                    .work_seconds;
                let lane = m.optimal_interval_near_lane(age, hint).unwrap();
                assert!(
                    approx_eq(lane.work_seconds, cold.work_seconds, 5e-4, 0.0),
                    "T {} vs {} at age {age}",
                    lane.work_seconds,
                    cold.work_seconds
                );
                // Never meaningfully worse in objective either.
                assert!(lane.overhead_ratio <= cold.overhead_ratio * (1.0 + 1e-7));
            }
        }
    }

    #[test]
    fn lane_cold_search_matches_scalar_search() {
        // The hintless lane search must agree with the frozen scalar
        // bracket within the optimizer plateau and never be meaningfully
        // worse in objective.
        let exp = exp_mean_1h();
        let wei = Weibull::paper_exemplar();
        let hyp = HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap();
        for dist in [
            DistRef::from(&exp),
            DistRef::from(&wei),
            DistRef::from(&hyp),
        ] {
            let m = VaidyaModel::new(dist, CheckpointCosts::symmetric(110.0)).unwrap();
            for &age in &[0.0, 900.0, 40_000.0, 400_000.0, 1e9] {
                let cold = m.optimal_interval(age).unwrap();
                let lane = m.optimal_interval_lane(age).unwrap();
                assert!(
                    approx_eq(lane.work_seconds, cold.work_seconds, 5e-4, 0.0),
                    "T {} vs {} at age {age}",
                    lane.work_seconds,
                    cold.work_seconds
                );
                assert!(lane.overhead_ratio <= cold.overhead_ratio * (1.0 + 1e-7));
            }
        }
    }

    #[test]
    fn lane_warm_search_bad_hints_fall_back() {
        let d = Weibull::paper_exemplar();
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(110.0)).unwrap();
        for age in [1_000.0, 3_600.0] {
            let cold = m.optimal_interval(age).unwrap();
            for hint in [f64::NAN, -3.0, 0.0, 1e-12, 1e12, cold.work_seconds * 64.0] {
                let got = m.optimal_interval_near_lane(age, hint).unwrap();
                assert!(
                    approx_eq(got.work_seconds, cold.work_seconds, 1e-6, 1e-9),
                    "age {age} hint {hint}: {} vs {}",
                    got.work_seconds,
                    cold.work_seconds
                );
            }
        }
    }
}
