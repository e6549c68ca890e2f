//! Compressed, epoch-swapped policy store for high-QPS `T_opt` serving.
//!
//! The online scheduler cannot afford a golden-section search per
//! checkpoint decision: at 10⁴ machines and ≥ 10⁵ queries/sec, every
//! `next_interval(machine, age)` must be a table lookup. This module
//! compresses the exact kernel optimum `T_opt(age)` of a fitted model
//! into a piecewise log-linear table and groups machines with
//! near-identical fitted parameters onto one shared table:
//!
//! * [`CompressedPolicy`] — knots in `(ln(1+age), ln T_opt)` built by
//!   adaptive bisection against the exact [`VaidyaModel`] optimizer.
//!   A segment is accepted only when its midpoint *and* both quarter
//!   points interpolate within half the relative-error budget, so the
//!   committed table stays within `max_rel_error` of the exact optimum
//!   (asserted against dense probe grids in this crate's tests and
//!   enforced end-to-end by the `serve_bench` gate).
//! * [`DedupKey`] / [`PolicyCache`] — machines whose fitted parameters
//!   agree to ~10⁻⁴ relative share one `Arc<CompressedPolicy>`; the
//!   expensive compression runs once per distinct key.
//! * [`PolicyStore`] — an immutable epoch snapshot mapping machine ids
//!   to shared tables, answering queries by binary search over sorted
//!   ids. Serving threads swap whole stores atomically between epochs;
//!   [`PolicyStore::digest`] fingerprints the snapshot (epoch, machine
//!   map and every knot bit) for cross-thread determinism checks.
//!
//! The `ln(1+age)` abscissa makes age 0 a finite knot (no special
//! casing of fresh machines) while keeping day-scale ages on a log
//! grid; memoryless fits collapse to a single flat segment.

use std::collections::BTreeMap;
use std::sync::Arc;

use chs_dist::{AvailabilityModel, FittedModel};
use serde::Serialize;

use crate::vaidya::{CheckpointCosts, VaidyaModel};
use crate::{MarkovError, Result};

/// Default age horizon of a compressed table: 30 days. Queries beyond
/// the horizon clamp to the last knot (the conditional distribution —
/// and with it `T_opt` — has long flattened by then for every family
/// the paper fits).
pub const DEFAULT_MAX_AGE: f64 = 30.0 * 86_400.0;

/// Default relative-error budget of a compressed table vs the exact
/// kernel optimum.
pub const DEFAULT_MAX_REL_ERROR: f64 = 1e-3;

/// Knot quantization for [`DedupKey`]: natural-log parameters are
/// rounded to this many steps per unit, i.e. two models dedup when all
/// parameters agree to ~10⁻⁴ relative. `T_opt` moves O(1·δ) under a
/// relative parameter perturbation δ, so sharing a table across a key
/// bucket costs ≤ ~10⁻⁴ extra relative error — inside the headroom the
/// half-budget acceptance rule leaves under [`DEFAULT_MAX_REL_ERROR`].
const LN_QUANTUM: f64 = 1e4;

/// Default coarse clustering cell width in natural-log parameter space
/// (see [`ClusterKey`]): fitted models whose parameters agree to ~5·10⁻⁴
/// relative fall in the same candidate cell and may share one table —
/// *after* a per-member verification against the cell's representative
/// surface ([`CompressedPolicy::acceptable_for`]). `T_opt` moves O(δ)
/// under a relative parameter perturbation δ, so a 5·10⁻⁴ cell keeps the
/// candidate drift inside the acceptance threshold for typical fits
/// while being 5× coarser than the exact [`DedupKey`] quantization.
pub const DEFAULT_CLUSTER_QUANTUM: f64 = 5e-4;

/// Fraction of [`CompressionConfig::max_rel_error`] a cluster member may
/// deviate from the shared surface at the verification probes. The rest
/// of the budget stays with the representative's own interpolation error
/// (bounded by the half-budget acceptance rule at build time), so the
/// end-to-end serving error of an accepted member remains under the full
/// budget.
const CLUSTER_ACCEPT_FRACTION: f64 = 0.4;

/// Verification probes per candidate member: the representative table's
/// knots are strided down to at most this many ages, and the member's
/// exact `T_opt` is searched (warm-started from the shared surface) at
/// each. Knots concentrate where the surface curves, so the stride
/// inherits the builder's own refinement pattern.
const CLUSTER_VERIFY_PROBES: usize = 16;

/// Forced-refinement span in `ln(1+age)`: segments wider than this are
/// always split even if the probe points happen to interpolate well,
/// guarding against aliasing on the top-level brackets.
const MAX_SEGMENT_SPAN: f64 = 2.0;

/// Below this knot spacing further bisection is numerically pointless.
const MIN_SEGMENT_SPAN: f64 = 1e-4;

/// How a [`CompressedPolicy`] is built: cost model, age horizon, error
/// budget and a bisection depth cap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CompressionConfig {
    /// Checkpoint cost model shared by every table in a store.
    pub costs: CheckpointCosts,
    /// Age horizon covered by the knots; older queries clamp.
    pub max_age: f64,
    /// Relative-error budget vs the exact kernel `T_opt`.
    pub max_rel_error: f64,
    /// Bisection depth cap (2^depth segments worst case).
    pub max_depth: u32,
    /// Coarse clustering cell width in ln-parameter space (see
    /// [`ClusterKey`]); `0.0` disables clustering entirely.
    pub cluster_quantum: f64,
}

impl CompressionConfig {
    /// Default table geometry for the given costs.
    pub fn new(costs: CheckpointCosts) -> Self {
        CompressionConfig {
            costs,
            max_age: DEFAULT_MAX_AGE,
            max_rel_error: DEFAULT_MAX_REL_ERROR,
            max_depth: 14,
            cluster_quantum: DEFAULT_CLUSTER_QUANTUM,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.max_age.is_finite() && self.max_age > 0.0) {
            return Err(MarkovError::InvalidParameter {
                parameter: "max_age",
                value: self.max_age,
            });
        }
        if !(self.max_rel_error.is_finite() && self.max_rel_error > 0.0) {
            return Err(MarkovError::InvalidParameter {
                parameter: "max_rel_error",
                value: self.max_rel_error,
            });
        }
        if self.max_depth == 0 {
            return Err(MarkovError::InvalidParameter {
                parameter: "max_depth",
                value: 0.0,
            });
        }
        if !(self.cluster_quantum.is_finite() && self.cluster_quantum >= 0.0) {
            return Err(MarkovError::InvalidParameter {
                parameter: "cluster_quantum",
                value: self.cluster_quantum,
            });
        }
        Ok(())
    }
}

/// A piecewise log-linear compression of `T_opt(age)` for one fitted
/// model: knots `(v, ln T)` with `v = ln(1 + age)`, strictly increasing
/// in `v`, linearly interpolated between knots and clamped flat beyond
/// the last knot.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedPolicy {
    vs: Vec<f64>,
    ln_ts: Vec<f64>,
    build_evals: u32,
}

impl CompressedPolicy {
    /// Compress the exact `T_opt(age)` curve of `model` under `config`.
    ///
    /// Memoryless models produce a single flat segment from their
    /// closed-form optimum; other families are bisected adaptively, warm-starting
    /// each probe from the interpolated guess. Hinted probes — every
    /// subdivision midpoint and quarter point — run through the
    /// lane-batched warm search
    /// ([`VaidyaModel::optimal_interval_near_lane`]), which evaluates 4
    /// Γ candidates per kernel pass; only the hintless anchor searches
    /// take the scalar full-bracket path.
    ///
    /// # Errors
    /// Propagates optimizer failures and invalid configs.
    pub fn build(model: &FittedModel, config: &CompressionConfig) -> Result<Self> {
        config.validate()?;
        let vaidya = VaidyaModel::new(model, config.costs)?;
        let mut evals: u32 = 0;
        let mut exact = |v: f64, hint: f64| -> Result<f64> {
            evals += 1;
            let age = v.exp_m1().max(0.0);
            let t = if hint.is_finite() && hint > 0.0 {
                vaidya.optimal_work_near_lane(age, hint)?
            } else {
                vaidya.optimal_work_lane(age)?
            };
            Ok(t.ln())
        };

        let v_hi = config.max_age.ln_1p();
        let ln_t0 = exact(0.0, f64::NAN)?;
        if model.kind().is_memoryless() {
            return Ok(CompressedPolicy {
                vs: vec![0.0, v_hi],
                ln_ts: vec![ln_t0, ln_t0],
                build_evals: evals,
            });
        }

        // The horizon anchor gets a cold search: the age-0 optimum is a
        // poor hint across the whole horizon (DFR fits move T_opt by far
        // more than the warm search's trust span), so hinting it would
        // only spend lane batches walking to an escape before running
        // the same full search anyway.
        let ln_t_hi = exact(v_hi, f64::NAN)?;
        // |ln T̂ − ln T| ≤ ln(1 + ε/2) at every probe point keeps the
        // whole segment within ε with headroom for un-probed ages.
        let tol = (0.5 * config.max_rel_error).ln_1p();
        let mut vs = vec![0.0];
        let mut ln_ts = vec![ln_t0];
        subdivide(
            (0.0, ln_t0),
            (v_hi, ln_t_hi),
            None,
            0,
            config.max_depth,
            tol,
            &mut exact,
            &mut vs,
            &mut ln_ts,
        )?;
        Ok(CompressedPolicy {
            vs,
            ln_ts,
            build_evals: evals,
        })
    }

    /// Serve the compressed `T_opt` for a machine of the given age
    /// (seconds). Negative ages clamp to 0, ages beyond the horizon to
    /// the last knot.
    pub fn next_interval(&self, age: f64) -> f64 {
        let v = age.max(0.0).ln_1p();
        let last = self.vs.len() - 1;
        if v >= self.vs[last] {
            return self.ln_ts[last].exp();
        }
        // First knot strictly above v; v < vs[last] so i ∈ [1, last].
        let i = self.vs.partition_point(|&k| k <= v).max(1);
        let (va, vb) = (self.vs[i - 1], self.vs[i]);
        let frac = (v - va) / (vb - va);
        (self.ln_ts[i - 1] + frac * (self.ln_ts[i] - self.ln_ts[i - 1])).exp()
    }

    /// Number of log-linear segments in the table.
    pub fn segments(&self) -> usize {
        self.vs.len() - 1
    }

    /// Exact `T_opt` searches spent building the table.
    pub fn build_evals(&self) -> u32 {
        self.build_evals
    }

    /// Whether this table can serve `model` within the cluster-sharing
    /// slice of the error budget — the per-cell acceptance rule of the
    /// coarse parameter clustering.
    ///
    /// The check strides the table's knots down to at most
    /// `CLUSTER_VERIFY_PROBES` (16) ages, searches `model`'s exact `T_opt`
    /// at each (warm-started from the shared surface — when the share is
    /// good the hint is the answer, so verification costs a fraction of
    /// a build), and rejects on the first probe whose deviation exceeds
    /// `CLUSTER_ACCEPT_FRACTION · max_rel_error` (0.4 of the budget). Knots concentrate
    /// where the surface curves, so the stride covers exactly the ages
    /// the builder found interesting; between knots the shared surface
    /// adds only its own (half-budget-bounded) interpolation error on
    /// top, keeping accepted members inside the full budget. The dense
    /// cross-check lives in the cluster property tests and the
    /// `serve_bench` fleet-accuracy gate.
    ///
    /// # Errors
    /// Propagates optimizer failures.
    pub fn acceptable_for(&self, model: &FittedModel, config: &CompressionConfig) -> Result<bool> {
        let vaidya = VaidyaModel::new(model, config.costs)?;
        let theta = (CLUSTER_ACCEPT_FRACTION * config.max_rel_error).ln_1p();
        let last = self.vs.len() - 1;
        let probes = CLUSTER_VERIFY_PROBES.min(last + 1);
        let mut prev = usize::MAX;
        for i in 0..probes {
            let idx = if probes == 1 {
                0
            } else {
                i * last / (probes - 1)
            };
            if idx == prev {
                continue;
            }
            prev = idx;
            let age = self.vs[idx].exp_m1().max(0.0);
            let shared_ln_t = self.ln_ts[idx];
            let exact = vaidya.optimal_work_near_lane(age, shared_ln_t.exp())?;
            if (shared_ln_t - exact.ln()).abs() > theta {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Fold every knot bit into a running digest (order-sensitive).
    fn digest_into(&self, mut h: u64) -> u64 {
        h = mix64(h ^ self.vs.len() as u64);
        for (&v, &t) in self.vs.iter().zip(&self.ln_ts) {
            h = mix64(h ^ v.to_bits());
            h = mix64(h ^ t.to_bits());
        }
        h
    }
}

/// Recursive adaptive bisection of `[a, b]` in `(v, ln T)`. Appends
/// every knot after `a` (including `b`) to `vs`/`ln_ts` in order.
/// `known_mid` carries an already-searched value for this interval's
/// midpoint: a parent whose quarter-point confirmation failed has
/// evaluated both children's midpoints (its own quarter points), so the
/// recursion reuses them instead of re-running the searches.
#[allow(clippy::too_many_arguments)]
fn subdivide(
    a: (f64, f64),
    b: (f64, f64),
    known_mid: Option<f64>,
    depth: u32,
    max_depth: u32,
    tol: f64,
    exact: &mut dyn FnMut(f64, f64) -> Result<f64>,
    vs: &mut Vec<f64>,
    ln_ts: &mut Vec<f64>,
) -> Result<()> {
    let span = b.0 - a.0;
    let interp = |frac: f64| a.1 + frac * (b.1 - a.1);
    let accept = |vs: &mut Vec<f64>, ln_ts: &mut Vec<f64>| {
        vs.push(b.0);
        ln_ts.push(b.1);
    };
    if depth >= max_depth || span < MIN_SEGMENT_SPAN {
        accept(vs, ln_ts);
        return Ok(());
    }
    let v_m = 0.5 * (a.0 + b.0);
    let ln_t_m = match known_mid {
        Some(known) => known,
        None => exact(v_m, interp(0.5).exp())?,
    };
    let mid_ok = span <= MAX_SEGMENT_SPAN && (ln_t_m - interp(0.5)).abs() <= tol;
    let mut quarters = (None, None);
    if mid_ok {
        // Midpoint fits the chord — confirm at the quarter points
        // before committing the whole segment.
        let q1 = exact(0.25f64.mul_add(span, a.0), interp(0.25).exp())?;
        let q3 = exact(0.75f64.mul_add(span, a.0), interp(0.75).exp())?;
        if (q1 - interp(0.25)).abs() <= tol && (q3 - interp(0.75)).abs() <= tol {
            accept(vs, ln_ts);
            return Ok(());
        }
        quarters = (Some(q1), Some(q3));
    }
    let m = (v_m, ln_t_m);
    subdivide(
        a,
        m,
        quarters.0,
        depth + 1,
        max_depth,
        tol,
        exact,
        vs,
        ln_ts,
    )?;
    subdivide(
        m,
        b,
        quarters.1,
        depth + 1,
        max_depth,
        tol,
        exact,
        vs,
        ln_ts,
    )
}

/// Identity of a compressed table: model family, parameters quantized
/// to ~10⁻⁴ relative, and the cost/geometry knobs. Machines mapping to
/// the same key share one [`CompressedPolicy`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DedupKey {
    tag: u8,
    quantized: Vec<i64>,
}

impl DedupKey {
    /// Key for `model` compressed under `config`.
    pub fn new(model: &FittedModel, config: &CompressionConfig) -> Self {
        let (tag, params): (u8, Vec<f64>) = match model {
            FittedModel::Exponential(_) => (0, vec![model.mean()]),
            FittedModel::Weibull(w) => (1, vec![w.shape(), w.scale()]),
            FittedModel::HyperExponential(h) => {
                (2, h.weights().iter().chain(h.rates()).copied().collect())
            }
        };
        let mut quantized: Vec<i64> = params.iter().map(|&p| quantize_ln(p)).collect();
        // Geometry/cost knobs are part of the identity so one cache is
        // safe to share across differently-configured stores.
        for knob in [
            config.costs.checkpoint,
            config.costs.recovery,
            config.costs.latency,
            config.max_age,
            config.max_rel_error,
        ] {
            quantized.push(knob.to_bits() as i64);
        }
        quantized.push(i64::from(config.max_depth));
        DedupKey { tag, quantized }
    }
}

/// Quantize a positive parameter on a relative (log) grid.
fn quantize_ln(p: f64) -> i64 {
    if p.is_finite() && p > 0.0 {
        (p.ln() * LN_QUANTUM).round() as i64
    } else {
        i64::MIN
    }
}

/// Coarse clustering cell of a fitted model: family tag plus parameters
/// quantized to [`CompressionConfig::cluster_quantum`] in ln-space.
///
/// Unlike [`DedupKey`] — whose exact ~10⁻⁴ quantization shares a table
/// *unconditionally* — a shared cluster cell is only a *candidate*: the
/// first missing member of a cell becomes the representative whose
/// table is built exactly, and every other member must pass
/// [`CompressedPolicy::acceptable_for`] against that surface before
/// serving from it (rejects fall back to a private build). That is what
/// lets the cell be 5× coarser than the dedup grid without loosening
/// the serving budget.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterKey {
    tag: u8,
    cell: Vec<i64>,
}

impl ClusterKey {
    /// Cell of `model` under `config`, or `None` when clustering is
    /// disabled (`cluster_quantum == 0`).
    pub fn new(model: &FittedModel, config: &CompressionConfig) -> Option<Self> {
        let quantum = config.cluster_quantum;
        if !(quantum.is_finite() && quantum > 0.0) {
            return None;
        }
        let (tag, params): (u8, Vec<f64>) = match model {
            FittedModel::Exponential(_) => (0, vec![model.mean()]),
            FittedModel::Weibull(w) => (1, vec![w.shape(), w.scale()]),
            FittedModel::HyperExponential(h) => {
                (2, h.weights().iter().chain(h.rates()).copied().collect())
            }
        };
        let cell = params
            .iter()
            .map(|&p| {
                if p.is_finite() && p > 0.0 {
                    (p.ln() / quantum).round() as i64
                } else {
                    i64::MIN
                }
            })
            .collect();
        Some(ClusterKey { tag, cell })
    }
}

/// Build-side cache: one [`CompressedPolicy`] per distinct [`DedupKey`],
/// shared by `Arc` across every machine (and every epoch) that maps to
/// it. Deterministic iteration order (`BTreeMap`) so rebuild statistics
/// are reproducible.
#[derive(Debug)]
pub struct PolicyCache {
    config: CompressionConfig,
    tables: BTreeMap<DedupKey, Arc<CompressedPolicy>>,
    hits: u64,
    builds: u64,
    shared: u64,
}

/// Counters of one [`PolicyCache`]: how machines were resolved across
/// its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheCounters {
    /// Machines (or lookups) resolved from an already-cached table
    /// without any build work.
    pub hits: u64,
    /// Exact table builds (cache misses that ran the full compression,
    /// including cluster rejects that fell back to a private build).
    pub builds: u64,
    /// Keys resolved by *cluster sharing*: a verified alias onto another
    /// key's table instead of a build.
    pub shared: u64,
}

impl PolicyCache {
    /// Empty cache building tables under `config`.
    pub fn new(config: CompressionConfig) -> Self {
        PolicyCache {
            config,
            tables: BTreeMap::new(),
            hits: 0,
            builds: 0,
            shared: 0,
        }
    }

    /// The table for `model`, compressing it on first sight of its key.
    ///
    /// # Errors
    /// Propagates [`CompressedPolicy::build`] failures (nothing is
    /// cached for the failing key).
    pub fn get_or_build(&mut self, model: &FittedModel) -> Result<Arc<CompressedPolicy>> {
        let key = DedupKey::new(model, &self.config);
        if let Some(table) = self.tables.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(table));
        }
        let table = Arc::new(CompressedPolicy::build(model, &self.config)?);
        self.builds += 1;
        self.tables.insert(key, Arc::clone(&table));
        Ok(table)
    }

    /// The key `model` would be cached under.
    pub fn key(&self, model: &FittedModel) -> DedupKey {
        DedupKey::new(model, &self.config)
    }

    /// Look up an already-built table by key (no build, no counter).
    pub fn get(&self, key: &DedupKey) -> Option<&Arc<CompressedPolicy>> {
        self.tables.get(key)
    }

    /// Insert an externally-built table (e.g. from a parallel build
    /// fan-out) under `key`. First insertion wins; either way the
    /// resident table is returned, so concurrent duplicate builds
    /// converge on one `Arc`.
    pub fn insert(&mut self, key: DedupKey, table: Arc<CompressedPolicy>) -> Arc<CompressedPolicy> {
        self.builds += 1;
        Arc::clone(self.tables.entry(key).or_insert(table))
    }

    /// Insert a *cluster-shared* alias: `key` serves from a table built
    /// for another key in the same coarse cell (already verified via
    /// [`CompressedPolicy::acceptable_for`]). Counted under `shared`,
    /// not `builds` — no compression ran for this key.
    pub fn insert_alias(
        &mut self,
        key: DedupKey,
        table: Arc<CompressedPolicy>,
    ) -> Arc<CompressedPolicy> {
        self.shared += 1;
        Arc::clone(self.tables.entry(key).or_insert(table))
    }

    /// Credit `n` machines resolved without build work this publish
    /// (already-cached keys and extra machines behind a just-built key).
    pub fn note_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Distinct tables cached so far.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether nothing has been built yet.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Lifetime resolution counters (hits / builds / cluster shares).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits,
            builds: self.builds,
            shared: self.shared,
        }
    }

    /// The compression geometry this cache builds under.
    pub fn config(&self) -> &CompressionConfig {
        &self.config
    }
}

/// Compression statistics of one [`PolicyStore`] epoch, embedded in the
/// `serve_bench` report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StoreStats {
    /// Machines the snapshot answers for.
    pub machines: usize,
    /// Distinct compressed tables backing them.
    pub tables: usize,
    /// Knot segments summed over distinct tables.
    pub total_segments: usize,
    /// Largest single table, in segments.
    pub max_segments: usize,
    /// `machines / tables` (1.0 when nothing dedups, 0.0 for an empty
    /// snapshot — never NaN).
    pub dedup_ratio: f64,
}

/// An immutable epoch snapshot: machine id → shared compressed table.
/// Built once per publish, then read concurrently without locks; the
/// serving loop swaps the whole store to advance an epoch.
#[derive(Debug, Clone)]
pub struct PolicyStore {
    epoch: u64,
    machines: Vec<u64>,
    table_of: Vec<u32>,
    tables: Vec<Arc<CompressedPolicy>>,
}

impl PolicyStore {
    /// A snapshot answering for no machines.
    pub fn empty(epoch: u64) -> Self {
        PolicyStore {
            epoch,
            machines: Vec::new(),
            table_of: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Assemble a snapshot from `(machine id, table)` pairs. Entries
    /// are sorted by machine id; tables are stored once per distinct
    /// `Arc` (pointer identity), numbered in first-reference order over
    /// the sorted machines, so equal inputs assemble bitwise-equal
    /// stores regardless of input order or thread count.
    ///
    /// # Errors
    /// [`MarkovError::InvalidParameter`] on duplicate machine ids.
    pub fn assemble(epoch: u64, mut entries: Vec<(u64, Arc<CompressedPolicy>)>) -> Result<Self> {
        entries.sort_by_key(|(id, _)| *id);
        let mut machines = Vec::with_capacity(entries.len());
        let mut table_of = Vec::with_capacity(entries.len());
        let mut tables: Vec<Arc<CompressedPolicy>> = Vec::new();
        for (id, table) in entries {
            if machines.last() == Some(&id) {
                return Err(MarkovError::InvalidParameter {
                    parameter: "duplicate machine id",
                    value: id as f64,
                });
            }
            let idx = match tables.iter().position(|t| Arc::ptr_eq(t, &table)) {
                Some(i) => i,
                None => {
                    tables.push(table);
                    tables.len() - 1
                }
            };
            machines.push(id);
            table_of.push(idx as u32);
        }
        Ok(PolicyStore {
            epoch,
            machines,
            table_of,
            tables,
        })
    }

    /// Epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Machines the snapshot answers for.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the snapshot answers for no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The compressed table serving `machine`, if known.
    pub fn table(&self, machine: u64) -> Option<&Arc<CompressedPolicy>> {
        let i = self.machines.binary_search(&machine).ok()?;
        Some(&self.tables[self.table_of[i] as usize])
    }

    /// Serve `T_opt` for `machine` at `age` seconds, `None` for unknown
    /// machines.
    pub fn next_interval(&self, machine: u64, age: f64) -> Option<f64> {
        self.table(machine).map(|t| t.next_interval(age))
    }

    /// Compression statistics of this snapshot.
    pub fn stats(&self) -> StoreStats {
        let total_segments: usize = self.tables.iter().map(|t| t.segments()).sum();
        let max_segments = self.tables.iter().map(|t| t.segments()).max().unwrap_or(0);
        StoreStats {
            machines: self.machines.len(),
            tables: self.tables.len(),
            total_segments,
            max_segments,
            // An empty snapshot reports 0, not 1: "nothing dedups" and
            // "nothing exists" must stay distinguishable to dashboards
            // that alert on the ratio collapsing toward 1.
            dedup_ratio: if self.tables.is_empty() {
                0.0
            } else {
                self.machines.len() as f64 / self.tables.len() as f64
            },
        }
    }

    /// Value-based fingerprint of the snapshot: epoch, the machine →
    /// table map, and every knot bit of every distinct table. Two
    /// stores assembled from equal inputs — on any thread count —
    /// digest identically; the scheduler's determinism gates compare
    /// these across runs.
    pub fn digest(&self) -> u64 {
        let mut h = mix64(self.epoch ^ 0x9e37_79b9_7f4a_7c15);
        for (&id, &t) in self.machines.iter().zip(&self.table_of) {
            h = mix64(h ^ id);
            h = mix64(h ^ u64::from(t));
        }
        for table in &self.tables {
            h = table.digest_into(h);
        }
        h
    }
}

/// `splitmix64` finalizer: the store digest and the scheduler's
/// per-decision seeds both need a cheap, stable bit mixer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_dist::{Exponential, HyperExponential, Weibull};

    fn config() -> CompressionConfig {
        CompressionConfig::new(CheckpointCosts::symmetric(110.0))
    }

    fn paper_models() -> Vec<FittedModel> {
        vec![
            FittedModel::Exponential(Exponential::from_mean(5_000.0).unwrap()),
            FittedModel::Weibull(Weibull::paper_exemplar()),
            FittedModel::Weibull(Weibull::new(0.45, 1_800.0).unwrap()),
            FittedModel::HyperExponential(
                HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap(),
            ),
        ]
    }

    /// Dense probe grid: age 0 plus log-spaced ages to the horizon.
    fn probe_ages(max_age: f64, n: usize) -> Vec<f64> {
        let mut ages = vec![0.0];
        let lo: f64 = 1.0;
        for i in 0..=n {
            let f = i as f64 / n as f64;
            ages.push(lo * (max_age / lo).powf(f));
        }
        ages
    }

    #[test]
    fn compressed_tables_meet_the_error_budget() {
        let cfg = config();
        for model in paper_models() {
            let table = CompressedPolicy::build(&model, &cfg).unwrap();
            let vaidya = VaidyaModel::new(&model, cfg.costs).unwrap();
            let mut worst = 0.0f64;
            for age in probe_ages(cfg.max_age, 400) {
                let exact = vaidya.optimal_interval(age).unwrap().work_seconds;
                let served = table.next_interval(age);
                worst = worst.max((served / exact - 1.0).abs());
            }
            assert!(
                worst <= cfg.max_rel_error,
                "{:?}: max rel error {worst:.2e} over budget ({} segments)",
                model.kind(),
                table.segments()
            );
        }
    }

    #[test]
    fn memoryless_models_compress_to_one_segment() {
        let cfg = config();
        let model = FittedModel::Exponential(Exponential::from_mean(5_000.0).unwrap());
        let table = CompressedPolicy::build(&model, &cfg).unwrap();
        assert_eq!(table.segments(), 1);
        assert_eq!(table.build_evals(), 1);
        let t0 = table.next_interval(0.0);
        assert_eq!(t0.to_bits(), table.next_interval(1e6).to_bits());
    }

    #[test]
    fn queries_clamp_at_both_ends() {
        let cfg = config();
        let model = FittedModel::Weibull(Weibull::paper_exemplar());
        let table = CompressedPolicy::build(&model, &cfg).unwrap();
        assert_eq!(
            table.next_interval(-5.0).to_bits(),
            table.next_interval(0.0).to_bits()
        );
        assert_eq!(
            table.next_interval(cfg.max_age * 10.0).to_bits(),
            table.next_interval(cfg.max_age).to_bits()
        );
    }

    #[test]
    fn dedup_key_buckets_near_identical_params() {
        let cfg = config();
        let a = FittedModel::Weibull(Weibull::new(0.522, 2_000.0).unwrap());
        let b = FittedModel::Weibull(Weibull::new(0.522 * (1.0 + 2e-6), 2_000.0).unwrap());
        let c = FittedModel::Weibull(Weibull::new(0.54, 2_000.0).unwrap());
        assert_eq!(DedupKey::new(&a, &cfg), DedupKey::new(&b, &cfg));
        assert_ne!(DedupKey::new(&a, &cfg), DedupKey::new(&c, &cfg));
        // Same params, different family ⇒ different key.
        let e = FittedModel::Exponential(Exponential::from_mean(2_000.0).unwrap());
        let w = FittedModel::Weibull(Weibull::new(1.0, 2_000.0).unwrap());
        assert_ne!(DedupKey::new(&e, &cfg), DedupKey::new(&w, &cfg));
    }

    #[test]
    fn cache_shares_tables_across_equal_models() {
        let mut cache = PolicyCache::new(config());
        let a = FittedModel::Weibull(Weibull::paper_exemplar());
        let b = a.clone();
        let ta = cache.get_or_build(&a).unwrap();
        let tb = cache.get_or_build(&b).unwrap();
        assert!(Arc::ptr_eq(&ta, &tb));
        assert_eq!(cache.len(), 1);
        let c = cache.counters();
        assert_eq!((c.hits, c.builds, c.shared), (1, 1, 0));
    }

    #[test]
    fn empty_store_stats_are_finite_zeros() {
        let stats = PolicyStore::empty(3).stats();
        assert_eq!(stats.machines, 0);
        assert_eq!(stats.tables, 0);
        assert_eq!(stats.dedup_ratio, 0.0, "empty must not report 1.0");
        assert!(stats.dedup_ratio.is_finite());
    }

    #[test]
    fn store_assembles_sorted_and_deduped() {
        let mut cache = PolicyCache::new(config());
        let w = FittedModel::Weibull(Weibull::paper_exemplar());
        let e = FittedModel::Exponential(Exponential::from_mean(5_000.0).unwrap());
        let tw = cache.get_or_build(&w).unwrap();
        let te = cache.get_or_build(&e).unwrap();
        let store = PolicyStore::assemble(
            7,
            vec![
                (5, Arc::clone(&tw)),
                (1, Arc::clone(&te)),
                (3, Arc::clone(&tw)),
            ],
        )
        .unwrap();
        assert_eq!(store.epoch(), 7);
        assert_eq!(store.len(), 3);
        let stats = store.stats();
        assert_eq!(stats.tables, 2);
        assert!((stats.dedup_ratio - 1.5).abs() < 1e-12);
        assert!(store.next_interval(3, 0.0).is_some());
        assert!(store.next_interval(2, 0.0).is_none());
        assert_eq!(
            store.next_interval(5, 123.0).unwrap().to_bits(),
            tw.next_interval(123.0).to_bits()
        );
        assert!(PolicyStore::assemble(0, vec![(4, tw.clone()), (4, te)]).is_err());
    }

    #[test]
    fn digest_is_input_order_invariant_and_epoch_sensitive() {
        let mut cache = PolicyCache::new(config());
        let w = FittedModel::Weibull(Weibull::paper_exemplar());
        let e = FittedModel::Exponential(Exponential::from_mean(5_000.0).unwrap());
        let tw = cache.get_or_build(&w).unwrap();
        let te = cache.get_or_build(&e).unwrap();
        let fwd = PolicyStore::assemble(1, vec![(1, te.clone()), (2, tw.clone())]).unwrap();
        let rev = PolicyStore::assemble(1, vec![(2, tw.clone()), (1, te.clone())]).unwrap();
        assert_eq!(fwd.digest(), rev.digest());
        let other_epoch = PolicyStore::assemble(2, vec![(1, te), (2, tw)]).unwrap();
        assert_ne!(fwd.digest(), other_epoch.digest());
        assert_ne!(fwd.digest(), PolicyStore::empty(1).digest());
    }

    #[test]
    fn served_value_matches_interpolation_not_nearest_knot() {
        // A genuinely age-varying table must interpolate between knots,
        // not snap to one of them.
        let cfg = config();
        let model = FittedModel::Weibull(Weibull::paper_exemplar());
        let table = CompressedPolicy::build(&model, &cfg).unwrap();
        assert!(table.segments() > 4, "expected a multi-segment table");
        let t_young = table.next_interval(10.0);
        let t_old = table.next_interval(cfg.max_age / 2.0);
        assert!(
            t_young != t_old,
            "paper exemplar T_opt should vary with age"
        );
    }
}
