//! Wall-clock benchmark for the conditioned-evaluation kernel layer:
//! times Γ(T) probes through the kernel-based [`VaidyaModel`] (one
//! [`ConditionedDist`] per age, monomorphized families, bits-keyed fresh
//! memo) against a frozen copy of the pre-kernel path (per-probe
//! `FutureLifetime` conditioning through the per-family closed forms of
//! chs-dist's frozen oracle `tests/frozen/conditional.rs`, the old
//! 128-entry exact-f64-key `Vec::find` fresh memo), and verifies the two
//! paths agree on every probe.
//!
//! ```text
//! cargo run -p chs-bench --release --features bench-counters --bin gamma_bench \
//!     [--quick] [--json PATH]
//! ```
//!
//! Results are written to `BENCH_gamma.json` (override with `--json`)
//! in the common report envelope, and the run exits 1 if any gate fails.
//! The probe grid mirrors the sweep's workload: geometric machine ages ×
//! log-spaced candidate intervals, per paper family. Gates:
//!
//! - `{family}.kernel_identity`: every kernel-path Γ within 1e-12
//!   relative of the frozen dyn path (the arithmetic is replicated
//!   operation for operation, so the measured deviation is expected to
//!   be exactly 0).
//! - `{family}.lane_identity` and `{family}.lane_checksum`: the same
//!   grid through [`chs_markov::GammaAtAge::gamma_x4`] in batches of
//!   four, against per-probe scalar kernel calls. Identity is bitwise for
//!   the exponential and Weibull families, ≤ 1e-12 relative for the
//!   hyperexponentials (vectorized phase sweep).
//! - `{family}.lane_speedup`: lane throughput ≥ 2× the frozen scalar
//!   path on the Weibull and both hyperexponential rows.
//! - `quadrature_band.*`: a Weibull fit (α = 0.005) whose survival
//!   integrals abandon the closed forms for composite Gauss–Legendre,
//!   because `e^{z_t}(β/α)Γ(1/α)` overflows. Lanes must match scalar
//!   bitwise there too, and (with `bench-counters`) the fallback counter
//!   must prove the band actually took the quadrature path — at
//!   `--quick` scale as well, so CI smoke always exercises it.
//! - `log_tail_band.*`: a deep-tail age band where `Q(1/α, z_t)`
//!   underflows and the survival integral takes the log-space form.
//!   Lanes must match scalar bitwise, (with `bench-counters`) no probe
//!   may fall back to quadrature, and every survival integral must agree
//!   with a 256-panel Gauss–Legendre reference to 1e-9 relative.

use chs_bench::harness::{best_of, finish, Gates};
use chs_bench::{CommonArgs, TablePrinter};
use chs_benchmark::counters;
use chs_dist::{ConditionedDist, Exponential, FittedModel, HyperExponential, Weibull};
use chs_markov::{CheckpointCosts, VaidyaModel};
use serde::Serialize;
use std::cell::RefCell;

// The frozen per-call conditioning path, shared with chs-dist's
// `kernel_properties` proptests.
#[path = "../../../dist/tests/frozen/conditional.rs"]
mod frozen;

use frozen::{Conditional, FutureLifetime};

/// Checkpoint/recovery cost (the paper's C = 110 s).
const CHECKPOINT_COST: f64 = 110.0;

/// One fresh-quantity memo entry of the pre-kernel path: `(T, (p21, k22))`.
type OldMemoEntry = (f64, (f64, f64));

/// Frozen pre-kernel evaluation path: `FutureLifetime` conditioning on
/// every Γ probe and the old linear-scan fresh memo, kept verbatim as the
/// baseline the kernel layer is measured against.
struct DynPathModel<'a> {
    dist: &'a dyn Conditional,
    costs: CheckpointCosts,
    /// `(entries, round-robin cursor)` — the pre-kernel 128-entry memo.
    memo: RefCell<(Vec<OldMemoEntry>, usize)>,
}

/// Capacity of the frozen path's fresh memo (the pre-kernel constant).
const OLD_MEMO_CAPACITY: usize = 128;

impl<'a> DynPathModel<'a> {
    fn new(dist: &'a dyn Conditional, costs: CheckpointCosts) -> Self {
        Self {
            dist,
            costs,
            memo: RefCell::new((Vec::with_capacity(OLD_MEMO_CAPACITY), 0)),
        }
    }

    fn fresh_quantities(&self, t: f64, horizon21: f64) -> (f64, f64) {
        if let Some(&(_, q)) = self.memo.borrow().0.iter().find(|(key, _)| *key == t) {
            return q;
        }
        let fresh = FutureLifetime::new(self.dist, 0.0);
        let p21 = fresh.survival(horizon21);
        let k22 = if 1.0 - p21 > 0.0 {
            fresh.truncated_mean(horizon21)
        } else {
            0.0
        };
        let mut memo = self.memo.borrow_mut();
        if memo.0.len() < OLD_MEMO_CAPACITY {
            memo.0.push((t, (p21, k22)));
        } else {
            let cursor = memo.1;
            memo.0[cursor] = (t, (p21, k22));
            memo.1 = (cursor + 1) % OLD_MEMO_CAPACITY;
        }
        (p21, k22)
    }

    fn gamma(&self, t: f64, age: f64) -> f64 {
        let c = self.costs.checkpoint;
        let (r, l) = (self.costs.recovery, self.costs.latency);
        let horizon01 = c + t;
        let horizon21 = l + r + t;
        let conditioned = FutureLifetime::new(self.dist, age);
        let p01 = conditioned.survival(horizon01);
        let p02 = 1.0 - p01;
        let k02 = if p02 > 0.0 {
            conditioned.truncated_mean(horizon01)
        } else {
            0.0
        };
        let (p21, k22) = self.fresh_quantities(t, horizon21);
        if p02 <= 0.0 {
            return horizon01;
        }
        if p21 <= f64::MIN_POSITIVE {
            return f64::INFINITY;
        }
        let retry = horizon21 + ((1.0 - p21) / p21) * k22;
        p01 * horizon01 + p02 * (k02 + retry)
    }
}

#[derive(Debug, Serialize)]
struct PathReport {
    seconds: f64,
    gamma_evals_per_sec: f64,
}

impl PathReport {
    fn new(evals: u64, seconds: f64) -> Self {
        Self {
            seconds,
            gamma_evals_per_sec: evals as f64 / seconds.max(1e-12),
        }
    }
}

#[derive(Debug, Serialize)]
struct FamilyReport {
    family: String,
    gamma_evaluations: u64,
    kernel: PathReport,
    dyn_path: PathReport,
    /// Dyn-path wall-clock over kernel wall-clock: the per-probe cost of
    /// re-deriving the age conditioning the kernel hoists out.
    speedup: f64,
    /// Max relative Γ deviation between the two paths over the full
    /// probe grid. Must be ≤ 1e-12 (expected 0.0: the kernel replicates
    /// the reference arithmetic bitwise); the run aborts otherwise.
    max_rel_dev: f64,
    kernel_fresh_memo_hits: u64,
    kernel_fresh_memo_misses: u64,
}

/// Lane-batched Γ evaluation against both scalar baselines.
///
/// The gated `speedup` compares the lane API against the **frozen
/// scalar path** (per-probe `FutureLifetime` conditioning — the
/// reference every differential suite pins against): the lane feature
/// is invariant hoisting *plus* four-probe batching, and that is the
/// ratio the ≥ 2× acceptance floor applies to. `kernel_speedup`
/// isolates the batching increment over the already-hoisted scalar
/// kernel; it is reported but not gated — the bitwise contract keeps
/// the per-lane `powf`/`exp` libm calls serial (vectorized
/// replacements produce different bits), which caps that increment
/// near 1.5×.
#[derive(Debug, Serialize)]
struct LaneReport {
    family: String,
    gamma_evaluations: u64,
    /// The frozen pre-kernel scalar path (same numbers as
    /// `families[].dyn_path`).
    scalar_path: PathReport,
    /// Per-probe scalar calls through the hoisted kernel.
    scalar_kernel: PathReport,
    lane: PathReport,
    /// Lane over frozen scalar path. Gated ≥ 2× on the Weibull and
    /// hyperexponential rows (`gated == true`).
    speedup: f64,
    /// Lane over scalar kernel (ungated, see above).
    kernel_speedup: f64,
    /// Max relative lane-vs-scalar Γ deviation. 0.0 on the bitwise
    /// families (exponential, Weibull); ≤ 1e-12 on the
    /// hyperexponentials.
    max_rel_dev: f64,
    gated: bool,
}

/// A Weibull fit and age band timed lane against scalar, with the
/// quadrature-fallback probes it took.
#[derive(Debug, Serialize)]
struct WeibullBandReport {
    shape: f64,
    scale: f64,
    ages: Vec<f64>,
    intervals: Vec<f64>,
    gamma_evaluations: u64,
    scalar: PathReport,
    lane: PathReport,
    speedup: f64,
    /// Lane vs scalar must be bitwise in the band, so this must be 0.0.
    max_rel_dev: f64,
    /// Quadrature-fallback probes observed during one lane pass over the
    /// band (requires `bench-counters`; 0 means the feature is off).
    quadrature_fallback_probes: u64,
    /// Max relative deviation of the band's survival integrals from a
    /// 256-panel Gauss–Legendre reference (log-tail band only; `null`
    /// on the quadrature band).
    reference_max_rel_dev: Option<f64>,
}

#[derive(Debug, Serialize)]
struct GammaBenchReport {
    ages: usize,
    intervals_per_age: usize,
    repetitions: usize,
    checkpoint_cost: f64,
    families: Vec<FamilyReport>,
    lanes: Vec<LaneReport>,
    weibull_quadrature_band: WeibullBandReport,
    weibull_log_tail_band: WeibullBandReport,
    counters_enabled: bool,
}

/// Geometric grid of `n` machine ages: 0, then 1 s … 1e6 s.
fn age_grid(n: usize) -> Vec<f64> {
    let mut ages = vec![0.0];
    let ratio = 1e6f64.powf(1.0 / (n as f64 - 2.0));
    let mut a = 1.0;
    for _ in 0..(n - 1) {
        ages.push(a);
        a *= ratio;
    }
    ages
}

/// Log-spaced candidate intervals, 1 s … 1e6 s.
fn interval_grid(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1e6f64.powf(i as f64 / (n as f64 - 1.0)))
        .collect()
}

/// Probe horizons for the Weibull bands, in batches of four.
const BAND_INTERVALS: [f64; 8] = [
    500.0, 2_000.0, 5_000.0, 20_000.0, 950.0, 3_300.0, 8_000.0, 14_000.0,
];

/// Time one Weibull fit's band of ages lane against scalar, check the
/// lanes bitwise, and count the quadrature-fallback probes of one lane
/// pass.
fn weibull_band(w: Weibull, ages: Vec<f64>, reps: usize) -> WeibullBandReport {
    let fit = FittedModel::Weibull(w);
    let costs = CheckpointCosts::symmetric(CHECKPOINT_COST);
    let ts = BAND_INTERVALS.to_vec();
    let evals = (ages.len() * ts.len()) as u64;
    let model = VaidyaModel::new(&fit, costs).expect("valid costs");
    let dev = lane_dev(&model, &fit, &ages, &ts);
    let (_, scalar_secs) = best_of(reps, || scalar_sum(&model, &ages, &ts));
    counters::reset();
    let (_, lane_secs) = best_of(reps, || lane_sum(&model, &ages, &ts));

    WeibullBandReport {
        shape: w.shape(),
        scale: w.scale(),
        ages,
        intervals: ts,
        gamma_evaluations: evals,
        scalar: PathReport::new(evals, scalar_secs),
        lane: PathReport::new(evals, lane_secs),
        speedup: scalar_secs / lane_secs.max(1e-12),
        max_rel_dev: dev,
        quadrature_fallback_probes: counters::read()[3] / reps.max(1) as u64,
        reference_max_rel_dev: None,
    }
}

/// Relative deviation of `a` from `b`; 0 when they are equal.
fn rel_dev(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
    }
}

/// Σ Γ over the grid, one scalar probe at a time.
fn scalar_sum(model: &VaidyaModel<'_>, ages: &[f64], ts: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &age in ages {
        let view = model.at_age(age);
        for &t in ts {
            sum += view.gamma(t);
        }
    }
    sum
}

/// Σ Γ over the grid in lane batches of four, in the scalar sum's order.
fn lane_sum(model: &VaidyaModel<'_>, ages: &[f64], ts: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &age in ages {
        let view = model.at_age(age);
        for chunk in ts.chunks_exact(4) {
            let g = view.gamma_x4([chunk[0], chunk[1], chunk[2], chunk[3]]);
            sum += g[0] + g[1] + g[2] + g[3];
        }
    }
    sum
}

/// Max relative deviation of `model`'s lanes from scalar probes of a
/// fresh model of `fit` (so the shared fresh memo cannot leak
/// lane-computed quantities into the reference). Any bit difference
/// counts as at least `f64::MIN_POSITIVE`.
fn lane_dev(model: &VaidyaModel<'_>, fit: &FittedModel, ages: &[f64], ts: &[f64]) -> f64 {
    let reference = VaidyaModel::new(fit, model.costs()).expect("valid costs");
    let mut dev = 0.0f64;
    for &age in ages {
        let (view, ref_view) = (model.at_age(age), reference.at_age(age));
        for chunk in ts.chunks_exact(4) {
            let batch = [chunk[0], chunk[1], chunk[2], chunk[3]];
            for (lane, t) in view.gamma_x4(batch).into_iter().zip(batch) {
                let s = ref_view.gamma(t);
                if lane.to_bits() != s.to_bits() {
                    dev = dev.max(rel_dev(lane, s).max(f64::MIN_POSITIVE));
                }
            }
        }
    }
    dev
}

/// Max relative deviation of a band's survival integrals `∫₀^T S_t`
/// from 256-panel Gauss–Legendre over the conditioned survival, cut
/// where `S_t < e^{−40}`.
fn log_tail_reference_dev(band: &WeibullBandReport) -> f64 {
    let w = Weibull::new(band.shape, band.scale).expect("band fit is valid");
    let mut dev = 0.0f64;
    for &age in &band.ages {
        let kern = ConditionedDist::new(&w, age);
        let zt = (age / w.scale()).powf(w.shape());
        let cut = w.scale() * (zt + 40.0).powf(1.0 / w.shape()) - age;
        for &t in &band.intervals {
            let got = kern.survival_integral(t);
            let want = chs_numerics::quadrature::composite_gauss_legendre(
                |x| kern.survival(x),
                0.0,
                t.min(cut),
                256,
            );
            let rel = ((got - want) / want).abs();
            // `f64::max` would drop a NaN; count it as a failure.
            dev = if rel.is_nan() {
                f64::INFINITY
            } else {
                dev.max(rel)
            };
        }
    }
    dev
}

fn main() {
    let args = CommonArgs::parse();
    let json_path = args.report_path("BENCH_gamma.json");
    let (n_ages, n_ts, reps) = if args.quick { (24, 16, 3) } else { (64, 32, 5) };

    let families: Vec<(&str, FittedModel)> = vec![
        (
            "exponential",
            FittedModel::Exponential(Exponential::from_mean(3_600.0).unwrap()),
        ),
        ("weibull", FittedModel::Weibull(Weibull::paper_exemplar())),
        (
            "hyperexp2",
            FittedModel::HyperExponential(
                HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap(),
            ),
        ),
        (
            "hyperexp3",
            FittedModel::HyperExponential(
                HyperExponential::new(&[
                    (0.5, 1.0 / 120.0),
                    (0.3, 1.0 / 2_500.0),
                    (0.2, 1.0 / 40_000.0),
                ])
                .unwrap(),
            ),
        ),
    ];

    let ages = age_grid(n_ages);
    let ts = interval_grid(n_ts);
    let costs = CheckpointCosts::symmetric(CHECKPOINT_COST);
    let evals = (ages.len() * ts.len()) as u64;
    let mut reports = Vec::new();
    let mut lane_reports = Vec::new();
    let mut gates = Gates::new();

    for (name, fit) in &families {
        eprintln!("{name}: {evals} Γ probes per path, best of {reps} ...");
        let kernel_model = VaidyaModel::new(fit, costs).expect("valid costs");
        let dyn_model = DynPathModel::new(fit, costs);

        // Identity first (untimed): every probe must agree.
        let mut max_rel_dev = 0.0f64;
        for &age in &ages {
            let view = kernel_model.at_age(age);
            for &t in &ts {
                max_rel_dev = max_rel_dev.max(rel_dev(view.gamma(t), dyn_model.gamma(t, age)));
            }
        }

        counters::reset();
        let (kernel_sum, kernel_secs) = best_of(reps, || scalar_sum(&kernel_model, &ages, &ts));
        let [_, hits, misses, _] = counters::read();

        let (dyn_sum, dyn_secs) = best_of(reps, || {
            let mut sum = 0.0;
            for &age in &ages {
                for &t in &ts {
                    sum += dyn_model.gamma(t, age);
                }
            }
            sum
        });

        // The checksums compare the *timed* loops end to end; bitwise
        // equality here means the timing runs did identical work.
        max_rel_dev = max_rel_dev.max(rel_dev(kernel_sum, dyn_sum));
        gates.check(
            format!("{name}.kernel_identity"),
            max_rel_dev <= 1e-12,
            format!("kernel vs frozen dyn path max rel dev {max_rel_dev:.3e}, bound 1e-12"),
        );

        reports.push(FamilyReport {
            family: name.to_string(),
            gamma_evaluations: evals,
            kernel: PathReport::new(evals, kernel_secs),
            dyn_path: PathReport::new(evals, dyn_secs),
            speedup: dyn_secs / kernel_secs.max(1e-12),
            max_rel_dev,
            kernel_fresh_memo_hits: hits,
            kernel_fresh_memo_misses: misses,
        });

        // Lane section: the same grid in batches of four, identity first.
        let lane_bitwise = !matches!(fit, FittedModel::HyperExponential(_));
        let lane_dev = lane_dev(&kernel_model, fit, &ages, &ts);
        let dev_budget = if lane_bitwise { 0.0 } else { 1e-12 };
        gates.check(
            format!("{name}.lane_identity"),
            lane_dev <= dev_budget,
            format!("lane vs scalar kernel max rel dev {lane_dev:.3e}, bound {dev_budget:.0e}"),
        );

        let (lane_total, lane_secs) = best_of(reps, || lane_sum(&kernel_model, &ages, &ts));
        // Same probes, same summation order as the scalar timed loop.
        let checksum_rel = rel_dev(lane_total, kernel_sum);
        gates.check(
            format!("{name}.lane_checksum"),
            checksum_rel <= dev_budget.max(1e-12),
            format!("timed lane vs scalar checksum rel dev {checksum_rel:.3e}"),
        );

        let lane_speedup = dyn_secs / lane_secs.max(1e-12);
        let gated = matches!(*name, "weibull" | "hyperexp2" | "hyperexp3");
        if gated {
            gates.check(
                format!("{name}.lane_speedup"),
                lane_speedup >= 2.0,
                format!("{lane_speedup:.2}x the frozen scalar path, floor 2x"),
            );
        }
        lane_reports.push(LaneReport {
            family: name.to_string(),
            gamma_evaluations: evals,
            scalar_path: PathReport::new(evals, dyn_secs),
            scalar_kernel: PathReport::new(evals, kernel_secs),
            lane: PathReport::new(evals, lane_secs),
            speedup: lane_speedup,
            kernel_speedup: kernel_secs / lane_secs.max(1e-12),
            max_rel_dev: lane_dev,
            gated,
        });
    }

    // Weibull quadrature-fallback band: at α = 0.005 the closed form's
    // e^{z_t}(β/α)Γ(1/α) overflows (Γ(200) > f64::MAX), so every probe
    // integrates by composite Gauss–Legendre. Runs at --quick scale too,
    // so the CI smoke always exercises the fallback lanes.
    let quad_band = weibull_band(Weibull::new(0.005, 1_000.0).unwrap(), vec![0.0, 10.0], reps);
    gates.check(
        "quadrature_band.lane_bitwise",
        quad_band.max_rel_dev == 0.0,
        format!("lane vs scalar max rel dev {:.3e}", quad_band.max_rel_dev),
    );
    if counters::ENABLED {
        gates.check(
            "quadrature_band.fallback_taken",
            quad_band.quadrature_fallback_probes > 0,
            format!(
                "{} Gauss-Legendre fallback probes per pass",
                quad_band.quadrature_fallback_probes
            ),
        );
    }

    // Weibull log-tail band: a fleet fit at ages where z_t ≈ 745–1,100,
    // so Q(1/α, z_t) underflows and the survival integral is evaluated
    // in log space, with no quadrature at all.
    let mut log_band = weibull_band(
        Weibull::new(0.938_711_362_645_384_5, 1_080.429_178_916_454).unwrap(),
        vec![1_238_663.234_801_525, 1.6e6, 2.4e6],
        reps,
    );
    gates.check(
        "log_tail_band.lane_bitwise",
        log_band.max_rel_dev == 0.0,
        format!("lane vs scalar max rel dev {:.3e}", log_band.max_rel_dev),
    );
    if counters::ENABLED {
        gates.check(
            "log_tail_band.no_quadrature",
            log_band.quadrature_fallback_probes == 0,
            format!(
                "{} quadrature-fallback probes per pass",
                log_band.quadrature_fallback_probes
            ),
        );
    }
    let reference_dev = log_tail_reference_dev(&log_band);
    gates.check(
        "log_tail_band.reference",
        reference_dev <= 1e-9,
        format!("max rel dev {reference_dev:.3e} from 256-panel quadrature, bound 1e-9"),
    );
    log_band.reference_max_rel_dev = Some(reference_dev);

    let report = GammaBenchReport {
        ages: ages.len(),
        intervals_per_age: ts.len(),
        repetitions: reps,
        checkpoint_cost: CHECKPOINT_COST,
        families: reports,
        lanes: lane_reports,
        weibull_quadrature_band: quad_band,
        weibull_log_tail_band: log_band,
        counters_enabled: counters::ENABLED,
    };

    println!(
        "\nΓ-evaluation benchmark ({} ages × {} intervals, C = {CHECKPOINT_COST} s)",
        report.ages, report.intervals_per_age
    );
    println!("(speedups over the frozen dyn path; lanes batch 4 probes, gated >= 2x)");
    let printer = TablePrinter::new(vec![12, 12, 12, 8, 12, 8, 8]);
    printer.row(&[
        "family".into(),
        "dyn ev/s".into(),
        "kernel ev/s".into(),
        "kernel".into(),
        "lane ev/s".into(),
        "lane".into(),
        "vs kern".into(),
    ]);
    printer.rule();
    for (f, l) in report.families.iter().zip(&report.lanes) {
        printer.row(&[
            f.family.clone(),
            format!("{:.3e}", f.dyn_path.gamma_evals_per_sec),
            format!("{:.3e}", f.kernel.gamma_evals_per_sec),
            format!("{:.2}x", f.speedup),
            format!("{:.3e}", l.lane.gamma_evals_per_sec),
            format!("{:.2}x", l.speedup),
            format!("{:.2}x", l.kernel_speedup),
        ]);
    }
    printer.rule();
    for (name, b) in [
        ("quadrature", &report.weibull_quadrature_band),
        ("log-tail", &report.weibull_log_tail_band),
    ] {
        println!(
            "weibull {name} band (shape {:.3}, ages {:.2e}–{:.2e}): lane {:.2}x scalar, \
             {} fallback probes/pass",
            b.shape,
            b.ages[0],
            b.ages[b.ages.len() - 1],
            b.speedup,
            b.quadrature_fallback_probes
        );
    }

    if report.counters_enabled {
        for f in &report.families {
            let total = f.kernel_fresh_memo_hits + f.kernel_fresh_memo_misses;
            println!(
                "{}: fresh-memo hit rate {:.1}% ({} / {total})",
                f.family,
                100.0 * f.kernel_fresh_memo_hits as f64 / total.max(1) as f64,
                f.kernel_fresh_memo_hits,
            );
        }
    } else {
        println!("(rebuild with --features bench-counters for memo hit rates)");
    }

    finish(&json_path, &report, &gates);
}
