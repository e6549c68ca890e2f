//! One benchmark run: set a workload up several times, run its timed
//! phase until the time budget is spent, check the outputs, and reduce
//! everything to the report the result line and the run files are made
//! from.

use crate::metrics::{self, Better, Kind, BOUNDARIES, END_TO_END};
use crate::stats::median;
use crate::trace::{Span, SpanSummary, Tracer};
use crate::workloads::fleet::{Family, Fleet};
use crate::workloads::manager::ManagerOverload;
use crate::workloads::paper_grid::PaperGrid;
use crate::workloads::pool::PoolCongested;
use crate::workloads::{Iteration, Scale, Workload};
use crate::{alloc, counters};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Default input seed; seed 7 is the holdout.
pub const DEFAULT_SEED: u64 = 2_005;
/// Seconds of timed iterations per run (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 12.0;
/// Default rayon threads (capped at the cores present).
pub const DEFAULT_THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Fewest measured iterations per run, whatever the time budget (per
/// side in a traced run).
const MIN_ITERATIONS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Seconds of timed iterations to measure.
    pub seconds: f64,
    /// Interleave traced iterations and report per-layer metrics.
    pub trace: bool,
    /// Rayon worker threads.
    pub threads: usize,
    /// Test-sized workloads.
    pub quick: bool,
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Everything one run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Rayon worker threads.
    pub threads: usize,
    /// Whether per-layer metrics were recorded.
    pub trace: bool,
    /// Test-sized workloads.
    pub quick: bool,
    /// Built with the Γ/memo/quadrature counters.
    pub counters: bool,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Timed-phase seconds of each measured untraced iteration.
    pub wall_s: Vec<f64>,
    /// Timed-phase seconds of each traced iteration.
    pub traced_wall_s: Vec<f64>,
    /// Fingerprint of the deterministic outputs, shared by every
    /// iteration.
    pub digest: String,
    /// No check failed.
    pub correct: bool,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Operations attempted over every iteration.
    pub attempted: u64,
    /// Operations that failed over every iteration.
    pub failed: u64,
    /// End-to-end metrics this workload reports; timings are the best
    /// iteration's.
    pub end_to_end: BTreeMap<String, Reading>,
    /// Per-layer metrics (traced runs).
    pub per_layer: BTreeMap<String, Reading>,
    /// Per boundary: calls, busy and self time, allocations (traced runs).
    pub boundaries: BTreeMap<String, BoundaryReport>,
    /// Every span recorded (traced runs).
    pub spans: Vec<Span>,
}

/// Totals for one boundary over a traced run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BoundaryReport {
    /// Crossings (spans, calls or queries).
    pub calls: u64,
    /// Busy seconds.
    pub busy_s: f64,
    /// Busy seconds not covered by child spans.
    pub self_s: f64,
    /// Allocations.
    pub allocs: u64,
    /// Bytes requested.
    pub alloc_bytes: u64,
}

impl RunReport {
    /// The result line: the metrics `BENCHMARK.json` lists —
    /// end-to-end ones when untraced, per-layer ones when traced.
    pub fn result_line(&self) -> String {
        let metrics = if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: BTreeMap<String, Reading> = metrics
            .iter()
            .filter(|(name, _)| self.trace || metrics::end_to_end(name).is_some_and(|m| m.gated))
            .map(|(name, reading)| (name.clone(), reading.clone()))
            .collect();
        #[derive(Serialize)]
        struct Line {
            correct: bool,
            attempted: u64,
            failed: u64,
            metrics: BTreeMap<String, Reading>,
        }
        serde_json::to_string(&Line {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        })
        .expect("serializable")
    }
}

/// Run the named workload.
///
/// # Errors
/// An unknown workload name.
pub fn run_named(args: &RunArgs) -> Result<RunReport, String> {
    let scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Bench
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(args.threads)
        .build()
        .map_err(|e| format!("thread pool: {e}"))?;
    pool.install(|| match args.workload.as_str() {
        "paper-grid" => Ok(measure(&PaperGrid::new(scale), "paper-grid", args)),
        "fleet-weibull" => Ok(measure(
            &Fleet::new(Family::Weibull, scale),
            "fleet-weibull",
            args,
        )),
        "fleet-hyperexp" => Ok(measure(
            &Fleet::new(Family::HyperExp, scale),
            "fleet-hyperexp",
            args,
        )),
        "pool-congested" => Ok(measure(&PoolCongested::new(scale), "pool-congested", args)),
        "manager-overload" => Ok(measure(
            &ManagerOverload::new(scale),
            "manager-overload",
            args,
        )),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            metrics::WORKLOADS.join(", ")
        )),
    })
}

/// One timed iteration: its wall seconds and reduction.
struct Timed {
    wall_s: f64,
    it: Iteration,
}

fn measure<W: Workload>(w: &W, name: &'static str, args: &RunArgs) -> RunReport {
    let mut failures = Vec::new();

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut input = None;
    let mut input_digest = None;
    for _ in 0..SETUP_REPEATS {
        drop(input.take());
        let t0 = Instant::now();
        let generated = w.setup(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        let digest = w.input_digest(&generated);
        if *input_digest.get_or_insert(digest) != digest {
            failures.push("repeated set-ups generated different inputs".into());
        }
        input = Some(generated);
    }
    let input = input.expect("at least one set-up");

    // Warm-up iteration: its output is the one checked, and every later
    // iteration must reproduce its deterministic outputs bitwise.
    let mut tracer = Tracer::new(name);
    let output = w.run(&input, &mut tracer);
    let mut reference = w.summarize(&output);
    let checked = w.check(&input, &output);
    drop(output);
    failures.extend(checked.failures);
    reference.values.extend(checked.values);
    let (mut attempted, mut failed) = (reference.attempted, reference.failed);

    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let mut layer_counters = [0u64; 4];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds.max(0.0));
    for i in 1u32.. {
        let enough = |v: &Vec<Timed>| v.len() >= MIN_ITERATIONS;
        if Instant::now() >= deadline && enough(&untraced) && (!args.trace || enough(&traced)) {
            break;
        }
        let trace_this = args.trace && i % 2 == 0;
        tracer.set_enabled(trace_this, i);
        if trace_this {
            counters::reset();
            alloc::set_counting(true);
        }
        let t0 = Instant::now();
        let output = w.run(&input, &mut tracer);
        let wall_s = t0.elapsed().as_secs_f64();
        if trace_this {
            alloc::set_counting(false);
            for (total, n) in layer_counters.iter_mut().zip(counters::read()) {
                *total += n;
            }
        }
        let it = w.summarize(&output);
        drop(output);
        if let Some(why) = differs(&reference, &it) {
            failures.push(format!("iteration {i}: {why}"));
        }
        attempted += it.attempted;
        failed += it.failed;
        let timed = Timed { wall_s, it };
        if trace_this {
            traced.push(timed);
        } else {
            untraced.push(timed);
        }
    }
    tracer.set_enabled(false, 0);

    let walls = |v: &[Timed]| v.iter().map(|t| t.wall_s).collect::<Vec<f64>>();
    let (wall_s, traced_wall_s) = (walls(&untraced), walls(&traced));
    let timing = |key: &str, better| best(untraced.iter().map(|t| t.it.timings[key]), better);

    let mut end_to_end = BTreeMap::new();
    for m in END_TO_END.iter().filter(|m| m.workloads.contains(&name)) {
        let value = match (m.name, m.kind) {
            ("setup_s", _) => median(&setup_s),
            ("wall_s", _) => best(wall_s.iter().copied(), Better::Lower),
            ("peak_rss_mb", _) => peak_rss_mb(),
            ("failed_frac", _) => failed as f64 / attempted.max(1) as f64,
            (key, Kind::Measured) => timing(key, m.better),
            (key, _) => reference.values.get(key).copied().unwrap_or(f64::NAN),
        };
        if !value.is_finite() {
            failures.push(format!("metric {} is {value}", m.name));
        }
        end_to_end.insert(m.name.to_string(), reading(value, m.unit));
    }

    let (per_layer, boundaries, spans) = if args.trace {
        let summary = tracer.summary();
        let per_layer = layer_metrics(
            &summary,
            &tracer,
            &reference,
            layer_counters,
            &wall_s,
            &traced_wall_s,
        );
        let boundaries = summary
            .iter()
            .map(|(name, s)| {
                let report = BoundaryReport {
                    calls: s.total.calls,
                    busy_s: s.total.busy_s(),
                    self_s: s.self_s,
                    allocs: s.total.allocs,
                    alloc_bytes: s.total.alloc_bytes,
                };
                (name.to_string(), report)
            })
            .collect();
        let spans = tracer.spans().to_vec();
        (per_layer, boundaries, spans)
    } else {
        Default::default()
    };

    RunReport {
        workload: name.into(),
        seed: args.seed,
        threads: args.threads,
        trace: args.trace,
        quick: args.quick,
        counters: counters::ENABLED,
        setup_s,
        wall_s,
        traced_wall_s,
        digest: format!("{:016x}", reference.digest),
        correct: failures.is_empty(),
        failures,
        attempted,
        failed,
        end_to_end,
        per_layer,
        boundaries,
        spans,
    }
}

/// The best of a run's iterations: the fastest time or the highest rate.
/// Interference on a shared machine only ever slows an iteration down,
/// so the best one is the steadiest estimate of the code's own cost.
fn best(values: impl Iterator<Item = f64>, better: Better) -> f64 {
    match better {
        Better::Lower => values.fold(f64::INFINITY, f64::min),
        Better::Higher => values.fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Why `it` does not reproduce the reference's deterministic outputs.
fn differs(reference: &Iteration, it: &Iteration) -> Option<String> {
    if it.digest != reference.digest {
        return Some(format!(
            "digest {:016x} != {:016x}",
            it.digest, reference.digest
        ));
    }
    it.values.iter().find_map(|(key, v)| {
        let r = reference.values.get(key)?;
        (v.to_bits() != r.to_bits()).then(|| format!("{key} = {v} != {r}"))
    })
}

fn reading(value: f64, unit: &str) -> Reading {
    Reading {
        value,
        unit: unit.into(),
    }
}

/// Per-layer metrics of a traced run: per-iteration means over the
/// traced iterations, busy times as shares of the traced wall time.
fn layer_metrics(
    summary: &BTreeMap<&str, SpanSummary>,
    tracer: &Tracer,
    reference: &Iteration,
    counters: [u64; 4],
    wall_s: &[f64],
    traced_wall_s: &[f64],
) -> BTreeMap<String, Reading> {
    let n = traced_wall_s.len().max(1) as f64;
    let traced_total: f64 = traced_wall_s.iter().sum();
    let busy = |name: &str| summary.get(name).map_or(0.0, |s| s.total.busy_s());
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (boundary, _, _) in BOUNDARIES {
        let s = summary.get(boundary).copied().unwrap_or_default();
        values.insert(
            format!("{boundary}.busy_frac"),
            s.total.busy_s() / traced_total,
        );
        values.insert(format!("{boundary}.allocs"), s.total.allocs as f64 / n);
        values.insert(
            format!("{boundary}.alloc_bytes"),
            s.total.alloc_bytes as f64 / n,
        );
    }
    for boundary in ["pool.policy", "pool.timeline"] {
        let calls = summary.get(boundary).map_or(0, |s| s.total.calls);
        values.insert(format!("{boundary}.calls"), calls as f64 / n);
    }
    values.insert(
        "pool.self_frac".into(),
        (busy("pool.run") - busy("pool.policy") - busy("pool.timeline")) / traced_total,
    );
    let [gamma, hits, misses, quad] = counters;
    values.insert("markov.gamma_evals".into(), gamma as f64 / n);
    values.insert(
        "markov.memo_hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.insert("dist.kernel.quad_fallbacks".into(), quad as f64 / n);
    for (name, count) in tracer.counts() {
        values.insert(name.to_string(), *count as f64 / n);
    }
    let fastest = |walls: &[f64]| best(walls.iter().copied(), Better::Lower);
    values.insert(
        "tracing_overhead".into(),
        fastest(traced_wall_s) / fastest(wall_s) - 1.0,
    );
    metrics::per_layer()
        .into_iter()
        .map(|layer| {
            let value = values
                .get(&layer.name)
                .or_else(|| reference.values.get(layer.name.as_str()))
                .copied()
                .unwrap_or(0.0);
            (layer.name, reading(value, layer.unit))
        })
        .collect()
}

/// Peak resident set of this process, MB (Linux `VmHWM`; NaN elsewhere).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
