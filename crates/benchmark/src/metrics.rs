//! The metric contract: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction and regression bound.
//!
//! `BENCHMARK.json` at the repository root lists the end-to-end metrics
//! marked `gated` (those every workload reports) and every per-layer
//! metric; `tests/contract.rs` keeps the two in step.

use Better::{Higher, Lower};
use Kind::{Deterministic, Measured};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, errors).
    Lower,
    /// Larger is better (rates, efficiency, savings).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// How repeated runs of one seed relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock times, rates and peak memory: vary run to run.
    Measured,
    /// A pure function of the seed: bitwise equal across runs.
    Deterministic,
}

/// The five workloads, in the order `run --workload all` starts from.
pub const WORKLOADS: [&str; 5] = [
    "paper-grid",
    "fleet-weibull",
    "fleet-hyperexp",
    "pool-congested",
    "manager-overload",
];

const ALL: &[&str] = &WORKLOADS;
const FLEETS: &[&str] = &["fleet-weibull", "fleet-hyperexp"];
const GRID: &[&str] = &["paper-grid"];

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How runs of one seed relate.
    pub kind: Kind,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Absolute worsening that is always tolerated; the allowance is the
    /// larger of `bound × parent median` and this.
    pub slack: f64,
    /// A hard limit the change's median may not newly cross.
    pub ceiling: Option<f64>,
    /// Workloads that report it.
    pub workloads: &'static [&'static str],
    /// Listed in `BENCHMARK.json` (reported by every workload).
    pub gated: bool,
}

#[allow(clippy::too_many_arguments)]
const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
    slack: f64,
    ceiling: Option<f64>,
    workloads: &'static [&'static str],
    gated: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound,
        slack,
        ceiling,
        workloads,
        gated,
    }
}

/// Every end-to-end metric.
#[rustfmt::skip]
pub const END_TO_END: [MetricDef; 13] = [
    // name                  unit                better  kind           bound slack ceiling     workloads                gated
    def("setup_s",           "s",                Lower,  Measured,      0.25, 0.05, None,       ALL,                     true),
    def("wall_s",            "s",                Lower,  Measured,      0.20, 0.0,  None,       ALL,                     true),
    def("ingest_s",          "s",                Lower,  Measured,      0.20, 0.0,  None,       &["fleet-hyperexp"],     false),
    def("publish_s",         "s",                Lower,  Measured,      0.20, 0.0,  None,       FLEETS,                  false),
    def("republish_s",       "s",                Lower,  Measured,      0.20, 0.0,  None,       &["fleet-weibull"],      false),
    def("serve_qps",         "queries/s",        Higher, Measured,      0.20, 0.0,  None,       FLEETS,                  false),
    def("events_per_s",      "events/s",         Higher, Measured,      0.20, 0.0,  None,       &["pool-congested"],     false),
    def("efficiency",        "useful/total",     Higher, Deterministic, 0.05, 0.0,  None,       ALL,                     true),
    def("mb_per_useful_h",   "MB/useful-h",      Lower,  Deterministic, 0.10, 0.0,  None,       ALL,                     true),
    def("h2_mb_saving_min",  "fraction",         Higher, Deterministic, 0.0,  0.01, None,       GRID,                    false),
    def("serve_max_rel_err", "fraction",         Lower,  Deterministic, 0.10, 0.0,  Some(1e-3), FLEETS,                  false),
    def("peak_rss_mb",       "MB",               Lower,  Measured,      0.10, 0.0,  None,       ALL,                     true),
    def("failed_frac",       "failed/attempted", Lower,  Deterministic, 0.0,  0.0,  None,       ALL,                     false),
];

/// Look up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Boundaries timed from the benchmark's side, with the end-to-end
/// metric each should move and the workload it should move it on. Every
/// one reports `<name>.busy_frac`, `<name>.allocs` and
/// `<name>.alloc_bytes`, all better lower.
#[rustfmt::skip]
pub const BOUNDARIES: [(&str, &str, &str); 11] = [
    ("sim.prepare",                "wall_s",       "paper-grid"),
    ("sim.sweep",                  "wall_s",       "paper-grid"),
    ("sched.observe",              "ingest_s",     "fleet-hyperexp"),
    ("sched.publish",              "publish_s",    "fleet-weibull"),
    ("sched.republish",            "republish_s",  "fleet-weibull"),
    ("markov.store.next_interval", "serve_qps",    "fleet-weibull"),
    ("pool.run",                   "events_per_s", "pool-congested"),
    ("pool.policy",                "events_per_s", "pool-congested"),
    ("pool.timeline",              "events_per_s", "pool-congested"),
    ("manager.run",                "wall_s",       "manager-overload"),
    ("manager.replay",             "wall_s",       "manager-overload"),
];

/// Per-boundary metrics: busy time as a share of the timed phase, and
/// allocations and bytes requested per iteration.
const BOUNDARY_SUFFIXES: [(&str, &str); 3] = [
    ("busy_frac", "fraction"),
    ("allocs", "count"),
    ("alloc_bytes", "bytes"),
];

/// Per-layer metrics other than the boundary ones: name, unit,
/// direction, and the end-to-end metric and workload each should move.
#[rustfmt::skip]
const LAYER_COUNTERS: [(&str, &str, Better, &str, &str); 45] = [
    ("markov.gamma_evals",               "count",          Lower,  "wall_s",          "paper-grid"),
    ("markov.memo_hit_ratio",            "fraction",       Higher, "wall_s",          "paper-grid"),
    ("dist.kernel.quad_fallbacks",       "count",          Lower,  "wall_s",          "paper-grid"),
    ("sched.observe.calls",              "count",          Lower,  "ingest_s",        "fleet-hyperexp"),
    ("sched.refits",                     "count",          Lower,  "ingest_s",        "fleet-hyperexp"),
    ("sched.regime_shifts",              "count",          Lower,  "ingest_s",        "fleet-hyperexp"),
    ("markov.cache.builds",              "count",          Lower,  "publish_s",       "fleet-weibull"),
    ("markov.cache.hits",                "count",          Higher, "publish_s",       "fleet-weibull"),
    ("markov.cache.shared",              "count",          Higher, "publish_s",       "fleet-weibull"),
    ("markov.cache.hit_ratio",           "fraction",       Higher, "republish_s",     "fleet-weibull"),
    ("markov.cluster_rejects",           "count",          Lower,  "publish_s",       "fleet-weibull"),
    ("markov.store.tables",              "count",          Lower,  "publish_s",       "fleet-weibull"),
    ("markov.store.segments_per_table",  "segments",       Lower,  "serve_qps",       "fleet-weibull"),
    ("markov.store.dedup_ratio",         "machines/table", Higher, "publish_s",       "fleet-weibull"),
    ("markov.store.next_interval.calls", "count",          Lower,  "serve_qps",       "fleet-weibull"),
    ("pool.policy.calls",                "count",          Lower,  "events_per_s",    "pool-congested"),
    ("pool.timeline.calls",              "count",          Lower,  "events_per_s",    "pool-congested"),
    ("pool.self_frac",                   "fraction",       Lower,  "events_per_s",    "pool-congested"),
    ("pool.events",                      "count",          Lower,  "events_per_s",    "pool-congested"),
    ("pool.stale_ratio",                 "fraction",       Lower,  "events_per_s",    "pool-congested"),
    ("pool.transfers_completed",         "count",          Higher, "wall_s",          "pool-congested"),
    ("pool.mean_transfer_s",             "sim_s",          Lower,  "efficiency",      "pool-congested"),
    ("pool.core_util_mean",              "fraction",       Higher, "efficiency",      "pool-congested"),
    ("pool.concurrency_mean",            "transfers",      Lower,  "wall_s",          "pool-congested"),
    ("manager.transfers_started",        "count",          Lower,  "wall_s",          "manager-overload"),
    ("manager.link_util",                "fraction",       Higher, "efficiency",      "manager-overload"),
    ("manager.mean_transfer_s",          "sim_s",          Lower,  "efficiency",      "manager-overload"),
    ("manager.lane.recovery.busy_s",     "sim_s",          Lower,  "wall_s",          "manager-overload"),
    ("manager.lane.checkpoint.busy_s",   "sim_s",          Lower,  "wall_s",          "manager-overload"),
    ("manager.lane.prefetch.busy_s",     "sim_s",          Lower,  "wall_s",          "manager-overload"),
    ("manager.deferred",                 "count",          Lower,  "wall_s",          "manager-overload"),
    ("manager.defer_rate",               "fraction",       Lower,  "failed_frac",     "manager-overload"),
    ("manager.dlq.enqueued",             "count",          Lower,  "failed_frac",     "manager-overload"),
    ("manager.replay.replayed",          "count",          Higher, "failed_frac",     "manager-overload"),
    ("manager.replay.abandoned",         "count",          Lower,  "failed_frac",     "manager-overload"),
    ("net.faults_injected",              "count",          Lower,  "wall_s",          "manager-overload"),
    ("net.retries",                      "count",          Lower,  "wall_s",          "manager-overload"),
    ("observer.checkpoint_deferred",     "count",          Lower,  "wall_s",          "manager-overload"),
    ("observer.dead_letter_enqueued",    "count",          Lower,  "failed_frac",     "manager-overload"),
    ("observer.dead_letter_replayed",    "count",          Lower,  "failed_frac",     "manager-overload"),
    ("cycle.checkpoints_attempted",      "count",          Lower,  "mb_per_useful_h", "paper-grid"),
    ("cycle.commit_ratio",               "fraction",       Higher, "efficiency",      "paper-grid"),
    ("cycle.lost_work_s",                "sim_s",          Lower,  "efficiency",      "paper-grid"),
    ("cycle.wasted_mb",                  "MB",             Lower,  "mb_per_useful_h", "manager-overload"),
    ("tracing_overhead",                 "fraction",       Lower,  "wall_s",          "pool-congested"),
];

/// One per-layer metric (traced runs only; no bound).
#[derive(Debug, Clone)]
pub struct Layer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// The workload on which it should move it.
    pub on: &'static str,
}

/// Every per-layer metric: the boundary ones, then the counters.
pub fn per_layer() -> Vec<Layer> {
    let boundaries = BOUNDARIES.iter().flat_map(|&(boundary, moves, on)| {
        BOUNDARY_SUFFIXES.iter().map(move |&(suffix, unit)| Layer {
            name: format!("{boundary}.{suffix}"),
            unit,
            better: Lower,
            moves,
            on,
        })
    });
    let counters = LAYER_COUNTERS
        .iter()
        .map(|&(name, unit, better, moves, on)| Layer {
            name: name.into(),
            unit,
            better,
            moves,
            on,
        });
    boundaries.chain(counters).collect()
}
