//! Run sets and the `compare` gate between two of them.

use crate::metrics::{self, Better, Kind, MetricDef};
use crate::runner::RunReport;
use crate::stats::{median, quartiles, relative_spread};
use serde::{Deserialize, Serialize};

/// Fewest alternating pairs a claimed improvement rests on.
const MIN_PAIRS: usize = 10;

/// What `run` writes: every run's report, in execution order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSet {
    /// Input seed.
    pub seed: u64,
    /// Rayon worker threads.
    pub threads: usize,
    /// Seconds of timed iterations per run.
    pub seconds: f64,
    /// Traced runs.
    pub trace: bool,
    /// Test-sized workloads.
    pub quick: bool,
    /// One report per (workload, repetition).
    pub runs: Vec<RunReport>,
}

impl RunSet {
    /// Workloads present, in first-run order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.runs {
            if !out.contains(&r.workload.as_str()) {
                out.push(&r.workload);
            }
        }
        out
    }

    /// The values of end-to-end metric `metric` on `workload`, one per
    /// run, in execution order.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.end_to_end.get(metric).map(|m| m.value))
            .collect()
    }

    /// One line per deterministic output that differs between runs of
    /// one workload (digests and deterministic metrics, bitwise).
    pub fn nondeterminism(&self) -> Vec<String> {
        let mut out = Vec::new();
        for w in self.workloads() {
            let runs: Vec<&RunReport> = self.runs.iter().filter(|r| r.workload == w).collect();
            if runs.iter().any(|r| r.digest != runs[0].digest) {
                out.push(format!("{w}: output digests differ across runs"));
            }
            for m in metrics::END_TO_END
                .iter()
                .filter(|m| m.kind == Kind::Deterministic)
            {
                let values = self.values(w, m.name);
                if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                    out.push(format!("{w}: {} differs across runs: {values:?}", m.name));
                }
            }
        }
        out
    }
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better in at least nine tenths of ten or more paired runs, with
    /// medians further apart than the parent's interquartile range.
    Improved,
    /// Within the bound and not a claimable gain.
    Unchanged,
    /// Worse by more than the bound (or past a hard ceiling).
    Worse,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` reads strictly better than `b`.
fn better(def: &MetricDef, a: f64, b: f64) -> bool {
    match def.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Whether `change` beats `parent` by the paired rule: at least
/// [`MIN_PAIRS`] pairs (run `i` of each side), a win in at least nine
/// tenths of them (ties count for neither side), and medians further
/// apart than the parent's interquartile range.
fn paired_win(def: &MetricDef, parent: &[f64], change: &[f64]) -> bool {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(def, **c, **p))
        .count();
    let [q1, _, q3] = quartiles(parent);
    let gap = (median(change) - median(parent)).abs();
    pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gap > q3 - q1
}

/// Judge one metric. "Worse" means the change's median is worse than the
/// parent's by more than the allowance (the larger of `bound × parent
/// median` and the metric's absolute slack) or crosses its ceiling;
/// (a ceiling the parent already exceeds cannot be crossed);
/// "unresolved" means either side's spread is wider than the bound,
/// unless every change run beats (or, for a regression, loses to) every
/// parent run.
pub fn verdict(def: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let (pm, cm) = (median(parent), median(change));
    let worse_by = match def.better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    };
    let allowance = (def.bound * pm.abs()).max(def.slack);
    let crosses = def.ceiling.is_some_and(|c| cm > c && pm <= c);
    let regression = worse_by > allowance || crosses;
    let wide = def.kind != Kind::Deterministic
        && (relative_spread(parent) > def.bound || relative_spread(change) > def.bound);
    let every =
        |f: &dyn Fn(f64, f64) -> bool| change.iter().all(|&c| parent.iter().all(|&p| f(c, p)));
    if wide {
        if every(&|c, p| better(def, c, p)) {
            Verdict::Improved
        } else if regression && every(&|c, p| better(def, p, c)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if regression {
        Verdict::Worse
    } else if paired_win(def, parent, change) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One compared metric on one workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// The metric.
    pub def: &'static MetricDef,
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Parent runs.
    pub parent_runs: usize,
    /// Change runs.
    pub change_runs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare every end-to-end metric both sets report, workload by
/// workload.
pub fn compare(parent: &RunSet, change: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in parent.workloads() {
        for def in &metrics::END_TO_END {
            let (p, c) = (parent.values(w, def.name), change.values(w, def.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: w.to_string(),
                def,
                parent: quartiles(&p),
                change: quartiles(&c),
                parent_runs: p.len(),
                change_runs: c.len(),
                verdict: verdict(def, &p, &c),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::end_to_end(name).expect("known metric")
    }

    #[test]
    fn verdicts() {
        let wall = def("wall_s");
        let base: Vec<f64> = (0..10).map(|i| 1.0 + 0.002 * i as f64).collect();
        assert_eq!(verdict(wall, &base, &base), Verdict::Unchanged);
        let slower: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(wall, &base, &slower), Verdict::Worse);
        let within: Vec<f64> = base.iter().map(|x| x * 1.1).collect();
        assert_eq!(verdict(wall, &base, &within), Verdict::Unchanged);
        let faster: Vec<f64> = base.iter().map(|x| x * 0.7).collect();
        assert_eq!(verdict(wall, &base, &faster), Verdict::Improved);
        // Too few pairs to claim the gain.
        assert_eq!(verdict(wall, &base[..5], &faster[..5]), Verdict::Unchanged);
        let noisy = [1.0, 1.5, 0.8, 1.3, 0.9];
        assert_eq!(verdict(wall, &noisy, &noisy), Verdict::Unresolved);
        // Ceiling and absolute slack.
        let err = def("serve_max_rel_err");
        assert_eq!(verdict(err, &[9e-4], &[9.5e-4]), Verdict::Unchanged);
        assert_eq!(verdict(err, &[9.5e-4], &[1.01e-3]), Verdict::Worse);
        assert_eq!(verdict(err, &[0.5], &[0.52]), Verdict::Unchanged);
        let saving = def("h2_mb_saving_min");
        assert_eq!(verdict(saving, &[0.22], &[0.215]), Verdict::Unchanged);
        assert_eq!(verdict(saving, &[0.22], &[0.205]), Verdict::Worse);
        let failed = def("failed_frac");
        assert_eq!(verdict(failed, &[0.0], &[1e-6]), Verdict::Worse);
    }
}
