//! Spans and call aggregates recorded from the benchmark's side of each
//! layer boundary.
//!
//! Coarse phases (a prepare, a publish, a pool run) become [`Span`]s kept
//! in memory and written out when the run ends. High-frequency
//! boundaries — millions of policy lookups — would drown in one span per
//! call, so they keep an [`Agg`] of calls, busy time and allocations
//! instead. Phase timers run on every iteration because the end-to-end
//! phase metrics come from them; spans, aggregates and allocation counts
//! are recorded only when the tracer is enabled.

use crate::alloc;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded phase. Times are seconds since the run's origin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Layer boundary name, e.g. `sched.publish`.
    pub name: String,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: String,
    /// Iteration of the timed phase within the run.
    pub run: u32,
    /// Allocations made while the span was open (all threads).
    pub allocs: u64,
    /// Bytes requested while the span was open (all threads).
    pub alloc_bytes: u64,
}

/// In-memory aggregate for a high-frequency boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Calls (or queries, for batch-timed loops) crossing the boundary.
    pub calls: u64,
    /// Nanoseconds spent inside those calls.
    pub busy_ns: u64,
    /// Allocations made inside those calls.
    pub allocs: u64,
    /// Bytes requested inside those calls.
    pub alloc_bytes: u64,
}

impl Agg {
    /// Time `f` as `calls` crossings of the boundary.
    pub fn time<R>(&mut self, calls: u64, f: impl FnOnce() -> R) -> R {
        let (a0, b0) = alloc::snapshot();
        let t0 = Instant::now();
        let r = f();
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::snapshot();
        self.calls += calls;
        self.allocs += a1 - a0;
        self.alloc_bytes += b1 - b0;
        r
    }

    /// Busy seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    fn merge(&mut self, other: &Agg) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// An open phase; close it with [`Tracer::exit`].
#[must_use = "close the phase with Tracer::exit"]
pub struct Phase {
    start: Instant,
    /// Span index and allocation counts at entry, when recording.
    span: Option<(usize, (u64, u64))>,
}

/// Records the spans and aggregates of one benchmark run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggs: BTreeMap<&'static str, Agg>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer for `workload`; records nothing until [`Tracer::set_enabled`].
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            workload,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            aggs: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans and aggregates are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start or stop recording for the next iteration `run`.
    pub fn set_enabled(&mut self, enabled: bool, run: u32) {
        self.enabled = enabled;
        self.run = run;
    }

    /// Open a phase named `name`.
    pub fn enter(&mut self, name: &'static str) -> Phase {
        let start = Instant::now();
        let span = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.into(),
                start: (start - self.origin).as_secs_f64(),
                end: f64::NAN,
                parent: self.open.last().copied(),
                workload: self.workload.into(),
                run: self.run,
                allocs: 0,
                alloc_bytes: 0,
            });
            let index = self.spans.len() - 1;
            self.open.push(index);
            // Counted from here, so the span's own record is not.
            (index, alloc::snapshot())
        });
        Phase { start, span }
    }

    /// Close a phase; returns its duration in seconds. Phases close in
    /// the reverse order they were opened.
    pub fn exit(&mut self, phase: Phase) -> f64 {
        let end = Instant::now();
        if let Some((index, (allocs0, bytes0))) = phase.span {
            assert_eq!(self.open.pop(), Some(index), "phases must nest");
            let (allocs, alloc_bytes) = alloc::snapshot();
            let span = &mut self.spans[index];
            span.end = (end - self.origin).as_secs_f64();
            span.allocs = allocs - allocs0;
            span.alloc_bytes = alloc_bytes - bytes0;
        }
        (end - phase.start).as_secs_f64()
    }

    /// Fold a boundary aggregate into the run's totals (no-op when
    /// disabled).
    pub fn add(&mut self, name: &'static str, agg: &Agg) {
        if self.enabled {
            self.aggs.entry(name).or_default().merge(agg);
        }
    }

    /// Add `n` to the plain counter `name` (no-op when disabled).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Plain counters recorded so far.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Per boundary name: spans folded into an [`Agg`] (one call per
    /// span) plus the recorded aggregates, and each span name's self
    /// time — duration minus the time its child spans cover.
    pub fn summary(&self) -> BTreeMap<&str, SpanSummary> {
        let mut out: BTreeMap<&str, SpanSummary> = BTreeMap::new();
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_s[p] += span.end - span.start;
            }
        }
        for (span, children) in self.spans.iter().zip(child_s) {
            let s = out.entry(&span.name).or_default();
            let duration = span.end - span.start;
            s.total.calls += 1;
            s.total.busy_ns += (duration * 1e9) as u64;
            s.total.allocs += span.allocs;
            s.total.alloc_bytes += span.alloc_bytes;
            s.self_s += duration - children;
        }
        for (name, agg) in &self.aggs {
            let s = out.entry(name).or_default();
            s.total.merge(agg);
            s.self_s += agg.busy_s();
        }
        out
    }
}

/// Totals for one boundary name over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanSummary {
    /// Calls, busy time and allocations.
    pub total: Agg,
    /// Busy seconds not covered by child spans.
    pub self_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("w");
        t.set_enabled(true, 1);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_s = t.exit(inner);
        let outer_s = t.exit(outer);
        let summary = t.summary();
        assert!(outer_s >= inner_s);
        assert!((summary["outer"].self_s - (outer_s - inner_s)).abs() < 1e-3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].run, 1);
    }

    #[test]
    fn disabled_tracer_only_times() {
        let mut t = Tracer::new("w");
        let p = t.enter("x");
        assert!(t.exit(p) >= 0.0);
        t.add("agg", &Agg::default());
        t.count("n", 3);
        assert!(t.spans().is_empty() && t.summary().is_empty() && t.counts().is_empty());
    }
}
