//! The pool engine: a calendar-queue discrete-event loop over
//! structure-of-arrays machine state.
//!
//! Every machine is a [`chs_cycle::CycleMachine`] — the same per-machine
//! state machine, ledger and observer seam the closed-form executor and
//! the manager server drive — but the engine around it never touches more
//! than the event's own machine plus the fabric's O(rack_size) bucket
//! summary:
//!
//! * Time-keyed events (placement, work end, segment end) live in the
//!   [`CalendarQueue`]; superseded entries are invalidated by segment
//!   index / work epoch and discarded on pop.
//! * Transfer completions are *not* time-keyed: they come from the
//!   [`Fabric`]'s volume-space heaps, which survive every rate change.
//! * Machines are synchronized **lazily**: `advance` is called only at
//!   a machine's own events, with phase durations computed in
//!   machine-local coordinates, so an uncontended pool reproduces the
//!   closed-form executor's ledger bitwise (the identity gate).
//! * Per-event work: O(rack_size) for the fair-share update plus O(log)
//!   heap traffic — independent of pool size. The `rescan` module keeps
//!   the O(machines)-per-event reference this replaces.
//!
//! Determinism: ties order by `(time, kind, machine)` with completions
//! first (the closed-form boundary-commit semantics), machine state is
//! indexed by stable ids, and nothing depends on insertion order or
//! thread count — replays are bitwise identical.

use chs_cycle::{
    clamp_interval, sanitize_age, CycleAccounting, CycleConfig, CycleMachine, CyclePhase,
    NoopObserver,
};
use chs_markov::mix64;

use crate::calendar::{CalendarQueue, Event, EventKind};
use crate::fabric::{Fabric, FabricConfig};
use crate::policy::PoolPolicy;
use crate::stats::{DistSummary, TimeHistogram};
use crate::workload::Timeline;
use crate::{PoolError, Result};

/// Configuration of one pool run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct PoolSimConfig {
    /// Machines in the pool (racked in id order).
    pub machines: usize,
    /// Network capacities and rack geometry.
    pub fabric: FabricConfig,
    /// Checkpoint image size per machine, MB.
    pub image_mb: f64,
    /// Virtual-time window, seconds.
    pub window: f64,
    /// Whether recovery transfers count toward network megabytes.
    pub count_recovery_bytes: bool,
    /// Keep per-machine ledgers in the result (tests and differential
    /// suites; at 10⁶ machines leave this off).
    pub keep_ledgers: bool,
    /// Initialize machines in reverse id order. State is keyed by
    /// stable ids, so results must be bitwise identical either way —
    /// the shuffled-insertion replay gate flips this.
    pub stress_insertion_order: bool,
}

impl PoolSimConfig {
    /// Check every knob.
    pub fn validate(&self) -> Result<()> {
        if self.machines == 0 {
            return Err(PoolError::InvalidConfig("need at least one machine"));
        }
        if !(self.image_mb.is_finite() && self.image_mb > 0.0) {
            return Err(PoolError::InvalidConfig(
                "image size must be positive and finite",
            ));
        }
        if !(self.window.is_finite() && self.window > 0.0) {
            return Err(PoolError::InvalidConfig(
                "window must be positive and finite",
            ));
        }
        self.fabric.validate()
    }

    /// Uncontended duration of one image transfer, seconds — the
    /// nominal measured cost before any transfer completes.
    pub fn nominal_cost(&self) -> f64 {
        self.image_mb / self.fabric.uncontended_mb_s()
    }
}

/// Aggregate outcome of a pool run. (Not serialized wholesale — the
/// per-machine `ledgers` can hold 10⁶ entries; `pool_bench` composes its
/// own report rows from the serializable summaries inside.)
#[derive(Debug, Clone)]
pub struct PoolResult {
    /// Machines simulated.
    pub machines: usize,
    /// Racks in the fabric.
    pub racks: usize,
    /// Window length, seconds.
    pub window: f64,
    /// The merged cycle ledger across all machines.
    pub cycle: CycleAccounting,
    /// Non-stale events processed (machine-events).
    pub events: u64,
    /// Superseded calendar entries discarded on pop.
    pub stale_events: u64,
    /// Transfers that ran to completion.
    pub transfers_completed: u64,
    /// Total duration of completed transfers, seconds.
    pub transfer_seconds: f64,
    /// Mean completed-transfer duration (0 when none completed).
    pub mean_transfer_seconds: f64,
    /// Time-weighted core-link utilization (fraction of capacity).
    pub core_utilization: DistSummary,
    /// Time-weighted rack-uplink utilization pooled over racks
    /// (idle racks contribute zeros).
    pub rack_utilization: DistSummary,
    /// Time-weighted concurrent transfers, pool-wide.
    pub concurrency: DistSummary,
    /// Time-weighted concurrent *checkpoint* (outbound) transfers — the
    /// checkpoint-synchronization statistic.
    pub checkpoint_concurrency: DistSummary,
    /// Time-weighted concurrent recovery (inbound) transfers.
    pub recovery_concurrency: DistSummary,
    /// Order-independent bitwise fingerprint of every machine's ledger;
    /// equal digests mean bitwise-equal replays.
    pub digest: u64,
    /// Per-machine ledgers when `keep_ledgers` was set, else empty.
    pub ledgers: Vec<CycleAccounting>,
}

impl PoolResult {
    /// Aggregate efficiency: committed work per occupied second.
    pub fn efficiency(&self) -> f64 {
        self.cycle.efficiency()
    }

    /// Committed work per second of window per machine — the goodput
    /// signal the congestion-collapse sweep watches.
    pub fn goodput(&self) -> f64 {
        if self.window > 0.0 && self.machines > 0 {
            self.cycle.useful_seconds / (self.window * self.machines as f64)
        } else {
            0.0
        }
    }
}

/// Fingerprint one ledger into a running digest.
fn digest_ledger(mut h: u64, machine: u32, a: &CycleAccounting) -> u64 {
    for bits in [
        a.useful_seconds.to_bits(),
        a.lost_seconds.to_bits(),
        a.lost_work_seconds.to_bits(),
        a.recovery_seconds.to_bits(),
        a.checkpoint_seconds.to_bits(),
        a.total_seconds.to_bits(),
        a.megabytes.to_bits(),
        a.full_megabytes.to_bits(),
        a.partial_megabytes.to_bits(),
        a.recoveries,
        a.recoveries_completed,
        a.checkpoints_attempted,
        a.checkpoints_committed,
        a.failures,
        machine as u64,
    ] {
        h = mix64(h ^ bits);
    }
    h
}

const NO_SEG: u32 = u32::MAX;

/// The pool simulator.
pub struct PoolSim;

struct SimState {
    config: PoolSimConfig,
    fabric: Fabric,
    calendar: CalendarQueue,
    cycles: Vec<CycleMachine>,
    // Structure-of-arrays per-machine state. No per-machine boxes; the
    // steady state allocates nothing beyond amortized heap growth.
    seg_index: Vec<u32>,
    seg_start: Vec<f64>,
    seg_len: Vec<f64>,
    seg_end: Vec<f64>,
    pend_start: Vec<f64>,
    pend_end: Vec<f64>,
    work_until: Vec<f64>, // machine-local clock
    work_epoch: Vec<u32>,
    flow_base: Vec<f64>,
    measured_cost: Vec<f64>,
    // Stats.
    core_util: TimeHistogram,
    rack_util: TimeHistogram,
    conc: TimeHistogram,
    ckpt_conc: TimeHistogram,
    rec_conc: TimeHistogram,
    n_ckpt: u64,
    n_rec: u64,
    events: u64,
    stale: u64,
    transfers_completed: u64,
    transfer_seconds: f64,
}

impl SimState {
    fn rack_of(&self, m: u32) -> u32 {
        m / self.config.fabric.rack_size as u32
    }

    /// Record the piecewise-constant link/concurrency signals for the
    /// slice `[fabric.now(), fabric.now() + dt)`.
    fn record_stats(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        let core = self.config.fabric.core_mb_s;
        let uplink = self.config.fabric.uplink_mb_s;
        self.core_util.record(self.fabric.core_rate() / core, dt);
        let mut active_racks = 0u64;
        let rack_util = &mut self.rack_util;
        self.fabric.for_each_active_bucket(|k, racks, rate| {
            rack_util.record(k as f64 * rate / uplink, dt * racks as f64);
            active_racks += racks as u64;
        });
        let idle = self.fabric.racks() as u64 - active_racks;
        if idle > 0 {
            self.rack_util.record(0.0, dt * idle as f64);
        }
        self.conc.record(self.fabric.active_flows() as f64, dt);
        self.ckpt_conc.record(self.n_ckpt as f64, dt);
        self.rec_conc.record(self.n_rec as f64, dt);
    }

    /// Advance machine `m` to absolute time `t`, crediting `mb`
    /// megabytes to an in-flight transfer. Durations are computed in
    /// machine-local coordinates (exactly as the closed-form executor
    /// accumulates its `age`), which is what makes the uncongested
    /// identity gate bitwise.
    fn sync_to(&mut self, m: u32, local_t: f64, mb: f64) {
        let cycle = &mut self.cycles[m as usize];
        let dt = (local_t - cycle.age()).max(0.0);
        cycle.advance(dt, mb);
    }

    /// Megabytes served to `m`'s in-flight transfer so far (fabric must
    /// already be advanced to the read time).
    fn served(&self, m: u32) -> f64 {
        let image = self.config.image_mb;
        (self.fabric.flow_volume(self.rack_of(m)) - self.flow_base[m as usize]).clamp(0.0, image)
    }

    /// Plan the next interval and start working (machines never rest in
    /// `Ready`, matching the classic contention loop).
    fn plan_and_work(&mut self, m: u32, policy: &mut dyn PoolPolicy) -> Result<()> {
        let i = m as usize;
        let age = self.cycles[i].age();
        let planned =
            clamp_interval(policy.next_interval(m, sanitize_age(age), self.measured_cost[i])?);
        self.cycles[i].start_work(planned, &mut NoopObserver);
        self.work_until[i] = age + planned;
        self.work_epoch[i] = self.work_epoch[i].wrapping_add(1);
        let at = (self.seg_start[i] + self.work_until[i]).max(self.fabric.now());
        if at < self.seg_end[i].min(self.config.window) + 1.0 {
            // Only calendar the boundary when it can still fire; a work
            // interval sailing past its segment end (or the window) is
            // resolved by the SegEnd eviction / final cutoff anyway.
            self.calendar.push(Event {
                time: at,
                kind: EventKind::WorkEnd {
                    epoch: self.work_epoch[i],
                },
                machine: m,
            });
        }
        Ok(())
    }

    /// A transfer completed at absolute `t` for machine `m`.
    fn complete_transfer(&mut self, m: u32, t: f64, policy: &mut dyn PoolPolicy) -> Result<()> {
        let i = m as usize;
        let local = t - self.seg_start[i];
        // Exact completion: the remainder of the image lands in this
        // final slice (the volume ledger agrees to fp dust; the exact
        // form keeps committed images bitwise whole).
        let remaining = self.cycles[i].transfer_remaining_mb().unwrap_or(0.0);
        self.sync_to(m, local, remaining);
        self.fabric.end_flow(m, self.rack_of(m));
        let duration = match self.cycles[i].phase() {
            CyclePhase::Recovery => {
                self.n_rec -= 1;
                self.cycles[i].complete_recovery(&mut NoopObserver)
            }
            CyclePhase::Checkpoint => {
                self.n_ckpt -= 1;
                self.cycles[i].complete_checkpoint(&mut NoopObserver)
            }
            other => unreachable!("transfer completion while {other:?}"),
        };
        self.measured_cost[i] = duration.max(1.0);
        self.transfer_seconds += duration;
        self.transfers_completed += 1;
        self.events += 1;
        self.plan_and_work(m, policy)
    }

    /// A calendar event fired at its recorded time.
    fn handle_event(&mut self, e: Event, timeline: &dyn DynTimeline) -> Result<EventOutcome> {
        let m = e.machine;
        let i = m as usize;
        match e.kind {
            EventKind::Place { seg } => {
                self.seg_index[i] = seg;
                self.seg_start[i] = self.pend_start[i];
                self.seg_end[i] = self.pend_end[i];
                self.seg_len[i] = self.pend_end[i] - self.pend_start[i];
                self.cycles[i].place(self.seg_len[i], &mut NoopObserver);
                self.calendar.push(Event {
                    time: self.seg_end[i],
                    kind: EventKind::SegEnd { seg },
                    machine: m,
                });
                self.flow_base[i] =
                    self.fabric
                        .start_flow(m, self.rack_of(m), self.config.image_mb);
                self.n_rec += 1;
                self.events += 1;
            }
            EventKind::SegEnd { seg } => {
                if self.seg_index[i] != seg || self.cycles[i].phase() == CyclePhase::Down {
                    self.stale += 1;
                    return Ok(EventOutcome::Stale);
                }
                let transferring = self.cycles[i].transferring();
                let mb = if transferring { self.served(m) } else { 0.0 };
                self.sync_to(m, self.seg_len[i], mb);
                if transferring {
                    match self.cycles[i].phase() {
                        CyclePhase::Recovery => self.n_rec -= 1,
                        CyclePhase::Checkpoint => self.n_ckpt -= 1,
                        _ => unreachable!(),
                    }
                    self.fabric.end_flow(m, self.rack_of(m));
                }
                self.cycles[i].evict(&mut NoopObserver);
                self.seg_index[i] = NO_SEG;
                self.events += 1;
                if let Some(next) = timeline.segment(m, seg + 1, self.seg_end[i]) {
                    if next.start < self.config.window && !next.is_empty() {
                        self.pend_start[i] = next.start;
                        self.pend_end[i] = next.end;
                        self.calendar.push(Event {
                            time: next.start.max(self.fabric.now()),
                            kind: EventKind::Place { seg: seg + 1 },
                            machine: m,
                        });
                    }
                }
            }
            EventKind::WorkEnd { epoch } => {
                if self.work_epoch[i] != epoch || self.cycles[i].phase() != CyclePhase::Work {
                    self.stale += 1;
                    return Ok(EventOutcome::Stale);
                }
                self.sync_to(m, self.work_until[i], 0.0);
                self.cycles[i].start_checkpoint(&mut NoopObserver);
                self.flow_base[i] =
                    self.fabric
                        .start_flow(m, self.rack_of(m), self.config.image_mb);
                self.n_ckpt += 1;
                self.events += 1;
            }
        }
        Ok(EventOutcome::Fired)
    }
}

enum EventOutcome {
    Fired,
    Stale,
}

/// Object-safe view of [`Timeline`] for the engine internals.
trait DynTimeline {
    fn segment(&self, machine: u32, index: u32, prev_end: f64) -> Option<crate::workload::Seg>;
}

impl<T: Timeline> DynTimeline for T {
    fn segment(&self, machine: u32, index: u32, prev_end: f64) -> Option<crate::workload::Seg> {
        Timeline::segment(self, machine, index, prev_end)
    }
}

impl PoolSim {
    /// Run the pool to the end of the window.
    pub fn run<T: Timeline, P: PoolPolicy>(
        config: &PoolSimConfig,
        timeline: &T,
        policy: &mut P,
    ) -> Result<PoolResult> {
        config.validate()?;
        let n = config.machines;
        let cycle_config = CycleConfig {
            // Step-driven: durations come from the fabric.
            checkpoint_cost: 0.0,
            recovery_cost: 0.0,
            image_mb: config.image_mb,
            count_recovery_bytes: config.count_recovery_bytes,
        };
        let nominal = config.nominal_cost();
        let mut state = SimState {
            config: *config,
            fabric: Fabric::new(config.fabric, n)?,
            calendar: CalendarQueue::new(n.saturating_mul(2), config.window),
            cycles: vec![CycleMachine::new(cycle_config); n],
            seg_index: vec![NO_SEG; n],
            seg_start: vec![0.0; n],
            seg_len: vec![0.0; n],
            seg_end: vec![0.0; n],
            pend_start: vec![0.0; n],
            pend_end: vec![0.0; n],
            work_until: vec![0.0; n],
            work_epoch: vec![0; n],
            flow_base: vec![0.0; n],
            measured_cost: vec![nominal; n],
            core_util: TimeHistogram::new(0.0, 1.0, 256),
            rack_util: TimeHistogram::new(0.0, 1.0, 256),
            conc: TimeHistogram::new(0.0, n as f64, 256),
            ckpt_conc: TimeHistogram::new(0.0, n as f64, 256),
            rec_conc: TimeHistogram::new(0.0, n as f64, 256),
            n_ckpt: 0,
            n_rec: 0,
            events: 0,
            stale: 0,
            transfers_completed: 0,
            transfer_seconds: 0.0,
        };

        // Seed first placements. Iteration order is irrelevant to the
        // outcome (the replay gate flips it); machine state is keyed by
        // stable ids throughout.
        let order: Box<dyn Iterator<Item = u32>> = if config.stress_insertion_order {
            Box::new((0..n as u32).rev())
        } else {
            Box::new(0..n as u32)
        };
        for m in order {
            if let Some(seg) = timeline.segment(m, 0, 0.0) {
                if seg.start < config.window && !seg.is_empty() {
                    state.pend_start[m as usize] = seg.start;
                    state.pend_end[m as usize] = seg.end;
                    state.calendar.push(Event {
                        time: seg.start,
                        kind: EventKind::Place { seg: 0 },
                        machine: m,
                    });
                }
            }
        }

        // Main loop: next event = min(calendar head, earliest transfer
        // completion); completions win ties (the boundary-commit rule).
        loop {
            let cal = state.calendar.peek();
            let xfer = state.fabric.next_completion();
            let (t_next, is_xfer) = match (cal, xfer) {
                (None, None) => break,
                (Some(e), None) => (e.time, false),
                (None, Some((t, _))) => (t, true),
                (Some(e), Some((t, m))) => {
                    if (t.to_bits(), 0u8, m, 0u32) <= e.key() {
                        (t, true)
                    } else {
                        (e.time, false)
                    }
                }
            };
            if t_next >= state.config.window {
                break;
            }
            let dt = t_next - state.fabric.now();
            state.record_stats(dt);
            state.fabric.advance(t_next);
            if is_xfer {
                let (_, m) = xfer.expect("chosen completion exists");
                state.complete_transfer(m, t_next, policy)?;
            } else {
                let e = state.calendar.pop().expect("chosen event exists");
                state.handle_event(e, timeline)?;
            }
        }

        // Window closed: advance the fabric and every placed machine to
        // the window edge, then flush in-flight phases as cutoffs (no
        // failure recorded) — the same protocol as the classic
        // contention loop.
        let window = state.config.window;
        state.record_stats(window - state.fabric.now());
        state.fabric.advance(window);
        for m in 0..n as u32 {
            let i = m as usize;
            if state.cycles[i].phase() == CyclePhase::Down {
                continue;
            }
            let transferring = state.cycles[i].transferring();
            let mb = if transferring { state.served(m) } else { 0.0 };
            state.sync_to(m, window - state.seg_start[i], mb);
            state.cycles[i].cutoff(&mut NoopObserver);
        }

        // Deterministic aggregation in machine order.
        let mut total = CycleAccounting::default();
        let mut digest = 0x706f_6f6c_u64;
        for (m, cycle) in state.cycles.iter().enumerate() {
            total.absorb(cycle.accounting());
            digest = digest_ledger(digest, m as u32, cycle.accounting());
        }
        let ledgers = if config.keep_ledgers {
            state
                .cycles
                .into_iter()
                .map(|c| c.into_accounting())
                .collect()
        } else {
            Vec::new()
        };

        Ok(PoolResult {
            machines: n,
            racks: state.fabric.racks(),
            window,
            cycle: total,
            events: state.events,
            stale_events: state.stale,
            transfers_completed: state.transfers_completed,
            transfer_seconds: state.transfer_seconds,
            mean_transfer_seconds: if state.transfers_completed > 0 {
                state.transfer_seconds / state.transfers_completed as f64
            } else {
                0.0
            },
            core_utilization: state.core_util.summary(),
            rack_utilization: state.rack_util.summary(),
            concurrency: state.conc.summary(),
            checkpoint_concurrency: state.ckpt_conc.summary(),
            recovery_concurrency: state.rec_conc.summary(),
            digest,
            ledgers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedIntervalPolicy;
    use crate::workload::{Seg, VecTimeline, Workload, WorkloadConfig};

    fn base_config(machines: usize) -> PoolSimConfig {
        PoolSimConfig {
            machines,
            fabric: FabricConfig {
                nic_mb_s: 4.0,
                uplink_mb_s: 16.0,
                core_mb_s: 256.0,
                rack_size: 8,
            },
            image_mb: 512.0,
            window: 100_000.0,
            count_recovery_bytes: true,
            keep_ledgers: true,
            stress_insertion_order: false,
        }
    }

    #[test]
    fn validates_config() {
        let mut c = base_config(0);
        assert!(c.validate().is_err());
        c = base_config(4);
        c.window = f64::NAN;
        assert!(c.validate().is_err());
        c = base_config(4);
        c.image_mb = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn single_machine_hand_computed() {
        // One segment [0, 1000), nic 4 MB/s, 512 MB image (c = 128 s),
        // fixed 200 s intervals: recovery [0, 128), then commits at 456
        // and 784; the third interval's checkpoint starts at 984 and is
        // cut off by the segment end at 1000 (16 s → 64 MB partial).
        let cfg = base_config(1);
        let t = VecTimeline(vec![vec![Seg {
            start: 0.0,
            end: 1000.0,
        }]]);
        let r = PoolSim::run(&cfg, &t, &mut FixedIntervalPolicy(200.0)).unwrap();
        assert_eq!(r.cycle.recoveries_completed, 1);
        assert_eq!(r.cycle.checkpoints_committed, 2);
        assert_eq!(r.cycle.checkpoints_attempted, 3);
        assert_eq!(r.cycle.failures, 1);
        assert_eq!(r.cycle.useful_seconds, 400.0);
        assert_eq!(r.cycle.partial_megabytes, 64.0);
        assert_eq!(r.cycle.megabytes, 512.0 + 2.0 * 512.0 + 64.0);
        assert_eq!(r.cycle.total_seconds, 1000.0);
        assert!(r.cycle.conservation_residual().abs() < 1e-9);
        assert_eq!(
            r.events,
            1 /*place*/ + 3 /*completions*/ + 3 /*workends*/ + 1 /*segend*/
        );
        assert_eq!(r.transfers_completed, 3);
    }

    #[test]
    fn contention_stretches_transfers_across_racks() {
        // 16 machines, one rack of 8 saturating its uplink.
        let mut cfg = base_config(16);
        cfg.fabric.core_mb_s = 24.0; // force core contention too
        cfg.window = 50_000.0;
        let w = Workload::new(WorkloadConfig {
            machines: 16,
            rack_size: 8,
            unique_streams: 2,
            ..WorkloadConfig::default()
        })
        .unwrap();
        let r = PoolSim::run(&cfg, &w, &mut FixedIntervalPolicy(600.0)).unwrap();
        assert!(r.transfers_completed > 0);
        assert!(
            r.mean_transfer_seconds > cfg.nominal_cost(),
            "contention must stretch transfers: {} vs nominal {}",
            r.mean_transfer_seconds,
            cfg.nominal_cost()
        );
        assert!(r.core_utilization.max <= 1.0 + 1e-9);
        assert!(r.concurrency.max > 1.0);
        assert!(r.cycle.conservation_residual().abs() < 1e-6);
    }

    #[test]
    fn replay_is_bitwise_deterministic() {
        let mut cfg = base_config(64);
        cfg.window = 30_000.0;
        let w = Workload::new(WorkloadConfig {
            machines: 64,
            rack_size: 8,
            unique_streams: 4,
            ..WorkloadConfig::default()
        })
        .unwrap();
        let a = PoolSim::run(&cfg, &w, &mut FixedIntervalPolicy(400.0)).unwrap();
        let mut rev = cfg;
        rev.stress_insertion_order = true;
        let b = PoolSim::run(&rev, &w, &mut FixedIntervalPolicy(400.0)).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.cycle, b.cycle);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn ledgers_only_kept_on_request() {
        let mut cfg = base_config(4);
        cfg.window = 10_000.0;
        cfg.keep_ledgers = false;
        let t = VecTimeline(vec![
            vec![Seg {
                start: 0.0,
                end: 900.0,
            }];
            4
        ]);
        let r = PoolSim::run(&cfg, &t, &mut FixedIntervalPolicy(100.0)).unwrap();
        assert!(r.ledgers.is_empty());
        assert!(r.cycle.total_seconds > 0.0);
    }

    #[test]
    fn goodput_and_efficiency_are_fractions() {
        let mut cfg = base_config(8);
        cfg.window = 20_000.0;
        let w = Workload::new(WorkloadConfig {
            machines: 8,
            rack_size: 8,
            unique_streams: 1,
            ..WorkloadConfig::default()
        })
        .unwrap();
        let r = PoolSim::run(&cfg, &w, &mut FixedIntervalPolicy(500.0)).unwrap();
        assert!((0.0..=1.0).contains(&r.efficiency()));
        assert!((0.0..=1.0).contains(&r.goodput()));
        assert!(r.goodput() <= r.efficiency() + 1e-9);
    }
}
