//! The manager server's event loop — the one driver for many jobs
//! checkpointing over a shared link.
//!
//! Each client is a job pinned to its own emulated machine, driving a
//! [`CycleMachine`]; every transfer attempt consults the [`FaultPlan`]
//! and runs the retry/abandon protocol. A [`WeightedFairLink`] serves
//! three priority lanes, checkpoint starts pass admission control, and
//! retry-exhausted transfers go to the dead-letter queue with full
//! resume state. Fits resolve through chs-condor's [`resolve_fit`].
//!
//! Determinism discipline: every decision that could depend on
//! scheduling order (backoff jitter, prefetch draws) is keyed by a
//! stable transfer id `(client, seq)` through splitmix hashing, so the
//! run is a pure function of `(config, plan)` — bitwise identical for
//! any bootstrap thread count, which the digest gate checks. The root
//! `tests/contention_differential.rs` checks [`ManagerConfig::classic`]
//! against a frozen copy of the classic processor-sharing loop.

use crate::config::{ManagerConfig, ManagerOutcome, ManagerReport, ManagerResult};
use crate::index::TimeIndex;
use crate::{ManagerError, Result};
use chs_condor::machine::{EmulatedMachine, Segment};
use chs_condor::{resolve_fit, FaultReport, ResolvedFit};
use chs_cycle::{
    CycleAccounting, CycleConfig, CycleMachine, CycleObserver, CyclePhase, NoopObserver,
    TransferFaultKind,
};
use chs_markov::mix64;
use chs_net::faults::{FaultPlan, RetryPolicy, TransferFault};
use chs_net::{DeadLetter, DeadLetterQueue, Lane};
use chs_pool::WeightedFairLink;

const EPS: f64 = 1e-7;

/// Domain separation for the per-decision jitter and prefetch draws.
const SALT_JITTER: u64 = 0x6A69_7474_6572_0001;
const SALT_PREFETCH: u64 = 0x7072_6566_0000_0001;

/// A uniform draw in [0, 1) from a mixed 64-bit value.
fn unit_f64(x: u64) -> f64 {
    (mix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// The backoff-jitter draw for retry `attempt` of transfer
/// `(client, seq)` — a pure function of the stable id, so replays are
/// bitwise identical regardless of scheduling or thread count.
fn jitter_draw(seed: u64, client: u64, seq: u64, attempt: u32) -> f64 {
    unit_f64(
        seed ^ mix64(client.wrapping_add(SALT_JITTER))
            ^ mix64(
                seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(attempt as u64),
            ),
    )
}

/// One bootstrapped client: its machine, resolved fit, and the fit
/// fallbacks its resolution counted.
type BootstrappedClient = (EmulatedMachine, ResolvedFit, FaultReport);

/// Per-client bootstrap: generate the machine and resolve its fit under
/// the plan's fit-failure injection. A natural fit failure aborts the
/// run, as the classic loop does; only injected failures degrade. Pure
/// function of `(config, plan, i)` — safe to evaluate on any thread in
/// any order.
fn bootstrap_client(
    config: &ManagerConfig,
    plan: &FaultPlan,
    i: usize,
) -> Result<BootstrappedClient> {
    let machine = EmulatedMachine::generate(
        &config.pool,
        i as u32,
        config.history_len,
        config.window * 2.0 + 7.0 * 86_400.0,
        config.seed,
    );
    let injected = plan.fit_failure(config.seed.wrapping_add(i as u64), 0);
    let mut report = FaultReport::default();
    let fit = resolve_fit(config.model, &machine.history, injected, &mut report)?;
    Ok((machine, fit, report))
}

/// Bootstrap every client, fanning out across `threads` workers. Each
/// slot is written by exactly one worker and the outputs are pure
/// per-index functions, so the assembled vector is identical for every
/// thread count. Returns the clients and the fit fallbacks they counted.
fn bootstrap_clients(
    config: &ManagerConfig,
    plan: &FaultPlan,
) -> Result<(Vec<(EmulatedMachine, ResolvedFit)>, FaultReport)> {
    let n = config.clients;
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        config.threads
    }
    .min(n)
    .max(1);

    let mut slots: Vec<Option<Result<BootstrappedClient>>> = Vec::new();
    slots.resize_with(n, || None);
    if threads == 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(bootstrap_client(config, plan, i));
        }
    } else {
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (c, chunk_slots) in slots.chunks_mut(chunk).enumerate() {
                let base = c * chunk;
                scope.spawn(move || {
                    for (k, slot) in chunk_slots.iter_mut().enumerate() {
                        *slot = Some(bootstrap_client(config, plan, base + k));
                    }
                });
            }
        });
    }

    let mut out = Vec::with_capacity(n);
    let mut fallbacks = FaultReport::default();
    for slot in slots {
        let (machine, fit, counted) = slot.expect("bootstrap slot unfilled")?;
        fallbacks.fallback_exponential += counted.fallback_exponential;
        fallbacks.fallback_fixed += counted.fallback_fixed;
        out.push((machine, fit));
    }
    Ok((out, fallbacks))
}

// ---------------------------------------------------------------------
// Per-client transfer sub-state
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum XferState {
    Idle,
    Unavail { until: f64 },
    Active { fault: Option<ActiveFault> },
    Stalled { until: f64 },
    Backoff { until: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ActiveFault {
    Stall {
        remaining_floor: f64,
        timeout_at: f64,
    },
    Drop {
        remaining_floor: f64,
    },
    Corrupt,
}

struct Client {
    machine: EmulatedMachine,
    fit: ResolvedFit,
    seg_index: usize,
    cycle: CycleMachine,
    work_until: f64,
    /// Planned work seconds of the current interval (for defer events).
    planned_work: f64,
    measured_cost: f64,
    completed_transfer_time: f64,
    completed_transfers: u64,
    seg_start: f64,
    /// Fault-decision lane: the plan's faults are a pure function of
    /// `(lane, attempt index)`.
    lane: u64,
    counter: u64,
    /// Stable transfer-phase sequence number (the `seq` half of the
    /// dead-letter id and the jitter key).
    xfer_seq: u64,
    xfer: XferState,
    retries_this_phase: u32,
    attempt_started_mb: f64,
    attempt_active_since: f64,
    phase_clean: bool,
}

impl Client {
    fn current_segment(&self) -> Option<Segment> {
        self.machine.segments().get(self.seg_index).copied()
    }

    /// The earliest time the client's own state can fire: its segment
    /// start while down, the work deadline or segment end while working,
    /// the segment end or the outage/stall/backoff deadline while
    /// transferring. An active transfer's completion is keyed on the
    /// link instead (see [`WeightedFairLink::next_completion`]).
    fn event_key(&self) -> f64 {
        let seg = self.current_segment();
        let seg_end = seg.map_or(f64::INFINITY, |s| s.end);
        match self.cycle.phase() {
            CyclePhase::Down => seg.map_or(f64::INFINITY, |s| s.start),
            CyclePhase::Work => self.work_until.min(seg_end),
            CyclePhase::Recovery | CyclePhase::Checkpoint => match self.xfer {
                XferState::Active { .. } => seg_end,
                XferState::Unavail { until }
                | XferState::Stalled { until }
                | XferState::Backoff { until } => until.min(seg_end),
                XferState::Idle => unreachable!("transfer phase without an attempt"),
            },
            CyclePhase::Ready => unreachable!("client left in Ready between events"),
        }
    }

    /// The priority lane of the client's current transfer phase.
    fn xfer_lane(&self) -> usize {
        match self.cycle.phase() {
            CyclePhase::Recovery => Lane::Recovery.index(),
            _ => Lane::Checkpoint.index(),
        }
    }

    /// Begin a transfer attempt at `t`: consult the plan, set the
    /// sub-state, and register the link flow for the attempt's event
    /// target (remaining bytes to the completion or the fault floor).
    fn start_attempt(
        &mut self,
        id: u64,
        t: f64,
        plan: &FaultPlan,
        retry: &RetryPolicy,
        link: &mut WeightedFairLink,
        report: &mut FaultReport,
    ) {
        let rem = self.cycle.transfer_remaining_mb().unwrap_or(0.0);
        self.attempt_started_mb = rem;
        self.attempt_active_since = t;
        let fault = plan.transfer_fault(self.lane, self.counter);
        self.counter += 1;
        let lane = self.xfer_lane();
        self.xfer = match fault {
            None => {
                link.start_flow(id, lane, rem);
                XferState::Active { fault: None }
            }
            Some(TransferFault::Corruption) => {
                self.phase_clean = false;
                link.start_flow(id, lane, rem);
                XferState::Active {
                    fault: Some(ActiveFault::Corrupt),
                }
            }
            Some(TransferFault::Drop { progress_fraction }) => {
                self.phase_clean = false;
                let floor = rem * (1.0 - progress_fraction);
                link.start_flow(id, lane, (rem - floor).max(0.0));
                XferState::Active {
                    fault: Some(ActiveFault::Drop {
                        remaining_floor: floor,
                    }),
                }
            }
            Some(TransferFault::Stall { progress_fraction }) => {
                self.phase_clean = false;
                let floor = rem * (1.0 - progress_fraction);
                link.start_flow(id, lane, (rem - floor).max(0.0));
                XferState::Active {
                    fault: Some(ActiveFault::Stall {
                        remaining_floor: floor,
                        timeout_at: t + retry.timeout_factor * self.measured_cost,
                    }),
                }
            }
            Some(TransferFault::Unavailable { wait_seconds }) => {
                self.phase_clean = false;
                self.cycle.fault_transfer(
                    TransferFaultKind::Unavailable,
                    false,
                    false,
                    &mut NoopObserver,
                );
                report.record_fault(TransferFaultKind::Unavailable);
                XferState::Unavail {
                    until: t + wait_seconds,
                }
            }
        };
    }

    /// A transfer phase completed at `t` (delivery verified): record the
    /// measurement and plan + start the next work interval.
    fn plan_next_interval(&mut self, t: f64, duration: f64, report: &mut FaultReport) {
        self.measured_cost = duration.max(1.0);
        self.completed_transfer_time += duration;
        self.completed_transfers += 1;
        self.start_next_interval(t, report);
    }

    /// Plan the next work interval at `t` from the last measured cost
    /// and start it.
    fn start_next_interval(&mut self, t: f64, report: &mut FaultReport) {
        let age = t - self.seg_start;
        let t_work = self.fit.interval(self.measured_cost, age, report);
        self.planned_work = t_work;
        self.cycle.start_work(t_work, &mut NoopObserver);
        self.work_until = t + t_work;
        self.xfer = XferState::Idle;
    }

    fn evict(&mut self, id: u64, link: &mut WeightedFairLink) {
        link.end_flow(id);
        self.cycle.evict(&mut NoopObserver);
        self.seg_index += 1;
        self.xfer = XferState::Idle;
    }
}

/// A manager-side cache-warming transfer on the prefetch lane.
struct PrefetchFlow {
    id: u64,
    remaining: f64,
}

/// Record a fault on a client and either back off for a retry, or — for
/// a checkpoint out of budget — enqueue the dead letter, abandon to the
/// last verified checkpoint, and plan the next interval.
#[allow(clippy::too_many_arguments)]
fn fault_and_retry(
    client: &mut Client,
    id: u64,
    t: f64,
    kind: TransferFaultKind,
    resend: bool,
    is_checkpoint: bool,
    seed: u64,
    retry: &RetryPolicy,
    image_mb: f64,
    link: &mut WeightedFairLink,
    dlq: &mut DeadLetterQueue,
    report: &mut ManagerReport,
    obs: &mut dyn CycleObserver,
) {
    link.end_flow(id);
    client
        .cycle
        .fault_transfer(kind, resend, true, &mut NoopObserver);
    report.faults.record_fault(kind);
    client.retries_this_phase += 1;
    if is_checkpoint && client.retries_this_phase > retry.max_retries {
        // Retry budget exhausted: *enqueue* with full resume state, then
        // abandon to the last verified checkpoint. Tracked ⇒ enqueued.
        let remaining = client.cycle.transfer_remaining_mb().unwrap_or(0.0);
        dlq.push(DeadLetter {
            client: id,
            seq: client.xfer_seq,
            image_mb,
            delivered_mb: (image_mb - remaining).max(0.0),
            attempts: client.retries_this_phase,
            enqueued_at: t,
        });
        obs.on_dead_letter_enqueued(t - client.seg_start, client.retries_this_phase, remaining);
        client.cycle.abandon_checkpoint(&mut NoopObserver);
        report.faults.checkpoints_abandoned += 1;
        client.start_next_interval(t, &mut report.faults);
        return;
    }
    report.faults.retries += 1;
    let backoff = retry.backoff_jittered(
        client.retries_this_phase,
        jitter_draw(seed, id, client.xfer_seq, client.retries_this_phase),
    );
    client.xfer = XferState::Backoff { until: t + backoff };
}

/// Run the manager server (no observer).
pub fn run_manager(config: &ManagerConfig, plan: &FaultPlan) -> Result<ManagerOutcome> {
    run_manager_observed(config, plan, &mut NoopObserver)
}

/// Run the manager server, reporting defer/dead-letter events to `obs`
/// (cycle-internal events go to the clients' own ledgers as usual; the
/// observer sees the manager-level policy events).
pub fn run_manager_observed(
    config: &ManagerConfig,
    plan: &FaultPlan,
    obs: &mut dyn CycleObserver,
) -> Result<ManagerOutcome> {
    config.validate()?;
    plan.validate()
        .map_err(|_| ManagerError::InvalidConfig("invalid fault plan"))?;

    let retry = config.retry;
    let image_mb = config.image_mb;
    let nominal_cost = config.image_mb / config.link_mb_per_s;
    let cycle_config = CycleConfig {
        checkpoint_cost: 0.0,
        recovery_cost: 0.0,
        image_mb: config.image_mb,
        count_recovery_bytes: true,
    };
    let (boot, faults) = bootstrap_clients(config, plan)?;
    let mut report = ManagerReport {
        faults,
        ..ManagerReport::default()
    };

    let mut clients: Vec<Client> = boot
        .into_iter()
        .enumerate()
        .map(|(i, (machine, fit))| Client {
            machine,
            fit,
            seg_index: 0,
            cycle: CycleMachine::new(cycle_config),
            work_until: 0.0,
            planned_work: 0.0,
            measured_cost: nominal_cost,
            completed_transfer_time: 0.0,
            completed_transfers: 0,
            seg_start: 0.0,
            lane: (i as u64) ^ 0x000C_007E_4710,
            counter: 0,
            xfer_seq: 0,
            xfer: XferState::Idle,
            retries_this_phase: 0,
            attempt_started_mb: 0.0,
            attempt_active_since: 0.0,
            phase_clean: true,
        })
        .collect();

    let mut link = WeightedFairLink::new(config.link_mb_per_s, &config.weights.as_array())
        .map_err(|_| ManagerError::InvalidConfig("invalid link parameters"))?;
    let mut dlq = DeadLetterQueue::new();
    let mut prefetches: Vec<PrefetchFlow> = Vec::new();
    let mut next_prefetch_id = config.clients as u64;

    let mut t = 0.0;
    let mut busy_time = 0.0;
    let mut concurrency_time = 0.0;
    let mut lane_busy = [0.0f64; 3];
    let mut events = 0u64;

    // The event index (DESIGN.md §12). `index` holds every client's
    // `event_key`; `live` lists the clients that are not down, ascending;
    // `transferring` the clients with a flow on the link, ascending;
    // `due` is the scratch list of clients fired at one event.
    let mut index = TimeIndex::new(clients.iter().map(Client::event_key).collect());
    let mut live: Vec<usize> = Vec::new();
    let mut transferring: Vec<usize> = Vec::new();
    let mut due: Vec<usize> = Vec::new();

    // Backlog the admission gate meters: outstanding bytes on the lanes
    // it controls (checkpoint + prefetch). Recovery traffic is never
    // deferrable, so counting it would let a recovery flood starve
    // checkpoints forever instead of bounding their own queue.
    // Deterministic — sums run in client index order, never over the
    // link's hash-map iteration. `live` holds every checkpointing client
    // in index order (down clients add no term).
    let backlog_mb = |clients: &[Client], live: &[usize], prefetches: &[PrefetchFlow]| -> f64 {
        let mut total = 0.0;
        for &i in live {
            let c = &clients[i];
            if c.cycle.phase() == CyclePhase::Checkpoint {
                total += c.cycle.transfer_remaining_mb().unwrap_or(0.0);
            }
        }
        for p in prefetches {
            total += p.remaining;
        }
        total
    };

    while t < config.window {
        events += 1;
        let n_active = link.active();

        // Earliest next event: the clients' own keys, then the link's
        // earliest flow completion (client transfers and prefetches).
        // Within a lane `now + (deadline − acc) / rate` is monotone in
        // the deadline, so the lane's heap head is the exact minimum a
        // scan over its flows would find.
        let t_next = config.window.min(index.min()).min(
            link.next_completion()
                .map_or(f64::INFINITY, |(done, _)| done),
        );
        let dt = (t_next - t).max(0.0);

        // Account link occupancy, integrate the lanes' service volume,
        // then advance every live client's cycle machine.
        if n_active > 0 && dt > 0.0 {
            busy_time += dt;
            concurrency_time += dt * n_active as f64;
        }
        for (l, busy) in lane_busy.iter_mut().enumerate() {
            if link.count(l) > 0 && dt > 0.0 {
                *busy += dt;
            }
        }
        let moved = [
            dt * link.rate(Lane::Recovery.index()),
            dt * link.rate(Lane::Checkpoint.index()),
            dt * link.rate(Lane::Prefetch.index()),
        ];
        link.advance_by(dt);
        // Eager, every live client every event: deferring a client's
        // `advance` to its next event would sum its ledger in other
        // steps and change how the f64 totals round.
        for &i in &live {
            let client = &mut clients[i];
            match client.cycle.phase() {
                CyclePhase::Recovery | CyclePhase::Checkpoint => match client.xfer {
                    XferState::Active { fault } => {
                        let floor = match fault {
                            Some(
                                ActiveFault::Stall {
                                    remaining_floor, ..
                                }
                                | ActiveFault::Drop { remaining_floor },
                            ) => remaining_floor,
                            _ => 0.0,
                        };
                        let remaining = client.cycle.transfer_remaining_mb().unwrap_or(0.0);
                        let m = moved[client.xfer_lane()];
                        // Exact classic op when no fault caps the attempt.
                        let delta = if floor > 0.0 {
                            m.min((remaining - floor).max(0.0))
                        } else {
                            m.min(remaining)
                        };
                        client.cycle.advance(dt, delta);
                    }
                    _ => client.cycle.advance(dt, 0.0),
                },
                _ => client.cycle.advance(dt, 0.0),
            }
        }
        for p in prefetches.iter_mut() {
            let delta = moved[Lane::Prefetch.index()].min(p.remaining);
            p.remaining -= delta;
            report.prefetch_mb += delta;
        }
        // A stall timeout can already be in the past when contention
        // stretches the attempt beyond it; fire it late rather than
        // stepping the clock backwards (which would double-count time).
        t = t_next.max(t);
        if t >= config.window {
            break;
        }

        // Fire prefetch completions.
        let mut k = 0;
        while k < prefetches.len() {
            if prefetches[k].remaining <= EPS {
                link.end_flow(prefetches[k].id);
                report.prefetches_completed += 1;
                prefetches.remove(k);
            } else {
                k += 1;
            }
        }

        // Fire client events: every client whose key is due plus every
        // transferring client (transfers end on byte thresholds), in
        // ascending index order — admission backlog, dead-letter order,
        // prefetch ids and observer calls all follow it. The set is a
        // superset of the due clients; a client that is not due falls
        // through its phase's tests untouched.
        due.clear();
        index.collect_due(t + EPS, &mut due);
        due.extend_from_slice(&transferring);
        due.sort_unstable();
        due.dedup();
        for &i in &due {
            let id = i as u64;
            let Some(seg) = clients[i].current_segment() else {
                continue;
            };
            let phase = clients[i].cycle.phase();
            match phase {
                CyclePhase::Down => {
                    if t + EPS >= seg.start {
                        let client = &mut clients[i];
                        client.seg_start = seg.start;
                        client.cycle.place(seg.end - seg.start, &mut NoopObserver);
                        client.retries_this_phase = 0;
                        client.phase_clean = true;
                        client.xfer_seq += 1;
                        client.start_attempt(id, t, plan, &retry, &mut link, &mut report.faults);
                    }
                }
                CyclePhase::Work => {
                    if t + EPS >= seg.end {
                        clients[i].evict(id, &mut link);
                    } else if t + EPS >= clients[i].work_until {
                        // Admission control: forecast utilization with
                        // this checkpoint added to the committed backlog.
                        let forecast = config.admission.forecast_utilization(
                            backlog_mb(&clients, &live, &prefetches),
                            image_mb,
                        );
                        let client = &mut clients[i];
                        if config.admission.enabled && forecast > config.admission.watermark {
                            // Deferred: fall back to the last verified
                            // image. Same ledger arithmetic as a
                            // retry-exhausted abandonment — the planned
                            // work is re-accounted as lost.
                            let lost = client.planned_work;
                            client.cycle.start_checkpoint(&mut NoopObserver);
                            client.xfer_seq += 1;
                            client.cycle.abandon_checkpoint(&mut NoopObserver);
                            report.deferred_checkpoints += 1;
                            obs.on_checkpoint_deferred(t - client.seg_start, forecast, lost);
                            client.start_next_interval(t, &mut report.faults);
                        } else {
                            client.cycle.start_checkpoint(&mut NoopObserver);
                            client.retries_this_phase = 0;
                            client.phase_clean = true;
                            client.xfer_seq += 1;
                            client.start_attempt(
                                id,
                                t,
                                plan,
                                &retry,
                                &mut link,
                                &mut report.faults,
                            );
                        }
                    }
                }
                CyclePhase::Recovery | CyclePhase::Checkpoint => {
                    if t + EPS >= seg.end {
                        clients[i].evict(id, &mut link);
                        continue;
                    }
                    let is_checkpoint = phase == CyclePhase::Checkpoint;
                    let remaining = clients[i].cycle.transfer_remaining_mb().unwrap_or(0.0);
                    match clients[i].xfer {
                        XferState::Active { fault: None } => {
                            if remaining <= EPS {
                                {
                                    let client = &mut clients[i];
                                    link.end_flow(id);
                                    let phase_elapsed = if is_checkpoint {
                                        client.cycle.complete_checkpoint(&mut NoopObserver)
                                    } else {
                                        client.cycle.complete_recovery(&mut NoopObserver)
                                    };
                                    let duration = if client.phase_clean {
                                        phase_elapsed
                                    } else {
                                        let raw = t - client.attempt_active_since;
                                        if client.attempt_started_mb > 0.0
                                            && client.attempt_started_mb != image_mb
                                        {
                                            raw * image_mb / client.attempt_started_mb
                                        } else {
                                            raw
                                        }
                                    };
                                    client.plan_next_interval(t, duration, &mut report.faults);
                                }
                                // A committed checkpoint may spawn a
                                // cache-warming prefetch on the lowest
                                // lane (admission-checked, shed freely).
                                if is_checkpoint && config.prefetch_probability > 0.0 {
                                    let draw = unit_f64(
                                        config.seed
                                            ^ mix64(id.wrapping_add(SALT_PREFETCH))
                                            ^ mix64(clients[i].completed_transfers),
                                    );
                                    if draw < config.prefetch_probability {
                                        let admitted = config.admission.admits(
                                            backlog_mb(&clients, &live, &prefetches),
                                            image_mb,
                                        );
                                        if admitted {
                                            let pid = next_prefetch_id;
                                            next_prefetch_id += 1;
                                            link.start_flow(pid, Lane::Prefetch.index(), image_mb);
                                            prefetches.push(PrefetchFlow {
                                                id: pid,
                                                remaining: image_mb,
                                            });
                                            report.prefetches_started += 1;
                                        } else {
                                            report.shed_prefetches += 1;
                                        }
                                    }
                                }
                            }
                        }
                        XferState::Active {
                            fault: Some(ActiveFault::Corrupt),
                        } => {
                            if remaining <= EPS {
                                fault_and_retry(
                                    &mut clients[i],
                                    id,
                                    t,
                                    TransferFaultKind::Corruption,
                                    true,
                                    is_checkpoint,
                                    config.seed,
                                    &retry,
                                    image_mb,
                                    &mut link,
                                    &mut dlq,
                                    &mut report,
                                    obs,
                                );
                            }
                        }
                        XferState::Active {
                            fault: Some(ActiveFault::Drop { remaining_floor }),
                        } => {
                            if remaining <= remaining_floor + EPS {
                                fault_and_retry(
                                    &mut clients[i],
                                    id,
                                    t,
                                    TransferFaultKind::Drop,
                                    false,
                                    is_checkpoint,
                                    config.seed,
                                    &retry,
                                    image_mb,
                                    &mut link,
                                    &mut dlq,
                                    &mut report,
                                    obs,
                                );
                            }
                        }
                        XferState::Active {
                            fault:
                                Some(ActiveFault::Stall {
                                    remaining_floor,
                                    timeout_at,
                                }),
                        } => {
                            if remaining <= remaining_floor + EPS {
                                // Progress stopped; the manager notices
                                // at the timeout. The flow leaves the
                                // link — no bytes move while stalled.
                                link.end_flow(id);
                                clients[i].xfer = XferState::Stalled { until: timeout_at };
                            }
                        }
                        XferState::Stalled { until } => {
                            if t + EPS >= until {
                                fault_and_retry(
                                    &mut clients[i],
                                    id,
                                    t,
                                    TransferFaultKind::Stall,
                                    false,
                                    is_checkpoint,
                                    config.seed,
                                    &retry,
                                    image_mb,
                                    &mut link,
                                    &mut dlq,
                                    &mut report,
                                    obs,
                                );
                            }
                        }
                        XferState::Unavail { until } => {
                            if t + EPS >= until {
                                // The manager is back; the attempt runs
                                // clean from here.
                                let client = &mut clients[i];
                                client.attempt_active_since = t;
                                let rem = client.cycle.transfer_remaining_mb().unwrap_or(0.0);
                                let lane = client.xfer_lane();
                                link.start_flow(id, lane, rem);
                                client.xfer = XferState::Active { fault: None };
                            }
                        }
                        XferState::Backoff { until } => {
                            if t + EPS >= until {
                                clients[i].start_attempt(
                                    id,
                                    t,
                                    plan,
                                    &retry,
                                    &mut link,
                                    &mut report.faults,
                                );
                            }
                        }
                        XferState::Idle => unreachable!("transfer phase without an attempt"),
                    }
                }
                CyclePhase::Ready => unreachable!("client left in Ready between events"),
            }
        }

        // Only fired clients changed state: re-key them and update the
        // live and transferring lists. A client transferring before this
        // event was fired, so `transferring` is rebuilt from `due` alone.
        transferring.clear();
        for &i in &due {
            let client = &clients[i];
            index.set(i, client.event_key());
            if matches!(client.xfer, XferState::Active { .. }) {
                transferring.push(i);
            }
            let is_live = client.cycle.phase() != CyclePhase::Down;
            match live.binary_search(&i) {
                Ok(k) if !is_live => {
                    live.remove(k);
                }
                Err(k) if is_live => live.insert(k, i),
                _ => {}
            }
        }
    }

    // Window closed: flush in-flight phases into the ledgers.
    for client in clients.iter_mut() {
        if client.cycle.phase() != CyclePhase::Down {
            client.cycle.cutoff(&mut NoopObserver);
        }
    }

    let mut total = CycleAccounting::default();
    for client in &clients {
        total.absorb(client.cycle.accounting());
    }
    let transfer_time: f64 = clients.iter().map(|c| c.completed_transfer_time).sum();
    let transfers: u64 = clients.iter().map(|c| c.completed_transfers).sum();

    let digest = digest_outcome(&clients, &report, &dlq);
    let result = ManagerResult {
        model: config.model,
        clients: config.clients,
        useful_seconds: total.useful_seconds,
        occupied_seconds: total.total_seconds,
        megabytes: total.megabytes,
        checkpoints_committed: total.checkpoints_committed,
        transfers_started: total.transfers_started(),
        mean_transfer_seconds: if transfers > 0 {
            transfer_time / transfers as f64
        } else {
            0.0
        },
        mean_link_concurrency: if busy_time > 0.0 {
            concurrency_time / busy_time
        } else {
            0.0
        },
        link_utilization: busy_time / config.window,
        recovery_busy_seconds: lane_busy[Lane::Recovery.index()],
        checkpoint_busy_seconds: lane_busy[Lane::Checkpoint.index()],
        prefetch_busy_seconds: lane_busy[Lane::Prefetch.index()],
        events,
        cycle: total,
        digest,
    };
    Ok(ManagerOutcome {
        result,
        report,
        dlq,
    })
}

/// Order-independent digest over every client ledger (in client-id
/// order), the policy report, and the dead-letter queue. Two runs with
/// the same digest made bitwise-identical decisions — the 1-thread ≡
/// N-thread gate hangs off this.
fn digest_outcome(clients: &[Client], report: &ManagerReport, dlq: &DeadLetterQueue) -> u64 {
    let mut h: u64 = 0x6d61_6e61_6765_7221;
    let f = |h: u64, x: f64| mix64(h ^ x.to_bits());
    let u = |h: u64, x: u64| mix64(h ^ x);
    for (i, c) in clients.iter().enumerate() {
        let a = c.cycle.accounting();
        h = u(h, i as u64);
        h = f(h, a.useful_seconds);
        h = f(h, a.lost_seconds);
        h = f(h, a.lost_work_seconds);
        h = f(h, a.recovery_seconds);
        h = f(h, a.checkpoint_seconds);
        h = f(h, a.total_seconds);
        h = f(h, a.megabytes);
        h = f(h, a.full_megabytes);
        h = f(h, a.partial_megabytes);
        h = f(h, a.wasted_megabytes);
        h = u(h, a.recoveries);
        h = u(h, a.recoveries_completed);
        h = u(h, a.checkpoints_attempted);
        h = u(h, a.checkpoints_committed);
        h = u(h, a.checkpoints_abandoned);
        h = u(h, a.failures);
        h = u(h, a.transfer_retries);
        h = u(h, c.completed_transfers);
        h = u(h, c.counter);
        h = u(h, c.xfer_seq);
    }
    h = u(h, report.faults.stalls);
    h = u(h, report.faults.drops);
    h = u(h, report.faults.corruptions);
    h = u(h, report.faults.unavailabilities);
    h = u(h, report.faults.timeouts);
    h = u(h, report.faults.retries);
    h = u(h, report.faults.checkpoints_abandoned);
    h = u(h, report.faults.fallback_exponential);
    h = u(h, report.faults.fallback_fixed);
    h = u(h, report.deferred_checkpoints);
    h = u(h, report.shed_prefetches);
    h = u(h, report.prefetches_started);
    h = u(h, report.prefetches_completed);
    h = f(h, report.prefetch_mb);
    h = u(h, dlq.enqueued);
    h = u(h, dlq.replayed);
    h = u(h, dlq.abandoned);
    for letter in dlq.iter() {
        h = u(h, letter.client);
        h = u(h, letter.seq);
        h = f(h, letter.image_mb);
        h = f(h, letter.delivered_mb);
        h = u(h, letter.attempts as u64);
        h = f(h, letter.enqueued_at);
    }
    h
}
