//! The frozen rescan-style reference for `chs_pool`'s calendar engine.
//!
//! This generalizes the frozen classic contention loop (`run_contention`
//! in the root `tests/contention_differential.rs`) to the pool
//! topology and is kept **deliberately naive**: every iteration rescans
//! all machines to find the next event, recomputes the max-min fair
//! water level from scratch, and advances every placed machine — O(n)
//! per event, exactly the cost model the calendar engine replaces.
//! `pool_bench` gates the calendar engine's machine-events/s against
//! this loop, and the unit tests below check both engines agree on a
//! small pool. Do not optimize this module; its slowness is the
//! baseline.

use chs_cycle::{
    clamp_interval, sanitize_age, CycleAccounting, CycleConfig, CycleMachine, CyclePhase,
    NoopObserver,
};

use chs_pool::{PoolPolicy, PoolSimConfig, Result, Seg, Timeline};

/// Event-lumping tolerance, seconds — as in the classic loop.
const EPS: f64 = 1e-7;
/// Transfer-completion tolerance, megabytes.
const MB_EPS: f64 = 1e-6;

/// Aggregate outcome of a rescan reference run.
#[derive(Debug, Clone)]
pub struct RescanResult {
    /// The merged cycle ledger across all machines.
    pub cycle: CycleAccounting,
    /// State transitions fired (same vocabulary as the pool engine:
    /// placements, segment ends, work ends, transfer completions).
    pub events: u64,
    /// Transfers that ran to completion.
    pub transfers_completed: u64,
    /// Per-machine ledgers when the config keeps them, else empty.
    pub ledgers: Vec<CycleAccounting>,
}

struct Machine {
    cycle: CycleMachine,
    seg: Option<Seg>,
    seg_index: u32,
    pend: Option<Seg>,
    work_until: f64, // machine-local clock
    measured_cost: f64,
}

/// Per-flow fair rates for the current instant, recomputed from scratch:
/// each flow in a rack with `k` active transfers gets
/// `min(nic, uplink/k, λ)`, with the core water level `λ` found by
/// sorting per-flow caps ascending and water-filling the core capacity.
fn fair_rates(config: &PoolSimConfig, transferring: &[bool]) -> Vec<f64> {
    let n = transferring.len();
    let rack_size = config.fabric.rack_size;
    let racks = n.div_ceil(rack_size);
    let mut per_rack = vec![0usize; racks];
    for (m, &on) in transferring.iter().enumerate() {
        if on {
            per_rack[m / rack_size] += 1;
        }
    }
    // Cap per flow by rack, then water-fill the core.
    let cap_of = |r: usize| {
        let k = per_rack[r] as f64;
        config.fabric.nic_mb_s.min(config.fabric.uplink_mb_s / k)
    };
    let mut caps: Vec<(f64, usize)> = per_rack
        .iter()
        .enumerate()
        .filter(|&(_, &k)| k > 0)
        .map(|(r, &k)| (cap_of(r), k))
        .collect();
    let demand: f64 = caps.iter().map(|&(c, k)| c * k as f64).sum();
    let level = if demand <= config.fabric.core_mb_s {
        f64::INFINITY
    } else {
        caps.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut remaining = config.fabric.core_mb_s;
        let mut flows_left: usize = caps.iter().map(|&(_, k)| k).sum();
        let mut lambda = 0.0;
        for &(cap, k) in &caps {
            let candidate = remaining / flows_left as f64;
            if candidate <= cap {
                lambda = candidate;
                break;
            }
            remaining -= cap * k as f64;
            flows_left -= k;
            lambda = cap;
        }
        lambda
    };
    let mut rates = vec![0.0; n];
    for (m, &on) in transferring.iter().enumerate() {
        if on {
            rates[m] = cap_of(m / rack_size).min(level);
        }
    }
    rates
}

/// Run the pool through the frozen O(machines)-per-event loop.
pub fn rescan_run<T: Timeline, P: PoolPolicy>(
    config: &PoolSimConfig,
    timeline: &T,
    policy: &mut P,
) -> Result<RescanResult> {
    config.validate()?;
    let n = config.machines;
    let cycle_config = CycleConfig {
        checkpoint_cost: 0.0,
        recovery_cost: 0.0,
        image_mb: config.image_mb,
        count_recovery_bytes: config.count_recovery_bytes,
    };
    let nominal = config.nominal_cost();
    let mut ms: Vec<Machine> = (0..n as u32)
        .map(|m| Machine {
            cycle: CycleMachine::new(cycle_config),
            seg: None,
            seg_index: 0,
            pend: timeline
                .segment(m, 0, 0.0)
                .filter(|s| s.start < config.window && !s.is_empty()),
            work_until: 0.0,
            measured_cost: nominal,
        })
        .collect();
    let mut t = 0.0;
    let mut events = 0u64;
    let mut transfers_completed = 0u64;

    loop {
        // Rates for this instant (full recomputation — the point).
        let transferring: Vec<bool> = ms.iter().map(|m| m.cycle.transferring()).collect();
        let rates = fair_rates(config, &transferring);

        // Scan every machine for its next event time.
        let mut t_next = config.window;
        for (i, m) in ms.iter().enumerate() {
            let candidate = match m.cycle.phase() {
                CyclePhase::Down => m.pend.map(|s| s.start).unwrap_or(f64::INFINITY),
                CyclePhase::Work => {
                    let seg = m.seg.expect("working machine has a segment");
                    let work_abs = seg.start + m.work_until;
                    seg.end.min(work_abs)
                }
                _ => {
                    let seg = m.seg.expect("placed machine has a segment");
                    let done = if rates[i] > 0.0 {
                        t + m.cycle.transfer_remaining_mb().unwrap_or(0.0) / rates[i]
                    } else {
                        f64::INFINITY
                    };
                    seg.end.min(done)
                }
            };
            if candidate < t_next {
                t_next = candidate;
            }
        }
        let dt = (t_next - t).max(0.0);

        // Advance every placed machine (O(n) again).
        if dt > 0.0 {
            for (i, m) in ms.iter_mut().enumerate() {
                if m.cycle.phase() != CyclePhase::Down {
                    let mb = if transferring[i] {
                        (rates[i] * dt).min(m.cycle.transfer_remaining_mb().unwrap_or(0.0))
                    } else {
                        0.0
                    };
                    m.cycle.advance(dt, mb);
                }
            }
        }
        t = t_next;
        if t >= config.window {
            break;
        }

        // Fire due transitions in machine-id order; evictions first
        // within a machine, as in the classic loop.
        for (i, m) in ms.iter_mut().enumerate() {
            if let Some(seg) = m.seg {
                if m.cycle.phase() != CyclePhase::Down && seg.end <= t + EPS {
                    m.cycle.evict(&mut NoopObserver);
                    m.seg = None;
                    events += 1;
                    let next_index = m.seg_index + 1;
                    m.pend = timeline
                        .segment(i as u32, next_index, seg.end)
                        .filter(|s| s.start < config.window && !s.is_empty());
                    m.seg_index = next_index;
                    continue;
                }
            }
            match m.cycle.phase() {
                CyclePhase::Recovery | CyclePhase::Checkpoint
                    if m.cycle.transfer_remaining_mb().unwrap_or(0.0) <= MB_EPS =>
                {
                    let leftover = m.cycle.transfer_remaining_mb().unwrap_or(0.0);
                    if leftover > 0.0 {
                        m.cycle.advance(0.0, leftover);
                    }
                    let duration = if m.cycle.phase() == CyclePhase::Recovery {
                        m.cycle.complete_recovery(&mut NoopObserver)
                    } else {
                        m.cycle.complete_checkpoint(&mut NoopObserver)
                    };
                    m.measured_cost = duration.max(1.0);
                    transfers_completed += 1;
                    events += 1;
                    plan_and_work(m, i as u32, policy)?;
                }
                CyclePhase::Work if m.cycle.age() >= m.work_until - EPS => {
                    m.cycle.start_checkpoint(&mut NoopObserver);
                    events += 1;
                }
                CyclePhase::Down => {
                    if let Some(s) = m.pend {
                        if s.start <= t + EPS {
                            m.seg = Some(s);
                            m.pend = None;
                            m.cycle.place(s.len(), &mut NoopObserver);
                            events += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Window cutoff, as in the calendar engine.
    for m in ms.iter_mut() {
        if m.cycle.phase() != CyclePhase::Down {
            m.cycle.cutoff(&mut NoopObserver);
        }
    }
    let mut total = CycleAccounting::default();
    for m in &ms {
        total.absorb(m.cycle.accounting());
    }
    let ledgers = if config.keep_ledgers {
        ms.into_iter().map(|m| m.cycle.into_accounting()).collect()
    } else {
        Vec::new()
    };
    Ok(RescanResult {
        cycle: total,
        events,
        transfers_completed,
        ledgers,
    })
}

fn plan_and_work(m: &mut Machine, id: u32, policy: &mut dyn PoolPolicy) -> Result<()> {
    let age = m.cycle.age();
    let planned = clamp_interval(policy.next_interval(id, sanitize_age(age), m.measured_cost)?);
    m.cycle.start_work(planned, &mut NoopObserver);
    m.work_until = age + planned;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_pool::{
        FabricConfig, FixedIntervalPolicy, PoolSim, VecTimeline, Workload, WorkloadConfig,
    };

    fn config(machines: usize) -> PoolSimConfig {
        PoolSimConfig {
            machines,
            fabric: FabricConfig {
                nic_mb_s: 4.0,
                uplink_mb_s: 16.0,
                core_mb_s: 256.0,
                rack_size: 8,
            },
            image_mb: 512.0,
            window: 50_000.0,
            count_recovery_bytes: true,
            keep_ledgers: true,
            stress_insertion_order: false,
        }
    }

    #[test]
    fn single_machine_matches_hand_computation() {
        let cfg = config(1);
        let t = VecTimeline(vec![vec![Seg {
            start: 0.0,
            end: 1000.0,
        }]]);
        let r = rescan_run(&cfg, &t, &mut FixedIntervalPolicy(200.0)).unwrap();
        assert_eq!(r.cycle.recoveries_completed, 1);
        assert_eq!(r.cycle.checkpoints_committed, 2);
        assert_eq!(r.cycle.useful_seconds, 400.0);
        assert_eq!(r.cycle.total_seconds, 1000.0);
    }

    #[test]
    fn agrees_with_calendar_engine_on_a_small_pool() {
        let mut cfg = config(24);
        cfg.window = 40_000.0;
        cfg.fabric.core_mb_s = 20.0; // congested core
        let w = Workload::new(WorkloadConfig {
            machines: 24,
            rack_size: 8,
            unique_streams: 3,
            ..WorkloadConfig::default()
        })
        .unwrap();
        let a = rescan_run(&cfg, &w, &mut FixedIntervalPolicy(500.0)).unwrap();
        let b = PoolSim::run(&cfg, &w, &mut FixedIntervalPolicy(500.0)).unwrap();
        let rel = |x: f64, y: f64| (x - y).abs() / y.abs().max(1.0);
        assert!(
            rel(a.cycle.total_seconds, b.cycle.total_seconds) < 1e-6,
            "total: {} vs {}",
            a.cycle.total_seconds,
            b.cycle.total_seconds
        );
        assert!(
            rel(a.cycle.useful_seconds, b.cycle.useful_seconds) < 1e-6,
            "useful: {} vs {}",
            a.cycle.useful_seconds,
            b.cycle.useful_seconds
        );
        assert!(
            rel(a.cycle.megabytes, b.cycle.megabytes) < 1e-6,
            "megabytes: {} vs {}",
            a.cycle.megabytes,
            b.cycle.megabytes
        );
        assert_eq!(a.cycle.checkpoints_committed, b.cycle.checkpoints_committed);
        assert_eq!(a.cycle.failures, b.cycle.failures);
        assert_eq!(a.transfers_completed, b.transfers_completed);
    }

    #[test]
    fn water_fill_matches_hand_computed_rates() {
        // Two racks of 8: rack 0 has 4 flows (cap 4 each, uplink-bound at
        // 16/4 = 4 = nic), rack 1 has 8 flows (cap 2 each). Core 16 MB/s
        // < demand 32: water level λ solves 4·min(4,λ) + 8·min(2,λ) = 16
        // → λ between caps: 4λ + 8·2 = 16 has no λ>0... try λ < 2:
        // 12λ = 16 → λ = 4/3 < 2 ✓.
        let cfg = {
            let mut c = config(16);
            c.fabric.core_mb_s = 16.0;
            c
        };
        let mut transferring = vec![false; 16];
        transferring[0..4].fill(true);
        transferring[8..16].fill(true);
        let rates = fair_rates(&cfg, &transferring);
        for (m, &rate) in rates.iter().enumerate() {
            if transferring[m] {
                assert!((rate - 4.0 / 3.0).abs() < 1e-12, "machine {m}: {rate}");
            } else {
                assert_eq!(rate, 0.0, "idle machine {m}");
            }
        }
        let total: f64 = rates.iter().sum();
        assert!((total - 16.0).abs() < 1e-9);
    }
}
