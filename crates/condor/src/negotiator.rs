//! Vanilla-universe matchmaking: place a submitted job on an
//! idle-available machine, possibly mid-segment.

use crate::machine::{MachinePark, Segment};
use chs_trace::MachineId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A successful placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The machine the job landed on.
    pub machine: MachineId,
    /// Index of the machine within the park.
    pub machine_index: usize,
    /// Virtual time at which the job starts.
    pub placed_at: f64,
    /// Machine age at placement (`T_elapsed`): seconds since the
    /// availability segment began.
    pub age_at_placement: f64,
    /// When the owner will reclaim the machine (unknown to the job).
    pub eviction_at: f64,
}

/// The negotiator of a contended pool (the paper's setting): machines
/// are snapped up by *someone* as soon as their owner leaves, so a
/// queued job is matched at the next **segment start** plus a
/// negotiation delay. This samples availability segments unbiasedly —
/// the reason the paper's live Table 4 lines up with its simulated
/// Table 1 row.
#[derive(Debug)]
pub struct Negotiator {
    rng: ChaCha8Rng,
    /// Negotiation-cycle delay bounds, seconds (Condor matches in
    /// minutes, not instantly).
    delay: (f64, f64),
}

impl Negotiator {
    /// Deterministic negotiator.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x4E60),
            delay: (30.0, 300.0),
        }
    }

    /// Place a job submitted at `submit_time`: match at the earliest
    /// segment start ≥ submit time across free machines, then add a
    /// negotiation delay. If the delay eats the whole segment, the match
    /// fails and the next segment is tried. Marks the chosen machine
    /// occupied until its eviction. Returns `None` when every timeline is
    /// exhausted (the experiment window should end well before that).
    pub fn place(&mut self, park: &mut MachinePark, submit_time: f64) -> Option<Placement> {
        let mut t = submit_time;
        for _ in 0..1_000 {
            // Earliest upcoming segment start among free machines.
            let mut best: Option<(usize, Segment)> = None;
            for (i, m) in park.machines().iter().enumerate() {
                if let Some((avail_t, seg)) = m.next_free_available(t) {
                    // Treat a mid-segment machine as matchable at its
                    // *next* segment; only fresh segments are grabbed.
                    let candidate = if avail_t <= seg.start + 1e-9 {
                        Some(seg)
                    } else {
                        m.next_free_available(seg.end).map(|(_, s)| s)
                    };
                    if let Some(seg) = candidate {
                        if best.is_none_or(|(_, b)| seg.start < b.start) {
                            best = Some((i, seg));
                        }
                    }
                }
            }
            let (index, segment) = best?;
            let delay = self.rng.gen_range(self.delay.0..self.delay.1);
            let placed_at = segment.start.max(t) + delay;
            if placed_at >= segment.end {
                // Owner came back before the match completed; job stays
                // queued and the next segment is considered.
                t = segment.end;
                continue;
            }
            let machine = &mut park.machines_mut()[index];
            machine.occupy_until(segment.end);
            return Some(Placement {
                machine: machine.id,
                machine_index: index,
                placed_at,
                age_at_placement: placed_at - segment.start,
                eviction_at: segment.end,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_trace::synthetic::PoolConfig;

    fn park() -> MachinePark {
        MachinePark::generate(&PoolConfig::default(), 8, 10, 20.0 * 86_400.0, 5)
    }

    #[test]
    fn placement_is_inside_a_segment() {
        let mut park = park();
        let mut neg = Negotiator::new(1);
        let p = neg.place(&mut park, 10_000.0).unwrap();
        assert!(p.age_at_placement >= 0.0);
        assert!(p.eviction_at > p.placed_at);
        let seg_start = p.placed_at - p.age_at_placement;
        let m = &park.machines()[p.machine_index];
        assert!(m
            .segments()
            .iter()
            .any(|s| (s.start - seg_start).abs() < 1e-9 && (s.end - p.eviction_at).abs() < 1e-9));
    }

    #[test]
    fn occupied_machine_not_double_placed() {
        let mut park = MachinePark::generate(&PoolConfig::default(), 1, 10, 30.0 * 86_400.0, 9);
        let mut neg = Negotiator::new(2);
        let p1 = neg.place(&mut park, 0.0).unwrap();
        let p2 = neg.place(&mut park, p1.placed_at + 1.0).unwrap();
        // Single machine: second job must start at or after the first's eviction.
        assert!(
            p2.placed_at >= p1.eviction_at,
            "{} < {}",
            p2.placed_at,
            p1.eviction_at
        );
    }

    #[test]
    fn sequential_submissions_advance_in_time() {
        let mut park = park();
        let mut neg = Negotiator::new(3);
        let mut t = 0.0;
        for _ in 0..20 {
            let p = neg.place(&mut park, t).unwrap();
            assert!(p.placed_at >= t);
            t = p.eviction_at;
        }
    }

    #[test]
    fn ages_show_mid_segment_placements() {
        // Over many placements some must land mid-segment (age > 0).
        let mut park = park();
        let mut neg = Negotiator::new(4);
        let mut ages = Vec::new();
        let mut t = 0.0;
        for _ in 0..30 {
            if let Some(p) = neg.place(&mut park, t) {
                ages.push(p.age_at_placement);
                t = p.eviction_at;
            }
        }
        assert!(
            ages.iter().any(|&a| a > 1.0),
            "no aged placements in {ages:?}"
        );
    }
}
