//! Weighted max-min fair sharing of one link across priority lanes,
//! with virtual-volume completion keys.
//!
//! The checkpoint manager multiplexes three lanes (recovery, checkpoint,
//! prefetch) over one shared link. Under weighted max-min fairness every
//! active flow in lane `l` receives `w_l·C / Σ_m n_m·w_m` — flows in a
//! heavier lane get proportionally more of the capacity `C`, flows
//! within one lane split their lane's share equally.
//!
//! Completion tracking reuses [`crate::Fabric`]'s virtual-volume trick:
//! each lane carries a service integral `A_l(t) = ∫ r_l dt` (the volume
//! delivered to one flow of that lane so far), so a flow that starts
//! when the integral reads `a` with `target` MB to move completes at the
//! constant key `a + target` on the lane's volume axis — no reindexing
//! when rates change as flows come and go. Keys sit in per-lane
//! min-heaps; departures invalidate entries by generation and stale
//! entries are discarded when they surface, exactly as in `fabric`.
//!
//! Two exact-arithmetic cases matter for the repo's differential gates
//! and are special-cased to reproduce the classic processor-sharing
//! arithmetic bitwise:
//!
//! * one active lane: each flow's rate is literally `C / n` (one IEEE
//!   divide, no weight multiplication), and
//! * all active lanes equally weighted: `C / n_total` likewise.
//!
//! In addition, a lane's integral is rebased to 0 whenever the lane
//! empties, so the first flow on an idle lane has deadline exactly
//! `target` and projected completion exactly `now + target / rate` —
//! the same float operations as the frozen classic contention loop
//! (`run_contention` in the root `tests/contention_differential.rs`).

use crate::{PoolError, Result};
use std::collections::{BinaryHeap, HashMap};

/// A flow's completion key on its lane's volume axis. Min-heap by
/// `(deadline, id)`; `BinaryHeap` is a max-heap, so the ordering is
/// reversed.
#[derive(Debug, Clone, Copy)]
struct FlowEntry {
    deadline: f64,
    id: u64,
    gen: u64,
}

impl PartialEq for FlowEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for FlowEntry {}
impl PartialOrd for FlowEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FlowEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .deadline
            .total_cmp(&self.deadline)
            .then(other.id.cmp(&self.id))
    }
}

/// Live registration of one flow.
#[derive(Debug, Clone, Copy)]
struct FlowSlot {
    lane: usize,
    deadline: f64,
    gen: u64,
}

/// One shared link split across weighted priority lanes by max-min
/// fairness, with virtual-volume completion bookkeeping.
#[derive(Debug, Clone)]
pub struct WeightedFairLink {
    capacity: f64,
    weights: Vec<f64>,
    now: f64,
    /// Per-lane service integral: volume delivered to one flow of the
    /// lane since the lane's last rebase.
    acc: Vec<f64>,
    /// Per-flow rate in each lane under the current membership.
    rate: Vec<f64>,
    count: Vec<u32>,
    heaps: Vec<BinaryHeap<FlowEntry>>,
    flows: HashMap<u64, FlowSlot>,
    next_gen: u64,
}

impl WeightedFairLink {
    /// A link of `capacity_mb_s` split across `weights.len()` lanes.
    pub fn new(capacity_mb_s: f64, weights: &[f64]) -> Result<Self> {
        if !capacity_mb_s.is_finite() || capacity_mb_s <= 0.0 {
            return Err(PoolError::InvalidConfig("link capacity must be finite > 0"));
        }
        if weights.is_empty() {
            return Err(PoolError::InvalidConfig("at least one lane is required"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(PoolError::InvalidConfig("lane weights must be finite > 0"));
        }
        let lanes = weights.len();
        Ok(Self {
            capacity: capacity_mb_s,
            weights: weights.to_vec(),
            now: 0.0,
            acc: vec![0.0; lanes],
            rate: vec![0.0; lanes],
            count: vec![0; lanes],
            heaps: (0..lanes).map(|_| BinaryHeap::new()).collect(),
            flows: HashMap::new(),
            next_gen: 0,
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The link capacity, MB/s.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Active flows in `lane`.
    pub fn count(&self, lane: usize) -> u32 {
        self.count[lane]
    }

    /// Active flows across all lanes.
    pub fn active(&self) -> u32 {
        self.count.iter().sum()
    }

    /// The per-flow rate currently in effect in `lane` (0 when idle).
    pub fn rate(&self, lane: usize) -> f64 {
        self.rate[lane]
    }

    /// Whether flow `id` is registered.
    pub fn is_active(&self, id: u64) -> bool {
        self.flows.contains_key(&id)
    }

    /// Recompute per-flow rates after a membership change. The two
    /// equal-share cases use the classic single-divide arithmetic so the
    /// manager's single-client differential gate against the classic
    /// loop holds bitwise; the general case applies the weighted water
    /// level.
    /// Allocation-free: it runs on every flow start and end.
    fn resolve(&mut self) {
        let total: u32 = self.count.iter().sum();
        for r in self.rate.iter_mut() {
            *r = 0.0;
        }
        if total == 0 {
            return;
        }
        let mut lanes = (0..self.weights.len()).filter(|&l| self.count[l] > 0);
        let first = lanes.next().expect("a flow is registered");
        let w0 = self.weights[first];
        let (mut active, mut equal) = (1, true);
        for l in lanes {
            active += 1;
            equal &= self.weights[l] == w0;
        }
        if active == 1 {
            self.rate[first] = self.capacity / self.count[first] as f64;
            return;
        }
        if equal {
            let shared = self.capacity / total as f64;
            for l in 0..self.weights.len() {
                if self.count[l] > 0 {
                    self.rate[l] = shared;
                }
            }
            return;
        }
        let mut denom = 0.0;
        for l in 0..self.weights.len() {
            if self.count[l] > 0 {
                denom += self.count[l] as f64 * self.weights[l];
            }
        }
        let level = self.capacity / denom;
        for l in 0..self.weights.len() {
            if self.count[l] > 0 {
                self.rate[l] = self.weights[l] * level;
            }
        }
    }

    /// Advance virtual time by `dt`, accruing service volume on every
    /// active lane.
    pub fn advance_by(&mut self, dt: f64) {
        self.now += dt;
        for l in 0..self.weights.len() {
            if self.count[l] > 0 {
                self.acc[l] += self.rate[l] * dt;
            }
        }
    }

    /// Register flow `id` on `lane` with `target_mb` to move. Replaces
    /// any prior registration of the same id. When the lane was idle its
    /// volume axis is rebased to 0 first, so the flow's deadline is
    /// exactly `target_mb`.
    pub fn start_flow(&mut self, id: u64, lane: usize, target_mb: f64) {
        if self.flows.contains_key(&id) {
            self.end_flow(id);
        }
        if self.count[lane] == 0 {
            self.acc[lane] = 0.0;
            self.heaps[lane].clear();
        }
        self.next_gen += 1;
        let deadline = self.acc[lane] + target_mb;
        self.flows.insert(
            id,
            FlowSlot {
                lane,
                deadline,
                gen: self.next_gen,
            },
        );
        self.heaps[lane].push(FlowEntry {
            deadline,
            id,
            gen: self.next_gen,
        });
        self.count[lane] += 1;
        self.resolve();
    }

    /// Deregister flow `id` (completion, fault, or eviction). Returns
    /// false when the id was not registered. An emptied lane's volume
    /// axis is rebased to 0.
    pub fn end_flow(&mut self, id: u64) -> bool {
        let Some(slot) = self.flows.remove(&id) else {
            return false;
        };
        let l = slot.lane;
        self.count[l] -= 1;
        if self.count[l] == 0 {
            self.acc[l] = 0.0;
            self.heaps[l].clear();
        }
        self.resolve();
        true
    }

    /// Megabytes flow `id` still has to move.
    pub fn remaining_mb(&self, id: u64) -> Option<f64> {
        let slot = self.flows.get(&id)?;
        Some(slot.deadline - self.acc[slot.lane])
    }

    /// The earliest projected completion across all lanes, with the
    /// completing flow's id. Lazily purges heap entries invalidated by
    /// [`Self::end_flow`] or re-registration. A flow completes at
    /// `now + (deadline − acc) / rate` if membership stays as-is; for
    /// the first flow on a rebased lane this is exactly
    /// `now + target / rate` — the classic arithmetic.
    pub fn next_completion(&mut self) -> Option<(f64, u64)> {
        let mut best: Option<(f64, u64)> = None;
        for l in 0..self.weights.len() {
            if self.count[l] == 0 {
                continue;
            }
            let head = loop {
                match self.heaps[l].peek() {
                    None => break None,
                    Some(e) => {
                        let live = self.flows.get(&e.id).is_some_and(|slot| slot.gen == e.gen);
                        if live {
                            break Some(*e);
                        }
                        self.heaps[l].pop();
                    }
                }
            };
            let Some(head) = head else {
                debug_assert!(false, "lane with active flows has an empty heap");
                continue;
            };
            let t = self.now + (head.deadline - self.acc[l]) / self.rate[l];
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, head.id));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_rate_is_classic_processor_sharing() {
        let mut link = WeightedFairLink::new(500.0 / 110.0, &[4.0, 2.0, 1.0]).unwrap();
        link.start_flow(0, 1, 500.0);
        // One flow on one lane: the full capacity, bitwise.
        assert_eq!(link.rate(1), 500.0 / 110.0);
        link.start_flow(1, 1, 500.0);
        link.start_flow(2, 1, 500.0);
        // n flows on one lane: exactly capacity / n — one IEEE divide,
        // no weight arithmetic, matching the classic loop.
        assert_eq!(link.rate(1), (500.0 / 110.0) / 3.0);
    }

    #[test]
    fn equal_weights_collapse_to_flat_sharing() {
        let mut link = WeightedFairLink::new(10.0, &[1.0, 1.0, 1.0]).unwrap();
        link.start_flow(0, 0, 100.0);
        link.start_flow(1, 1, 100.0);
        link.start_flow(2, 1, 100.0);
        link.start_flow(3, 2, 100.0);
        for l in 0..3 {
            assert_eq!(link.rate(l), 10.0 / 4.0);
        }
    }

    #[test]
    fn weighted_rates_split_by_lane_weight_and_conserve_capacity() {
        let mut link = WeightedFairLink::new(9.0, &[4.0, 2.0, 1.0]).unwrap();
        link.start_flow(0, 0, 100.0);
        link.start_flow(1, 1, 100.0);
        link.start_flow(2, 1, 100.0);
        link.start_flow(3, 2, 100.0);
        // Water level λ = 9 / (1·4 + 2·2 + 1·1) = 1.
        assert!((link.rate(0) - 4.0).abs() < 1e-12);
        assert!((link.rate(1) - 2.0).abs() < 1e-12);
        assert!((link.rate(2) - 1.0).abs() < 1e-12);
        let served: f64 = (0..3).map(|l| link.count(l) as f64 * link.rate(l)).sum();
        assert!((served - 9.0).abs() < 1e-12, "capacity conserved: {served}");
        // Recovery (heaviest) finishes first despite equal targets.
        let (_, id) = link.next_completion().unwrap();
        assert_eq!(id, 0);
    }

    #[test]
    fn rebase_makes_first_flow_deadline_exact() {
        let mut link = WeightedFairLink::new(4.0, &[2.0, 1.0]).unwrap();
        // Dirty the lane's integral, then drain it.
        link.start_flow(0, 0, 64.0);
        link.advance_by(3.0);
        link.end_flow(0);
        // A fresh flow on the re-idled lane: completion is exactly
        // now + target / rate (0.0 + x == x bitwise).
        link.start_flow(1, 0, 64.0);
        assert_eq!(link.remaining_mb(1), Some(64.0));
        assert_eq!(link.next_completion(), Some((3.0 + 64.0 / 4.0, 1)));
    }

    #[test]
    fn completions_survive_rate_changes_without_reindexing() {
        let mut link = WeightedFairLink::new(2.0, &[1.0, 1.0]).unwrap();
        link.start_flow(0, 0, 10.0); // alone: 2 MB/s → done at t=5
        link.advance_by(2.0); // 4 MB moved, 6 left
        link.start_flow(1, 0, 20.0); // now 2 flows at 1 MB/s each
                                     // Flow 0 needs 6 more seconds at 1 MB/s → t=8.
        let (t, id) = link.next_completion().unwrap();
        assert_eq!(id, 0);
        assert!((t - 8.0).abs() < 1e-12, "t = {t}");
        assert!((link.remaining_mb(0).unwrap() - 6.0).abs() < 1e-12);
        // Drive to the completion and swap the membership again.
        link.advance_by(t - link.now());
        link.end_flow(0);
        // Flow 1: moved 6 MB at 1 MB/s alongside flow 0, 14 left alone
        // at 2 MB/s → done at 8 + 7 = 15.
        let (t, id) = link.next_completion().unwrap();
        assert_eq!(id, 1);
        assert!((t - 15.0).abs() < 1e-12, "t = {t}");
    }

    #[test]
    fn stale_heap_entries_are_purged() {
        let mut link = WeightedFairLink::new(1.0, &[1.0]).unwrap();
        link.start_flow(0, 0, 5.0);
        link.start_flow(1, 0, 50.0);
        link.end_flow(0); // heap still holds flow 0's entry
        let (_, id) = link.next_completion().unwrap();
        assert_eq!(id, 1);
        // Re-registration invalidates the earlier entry by generation.
        link.start_flow(1, 0, 7.0);
        let (t, id) = link.next_completion().unwrap();
        assert_eq!(id, 1);
        assert!((t - 7.0).abs() < 1e-12, "t = {t}");
    }

    #[test]
    fn empty_and_invalid_configs_rejected() {
        assert!(WeightedFairLink::new(0.0, &[1.0]).is_err());
        assert!(WeightedFairLink::new(1.0, &[]).is_err());
        assert!(WeightedFairLink::new(1.0, &[1.0, 0.0]).is_err());
        assert!(WeightedFairLink::new(1.0, &[f64::NAN]).is_err());
        let mut link = WeightedFairLink::new(1.0, &[1.0]).unwrap();
        assert!(link.next_completion().is_none());
        assert!(!link.end_flow(9));
        assert!(link.remaining_mb(9).is_none());
    }
}
