//! Weighted max-min fair sharing of one link across priority lanes,
//! with virtual-volume completion keys.
//!
//! The checkpoint manager multiplexes three lanes (recovery, checkpoint,
//! prefetch) over one shared link. Under weighted max-min fairness every
//! active flow in lane `l` receives `w_l·C / Σ_m n_m·w_m` — flows in a
//! heavier lane get proportionally more of the capacity `C`, flows
//! within one lane split their lane's share equally.
//!
//! Completion tracking is the crate's virtual-volume lane core
//! (`lanes`), shared with [`crate::Fabric`]: each priority lane is one
//! core lane, so a flow that starts when its lane's service integral
//! reads `a` with `target` MB to move completes at the constant key
//! `a + target` — no reindexing when rates change as flows come and go.
//! The link itself keeps only the weighted water level and the flow
//! map, which holds each flow's lane and generation.
//!
//! One exact-arithmetic case matters for the repo's differential gates
//! and is special-cased to reproduce the classic processor-sharing
//! arithmetic bitwise: when every active lane has the same weight (one
//! active lane included), each flow's rate is literally `C / n_total`
//! (one IEEE divide, no weight multiplication).
//!
//! In addition, a lane's integral is rebased to 0 whenever the lane
//! empties, so the first flow on an idle lane has deadline exactly
//! `target` and projected completion exactly `now + target / rate` —
//! the same float operations as the frozen classic contention loop
//! (`run_contention` in the root `tests/contention_differential.rs`).

use crate::lanes::{Entry, Lanes};
use crate::{PoolError, Result};
use std::collections::HashMap;

/// Live registration of one flow.
#[derive(Debug, Clone, Copy)]
struct FlowSlot {
    lane: usize,
    gen: u64,
}

/// One shared link split across weighted priority lanes by max-min
/// fairness, with virtual-volume completion bookkeeping.
#[derive(Debug, Clone)]
pub struct WeightedFairLink {
    capacity: f64,
    weights: Vec<f64>,
    now: f64,
    lanes: Lanes<u64>,
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
        Ok(Self {
            capacity: capacity_mb_s,
            weights: weights.to_vec(),
            now: 0.0,
            lanes: Lanes::new(weights.len()),
            flows: HashMap::new(),
            next_gen: 0,
        })
    }

    /// Active flows in `lane`.
    pub fn count(&self, lane: usize) -> u32 {
        self.lanes.count[lane]
    }

    /// Active flows across all lanes.
    pub fn active(&self) -> u32 {
        self.lanes.count.iter().sum()
    }

    /// The per-flow rate currently in effect in `lane` (0 when idle).
    pub fn rate(&self, lane: usize) -> f64 {
        self.lanes.rate[lane]
    }

    /// Recompute per-flow rates after a membership change. When every
    /// active lane has the same weight (one active lane included) each
    /// flow gets the classic single divide `C / n`, so the manager's
    /// single-client differential gate against the classic loop holds
    /// bitwise; otherwise the weighted water level applies.
    /// Allocation-free: it runs on every flow start and end.
    fn resolve(&mut self) {
        let Lanes { rate, count, .. } = &mut self.lanes;
        rate.fill(0.0);
        let active = || (0..self.weights.len()).filter(|&l| count[l] > 0);
        let Some(first) = active().next() else {
            return;
        };
        let (mut total, mut denom, mut equal) = (0, 0.0, true);
        for l in active() {
            total += count[l];
            denom += count[l] as f64 * self.weights[l];
            equal &= self.weights[l] == self.weights[first];
        }
        let level = self.capacity / if equal { total as f64 } else { denom };
        for l in active() {
            rate[l] = if equal {
                level
            } else {
                self.weights[l] * level
            };
        }
    }

    /// Advance virtual time by `dt`, accruing service volume on every
    /// active lane.
    pub fn advance_by(&mut self, dt: f64) {
        self.now += dt;
        self.lanes.advance(dt);
    }

    /// Register flow `id` on `lane` with `target_mb` to move. Replaces
    /// any prior registration of the same id. An idle lane's volume axis
    /// reads 0 (see [`Self::end_flow`]), so the first flow's deadline is
    /// exactly `target_mb`.
    pub fn start_flow(&mut self, id: u64, lane: usize, target_mb: f64) {
        if self.flows.contains_key(&id) {
            self.end_flow(id);
        }
        self.next_gen += 1;
        let gen = self.next_gen;
        self.flows.insert(id, FlowSlot { lane, gen });
        self.lanes.count[lane] += 1;
        let flows = &self.flows;
        self.lanes
            .push(lane, target_mb, id, gen, |e| is_live(flows, e));
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
        self.lanes.count[l] -= 1;
        if self.lanes.count[l] == 0 {
            self.lanes.acc[l] = 0.0;
            self.lanes.heaps[l].clear();
        }
        self.resolve();
        true
    }

    /// The earliest projected completion across all lanes, with the
    /// completing flow's id (the least id on an exact tie). Lazily
    /// purges heap entries invalidated by [`Self::end_flow`] or
    /// re-registration. A flow completes at
    /// `now + (deadline − acc) / rate` if membership stays as-is; for
    /// the first flow on a rebased lane this is exactly
    /// `now + target / rate` — the classic arithmetic.
    pub fn next_completion(&mut self) -> Option<(f64, u64)> {
        let (now, flows) = (self.now, &self.flows);
        self.lanes
            .earliest(|_, e| is_live(flows, e), |e, eta| (now + eta, e.id))
    }
}

/// Whether a heap entry is its flow's current registration.
fn is_live(flows: &HashMap<u64, FlowSlot>, e: &Entry<u64>) -> bool {
    flows.get(&e.id).is_some_and(|slot| slot.gen == e.gen)
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
        assert!(((t - 2.0) * link.rate(0) - 6.0).abs() < 1e-12);
        // Drive to the completion and swap the membership again.
        link.advance_by(t - 2.0);
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
    }
}
