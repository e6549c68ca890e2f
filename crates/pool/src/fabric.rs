//! Incremental max-min fair bandwidth sharing on the symmetric
//! machine → rack-uplink → core tree.
//!
//! # The reduction
//!
//! Every transfer is bounded by its machine NIC (`nic`), its rack uplink
//! (`uplink`, shared by the rack's `k` active transfers) and the core
//! (`core`, shared by everyone). With uniform capacities, max-min
//! fairness collapses per rack: all `k` flows of a rack receive the same
//! rate `min(s_k, λ)` with the rack-local cap `s_k = min(nic, uplink/k)`
//! and a single core water level `λ` solving
//!
//! ```text
//!   Σ_k  cnt[k] · k · min(s_k, λ)  =  core        (when demand > core)
//! ```
//!
//! where `cnt[k]` counts racks with exactly `k` active flows. The whole
//! fair-share state of a million-machine pool is therefore an
//! O(rack_size) histogram, and an arrival or departure re-solves `λ` by
//! water-filling over at most `rack_size` buckets — the "affected
//! subtree" recomputation the rescan engine lacks.
//!
//! # Completions in volume space
//!
//! Event-driven engines usually key transfer completions by time and
//! reindex every in-flight transfer whenever `λ` moves. Instead each
//! bucket carries a service integral `A_k(t) = ∫ min(s_k, λ(u)) du` —
//! the cumulative megabytes served *per flow* to any rack that stayed at
//! count `k`. A rack maintains its own per-flow volume axis `v_r`,
//! rebased lazily against `A_k` whenever the rack's count changes, so a
//! flow that starts at axis value `v` finishes at the **constant** key
//! `v + image`. Flows sit in a per-rack min-heap on that key; racks sit
//! in a per-bucket min-heap on the equivalent `A_k`-axis deadline; and
//! the next completion anywhere is the minimum over ≤ `rack_size`
//! bucket heads, each a constant-time projection `t + (F − A_k)/rate_k`.
//! Rate changes move every deadline *in lockstep per bucket*, so no key
//! ever needs rewriting.
//!
//! The buckets are the lanes of the crate's virtual-volume lane core
//! (`lanes`), shared with [`crate::WeightedFairLink`]: the core owns the
//! integrals `A_k`, the per-flow rates, the heaps and the projection,
//! and the fabric keeps the rack histogram, the water-fill and the
//! per-rack volume axes. Departures (evictions mid-transfer) invalidate
//! heap entries by generation counter; stale entries are discarded when
//! they surface.

use crate::lanes::{Entry, KeyHeap, Lanes};
use crate::{PoolError, Result};

/// Capacities of the symmetric two-level tree.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FabricConfig {
    /// Per-machine NIC rate, MB/s.
    pub nic_mb_s: f64,
    /// Per-rack uplink rate, MB/s, shared by the rack's active flows.
    pub uplink_mb_s: f64,
    /// Core capacity, MB/s, shared by all active flows.
    pub core_mb_s: f64,
    /// Machines per rack (the last rack may be partial).
    pub rack_size: usize,
}

impl FabricConfig {
    /// Check capacities are positive finite and the rack size nonzero.
    /// The error names the first bad field.
    pub fn validate(&self) -> Result<()> {
        for (value, what) in [
            (self.nic_mb_s, "nic_mb_s must be positive and finite"),
            (self.uplink_mb_s, "uplink_mb_s must be positive and finite"),
            (self.core_mb_s, "core_mb_s must be positive and finite"),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(PoolError::InvalidConfig(what));
            }
        }
        if self.rack_size == 0 {
            return Err(PoolError::InvalidConfig("rack_size must be nonzero"));
        }
        Ok(())
    }

    /// The rate one flow gets on an otherwise idle fabric.
    pub fn uncontended_mb_s(&self) -> f64 {
        self.nic_mb_s.min(self.uplink_mb_s).min(self.core_mb_s)
    }
}

/// The incremental fair-share state.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    now: f64,

    // Per rack.
    active: Vec<u32>,
    /// Per-flow volume axis: cumulative MB served to each concurrent
    /// flow of this rack, rebased at the last rack-touching event.
    volume: Vec<f64>,
    /// `A_k` snapshot at the last rebase (k = the rack's current count).
    snapshot: Vec<f64>,
    rack_gen: Vec<u32>,
    /// The rack's flows, keyed on its volume axis by machine id.
    flows: Vec<KeyHeap<u32>>,

    // Per machine.
    flow_gen: Vec<u32>,

    /// Rack-local per-flow cap `s_k = min(nic, uplink/k)` per bucket k
    /// (bucket 0 never holds a rack).
    cap: Vec<f64>,
    /// One lane per bucket k: `A_k`, the per-flow rate `min(s_k, λ)`,
    /// the racks holding exactly `k` active flows and their deadlines on
    /// the `A_k` axis, keyed by rack id.
    buckets: Lanes<u32>,

    total_flows: u64,
}

impl Fabric {
    /// A fabric for `machines` machines packed into
    /// `ceil(machines / rack_size)` racks.
    pub fn new(config: FabricConfig, machines: usize) -> Result<Self> {
        config.validate()?;
        let racks = machines.div_ceil(config.rack_size).max(1);
        let k_max = config.rack_size;
        Ok(Fabric {
            config,
            now: 0.0,
            active: vec![0; racks],
            volume: vec![0.0; racks],
            snapshot: vec![0.0; racks],
            rack_gen: vec![0; racks],
            flows: (0..racks).map(|_| KeyHeap::new()).collect(),
            flow_gen: vec![0; machines],
            cap: (0..=k_max)
                .map(|k| config.nic_mb_s.min(config.uplink_mb_s / k as f64))
                .collect(),
            buckets: Lanes::new(k_max + 1),
            total_flows: 0,
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Flows currently in flight.
    pub fn active_flows(&self) -> u64 {
        self.total_flows
    }

    /// Total racks.
    pub fn racks(&self) -> usize {
        self.active.len()
    }

    /// Aggregate MB/s currently crossing the core.
    pub fn core_rate(&self) -> f64 {
        let mut total = 0.0;
        self.for_each_active_bucket(|k, racks, rate| total += racks as f64 * k as f64 * rate);
        total
    }

    /// Visit every active bucket: `(flows per rack, racks, per-flow
    /// MB/s)`. The engine's time-weighted link statistics read this.
    pub fn for_each_active_bucket(&self, mut f: impl FnMut(usize, u32, f64)) {
        let Lanes { count, rate, .. } = &self.buckets;
        for k in 1..count.len() {
            if count[k] > 0 {
                f(k, count[k], rate[k]);
            }
        }
    }

    /// Advance virtual time to `t`, accruing each bucket's service
    /// integral at the current (piecewise-constant) rates.
    pub fn advance(&mut self, t: f64) {
        let dt = t - self.now;
        debug_assert!(dt >= 0.0, "fabric time must not go backwards");
        if dt > 0.0 {
            self.buckets.advance(dt);
        }
        self.now = t;
    }

    /// The per-flow volume axis of `rack` at the current time. The
    /// difference of two readings brackets the MB served to each of the
    /// rack's concurrent flows in between (while the caller's flow was
    /// active).
    pub fn flow_volume(&self, rack: u32) -> f64 {
        let r = rack as usize;
        let k = self.active[r] as usize;
        if k == 0 {
            self.volume[r]
        } else {
            self.volume[r] + (self.buckets.acc[k] - self.snapshot[r])
        }
    }

    /// Start a transfer of `image_mb` for `machine` on `rack`. Returns
    /// the rack's volume-axis value at the start (subtract it from a
    /// later [`flow_volume`](Self::flow_volume) reading to get MB
    /// served).
    pub fn start_flow(&mut self, machine: u32, rack: u32, image_mb: f64) -> f64 {
        let r = rack as usize;
        let k_old = self.active[r] as usize;
        self.rebase(r, k_old, k_old + 1);
        let v = self.volume[r];
        let flow_gen = &self.flow_gen;
        self.flows[r].push(
            Entry {
                key: v + image_mb,
                id: machine,
                gen: flow_gen[machine as usize],
            },
            self.active[r],
            |e| e.gen == flow_gen[e.id as usize],
        );
        self.total_flows += 1;
        self.reindex_rack(r);
        self.resolve();
        v
    }

    /// End `machine`'s transfer on `rack` (completion or eviction).
    pub fn end_flow(&mut self, machine: u32, rack: u32) {
        let r = rack as usize;
        let k_old = self.active[r] as usize;
        debug_assert!(k_old > 0, "end_flow on an idle rack");
        self.flow_gen[machine as usize] = self.flow_gen[machine as usize].wrapping_add(1);
        self.rebase(r, k_old, k_old - 1);
        self.total_flows -= 1;
        self.reindex_rack(r);
        self.resolve();
    }

    /// Move rack `r` from bucket `k_old` to `k_new`, carrying its
    /// per-flow volume axis across the bucket change.
    fn rebase(&mut self, r: usize, k_old: usize, k_new: usize) {
        let Lanes { acc, count, .. } = &mut self.buckets;
        if k_old > 0 {
            self.volume[r] += acc[k_old] - self.snapshot[r];
            count[k_old] -= 1;
        }
        if k_new > 0 {
            count[k_new] += 1;
            self.snapshot[r] = acc[k_new];
        }
        self.active[r] = k_new as u32;
        self.rack_gen[r] = self.rack_gen[r].wrapping_add(1);
    }

    /// Re-register rack `r`'s earliest completion in its bucket's heap.
    fn reindex_rack(&mut self, r: usize) {
        let k = self.active[r] as usize;
        if k == 0 {
            return;
        }
        let flow_gen = &self.flow_gen;
        let Some(head) = self.flows[r].head(|e| e.gen == flow_gen[e.id as usize]) else {
            debug_assert!(false, "rack with active flows has an empty flow heap");
            return;
        };
        // The rack was just rebased (`snapshot == A_k`): its head has
        // `head.key - volume` MB left on the bucket's axis.
        let (active, rack_gen) = (&self.active, &self.rack_gen);
        self.buckets
            .push(k, head.key - self.volume[r], r as u32, rack_gen[r], |e| {
                rack_is_live(active, rack_gen, k, e)
            });
    }

    /// Re-solve the core water level `λ` and refresh per-bucket rates.
    /// Water-filling over buckets in ascending per-flow cap (descending
    /// `k`): O(rack_size).
    fn resolve(&mut self) {
        let b = &mut self.buckets;
        let core = self.config.core_mb_s;
        let mut demand = 0.0;
        let mut flows = 0.0;
        for k in 1..b.count.len() {
            if b.count[k] > 0 {
                demand += b.count[k] as f64 * k as f64 * self.cap[k];
                flows += b.count[k] as f64 * k as f64;
            }
        }
        let lambda = if demand <= core {
            f64::INFINITY
        } else {
            let mut remaining = core;
            let mut unfilled = flows;
            let mut level = 0.0;
            for k in (1..b.count.len()).rev() {
                if b.count[k] == 0 {
                    continue;
                }
                let m = b.count[k] as f64 * k as f64;
                level = remaining / unfilled;
                if level <= self.cap[k] {
                    break;
                }
                remaining -= m * self.cap[k];
                unfilled -= m;
            }
            level
        };
        for k in 1..b.count.len() {
            b.rate[k] = if b.count[k] > 0 {
                self.cap[k].min(lambda)
            } else {
                0.0
            };
        }
    }

    /// The earliest transfer completion anywhere: `(time, machine)`.
    /// Ties across racks break deterministically by machine id.
    pub fn next_completion(&mut self) -> Option<(f64, u32)> {
        let (now, active, rack_gen, flows) = (self.now, &self.active, &self.rack_gen, &self.flows);
        self.buckets.earliest(
            |k, e| rack_is_live(active, rack_gen, k, e),
            |e, eta| {
                let machine = flows[e.id as usize]
                    .peek()
                    .expect("live rack entry has a head")
                    .id;
                (now + eta.max(0.0), machine)
            },
        )
    }
}

/// Whether a bucket-`k` heap entry is its rack's current registration.
fn rack_is_live(active: &[u32], rack_gen: &[u32], k: usize, e: &Entry<u32>) -> bool {
    e.gen == rack_gen[e.id as usize] && active[e.id as usize] as usize == k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fab(nic: f64, up: f64, core: f64, rack_size: usize, machines: usize) -> Fabric {
        Fabric::new(
            FabricConfig {
                nic_mb_s: nic,
                uplink_mb_s: up,
                core_mb_s: core,
                rack_size,
            },
            machines,
        )
        .unwrap()
    }

    #[test]
    fn rejects_degenerate_configs() {
        let good = FabricConfig {
            nic_mb_s: 1.0,
            uplink_mb_s: 1.0,
            core_mb_s: 1.0,
            rack_size: 4,
        };
        let expect_err = |config: FabricConfig, field: &str| {
            let Err(PoolError::InvalidConfig(msg)) = Fabric::new(config, 8) else {
                panic!("{config:?} accepted");
            };
            assert!(msg.starts_with(field), "{config:?}: {msg}");
        };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            expect_err(
                FabricConfig {
                    nic_mb_s: bad,
                    ..good
                },
                "nic_mb_s",
            );
            expect_err(
                FabricConfig {
                    uplink_mb_s: bad,
                    ..good
                },
                "uplink_mb_s",
            );
            expect_err(
                FabricConfig {
                    core_mb_s: bad,
                    ..good
                },
                "core_mb_s",
            );
        }
        expect_err(
            FabricConfig {
                rack_size: 0,
                ..good
            },
            "rack_size",
        );
        assert!(Fabric::new(good, 8).is_ok());
    }

    #[test]
    fn single_flow_runs_at_the_uncontended_rate() {
        let mut f = fab(4.0, 100.0, 1000.0, 8, 16);
        f.start_flow(3, 0, 512.0);
        let (t, m) = f.next_completion().unwrap();
        assert_eq!(m, 3);
        assert_eq!(t, 128.0); // 512 MB at nic = 4 MB/s, exactly.
        f.advance(t);
        assert_eq!(f.flow_volume(0), 512.0);
    }

    #[test]
    fn overdue_completion_is_due_now_not_in_the_past() {
        // The 512 MB flow finishes at 128 s, but time moves on to 200 s
        // before it is ended: its completion is due now, and serving it
        // must never step the clock backwards.
        let mut f = fab(4.0, 100.0, 1000.0, 8, 16);
        f.start_flow(3, 0, 512.0);
        f.advance(200.0);
        let (t, m) = f.next_completion().unwrap();
        assert_eq!(m, 3);
        assert!(t >= f.now(), "completion at {t} s before now {} s", f.now());
        f.advance(t);
    }

    #[test]
    fn rack_uplink_is_shared_fairly() {
        // nic 10, uplink 8: two flows in one rack get 4 each.
        let mut f = fab(10.0, 8.0, 1000.0, 4, 8);
        f.start_flow(0, 0, 80.0);
        f.start_flow(1, 0, 80.0);
        f.advance(10.0);
        // 10 s at 4 MB/s each.
        assert!((f.flow_volume(0) - 40.0).abs() < 1e-12);
        assert!((f.core_rate() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn core_water_level_caps_across_racks() {
        // Two racks, one flow each, nic 10, uplink 10, core 8: λ = 4.
        let mut f = fab(10.0, 10.0, 8.0, 4, 8);
        f.start_flow(0, 0, 100.0);
        f.start_flow(4, 1, 100.0);
        assert!((f.core_rate() - 8.0).abs() < 1e-12);
        f.advance(5.0);
        assert!((f.flow_volume(0) - 20.0).abs() < 1e-12);
        assert!((f.flow_volume(1) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn water_filling_respects_small_caps() {
        // Rack 0 has 4 flows (cap 10/4 = 2.5 each), rack 1 has 1 flow
        // (cap 10). Core 14 > 5 × 2.5-equal-share: rack 0's flows are
        // cap-bound at 2.5 (10 total) and the leftover 4 MB/s is the
        // water level for the lone flow.
        let mut f = fab(100.0, 10.0, 14.0, 4, 8);
        for m in 0..4 {
            f.start_flow(m, 0, 100.0);
        }
        f.start_flow(4, 1, 100.0);
        let mut rates = Vec::new();
        f.for_each_active_bucket(|k, racks, rate| rates.push((k, racks, rate)));
        assert_eq!(rates.len(), 2);
        let (_, _, r1) = rates.iter().find(|(k, _, _)| *k == 1).copied().unwrap();
        let (_, _, r4) = rates.iter().find(|(k, _, _)| *k == 4).copied().unwrap();
        assert!((r4 - 2.5).abs() < 1e-12, "rack-capped flows: {r4}");
        assert!((r1 - 4.0).abs() < 1e-12, "water level: {r1}");
        assert!((f.core_rate() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn equal_share_below_every_cap_is_uniform() {
        // Same racks, core 12: the equal share 12/5 = 2.4 sits below
        // both caps (2.5 and 10), so max-min gives every flow 2.4 —
        // including the lone flow, which fairness does NOT let absorb
        // the slack the capped rack leaves behind.
        let mut f = fab(100.0, 10.0, 12.0, 4, 8);
        for m in 0..4 {
            f.start_flow(m, 0, 100.0);
        }
        f.start_flow(4, 1, 100.0);
        let mut rates = Vec::new();
        f.for_each_active_bucket(|k, racks, rate| rates.push((k, racks, rate)));
        for &(_, _, r) in &rates {
            assert!((r - 2.4).abs() < 1e-12, "uniform water level: {r}");
        }
        assert!((f.core_rate() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn completions_survive_rate_changes_without_rekeying() {
        // One flow alone at 4 MB/s; halfway through a second flow joins
        // its rack (uplink 4 → 2 each); the first completion slides out.
        let mut f = fab(10.0, 4.0, 1000.0, 4, 8);
        f.start_flow(0, 0, 400.0); // alone: 100 s
        let (t1, _) = f.next_completion().unwrap();
        assert_eq!(t1, 100.0);
        f.advance(50.0);
        f.start_flow(1, 0, 400.0);
        let (t2, m2) = f.next_completion().unwrap();
        // 200 MB left at 2 MB/s → t = 150.
        assert_eq!(m2, 0);
        assert!((t2 - 150.0).abs() < 1e-9);
        f.advance(t2);
        f.end_flow(0, 0);
        // Flow 1: 100 s at 2 MB/s = 200 MB of 400 served by t=150, then
        // alone at 4 MB/s → completes at 150 + 50 = 200.
        let (t3, m3) = f.next_completion().unwrap();
        assert_eq!(m3, 1);
        assert!((t3 - 200.0).abs() < 1e-9);
    }

    #[test]
    fn evicted_flows_vanish_from_the_heaps() {
        let mut f = fab(10.0, 10.0, 1000.0, 4, 8);
        f.start_flow(0, 0, 100.0);
        f.start_flow(1, 0, 50.0);
        // Machine 1 would finish first; evict it instead.
        f.advance(2.0);
        f.end_flow(1, 0);
        let (t, m) = f.next_completion().unwrap();
        assert_eq!(m, 0);
        // 2 s at 5 MB/s = 10 MB served; 90 left alone at 10 MB/s.
        assert!((t - 11.0).abs() < 1e-9);
    }

    #[test]
    fn volume_axis_is_continuous_across_bucket_moves() {
        let mut f = fab(8.0, 8.0, 1000.0, 4, 8);
        f.start_flow(0, 0, 1000.0);
        f.advance(10.0); // 80 MB alone
        f.start_flow(1, 0, 1000.0);
        f.advance(20.0); // +40 MB each at 4 MB/s
        f.end_flow(1, 0);
        f.advance(30.0); // +80 MB alone again
        assert!((f.flow_volume(0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_tie_break_by_machine() {
        let mut f = fab(4.0, 100.0, 1000.0, 2, 8);
        // Same image, same start, different racks: exact time tie.
        f.start_flow(5, 2, 64.0);
        f.start_flow(2, 1, 64.0);
        let (t, m) = f.next_completion().unwrap();
        assert_eq!(t, 16.0);
        assert_eq!(m, 2, "ties break by machine id");
    }
}
