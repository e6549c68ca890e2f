//! The virtual-volume lane core shared by both fair-share models.
//!
//! A *lane* is a set of flows that all receive the same per-flow rate
//! `rate[l]` under the current membership. Each lane carries a service
//! integral `acc[l] = ∫ rate[l] dt`, the volume delivered to any one of
//! its flows so far. A flow that joins when the integral reads `a` with
//! `v` MB to move completes when the integral reaches the constant key
//! `a + v`, so rate changes never re-key it: the lane's keys move in
//! lockstep. A lane's entries sit in a min-heap on that key, and with
//! the rate held constant the lane's next completion is its head's
//! projection `(key − acc) / rate` seconds ahead.
//!
//! The two users map their state onto lanes differently:
//!
//! * [`crate::WeightedFairLink`]: a lane is a priority lane and an entry
//!   is one flow.
//! * [`crate::Fabric`]: a lane is the bucket of racks holding exactly
//!   `k` active flows and an entry is one rack, keyed by its earliest
//!   flow's deadline on the bucket's axis. Each rack also keeps its own
//!   flows in a [`KeyHeap`] on the rack's volume axis.
//!
//! Departures invalidate heap entries by generation: the user owns the
//! generation counters and says which entries are live; stale entries
//! are discarded when they surface, or all at once when a heap is
//! mostly stale.

use std::collections::BinaryHeap;

/// A completion key. Heaps order entries by `(key, id)`, least first;
/// `gen` tells a live entry from a stale one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<I> {
    pub key: f64,
    pub id: I,
    pub gen: I,
}

impl<I: Ord> PartialEq for Entry<I> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<I: Ord> Eq for Entry<I> {}
impl<I: Ord> PartialOrd for Entry<I> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<I: Ord> Ord for Entry<I> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap.
        other.key.total_cmp(&self.key).then(other.id.cmp(&self.id))
    }
}

/// A min-heap of [`Entry`]s with lazy deletion.
#[derive(Debug, Clone)]
pub(crate) struct KeyHeap<I>(BinaryHeap<Entry<I>>);

impl<I: Ord + Copy> KeyHeap<I> {
    pub fn new() -> Self {
        KeyHeap(BinaryHeap::new())
    }

    /// Push `entry` onto a heap that holds `live` live entries after the
    /// push. When the heap is mostly stale (more than 64 entries and
    /// more than four per live one) it keeps only the entries `is_live`
    /// accepts, so stale entries buried under live ones stay bounded.
    pub fn push(&mut self, entry: Entry<I>, live: u32, is_live: impl FnMut(&Entry<I>) -> bool) {
        self.0.push(entry);
        if self.0.len() > 64 && self.0.len() as u32 > 4 * live {
            self.0.retain(is_live);
        }
    }

    /// The least live entry, after discarding the stale entries above
    /// it.
    pub fn head(&mut self, mut is_live: impl FnMut(&Entry<I>) -> bool) -> Option<Entry<I>> {
        while let Some(&e) = self.0.peek() {
            if is_live(&e) {
                return Some(e);
            }
            self.0.pop();
        }
        None
    }

    /// The least entry, live or not.
    pub fn peek(&self) -> Option<&Entry<I>> {
        self.0.peek()
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// Per-lane service integrals, per-flow rates, live-entry counts and
/// completion heaps. The user sets `rate` after every membership change
/// and keeps `count` equal to the live entries of each heap.
#[derive(Debug, Clone)]
pub(crate) struct Lanes<I> {
    /// Service integral: volume delivered to one flow of the lane.
    pub acc: Vec<f64>,
    /// Per-flow rate under the current membership.
    pub rate: Vec<f64>,
    /// Live entries in the lane's heap.
    pub count: Vec<u32>,
    pub heaps: Vec<KeyHeap<I>>,
}

impl<I: Ord + Copy> Lanes<I> {
    pub fn new(lanes: usize) -> Self {
        Lanes {
            acc: vec![0.0; lanes],
            rate: vec![0.0; lanes],
            count: vec![0; lanes],
            heaps: (0..lanes).map(|_| KeyHeap::new()).collect(),
        }
    }

    /// Key entry `id` on lane `l` to complete once `remaining` more MB
    /// have been served to each of the lane's flows: at `acc + remaining`
    /// on the lane's axis. `is_live` is as for [`KeyHeap::push`].
    pub fn push(
        &mut self,
        l: usize,
        remaining: f64,
        id: I,
        gen: I,
        is_live: impl FnMut(&Entry<I>) -> bool,
    ) {
        let key = self.acc[l] + remaining;
        self.heaps[l].push(Entry { key, id, gen }, self.count[l], is_live);
    }

    /// Accrue `dt` seconds of service on every occupied lane.
    pub fn advance(&mut self, dt: f64) {
        for l in 0..self.count.len() {
            if self.count[l] > 0 {
                self.acc[l] += self.rate[l] * dt;
            }
        }
    }

    /// The least completion candidate over the occupied lanes. Each
    /// lane's head is found with `is_live(lane, entry)`; a lane with no
    /// service rate has no completion. `candidate(head, eta)` maps the
    /// head and its projection `eta = (key − acc) / rate` to the value
    /// compared, and the first least one wins.
    pub fn earliest<K: PartialOrd>(
        &mut self,
        mut is_live: impl FnMut(usize, &Entry<I>) -> bool,
        mut candidate: impl FnMut(Entry<I>, f64) -> K,
    ) -> Option<K> {
        let mut best: Option<K> = None;
        for l in 0..self.count.len() {
            if self.count[l] == 0 {
                continue;
            }
            let Some(head) = self.heaps[l].head(|e| is_live(l, e)) else {
                debug_assert!(false, "lane with live entries has an empty heap");
                continue;
            };
            let rate = self.rate[l];
            if rate <= 0.0 {
                continue;
            }
            let c = candidate(head, (head.key - self.acc[l]) / rate);
            if best.as_ref().is_none_or(|b| c < *b) {
                best = Some(c);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, FabricConfig, WeightedFairLink};
    use chs_markov::mix64;
    use proptest::prelude::*;

    /// A deterministic draw stream for one randomized case.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = mix64(self.0.wrapping_add(0x9E37_79B9_7F4A_7C15));
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        /// A uniform in `[lo, hi)`.
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    /// One live flow of the brute-force ledger.
    #[derive(Debug, Clone, Copy)]
    struct Flow {
        target: f64,
        served: f64,
        rate: f64,
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
    }

    /// Check a user's `next_completion` against a scan of the ledger:
    /// the time is the least `now + (target − served) / rate`, floored
    /// at `now` when `floor` is set, and the id is a live flow whose own
    /// projection ties the least within tolerance.
    fn check_next(
        got: Option<(f64, u64)>,
        ledger: &[Option<Flow>],
        now: f64,
        floor: bool,
    ) -> Option<(f64, u64)> {
        let eta = |f: &Flow| {
            let eta = (f.target - f.served) / f.rate;
            now + if floor { eta.max(0.0) } else { eta }
        };
        let scan = ledger
            .iter()
            .enumerate()
            .filter_map(|(id, f)| f.map(|f| (eta(&f), id as u64)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        match (got, scan) {
            (None, None) => {}
            (Some((t, id)), Some((t_min, id_min))) => {
                assert!(close(t, t_min), "next completion {t} vs scan {t_min}");
                let Some(f) = ledger.get(id as usize).copied().flatten() else {
                    panic!("dead id {id} surfaced");
                };
                assert!(
                    id == id_min || close(eta(&f), t_min),
                    "id {id} at {} is not the scan's least {id_min} at {t_min}",
                    eta(&f)
                );
            }
            other => panic!("next completion and scan disagree: {other:?}"),
        }
        got
    }

    /// Serve `dt` seconds at each flow's rate.
    fn serve(ledger: &mut [Option<Flow>], dt: f64) {
        for f in ledger.iter_mut().flatten() {
            f.served += f.rate * dt;
        }
    }

    /// How far to step: up to the scanned next completion (and then
    /// end the flow it names), or a fraction of the way there.
    fn step(d: &mut Draws, next: Option<(f64, u64)>, now: f64) -> (f64, Option<u64>) {
        match next {
            Some((t, id)) if d.below(2) == 0 => (t - now, Some(id)),
            Some((t, _)) => (d.uniform(0.0, 1.0) * (t - now), None),
            None => (d.uniform(0.0, 10.0), None),
        }
    }

    /// Brute-force weighted max-min rates: `w_l·C / Σ_m n_m·w_m`.
    fn link_rates(ledger: &mut [Option<Flow>], lane_of: &[usize], weights: &[f64], cap: f64) {
        let denom: f64 = (0..ledger.len())
            .filter(|&i| ledger[i].is_some())
            .map(|i| weights[lane_of[i]])
            .sum();
        for (i, f) in ledger.iter_mut().enumerate() {
            if let Some(f) = f {
                f.rate = weights[lane_of[i]] * cap / denom;
            }
        }
    }

    /// Brute-force max-min rates on the machine → rack → core tree by
    /// progressive filling: raise every unfrozen flow's rate equally
    /// until some NIC, uplink or the core saturates, freeze the flows it
    /// carries, repeat.
    fn tree_rates(ledger: &mut [Option<Flow>], c: &FabricConfig) {
        let n = ledger.len();
        let live: Vec<usize> = (0..n).filter(|&m| ledger[m].is_some()).collect();
        // (capacity, flows carried) per link: the core, each uplink,
        // each NIC.
        let mut links = vec![(c.core_mb_s, live.clone())];
        for r in 0..n.div_ceil(c.rack_size) {
            let rack = live.iter().copied().filter(|&m| m / c.rack_size == r);
            links.push((c.uplink_mb_s, rack.collect()));
        }
        links.extend(live.iter().map(|&m| (c.nic_mb_s, vec![m])));
        let mut rate = vec![0.0; n];
        let mut frozen = vec![false; n];
        loop {
            let headroom: Vec<Option<f64>> = links
                .iter()
                .map(|(cap, flows)| {
                    let open = flows.iter().filter(|&&m| !frozen[m]).count();
                    let used: f64 = flows.iter().map(|&m| rate[m]).sum();
                    (open > 0).then(|| (cap - used) / open as f64)
                })
                .collect();
            let inc = headroom
                .iter()
                .flatten()
                .fold(f64::INFINITY, |a, &b| a.min(b));
            if inc == f64::INFINITY {
                break;
            }
            for &m in live.iter().filter(|&&m| !frozen[m]) {
                rate[m] += inc;
            }
            for ((cap, flows), h) in links.iter().zip(&headroom) {
                if h.is_some_and(|h| h <= inc + 1e-12 * cap) {
                    for &m in flows {
                        frozen[m] = true;
                    }
                }
            }
        }
        for (m, f) in ledger.iter_mut().enumerate() {
            if let Some(f) = f {
                f.rate = rate[m];
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The link against a per-flow ledger: random starts (some
        /// re-registering a live id), ends and advances.
        #[test]
        fn link_matches_a_brute_force_scan(seed in 0u64..u64::MAX) {
            let mut d = Draws(seed);
            let lanes = 1 + d.below(3) as usize;
            let weights: Vec<f64> = (0..lanes).map(|_| [1.0, 2.0, 4.0][d.below(3) as usize]).collect();
            let cap = d.uniform(0.5, 20.0);
            let mut link = WeightedFairLink::new(cap, &weights).unwrap();
            let mut ledger: Vec<Option<Flow>> = vec![None; 8];
            let mut lane_of = vec![0; 8];
            let mut now = 0.0;
            for _ in 0..200 {
                let id = d.below(8);
                let i = id as usize;
                match d.below(10) {
                    0..=3 => {
                        let (lane, target) = (d.below(lanes as u64) as usize, d.uniform(1.0, 100.0));
                        link.start_flow(id, lane, target);
                        ledger[i] = Some(Flow { target, served: 0.0, rate: 0.0 });
                        lane_of[i] = lane;
                    }
                    4..=5 => {
                        prop_assert_eq!(link.end_flow(id), ledger[i].take().is_some());
                    }
                    _ => {
                        let next = check_next(link.next_completion(), &ledger, now, false);
                        let (dt, done) = step(&mut d, next, now);
                        link.advance_by(dt);
                        serve(&mut ledger, dt);
                        now += dt;
                        if let Some(id) = done {
                            prop_assert!(link.end_flow(id));
                            ledger[id as usize] = None;
                        }
                    }
                }
                link_rates(&mut ledger, &lane_of, &weights, cap);
                for (i, f) in ledger.iter().enumerate() {
                    if let Some(f) = f {
                        prop_assert!(close(link.rate(lane_of[i]), f.rate));
                    }
                }
                check_next(link.next_completion(), &ledger, now, false);
            }
        }

        /// The fabric against a per-flow ledger with progressive-filling
        /// rates: random starts, evictions and advances, machines
        /// restarting after each end.
        #[test]
        fn fabric_matches_a_brute_force_scan(seed in 0u64..u64::MAX) {
            let mut d = Draws(seed);
            let config = FabricConfig {
                nic_mb_s: d.uniform(1.0, 8.0),
                uplink_mb_s: d.uniform(1.0, 16.0),
                core_mb_s: d.uniform(1.0, 24.0),
                rack_size: 1 + d.below(4) as usize,
            };
            let machines = config.rack_size * (1 + d.below(3) as usize);
            let mut fabric = Fabric::new(config, machines).unwrap();
            let rack = |m: u64| (m as usize / config.rack_size) as u32;
            let mut ledger: Vec<Option<Flow>> = vec![None; machines];
            let mut now = 0.0;
            for _ in 0..200 {
                let m = d.below(machines as u64);
                let i = m as usize;
                match d.below(10) {
                    0..=3 => {
                        if ledger[i].is_none() {
                            let target = d.uniform(1.0, 100.0);
                            fabric.start_flow(m as u32, rack(m), target);
                            ledger[i] = Some(Flow { target, served: 0.0, rate: 0.0 });
                        }
                    }
                    4..=5 => {
                        if ledger[i].take().is_some() {
                            fabric.end_flow(m as u32, rack(m));
                        }
                    }
                    _ => {
                        let got = fabric.next_completion().map(|(t, m)| (t, m as u64));
                        let next = check_next(got, &ledger, now, true);
                        let (dt, done) = step(&mut d, next, now);
                        now += dt;
                        fabric.advance(now);
                        serve(&mut ledger, dt);
                        if let Some(m) = done {
                            fabric.end_flow(m as u32, rack(m));
                            ledger[m as usize] = None;
                        }
                    }
                }
                tree_rates(&mut ledger, &config);
                let mut buckets = Vec::new();
                fabric.for_each_active_bucket(|k, _, rate| buckets.push((k, rate)));
                for (m, f) in ledger.iter().enumerate() {
                    if let Some(f) = f {
                        let k = (0..machines)
                            .filter(|&o| o / config.rack_size == m / config.rack_size && ledger[o].is_some())
                            .count();
                        let (_, rate) = buckets.iter().find(|b| b.0 == k).copied().unwrap();
                        prop_assert!(close(rate, f.rate), "machine {m}: {rate} vs {}", f.rate);
                    }
                }
                let got = fabric.next_completion().map(|(t, m)| (t, m as u64));
                check_next(got, &ledger, now, true);
            }
        }
    }

    #[test]
    fn mostly_stale_heaps_keep_only_live_entries() {
        let mut heap = KeyHeap::new();
        let live = |e: &Entry<u32>| e.id.is_multiple_of(8);
        for id in 0..64u32 {
            heap.push(
                Entry {
                    key: id as f64,
                    id,
                    gen: 0,
                },
                8,
                live,
            );
        }
        assert_eq!(heap.0.len(), 64, "no compaction at 64 entries");
        heap.push(
            Entry {
                key: 0.5,
                id: 64,
                gen: 0,
            },
            9,
            live,
        );
        assert_eq!(heap.0.len(), 9, "compacted to the live entries");
        assert_eq!(heap.head(live).map(|e| e.id), Some(0));
    }
}
