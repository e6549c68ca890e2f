//! The server's event index: one time key per client in an indexed
//! binary min-heap.
//!
//! Each client owns exactly one slot whose key is the earliest time its
//! own state can produce an event (segment start or end, work deadline,
//! retry/outage/stall deadline). Keys change in place — the heap tracks
//! every slot's position — so the heap never holds stale entries and its
//! size stays the client count. A NaN key is stored as +∞: as in a full
//! scan, where NaN never wins a `min` or passes a `>=` test, it is never
//! the minimum and never due.

/// Indexed min-heap over the slots `0..n`.
#[derive(Debug)]
pub(crate) struct TimeIndex {
    key: Vec<f64>,
    /// Heap array of slots.
    heap: Vec<usize>,
    /// `pos[slot]` is the slot's index in `heap`.
    pos: Vec<usize>,
    /// Scratch stack for [`Self::collect_due`].
    stack: Vec<usize>,
}

impl TimeIndex {
    /// An index over `keys.len()` slots, slot `i` keyed by `keys[i]`.
    pub(crate) fn new(keys: Vec<f64>) -> Self {
        let n = keys.len();
        let mut index = Self {
            key: keys.into_iter().map(ordered).collect(),
            heap: (0..n).collect(),
            pos: (0..n).collect(),
            stack: Vec::new(),
        };
        for k in (0..n / 2).rev() {
            index.sift_down(k);
        }
        index
    }

    /// The smallest key (+∞ when there are no slots).
    pub(crate) fn min(&self) -> f64 {
        self.heap.first().map_or(f64::INFINITY, |&s| self.key[s])
    }

    /// Re-key `slot` in place.
    pub(crate) fn set(&mut self, slot: usize, key: f64) {
        let key = ordered(key);
        let old = std::mem::replace(&mut self.key[slot], key);
        let k = self.pos[slot];
        if key < old {
            self.sift_up(k);
        } else {
            self.sift_down(k);
        }
    }

    /// Append every slot with `horizon >= key` to `out`, in heap order.
    /// Visits only those slots and their direct children.
    pub(crate) fn collect_due(&mut self, horizon: f64, out: &mut Vec<usize>) {
        self.stack.clear();
        if !self.heap.is_empty() {
            self.stack.push(0);
        }
        while let Some(k) = self.stack.pop() {
            let slot = self.heap[k];
            if horizon >= self.key[slot] {
                out.push(slot);
                for child in [2 * k + 1, 2 * k + 2] {
                    if child < self.heap.len() {
                        self.stack.push(child);
                    }
                }
            }
        }
    }

    fn less(&self, a: usize, b: usize) -> bool {
        self.key[self.heap[a]] < self.key[self.heap[b]]
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a]] = a;
        self.pos[self.heap[b]] = b;
    }

    fn sift_up(&mut self, mut k: usize) {
        while k > 0 {
            let parent = (k - 1) / 2;
            if !self.less(k, parent) {
                break;
            }
            self.swap(k, parent);
            k = parent;
        }
    }

    fn sift_down(&mut self, mut k: usize) {
        loop {
            let left = 2 * k + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.less(right, left) {
                right
            } else {
                left
            };
            if !self.less(child, k) {
                break;
            }
            self.swap(k, child);
            k = child;
        }
    }
}

/// NaN → +∞, so keys are totally ordered by `<`.
fn ordered(key: f64) -> f64 {
    if key.is_nan() {
        f64::INFINITY
    } else {
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn due(index: &mut TimeIndex, horizon: f64) -> Vec<usize> {
        let mut out = Vec::new();
        index.collect_due(horizon, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn min_and_due_track_in_place_rekeys() {
        let mut index = TimeIndex::new(vec![5.0, 3.0, f64::INFINITY, 9.0, 3.0]);
        assert_eq!(index.min(), 3.0);
        assert_eq!(due(&mut index, 3.0), vec![1, 4]);
        assert_eq!(due(&mut index, 5.0), vec![0, 1, 4]);
        index.set(1, 10.0);
        index.set(4, 11.0);
        assert_eq!(index.min(), 5.0);
        index.set(2, 1.0);
        assert_eq!(index.min(), 1.0);
        assert_eq!(due(&mut index, 9.5), vec![0, 2, 3]);
        assert!(due(&mut index, 0.5).is_empty());
    }

    #[test]
    fn matches_a_full_scan_under_random_rekeys() {
        let n = 37;
        let mut keys: Vec<f64> = (0..n).map(|i| ((i * 7919) % 101) as f64).collect();
        let mut index = TimeIndex::new(keys.clone());
        let mut x: u64 = 0x2005;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let slot = (x >> 33) as usize % n;
            let key = ((x >> 11) % 200) as f64 * 0.5;
            keys[slot] = key;
            index.set(slot, key);
            let scan = keys.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(index.min(), scan);
            let horizon = key + 3.0;
            let expect: Vec<usize> = (0..n).filter(|&i| horizon >= keys[i]).collect();
            assert_eq!(due(&mut index, horizon), expect);
        }
    }

    #[test]
    fn nan_keys_are_never_due_and_never_the_minimum() {
        let mut index = TimeIndex::new(vec![f64::NAN, 2.0]);
        assert_eq!(index.min(), 2.0);
        assert_eq!(due(&mut index, f64::MAX), vec![1]);
        index.set(1, -f64::NAN);
        assert!(index.min().is_infinite());
        assert!(TimeIndex::new(Vec::new()).min().is_infinite());
    }
}
