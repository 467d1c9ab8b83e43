//! Per-endpoint **recency indexes** over a [`BMatching`] — the substrate of
//! deterministic LRU eviction (BMA's rent-or-buy baseline evicts the
//! least-recently-used incident edge at a full endpoint).
//!
//! Two implementations with one contract ([`RecencyMatching`]):
//!
//! * [`LruBMatching`] — the production structure: one `u64` **last-touch
//!   stamp per adjacency slot**, laid over the *same fixed-stride layout*
//!   [`BMatching`] already owns (edge at position `i` of rack `v`'s block
//!   occupies slot `v·b + i`). [`BMatching::positions`] names each matched
//!   edge's two block positions, so membership and the slot lookup are one
//!   load — no block scan, no allocation, no tree. A hit is that load plus
//!   two stamp stores; the eviction victim is the minimum of the rack's at
//!   most `b` stamps.
//! * [`BTreeRecencyMatching`] — the historical structure (one
//!   `BTreeMap<stamp, Pair>` per rack plus a `pair → stamp` map), kept as
//!   the **reference oracle**: the equivalence proptests replay both side
//!   by side and require identical victims, and `micro_batch`'s
//!   `bma/recency_upkeep` point measures the flattening win against it.
//!   It decides hits and removals from its own `pair → stamp` map, not
//!   from [`BMatching`]'s index, so a stale index entry shows up as a
//!   divergence instead of being shared by both sides.
//!
//! Victim equivalence argument: both structures give every touch (a hit or
//! an insertion) the next value of one strictly increasing `u64` clock, and
//! an edge keeps the stamp of its last touch at both endpoints. A touch
//! stamps one edge, so a rack's stamps are distinct and order its incident
//! edges by last touch: the B-tree's first key and the flat argmin are the
//! same edge — decision for decision. A stamp past `u64::MAX` would wrap
//! and reorder, so both clocks abort instead ([`LruBMatching`] and
//! [`BTreeRecency`] alike; at one touch per nanosecond that is 584 years
//! away).
//!
//! Adoption survey (rest of the workspace): `periodic.rs` keeps a demand
//! *count* window (no recency ordering), so it does not gain from these
//! stamps; R-BMA's marking caches sample uniformly (`DenseMarking`), which
//! is already O(1), and R-BMA reads membership from [`BMatching`] itself.
//! BMA is the only recency consumer, and it rides [`LruBMatching`].

use crate::BMatching;
use dcn_topology::{NodeId, Pair};
use dcn_util::FxHashMap;
use std::collections::BTreeMap;

/// A degree-capped matching with per-endpoint LRU recency over its incident
/// edges. The one contract BMA needs: membership-with-touch, MRU insertion,
/// removal, and the per-endpoint LRU victim.
pub trait RecencyMatching {
    /// Empty structure over `n` racks with degree cap `b`.
    fn new(n: usize, b: usize) -> Self;

    /// The underlying matching.
    fn matching(&self) -> &BMatching;

    /// If `pair` is a matching edge, refresh its recency at both endpoints
    /// and return `true`; otherwise return `false` and change nothing.
    fn touch_hit(&mut self, pair: Pair) -> bool;

    /// Inserts `pair` as the most-recently-used edge at both endpoints.
    /// Panics if present or over the cap (callers make room first).
    fn insert_mru(&mut self, pair: Pair);

    /// Removes `pair` and its recency state; returns whether it was present.
    fn remove(&mut self, pair: Pair) -> bool;

    /// The least-recently-used matching edge incident to `v`, if any — the
    /// deterministic eviction victim.
    fn lru_edge(&self, v: NodeId) -> Option<Pair>;

    /// `v`'s incident edges in recency order (LRU first). O(degree); for
    /// tests and diagnostics, not the hot path.
    fn recency_order(&self, v: NodeId) -> Vec<Pair>;
}

/// Last-touch stamps over [`BMatching`]'s fixed-stride adjacency.
///
/// Layout: the edge at position `i` of rack `v`'s adjacency block owns
/// stamp slot `v·b + i`, and an edge holds the same stamp at both of its
/// slots: the value the clock gave its last touch. An edge's two
/// positions come from [`BMatching::positions`], so finding its slots is
/// one load. [`BMatching`]'s swap-remove (last block entry fills the
/// hole) is mirrored by copying the moved edge's stamp into the hole, so
/// slots always track block positions.
///
/// ```
/// use dcn_matching::recency::{LruBMatching, RecencyMatching};
/// use dcn_topology::Pair;
///
/// let mut m = LruBMatching::new(4, 2);
/// m.insert_mru(Pair::new(0, 1));
/// m.insert_mru(Pair::new(0, 2));
/// assert!(m.touch_hit(Pair::new(0, 1))); // {0,1} becomes MRU at rack 0
/// assert_eq!(m.lru_edge(0), Some(Pair::new(0, 2)));
/// assert!(!m.touch_hit(Pair::new(0, 3)), "not a matching edge");
/// ```
#[derive(Clone, Debug)]
pub struct LruBMatching {
    matching: BMatching,
    /// Last-touch stamp per adjacency slot `v·cap + position`; slots past
    /// a rack's degree are stale and never read.
    stamps: Vec<u64>,
    /// The last stamp handed out.
    clock: u64,
}

impl LruBMatching {
    /// Empty structure whose stamp clock starts at `clock` — lets tests
    /// probe behaviour at very large stamps, next to the overflow guard.
    pub fn with_start_clock(n: usize, b: usize, clock: u64) -> Self {
        Self {
            matching: BMatching::new(n, b),
            stamps: vec![0; n * b],
            clock,
        }
    }

    #[inline]
    fn slot(&self, v: NodeId, pos: usize) -> usize {
        v as usize * self.matching.cap() + pos
    }

    /// Rack `v`'s stamps, in block order.
    #[inline]
    fn rack_stamps(&self, v: NodeId) -> &[u64] {
        let base = self.slot(v, 0);
        &self.stamps[base..base + self.matching.degree(v)]
    }

    /// Stamps both endpoints' slots of `pair` (at `positions`) with the
    /// next clock value.
    #[inline]
    fn stamp(&mut self, pair: Pair, [lo_pos, hi_pos]: [usize; 2]) {
        self.clock = self
            .clock
            .checked_add(1)
            .expect("LruBMatching stamp clock overflow: stamps would wrap and reorder");
        let (lo, hi) = (self.slot(pair.lo(), lo_pos), self.slot(pair.hi(), hi_pos));
        self.stamps[lo] = self.clock;
        self.stamps[hi] = self.clock;
    }

    /// Exhaustive consistency check (tests/debug): each edge holds one
    /// stamp at both of its slots, no later than the clock, a rack's stamps
    /// are distinct, and the underlying matching invariant (its position
    /// index included) holds.
    pub fn assert_valid(&self) {
        self.matching.assert_valid();
        for v in 0..self.matching.num_racks() as NodeId {
            let stamps = self.rack_stamps(v);
            for (&e, &s) in self.matching.incident_edges(v).iter().zip(stamps) {
                let [lo, hi] = self.matching.positions(e).expect("block edge is matched");
                let ends = [self.slot(e.lo(), lo), self.slot(e.hi(), hi)];
                assert!(
                    ends.iter().all(|&slot| self.stamps[slot] == s),
                    "endpoint stamps of {e} differ"
                );
                assert!(s <= self.clock, "stamp of {e} is ahead of the clock");
            }
            let mut sorted = stamps.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), stamps.len(), "repeated stamp at {v}");
        }
    }
}

impl RecencyMatching for LruBMatching {
    fn new(n: usize, b: usize) -> Self {
        Self::with_start_clock(n, b, 0)
    }

    #[inline]
    fn matching(&self) -> &BMatching {
        &self.matching
    }

    #[inline]
    fn touch_hit(&mut self, pair: Pair) -> bool {
        // The membership probe *is* the slot lookup.
        let Some(positions) = self.matching.positions(pair) else {
            return false;
        };
        self.stamp(pair, positions);
        true
    }

    fn insert_mru(&mut self, pair: Pair) {
        // BMatching appends, so the new edge sits last in both blocks.
        self.matching.insert(pair);
        let positions = [pair.lo(), pair.hi()].map(|v| self.matching.degree(v) - 1);
        self.stamp(pair, positions);
    }

    fn remove(&mut self, pair: Pair) -> bool {
        let Some(positions) = self.matching.positions(pair) else {
            return false;
        };
        for (v, pos) in [pair.lo(), pair.hi()].into_iter().zip(positions) {
            // Mirror the swap-remove: the block's last edge moves into the
            // hole, so its stamp follows.
            let (hole, last) = (self.slot(v, pos), self.slot(v, self.matching.degree(v) - 1));
            self.stamps[hole] = self.stamps[last];
        }
        self.matching.remove(pair);
        true
    }

    #[inline]
    fn lru_edge(&self, v: NodeId) -> Option<Pair> {
        let stamps = self.rack_stamps(v);
        let pos = (0..stamps.len()).min_by_key(|&i| stamps[i])?;
        Some(self.matching.incident_edges(v)[pos])
    }

    fn recency_order(&self, v: NodeId) -> Vec<Pair> {
        let mut order: Vec<(u64, Pair)> = self
            .rack_stamps(v)
            .iter()
            .copied()
            .zip(self.matching.incident_edges(v).iter().copied())
            .collect();
        order.sort_unstable_by_key(|&(stamp, _)| stamp);
        order.into_iter().map(|(_, e)| e).collect()
    }
}

/// The historical recency index: one stamp-ordered `BTreeMap` per rack.
///
/// Kept as the reference oracle for [`LruBMatching`] (equivalence proptests
/// and the `bma/recency_upkeep` before/after bench point) — see the module
/// docs for the victim-equivalence argument.
#[derive(Clone, Debug, Default)]
pub struct BTreeRecency {
    /// Last-use stamp of each matching edge (`FxHashMap`, exactly as the
    /// pre-flattening BMA kept it — the oracle must not be handicapped,
    /// or the published flat-vs-btree speedups would overstate the win).
    stamp_of: FxHashMap<Pair, u64>,
    /// Per-rack recency index; the first entry is the LRU victim.
    recency: Vec<BTreeMap<u64, Pair>>,
    clock: u64,
}

impl BTreeRecency {
    /// Empty index over `n` racks.
    pub fn new(n: usize) -> Self {
        Self::with_start_clock(n, 0)
    }

    /// Empty index whose stamp clock starts at `clock` — lets tests probe
    /// behaviour at very large stamps, next to the overflow guard (see
    /// [`LruBMatching::with_start_clock`]).
    pub fn with_start_clock(n: usize, clock: u64) -> Self {
        Self {
            stamp_of: FxHashMap::default(),
            recency: vec![BTreeMap::new(); n],
            clock,
        }
    }

    /// Refreshes the recency of `pair` at both endpoints (the caller
    /// guarantees `pair` is, or is becoming, a matching edge).
    pub fn touch(&mut self, pair: Pair) {
        self.clock = self
            .clock
            .checked_add(1)
            .expect("BTreeRecency stamp clock overflow: stamps would wrap and reorder");
        if let Some(old) = self.stamp_of.insert(pair, self.clock) {
            self.recency[pair.lo() as usize].remove(&old);
            self.recency[pair.hi() as usize].remove(&old);
        }
        self.recency[pair.lo() as usize].insert(self.clock, pair);
        self.recency[pair.hi() as usize].insert(self.clock, pair);
    }

    /// Drops `pair`'s recency state; returns whether it was tracked.
    pub fn remove(&mut self, pair: Pair) -> bool {
        match self.stamp_of.remove(&pair) {
            None => false,
            Some(stamp) => {
                self.recency[pair.lo() as usize].remove(&stamp);
                self.recency[pair.hi() as usize].remove(&stamp);
                true
            }
        }
    }

    /// The minimum-stamp (least recently used) edge at `v`.
    pub fn lru_edge(&self, v: NodeId) -> Option<Pair> {
        self.recency[v as usize].values().next().copied()
    }

    /// `v`'s tracked edges in stamp order (LRU first).
    pub fn order(&self, v: NodeId) -> Vec<Pair> {
        self.recency[v as usize].values().copied().collect()
    }
}

/// [`BTreeRecency`] paired with the matching it indexes — the reference
/// implementation of [`RecencyMatching`], structured exactly like the
/// pre-flattening BMA fields.
#[derive(Clone, Debug)]
pub struct BTreeRecencyMatching {
    matching: BMatching,
    recency: BTreeRecency,
}

impl BTreeRecencyMatching {
    /// Reference structure whose stamp clock starts at `clock` (see
    /// [`BTreeRecency::with_start_clock`]).
    pub fn with_start_clock(n: usize, b: usize, clock: u64) -> Self {
        Self {
            matching: BMatching::new(n, b),
            recency: BTreeRecency::with_start_clock(n, clock),
        }
    }
}

impl RecencyMatching for BTreeRecencyMatching {
    fn new(n: usize, b: usize) -> Self {
        Self::with_start_clock(n, b, 0)
    }

    fn matching(&self) -> &BMatching {
        &self.matching
    }

    fn touch_hit(&mut self, pair: Pair) -> bool {
        let hit = self.recency.stamp_of.contains_key(&pair);
        debug_assert_eq!(
            hit,
            self.matching.contains(pair),
            "recency map and matching index disagree at {pair}"
        );
        if hit {
            self.recency.touch(pair);
        }
        hit
    }

    fn insert_mru(&mut self, pair: Pair) {
        self.matching.insert(pair);
        self.recency.touch(pair);
    }

    fn remove(&mut self, pair: Pair) -> bool {
        let tracked = self.recency.remove(pair);
        let removed = self.matching.remove(pair);
        debug_assert_eq!(
            tracked, removed,
            "recency map and matching index disagree at {pair}"
        );
        tracked
    }

    fn lru_edge(&self, v: NodeId) -> Option<Pair> {
        self.recency.lru_edge(v)
    }

    fn recency_order(&self, v: NodeId) -> Vec<Pair> {
        self.recency.order(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(a, b)
    }

    #[test]
    fn lru_victim_is_oldest_touch() {
        let mut m = LruBMatching::new(6, 3);
        m.insert_mru(p(0, 1));
        m.insert_mru(p(0, 2));
        m.insert_mru(p(0, 3));
        assert_eq!(m.lru_edge(0), Some(p(0, 1)));
        assert!(m.touch_hit(p(0, 1)));
        assert_eq!(m.lru_edge(0), Some(p(0, 2)));
        assert_eq!(m.recency_order(0), vec![p(0, 2), p(0, 3), p(0, 1)]);
        m.assert_valid();
    }

    #[test]
    fn touch_misses_leave_state_unchanged() {
        let mut m = LruBMatching::new(4, 2);
        m.insert_mru(p(0, 1));
        let before = m.recency_order(0);
        assert!(!m.touch_hit(p(0, 2)));
        assert_eq!(m.recency_order(0), before);
        assert!(!m.remove(p(0, 2)));
        m.assert_valid();
    }

    #[test]
    fn remove_mirrors_swap_remove_relabeling() {
        // Removing a middle edge makes BMatching move its last block entry
        // into the hole; its stamp must follow, preserving order.
        let mut m = LruBMatching::new(6, 4);
        for v in [1u32, 2, 3, 4] {
            m.insert_mru(p(0, v));
        }
        assert!(m.remove(p(0, 2)));
        // Recency order drops {0,2} but otherwise keeps touch order.
        assert_eq!(m.recency_order(0), vec![p(0, 1), p(0, 3), p(0, 4)]);
        assert_eq!(m.lru_edge(0), Some(p(0, 1)));
        m.assert_valid();
        // The other endpoints' single-edge orders survive too.
        assert_eq!(m.recency_order(3), vec![p(0, 3)]);
    }

    #[test]
    fn empty_rack_has_no_victim() {
        let m = LruBMatching::new(3, 2);
        assert_eq!(m.lru_edge(1), None);
        assert!(m.recency_order(1).is_empty());
    }

    #[test]
    fn btree_reference_matches_flat_on_a_scripted_sequence() {
        let mut flat = LruBMatching::new(8, 2);
        let mut tree = BTreeRecencyMatching::new(8, 2);
        let script = [p(0, 1), p(0, 2), p(1, 2), p(3, 4), p(0, 1), p(1, 2)];
        for e in script {
            if !flat.touch_hit(e) {
                assert!(!tree.touch_hit(e));
                if flat.matching().can_insert(e) {
                    flat.insert_mru(e);
                    tree.insert_mru(e);
                }
            } else {
                assert!(tree.touch_hit(e));
            }
            for v in 0..8 {
                assert_eq!(flat.recency_order(v), tree.recency_order(v));
                assert_eq!(flat.lru_edge(v), tree.lru_edge(v));
            }
        }
        flat.assert_valid();
    }

    #[test]
    fn large_start_clock_does_not_perturb_the_reference() {
        // Stamps near the top of the u64 range order exactly like small
        // ones (no wrap occurs), in both structures.
        let start = u64::MAX - 16;
        let mut tree = BTreeRecencyMatching::with_start_clock(4, 2, start);
        let mut flat = LruBMatching::with_start_clock(4, 2, start);
        for e in [p(0, 1), p(0, 2), p(0, 1), p(2, 3)] {
            if !tree.touch_hit(e) {
                tree.insert_mru(e);
                flat.insert_mru(e);
            } else {
                assert!(flat.touch_hit(e));
            }
        }
        for v in 0..4 {
            assert_eq!(tree.recency_order(v), flat.recency_order(v));
        }
        flat.assert_valid();
    }

    #[test]
    #[should_panic(expected = "stamp clock overflow")]
    fn btree_clock_overflow_is_detected_not_silent() {
        let mut tree = BTreeRecencyMatching::with_start_clock(4, 2, u64::MAX - 1);
        tree.insert_mru(p(0, 1)); // stamp u64::MAX
        tree.touch_hit(p(0, 1)); // would wrap to 0 and reorder: abort
    }

    #[test]
    #[should_panic(expected = "stamp clock overflow")]
    fn flat_clock_overflow_is_detected_not_silent() {
        let mut flat = LruBMatching::with_start_clock(4, 2, u64::MAX - 1);
        flat.insert_mru(p(0, 1)); // stamp u64::MAX
        flat.touch_hit(p(0, 1)); // would wrap to 0 and reorder: abort
    }

    #[test]
    fn churn_keeps_stamps_and_blocks_in_sync() {
        let n = 10u32;
        let mut m = LruBMatching::new(n as usize, 3);
        for i in 0..4000u32 {
            let a = i % n;
            let b = (a + 1 + i.wrapping_mul(2654435761) % (n - 1)) % n;
            if a == b {
                continue;
            }
            let e = p(a, b);
            if m.touch_hit(e) {
                if i % 7 == 0 {
                    m.remove(e);
                }
            } else if m.matching().can_insert(e) {
                m.insert_mru(e);
            } else if let Some(victim) = m.lru_edge(e.lo()) {
                m.remove(victim);
            }
            if i % 97 == 0 {
                m.assert_valid();
            }
        }
        m.assert_valid();
    }
}
