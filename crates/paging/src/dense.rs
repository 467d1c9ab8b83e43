//! **DenseMarking** — the flat-layout randomized marking cache behind
//! R-BMA's batched serve loop.
//!
//! [`Marking`](crate::Marking) keeps its marked/unmarked sets in generic
//! hash-indexed [`IndexedSet`](dcn_util::IndexedSet)s because standalone
//! paging experiments use arbitrary `u64` page ids. In the R-BMA reduction,
//! however, page ids are *partner rack ids* — a dense universe `0..n` known
//! at construction — so the hash index can be replaced by flat
//! index-addressed arrays: a `slot` table (page → dense-vector position), a
//! cached-page **bitset** and a mark **bitset**. Every access is then a
//! couple of bit probes plus at most one swap-remove in a dense vector: no
//! hashing, no pointer chasing, and no allocation.
//!
//! Behavioral contract: **draw-for-draw identical to
//! [`Marking`](crate::Marking)** under the same seed. The dense vectors
//! evolve exactly like `IndexedSet`'s storage (append on insert,
//! swap-remove on removal; the phase reset moves the marked vector
//! wholesale, preserving order), and the victim draw consumes one
//! `random_range(0..len)` from the same position of the same seeded
//! stream — so swapping `Marking` for `DenseMarking` inside R-BMA changes
//! no simulated cost. `tests` pins this equivalence access by access.

use crate::policy::{Access, PageId, PagingPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How many raw RNG words one refill pulls into the draw buffer. Small
/// enough that a cloned cache carries negligible pre-drawn state, large
/// enough to amortize the generator's state load/store across faults.
const RNG_BLOCK: usize = 8;

#[inline]
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] >> (i & 63) & 1 != 0
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1 << (i & 63);
}

#[inline]
fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] &= !(1 << (i & 63));
}

/// Randomized marking over a dense page universe `0..num_pages`, flat
/// layout, allocation-free accesses.
#[derive(Clone, Debug)]
pub struct DenseMarking {
    capacity: usize,
    num_pages: usize,
    /// Dense list of marked pages (insertion order, swap-removed).
    marked_items: Vec<PageId>,
    /// Dense list of unmarked pages (insertion order, swap-removed); the
    /// eviction victim is drawn uniformly from this vector.
    unmarked_items: Vec<PageId>,
    /// Page → position in whichever dense list holds it.
    slot: Vec<u32>,
    /// Bitset: page currently cached.
    cached: Vec<u64>,
    /// Bitset: page currently marked (implies cached).
    marked: Vec<u64>,
    rng: SmallRng,
    /// Precomputed rejection zones for the eviction draw, indexed by span
    /// (`zones[s]` for `1 ≤ s ≤ capacity`): the largest draw the
    /// rejection sampler accepts for that span. Hoisting the two modulos
    /// out of the per-fault hot path changes nothing about which draws
    /// are accepted — `tests::replays_marking_access_for_access` pins it.
    zones: Vec<u64>,
    /// Block-refilled scratch of raw RNG words for the eviction draws
    /// (the "per-chunk draw buffer" of the specials fast path). Buffering
    /// only *prefetches* the very words `random_range` would pull one at
    /// a time, in order, so the byte stream is untouched by construction.
    /// Note spans of 1 consume **no** word (the sampler early-returns 0),
    /// exactly as the unbuffered path.
    words: [u64; RNG_BLOCK],
    /// Next unconsumed index into `words` (`RNG_BLOCK` = buffer empty).
    word_pos: usize,
    phases: u64,
}

impl DenseMarking {
    /// Empty cache of `capacity` over pages `0..num_pages`, seeded RNG.
    pub fn new(capacity: usize, num_pages: usize, seed: u64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        let words = num_pages.div_ceil(64).max(1);
        // zones[0] is a pad; zones[1] is never consulted (span-1 draws
        // return 0 without sampling, mirroring the generic sampler).
        let zones = (0..=capacity as u64)
            .map(|s| {
                if s == 0 {
                    0
                } else {
                    u64::MAX - (u64::MAX - s + 1) % s
                }
            })
            .collect();
        Self {
            capacity,
            num_pages,
            marked_items: Vec::with_capacity(capacity),
            unmarked_items: Vec::with_capacity(capacity),
            slot: vec![0; num_pages],
            cached: vec![0; words],
            marked: vec![0; words],
            rng: SmallRng::seed_from_u64(seed),
            zones,
            words: [0; RNG_BLOCK],
            word_pos: RNG_BLOCK,
            phases: 0,
        }
    }

    /// Size of the page universe.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Number of completed phase transitions (diagnostics).
    pub fn phase_transitions(&self) -> u64 {
        self.phases
    }

    /// Whether `page` is currently marked.
    #[inline]
    pub fn is_marked(&self, page: PageId) -> bool {
        bit(&self.marked, page as usize)
    }

    /// Swap-removes the page at `idx` of `items`, fixing the moved slot.
    #[inline]
    fn swap_remove(items: &mut Vec<PageId>, slot: &mut [u32], idx: usize) -> PageId {
        let victim = items.swap_remove(idx);
        if idx < items.len() {
            slot[items[idx] as usize] = idx as u32;
        }
        victim
    }

    /// One indexed pass over both bitsets: `(cached, marked)` for `page`.
    /// Read-only — callers hoist this ahead of the mutating paths (the
    /// R-BMA specials fast path probes both endpoints' slots up front).
    #[inline]
    pub fn probe(&self, page: PageId) -> (bool, bool) {
        let i = page as usize;
        debug_assert!(i < self.num_pages, "page {page} outside dense universe");
        (bit(&self.cached, i), bit(&self.marked, i))
    }

    /// The hit half of [`PagingPolicy::access`] with the cached probe already
    /// done by the caller: marks `page`, moving it from the unmarked to the
    /// marked list if needed. `page` **must** be cached.
    #[inline]
    pub fn mark_cached_hit(&mut self, page: PageId) {
        let i = page as usize;
        debug_assert!(bit(&self.cached, i), "page {page} is not cached");
        if !bit(&self.marked, i) {
            let idx = self.slot[i] as usize;
            Self::swap_remove(&mut self.unmarked_items, &mut self.slot, idx);
            set_bit(&mut self.marked, i);
            self.slot[i] = self.marked_items.len() as u32;
            self.marked_items.push(page);
        }
    }

    /// Draws a uniform victim index in `0..len` from the buffered word
    /// stream — byte-for-byte the words (and rejections) `random_range`
    /// would consume, with the rejection zone looked up instead of
    /// recomputed. `len == 1` consumes nothing, as in the generic sampler.
    #[inline]
    fn draw_index(&mut self, len: usize) -> usize {
        if len == 1 {
            return 0;
        }
        let zone = self.zones[len];
        loop {
            if self.word_pos == RNG_BLOCK {
                for w in &mut self.words {
                    *w = self.rng.next_u64();
                }
                self.word_pos = 0;
            }
            let draw = self.words[self.word_pos];
            self.word_pos += 1;
            if draw <= zone {
                return (draw % len as u64) as usize;
            }
        }
    }
}

impl PagingPolicy for DenseMarking {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.marked_items.len() + self.unmarked_items.len()
    }

    fn contains(&self, page: PageId) -> bool {
        (page as usize) < self.num_pages && bit(&self.cached, page as usize)
    }

    #[inline]
    fn access(&mut self, page: PageId) -> Access {
        let i = page as usize;
        debug_assert!(i < self.num_pages, "page {page} outside dense universe");
        if bit(&self.cached, i) {
            self.mark_cached_hit(page);
            return Access::Hit;
        }
        // Fault.
        let mut evicted = None;
        if self.marked_items.len() + self.unmarked_items.len() == self.capacity {
            if self.unmarked_items.is_empty() {
                // New phase: all marks drop; the marked list becomes the
                // unmarked list wholesale (order — and therefore the future
                // victim draws — exactly as Marking's drain-and-reinsert).
                self.phases += 1;
                std::mem::swap(&mut self.marked_items, &mut self.unmarked_items);
                for &p in &self.unmarked_items {
                    clear_bit(&mut self.marked, p as usize);
                }
            }
            let idx = self.draw_index(self.unmarked_items.len());
            let victim = Self::swap_remove(&mut self.unmarked_items, &mut self.slot, idx);
            clear_bit(&mut self.cached, victim as usize);
            evicted = Some(victim);
        }
        set_bit(&mut self.cached, i);
        set_bit(&mut self.marked, i);
        self.slot[i] = self.marked_items.len() as u32;
        self.marked_items.push(page);
        Access::Fault { evicted }
    }

    fn reset(&mut self) {
        self.marked_items.clear();
        self.unmarked_items.clear();
        self.cached.fill(0);
        self.marked.fill(0);
        self.phases = 0;
    }

    fn cached_pages(&self) -> Vec<PageId> {
        self.marked_items
            .iter()
            .chain(self.unmarked_items.iter())
            .copied()
            .collect()
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        let i = page as usize;
        if i >= self.num_pages || !bit(&self.cached, i) {
            return false;
        }
        let idx = self.slot[i] as usize;
        if bit(&self.marked, i) {
            Self::swap_remove(&mut self.marked_items, &mut self.slot, idx);
            clear_bit(&mut self.marked, i);
        } else {
            Self::swap_remove(&mut self.unmarked_items, &mut self.slot, idx);
        }
        clear_bit(&mut self.cached, i);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Marking;
    use rand::RngExt;

    /// The hard contract: DenseMarking replays Marking access for access —
    /// same hits, same faults, same victims, same phase count — because
    /// both consume the same seeded draws over identically-ordered dense
    /// storage. This is what lets R-BMA swap layouts without changing any
    /// simulated cost.
    #[test]
    fn replays_marking_access_for_access() {
        for seed in [0u64, 1, 9, 0xFEED] {
            for (capacity, universe) in [(2usize, 5usize), (4, 16), (8, 64), (3, 100)] {
                let mut reference = Marking::new(capacity, seed);
                let mut dense = DenseMarking::new(capacity, universe, seed);
                let mut walk = SmallRng::seed_from_u64(seed ^ 0xA5A5);
                for step in 0..5_000u32 {
                    let page = walk.random_range(0..universe as u64);
                    let expected = reference.access(page);
                    let got = dense.access(page);
                    assert_eq!(got, expected, "divergence at step {step} (seed {seed})");
                    assert_eq!(dense.len(), reference.len());
                    assert_eq!(dense.is_marked(page), reference.is_marked(page));
                }
                assert_eq!(dense.phase_transitions(), reference.phase_transitions());
                let mut a = dense.cached_pages();
                let mut b = reference.cached_pages();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn probe_and_mark_hit_match_access_on_cached_pages() {
        // Mixing the hoisted hit path (probe + mark_cached_hit) with full
        // accesses must leave state and RNG stream identical to always
        // calling access: hits never draw, so streams cannot diverge.
        for seed in [2u64, 11] {
            let universe = 24usize;
            let mut reference = DenseMarking::new(5, universe, seed);
            let mut hoisted = DenseMarking::new(5, universe, seed);
            let mut walk = SmallRng::seed_from_u64(seed ^ 0x5C5C);
            for _ in 0..3_000u32 {
                let page = walk.random_range(0..universe as u64);
                let expected = reference.access(page);
                let (cached, _) = hoisted.probe(page);
                if cached {
                    hoisted.mark_cached_hit(page);
                    assert_eq!(expected, Access::Hit);
                } else {
                    assert_eq!(hoisted.access(page), expected);
                }
                assert_eq!(hoisted.cached_pages(), reference.cached_pages());
            }
        }
    }

    #[test]
    fn invalidate_matches_marking() {
        for seed in [3u64, 7] {
            let universe = 32usize;
            let mut reference = Marking::new(4, seed);
            let mut dense = DenseMarking::new(4, universe, seed);
            let mut walk = SmallRng::seed_from_u64(seed);
            for _ in 0..2_000u32 {
                let page = walk.random_range(0..universe as u64);
                if walk.random_range(0..5u32) == 0 {
                    assert_eq!(dense.invalidate(page), reference.invalidate(page));
                } else {
                    assert_eq!(dense.access(page), reference.access(page));
                }
            }
        }
    }

    #[test]
    fn dense_access_is_alloc_free_shape() {
        // Fill, then fault with eviction: an access reports at most one
        // victim inline.
        let mut m = DenseMarking::new(2, 8, 1);
        assert_eq!(m.access(0), Access::Fault { evicted: None });
        assert_eq!(m.access(1), Access::Fault { evicted: None });
        assert_eq!(m.access(0), Access::Hit);
        match m.access(2) {
            Access::Fault { evicted: Some(v) } => assert!(v < 2),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = DenseMarking::new(2, 8, 0);
        m.access(0);
        m.access(1);
        m.access(2);
        m.reset();
        assert_eq!(m.len(), 0);
        assert_eq!(m.phase_transitions(), 0);
        assert!(!m.contains(2));
        assert!(!m.is_marked(2));
    }

    #[test]
    fn contains_is_bounds_safe() {
        let m = DenseMarking::new(2, 4, 0);
        assert!(!m.contains(9_999), "out-of-universe pages are just absent");
    }
}
