//! The randomized **marking** algorithm (Fiat et al. \[28\]; Young \[75\]).
//!
//! Pages are *marked* or *unmarked*. A request to a cached page marks it. On
//! a fault with a full cache, if every cached page is marked a new *phase*
//! begins (all marks are cleared); then a **uniformly random unmarked** page
//! is evicted, and the requested page is fetched and marked.
//!
//! Competitive ratio: `2·H_k` against an equal-size offline optimum, and
//! `2·ln(b/(b−a+1)) + O(1)` in the resource-augmented (b,a) setting — the
//! bound Corollary 3 of the paper plugs into the matching reduction. The
//! algorithm itself is identical in both settings; the `a` only appears in
//! the analysis.
//!
//! Every operation is O(1) expected time thanks to [`IndexedSet`]'s O(1)
//! uniform sampling.

use crate::policy::{Access, PageId, PagingPolicy};
use dcn_util::IndexedSet;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Randomized marking paging algorithm.
///
/// ```
/// use dcn_paging::{Marking, PagingPolicy};
///
/// let mut cache = Marking::new(2, 42);
/// assert!(cache.access(1).is_fault()); // cold miss
/// assert!(cache.access(2).is_fault());
/// assert!(!cache.access(1).is_fault()); // hit, page marked
/// let fault = cache.access(3); // full: evicts a random unmarked page
/// assert!(fault.evicted().is_some());
/// assert!(cache.len() <= cache.capacity());
/// ```
#[derive(Clone, Debug)]
pub struct Marking {
    capacity: usize,
    marked: IndexedSet<PageId>,
    unmarked: IndexedSet<PageId>,
    rng: SmallRng,
    phases: u64,
}

impl Marking {
    /// Creates an empty cache of the given capacity with a seeded RNG.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        Self {
            capacity,
            marked: IndexedSet::with_capacity(capacity),
            unmarked: IndexedSet::with_capacity(capacity),
            rng: SmallRng::seed_from_u64(seed),
            phases: 0,
        }
    }

    /// Number of completed phase transitions (diagnostics; the k-phase
    /// structure is the backbone of the marking analysis).
    pub fn phase_transitions(&self) -> u64 {
        self.phases
    }

    /// Whether `page` is currently marked.
    pub fn is_marked(&self, page: PageId) -> bool {
        self.marked.contains(&page)
    }
}

impl PagingPolicy for Marking {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.marked.len() + self.unmarked.len()
    }

    fn contains(&self, page: PageId) -> bool {
        self.marked.contains(&page) || self.unmarked.contains(&page)
    }

    fn access(&mut self, page: PageId) -> Access {
        if self.marked.contains(&page) {
            return Access::Hit;
        }
        if self.unmarked.remove(&page) {
            self.marked.insert(page);
            return Access::Hit;
        }
        // Fault.
        let mut evicted = None;
        if self.len() == self.capacity {
            if self.unmarked.is_empty() {
                // New phase: clear all marks.
                self.phases += 1;
                for p in self.marked.drain_to_vec() {
                    self.unmarked.insert(p);
                }
            }
            let victim = self
                .unmarked
                .sample_remove(&mut self.rng)
                .expect("full cache must have an unmarked page after phase reset");
            evicted = Some(victim);
        }
        self.marked.insert(page);
        Access::Fault { evicted }
    }

    fn reset(&mut self) {
        self.marked.clear();
        self.unmarked.clear();
        self.phases = 0;
    }

    fn cached_pages(&self) -> Vec<PageId> {
        self.marked
            .iter()
            .chain(self.unmarked.iter())
            .copied()
            .collect()
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        self.marked.remove(&page) || self.unmarked.remove(&page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_cache_without_eviction() {
        let mut m = Marking::new(3, 0);
        for p in 0..3 {
            match m.access(p) {
                Access::Fault { evicted } => assert_eq!(evicted, None),
                Access::Hit => panic!("unexpected hit"),
            }
        }
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn hits_after_fill() {
        let mut m = Marking::new(3, 0);
        for p in 0..3 {
            m.access(p);
        }
        for p in 0..3 {
            assert_eq!(m.access(p), Access::Hit);
        }
    }

    #[test]
    fn evicts_exactly_one_when_full() {
        let mut m = Marking::new(2, 1);
        m.access(0);
        m.access(1);
        let acc = m.access(2);
        assert!(acc.is_fault());
        assert!(acc.evicted().is_some());
        assert_eq!(m.len(), 2);
        assert!(m.contains(2));
    }

    #[test]
    fn never_evicts_marked_pages_within_phase() {
        // Capacity 3; access 0,1 (marked), then a run of new pages. Page 0
        // and 1 were marked in the current phase; the first eviction of the
        // phase must take the only unmarked page.
        let mut m = Marking::new(3, 7);
        m.access(0);
        m.access(1);
        m.access(2);
        m.access(0); // re-mark (hit)
        m.access(1); // re-mark (hit)
                     // All three are marked now (2 marked at fetch). Fault on 3 starts a
                     // new phase; any of 0,1,2 may go. But *within* the new phase, 3 is
                     // marked, so the next fault cannot evict 3.
        let first = m.access(3);
        assert!(first.is_fault());
        let second = m.access(4);
        assert!(second.is_fault());
        assert!(
            second.evicted() != Some(3),
            "marked page 3 evicted within phase"
        );
        assert!(m.contains(3) && m.contains(4));
    }

    #[test]
    fn phase_counting() {
        let mut m = Marking::new(2, 3);
        m.access(0);
        m.access(1);
        assert_eq!(m.phase_transitions(), 0);
        m.access(2); // all marked -> new phase
        assert_eq!(m.phase_transitions(), 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut m = Marking::new(4, seed);
            let mut faults = 0;
            let mut trace = Vec::new();
            for i in 0..2000u64 {
                let p = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 9;
                let acc = m.access(p);
                if acc.is_fault() {
                    faults += 1;
                }
                trace.extend(acc.evicted());
            }
            (faults, trace)
        };
        assert_eq!(run(5), run(5));
        // Different seeds will (with overwhelming probability) evict differently.
        assert_ne!(run(5).1, run(6).1);
    }

    #[test]
    fn invalidate_removes_any_state() {
        let mut m = Marking::new(2, 0);
        m.access(0);
        m.access(1);
        assert!(m.invalidate(0));
        assert!(!m.contains(0));
        assert_eq!(m.len(), 1);
        assert!(!m.invalidate(0));
        // Cache has room again: next fault must not evict.
        let acc = m.access(9);
        assert_eq!(acc, Access::Fault { evicted: None });
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Marking::new(2, 0);
        m.access(0);
        m.access(1);
        m.access(2);
        m.reset();
        assert_eq!(m.len(), 0);
        assert_eq!(m.phase_transitions(), 0);
        assert!(!m.contains(2));
    }
}
