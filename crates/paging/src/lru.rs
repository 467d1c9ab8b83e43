//! Least-recently-used eviction — the classic `k`-competitive deterministic
//! policy (Sleator–Tarjan \[70\]).

use crate::policy::{Access, PageId, PagingPolicy};
use dcn_util::FxHashMap;
use std::collections::BTreeMap;

/// LRU cache: evicts the page whose last access is oldest.
///
/// Implemented as a monotone timestamp per page plus an ordered index from
/// timestamp to page; all operations are O(log b).
#[derive(Clone, Debug)]
pub struct Lru {
    capacity: usize,
    stamp_of: FxHashMap<PageId, u64>,
    by_stamp: BTreeMap<u64, PageId>,
    clock: u64,
}

impl Lru {
    /// Creates an empty LRU cache.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        Self {
            capacity,
            stamp_of: FxHashMap::default(),
            by_stamp: BTreeMap::new(),
            clock: 0,
        }
    }

    fn touch(&mut self, page: PageId) {
        self.clock += 1;
        if let Some(old) = self.stamp_of.insert(page, self.clock) {
            self.by_stamp.remove(&old);
        }
        self.by_stamp.insert(self.clock, page);
    }
}

impl PagingPolicy for Lru {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.stamp_of.len()
    }

    fn contains(&self, page: PageId) -> bool {
        self.stamp_of.contains_key(&page)
    }

    fn access(&mut self, page: PageId) -> Access {
        if self.contains(page) {
            self.touch(page);
            return Access::Hit;
        }
        let mut evicted = None;
        if self.len() == self.capacity {
            let (&oldest, &victim) = self.by_stamp.iter().next().expect("cache is full");
            self.by_stamp.remove(&oldest);
            self.stamp_of.remove(&victim);
            evicted = Some(victim);
        }
        self.touch(page);
        Access::Fault { evicted }
    }

    fn reset(&mut self) {
        self.stamp_of.clear();
        self.by_stamp.clear();
        self.clock = 0;
    }

    fn cached_pages(&self) -> Vec<PageId> {
        self.stamp_of.keys().copied().collect()
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        match self.stamp_of.remove(&page) {
            Some(stamp) => {
                self.by_stamp.remove(&stamp);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recent() {
        let mut lru = Lru::new(2);
        lru.access(1);
        lru.access(2);
        lru.access(1); // 2 is now least recent
        let acc = lru.access(3);
        assert_eq!(acc.evicted(), Some(2));
        assert!(lru.contains(1) && lru.contains(3));
    }

    #[test]
    fn cyclic_scan_thrashes() {
        // Universe of capacity+1 pages accessed cyclically: LRU faults on
        // every access after warmup — its textbook worst case.
        let mut lru = Lru::new(3);
        let mut faults = 0;
        for i in 0..40u64 {
            if lru.access(i % 4).is_fault() {
                faults += 1;
            }
        }
        assert_eq!(faults, 40);
    }

    #[test]
    fn repeated_hits() {
        let mut lru = Lru::new(2);
        lru.access(7);
        for _ in 0..10 {
            assert_eq!(lru.access(7), Access::Hit);
        }
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn invalidate_then_reuse() {
        let mut lru = Lru::new(2);
        lru.access(1);
        lru.access(2);
        assert!(lru.invalidate(1));
        let acc = lru.access(3);
        assert_eq!(acc, Access::Fault { evicted: None });
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn reset_empties() {
        let mut lru = Lru::new(2);
        lru.access(1);
        lru.reset();
        assert_eq!(lru.len(), 0);
        assert!(!lru.contains(1));
    }
}
