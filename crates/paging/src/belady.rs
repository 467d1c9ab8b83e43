//! Belady's offline optimum (farthest-in-future eviction).
//!
//! Given the whole request sequence in advance, evicting the cached page
//! whose next use lies farthest in the future minimizes the number of
//! faults in the fetch-on-fault model. This is `Opt` in the empirical
//! competitive-ratio experiments: the denominator of every ratio.

use crate::policy::{Access, PageId, PagingPolicy};
use dcn_util::FxHashMap;
use std::collections::BTreeSet;

const NEVER: u64 = u64::MAX;

/// Offline optimal paging for a fixed sequence.
///
/// Construct with the full sequence, then call [`PagingPolicy::access`] with
/// exactly that sequence, in order. Accessing out of order panics.
#[derive(Clone, Debug)]
pub struct Belady {
    capacity: usize,
    seq: Vec<PageId>,
    /// next[i] = next position after i at which seq[i] is requested.
    next: Vec<u64>,
    pos: usize,
    /// cached page -> its current next-use key in `order`.
    cached: FxHashMap<PageId, u64>,
    /// ordered (next_use, page); the max element is the eviction victim.
    order: BTreeSet<(u64, PageId)>,
}

impl Belady {
    /// Precomputes next-use indices for `sequence`.
    pub fn new(capacity: usize, sequence: &[PageId]) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        let mut next = vec![NEVER; sequence.len()];
        let mut last_seen: FxHashMap<PageId, usize> = FxHashMap::default();
        for (i, &p) in sequence.iter().enumerate().rev() {
            if let Some(&j) = last_seen.get(&p) {
                next[i] = j as u64;
            }
            last_seen.insert(p, i);
        }
        Self {
            capacity,
            seq: sequence.to_vec(),
            next,
            pos: 0,
            cached: FxHashMap::default(),
            order: BTreeSet::new(),
        }
    }

    /// Runs the whole sequence, returning the total number of faults.
    pub fn total_faults(capacity: usize, sequence: &[PageId]) -> u64 {
        let mut b = Self::new(capacity, sequence);
        sequence
            .iter()
            .map(|&p| u64::from(b.access(p).is_fault()))
            .sum()
    }

    /// Position of the next expected request.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl PagingPolicy for Belady {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.cached.len()
    }

    fn contains(&self, page: PageId) -> bool {
        self.cached.contains_key(&page)
    }

    fn access(&mut self, page: PageId) -> Access {
        assert!(
            self.pos < self.seq.len(),
            "accessed past the end of the fixed sequence"
        );
        assert_eq!(
            self.seq[self.pos], page,
            "access out of order at position {}",
            self.pos
        );
        let next_use = self.next[self.pos];
        self.pos += 1;

        if let Some(&old_key) = self.cached.get(&page) {
            self.order.remove(&(old_key, page));
            self.cached.insert(page, next_use);
            self.order.insert((next_use, page));
            return Access::Hit;
        }
        let mut evicted = None;
        if self.cached.len() == self.capacity {
            let &(key, victim) = self.order.iter().next_back().expect("cache is full");
            self.order.remove(&(key, victim));
            self.cached.remove(&victim);
            evicted = Some(victim);
        }
        self.cached.insert(page, next_use);
        self.order.insert((next_use, page));
        Access::Fault { evicted }
    }

    fn reset(&mut self) {
        self.pos = 0;
        self.cached.clear();
        self.order.clear();
    }

    fn cached_pages(&self) -> Vec<PageId> {
        self.cached.keys().copied().collect()
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        match self.cached.remove(&page) {
            Some(key) => {
                self.order.remove(&(key, page));
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Lru;
    use crate::sim::run_policy;

    #[test]
    fn textbook_example() {
        // Classic example: OPT on 0 1 2 0 1 3 0 1 with k=3 faults 4 times:
        // 0,1,2 cold; 3 evicts 2 (farthest); 0,1 hits.
        let seq = [0, 1, 2, 0, 1, 3, 0, 1];
        assert_eq!(Belady::total_faults(3, &seq), 4);
    }

    #[test]
    fn never_worse_than_lru_on_random_sequences() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for trial in 0..30 {
            let universe = 2 + (trial % 7);
            let seq: Vec<PageId> = (0..300).map(|_| rng.random_range(0..universe)).collect();
            for cap in 1..=4usize {
                let opt = Belady::total_faults(cap, &seq);
                let lru = run_policy(&mut Lru::new(cap), &seq).faults;
                assert!(
                    opt <= lru,
                    "OPT {opt} > LRU {lru} (cap {cap}, trial {trial})"
                );
            }
        }
    }

    /// Exhaustive optimal fault count via DP over cache states (tiny inputs).
    fn brute_force_opt(capacity: usize, seq: &[PageId]) -> u64 {
        use std::collections::HashMap;
        // State: sorted cache contents. Value: min faults so far.
        let mut states: HashMap<Vec<PageId>, u64> = HashMap::new();
        states.insert(Vec::new(), 0);
        for &p in seq {
            let mut nxt: HashMap<Vec<PageId>, u64> = HashMap::new();
            let consider = |cache: Vec<PageId>, cost: u64, nxt: &mut HashMap<Vec<PageId>, u64>| {
                let entry = nxt.entry(cache).or_insert(u64::MAX);
                *entry = (*entry).min(cost);
            };
            for (cache, &cost) in &states {
                if cache.contains(&p) {
                    consider(cache.clone(), cost, &mut nxt);
                } else if cache.len() < capacity {
                    let mut c = cache.clone();
                    c.push(p);
                    c.sort_unstable();
                    consider(c, cost + 1, &mut nxt);
                } else {
                    for out in 0..cache.len() {
                        let mut c = cache.clone();
                        c[out] = p;
                        c.sort_unstable();
                        consider(c, cost + 1, &mut nxt);
                    }
                }
            }
            states = nxt;
        }
        states.values().copied().min().unwrap()
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4242);
        for _ in 0..40 {
            let seq: Vec<PageId> = (0..12).map(|_| rng.random_range(0..5u64)).collect();
            for cap in 1..=3usize {
                assert_eq!(
                    Belady::total_faults(cap, &seq),
                    brute_force_opt(cap, &seq),
                    "cap {cap}, seq {seq:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_out_of_order_access() {
        let mut b = Belady::new(2, &[1, 2, 3]);
        b.access(2);
    }

    #[test]
    fn reset_allows_replay() {
        let seq = [0u64, 1, 2, 0, 1, 3];
        let mut b = Belady::new(2, &seq);
        let first: Vec<bool> = seq.iter().map(|&p| b.access(p).is_fault()).collect();
        b.reset();
        let second: Vec<bool> = seq.iter().map(|&p| b.access(p).is_fault()).collect();
        assert_eq!(first, second);
    }
}
