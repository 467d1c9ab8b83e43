//! Driving sequences through policies and measuring fault counts.

use crate::policy::{PageId, PagingPolicy};
use dcn_util::FxHashSet;

/// Fault/hit tally of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Requests that missed (page fetched, cost 1 each).
    pub faults: u64,
    /// Requests served from cache.
    pub hits: u64,
    /// Total pages evicted.
    pub evictions: u64,
}

impl PagingStats {
    /// Total requests processed.
    pub fn requests(&self) -> u64 {
        self.faults + self.hits
    }

    /// Fraction of requests that hit (0 for the empty run).
    pub fn hit_rate(&self) -> f64 {
        let n = self.requests();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Feeds `sequence` through `policy`, tallying faults, and asserting the
/// capacity invariant after every access.
pub fn run_policy<P: PagingPolicy + ?Sized>(policy: &mut P, sequence: &[PageId]) -> PagingStats {
    let mut stats = PagingStats::default();
    for &page in sequence {
        let acc = policy.access(page);
        debug_assert!(
            policy.len() <= policy.capacity(),
            "capacity invariant violated"
        );
        debug_assert!(policy.contains(page), "fetch-on-fault invariant violated");
        if acc.is_fault() {
            stats.faults += 1;
            stats.evictions += acc.evicted().is_some() as u64;
        } else {
            stats.hits += 1;
        }
    }
    stats
}

/// Number of *k-phases* in a sequence: the greedy partition into maximal
/// segments containing at most `k` distinct pages. Any paging algorithm with
/// cache size `k` faults at least once per phase after the first (lower
/// bound device of the marking analysis).
pub fn phase_count(sequence: &[PageId], k: usize) -> usize {
    assert!(k >= 1);
    let mut phases = 0;
    let mut distinct: FxHashSet<PageId> = FxHashSet::default();
    for &p in sequence {
        if distinct.contains(&p) {
            continue;
        }
        if distinct.len() == k {
            phases += 1;
            distinct.clear();
        }
        distinct.insert(p);
    }
    if !distinct.is_empty() {
        phases += 1;
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Lru;
    use crate::marking::Marking;

    #[test]
    fn stats_accumulate() {
        let mut lru = Lru::new(2);
        let stats = run_policy(&mut lru, &[1, 2, 1, 3, 1]);
        // faults: 1,2,3; hits: 1,1.
        assert_eq!(stats.faults, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.requests(), 5);
        assert!((stats.hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(stats.evictions, 1); // only the access to 3 evicted
    }

    #[test]
    fn phases_greedy_partition() {
        // k=2: [1,2] [3,1] [2] -> 3 phases.
        assert_eq!(phase_count(&[1, 2, 1, 3, 1, 2], 2), 3);
        assert_eq!(phase_count(&[], 3), 0);
        assert_eq!(phase_count(&[5, 5, 5], 1), 1);
        assert_eq!(phase_count(&[1, 2, 3], 1), 3);
    }

    #[test]
    fn all_policies_fault_at_least_once_per_phase() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        let seq: Vec<PageId> = (0..500).map(|_| rng.random_range(0..9u64)).collect();
        let k = 4;
        let phases = phase_count(&seq, k) as u64;
        for faults in [
            run_policy(&mut Lru::new(k), &seq).faults,
            run_policy(&mut Marking::new(k, 77), &seq).faults,
        ] {
            assert!(
                faults + 1 >= phases,
                "faults {faults} < phases {phases} - 1"
            );
        }
    }
}
