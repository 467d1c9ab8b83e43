//! Periodic offline rebuild — the production strawman between fully online
//! (R-BMA/BMA) and fully offline (SO-BMA): every `period` requests,
//! recompute a heavy b-matching from the recent demand window and swap it
//! in wholesale, paying α per changed edge.
//!
//! This is the "coarse-granular, traffic-matrix-driven" reconfiguration
//! style of systems like Proteus/OSA (§4 of the paper classifies these
//! against fine-granular per-request schedulers); comparing it against
//! R-BMA quantifies what per-request adaptivity buys.
//!
//! Substrate note: the flat last-touch stamps that back BMA's recency
//! ([`dcn_matching::recency::LruBMatching`]) were evaluated here and not
//! adopted — this scheduler keeps a demand *count* window (`window`) and
//! never asks which edge is least recently used, so a recency overlay
//! would be dead weight on its hot path. Its per-request membership probe and
//! its rebuild's removals are one load of [`BMatching`]'s position index
//! each, with no block scan.

use crate::scheduler::{OnlineScheduler, ServeOutcome};
use dcn_matching::{greedy_b_matching, BMatching, WeightedEdge};
use dcn_topology::{DistanceMatrix, Pair};
use dcn_util::FxHashMap;
use std::sync::Arc;

/// Scheduler that rebuilds a greedy heavy b-matching every `period`
/// requests from a sliding demand window.
pub struct PeriodicRebuild {
    dm: Arc<DistanceMatrix>,
    period: u64,
    /// Demand counts of the current window.
    window: FxHashMap<Pair, i64>,
    clock: u64,
    matching: BMatching,
}

impl PeriodicRebuild {
    /// Creates the scheduler; the first rebuild happens after `period`
    /// requests.
    pub fn new(dm: Arc<DistanceMatrix>, b: usize, period: u64) -> Self {
        assert!(period >= 1);
        let n = dm.num_racks();
        Self {
            dm,
            period,
            window: FxHashMap::default(),
            clock: 0,
            matching: BMatching::new(n, b),
        }
    }

    fn rebuild(&mut self) -> (u32, u32) {
        let edges: Vec<WeightedEdge> = self
            .window
            .iter()
            .filter_map(|(&pair, &cnt)| {
                let saving = (self.dm.ell(pair) as i64 - 1) * cnt;
                (saving > 0).then(|| WeightedEdge::new(pair.lo(), pair.hi(), saving))
            })
            .collect();
        let target = greedy_b_matching(self.dm.num_racks(), &edges, self.matching.cap());
        let target_set: std::collections::HashSet<Pair> = target.iter().copied().collect();

        let mut removed = 0;
        let stale: Vec<Pair> = self
            .matching
            .edges()
            .filter(|e| !target_set.contains(e))
            .collect();
        for e in stale {
            self.matching.remove(e);
            removed += 1;
        }
        let mut added = 0;
        for e in target {
            if self.matching.try_insert(e) {
                added += 1;
            }
        }
        self.window.clear();
        (added, removed)
    }
}

impl OnlineScheduler for PeriodicRebuild {
    fn name(&self) -> &str {
        "Periodic"
    }

    fn cap(&self) -> usize {
        self.matching.cap()
    }

    fn serve(&mut self, pair: Pair) -> ServeOutcome {
        let was_matched = self.matching.contains(pair);
        *self.window.entry(pair).or_insert(0) += 1;
        self.clock += 1;
        let (added, removed) = if self.clock.is_multiple_of(self.period) {
            self.rebuild()
        } else {
            (0, 0)
        };
        ServeOutcome {
            was_matched,
            added,
            removed,
        }
    }

    fn matching(&self) -> &BMatching {
        &self.matching
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_spine_dm(n: usize) -> Arc<DistanceMatrix> {
        let net = dcn_topology::builders::leaf_spine(n, 2);
        Arc::new(DistanceMatrix::between_racks(&net))
    }

    #[test]
    fn no_matching_before_first_rebuild() {
        let mut p = PeriodicRebuild::new(leaf_spine_dm(6), 2, 100);
        for _ in 0..99 {
            let o = p.serve(Pair::new(0, 1));
            assert!(!o.was_matched);
            assert_eq!(o.added, 0);
        }
        let o = p.serve(Pair::new(0, 1));
        assert_eq!(o.added, 1, "rebuild at request 100 adopts the hot pair");
        assert!(p.serve(Pair::new(0, 1)).was_matched);
    }

    #[test]
    fn rebuild_swaps_to_new_hot_pairs() {
        let mut p = PeriodicRebuild::new(leaf_spine_dm(6), 1, 50);
        for _ in 0..50 {
            p.serve(Pair::new(0, 1));
        }
        assert!(p.matching().contains(Pair::new(0, 1)));
        // New window dominated by {0, 2}: next rebuild must swap.
        let mut removed_total = 0;
        for _ in 0..50 {
            let o = p.serve(Pair::new(0, 2));
            removed_total += o.removed;
        }
        assert!(p.matching().contains(Pair::new(0, 2)));
        assert!(!p.matching().contains(Pair::new(0, 1)));
        assert_eq!(removed_total, 1);
    }

    #[test]
    fn respects_degree_cap() {
        let n = 10;
        let mut p = PeriodicRebuild::new(leaf_spine_dm(n), 2, 25);
        for i in 0..2000u32 {
            let a = i % n as u32;
            let b = (a + 1 + i.wrapping_mul(2654435761) % (n as u32 - 1)) % n as u32;
            if a != b {
                p.serve(Pair::new(a, b));
            }
            p.matching().assert_valid();
        }
    }

    #[test]
    fn stable_demand_stops_reconfiguring() {
        let mut p = PeriodicRebuild::new(leaf_spine_dm(6), 1, 30);
        let mut changes_late = 0;
        for i in 0..300u32 {
            let o = p.serve(Pair::new(0, 1));
            if i >= 60 {
                changes_late += o.added + o.removed;
            }
        }
        assert_eq!(
            changes_late, 0,
            "identical windows must not churn the matching"
        );
    }
}
