//! **BMA** — the deterministic online b-matching baseline (Bienkowski,
//! Fuchssteiner, Marcinkowski, Schmid \[11\]; PERFORMANCE 2020), which the
//! paper benchmarks R-BMA against in §3.
//!
//! Reconstruction (the reproduced paper states the algorithm's properties —
//! deterministic, Θ(b)-competitive, rent-or-buy — but not its pseudocode;
//! DESIGN.md documents this substitution): a per-pair counter accumulates
//! the routing cost paid on the fixed network. When a pair's counter
//! reaches the reconfiguration cost α, the pair has "paid for" an optical
//! link and is bought into the matching; if an endpoint is at capacity the
//! incident matching edge with the oldest last use is evicted
//! deterministically. Counters reset on insertion and eviction. Any
//! deterministic rent-or-buy scheme of this shape is O(b)-competitive and
//! Ω(b) on the §2.4 star nemesis, which is the property the comparison
//! exercises.
//!
//! Implementation note (execution time, Figs. 1b–4b): evicting the
//! least-recently-used *incident* edge deterministically requires a
//! per-node recency index, so every request to a matched pair updates the
//! indexes at both endpoints, where R-BMA's ordinary request bumps one
//! counter. How the two compare per request also depends on how often
//! each reconfigures, which the trace decides; the panel (b) artifacts say
//! which serves faster. The upkeep itself is O(1): the recency index is
//! one last-touch stamp per slot of the matching's fixed-stride adjacency
//! ([`dcn_matching::recency::LruBMatching`] — a hit is one load of the
//! matching's position index plus two stamp stores, and an eviction the
//! minimum over the full rack's `b` stamps), and the rent counters are a
//! [`PairTable`], so a miss is one load plus an add. The algorithm is
//! generic over both stores ([`BmaWith`]); [`BmaBTree`] instantiates it over
//! the historical per-rack `BTreeMap` recency and hashed counters as the
//! equivalence oracle. The two share only [`BMatching`], position index
//! included; the oracle decides hits and removals from its own recency
//! map, so a stale index entry still shows as a divergence — same victims,
//! same reports, pinned by tests (`batch_equivalence.rs` and
//! `bma_oracle.rs`).

use crate::scheduler::{BatchOutcome, OnlineScheduler, ServeOutcome};
use dcn_matching::{BMatching, BTreeRecencyMatching, LruBMatching, RecencyMatching};
use dcn_telemetry::{Counter, Telemetry};
use dcn_topology::{DistanceMatrix, NodeId, Pair, PairTable};
use dcn_util::FxHashMap;
use std::sync::Arc;

/// Per-pair rent counters: the fixed-network cost each unmatched pair has
/// accumulated toward the buy threshold.
pub trait RentCounters {
    /// Empty counters over `n` racks.
    fn new(n: usize) -> Self;

    /// Adds `cost` to `pair`'s counter and returns the new total.
    fn add(&mut self, pair: Pair, cost: u64) -> u64;

    /// Resets `pair`'s counter to zero.
    fn reset(&mut self, pair: Pair);
}

impl RentCounters for PairTable<u64> {
    fn new(n: usize) -> Self {
        PairTable::new(n)
    }

    #[inline]
    fn add(&mut self, pair: Pair, cost: u64) -> u64 {
        let counter = self.get_mut(pair);
        *counter += cost;
        *counter
    }

    #[inline]
    fn reset(&mut self, pair: Pair) {
        self.set(pair, 0);
    }
}

impl RentCounters for FxHashMap<Pair, u64> {
    fn new(_n: usize) -> Self {
        FxHashMap::default()
    }

    fn add(&mut self, pair: Pair, cost: u64) -> u64 {
        let counter = self.entry(pair).or_insert(0);
        *counter += cost;
        *counter
    }

    fn reset(&mut self, pair: Pair) {
        self.remove(&pair);
    }
}

/// Deterministic rent-or-buy online b-matching over a pluggable recency
/// index and counter store. Use [`Bma`] in production; [`BmaBTree`] is the
/// reference oracle.
pub struct BmaWith<M: RecencyMatching, C: RentCounters> {
    dm: Arc<DistanceMatrix>,
    alpha: u64,
    /// Accumulated fixed-network cost per unmatched pair.
    counters: C,
    /// Matching + per-endpoint recency (LRU victim selection).
    index: M,
    /// Local event recorders, drained by `telemetry_flush` (hits are bulk
    /// adds at loop ends; only buy/evict events pay a per-event bump —
    /// both off the per-request fast path).
    stats: BmaStats,
}

/// BMA's telemetry recorders.
#[derive(Default)]
struct BmaStats {
    /// Requests that arrived on a matching edge.
    hits: Counter,
    /// Rent-or-buy threshold crossings (edge insertions).
    buys: Counter,
    /// Deterministic LRU evictions.
    evictions: Counter,
}

/// BMA over the flat last-touch stamps and pair-table counters — the
/// production instantiation.
pub type Bma = BmaWith<LruBMatching, PairTable<u64>>;

/// BMA over the historical per-rack `BTreeMap` recency and `FxHashMap`
/// counters — the reference oracle the flat instantiation is required to
/// match decision for decision (same victims, byte-identical seeded
/// `RunReport`s). Reports under the same `"BMA"` name so reports compare
/// equal field by field.
pub type BmaBTree = BmaWith<BTreeRecencyMatching, FxHashMap<Pair, u64>>;

impl<M: RecencyMatching, C: RentCounters> BmaWith<M, C> {
    /// Creates BMA with degree cap `b` and reconfiguration cost `alpha`.
    pub fn new(dm: Arc<DistanceMatrix>, b: usize, alpha: u64) -> Self {
        assert!(alpha >= 1, "alpha must be at least 1");
        let n = dm.num_racks();
        Self {
            dm,
            alpha,
            counters: C::new(n),
            index: M::new(n, b),
            stats: BmaStats::default(),
        }
    }

    /// The rent-or-buy miss path: pay `ℓ_e`, accumulate, buy at α.
    /// Returns `(added, removed)`.
    #[inline]
    fn serve_miss(&mut self, pair: Pair, ell: u64) -> (u32, u32) {
        if self.counters.add(pair, ell) < self.alpha {
            return (0, 0);
        }
        self.counters.reset(pair);
        self.stats.buys.bump();

        // Buy the edge; make room deterministically.
        let mut removed = 0;
        for node in [pair.lo(), pair.hi()] {
            if self.index.matching().degree(node) >= self.index.matching().cap() {
                self.evict_lru_at(node);
                removed += 1;
            }
        }
        self.index.insert_mru(pair);
        (1, removed)
    }

    /// Evicts the least-recently-used matching edge at `node`.
    fn evict_lru_at(&mut self, node: NodeId) {
        let victim = self
            .index
            .lru_edge(node)
            .expect("eviction requested at a node with no matching edges");
        self.index.remove(victim);
        self.counters.reset(victim);
        self.stats.evictions.bump();
    }
}

impl<M: RecencyMatching, C: RentCounters> OnlineScheduler for BmaWith<M, C> {
    fn name(&self) -> &str {
        "BMA"
    }

    fn cap(&self) -> usize {
        self.index.matching().cap()
    }

    fn serve(&mut self, pair: Pair) -> ServeOutcome {
        // The membership check and the recency refresh are one fused
        // operation (on the flat index, the membership probe already
        // locates the two stamp slots).
        if self.index.touch_hit(pair) {
            self.stats.hits.bump();
            return ServeOutcome {
                was_matched: true,
                added: 0,
                removed: 0,
            };
        }
        // Pay ℓ_e on the fixed network; accumulate toward the buy threshold.
        let ell = self.dm.ell(pair) as u64;
        let (added, removed) = self.serve_miss(pair, ell);
        ServeOutcome {
            was_matched: false,
            added,
            removed,
        }
    }

    /// Batched serve, one fused loop: hits stay on the immediate
    /// recency-upkeep path — two stamp stores per hit — while batching
    /// shrinks the dispatch/accounting overhead around it. Routing is
    /// charged from the simulator's `dm`, renting from the scheduler's own
    /// (the same matrix in every sweep, so the second read hits the
    /// just-warmed line).
    fn serve_batch(&mut self, batch: &[Pair], dm: &DistanceMatrix, acc: &mut BatchOutcome) {
        let mut matched = 0u64;
        let mut routing = 0u64;
        for &pair in batch {
            if self.index.touch_hit(pair) {
                matched += 1;
                routing += 1;
            } else {
                let ell = dm.ell(pair) as u64;
                routing += ell;
                let (added, removed) = self.serve_miss(pair, self.dm.ell(pair) as u64);
                acc.added += added as u64;
                acc.removed += removed as u64;
            }
        }
        self.stats.hits.add(matched);
        acc.matched += matched;
        acc.routing_cost += routing;
    }

    fn matching(&self) -> &BMatching {
        self.index.matching()
    }

    fn telemetry_flush(&mut self, sink: &Telemetry) {
        sink.add_counter("bma.hits", self.stats.hits.take());
        sink.add_counter("bma.buys", self.stats.buys.take());
        sink.add_counter("bma.evictions", self.stats.evictions.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Arc<DistanceMatrix> {
        Arc::new(DistanceMatrix::uniform(n))
    }

    #[test]
    fn buys_after_alpha_worth_of_cost() {
        // Uniform distances (ℓ = 1), α = 3: third miss triggers the buy.
        let mut bma = Bma::new(uniform(4), 1, 3);
        let p = Pair::new(0, 1);
        assert_eq!(bma.serve(p).added, 0);
        assert_eq!(bma.serve(p).added, 0);
        let out = bma.serve(p);
        assert_eq!(out.added, 1);
        assert!(!out.was_matched, "the buying request itself still paid ℓ");
        assert!(bma.serve(p).was_matched);
    }

    #[test]
    fn longer_paths_buy_faster() {
        // ℓ = 4, α = 8: two misses suffice (2·4 ≥ 8).
        let net = dcn_topology::builders::fat_tree(4);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let cross_pod = Pair::new(0, 7);
        assert_eq!(dm.ell(cross_pod), 4);
        let mut bma = Bma::new(dm, 1, 8);
        assert_eq!(bma.serve(cross_pod).added, 0);
        assert_eq!(bma.serve(cross_pod).added, 1);
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let mut bma = Bma::new(uniform(5), 1, 1);
        // α=1: every first miss buys. Edge {0,1}, then {0,2} evicts {0,1}.
        assert_eq!(bma.serve(Pair::new(0, 1)).added, 1);
        let out = bma.serve(Pair::new(0, 2));
        assert_eq!((out.added, out.removed), (1, 1));
        assert!(bma.matching().contains(Pair::new(0, 2)));
        assert!(!bma.matching().contains(Pair::new(0, 1)));
    }

    #[test]
    fn recency_protects_hot_edges() {
        let mut bma = Bma::new(uniform(6), 2, 1);
        bma.serve(Pair::new(0, 1));
        bma.serve(Pair::new(0, 2));
        // Refresh {0,1} via a hit, then insert {0,3}: LRU victim is {0,2}.
        bma.serve(Pair::new(0, 1));
        bma.serve(Pair::new(0, 3));
        assert!(bma.matching().contains(Pair::new(0, 1)));
        assert!(!bma.matching().contains(Pair::new(0, 2)));
        assert!(bma.matching().contains(Pair::new(0, 3)));
    }

    #[test]
    fn degree_bound_holds_under_stress() {
        let n = 10;
        let b = 3;
        let mut bma = Bma::new(uniform(n), b, 2);
        for i in 0..5000u32 {
            let a = i % n as u32;
            let c = (i.wrapping_mul(2654435761) % (n as u32 - 1) + a + 1) % n as u32;
            if a == c {
                continue;
            }
            bma.serve(Pair::new(a, c));
        }
        bma.matching().assert_valid();
        bma.index.assert_valid();
    }

    #[test]
    fn counter_resets_on_eviction() {
        let mut bma = Bma::new(uniform(4), 1, 2);
        let p01 = Pair::new(0, 1);
        let p02 = Pair::new(0, 2);
        // Buy {0,1} (2 misses), then buy {0,2} (2 misses) evicting {0,1}.
        bma.serve(p01);
        bma.serve(p01);
        bma.serve(p02);
        bma.serve(p02);
        assert!(bma.matching().contains(p02));
        // {0,1} must need the full 2 misses again.
        assert_eq!(bma.serve(p01).added, 0);
        assert_eq!(bma.serve(p01).added, 1);
    }

    /// Drives both instantiations in lock step and requires identical
    /// outcomes, matchings, and recency orders at every step — the
    /// decision-for-decision equivalence the flattening must preserve.
    fn assert_lockstep_equivalent(requests: &[Pair], n: usize, b: usize, alpha: u64) {
        let dm = uniform(n);
        let mut flat = Bma::new(dm.clone(), b, alpha);
        let mut tree = BmaBTree::new(dm, b, alpha);
        for (i, &r) in requests.iter().enumerate() {
            let a = flat.serve(r);
            let c = tree.serve(r);
            assert_eq!(a, c, "outcome diverged at request {i} ({r})");
            for v in 0..n as NodeId {
                assert_eq!(
                    flat.index.recency_order(v),
                    tree.index.recency_order(v),
                    "recency order diverged at request {i}, rack {v}"
                );
            }
        }
        assert_eq!(flat.matching().len(), tree.matching().len());
        flat.index.assert_valid();
    }

    #[test]
    fn flat_and_btree_instantiations_are_decision_identical() {
        let n = 12u32;
        let requests: Vec<Pair> = (0..6000u32)
            .filter_map(|i| {
                let a = i % n;
                let c = (a + 1 + i.wrapping_mul(40503) % (n - 1)) % n;
                (a != c).then(|| Pair::new(a, c))
            })
            .collect();
        assert_lockstep_equivalent(&requests, n as usize, 2, 3);
        assert_lockstep_equivalent(&requests, n as usize, 4, 1);
    }

    #[test]
    fn flat_and_btree_reports_are_identical_across_batch_sizes() {
        // End-to-end: the full simulator pipeline must produce the same
        // report from both instantiations, batched and unbatched.
        use crate::simulator::{run, SimConfig};
        use dcn_traces::RequestSource;
        let net = dcn_topology::builders::fat_tree_with_racks(20);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let mut source = dcn_traces::zipf_pair_source(20, 8_000, 1.2, 3);
        let trace = source.materialize();
        let base = SimConfig {
            checkpoints: vec![1_000, 4_321, 8_000],
            ..Default::default()
        };
        for batch_size in [1usize, 7, 1024] {
            let config = base.clone().with_batch_size(batch_size);
            let mut flat = Bma::new(dm.clone(), 4, 10);
            let a = run(&mut flat, &dm, 10, &trace.requests, &config);
            let mut tree = BmaBTree::new(dm.clone(), 4, 10);
            let b = run(&mut tree, &dm, 10, &trace.requests, &config);
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(a.total.routing_cost, b.total.routing_cost);
            assert_eq!(a.total.reconfigurations, b.total.reconfigurations);
            assert_eq!(a.total.matched_requests, b.total.matched_requests);
            assert_eq!(a.checkpoints.len(), b.checkpoints.len());
            for (x, y) in a.checkpoints.iter().zip(&b.checkpoints) {
                assert_eq!(x.requests, y.requests);
                assert_eq!(x.routing_cost, y.routing_cost);
                assert_eq!(x.reconfig_cost, y.reconfig_cost);
                assert_eq!(x.matched_requests, y.matched_requests);
            }
        }
    }

    #[test]
    fn recency_indexes_stay_consistent() {
        let n = 12;
        let mut bma = Bma::new(uniform(n), 2, 1);
        for i in 0..4000u32 {
            let a = i % n as u32;
            let c = (a + 1 + i.wrapping_mul(40503) % (n as u32 - 1)) % n as u32;
            if a == c {
                continue;
            }
            bma.serve(Pair::new(a, c));
        }
        // Every matched edge appears in both endpoints' recency orders, and
        // the stamps are internally consistent.
        bma.index.assert_valid();
        let mut listed = 0;
        for v in 0..n as NodeId {
            for pair in bma.index.recency_order(v) {
                assert!(bma.matching().contains(pair));
                listed += 1;
            }
        }
        assert_eq!(listed, 2 * bma.matching().len());
    }
}
