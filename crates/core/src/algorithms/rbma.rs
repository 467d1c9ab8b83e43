//! **R-BMA** — the paper's randomized online (b,a)-matching algorithm
//! (§2.2, Corollary 3).
//!
//! Composition of the two reductions:
//!
//! 1. **Uniform reduction (Theorem 1).** For each pair `e`, only every
//!    `k_e = ⌈α/ℓ_e⌉`-th request is *special*; only special requests reach
//!    the paging layer. This amortizes the reconfiguration cost α against
//!    the routing cost the algorithm pays on ordinary requests, losing a
//!    factor 4γ = 4(1 + ℓmax/α).
//! 2. **Paging reduction (Theorem 2).** One randomized-marking paging
//!    instance per rack; the cache of rack `u` (capacity `b`) holds the
//!    partner racks of pairs incident to `u`. A special request to
//!    `e = {u, v}` is fed to both endpoint caches; the matching invariant is
//!    `e ∈ M ⇔ v ∈ cache(u) ∧ u ∈ cache(v)`.
//!
//! **Removal modes** (footnote 2 of the paper): under `Strict`, a pair
//! evicted from either endpoint cache leaves `M` immediately (the invariant
//! of the analysis). Under `Lazy` — the paper's experimental choice —
//! eviction only *marks* the edge; marked edges are pruned when a node's
//! degree would exceed `b`. Keeping an edge longer can only save routing
//! cost; the degree bound stays intact either way (tested).
//!
//! **Hot-path layout** (the O(1) amortized serve cost §3.2's execution-time
//! figures rest on): the per-rack caches are [`DenseMarking`] — flat
//! index-addressed marking over the rack universe, allocation-free accesses,
//! draw-for-draw identical to the generic `Marking` — and the Theorem-1
//! counters cache `k_e` alongside the count in a [`PairTable`] (a flat
//! pair-indexed array at paper scale), so the common (ordinary-request)
//! path is one load of [`BMatching`]'s position index plus one indexed
//! counter bump, with no division and no hash traffic. The batched entry
//! point ([`OnlineScheduler::serve_batch`]) is that path as one fused loop
//! with inline routing accounting; only special requests drop into the
//! Theorem-2 slow path, and a matched, unmarked special skips even that
//! (both cache touches are known hits). Above [`DENSE_RACK_LIMIT`] racks
//! every [`PairTable`] (the counters, the lazy `marked` set and the
//! matching's index) falls back to hashing, with identical results.
//!
//! [`DENSE_RACK_LIMIT`]: dcn_topology::pair::DENSE_RACK_LIMIT

use crate::scheduler::{BatchOutcome, OnlineScheduler, ServeOutcome};
use dcn_matching::BMatching;
use dcn_paging::{Access, DenseMarking, PagingPolicy};
use dcn_telemetry::{Counter, Telemetry};
use dcn_topology::{DistanceMatrix, NodeId, Pair, PairTable};
use dcn_util::rngx::derive_seed;
use std::sync::Arc;

/// How evictions from the per-node caches translate to matching removals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemovalMode {
    /// Matching = exact intersection of endpoint caches (as analyzed).
    Strict,
    /// Evictions mark edges; marked edges are pruned on demand
    /// (the paper's experimental setting, footnote 2).
    Lazy,
}

/// Per-pair Theorem-1 state: requests seen since the last special request,
/// plus the cached period `k_e = ⌈α/ℓ_e⌉` (constant per pair, so the hot
/// loop never divides). Real periods are ≥ 1, so the all-zero default is
/// the table's "never seen".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct SpecialCounter {
    count: u32,
    k: u32,
}

/// The randomized online b-matching scheduler.
pub struct Rbma {
    dm: Arc<DistanceMatrix>,
    alpha: u64,
    mode: RemovalMode,
    /// Per-pair counter toward the next special request (Theorem 1).
    counters: PairTable<SpecialCounter>,
    /// Per-rack randomized marking caches (Theorem 2). Page ids are the
    /// partner rack ids — a dense universe, hence the flat layout.
    caches: Vec<DenseMarking>,
    matching: BMatching,
    /// Lazy mode: edges marked for removal but still carried in `M`.
    marked: PairTable<bool>,
    /// Local event recorders, drained by `telemetry_flush` (only the
    /// rare slow paths pay a bump; ordinary requests record nothing).
    stats: RbmaStats,
}

/// R-BMA's telemetry recorders (ZSTs under `--cfg dcn_telemetry_off`).
#[derive(Default)]
struct RbmaStats {
    /// Theorem-1 special requests executed (the Theorem-2 slow path).
    specials: Counter,
    /// Specials served by the fast gate (matched, unmarked ⇒ two
    /// mark-only cache hits, no fault/RNG machinery).
    fast_specials: Counter,
    /// Marking-phase resets (summed over the per-rack caches, which count
    /// over their lifetime) already reported by earlier flushes.
    flushed_phases: u64,
}

impl Rbma {
    /// Creates R-BMA with degree cap `b` and reconfiguration cost `alpha`.
    /// Panics unless `1 ≤ alpha ≤ u32::MAX`, the range in which every
    /// special-request period `k_e ≤ α` fits its `u32` counter.
    pub fn new(
        dm: Arc<DistanceMatrix>,
        b: usize,
        alpha: u64,
        mode: RemovalMode,
        seed: u64,
    ) -> Self {
        assert!(alpha >= 1, "alpha must be at least 1");
        assert!(
            alpha <= u32::MAX as u64,
            "alpha = {alpha} exceeds u32::MAX, the largest special-request period R-BMA counts to"
        );
        let n = dm.num_racks();
        let caches = (0..n)
            .map(|v| DenseMarking::new(b, n, derive_seed(seed, v as u64)))
            .collect();
        Self {
            dm,
            alpha,
            mode,
            counters: PairTable::new(n),
            caches,
            matching: BMatching::new(n, b),
            marked: PairTable::new(n),
            stats: RbmaStats::default(),
        }
    }

    /// `k_e = ⌈α/ℓ_e⌉` — the special-request period of a pair (at most α,
    /// which [`Rbma::new`] bounds by `u32::MAX`).
    #[inline]
    fn k_e(&self, pair: Pair) -> u32 {
        let ell = self.dm.ell(pair).max(1) as u64;
        u32::try_from(self.alpha.div_ceil(ell)).expect("Rbma::new bounds alpha by u32::MAX")
    }

    /// Advances `pair`'s Theorem-1 counter; returns whether this request is
    /// special. The period is computed once per pair and cached.
    #[inline]
    fn bump_counter(&mut self, pair: Pair) -> bool {
        let c = self.counters.get_mut(pair);
        if c.k == 0 {
            return self.first_request(pair);
        }
        c.count += 1;
        if c.count >= c.k {
            c.count = 0;
            true
        } else {
            false
        }
    }

    /// [`Rbma::bump_counter`] for a pair's first request: caches `k_e`.
    /// Out of line, so the per-request path stays a few instructions.
    #[cold]
    #[inline(never)]
    fn first_request(&mut self, pair: Pair) -> bool {
        let k = self.k_e(pair);
        let special = k <= 1;
        *self.counters.get_mut(pair) = SpecialCounter {
            count: if special { 0 } else { 1 },
            k,
        };
        special
    }

    /// Applies one endpoint's cache update for a special request; returns
    /// the matching removals it caused.
    fn touch_cache(&mut self, node: NodeId, partner: NodeId) -> u32 {
        let access = self.caches[node as usize].access(partner as u64);
        let mut removed = 0;
        if let Access::Fault {
            evicted: Some(evicted_page),
        } = access
        {
            let gone = Pair::new(node, evicted_page as NodeId);
            match self.mode {
                RemovalMode::Strict => {
                    if self.matching.remove(gone) {
                        removed += 1;
                    }
                }
                RemovalMode::Lazy => {
                    if self.matching.contains(gone) {
                        self.marked.set(gone, true);
                    }
                }
            }
        }
        removed
    }

    /// Lazy mode: frees capacity at `node` by pruning marked edges.
    fn prune_marked_at(&mut self, node: NodeId) -> u32 {
        let mut removed = 0;
        while self.matching.degree(node) >= self.matching.cap() {
            let victim = self
                .matching
                .incident_edges(node)
                .iter()
                .copied()
                .find(|&e| self.marked.get(e))
                .expect("lazy R-BMA: a full node must carry a marked edge");
            self.matching.remove(victim);
            self.marked.set(victim, false);
            removed += 1;
        }
        removed
    }

    /// The Theorem-2 slow path of a special request: feed both endpoint
    /// caches, restore the matching invariant. `matched` must equal the
    /// pair's current matching membership (the caller already probed it).
    /// Returns `(added, removed)`.
    fn serve_special(&mut self, pair: Pair, matched: bool) -> (u32, u32) {
        self.stats.specials.bump();
        if matched && !self.marked.get(pair) {
            // Fast gate. Superset invariant: a matched, unmarked pair is
            // cached at both endpoints (strict mode evicts the edge with
            // the page; lazy mode marks it), so both touches are pure
            // hits — mark them directly and skip the fault/eviction
            // machinery and any RNG traffic.
            self.stats.fast_specials.bump();
            let (u, v) = pair.endpoints();
            let (cu, cv) = two_caches(&mut self.caches, u, v);
            debug_assert!(cu.probe(v as u64).0 && cv.probe(u as u64).0);
            cu.mark_cached_hit(v as u64);
            cv.mark_cached_hit(u as u64);
            debug_assert!(self.matching.contains(pair));
            return (0, 0);
        }
        let (u, v) = pair.endpoints();
        let mut removed = self.touch_cache(u, v);
        removed += self.touch_cache(v, u);

        // Matching invariant: the pair is now in both caches.
        debug_assert!(self.caches[u as usize].contains(v as u64));
        debug_assert!(self.caches[v as usize].contains(u as u64));
        debug_assert_eq!(matched, self.matching.contains(pair));
        let mut added = 0;
        if !matched {
            if self.mode == RemovalMode::Lazy {
                removed += self.prune_marked_at(u);
                removed += self.prune_marked_at(v);
            }
            self.matching.insert(pair);
            added = 1;
            // An unmatched pair is never marked (marked ⊆ M), so the
            // matched branch's "alive again" unmark has nothing to do.
        } else {
            // A re-requested edge is alive again.
            self.marked.set(pair, false);
        }
        (added, removed)
    }

    /// The per-rack cache of `node` (tests and analysis).
    #[cfg(test)]
    fn cache(&self, node: NodeId) -> &DenseMarking {
        &self.caches[node as usize]
    }
}

/// Split-borrows the two (distinct) endpoint caches of a pair.
#[inline]
fn two_caches(
    caches: &mut [DenseMarking],
    u: NodeId,
    v: NodeId,
) -> (&mut DenseMarking, &mut DenseMarking) {
    debug_assert_ne!(u, v);
    if u < v {
        let (a, b) = caches.split_at_mut(v as usize);
        (&mut a[u as usize], &mut b[0])
    } else {
        let (a, b) = caches.split_at_mut(u as usize);
        (&mut b[0], &mut a[v as usize])
    }
}

impl OnlineScheduler for Rbma {
    fn name(&self) -> &str {
        "R-BMA"
    }

    fn cap(&self) -> usize {
        self.matching.cap()
    }

    fn serve(&mut self, pair: Pair) -> ServeOutcome {
        let was_matched = self.matching.contains(pair);
        if !self.bump_counter(pair) {
            return ServeOutcome {
                was_matched,
                added: 0,
                removed: 0,
            };
        }
        let (added, removed) = self.serve_special(pair, was_matched);
        ServeOutcome {
            was_matched,
            added,
            removed,
        }
    }

    /// Batched serve, one fused loop: the ordinary-request fast path — one
    /// membership load, one counter bump, fused routing accounting
    /// — runs without per-request dispatch; only special requests drop
    /// into the Theorem-2 slow path.
    fn serve_batch(&mut self, batch: &[Pair], dm: &DistanceMatrix, acc: &mut BatchOutcome) {
        let mut matched = 0u64;
        let mut routing = 0u64;
        for &pair in batch {
            let was_matched = self.matching.contains(pair);
            matched += was_matched as u64;
            // Read `ℓ_e` unconditionally so the cost is a select, not a
            // branch: whether a request hits the matching is hard to
            // predict, and the branch cost up to 40% of serve throughput
            // at α = 400 (`batch_alpha_rbma_b12_zipf`).
            let ell = dm.ell(pair) as u64;
            routing += if was_matched { 1 } else { ell };
            if self.bump_counter(pair) {
                let (added, removed) = self.serve_special(pair, was_matched);
                acc.added += added as u64;
                acc.removed += removed as u64;
            }
        }
        acc.matched += matched;
        acc.routing_cost += routing;
    }

    fn matching(&self) -> &BMatching {
        &self.matching
    }

    fn telemetry_flush(&mut self, sink: &Telemetry) {
        sink.add_counter("rbma.specials", self.stats.specials.take());
        sink.add_counter("rbma.fast_specials", self.stats.fast_specials.take());
        // Cumulative source: emit the delta against the last flush.
        let phases: u64 = self.caches.iter().map(|c| c.phase_transitions()).sum();
        sink.add_counter("rbma.marking_phases", phases - self.stats.flushed_phases);
        self.stats.flushed_phases = phases;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::builders;

    fn uniform_dm(n: usize) -> Arc<DistanceMatrix> {
        Arc::new(DistanceMatrix::uniform(n))
    }

    fn fat_tree_dm(racks: usize) -> Arc<DistanceMatrix> {
        Arc::new(DistanceMatrix::between_racks(
            &builders::fat_tree_with_racks(racks),
        ))
    }

    #[test]
    fn uniform_alpha_one_matches_immediately() {
        // α = 1 and ℓ = 1 ⇒ k_e = 1: every request is special.
        let mut r = Rbma::new(uniform_dm(6), 2, 1, RemovalMode::Strict, 0);
        let out = r.serve(Pair::new(0, 1));
        assert!(!out.was_matched);
        assert_eq!(out.added, 1);
        let out = r.serve(Pair::new(0, 1));
        assert!(out.was_matched);
        assert_eq!(out.added, 0);
    }

    #[test]
    fn special_period_follows_alpha_over_ell() {
        // Fat-tree: ℓ ∈ {2, 4}. α = 8 ⇒ k = 4 for same-pod, 2 for cross-pod.
        let dm = fat_tree_dm(8);
        let same_pod = Pair::new(0, 1);
        assert_eq!(dm.ell(same_pod), 2);
        let mut r = Rbma::new(dm, 2, 8, RemovalMode::Strict, 0);
        // k = 8/2 = 4: first three requests are ordinary.
        for _ in 0..3 {
            assert_eq!(r.serve(same_pod).added, 0);
        }
        assert_eq!(r.serve(same_pod).added, 1, "4th request is special");
    }

    #[test]
    #[should_panic(expected = "alpha = 4294967300 exceeds u32::MAX")]
    fn alpha_beyond_u32_is_rejected() {
        // ℓ = 1 makes k_e = α, which a u32 period would truncate to 4.
        let mut r = Rbma::new(uniform_dm(4), 1, (1 << 32) + 4, RemovalMode::Lazy, 0);
        for _ in 0..8 {
            assert_eq!(r.serve(Pair::new(0, 1)).added, 0);
        }
    }

    #[test]
    fn alpha_at_u32_max_counts_its_full_period() {
        let mut r = Rbma::new(uniform_dm(4), 1, u32::MAX as u64, RemovalMode::Lazy, 0);
        for _ in 0..8 {
            let out = r.serve(Pair::new(0, 1));
            assert_eq!((out.added, out.removed), (0, 0));
        }
        assert!(r.matching().is_empty());
    }

    #[test]
    fn degree_bound_never_violated_strict_and_lazy() {
        for mode in [RemovalMode::Strict, RemovalMode::Lazy] {
            let n = 12;
            let b = 3;
            let mut r = Rbma::new(uniform_dm(n), b, 1, mode, 9);
            // Hammer rack 0 with all partners repeatedly.
            for round in 0..50u32 {
                for v in 1..n as u32 {
                    r.serve(Pair::new(0, v));
                    r.matching().assert_valid();
                    assert!(r.matching().degree(0) <= b, "mode {mode:?} round {round}");
                }
            }
        }
    }

    #[test]
    fn strict_mode_keeps_intersection_invariant() {
        let n = 10;
        let mut r = Rbma::new(uniform_dm(n), 2, 1, RemovalMode::Strict, 3);
        let reqs: Vec<Pair> = (0..500u32)
            .map(|i| {
                let a = i % n as u32;
                let b = (i * 7 + 1) % n as u32;
                if a == b {
                    Pair::new(a, (b + 1) % n as u32)
                } else {
                    Pair::new(a, b)
                }
            })
            .collect();
        for &p in &reqs {
            r.serve(p);
            // Every matching edge must be cached at both endpoints.
            for e in r.matching().edges() {
                assert!(r.cache(e.lo()).contains(e.hi() as u64));
                assert!(r.cache(e.hi()).contains(e.lo() as u64));
            }
        }
    }

    #[test]
    fn lazy_mode_superset_of_strict_invariant() {
        // In lazy mode M may exceed the cache intersection, but every edge
        // NOT in the intersection must be marked.
        let n = 10;
        let mut r = Rbma::new(uniform_dm(n), 2, 1, RemovalMode::Lazy, 3);
        for i in 0..800u32 {
            let a = i % n as u32;
            let b = (i / 3 + a + 1) % n as u32;
            if a == b {
                continue;
            }
            r.serve(Pair::new(a, b));
            for e in r.matching().edges() {
                let in_both = r.cache(e.lo()).contains(e.hi() as u64)
                    && r.cache(e.hi()).contains(e.lo() as u64);
                assert!(
                    in_both || r.marked.get(e),
                    "unmarked edge {e} outside cache intersection"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut r = Rbma::new(uniform_dm(8), 2, 1, RemovalMode::Lazy, seed);
            (0..2000u32)
                .map(|i| {
                    let a = i % 8;
                    let b = (i.wrapping_mul(2654435761) % 7 + 1 + a) % 8;
                    if a == b {
                        return 0;
                    }
                    let o = r.serve(Pair::new(a, b));
                    o.added + o.removed
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn reported_mutations_match_matching_size() {
        let mut r = Rbma::new(uniform_dm(10), 2, 1, RemovalMode::Lazy, 1);
        let mut net: i64 = 0;
        for i in 0..1000u32 {
            let a = i % 10;
            let b = (i * 13 + 1) % 10;
            if a == b {
                continue;
            }
            let o = r.serve(Pair::new(a, b));
            net += o.added as i64 - o.removed as i64;
        }
        assert_eq!(
            net,
            r.matching().len() as i64,
            "add/remove accounting drifted"
        );
    }

    #[test]
    fn serve_batch_equals_serve_loop() {
        // The batched override must agree with per-request serving — same
        // mutations, same accounting, same final matching — for both
        // removal modes and a non-uniform metric (so k_e > 1 paths and
        // ℓ_e routing both exercise).
        for mode in [RemovalMode::Lazy, RemovalMode::Strict] {
            let dm = fat_tree_dm(16);
            let reqs: Vec<Pair> = (0..4000u32)
                .map(|i| {
                    let a = i % 16;
                    let b = (a + 1 + i.wrapping_mul(2654435761) % 15) % 16;
                    if a == b {
                        Pair::new(a, (b + 1) % 16)
                    } else {
                        Pair::new(a, b)
                    }
                })
                .filter(|p| p.lo() != p.hi())
                .collect();

            let mut unbatched = Rbma::new(dm.clone(), 3, 8, mode, 5);
            let mut expected = BatchOutcome::default();
            for &p in &reqs {
                let o = unbatched.serve(p);
                expected.record(p, o, &dm);
            }

            let mut batched = Rbma::new(dm.clone(), 3, 8, mode, 5);
            let mut acc = BatchOutcome::default();
            for chunk in reqs.chunks(97) {
                batched.serve_batch(chunk, &dm, &mut acc);
            }

            assert_eq!(acc, expected, "mode {mode:?}");
            let mut a: Vec<Pair> = batched.matching().edges().collect();
            let mut b: Vec<Pair> = unbatched.matching().edges().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "mode {mode:?}: matchings diverged");
        }
    }
}
