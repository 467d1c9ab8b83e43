//! **SO-BMA** — the static offline baseline of §3: a maximum-weight
//! matching computed on the *aggregated* demand of the whole (prefix of
//! the) trace, held fixed while the trace replays.
//!
//! The paper implements it with NetworkX's blossom `max_weight_matching`;
//! here the weight of pair `e` is its request count times the per-request
//! saving `ℓ_e − 1`, and a degree-`b` schedule is assembled as `b` rounds of
//! exact matching on the residual demand (see `dcn_matching::repeated` for
//! why that is the physically faithful construction). Being offline *and*
//! static, SO-BMA pays no reconfiguration cost but cannot adapt — which is
//! exactly the trade-off Figs. 1c–4c probe: it wins on temporally
//! structureless (i.i.d.) traffic and loses ground on bursty traffic.

use crate::sweep::steal_map;
use dcn_matching::{repeated::repeated_mwm_b_matching, WeightedEdge};
use dcn_topology::{DistanceMatrix, Pair};
use dcn_util::FxHashMap;

/// Aggregates demand and returns the weighted candidate edges
/// (`weight = count · (ℓ_e − 1)`, i.e. the total routing cost saved by
/// serving the pair optically).
pub fn demand_edges(dm: &DistanceMatrix, requests: &[Pair]) -> Vec<WeightedEdge> {
    let mut counts: FxHashMap<Pair, i64> = FxHashMap::default();
    for &r in requests {
        *counts.entry(r).or_insert(0) += 1;
    }
    saving_edges(dm, &counts)
}

/// The weighted candidate edges of aggregated pair counts, in the map's
/// iteration order.
fn saving_edges(dm: &DistanceMatrix, counts: &FxHashMap<Pair, i64>) -> Vec<WeightedEdge> {
    counts
        .iter()
        .filter_map(|(&pair, &cnt)| {
            let saving = (dm.ell(pair) as i64 - 1) * cnt;
            (saving > 0).then(|| WeightedEdge::new(pair.lo(), pair.hi(), saving))
        })
        .collect()
}

/// Computes SO-BMA's static b-matching for the given request prefix.
pub fn so_bma_matching(dm: &DistanceMatrix, requests: &[Pair], b: usize) -> Vec<Pair> {
    let edges = demand_edges(dm, requests);
    repeated_mwm_b_matching(dm.num_racks(), &edges, b)
}

/// Routing cost of replaying `requests` against a *static* matching.
pub fn static_routing_cost(dm: &DistanceMatrix, requests: &[Pair], matching: &[Pair]) -> u64 {
    let in_m: std::collections::HashSet<Pair> = matching.iter().copied().collect();
    requests
        .iter()
        .map(|r| {
            if in_m.contains(r) {
                1
            } else {
                dm.ell(*r) as u64
            }
        })
        .sum()
}

/// SO-BMA evaluated at a sequence of checkpoints: for each prefix length,
/// the matching is recomputed on that prefix's demand (clairvoyant up to the
/// checkpoint, as in the paper's figures) and the prefix is priced against
/// it. Returns `(checkpoint, routing_cost)` rows in checkpoint order; a
/// checkpoint beyond the trace prices the whole trace.
///
/// Checkpoints are independent tasks, each counting and pricing its own
/// prefix (`prefix_cost`), so any list — unsorted, repeated, 0 or beyond
/// the trace — prices each prefix the same way. Two or more checkpoints fan out on [`steal_map`] at the executor's
/// auto width (one worker per core, or one inside another fan-out's worker,
/// or the width of an enclosing [`crate::sweep::with_threads`]), largest
/// prefix first so the longest matching never starts last. A single
/// checkpoint runs inline and never touches the executor.
pub fn so_bma_series(
    dm: &DistanceMatrix,
    requests: &[Pair],
    b: usize,
    checkpoints: &[usize],
) -> Vec<(usize, u64)> {
    let prefix = |cp: usize| &requests[..cp.min(requests.len())];
    if checkpoints.len() <= 1 {
        return checkpoints
            .iter()
            .map(|&cp| (cp, prefix_cost(dm, prefix(cp), b)))
            .collect();
    }
    let mut order: Vec<usize> = (0..checkpoints.len()).collect();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse(prefix(checkpoints[i]).len()));
    let costs = steal_map(order.len(), 0, |k| {
        prefix_cost(dm, prefix(checkpoints[order[k]]), b)
    });
    let mut rows: Vec<(usize, u64)> = checkpoints.iter().map(|&cp| (cp, 0)).collect();
    for (&i, cost) in order.iter().zip(costs) {
        rows[i].1 = cost;
    }
    rows
}

/// SO-BMA's routing cost of one prefix: [`static_routing_cost`] of the
/// prefix against [`so_bma_matching`] of the prefix, without replaying it.
///
/// Pair counts go into a dense `n × n` index into the prefix's distinct
/// pairs, in first-occurrence order, next to a running `Σℓ`. The distinct
/// pairs, in that order, fill a fresh `FxHashMap`: repeat requests only
/// update a value, so this map is laid out exactly like the one
/// [`demand_edges`] fills from the whole prefix, and yields the same edge
/// list and hence the same matching. The cost is `Σℓ − Σ_{e∈M} w_e`: each
/// request on a matched pair costs 1 instead of `ℓ_e`, which saves exactly
/// the pair's weight `w_e = count_e · (ℓ_e − 1)`.
fn prefix_cost(dm: &DistanceMatrix, prefix: &[Pair], b: usize) -> u64 {
    let n = dm.num_racks();
    // slot[lo · n + hi]: 1 + the pair's index in `seen`, 0 while unseen.
    // n² entries, as many as the distance matrix holds.
    let mut slot = vec![0u32; n * n];
    let mut seen: Vec<(Pair, i64)> = Vec::new();
    let mut ell_sum = 0u64;
    for &r in prefix {
        let s = &mut slot[r.lo() as usize * n + r.hi() as usize];
        if *s == 0 {
            seen.push((r, 0));
            *s = seen.len() as u32;
        }
        seen[*s as usize - 1].1 += 1;
        ell_sum += dm.ell(r) as u64;
    }
    let edges = {
        let mut counts: FxHashMap<Pair, i64> = FxHashMap::default();
        for &(pair, count) in &seen {
            counts.insert(pair, count);
        }
        saving_edges(dm, &counts)
    };
    let matching = repeated_mwm_b_matching(n, &edges, b);
    let saved: u64 = matching
        .iter()
        .map(|p| {
            let (_, count) = seen[slot[p.lo() as usize * n + p.hi() as usize] as usize - 1];
            (count * (dm.ell(*p) as i64 - 1)) as u64
        })
        .sum();
    ell_sum - saved
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_matching::bmatching::is_valid_b_matching;

    fn uniform_far(n: usize) -> DistanceMatrix {
        // Leaf-spine: all pairs at distance 2 -> every pair saves 1/request.
        let net = dcn_topology::builders::leaf_spine(n, 2);
        DistanceMatrix::between_racks(&net)
    }

    #[test]
    fn picks_heaviest_pairs() {
        let dm = uniform_far(4);
        let reqs: Vec<Pair> = [(0u32, 1u32); 10]
            .iter()
            .map(|&(a, b)| Pair::new(a, b))
            .chain(std::iter::once(Pair::new(2, 3)))
            .collect();
        let m = so_bma_matching(&dm, &reqs, 1);
        assert!(m.contains(&Pair::new(0, 1)));
        assert!(is_valid_b_matching(&m, 1));
    }

    #[test]
    fn static_cost_counts_matched_as_one() {
        let dm = uniform_far(4);
        let reqs = vec![Pair::new(0, 1), Pair::new(0, 1), Pair::new(2, 3)];
        let cost = static_routing_cost(&dm, &reqs, &[Pair::new(0, 1)]);
        // 1 + 1 + 2.
        assert_eq!(cost, 4);
    }

    #[test]
    fn series_monotone_in_prefix() {
        let dm = uniform_far(6);
        let reqs: Vec<Pair> = (0..300u32)
            .map(|i| Pair::new(i % 6, (i % 5 + 1 + i % 6) % 6))
            .filter(|p| p.lo() != p.hi())
            .collect();
        let series = so_bma_series(&dm, &reqs, 2, &[50, 100, 200]);
        assert_eq!(series.len(), 3);
        assert!(series[0].1 <= series[1].1 && series[1].1 <= series[2].1);
    }

    #[test]
    fn beats_oblivious_on_skewed_demand() {
        let dm = uniform_far(8);
        // 90% of traffic on 4 disjoint pairs.
        let mut reqs = Vec::new();
        for i in 0..1000u32 {
            let p = match i % 10 {
                0 => Pair::new(1, 6),
                _ => Pair::new((i % 4) * 2, (i % 4) * 2 + 1),
            };
            reqs.push(p);
        }
        let m = so_bma_matching(&dm, &reqs, 1);
        let so = static_routing_cost(&dm, &reqs, &m);
        let oblivious: u64 = reqs.iter().map(|r| dm.ell(*r) as u64).sum();
        assert!(
            so < oblivious * 6 / 10,
            "SO-BMA {so} should clearly beat oblivious {oblivious}"
        );
    }

    #[test]
    fn zero_saving_pairs_ignored() {
        // Complete graph: ℓ = 1 everywhere; no pair is worth matching.
        let net = dcn_topology::builders::complete(5);
        let dm = DistanceMatrix::between_racks(&net);
        let reqs = vec![Pair::new(0, 1); 50];
        assert!(demand_edges(&dm, &reqs).is_empty());
        assert!(so_bma_matching(&dm, &reqs, 2).is_empty());
    }
}
