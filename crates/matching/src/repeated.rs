//! Maximum-weight **b-matching** as the union of `b` exact matchings.
//!
//! The paper's SO-BMA baseline uses NetworkX's 1-matching routine; a degree-b
//! schedule for `b` optical circuit switches is then obtained by running the
//! matcher `b` times, each round on the demand graph minus already-selected
//! edges. The union of `b` matchings trivially satisfies the degree bound and
//! — crucially — is *physically realizable*: round `i`'s matching is switch
//! `i`'s configuration, no edge coloring needed.
//!
//! This is a heuristic for the true max-weight b-matching (which would
//! require a b-matching LP/flow formulation), but round 1 alone already
//! secures at least `OPT_b / b`, and on skewed datacenter demand it is near
//! optimal; tests quantify this against brute force.

use crate::blossom::Matcher;
use crate::WeightedEdge;
use dcn_topology::{Pair, PairTable};

/// Runs `b` rounds of exact maximum-weight matching on the residual edge
/// set; returns one `Vec<Pair>` per round (the per-switch matchings).
/// The union is a valid b-matching. One blossom solver serves every round:
/// each round refills its buffers from that round's residual edges.
pub fn repeated_mwm_rounds(n: usize, edges: &[WeightedEdge], b: usize) -> Vec<Vec<Pair>> {
    assert!(b >= 1);
    let mut taken: PairTable<bool> = PairTable::new(n);
    let mut solver = Matcher::default();
    let mut rounds = Vec::with_capacity(b);
    for _ in 0..b {
        let residual: Vec<WeightedEdge> = edges
            .iter()
            .filter(|e| e.weight > 0 && !taken.get(Pair::new(e.u, e.v)))
            .copied()
            .collect();
        if residual.is_empty() {
            rounds.push(Vec::new());
            continue;
        }
        let matched = solver.matching_pairs(n, &residual);
        for &p in &matched {
            taken.set(p, true);
        }
        rounds.push(matched);
    }
    rounds
}

/// The union of [`repeated_mwm_rounds`]: a heavy b-matching.
pub fn repeated_mwm_b_matching(n: usize, edges: &[WeightedEdge], b: usize) -> Vec<Pair> {
    repeated_mwm_rounds(n, edges, b)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmatching::is_valid_b_matching;
    use crate::brute::brute_force_max_weight_b_matching;
    use crate::greedy::matching_weight;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn we(u: u32, v: u32, w: i64) -> WeightedEdge {
        WeightedEdge::new(u, v, w)
    }

    #[test]
    fn b_one_equals_single_mwm() {
        let edges = [we(0, 1, 3), we(1, 2, 4), we(2, 3, 3)];
        let m = repeated_mwm_b_matching(4, &edges, 1);
        assert_eq!(matching_weight(&m, &edges), 6);
    }

    #[test]
    fn rounds_are_disjoint_matchings() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 10;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.random_bool(0.5) {
                    edges.push(we(u, v, rng.random_range(1..30)));
                }
            }
        }
        let rounds = repeated_mwm_rounds(n, &edges, 3);
        assert_eq!(rounds.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for round in &rounds {
            assert!(
                is_valid_b_matching(round, 1),
                "each round must be a matching"
            );
            for &p in round {
                assert!(seen.insert(p), "edge {p} reused across rounds");
            }
        }
        let union: Vec<Pair> = rounds.into_iter().flatten().collect();
        assert!(is_valid_b_matching(&union, 3));
    }

    #[test]
    fn close_to_brute_force_b_matching() {
        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..20 {
            let n = 6;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.random_bool(0.7) {
                        edges.push(we(u, v, rng.random_range(1..30)));
                    }
                }
            }
            if edges.len() > 24 {
                edges.truncate(24);
            }
            for b in 1..=3usize {
                let got = matching_weight(&repeated_mwm_b_matching(n, &edges, b), &edges);
                let (opt, _) = brute_force_max_weight_b_matching(n, &edges, b);
                assert!(got <= opt, "heuristic above optimum?!");
                // Round 1 alone is a max-weight matching >= opt/b.
                assert!(
                    (b as i64) * got >= opt,
                    "trial {trial} b={b}: {got} < opt/b with opt {opt}"
                );
            }
        }
    }

    #[test]
    fn weight_monotone_in_b() {
        let mut rng = SmallRng::seed_from_u64(13);
        let n = 12;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.random_bool(0.4) {
                    edges.push(we(u, v, rng.random_range(1..50)));
                }
            }
        }
        let mut last = 0;
        for b in 1..=4 {
            let w = matching_weight(&repeated_mwm_b_matching(n, &edges, b), &edges);
            assert!(w >= last, "weight must not decrease as b grows");
            last = w;
        }
    }

    #[test]
    fn exhausted_graph_yields_empty_rounds() {
        let edges = [we(0, 1, 5)];
        let rounds = repeated_mwm_rounds(2, &edges, 3);
        assert_eq!(rounds[0], vec![Pair::new(0, 1)]);
        assert!(rounds[1].is_empty() && rounds[2].is_empty());
    }
}
