//! Property tests for the matching substrate: the blossom matcher against
//! ground truth, structural invariants of every matcher, and `BMatching`
//! against a model.

use dcn_matching::blossom::max_weight_matching_pairs;
use dcn_matching::bmatching::{is_valid_b_matching, BMatching};
use dcn_matching::brute::brute_force_max_weight_b_matching;
use dcn_matching::greedy::{greedy_b_matching, matching_weight};
use dcn_matching::repeated::repeated_mwm_b_matching;
use dcn_matching::WeightedEdge;
use dcn_topology::Pair;
use proptest::prelude::*;

/// Random simple weighted graph on up to `n` vertices.
fn weighted_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<WeightedEdge>> {
    prop::collection::vec((0..n, 0..n - 1, 1i64..100), 0..max_edges).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .map(|(a, b, w)| {
                let b = if b >= a { b + 1 } else { b };
                (a.min(b), a.max(b), w)
            })
            .filter(|&(a, b, _)| seen.insert((a, b)))
            .map(|(a, b, w)| WeightedEdge::new(a, b, w))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blossom_optimal_and_valid(edges in weighted_graph(8, 20)) {
        prop_assume!(!edges.is_empty());
        let pairs = max_weight_matching_pairs(8, &edges);
        prop_assert!(is_valid_b_matching(&pairs, 1), "blossom output is not a matching");
        let got = matching_weight(&pairs, &edges);
        let (opt, _) = brute_force_max_weight_b_matching(8, &edges, 1);
        prop_assert_eq!(got, opt, "blossom {} != brute force {}", got, opt);
    }

    #[test]
    fn greedy_half_approximation(edges in weighted_graph(9, 20), b in 1usize..4) {
        let m = greedy_b_matching(9, &edges, b);
        prop_assert!(is_valid_b_matching(&m, b));
        let got = matching_weight(&m, &edges);
        let (opt, _) = brute_force_max_weight_b_matching(9, &edges, b);
        prop_assert!(2 * got >= opt, "greedy {} below half of optimum {}", got, opt);
    }

    #[test]
    fn repeated_mwm_valid_and_bounded(edges in weighted_graph(9, 20), b in 1usize..4) {
        let m = repeated_mwm_b_matching(9, &edges, b);
        prop_assert!(is_valid_b_matching(&m, b));
        let got = matching_weight(&m, &edges);
        let (opt, _) = brute_force_max_weight_b_matching(9, &edges, b);
        prop_assert!(got <= opt);
        // Round 1 alone is an exact matching ≥ opt/b.
        prop_assert!((b as i64) * got >= opt, "{} rounds yielded {} < opt/b of {}", b, got, opt);
    }

    #[test]
    fn bmatching_model_based(ops in prop::collection::vec((0u32..10, 0u32..9, 0u8..41), 1..200)) {
        // Model: a reference HashSet + degree map mirrors BMatching. Op
        // kind 0 (1 in 41) clears, odd kinds insert, other even kinds
        // remove. After every op the position index must agree with the
        // model on all 45 pairs, independently of BMatching's own check.
        let b = 2;
        let mut m = BMatching::new(10, b);
        let mut reference: std::collections::HashSet<Pair> = Default::default();
        let mut degree = [0usize; 10];
        for (a, raw, kind) in ops {
            let v = if raw >= a { raw + 1 } else { raw };
            let pair = Pair::new(a, v);
            if kind == 0 {
                m.clear();
                reference.clear();
                degree = [0; 10];
            } else if kind % 2 == 1 {
                let expect = !reference.contains(&pair)
                    && degree[pair.lo() as usize] < b
                    && degree[pair.hi() as usize] < b;
                prop_assert_eq!(m.try_insert(pair), expect);
                if expect {
                    reference.insert(pair);
                    degree[pair.lo() as usize] += 1;
                    degree[pair.hi() as usize] += 1;
                }
            } else {
                let expect = reference.remove(&pair);
                if expect {
                    degree[pair.lo() as usize] -= 1;
                    degree[pair.hi() as usize] -= 1;
                }
                prop_assert_eq!(m.remove(pair), expect);
            }
            prop_assert_eq!(m.len(), reference.len());
            for lo in 0..10u32 {
                for hi in lo + 1..10 {
                    let p = Pair::new(lo, hi);
                    prop_assert_eq!(m.contains(p), reference.contains(&p), "contains({})", p);
                    match m.positions(p) {
                        None => prop_assert!(!reference.contains(&p), "{} has no positions", p),
                        Some([at_lo, at_hi]) => {
                            prop_assert_eq!(m.incident_edges(lo).get(at_lo), Some(&p));
                            prop_assert_eq!(m.incident_edges(hi).get(at_hi), Some(&p));
                        }
                    }
                }
            }
            for v in 0..10u32 {
                prop_assert_eq!(m.degree(v), degree[v as usize]);
            }
            m.assert_valid();
        }
    }
}
