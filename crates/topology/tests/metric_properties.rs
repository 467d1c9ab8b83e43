//! Property tests for the distance substrate: BFS distances between racks
//! form a metric, on arbitrary connected topologies.

use dcn_topology::{builders, DistanceMatrix, Network, NodeId};
use proptest::prelude::*;

fn arbitrary_network() -> impl Strategy<Value = Network> {
    prop_oneof![
        (2usize..6).prop_map(|k| builders::fat_tree(2 * k.div_ceil(2).max(1))),
        (3usize..20, 1usize..6).prop_map(|(l, s)| builders::leaf_spine(l, s)),
        (3usize..25).prop_map(builders::ring),
        (3usize..6, 3usize..6).prop_map(|(r, c)| builders::torus(r, c)),
        (1usize..6).prop_map(builders::hypercube),
        (2usize..15).prop_map(builders::star),
        (4usize..20, 2usize..4, 0u64..100).prop_map(|(n, d, seed)| {
            let d = d.min(n - 1);
            if n * d % 2 == 1 {
                builders::random_regular(n + 1, d, seed)
            } else {
                builders::random_regular(n, d, seed)
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn rack_distances_form_a_metric(net in arbitrary_network()) {
        let dm = DistanceMatrix::between_racks(&net);
        let n = dm.num_racks();
        for i in 0..n as NodeId {
            prop_assert_eq!(dm.dist(i, i), 0, "non-zero diagonal at {}", i);
            for j in 0..n as NodeId {
                // Symmetry.
                prop_assert_eq!(dm.dist(i, j), dm.dist(j, i));
                if i != j {
                    prop_assert!(dm.dist(i, j) >= 1, "distinct racks at distance 0");
                }
            }
        }
        // Triangle inequality (sampled: full cubic check is wasteful).
        let step = (n / 8).max(1);
        for i in (0..n).step_by(step) {
            for j in (0..n).step_by(step) {
                for k in (0..n).step_by(step) {
                    let (a, b, c) = (
                        dm.dist(i as NodeId, j as NodeId) as u32,
                        dm.dist(j as NodeId, k as NodeId) as u32,
                        dm.dist(i as NodeId, k as NodeId) as u32,
                    );
                    prop_assert!(c <= a + b, "triangle violated: d({i},{k}) > d({i},{j}) + d({j},{k})");
                }
            }
        }
        prop_assert_eq!(dm.max_dist() as u32, {
            let mut m = 0u32;
            for i in 0..n as NodeId {
                for j in 0..n as NodeId {
                    m = m.max(dm.dist(i, j) as u32);
                }
            }
            m
        });
    }

    #[test]
    fn parallel_apsp_matches_sequential(net in arbitrary_network(), threads in 2usize..8) {
        let seq = DistanceMatrix::between_racks(&net);
        let par = DistanceMatrix::between_racks_parallel(&net, threads);
        for i in 0..seq.num_racks() as NodeId {
            for j in 0..seq.num_racks() as NodeId {
                prop_assert_eq!(seq.dist(i, j), par.dist(i, j));
            }
        }
    }
}
