//! The one-pass SO-BMA series against the per-checkpoint replay it
//! replaces: recompute the matching on each prefix, then replay the prefix
//! through `static_routing_cost`. The series must agree row for row on any
//! checkpoint list — unsorted, repeated, 0, or beyond the trace.

use dcn_core::algorithms::static_offline::{so_bma_matching, so_bma_series, static_routing_cost};
use dcn_topology::{builders, DistanceMatrix, Pair};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const RACKS: u32 = 20;

fn fat_tree() -> DistanceMatrix {
    DistanceMatrix::between_racks(&builders::fat_tree_with_racks(RACKS as usize))
}

/// The reference: each checkpoint's prefix aggregated, matched and replayed
/// from scratch.
fn replay(dm: &DistanceMatrix, reqs: &[Pair], b: usize, cps: &[usize]) -> Vec<(usize, u64)> {
    cps.iter()
        .map(|&cp| {
            let prefix = &reqs[..cp.min(reqs.len())];
            let matching = so_bma_matching(dm, prefix, b);
            (cp, static_routing_cost(dm, prefix, &matching))
        })
        .collect()
}

/// `len` requests on `RACKS` racks: half on a few hot pairs, so pair counts
/// spread and tie, half uniform.
fn requests(len: usize, seed: u64) -> Vec<Pair> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let hot: Vec<Pair> = (0..6).map(|i| Pair::new(i, (i * 7 + 3) % RACKS)).collect();
    (0..len)
        .map(|_| {
            if rng.random_bool(0.5) {
                hot[rng.random_range(0..hot.len())]
            } else {
                let a = rng.random_range(0..RACKS);
                let c = rng.random_range(0..RACKS - 1);
                Pair::new(a, if c >= a { c + 1 } else { c })
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn series_equals_per_checkpoint_replay(
        len in 0usize..600,
        seed in any::<u64>(),
        b in 1usize..5,
        cps in prop::collection::vec(0usize..700, 0..10),
    ) {
        let dm = fat_tree();
        let reqs = requests(len, seed);
        prop_assert_eq!(so_bma_series(&dm, &reqs, b, &cps), replay(&dm, &reqs, b, &cps));
    }
}

#[test]
fn series_handles_zero_repeated_unsorted_and_overlong_checkpoints() {
    let dm = fat_tree();
    let reqs = requests(500, 7);
    let cps = [0, 120, 120, 40, 500, 900, 0, 260, 260, 499, 10_000, 3];
    for b in 1..=4 {
        assert_eq!(
            so_bma_series(&dm, &reqs, b, &cps),
            replay(&dm, &reqs, b, &cps),
            "b = {b}"
        );
    }
}
