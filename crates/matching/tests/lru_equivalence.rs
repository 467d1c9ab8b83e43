//! Side-by-side equivalence of the flat per-slot stamps
//! ([`LruBMatching`]) against the historical stamp/B-tree recency
//! ([`BTreeRecencyMatching`]): random hit/miss/insert/evict/remove
//! sequences must produce identical recency orders at **both** endpoints
//! of every edge, identical LRU victims at every rack, and identical
//! matchings — including when both stamp clocks start near the top of
//! the `u64` range (where any narrowing or wrap in stamp handling would
//! reorder), and on wide blocks (b up to 18 over 28 racks), where
//! swap-removes move edges at their `lo` and at their `hi` endpoint and
//! the stamps and the matching's position index must follow every move.

use dcn_matching::recency::{BTreeRecencyMatching, LruBMatching, RecencyMatching};
use dcn_topology::{NodeId, Pair};
use proptest::prelude::*;

/// One step of the replayed workload.
#[derive(Clone, Debug)]
enum Op {
    /// Touch the pair if matched; otherwise insert it, evicting the LRU
    /// incident edge at any full endpoint first (BMA's buy path).
    Request(Pair),
    /// Remove the pair if present (BMA's counter-driven removal).
    Remove(Pair),
    /// Remove the LRU victim at a rack, if any (a bare eviction).
    EvictAt(NodeId),
}

fn pair_strategy(n: u32) -> impl Strategy<Value = Pair> {
    (0..n, 0..n - 1).prop_map(move |(a, b)| {
        let b = if b >= a { b + 1 } else { b };
        Pair::new(a, b)
    })
}

fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! chooses uniformly (no weight syntax);
    // repeating the Request arm biases the mix toward the hot path.
    prop_oneof![
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Remove),
        (0..n).prop_map(Op::EvictAt),
    ]
}

/// Applies `op` identically to one structure, using only the
/// [`RecencyMatching`] contract (so both implementations run the exact
/// same decision sequence).
fn apply<M: RecencyMatching>(m: &mut M, op: &Op) {
    match *op {
        Op::Request(pair) => {
            if m.touch_hit(pair) {
                return;
            }
            for node in [pair.lo(), pair.hi()] {
                if m.matching().degree(node) >= m.matching().cap() {
                    let victim = m.lru_edge(node).expect("full node has a victim");
                    assert!(m.remove(victim));
                }
            }
            m.insert_mru(pair);
        }
        Op::Remove(pair) => {
            m.remove(pair);
        }
        Op::EvictAt(v) => {
            if let Some(victim) = m.lru_edge(v) {
                assert!(m.remove(victim));
            }
        }
    }
}

fn assert_equivalent(flat: &LruBMatching, tree: &BTreeRecencyMatching, n: u32, step: usize) {
    assert_eq!(
        flat.matching().len(),
        tree.matching().len(),
        "matching size diverged at step {step}"
    );
    for v in 0..n {
        assert_eq!(
            flat.lru_edge(v),
            tree.lru_edge(v),
            "LRU victim diverged at rack {v}, step {step}"
        );
        assert_eq!(
            flat.recency_order(v),
            tree.recency_order(v),
            "recency order diverged at rack {v}, step {step}"
        );
    }
}

/// Replays `ops` through both structures over `n` racks at degree cap `b`,
/// comparing them after every step and checking the flat structure's
/// internal consistency (stamps, blocks and position index) along the way.
fn replay(ops: &[Op], n: u32, b: usize) {
    let mut flat = LruBMatching::new(n as usize, b);
    let mut tree = BTreeRecencyMatching::new(n as usize, b);
    for (step, op) in ops.iter().enumerate() {
        apply(&mut flat, op);
        apply(&mut tree, op);
        assert_equivalent(&flat, &tree, n, step);
        if step % 16 == 0 {
            flat.assert_valid();
        }
    }
    flat.assert_valid();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_lru_replays_btree_recency_exactly(
        ops in prop::collection::vec(op_strategy(9), 1..400),
        b in 1usize..4,
    ) {
        replay(&ops, 9, b);
    }

    #[test]
    fn flat_lru_replays_btree_recency_on_wide_blocks(
        ops in prop::collection::vec(op_strategy(28), 1..1_500),
        b in 4usize..19,
    ) {
        replay(&ops, 28, b);
    }

    #[test]
    fn equivalence_holds_at_large_stamp_clocks(
        ops in prop::collection::vec(op_strategy(6), 1..200),
        // Start both clocks close to (but safely below) the overflow
        // bound: stamps land in [2^63, u64::MAX), the regime where any
        // accidental narrowing or wrap in stamp handling would reorder.
        clock_offset in 0u64..1_000_000,
    ) {
        let n = 6u32;
        let start = (1u64 << 63) + clock_offset;
        let mut flat = LruBMatching::with_start_clock(n as usize, 2, start);
        let mut tree = BTreeRecencyMatching::with_start_clock(n as usize, 2, start);
        for (step, op) in ops.iter().enumerate() {
            apply(&mut flat, op);
            apply(&mut tree, op);
            assert_equivalent(&flat, &tree, n, step);
        }
        flat.assert_valid();
    }
}
