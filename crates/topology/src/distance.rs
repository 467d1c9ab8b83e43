//! Rack-to-rack shortest-path distances (`ℓ_e` in the cost model).
//!
//! The cost of serving request `e = {s, t}` over the fixed network is the
//! shortest-path length between the racks' ToR switches (§3.1: “The cost of
//! each request is calculated as the shortest path length between source and
//! destination node”). The matrix is computed once per experiment with one
//! BFS per rack over the switch graph.

use crate::builders::Network;
use crate::graph::NodeId;
use crate::pair::Pair;
use std::collections::VecDeque;

/// Dense rack-to-rack hop-distance matrix with `u16` entries.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<u16>,
    max: u16,
}

impl DistanceMatrix {
    /// Computes rack-to-rack distances for `net`, one BFS per rack.
    ///
    /// Panics if some rack cannot reach another (the model requires a
    /// connected fixed network).
    pub fn between_racks(net: &Network) -> Self {
        let racks = &net.racks;
        let n = racks.len();
        let mut d = vec![0u16; n * n];
        let mut dist: Vec<u32> = Vec::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for (i, row) in d.chunks_exact_mut(n).enumerate() {
            net.graph.bfs_into(racks[i], &mut dist, &mut queue);
            for (j, cell) in row.iter_mut().enumerate() {
                let dv = dist[racks[j] as usize];
                assert!(dv != u32::MAX, "fixed network must connect all racks");
                assert!(dv <= u16::MAX as u32, "distance overflow");
                *cell = dv as u16;
            }
        }

        let max = d.iter().copied().max().unwrap_or(0);
        Self { n, d, max }
    }

    /// Builds a matrix where every distinct pair is at distance 1 — the
    /// *uniform* model of §2 used by the reduction analysis and its tests.
    pub fn uniform(n: usize) -> Self {
        let mut d = vec![1u16; n * n];
        for i in 0..n {
            d[i * n + i] = 0;
        }
        Self {
            n,
            d,
            max: if n > 1 { 1 } else { 0 },
        }
    }

    /// Number of racks.
    #[inline]
    pub fn num_racks(&self) -> usize {
        self.n
    }

    /// Hop distance between racks `i` and `j`.
    ///
    /// Hot-path contract (audited for the batched serve loops): the matrix
    /// is a dense row-major `Vec<u16>`, so a lookup is one multiply-add and
    /// one 2-byte load — a full 100-rack matrix is 20 KB and stays in L1/L2
    /// for the whole run. Guarded by the `topology/ell_lookup` bench point
    /// in `micro_substrates`.
    #[inline]
    pub fn dist(&self, i: NodeId, j: NodeId) -> u16 {
        self.d[i as usize * self.n + j as usize]
    }

    /// Distance `ℓ_e` of a pair (one [`dist`](Self::dist) lookup; the
    /// endpoint extraction is two shift/masks on the packed pair).
    #[inline]
    pub fn ell(&self, pair: Pair) -> u16 {
        self.dist(pair.lo(), pair.hi())
    }

    /// Maximum pairwise distance (`ℓ_max`).
    #[inline]
    pub fn max_dist(&self) -> u16 {
        self.max
    }

    /// Mean distance over distinct rack pairs.
    pub fn mean_dist(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let sum: u64 = (0..self.n)
            .flat_map(|i| ((i + 1)..self.n).map(move |j| (i, j)))
            .map(|(i, j)| self.d[i * self.n + j] as u64)
            .sum();
        sum as f64 / (self.n * (self.n - 1) / 2) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn fat_tree_distance_classes() {
        let net = builders::fat_tree(4);
        let dm = DistanceMatrix::between_racks(&net);
        // Same pod (racks 0,1): edge->agg->edge = 2; cross pod: 4.
        assert_eq!(dm.dist(0, 1), 2);
        assert_eq!(dm.dist(0, 2), 4);
        assert_eq!(dm.dist(0, 0), 0);
        assert_eq!(dm.max_dist(), 4);
    }

    #[test]
    fn leaf_spine_all_two() {
        let net = builders::leaf_spine(8, 3);
        let dm = DistanceMatrix::between_racks(&net);
        for i in 0..8u32 {
            for j in 0..8u32 {
                assert_eq!(dm.dist(i, j), if i == j { 0 } else { 2 });
            }
        }
    }

    #[test]
    fn star_distances() {
        let net = builders::star(4);
        let dm = DistanceMatrix::between_racks(&net);
        for i in 1..5u32 {
            assert_eq!(dm.dist(0, i), 1);
            for j in 1..5u32 {
                if i != j {
                    assert_eq!(dm.dist(i, j), 2);
                }
            }
        }
    }

    #[test]
    fn ring_closed_form() {
        let n = 11usize;
        let net = builders::ring(n);
        let dm = DistanceMatrix::between_racks(&net);
        for i in 0..n {
            for j in 0..n {
                let lin = (i as i64 - j as i64).unsigned_abs() as usize;
                let expected = lin.min(n - lin) as u16;
                assert_eq!(dm.dist(i as NodeId, j as NodeId), expected);
            }
        }
    }

    #[test]
    fn uniform_matrix() {
        let dm = DistanceMatrix::uniform(5);
        assert_eq!(dm.dist(0, 0), 0);
        assert_eq!(dm.dist(0, 4), 1);
        assert_eq!(dm.max_dist(), 1);
        assert_eq!(dm.mean_dist(), 1.0);
    }

    #[test]
    fn ell_uses_pair_endpoints() {
        let net = builders::fat_tree(4);
        let dm = DistanceMatrix::between_racks(&net);
        assert_eq!(dm.ell(Pair::new(1, 0)), dm.dist(0, 1));
    }

    #[test]
    fn mean_dist_on_complete() {
        let net = builders::complete(10);
        let dm = DistanceMatrix::between_racks(&net);
        assert!((dm.mean_dist() - 1.0).abs() < 1e-12);
    }
}
