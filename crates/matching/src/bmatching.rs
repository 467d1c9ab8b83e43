//! The dynamic b-matching `M` that online algorithms reconfigure.
//!
//! Invariant (§1.1): every node has at most `b` incident matching edges.
//! The structure is a **flat, index-addressed layout**: one degree counter
//! per node plus a fixed-stride adjacency array (node `v`'s incident edges
//! live in the contiguous block `v·b .. v·b + degree[v]`), and a
//! [`PairTable`] that names each matched edge's position in both of its
//! blocks. Membership is one load of that table and removal goes straight
//! to the two known positions, so no operation scans a block, hashes (up
//! to [`DENSE_RACK_LIMIT`] racks) or allocates.
//!
//! Insert appends to both blocks and removal swap-removes (the block's
//! last edge fills the hole, and its table entry follows). That order
//! evolution is part of the contract: callers that scan `incident_edges`
//! for a victim (R-BMA's lazy prune) and BMA's LRU, whose stamp slots are
//! block positions, depend on it.
//!
//! The surface covers both R-BMA's lazy-removal mode (callers pick which
//! incident edge to prune) and BMA's counter-driven evictions.
//!
//! [`DENSE_RACK_LIMIT`]: dcn_topology::pair::DENSE_RACK_LIMIT

use dcn_topology::{NodeId, Pair, PairTable};

/// Filler for adjacency slots beyond a node's degree; never read.
#[inline]
fn slot_filler() -> Pair {
    Pair::new(0, 1)
}

/// A degree-capped dynamic edge set over racks `0..n`.
///
/// ```
/// use dcn_matching::BMatching;
/// use dcn_topology::Pair;
///
/// let mut m = BMatching::new(4, 1); // 4 racks, one circuit each
/// assert!(m.try_insert(Pair::new(0, 1)));
/// assert!(!m.try_insert(Pair::new(1, 2)), "rack 1 is at capacity");
/// assert!(m.remove(Pair::new(0, 1)));
/// assert!(m.try_insert(Pair::new(1, 2)));
/// m.assert_valid();
/// ```
#[derive(Clone, Debug)]
pub struct BMatching {
    cap: usize,
    len: usize,
    /// Incident-edge count per node (index-addressed by rack id).
    degree: Vec<u32>,
    /// Fixed-stride adjacency: node `v`'s incident edges occupy
    /// `incident[v * cap .. v * cap + degree[v]]`.
    incident: Vec<Pair>,
    /// Each matched edge's position in its `lo` and its `hi` block, each
    /// stored plus one so that a present entry is never the table's
    /// all-zero "absent"; unmatched pairs have no entry.
    positions: PairTable<[u32; 2]>,
}

impl BMatching {
    /// Empty matching over `n` racks with degree cap `b ≥ 1`.
    pub fn new(n: usize, b: usize) -> Self {
        assert!(b >= 1, "degree cap must be positive");
        Self {
            cap: b,
            len: 0,
            degree: vec![0; n],
            incident: vec![slot_filler(); n * b],
            positions: PairTable::new(n),
        }
    }

    /// Degree cap `b`.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.degree.len()
    }

    /// Number of matching edges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the matching is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node `v`'s adjacency block (valid prefix only).
    #[inline]
    fn block(&self, v: NodeId) -> &[Pair] {
        let v = v as usize;
        &self.incident[v * self.cap..v * self.cap + self.degree[v] as usize]
    }

    /// Whether `pair` is a matching edge: one load of the position table.
    #[inline]
    pub fn contains(&self, pair: Pair) -> bool {
        self.positions.get(pair)[0] != 0
    }

    /// Where matching edge `pair` sits: its index in the `lo` endpoint's
    /// [`incident_edges`](Self::incident_edges) and in the `hi` endpoint's;
    /// `None` if `pair` is not a matching edge.
    #[inline]
    pub fn positions(&self, pair: Pair) -> Option<[usize; 2]> {
        let [lo, hi] = self.positions.get(pair);
        (lo != 0).then(|| [lo as usize - 1, hi as usize - 1])
    }

    /// Current number of matching edges incident to `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.degree[v as usize] as usize
    }

    /// Whether `pair` could be inserted without violating the degree cap.
    pub fn can_insert(&self, pair: Pair) -> bool {
        !self.contains(pair)
            && self.degree(pair.lo()) < self.cap
            && self.degree(pair.hi()) < self.cap
    }

    /// Appends `pair` to `v`'s block (caller checked cap and absence);
    /// returns its position there plus one, as the table stores it.
    #[inline]
    fn push_incident(&mut self, v: NodeId, pair: Pair) -> u32 {
        let v = v as usize;
        self.incident[v * self.cap + self.degree[v] as usize] = pair;
        self.degree[v] += 1;
        self.degree[v]
    }

    /// Inserts `pair` if absent and within the cap; returns whether inserted.
    pub fn try_insert(&mut self, pair: Pair) -> bool {
        if !self.can_insert(pair) {
            return false;
        }
        let lo = self.push_incident(pair.lo(), pair);
        let hi = self.push_incident(pair.hi(), pair);
        self.positions.set(pair, [lo, hi]);
        self.len += 1;
        true
    }

    /// Inserts `pair`; panics if present or over the cap (use when the caller
    /// has already made room — a violated cap is an algorithm bug).
    pub fn insert(&mut self, pair: Pair) {
        assert!(
            self.try_insert(pair),
            "insert of {pair} violates b-matching invariant"
        );
    }

    /// Swap-removes position `pos` of `v`'s block: the block's last edge
    /// fills the hole, and its table entry at `v` follows it there.
    #[inline]
    fn remove_incident(&mut self, v: NodeId, pos: usize) {
        let base = v as usize * self.cap;
        let d = &mut self.degree[v as usize];
        *d -= 1;
        let last = *d as usize;
        if pos != last {
            let moved = self.incident[base + last];
            self.incident[base + pos] = moved;
            self.positions.get_mut(moved)[(v == moved.hi()) as usize] = pos as u32 + 1;
        }
    }

    /// Removes `pair`; returns whether it was present.
    pub fn remove(&mut self, pair: Pair) -> bool {
        let Some([lo, hi]) = self.positions(pair) else {
            return false;
        };
        self.remove_incident(pair.lo(), lo);
        self.remove_incident(pair.hi(), hi);
        self.positions.set(pair, [0, 0]);
        self.len -= 1;
        true
    }

    /// The matching edges incident to `v` (unspecified order).
    pub fn incident_edges(&self, v: NodeId) -> &[Pair] {
        self.block(v)
    }

    /// Iterates over all matching edges (unspecified order). Each edge sits
    /// in two blocks; it is yielded from its `lo` endpoint's block only.
    pub fn edges(&self) -> impl Iterator<Item = Pair> + '_ {
        (0..self.degree.len() as NodeId)
            .flat_map(move |v| self.block(v).iter().copied().filter(move |p| p.lo() == v))
    }

    /// Removes all edges, dropping each one's table entry.
    pub fn clear(&mut self) {
        for (v, &d) in self.degree.iter().enumerate() {
            let block = &self.incident[v * self.cap..v * self.cap + d as usize];
            for &e in block.iter().filter(|e| e.lo() as usize == v) {
                self.positions.set(e, [0, 0]);
            }
        }
        self.degree.fill(0);
        self.len = 0;
    }

    /// Exhaustive invariant check (O(n·b) plus one pass over the position
    /// table); used by tests and debug builds.
    pub fn assert_valid(&self) {
        let mut counted = 0usize;
        for v in 0..self.degree.len() as NodeId {
            let block = self.block(v);
            assert!(block.len() <= self.cap, "degree cap violated at {v}");
            for (i, &e) in block.iter().enumerate() {
                assert!(e.contains(v), "foreign edge {e} in block of {v}");
                assert_eq!(
                    self.positions.get(e)[(v == e.hi()) as usize] as usize,
                    i + 1,
                    "position of {e} at {v} out of sync"
                );
                counted += 1;
            }
        }
        assert_eq!(counted, 2 * self.len, "edge count out of sync");
        // Every table entry names its edge in both blocks; with the loop
        // above, blocks and table hold the same edges, each once.
        let mut entries = 0usize;
        for (e, [lo, hi]) in self.positions.iter() {
            for (v, pos) in [(e.lo(), lo), (e.hi(), hi)] {
                assert!(
                    pos != 0 && self.block(v).get(pos as usize - 1) == Some(&e),
                    "table entry of {e} at {v} names no block slot"
                );
            }
            entries += 1;
        }
        assert_eq!(entries, self.len, "position table holds stale entries");
    }
}

/// Checks that `edges` forms a valid b-matching (no duplicates, degrees ≤ b).
pub fn is_valid_b_matching(edges: &[Pair], b: usize) -> bool {
    let mut degree: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
    let mut seen = std::collections::HashSet::new();
    for &e in edges {
        if !seen.insert(e) {
            return false;
        }
        for v in [e.lo(), e.hi()] {
            let d = degree.entry(v).or_insert(0);
            *d += 1;
            if *d > b {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(a, b)
    }

    #[test]
    fn insert_respects_cap() {
        let mut m = BMatching::new(4, 1);
        assert!(m.try_insert(p(0, 1)));
        assert!(!m.try_insert(p(1, 2)), "degree of 1 would exceed cap");
        assert!(m.try_insert(p(2, 3)));
        assert_eq!(m.len(), 2);
        m.assert_valid();
    }

    #[test]
    fn b_two_allows_two_edges_per_node() {
        let mut m = BMatching::new(4, 2);
        assert!(m.try_insert(p(0, 1)));
        assert!(m.try_insert(p(0, 2)));
        assert!(!m.try_insert(p(0, 3)));
        assert_eq!(m.degree(0), 2);
        m.assert_valid();
    }

    #[test]
    fn remove_frees_capacity() {
        let mut m = BMatching::new(3, 1);
        m.insert(p(0, 1));
        assert!(m.remove(p(0, 1)));
        assert!(!m.remove(p(0, 1)));
        assert!(m.try_insert(p(0, 2)));
        m.assert_valid();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut m = BMatching::new(3, 2);
        assert!(m.try_insert(p(0, 1)));
        assert!(!m.try_insert(p(1, 0)), "same unordered pair");
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "violates b-matching invariant")]
    fn hard_insert_panics_over_cap() {
        let mut m = BMatching::new(3, 1);
        m.insert(p(0, 1));
        m.insert(p(1, 2));
    }

    #[test]
    fn incident_edges_tracked() {
        let mut m = BMatching::new(5, 3);
        m.insert(p(0, 1));
        m.insert(p(0, 2));
        m.insert(p(0, 3));
        let mut inc: Vec<Pair> = m.incident_edges(0).to_vec();
        inc.sort();
        assert_eq!(inc, vec![p(0, 1), p(0, 2), p(0, 3)]);
        assert_eq!(m.incident_edges(4), &[]);
    }

    #[test]
    fn clear_resets() {
        let mut m = BMatching::new(3, 1);
        m.insert(p(0, 1));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.degree(0), 0);
        assert!(m.try_insert(p(0, 2)));
    }

    #[test]
    fn incident_order_is_append_and_swap_remove() {
        // R-BMA's lazy prune scans incident_edges in order and removes the
        // first marked hit, so the block's order evolution (append on
        // insert, swap-with-last on remove) is load-bearing: pin it.
        let mut m = BMatching::new(6, 4);
        for v in [1u32, 2, 3, 4] {
            m.insert(p(0, v));
        }
        assert_eq!(m.incident_edges(0), &[p(0, 1), p(0, 2), p(0, 3), p(0, 4)]);
        m.remove(p(0, 2)); // swap-remove: last edge fills the hole
        assert_eq!(m.incident_edges(0), &[p(0, 1), p(0, 4), p(0, 3)]);
        m.insert(p(0, 5)); // append at the tail
        assert_eq!(m.incident_edges(0), &[p(0, 1), p(0, 4), p(0, 3), p(0, 5)]);
        m.assert_valid();
    }

    #[test]
    fn edges_iterates_each_edge_once_after_churn() {
        let mut m = BMatching::new(8, 3);
        for i in 0..200u32 {
            let a = i % 8;
            let b = (a + 1 + i % 7) % 8;
            if a == b {
                continue;
            }
            let pair = p(a, b);
            if m.contains(pair) {
                m.remove(pair);
            } else {
                let _ = m.try_insert(pair);
            }
        }
        let listed: Vec<Pair> = m.edges().collect();
        assert_eq!(listed.len(), m.len());
        let distinct: std::collections::HashSet<Pair> = listed.iter().copied().collect();
        assert_eq!(distinct.len(), listed.len(), "edges() must not duplicate");
        for e in &distinct {
            assert!(m.contains(*e));
        }
        m.assert_valid();
    }

    #[test]
    fn validity_checker() {
        assert!(is_valid_b_matching(&[p(0, 1), p(2, 3)], 1));
        assert!(!is_valid_b_matching(&[p(0, 1), p(1, 2)], 1));
        assert!(is_valid_b_matching(&[p(0, 1), p(1, 2)], 2));
        assert!(
            !is_valid_b_matching(&[p(0, 1), p(0, 1)], 5),
            "duplicate edge"
        );
    }
}
