//! Unordered rack pairs — the request/matching-edge currency of the model.
//!
//! A request is a pair `{s, t} ∈ V²` (§1.1); a matching edge is likewise an
//! unordered pair. `Pair` normalizes the order and packs into a `u64` so it
//! can serve as a cheap hash key throughout the workspace. [`PairTable`] is
//! the per-pair state store the online schedulers keep: a flat array by
//! pair id up to [`DENSE_RACK_LIMIT`] racks, a hash map beyond.

use crate::graph::NodeId;
use dcn_util::FxHashMap;

/// An unordered pair of distinct rack indices, stored with `lo() < hi()`.
///
/// Layout contract (audited for the batched serve path): `repr(transparent)`
/// over the packed `u64`, so a `[Pair]` batch buffer is a flat `u64` array —
/// equality is one integer compare, and the accessors below compile to a
/// shift/mask each (all `#[inline]`, no bounds checks).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Pair(u64);

impl Pair {
    /// Creates a pair; panics if `a == b` (requests are between distinct racks).
    #[inline]
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert!(a != b, "pair endpoints must differ (got {a})");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        Pair(((lo as u64) << 32) | hi as u64)
    }

    /// Smaller endpoint.
    #[inline]
    pub fn lo(self) -> NodeId {
        (self.0 >> 32) as NodeId
    }

    /// Larger endpoint.
    #[inline]
    pub fn hi(self) -> NodeId {
        self.0 as NodeId
    }

    /// Both endpoints as `(lo, hi)`.
    #[inline]
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.lo(), self.hi())
    }

    /// Given one endpoint, returns the other; panics if `v` is not an endpoint.
    #[inline]
    pub fn other(self, v: NodeId) -> NodeId {
        if v == self.lo() {
            self.hi()
        } else if v == self.hi() {
            self.lo()
        } else {
            panic!("{v} is not an endpoint of {self:?}")
        }
    }

    /// Whether `v` is one of the endpoints.
    #[inline]
    pub fn contains(self, v: NodeId) -> bool {
        v == self.lo() || v == self.hi()
    }

    /// Packed representation (usable as a dense/stable key).
    #[inline]
    pub fn packed(self) -> u64 {
        self.0
    }

    /// Rebuilds from [`Pair::packed`].
    #[inline]
    pub fn from_packed(packed: u64) -> Self {
        let p = Pair(packed);
        debug_assert!(p.lo() < p.hi());
        p
    }
}

impl std::fmt::Display for Pair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}, {}}}", self.lo(), self.hi())
    }
}

/// Above this rack count per-pair stores are not worth a flat array of n²
/// slots (8 MiB of 8-byte values at the limit) and hash instead.
pub const DENSE_RACK_LIMIT: usize = 1024;

/// Whether a [`PairTable`] over `n` racks is a flat array indexed by pair
/// id `lo·n + hi` rather than a hash map.
fn dense_pair_ids(n: usize) -> bool {
    (1..=DENSE_RACK_LIMIT).contains(&n)
}

/// Per-pair values where `V::default()` means "absent".
///
/// Up to [`DENSE_RACK_LIMIT`] racks the table is one flat array indexed by
/// pair id `lo·n + hi`, so every lookup is one indexed load; above the
/// limit it is an `FxHashMap`, with identical results. The array starts
/// out as all defaults; for integers and arrays of them the standard
/// library makes that one zeroed allocation, so pages that no written
/// entry lands on never become resident.
///
/// ```
/// use dcn_topology::pair::{Pair, PairTable};
///
/// let mut t = PairTable::<u64>::new(4);
/// let p = Pair::new(3, 1);
/// assert_eq!(t.get(p), 0, "absent reads as the default");
/// *t.get_mut(p) += 5;
/// assert_eq!(t.get(p), 5);
/// t.set(p, 0);
/// assert_eq!(t.iter().count(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct PairTable<V> {
    /// Rack count of the dense id space; 0 = hash representation.
    n: usize,
    /// Dense representation: entry `lo·n + hi`.
    dense: Vec<V>,
    /// Sparse representation above [`DENSE_RACK_LIMIT`] racks.
    hash: FxHashMap<Pair, V>,
}

impl<V: Copy + Default + PartialEq> PairTable<V> {
    /// Empty table over racks `0..n`.
    pub fn new(n: usize) -> Self {
        let n = if dense_pair_ids(n) { n } else { 0 };
        Self {
            n,
            dense: vec![V::default(); n * n],
            hash: FxHashMap::default(),
        }
    }

    #[inline]
    fn id(&self, pair: Pair) -> usize {
        debug_assert!(
            (pair.hi() as usize) < self.n,
            "{pair} outside {} racks",
            self.n
        );
        pair.lo() as usize * self.n + pair.hi() as usize
    }

    /// `pair`'s value; the default if absent.
    #[inline]
    pub fn get(&self, pair: Pair) -> V {
        if self.n != 0 {
            self.dense[self.id(pair)]
        } else {
            self.hash_get(pair)
        }
    }

    /// `pair`'s value for update in place (the hash side inserts the
    /// default first if absent).
    #[inline]
    pub fn get_mut(&mut self, pair: Pair) -> &mut V {
        if self.n != 0 {
            let id = self.id(pair);
            &mut self.dense[id]
        } else {
            self.hash_get_mut(pair)
        }
    }

    /// Sets `pair`'s value; setting the default removes the entry.
    #[inline]
    pub fn set(&mut self, pair: Pair, value: V) {
        if self.n != 0 {
            let id = self.id(pair);
            self.dense[id] = value;
        } else {
            self.hash_set(pair, value);
        }
    }

    // The hash side stays out of line, so that callers inline only the few
    // instructions of the dense path: inlined, its probe and insertion code
    // cost R-BMA's per-request counter bump extra register saves.

    #[inline(never)]
    fn hash_get(&self, pair: Pair) -> V {
        self.hash.get(&pair).copied().unwrap_or_default()
    }

    #[inline(never)]
    fn hash_get_mut(&mut self, pair: Pair) -> &mut V {
        self.hash.entry(pair).or_default()
    }

    #[inline(never)]
    fn hash_set(&mut self, pair: Pair, value: V) {
        if value == V::default() {
            self.hash.remove(&pair);
        } else {
            self.hash.insert(pair, value);
        }
    }

    /// The present entries, in unspecified order. O(n²) on the dense
    /// side: for tests and diagnostics, not the hot path.
    pub fn iter(&self) -> impl Iterator<Item = (Pair, V)> + '_ {
        let n = self.n;
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter(|&(_, v)| *v != V::default())
            .map(move |(id, &v)| (Pair::new((id / n) as NodeId, (id % n) as NodeId), v));
        let hash = self
            .hash
            .iter()
            .filter(|&(_, v)| *v != V::default())
            .map(|(&pair, &v)| (pair, v));
        dense.chain(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_order() {
        assert_eq!(Pair::new(3, 7), Pair::new(7, 3));
        assert_eq!(Pair::new(3, 7).lo(), 3);
        assert_eq!(Pair::new(3, 7).hi(), 7);
    }

    #[test]
    fn other_endpoint() {
        let p = Pair::new(2, 9);
        assert_eq!(p.other(2), 9);
        assert_eq!(p.other(9), 2);
        assert!(p.contains(2) && p.contains(9) && !p.contains(5));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_rejects_non_endpoint() {
        Pair::new(2, 9).other(4);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn rejects_degenerate() {
        Pair::new(5, 5);
    }

    #[test]
    fn packed_roundtrip() {
        let p = Pair::new(123, 456);
        assert_eq!(Pair::from_packed(p.packed()), p);
    }

    #[test]
    fn display() {
        assert_eq!(Pair::new(9, 2).to_string(), "{2, 9}");
    }

    #[test]
    fn pair_table_dense_and_hash_sides_agree() {
        for n in [DENSE_RACK_LIMIT, DENSE_RACK_LIMIT + 1] {
            let mut t = PairTable::<u64>::new(n);
            let (a, b) = (Pair::new(0, n as u32 - 1), Pair::new(7, 3));
            *t.get_mut(a) += 4;
            t.set(b, 9);
            *t.get_mut(b) += 1;
            assert_eq!((t.get(a), t.get(b), t.get(Pair::new(1, 2))), (4, 10, 0));
            let mut present: Vec<_> = t.iter().collect();
            present.sort_unstable();
            assert_eq!(present, vec![(a, 4), (b, 10)], "{n} racks");
            t.set(a, 0);
            assert_eq!(t.iter().collect::<Vec<_>>(), vec![(b, 10)], "{n} racks");
        }
    }
}
