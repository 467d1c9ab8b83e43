//! Exact maximum-weight matching in general graphs — Edmonds' blossom
//! algorithm in the O(n³) primal–dual formulation (Galil \[31\]).
//!
//! This is a Rust port of the classic `mwmatching` formulation by Joris van
//! Rantwijk, which is also the implementation behind NetworkX's
//! `max_weight_matching` — i.e. *exactly* the routine the paper's SO-BMA
//! baseline invokes (§3.1). The port keeps the original's structure and its
//! order of operations (stages, dual adjustment with four delta types,
//! blossom creation/expansion, least-slack edge tracking) so that it can be
//! audited against the reference. Only the data layout is its own:
//!
//! * one CSR adjacency, built by a stable counting sort, whose slots carry
//!   the remote endpoint, the remote vertex and twice the edge weight, so
//!   the adjacency scan prices an edge without reading the edge arrays;
//! * the scan's bookkeeping for non-tight edges runs in a flat inner loop
//!   that keeps the scanning vertex's least-slack S–S edge in locals (duals
//!   do not move during a scan) and reads other vertices' least slacks from
//!   a cache refreshed after every dual adjustment;
//! * the scan skips the slots to free vertices, which on SO-BMA's dense
//!   demand graphs are most of them. Every free vertex is an S-root of
//!   every stage, so all free vertices share one dual, and a scanner's
//!   free-neighbour slacks are ordered by weight alone. A per-slot bitset
//!   says which slots lead to matched vertices, and the loop visits only
//!   those, in adjacency order. Each vertex caches its first heaviest free
//!   neighbour, which is stale only once that neighbour is matched (two
//!   vertices per augmentation); it is the free slots' one least-slack
//!   candidate and merges by (slack, slot position), as if visited. Where
//!   it cannot stand for the slots in range, the scan takes the heaviest
//!   free slot in range, or, when a free neighbour is tight, visits every
//!   slot as the reference does;
//! * the dual adjustment picks its delta from that same least-slack cache,
//!   and walks the blossom ids (`n..2n`) only while a blossom is alive,
//!   which on SO-BMA's graphs is rarely;
//! * no allocation per event: leaf lists, paths and the least-slack merge
//!   use buffers owned by the solver, and `repeated_mwm_rounds` keeps one
//!   solver across its `b` rounds.
//!
//! **Contract: identical mates, not just equal weight.** For every input the
//! matcher returns exactly the mate vector of the original port, which
//! `tests/blossom_reference.rs` keeps verbatim as a test-only reference.
//! SO-BMA needs this: most demand edges tie with another edge's weight, and
//! round `r + 1` of `repeated_mwm_rounds` runs on the edges round `r` left,
//! so one different tie-break changes every later round, the SO-BMA series,
//! and the figures built from it.
//!
//! Validation: `tests/blossom_reference.rs` checks identical mate vectors in
//! a 400-case proptest (4–40 vertices, 10–100% density, weights from `1..=2`,
//! `1..=4` or `1..=1000`, shuffled edge order), on the hand-written blossom,
//! T-relabel and nested cases below, round by round on a Fig. 1-shaped
//! b = 18 instance, and in a proptest of `repeated_mwm_rounds` at figure
//! scale (60–100 vertices, ≥ 80% density, tie-heavy weights). The unit
//! tests below compare the weight with a brute-force optimum on 200 random
//! graphs, `tests/matching_properties.rs` does the same in a 64-case
//! proptest, and every debug-build call checks an independent
//! complementary-slackness optimality certificate and bounds the dual
//! adjustments of each stage.
//!
//! Weights must be integers (`i64`) no larger than [`MAX_WEIGHT`]; the
//! algorithm then runs entirely in integer arithmetic (the S-S edge slack is
//! provably even when weights are integral, which the implementation
//! debug-asserts).

use crate::WeightedEdge;
use dcn_topology::Pair;

const NONE: usize = usize::MAX;

/// The largest edge weight the matcher accepts: `i64::MAX / 8`.
///
/// The solver keeps doubled duals (an edge's slack is `π_i + π_j − 2·w`).
/// With `W` the largest weight, every value it computes stays within `6·W`:
///
/// * vertex duals start at `W`, never drop below 0 (delta type 1), and
///   never exceed `2·W`: a matched vertex's edge is tight, so its dual is at
///   most twice that edge's weight minus non-negative duals;
/// * a blossom contains a tight matched edge, so the duals of the blossoms
///   nested around any edge sum to at most `W`;
/// * a slack therefore lies in `−2·W..=4·W`, and the optimality certificate
///   adds at most `2·W` of blossom duals to it.
///
/// At `W = i64::MAX / 8` that is at most `0.75 · i64::MAX`, so no sum
/// overflows.
pub const MAX_WEIGHT: i64 = i64::MAX / 8;

/// Computes a maximum-weight matching; returns `mate[v] = Some(w)` iff edge
/// `{v, w}` is matched. The matching maximizes total weight (it is *not*
/// required to have maximum cardinality). Edges with non-positive weight are
/// never matched.
///
/// Panics if an edge references a vertex `>= n`, has equal endpoints, or
/// weighs more than [`MAX_WEIGHT`].
///
/// ```
/// use dcn_matching::{max_weight_matching, WeightedEdge};
///
/// // Path 0-1-2-3 with weights 3, 4, 3: the outer edges win (3+3 > 4).
/// let edges = [
///     WeightedEdge::new(0, 1, 3),
///     WeightedEdge::new(1, 2, 4),
///     WeightedEdge::new(2, 3, 3),
/// ];
/// let mate = max_weight_matching(4, &edges);
/// assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
/// ```
pub fn max_weight_matching(n: usize, edges: &[WeightedEdge]) -> Vec<Option<u32>> {
    let mut m = Matcher::default();
    if !m.run(n, edges) {
        return vec![None; n];
    }
    (0..n)
        .map(|v| (m.mate[v] != NONE).then(|| m.endpoint[m.mate[v]] as u32))
        .collect()
}

/// Like [`max_weight_matching`] but returns the matched pairs directly.
pub fn max_weight_matching_pairs(n: usize, edges: &[WeightedEdge]) -> Vec<Pair> {
    Matcher::default().matching_pairs(n, edges)
}

/// One adjacency slot of vertex `v`: an edge `{v, w}` seen from `v`.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Remote endpoint `p` (edge `p / 2`; `endpoint[p] == w`).
    p: u32,
    /// Remote vertex `w`.
    w: u32,
    /// Twice the edge's weight.
    wt2: i64,
}

/// Solver state and workspace; field names follow the reference
/// implementation. One `Matcher` can solve any number of instances: each
/// [`Matcher::run`] refills its buffers, so repeated calls allocate only
/// when an instance outgrows them.
#[derive(Default)]
pub(crate) struct Matcher {
    nvertex: usize,
    nedge: usize,
    /// endpoint[p]: vertex at directed endpoint p (edge p/2, side p%2).
    endpoint: Vec<usize>,
    /// wt2[k]: twice the weight of edge k.
    wt2: Vec<i64>,
    /// CSR adjacency: v's edges are `adj[adjstart[v]..adjstart[v + 1]]`, in
    /// input order (the reference's `neighbend[v]`).
    adjstart: Vec<usize>,
    adj: Vec<Slot>,
    /// slot_of[p]: the slot whose remote endpoint is p, so slot s's twin
    /// (the same edge seen from the other end) is `slot_of[adj[s].p ^ 1]`.
    slot_of: Vec<usize>,
    /// Bit s is set iff slot s's remote vertex is matched. Set at the start
    /// of the stage after the augmentation that matched it.
    remote_matched: Vec<u64>,
    /// Vertices whose slots `remote_matched` still calls free.
    unmarked: Vec<usize>,
    /// heaviest[v]: v's first slot of greatest weight among those to free
    /// vertices, NONE if v has none; stale once that slot's vertex is
    /// matched, which its `remote_matched` bit then says.
    heaviest: Vec<usize>,
    /// mate[v]: remote *endpoint* of matched edge, or NONE.
    mate: Vec<usize>,
    /// label[b] for vertex/blossom b: 0 free, 1 S, 2 T, 5 breadcrumb.
    label: Vec<u8>,
    /// labelend[b]: endpoint through which the label was acquired.
    labelend: Vec<usize>,
    /// inblossom[v]: top-level blossom containing vertex v.
    inblossom: Vec<usize>,
    blossomparent: Vec<usize>,
    blossomchilds: Vec<Vec<usize>>,
    blossombase: Vec<usize>,
    blossomendps: Vec<Vec<usize>>,
    /// bestedge[b]: least-slack edge to a different S-blossom.
    bestedge: Vec<usize>,
    /// bestslack[b] == slack(bestedge[b]) whenever bestedge[b] != NONE;
    /// refreshed after every dual adjustment.
    bestslack: Vec<i64>,
    /// blossombestedges[b]: the reference's `Some(list)` when
    /// `hasbestedges[b]`, its `None` otherwise.
    blossombestedges: Vec<Vec<usize>>,
    hasbestedges: Vec<bool>,
    unusedblossoms: Vec<usize>,
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
    /// Scratch: leaf vertices of one blossom.
    leaves: Vec<usize>,
    /// Scratch: the breadcrumb path of `scan_blossom`.
    path: Vec<usize>,
    /// Scratch for `add_blossom`, all NONE between calls: least-slack edge
    /// from the new blossom to each neighbouring S-blossom.
    bestedgeto: Vec<usize>,
}

/// Appends the leaf vertices of blossom `b` to `out`, children in order.
fn push_leaves(childs: &[Vec<usize>], nvertex: usize, b: usize, out: &mut Vec<usize>) {
    if b < nvertex {
        out.push(b);
    } else {
        for &t in &childs[b] {
            push_leaves(childs, nvertex, t, out);
        }
    }
}

/// Clears `v` and refills it with `len` copies of `value`.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// Makes `v` hold `len` empty lists, keeping their allocations.
fn refill_lists(v: &mut Vec<Vec<usize>>, len: usize) {
    v.truncate(len);
    v.iter_mut().for_each(Vec::clear);
    v.resize_with(len, Vec::new);
}

/// Visits, in order, the slots in `from..end` whose bit in `bits` is set
/// (`set`) or clear (`!set`), up to the first for which `f` returns true;
/// returns that slot, or `end`.
fn find_slot(
    bits: &[u64],
    from: usize,
    end: usize,
    set: bool,
    mut f: impl FnMut(usize) -> bool,
) -> usize {
    if from >= end {
        return end;
    }
    let flip = if set { 0 } else { !0 };
    let (first, last) = (from / 64, (end - 1) / 64);
    for (i, &bits_i) in (first..).zip(&bits[first..=last]) {
        let mut word = bits_i ^ flip;
        if i == first {
            word &= !0 << (from % 64);
        }
        if i == last {
            word &= !0 >> (63 - (end - 1) % 64);
        }
        while word != 0 {
            let s = i * 64 + word.trailing_zeros() as usize;
            if f(s) {
                return s;
            }
            word &= word - 1;
        }
    }
    end
}

/// The first slot of greatest weight in `from..end` whose remote vertex is
/// free (its `bits` bit clear) and that `keep` accepts, or NONE.
fn first_heaviest_free(
    adj: &[Slot],
    bits: &[u64],
    from: usize,
    end: usize,
    keep: impl Fn(usize) -> bool,
) -> usize {
    let mut best = NONE;
    find_slot(bits, from, end, false, |s| {
        if keep(s) && (best == NONE || adj[s].wt2 > adj[best].wt2) {
            best = s;
        }
        false
    });
    best
}

impl Matcher {
    /// Solves `edges` on `n` vertices and returns the matched pairs, each
    /// as `(lo, hi)` in increasing order of `lo`.
    pub(crate) fn matching_pairs(&mut self, n: usize, edges: &[WeightedEdge]) -> Vec<Pair> {
        let mut pairs = Vec::new();
        if self.run(n, edges) {
            for v in 0..n {
                if self.mate[v] != NONE {
                    let w = self.endpoint[self.mate[v]];
                    if v < w {
                        pairs.push(Pair::new(v as u32, w as u32));
                    }
                }
            }
        }
        pairs
    }

    /// Loads the instance and solves it. Returns false (and solves nothing)
    /// when no edge has positive weight or `n == 0`: every vertex is free.
    fn run(&mut self, n: usize, edges: &[WeightedEdge]) -> bool {
        if !self.load(n, edges) {
            return false;
        }
        self.solve();
        debug_assert!(
            self.verify_optimum(),
            "blossom optimality certificate failed"
        );
        true
    }

    /// Validates `edges` and refills every buffer for a fresh solve.
    fn load(&mut self, n: usize, edges: &[WeightedEdge]) -> bool {
        for e in edges {
            assert!(e.u != e.v, "self-loop in matching input");
            assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "edge endpoint out of range"
            );
            assert!(
                e.weight <= MAX_WEIGHT,
                "edge weight {} above blossom::MAX_WEIGHT = i64::MAX / 8",
                e.weight
            );
        }
        // Non-positive edges can never be part of a maximum *weight*
        // matching; dropping them early keeps the dual start value tight.
        self.endpoint.clear();
        self.wt2.clear();
        let mut maxweight = 0;
        for e in edges.iter().filter(|e| e.weight > 0) {
            self.endpoint.push(e.u as usize);
            self.endpoint.push(e.v as usize);
            self.wt2.push(2 * e.weight);
            maxweight = maxweight.max(e.weight);
        }
        let nedge = self.wt2.len();
        if nedge == 0 || n == 0 {
            return false;
        }
        assert!(
            self.endpoint.len() <= u32::MAX as usize,
            "too many edges for the blossom matcher"
        );
        self.nvertex = n;
        self.nedge = nedge;

        // CSR by a stable counting sort: edge k lands in i's list as remote
        // endpoint 2k+1 and in j's as 2k, lists in increasing k — the order
        // the reference's `neighbend` pushes them in.
        refill(&mut self.adjstart, n + 1, 0);
        for &v in &self.endpoint {
            self.adjstart[v + 1] += 1;
        }
        for v in 0..n {
            self.adjstart[v + 1] += self.adjstart[v];
        }
        refill(&mut self.adj, 2 * nedge, Slot::default());
        refill(&mut self.slot_of, 2 * nedge, NONE);
        for k in 0..nedge {
            let (i, j, wt2) = (self.endpoint[2 * k], self.endpoint[2 * k + 1], self.wt2[k]);
            for (v, p, w) in [(i, 2 * k + 1, j), (j, 2 * k, i)] {
                // adjstart[v] serves as v's fill cursor here.
                self.adj[self.adjstart[v]] = Slot {
                    p: p as u32,
                    w: w as u32,
                    wt2,
                };
                self.slot_of[p] = self.adjstart[v];
                self.adjstart[v] += 1;
            }
        }
        // Each cursor now sits at the next list's start: shift them back.
        self.adjstart.copy_within(0..n, 1);
        self.adjstart[0] = 0;

        refill(&mut self.remote_matched, nedge.div_ceil(32), 0);
        self.unmarked.clear();
        self.unmarked.extend(0..n);
        self.heaviest.clear();
        for v in 0..n {
            let (from, end) = (self.adjstart[v], self.adjstart[v + 1]);
            let h = first_heaviest_free(&self.adj, &self.remote_matched, from, end, |_| true);
            self.heaviest.push(h);
        }
        refill(&mut self.mate, n, NONE);
        refill(&mut self.label, 2 * n, 0);
        refill(&mut self.labelend, 2 * n, NONE);
        self.inblossom.clear();
        self.inblossom.extend(0..n);
        refill(&mut self.blossomparent, 2 * n, NONE);
        refill_lists(&mut self.blossomchilds, 2 * n);
        self.blossombase.clear();
        self.blossombase.extend(0..n);
        self.blossombase.resize(2 * n, NONE);
        refill_lists(&mut self.blossomendps, 2 * n);
        refill(&mut self.bestedge, 2 * n, NONE);
        refill(&mut self.bestslack, 2 * n, 0);
        refill_lists(&mut self.blossombestedges, 2 * n);
        refill(&mut self.hasbestedges, 2 * n, false);
        self.unusedblossoms.clear();
        self.unusedblossoms.extend(n..2 * n);
        refill(&mut self.dualvar, n, maxweight);
        self.dualvar.resize(2 * n, 0);
        refill(&mut self.allowedge, nedge, false);
        self.queue.clear();
        refill(&mut self.bestedgeto, 2 * n, NONE);
        true
    }

    /// Slack of edge k: π_i + π_j − 2·w_k (non-negative for tight duals).
    #[inline]
    fn slack(&self, k: usize) -> i64 {
        self.dualvar[self.endpoint[2 * k]] + self.dualvar[self.endpoint[2 * k + 1]] - self.wt2[k]
    }

    /// Refills `leaves` with the leaf vertices of blossom `b`, children in
    /// order. Callers pass the `leaves` scratch, taken out of the solver for
    /// the call and put back after use.
    fn leaves_into(&self, b: usize, leaves: &mut Vec<usize>) {
        leaves.clear();
        push_leaves(&self.blossomchilds, self.nvertex, b, leaves);
    }

    /// Assigns label `t` to vertex `w` (through endpoint `p`), propagating
    /// S-labels to mates of T-labeled bases.
    fn assign_label(&mut self, w: usize, t: u8, p: usize) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NONE;
        self.bestedge[b] = NONE;
        if t == 1 {
            push_leaves(&self.blossomchilds, self.nvertex, b, &mut self.queue);
        } else if t == 2 {
            let base = self.blossombase[b];
            debug_assert!(self.mate[base] != NONE);
            let mate_ep = self.mate[base];
            self.assign_label(self.endpoint[mate_ep], 1, mate_ep ^ 1);
        }
    }

    /// Traces back from S-vertices `v` and `w`; returns the base of a new
    /// blossom (common ancestor) or NONE if an augmenting path was found.
    fn scan_blossom(&mut self, mut v: usize, mut w: usize) -> usize {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut base = NONE;
        while v != NONE || w != NONE {
            let mut b = self.inblossom[v];
            if self.label[b] & 4 != 0 {
                base = self.blossombase[b];
                break;
            }
            debug_assert_eq!(self.label[b], 1);
            path.push(b);
            self.label[b] = 5;
            debug_assert_eq!(self.labelend[b], self.mate[self.blossombase[b]]);
            if self.labelend[b] == NONE {
                v = NONE;
            } else {
                v = self.endpoint[self.labelend[b]];
                b = self.inblossom[v];
                debug_assert_eq!(self.label[b], 2);
                debug_assert!(self.labelend[b] != NONE);
                v = self.endpoint[self.labelend[b]];
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for &b in &path {
            self.label[b] = 1;
        }
        self.path = path;
        base
    }

    /// Offers edge `k2`, seen from new blossom `b` towards vertex `j`, as
    /// the least-slack edge from `b` to `j`'s S-blossom.
    #[inline]
    fn offer_bestedgeto(&mut self, b: usize, j: usize, k2: usize) {
        let bj = self.inblossom[j];
        if bj != b
            && self.label[bj] == 1
            && (self.bestedgeto[bj] == NONE || self.slack(k2) < self.slack(self.bestedgeto[bj]))
        {
            self.bestedgeto[bj] = k2;
        }
    }

    /// Creates a new blossom with the given base, closed by edge `k`.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w) = (self.endpoint[2 * k], self.endpoint[2 * k + 1]);
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.unusedblossoms.pop().expect("blossom pool exhausted");
        self.blossombase[b] = base;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b;

        // The recycled id's lists are empty; build the new ones in place.
        let mut path = std::mem::take(&mut self.blossomchilds[b]);
        let mut endps = std::mem::take(&mut self.blossomendps[b]);
        debug_assert!(path.is_empty() && endps.is_empty());
        while bv != bb {
            self.blossomparent[bv] = b;
            path.push(bv);
            endps.push(self.labelend[bv]);
            debug_assert!(
                self.label[bv] == 2
                    || (self.label[bv] == 1
                        && self.labelend[bv] == self.mate[self.blossombase[bv]])
            );
            debug_assert!(self.labelend[bv] != NONE);
            v = self.endpoint[self.labelend[bv]];
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k);
        while bw != bb {
            self.blossomparent[bw] = b;
            path.push(bw);
            endps.push(self.labelend[bw] ^ 1);
            debug_assert!(
                self.label[bw] == 2
                    || (self.label[bw] == 1
                        && self.labelend[bw] == self.mate[self.blossombase[bw]])
            );
            debug_assert!(self.labelend[bw] != NONE);
            w = self.endpoint[self.labelend[bw]];
            bw = self.inblossom[w];
        }

        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dualvar[b] = 0;
        self.blossomchilds[b] = path;
        self.blossomendps[b] = endps;

        // Relabel the blossom's vertices; former T-vertices become S.
        let mut leaves = std::mem::take(&mut self.leaves);
        self.leaves_into(b, &mut leaves);
        for &lv in &leaves {
            if self.label[self.inblossom[lv]] == 2 {
                self.queue.push(lv);
            }
            self.inblossom[lv] = b;
        }

        // Merge least-slack edge lists of the sub-blossoms.
        for c in 0..self.blossomchilds[b].len() {
            let bv = self.blossomchilds[b][c];
            if self.hasbestedges[bv] {
                self.hasbestedges[bv] = false;
                let mut list = std::mem::take(&mut self.blossombestedges[bv]);
                for &k2 in &list {
                    let (i, j) = (self.endpoint[2 * k2], self.endpoint[2 * k2 + 1]);
                    let j = if self.inblossom[j] == b { i } else { j };
                    self.offer_bestedgeto(b, j, k2);
                }
                list.clear();
                self.blossombestedges[bv] = list;
            } else {
                // Every leaf is now in `b`, so the far end of a slot is
                // outside `b` exactly when the reference's swapped `j` is.
                self.leaves_into(bv, &mut leaves);
                for &lv in &leaves {
                    for s in self.adjstart[lv]..self.adjstart[lv + 1] {
                        let Slot { p, w, .. } = self.adj[s];
                        self.offer_bestedgeto(b, w as usize, p as usize / 2);
                    }
                }
            }
            self.bestedge[bv] = NONE;
        }
        self.leaves = leaves;
        let mut bel = std::mem::take(&mut self.blossombestedges[b]);
        bel.clear();
        for bj in 0..2 * self.nvertex {
            if self.bestedgeto[bj] != NONE {
                bel.push(self.bestedgeto[bj]);
                self.bestedgeto[bj] = NONE;
            }
        }
        self.bestedge[b] = NONE;
        for &k2 in &bel {
            if self.bestedge[b] == NONE || self.slack(k2) < self.slack(self.bestedge[b]) {
                self.bestedge[b] = k2;
            }
        }
        if self.bestedge[b] != NONE {
            self.bestslack[b] = self.slack(self.bestedge[b]);
        }
        self.blossombestedges[b] = bel;
        self.hasbestedges[b] = true;
    }

    /// Expands (dissolves) blossom `b`; if `endstage` is false, `b` is a
    /// T-blossom being expanded mid-stage and its children are relabeled.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        // Nothing below reads b's own lists, so they are borrowed out and
        // handed back, emptied, for the id's next use.
        let mut childs = std::mem::take(&mut self.blossomchilds[b]);
        let mut endps = std::mem::take(&mut self.blossomendps[b]);
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                let mut leaves = std::mem::take(&mut self.leaves);
                self.leaves_into(s, &mut leaves);
                for &lv in &leaves {
                    self.inblossom[lv] = s;
                }
                self.leaves = leaves;
            }
        }
        if !endstage && self.label[b] == 2 {
            let len = childs.len() as isize;
            let idx = |j: isize| -> usize { j.rem_euclid(len) as usize };
            debug_assert!(self.labelend[b] != NONE);
            let entrychild = self.inblossom[self.endpoint[self.labelend[b] ^ 1]];
            let mut j = childs
                .iter()
                .position(|&c| c == entrychild)
                .expect("entry child in blossom") as isize;
            let (jstep, endptrick): (isize, usize) = if j & 1 != 0 {
                j -= len;
                (1, 0)
            } else {
                (-1, 1)
            };
            let mut p = self.labelend[b];
            while j != 0 {
                // Relabel the T-sub-blossom.
                self.label[self.endpoint[p ^ 1]] = 0;
                let q = endps[idx(j - endptrick as isize)] ^ endptrick ^ 1;
                self.label[self.endpoint[q]] = 0;
                self.assign_label(self.endpoint[p ^ 1], 2, p);
                // Step to the next S-sub-blossom; its edges become allowed.
                self.allowedge[endps[idx(j - endptrick as isize)] / 2] = true;
                j += jstep;
                p = endps[idx(j - endptrick as isize)] ^ endptrick;
                self.allowedge[p / 2] = true;
                j += jstep;
            }
            // Relabel the base T-sub-blossom without stepping to its mate.
            let bv = childs[idx(j)];
            self.label[self.endpoint[p ^ 1]] = 2;
            self.label[bv] = 2;
            self.labelend[self.endpoint[p ^ 1]] = p;
            self.labelend[bv] = p;
            self.bestedge[bv] = NONE;
            // Continue along the blossom until back at entrychild, labeling
            // reached sub-blossoms T.
            j += jstep;
            while childs[idx(j)] != entrychild {
                let bv = childs[idx(j)];
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                let mut leaves = std::mem::take(&mut self.leaves);
                self.leaves_into(bv, &mut leaves);
                let reached = leaves.iter().copied().find(|&v| self.label[v] != 0);
                self.leaves = leaves;
                if let Some(v) = reached {
                    debug_assert_eq!(self.label[v], 2);
                    debug_assert_eq!(self.inblossom[v], bv);
                    self.label[v] = 0;
                    let base_mate = self.mate[self.blossombase[bv]];
                    self.label[self.endpoint[base_mate]] = 0;
                    let le = self.labelend[v];
                    self.assign_label(v, 2, le);
                }
                j += jstep;
            }
        }
        // Recycle the blossom id.
        childs.clear();
        endps.clear();
        self.blossomchilds[b] = childs;
        self.blossomendps[b] = endps;
        self.label[b] = 0;
        self.labelend[b] = NONE;
        self.blossombase[b] = NONE;
        self.hasbestedges[b] = false;
        self.blossombestedges[b].clear();
        self.bestedge[b] = NONE;
        self.unusedblossoms.push(b);
    }

    /// Swaps matched/unmatched edges along the path from vertex `v` (inside
    /// blossom `b`) to the blossom base, then rotates the blossom so `v`
    /// becomes the base.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.blossomparent[t] != b {
            t = self.blossomparent[t];
        }
        if t >= self.nvertex {
            self.augment_blossom(t, v);
        }
        // The recursion below only touches b's children, so b's lists are
        // borrowed out for the walk and rotated once handed back.
        let childs = std::mem::take(&mut self.blossomchilds[b]);
        let endps = std::mem::take(&mut self.blossomendps[b]);
        let len = childs.len() as isize;
        let idx = |j: isize| -> usize { j.rem_euclid(len) as usize };
        let i = childs
            .iter()
            .position(|&c| c == t)
            .expect("child in blossom");
        let mut j = i as isize;
        let (jstep, endptrick): (isize, usize) = if i & 1 != 0 {
            j -= len;
            (1, 0)
        } else {
            (-1, 1)
        };
        while j != 0 {
            j += jstep;
            let t1 = childs[idx(j)];
            let p = endps[idx(j - endptrick as isize)] ^ endptrick;
            if t1 >= self.nvertex {
                self.augment_blossom(t1, self.endpoint[p]);
            }
            j += jstep;
            let t2 = childs[idx(j)];
            if t2 >= self.nvertex {
                self.augment_blossom(t2, self.endpoint[p ^ 1]);
            }
            self.mate[self.endpoint[p]] = p ^ 1;
            self.mate[self.endpoint[p ^ 1]] = p;
        }
        self.blossomchilds[b] = childs;
        self.blossomendps[b] = endps;
        self.blossomchilds[b].rotate_left(i);
        self.blossomendps[b].rotate_left(i);
        self.blossombase[b] = self.blossombase[self.blossomchilds[b][0]];
        debug_assert_eq!(self.blossombase[b], v);
    }

    /// Augments the matching along the path through tight edge `k`.
    fn augment_matching(&mut self, k: usize) {
        let (v, w) = (self.endpoint[2 * k], self.endpoint[2 * k + 1]);
        for (mut s, mut p) in [(v, 2 * k + 1), (w, 2 * k)] {
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], 1);
                debug_assert_eq!(self.labelend[bs], self.mate[self.blossombase[bs]]);
                if bs >= self.nvertex {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p;
                if self.labelend[bs] == NONE {
                    break;
                }
                let t = self.endpoint[self.labelend[bs]];
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert!(self.labelend[bt] != NONE);
                s = self.endpoint[self.labelend[bt]];
                let j = self.endpoint[self.labelend[bt] ^ 1];
                debug_assert_eq!(self.blossombase[bt], t);
                if bt >= self.nvertex {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.labelend[bt];
                p = self.labelend[bt] ^ 1;
            }
        }
    }

    /// Sets the `remote_matched` bit of every slot that leads to a vertex
    /// the last augmentation matched. Matched vertices never become free
    /// again, so each vertex is marked once per solve.
    fn mark_newly_matched(&mut self) {
        let mut unmarked = std::mem::take(&mut self.unmarked);
        unmarked.retain(|&x| {
            if self.mate[x] == NONE {
                return true;
            }
            for s in self.adjstart[x]..self.adjstart[x + 1] {
                let twin = self.slot_of[self.adj[s].p as usize ^ 1];
                self.remote_matched[twin / 64] |= 1 << (twin % 64);
            }
            false
        });
        self.unmarked = unmarked;
    }

    /// v's first slot of greatest weight among those to free vertices, or
    /// NONE, refreshing `heaviest[v]` if its vertex has been matched.
    fn heaviest_free_slot(&mut self, v: usize) -> usize {
        let h = self.heaviest[v];
        if h != NONE && self.remote_matched[h / 64] >> (h % 64) & 1 == 1 {
            let (from, end) = (self.adjstart[v], self.adjstart[v + 1]);
            self.heaviest[v] =
                first_heaviest_free(&self.adj, &self.remote_matched, from, end, |_| true);
        }
        self.heaviest[v]
    }

    /// The adjacency scan of S-vertex `v` over slots `from..end`, up to the
    /// first edge it must act on. Non-tight edges only update least-slack
    /// bookkeeping, exactly as the reference's scan does, and are handled
    /// here; the returned slot (or `end`) is the first edge to another
    /// top-level blossom that is allowed, or that just became allowed with
    /// slack ≤ 0.
    ///
    /// Duals do not move during a scan, so v's least-slack S–S edge and its
    /// slack stay in locals until the loop returns, and the least slack of
    /// a free vertex comes from `bestslack`.
    ///
    /// The loop visits only slots to matched vertices. Every free vertex is
    /// an S-root of every stage (it stays S until it is matched), so all
    /// free vertices have taken every dual step together and share one
    /// dual `D`. A slot to a free vertex thus has slack `π_v + D − 2w`: of
    /// all free slots, the first heaviest (`heaviest[v]`) has the least
    /// slack, and the earliest least-slack one in any range is its first
    /// heaviest. Such a slot is never allowed unless it is tight, since its
    /// slack is ≤ 0 when it becomes allowed and never grows within a stage
    /// (the free end's dual falls by each step, the other end's rises by at
    /// most as much). So when the heaviest free slot is not tight, no free
    /// slot stops the scan, and the free slots offer exactly one
    /// candidate, the first heaviest among those in range outside v's
    /// blossom; it enters the least-slack merge at its slot position, as if
    /// the loop had visited it. When that slot is tight, the scan visits
    /// every slot in order instead.
    fn scan_to_allowed(&mut self, v: usize, from: usize, end: usize) -> usize {
        let heaviest = self.heaviest_free_slot(v);
        let Self {
            adj,
            inblossom,
            dualvar,
            label,
            allowedge,
            bestedge,
            bestslack,
            remote_matched,
            ..
        } = self;
        let bv = inblossom[v];
        let dv = dualvar[v];
        let free_slack = |s: usize| dv + dualvar[adj[s].w as usize] - adj[s].wt2;
        let scan_all = heaviest != NONE && free_slack(heaviest) <= 0;
        // The least-slack S–S edge so far, and its slot (NONE while it is
        // the edge the scan started with, which wins every tie).
        let mut best = bestedge[bv];
        let mut best_slack = bestslack[bv];
        let mut best_slot = NONE;
        let mut visit = |s: usize| -> bool {
            let slot = &adj[s];
            let w = slot.w as usize;
            let bw = inblossom[w];
            if bw == bv {
                return false;
            }
            let k = (slot.p >> 1) as usize;
            if allowedge[k] {
                return true;
            }
            let kslack = dv + dualvar[w] - slot.wt2;
            if kslack <= 0 {
                allowedge[k] = true;
                return true;
            }
            if label[bw] == 1 {
                if best == NONE || kslack < best_slack {
                    best = k;
                    best_slack = kslack;
                    best_slot = s;
                }
            } else if label[w] == 0 && (bestedge[w] == NONE || kslack < bestslack[w]) {
                bestedge[w] = k;
                bestslack[w] = kslack;
            }
            false
        };
        let stop = if scan_all {
            (from..end).find(|&s| visit(s)).unwrap_or(end)
        } else {
            let stop = find_slot(remote_matched, from, end, true, &mut visit);
            let outside = |s: usize| inblossom[adj[s].w as usize] != bv;
            let free = if heaviest == NONE {
                NONE
            } else if (from..stop).contains(&heaviest) && outside(heaviest) {
                heaviest
            } else {
                first_heaviest_free(adj, remote_matched, from, stop, outside)
            };
            if free != NONE {
                debug_assert_eq!(label[inblossom[adj[free].w as usize]], 1);
                let fslack = free_slack(free);
                if best == NONE
                    || fslack < best_slack
                    || (fslack == best_slack && best_slot != NONE && free < best_slot)
                {
                    best = (adj[free].p >> 1) as usize;
                    best_slack = fslack;
                }
            }
            stop
        };
        bestedge[bv] = best;
        bestslack[bv] = best_slack;
        stop
    }

    /// Main loop: up to `nvertex` augmentation stages.
    fn solve(&mut self) {
        for _ in 0..self.nvertex {
            self.mark_newly_matched();
            self.label.iter_mut().for_each(|l| *l = 0);
            self.bestedge.iter_mut().for_each(|e| *e = NONE);
            for be in &mut self.hasbestedges[self.nvertex..] {
                *be = false;
            }
            self.allowedge.iter_mut().for_each(|a| *a = false);
            self.queue.clear();
            for v in 0..self.nvertex {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }
            let mut augmented = false;
            // Every dual adjustment of a stage but its last makes progress
            // of one of three kinds, each bounded by n within a stage:
            // * it tightens an edge to an unlabelled blossom, and the scan
            //   it queues labels a blossom T and its base's mate's blossom
            //   S; that adds S-vertices, which stay S until the stage ends;
            // * it tightens an S–S edge, and the scan closes a blossom;
            //   blossoms made in a stage last until it ends and nest, each
            //   with at least three children;
            // * it expands a T-blossom, which existed when the stage began.
            // So a stage makes at most 3n + 1 adjustments. A scan that
            // misses the edge a step made tight would repeat that step
            // forever instead.
            let mut adjustments = 0;
            loop {
                while !self.queue.is_empty() && !augmented {
                    let v = self.queue.pop().expect("queue non-empty");
                    debug_assert_eq!(self.label[self.inblossom[v]], 1);
                    let end = self.adjstart[v + 1];
                    let mut s = self.adjstart[v];
                    loop {
                        s = self.scan_to_allowed(v, s, end);
                        if s == end {
                            break;
                        }
                        let Slot { p, w, .. } = self.adj[s];
                        let (p, w) = (p as usize, w as usize);
                        let k = p / 2;
                        if self.label[self.inblossom[w]] == 0 {
                            self.assign_label(w, 2, p ^ 1);
                        } else if self.label[self.inblossom[w]] == 1 {
                            let base = self.scan_blossom(v, w);
                            if base != NONE {
                                self.add_blossom(base, k);
                            } else {
                                self.augment_matching(k);
                                augmented = true;
                                break;
                            }
                        } else if self.label[w] == 0 {
                            debug_assert_eq!(self.label[self.inblossom[w]], 2);
                            self.label[w] = 2;
                            self.labelend[w] = p ^ 1;
                        }
                        s += 1;
                    }
                }
                if augmented {
                    break;
                }

                // Dual adjustment: pick the smallest of the four delta types.
                adjustments += 1;
                debug_assert!(
                    adjustments <= 3 * self.nvertex + 1,
                    "a blossom stage made more than 3n + 1 dual adjustments"
                );
                let mut deltatype = 1;
                let mut delta = self.dualvar[..self.nvertex]
                    .iter()
                    .copied()
                    .min()
                    .expect("nvertex > 0");
                let mut deltaedge = NONE;
                let mut deltablossom = NONE;
                // Ids from `nvertex` up are blossoms; while none is alive,
                // the passes below stop at the vertices.
                let ids = if self.unusedblossoms.len() < self.nvertex {
                    2 * self.nvertex
                } else {
                    self.nvertex
                };
                for v in 0..self.nvertex {
                    if self.label[self.inblossom[v]] == 0 && self.bestedge[v] != NONE {
                        let d = self.bestslack[v];
                        debug_assert_eq!(d, self.slack(self.bestedge[v]));
                        if d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = self.bestedge[v];
                        }
                    }
                }
                for b in 0..ids {
                    if self.blossomparent[b] == NONE
                        && self.label[b] == 1
                        && self.bestedge[b] != NONE
                    {
                        let kslack = self.bestslack[b];
                        debug_assert_eq!(kslack, self.slack(self.bestedge[b]));
                        debug_assert!(
                            kslack % 2 == 0,
                            "S-S slack must be even for integer weights"
                        );
                        let d = kslack / 2;
                        if d < delta {
                            delta = d;
                            deltatype = 3;
                            deltaedge = self.bestedge[b];
                        }
                    }
                }
                for b in self.nvertex..ids {
                    if self.blossombase[b] != NONE
                        && self.blossomparent[b] == NONE
                        && self.label[b] == 2
                        && self.dualvar[b] < delta
                    {
                        delta = self.dualvar[b];
                        deltatype = 4;
                        deltablossom = b;
                    }
                }

                // Update dual variables.
                for v in 0..self.nvertex {
                    match self.label[self.inblossom[v]] {
                        1 => self.dualvar[v] -= delta,
                        2 => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in self.nvertex..ids {
                    if self.blossombase[b] != NONE && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }
                for b in 0..ids {
                    if self.bestedge[b] != NONE {
                        self.bestslack[b] = self.slack(self.bestedge[b]);
                    }
                }

                match deltatype {
                    1 => break, // optimum reached
                    2 => {
                        self.allowedge[deltaedge] = true;
                        let (mut i, j) = (
                            self.endpoint[2 * deltaedge],
                            self.endpoint[2 * deltaedge + 1],
                        );
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        self.allowedge[deltaedge] = true;
                        let i = self.endpoint[2 * deltaedge];
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    4 => self.expand_blossom(deltablossom, false),
                    _ => unreachable!("invalid delta type"),
                }
            }
            if !augmented {
                break;
            }
            // End of stage: expand S-blossoms whose dual fell to zero.
            for b in self.nvertex..2 * self.nvertex {
                if self.blossomparent[b] == NONE
                    && self.blossombase[b] != NONE
                    && self.label[b] == 1
                    && self.dualvar[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
    }

    /// Complementary-slackness certificate: verifies the final matching and
    /// duals satisfy the LP optimality conditions. Returns true on success
    /// (used by debug assertions and tests).
    fn verify_optimum(&self) -> bool {
        if self.dualvar[..self.nvertex]
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
            < 0
        {
            return false;
        }
        for k in 0..self.nedge {
            let (i, j) = (self.endpoint[2 * k], self.endpoint[2 * k + 1]);
            let mut s = self.slack(k);
            let chain = |mut b: usize| {
                let mut list = vec![b];
                while self.blossomparent[b] != NONE {
                    b = self.blossomparent[b];
                    list.push(b);
                }
                list.reverse();
                list
            };
            let bi = chain(i);
            let bj = chain(j);
            for (x, y) in bi.iter().zip(bj.iter()) {
                if x != y {
                    break;
                }
                s += 2 * self.dualvar[*x];
            }
            if s < 0 {
                return false;
            }
            let matched_i = self.mate[i] != NONE && self.mate[i] / 2 == k;
            let matched_j = self.mate[j] != NONE && self.mate[j] / 2 == k;
            if (matched_i || matched_j) && !(matched_i && matched_j && s == 0) {
                return false;
            }
        }
        // Free vertices must have zero dual; blossoms with positive dual must
        // be full (odd endpoint list, alternately matched).
        for v in 0..self.nvertex {
            if self.mate[v] == NONE && self.dualvar[v] != 0 {
                return false;
            }
        }
        for b in self.nvertex..2 * self.nvertex {
            if self.blossombase[b] != NONE && self.dualvar[b] > 0 {
                if self.blossomendps[b].len() % 2 != 1 {
                    return false;
                }
                for p in self.blossomendps[b].iter().skip(1).step_by(2) {
                    if self.mate[self.endpoint[*p]] != p ^ 1 {
                        return false;
                    }
                    if self.mate[self.endpoint[p ^ 1]] != *p {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_max_weight_matching;
    use crate::greedy::matching_weight;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn we(u: u32, v: u32, w: i64) -> WeightedEdge {
        WeightedEdge::new(u, v, w)
    }

    fn weight_of(n: usize, edges: &[WeightedEdge]) -> i64 {
        let pairs = max_weight_matching_pairs(n, edges);
        matching_weight(&pairs, edges)
    }

    #[test]
    fn empty_and_trivial() {
        assert_eq!(max_weight_matching(0, &[]), Vec::<Option<u32>>::new());
        assert_eq!(max_weight_matching(3, &[]), vec![None, None, None]);
        let mate = max_weight_matching(2, &[we(0, 1, 5)]);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn path_picks_heavier_endpoint_pairs() {
        // 0-1 (3), 1-2 (4), 2-3 (3): optimum is {0-1, 2-3} with weight 6.
        let edges = [we(0, 1, 3), we(1, 2, 4), we(2, 3, 3)];
        let mate = max_weight_matching(4, &edges);
        assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
    }

    #[test]
    fn prefers_weight_over_cardinality() {
        // Middle edge so heavy that a single edge beats two.
        let edges = [we(0, 1, 2), we(1, 2, 10), we(2, 3, 2)];
        let mate = max_weight_matching(4, &edges);
        assert_eq!(mate, vec![None, Some(2), Some(1), None]);
    }

    #[test]
    fn creates_s_blossom_and_uses_it() {
        // van-Rantwijk-style S-blossom case (0-indexed):
        // triangle 0-1-2 plus pendant 2-3.
        let edges = [we(0, 1, 8), we(0, 2, 9), we(1, 2, 10), we(2, 3, 7)];
        let mate = max_weight_matching(4, &edges);
        assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
    }

    #[test]
    fn s_blossom_with_expansion() {
        // Triangle + two pendants forcing blossom expansion:
        // edges (0,1,8),(0,2,9),(1,2,10),(2,3,7),(0,5,5),(3,4,6).
        let edges = [
            we(0, 1, 8),
            we(0, 2, 9),
            we(1, 2, 10),
            we(2, 3, 7),
            we(0, 5, 5),
            we(3, 4, 6),
        ];
        let mate = max_weight_matching(6, &edges);
        assert_eq!(
            mate,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );
    }

    #[test]
    fn t_blossom_relabel_cases() {
        // Three classic T-blossom expansion cases (0-indexed from the
        // reference test suite).
        let e1 = [
            we(0, 1, 9),
            we(0, 2, 8),
            we(1, 2, 10),
            we(0, 3, 5),
            we(3, 4, 4),
            we(0, 5, 3),
        ];
        let m1 = max_weight_matching(6, &e1);
        assert_eq!(
            m1,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );

        let e2 = [
            we(0, 1, 9),
            we(0, 2, 8),
            we(1, 2, 10),
            we(0, 3, 5),
            we(3, 4, 3),
            we(0, 5, 4),
        ];
        let m2 = max_weight_matching(6, &e2);
        assert_eq!(
            m2,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );

        let e3 = [
            we(0, 1, 9),
            we(0, 2, 8),
            we(1, 2, 10),
            we(0, 3, 5),
            we(3, 4, 3),
            we(2, 5, 4),
        ];
        let m3 = max_weight_matching(6, &e3);
        assert_eq!(
            m3,
            vec![Some(1), Some(0), Some(5), Some(4), Some(3), Some(2)]
        );
    }

    #[test]
    fn nested_s_blossom() {
        // Nested S-blossom used for augmentation (reference t41, 0-indexed):
        let edges = [
            we(0, 1, 9),
            we(0, 2, 9),
            we(1, 2, 10),
            we(1, 3, 8),
            we(2, 4, 8),
            we(3, 4, 10),
            we(4, 5, 6),
        ];
        let mate = max_weight_matching(6, &edges);
        assert_eq!(
            mate,
            vec![Some(2), Some(3), Some(0), Some(1), Some(5), Some(4)]
        );
    }

    #[test]
    fn nested_blossom_expands_to_augmenting_path() {
        // Reference t45 (0-indexed): create nested blossom, relabel as T in
        // more than one way, expand outer blossom.
        let edges = [
            we(0, 1, 45),
            we(0, 4, 45),
            we(1, 2, 50),
            we(2, 3, 45),
            we(3, 4, 50),
            we(0, 5, 30),
            we(2, 8, 35),
            we(4, 7, 35),
            we(4, 6, 26),
            we(7, 8, 5),
        ];
        let mate = max_weight_matching(9, &edges);
        // Verify optimal weight against brute force rather than a fixed
        // mate vector (ties can resolve differently).
        let pairs = max_weight_matching_pairs(9, &edges);
        let (opt_w, _) = brute_force_max_weight_matching(9, &edges);
        assert_eq!(matching_weight(&pairs, &edges), opt_w);
        // All vertices of the path should be matched.
        assert!(mate[0].is_some() && mate[2].is_some() && mate[4].is_some());
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(20240610);
        for trial in 0..200 {
            let n = 4 + (trial % 5); // 4..8 vertices
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.random_bool(0.55) {
                        edges.push(we(u, v, rng.random_range(1..40)));
                    }
                }
            }
            if edges.len() > 24 {
                edges.truncate(24);
            }
            let (opt_w, _) = brute_force_max_weight_matching(n, &edges);
            let got = weight_of(n, &edges);
            assert_eq!(
                got, opt_w,
                "trial {trial}: blossom {got} != brute {opt_w} on {edges:?}"
            );
        }
    }

    #[test]
    fn mate_vector_is_symmetric() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = 10;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.random_bool(0.4) {
                        edges.push(we(u, v, rng.random_range(1..100)));
                    }
                }
            }
            let mate = max_weight_matching(n, &edges);
            for (v, &m) in mate.iter().enumerate() {
                if let Some(w) = m {
                    assert_eq!(mate[w as usize], Some(v as u32), "asymmetric mate at {v}");
                }
            }
        }
    }

    #[test]
    fn ignores_nonpositive_edges() {
        let edges = [we(0, 1, -5), we(1, 2, 0), we(2, 3, 7)];
        let mate = max_weight_matching(4, &edges);
        assert_eq!(mate, vec![None, None, Some(3), Some(2)]);
    }

    #[test]
    #[should_panic(expected = "above blossom::MAX_WEIGHT")]
    fn weight_above_bound_panics() {
        max_weight_matching(2, &[we(0, 1, MAX_WEIGHT + 1)]);
    }

    #[test]
    fn weights_at_bound_stay_exact() {
        // The nested S-blossom and T-relabel cases lifted to the bound, so
        // duals and slacks reach their extremes; in debug builds the
        // optimality certificate re-checks every slack. (At most 7 edges
        // keep the brute force's own sums in range.)
        let cases: [&[(u32, u32, i64)]; 2] = [
            &[
                (0, 1, 9),
                (0, 2, 9),
                (1, 2, 10),
                (1, 3, 8),
                (2, 4, 8),
                (3, 4, 10),
                (4, 5, 6),
            ],
            &[
                (0, 1, 9),
                (0, 2, 8),
                (1, 2, 10),
                (0, 3, 5),
                (3, 4, 4),
                (0, 5, 3),
            ],
        ];
        for case in cases {
            let lifted: Vec<WeightedEdge> = case
                .iter()
                .map(|&(u, v, w)| we(u, v, MAX_WEIGHT - 10 + w))
                .collect();
            let (opt_w, _) = brute_force_max_weight_matching(6, &lifted);
            assert_eq!(weight_of(6, &lifted), opt_w, "{lifted:?}");
        }
        let flat = [
            we(0, 1, MAX_WEIGHT),
            we(1, 2, MAX_WEIGHT),
            we(0, 2, MAX_WEIGHT),
        ];
        assert_eq!(weight_of(3, &flat), MAX_WEIGHT);
    }

    #[test]
    fn large_random_graph_terminates_and_is_valid() {
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 60;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.random_bool(0.3) {
                    edges.push(we(u, v, rng.random_range(1..1000)));
                }
            }
        }
        let mate = max_weight_matching(n, &edges);
        let matched = mate.iter().flatten().count();
        assert!(
            matched >= n / 2,
            "dense random graph should match most vertices"
        );
        for (v, &m) in mate.iter().enumerate() {
            if let Some(w) = m {
                assert_eq!(mate[w as usize], Some(v as u32));
            }
        }
    }
}
