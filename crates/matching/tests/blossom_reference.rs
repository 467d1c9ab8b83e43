//! Differential anchor for the blossom matcher: the pre-CSR `Matcher`,
//! kept verbatim as a test-only reference, against the production
//! `dcn_matching::blossom`.
//!
//! SO-BMA's output depends on more than the matching weight. Most demand
//! edges tie with another edge's weight, and round `r + 1` of
//! `repeated_mwm_rounds` runs on the edges round `r` left, so a different
//! tie-break in one round changes every later round, the SO-BMA series and
//! the figure artifacts. The production matcher therefore promises the
//! reference's exact mate vector, and these suites check that promise on
//! random graphs with heavy ties, on the hand-written blossom cases, and
//! round by round on a Fig. 1-shaped b-matching and on random dense graphs
//! of figure size. The reference below uses
//! `Vec<Vec<usize>>` adjacency and `(usize, usize, i64)` edge tuples, and
//! allocates per event; only its entry point was renamed.

use dcn_matching::blossom::max_weight_matching;
use dcn_matching::repeated::repeated_mwm_rounds;
use dcn_matching::WeightedEdge;
use dcn_topology::Pair;
use dcn_util::FxHashSet;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const NONE: usize = usize::MAX;

/// The reference matcher's entry point (formerly `max_weight_matching`).
fn reference_max_weight_matching(n: usize, edges: &[WeightedEdge]) -> Vec<Option<u32>> {
    for e in edges {
        assert!(e.u != e.v, "self-loop in matching input");
        assert!(
            (e.u as usize) < n && (e.v as usize) < n,
            "edge endpoint out of range"
        );
    }
    // Non-positive edges can never be part of a maximum *weight* matching;
    // dropping them early keeps the dual start value tight.
    let filtered: Vec<(usize, usize, i64)> = edges
        .iter()
        .filter(|e| e.weight > 0)
        .map(|e| (e.u as usize, e.v as usize, e.weight))
        .collect();
    if filtered.is_empty() || n == 0 {
        return vec![None; n];
    }
    let mut m = Matcher::new(n, filtered);
    m.solve();
    debug_assert!(m.verify_optimum(), "blossom optimality certificate failed");
    m.mate
        .iter()
        .map(|&p| {
            if p == NONE {
                None
            } else {
                Some(m.endpoint[p] as u32)
            }
        })
        .collect()
}

/// `repeated_mwm_rounds` as it was written against the reference matcher.
fn reference_rounds(n: usize, edges: &[WeightedEdge], b: usize) -> Vec<Vec<Pair>> {
    let mut taken: FxHashSet<Pair> = FxHashSet::default();
    let mut rounds = Vec::with_capacity(b);
    for _ in 0..b {
        let residual: Vec<WeightedEdge> = edges
            .iter()
            .filter(|e| e.weight > 0 && !taken.contains(&Pair::new(e.u, e.v)))
            .copied()
            .collect();
        if residual.is_empty() {
            rounds.push(Vec::new());
            continue;
        }
        let mut matched = Vec::new();
        for (v, &m) in reference_max_weight_matching(n, &residual)
            .iter()
            .enumerate()
        {
            if let Some(w) = m {
                if (v as u32) < w {
                    matched.push(Pair::new(v as u32, w));
                }
            }
        }
        for &p in &matched {
            taken.insert(p);
        }
        rounds.push(matched);
    }
    rounds
}

/// Internal solver state; field names follow the reference implementation.
struct Matcher {
    nvertex: usize,
    nedge: usize,
    /// (i, j, weight) per edge.
    edges: Vec<(usize, usize, i64)>,
    /// endpoint[p]: vertex at directed endpoint p (edge p/2, side p%2).
    endpoint: Vec<usize>,
    /// neighbend[v]: remote endpoints of edges incident to v.
    neighbend: Vec<Vec<usize>>,
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
    blossombestedges: Vec<Option<Vec<usize>>>,
    unusedblossoms: Vec<usize>,
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
}

impl Matcher {
    fn new(nvertex: usize, edges: Vec<(usize, usize, i64)>) -> Self {
        let nedge = edges.len();
        let maxweight = edges.iter().map(|e| e.2).max().unwrap_or(0).max(0);
        let mut endpoint = Vec::with_capacity(2 * nedge);
        for &(i, j, _) in &edges {
            endpoint.push(i);
            endpoint.push(j);
        }
        let mut neighbend = vec![Vec::new(); nvertex];
        for (k, &(i, j, _)) in edges.iter().enumerate() {
            neighbend[i].push(2 * k + 1);
            neighbend[j].push(2 * k);
        }
        let mut dualvar = vec![maxweight; nvertex];
        dualvar.extend(std::iter::repeat_n(0, nvertex));
        Self {
            nvertex,
            nedge,
            edges,
            endpoint,
            neighbend,
            mate: vec![NONE; nvertex],
            label: vec![0; 2 * nvertex],
            labelend: vec![NONE; 2 * nvertex],
            inblossom: (0..nvertex).collect(),
            blossomparent: vec![NONE; 2 * nvertex],
            blossomchilds: vec![Vec::new(); 2 * nvertex],
            blossombase: (0..nvertex)
                .chain(std::iter::repeat_n(NONE, nvertex))
                .collect(),
            blossomendps: vec![Vec::new(); 2 * nvertex],
            bestedge: vec![NONE; 2 * nvertex],
            blossombestedges: vec![None; 2 * nvertex],
            unusedblossoms: (nvertex..2 * nvertex).collect(),
            dualvar,
            allowedge: vec![false; nedge],
            queue: Vec::new(),
        }
    }

    /// Slack of edge k: π_i + π_j − 2·w_k (non-negative for tight duals).
    #[inline]
    fn slack(&self, k: usize) -> i64 {
        let (i, j, wt) = self.edges[k];
        self.dualvar[i] + self.dualvar[j] - 2 * wt
    }

    /// Collects the leaf vertices of blossom `b` into `out`.
    fn collect_leaves(&self, b: usize, out: &mut Vec<usize>) {
        if b < self.nvertex {
            out.push(b);
        } else {
            for &t in &self.blossomchilds[b] {
                self.collect_leaves(t, out);
            }
        }
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
            let mut leaves = Vec::new();
            self.collect_leaves(b, &mut leaves);
            self.queue.extend(leaves);
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
        let mut path = Vec::new();
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
        for b in path {
            self.label[b] = 1;
        }
        base
    }

    /// Creates a new blossom with the given base, closed by edge `k`.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w, _) = self.edges[k];
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.unusedblossoms.pop().expect("blossom pool exhausted");
        self.blossombase[b] = base;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b;

        let mut path = Vec::new();
        let mut endps = Vec::new();
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
        self.blossomchilds[b] = path.clone();
        self.blossomendps[b] = endps;

        // Relabel the blossom's vertices; former T-vertices become S.
        let mut leaves = Vec::new();
        self.collect_leaves(b, &mut leaves);
        for &lv in &leaves {
            if self.label[self.inblossom[lv]] == 2 {
                self.queue.push(lv);
            }
            self.inblossom[lv] = b;
        }

        // Merge least-slack edge lists of the sub-blossoms.
        let mut bestedgeto = vec![NONE; 2 * self.nvertex];
        for &bv in &path {
            let nblists: Vec<Vec<usize>> = match self.blossombestedges[bv].take() {
                Some(list) => vec![list],
                None => {
                    let mut lvs = Vec::new();
                    self.collect_leaves(bv, &mut lvs);
                    lvs.iter()
                        .map(|&lv| self.neighbend[lv].iter().map(|&p| p / 2).collect())
                        .collect()
                }
            };
            for nblist in nblists {
                for k2 in nblist {
                    let (mut i, mut j, _) = self.edges[k2];
                    if self.inblossom[j] == b {
                        std::mem::swap(&mut i, &mut j);
                    }
                    let _ = i;
                    let bj = self.inblossom[j];
                    if bj != b
                        && self.label[bj] == 1
                        && (bestedgeto[bj] == NONE || self.slack(k2) < self.slack(bestedgeto[bj]))
                    {
                        bestedgeto[bj] = k2;
                    }
                }
            }
            self.bestedge[bv] = NONE;
        }
        let bel: Vec<usize> = bestedgeto.into_iter().filter(|&k2| k2 != NONE).collect();
        self.bestedge[b] = NONE;
        for &k2 in &bel {
            if self.bestedge[b] == NONE || self.slack(k2) < self.slack(self.bestedge[b]) {
                self.bestedge[b] = k2;
            }
        }
        self.blossombestedges[b] = Some(bel);
    }

    /// Expands (dissolves) blossom `b`; if `endstage` is false, `b` is a
    /// T-blossom being expanded mid-stage and its children are relabeled.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        let childs = self.blossomchilds[b].clone();
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                let mut lvs = Vec::new();
                self.collect_leaves(s, &mut lvs);
                for lv in lvs {
                    self.inblossom[lv] = s;
                }
            }
        }
        if !endstage && self.label[b] == 2 {
            let endps = self.blossomendps[b].clone();
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
                let mut lvs = Vec::new();
                self.collect_leaves(bv, &mut lvs);
                let reached = lvs.iter().copied().find(|&v| self.label[v] != 0);
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
        self.label[b] = 0;
        self.labelend[b] = NONE;
        self.blossomchilds[b].clear();
        self.blossomendps[b].clear();
        self.blossombase[b] = NONE;
        self.blossombestedges[b] = None;
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
        let childs = self.blossomchilds[b].clone();
        let endps = self.blossomendps[b].clone();
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
        self.blossomchilds[b].rotate_left(i);
        self.blossomendps[b].rotate_left(i);
        self.blossombase[b] = self.blossombase[self.blossomchilds[b][0]];
        debug_assert_eq!(self.blossombase[b], v);
    }

    /// Augments the matching along the path through tight edge `k`.
    fn augment_matching(&mut self, k: usize) {
        let (v, w, _) = self.edges[k];
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

    /// Main loop: up to `nvertex` augmentation stages.
    fn solve(&mut self) {
        for _ in 0..self.nvertex {
            self.label.iter_mut().for_each(|l| *l = 0);
            self.bestedge.iter_mut().for_each(|e| *e = NONE);
            for be in &mut self.blossombestedges[self.nvertex..] {
                *be = None;
            }
            self.allowedge.iter_mut().for_each(|a| *a = false);
            self.queue.clear();
            for v in 0..self.nvertex {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }
            let mut augmented = false;
            loop {
                while !self.queue.is_empty() && !augmented {
                    let v = self.queue.pop().expect("queue non-empty");
                    debug_assert_eq!(self.label[self.inblossom[v]], 1);
                    for idx_p in 0..self.neighbend[v].len() {
                        let p = self.neighbend[v][idx_p];
                        let k = p / 2;
                        let w = self.endpoint[p];
                        if self.inblossom[v] == self.inblossom[w] {
                            continue;
                        }
                        let mut kslack = 0;
                        if !self.allowedge[k] {
                            kslack = self.slack(k);
                            if kslack <= 0 {
                                self.allowedge[k] = true;
                            }
                        }
                        if self.allowedge[k] {
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
                        } else if self.label[self.inblossom[w]] == 1 {
                            let b = self.inblossom[v];
                            if self.bestedge[b] == NONE || kslack < self.slack(self.bestedge[b]) {
                                self.bestedge[b] = k;
                            }
                        } else if self.label[w] == 0
                            && (self.bestedge[w] == NONE || kslack < self.slack(self.bestedge[w]))
                        {
                            self.bestedge[w] = k;
                        }
                    }
                }
                if augmented {
                    break;
                }

                // Dual adjustment: pick the smallest of the four delta types.
                let mut deltatype = 1;
                let mut delta = self.dualvar[..self.nvertex]
                    .iter()
                    .copied()
                    .min()
                    .expect("nvertex > 0");
                let mut deltaedge = NONE;
                let mut deltablossom = NONE;
                for v in 0..self.nvertex {
                    if self.label[self.inblossom[v]] == 0 && self.bestedge[v] != NONE {
                        let d = self.slack(self.bestedge[v]);
                        if d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = self.bestedge[v];
                        }
                    }
                }
                for b in 0..2 * self.nvertex {
                    if self.blossomparent[b] == NONE
                        && self.label[b] == 1
                        && self.bestedge[b] != NONE
                    {
                        let kslack = self.slack(self.bestedge[b]);
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
                for b in self.nvertex..2 * self.nvertex {
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
                for b in self.nvertex..2 * self.nvertex {
                    if self.blossombase[b] != NONE && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }

                match deltatype {
                    1 => break, // optimum reached
                    2 => {
                        self.allowedge[deltaedge] = true;
                        let (mut i, j, _) = self.edges[deltaedge];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        self.allowedge[deltaedge] = true;
                        let (i, _, _) = self.edges[deltaedge];
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
            let (i, j, wt) = self.edges[k];
            let mut s = self.dualvar[i] + self.dualvar[j] - 2 * wt;
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

fn we(u: u32, v: u32, w: i64) -> WeightedEdge {
    WeightedEdge::new(u, v, w)
}

/// A random simple graph on `n` vertices: each pair is present with
/// probability `density_pct`%, has a random orientation and a weight drawn
/// by `weight`, and the edge list is shuffled.
fn random_graph(
    n: usize,
    density_pct: u32,
    seed: u64,
    weight: impl Fn(&mut SmallRng) -> i64,
) -> Vec<WeightedEdge> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.random_range(0..100u32) < density_pct {
                let (a, b) = if rng.random_bool(0.5) { (u, v) } else { (v, u) };
                edges.push(we(a, b, weight(&mut rng)));
            }
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.random_range(0..=i));
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Weights from `1..=2` and `1..=4` make most edges tie, which is where
    /// a changed scan or merge order would pick a different optimum.
    #[test]
    fn mate_vectors_match_reference(
        n in 4usize..41,
        density_pct in 10u32..101,
        weight_class in 0usize..3,
        seed in any::<u64>(),
    ) {
        let max_w = [2, 4, 1000][weight_class];
        let edges = random_graph(n, density_pct, seed, |rng| rng.random_range(1..=max_w));
        prop_assert_eq!(
            max_weight_matching(n, &edges),
            reference_max_weight_matching(n, &edges)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Figure-scale rounds: 60–100 racks with nearly every pair requested,
    /// weights from `1..=2` or a request count times a fat-tree saving
    /// `ℓ − 1 ∈ {1, 3, 5}`, as in SO-BMA's input. Most vertices stay free
    /// through most stages here, so nearly every scan prices its free
    /// neighbours by weight alone, and each round starts from the ties
    /// the last one left.
    #[test]
    fn repeated_rounds_match_reference_at_figure_scale(
        n in 60usize..=100,
        density_pct in 80u32..=100,
        fat_tree_savings in any::<bool>(),
        b in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let edges = random_graph(n, density_pct, seed, |rng| {
            if fat_tree_savings {
                rng.random_range(1..=6i64) * [1, 3, 5][rng.random_range(0..3usize)]
            } else {
                rng.random_range(1..=2)
            }
        });
        prop_assert_eq!(repeated_mwm_rounds(n, &edges, b), reference_rounds(n, &edges, b));
    }
}

#[test]
fn hand_written_cases_match_reference() {
    let cases: Vec<(usize, Vec<WeightedEdge>)> = vec![
        (0, vec![]),
        (3, vec![]),
        (2, vec![we(0, 1, 5)]),
        // Path: the outer edges win.
        (4, vec![we(0, 1, 3), we(1, 2, 4), we(2, 3, 3)]),
        // Weight over cardinality.
        (4, vec![we(0, 1, 2), we(1, 2, 10), we(2, 3, 2)]),
        // Non-positive edges are dropped.
        (4, vec![we(0, 1, -5), we(1, 2, 0), we(2, 3, 7)]),
        // S-blossom, then S-blossom with expansion.
        (4, vec![we(0, 1, 8), we(0, 2, 9), we(1, 2, 10), we(2, 3, 7)]),
        (
            6,
            vec![
                we(0, 1, 8),
                we(0, 2, 9),
                we(1, 2, 10),
                we(2, 3, 7),
                we(0, 5, 5),
                we(3, 4, 6),
            ],
        ),
        // The three T-blossom relabel cases.
        (
            6,
            vec![
                we(0, 1, 9),
                we(0, 2, 8),
                we(1, 2, 10),
                we(0, 3, 5),
                we(3, 4, 4),
                we(0, 5, 3),
            ],
        ),
        (
            6,
            vec![
                we(0, 1, 9),
                we(0, 2, 8),
                we(1, 2, 10),
                we(0, 3, 5),
                we(3, 4, 3),
                we(0, 5, 4),
            ],
        ),
        (
            6,
            vec![
                we(0, 1, 9),
                we(0, 2, 8),
                we(1, 2, 10),
                we(0, 3, 5),
                we(3, 4, 3),
                we(2, 5, 4),
            ],
        ),
        // Nested S-blossom used for augmentation.
        (
            6,
            vec![
                we(0, 1, 9),
                we(0, 2, 9),
                we(1, 2, 10),
                we(1, 3, 8),
                we(2, 4, 8),
                we(3, 4, 10),
                we(4, 5, 6),
            ],
        ),
        // Nested blossom relabeled T in more than one way, then expanded.
        (
            9,
            vec![
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
            ],
        ),
    ];
    for (n, edges) in &cases {
        assert_eq!(
            max_weight_matching(*n, edges),
            reference_max_weight_matching(*n, edges),
            "mate vectors differ on {edges:?}"
        );
    }
}

/// Fig. 1's SO-BMA input in miniature: 100 racks, nearly every pair
/// requested, weight = a small request count × a fat-tree saving
/// `ℓ − 1 ∈ {1, 3, 5}`, and b = 18 rounds on the shrinking residual graph.
#[test]
fn repeated_rounds_match_reference_on_fig1_shaped_graph() {
    let n = 100;
    let mut rng = SmallRng::seed_from_u64(0x5eed_f161);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.random_bool(0.95) {
                let count = rng.random_range(1..=6i64);
                let saving = [1, 3, 5][rng.random_range(0..3usize)];
                edges.push(we(u, v, count * saving));
            }
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.random_range(0..=i));
    }
    let got = repeated_mwm_rounds(n, &edges, 18);
    let want = reference_rounds(n, &edges, 18);
    assert_eq!(got.len(), want.len());
    for (r, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "round {r} differs from the reference");
    }
}
