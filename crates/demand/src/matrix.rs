//! [`DemandMatrix`] — the rack-to-rack traffic matrix as a first-class value.
//!
//! The paper's Microsoft workload (Fig. 4) is *defined* by a probability
//! matrix sampled i.i.d.; COUDER (arXiv:2010.00090) and follow-up work on
//! integrated topology/traffic engineering (arXiv:2402.09115) evaluate
//! reconfigurable datacenters entirely through such matrices — their skew,
//! their temporal drift, and topologies engineered against *sets* of them.
//! This type makes the matrix itself the unit of composition: constructors
//! for the standard families, normalization and skew/entropy statistics,
//! top-k extraction for demand-aware topology building, empirical
//! estimation from observed requests, and JSON export.
//!
//! Storage is the dense upper triangle over unordered rack pairs: entry
//! `{i, j}` (with `i < j`) lives at a canonical index, so lookups are O(1)
//! and the memory footprint is exactly `n(n-1)/2` floats.

use dcn_topology::Pair;
use dcn_util::rngx::{derive_seed, shuffle};
use dcn_util::zipf_weights;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;

/// Parameters of the synthetic ProjecToR-style traffic matrix (the paper's
/// Fig. 4 stand-in): heavy-tailed pair weights as a product of Zipf rack
/// popularities with multiplicative log-noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MicrosoftParams {
    /// Zipf exponent of rack popularity (drives the spatial skew).
    pub rack_skew: f64,
    /// Standard deviation of multiplicative log-noise on each pair weight.
    pub noise_sigma: f64,
}

impl Default for MicrosoftParams {
    fn default() -> Self {
        Self {
            rack_skew: 1.1,
            noise_sigma: 1.0,
        }
    }
}

/// Builds the ProjecToR-style rack-to-rack weight arrays and returns
/// `(pairs, weights)` **in construction order** (pairs carry a seeded rack
/// permutation, so this order differs from the canonical triangle order).
///
/// This is the exact historical `dcn_traces::microsoft_matrix` computation
/// — same seed streams, same draw order — kept as a standalone function so
/// the Microsoft generator's sampled request sequences stay byte-identical
/// (its alias table is built over *this* weight ordering; see
/// `crates/traces/tests/stream_equivalence.rs`).
pub fn microsoft_pair_weights(
    num_racks: usize,
    params: MicrosoftParams,
    seed: u64,
) -> (Vec<Pair>, Vec<f64>) {
    assert!(num_racks >= 2);
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x7153));
    let mut perm: Vec<u32> = (0..num_racks as u32).collect();
    shuffle(&mut perm, &mut rng);
    let pop = zipf_weights(num_racks, params.rack_skew);
    let mut pairs = Vec::with_capacity(num_racks * (num_racks - 1) / 2);
    let mut weights = Vec::with_capacity(pairs.capacity());
    for i in 0..num_racks {
        for j in (i + 1)..num_racks {
            // Box-Muller-free log-noise: sum of uniforms approximates a
            // normal well enough for a heavy-ish tail here.
            let g: f64 = (0..4).map(|_| rng.random_range(-1.0..1.0f64)).sum::<f64>() * 0.5;
            let noise = (params.noise_sigma * g).exp();
            pairs.push(Pair::new(perm[i], perm[j]));
            weights.push(pop[i] * pop[j] * noise);
        }
    }
    (pairs, weights)
}

/// A dense upper-triangle rack-pair demand matrix.
///
/// ```
/// use dcn_demand::DemandMatrix;
/// use dcn_topology::Pair;
///
/// let mut m = DemandMatrix::new(4, "manual");
/// m.set(Pair::new(0, 1), 3.0);
/// m.add(Pair::new(2, 3), 1.0);
/// let m = m.normalized();
/// assert!((m.get(Pair::new(0, 1)) - 0.75).abs() < 1e-12);
/// assert_eq!(m.top_k(1)[0].0, Pair::new(0, 1));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DemandMatrix {
    num_racks: usize,
    /// Canonical upper-triangle weights: entry `{i, j}` (`i < j`) at
    /// `i*(2n-i-1)/2 + (j-i-1)`.
    weights: Vec<f64>,
    name: String,
}

impl DemandMatrix {
    /// All-zero matrix over `num_racks ≥ 2` racks.
    pub fn new(num_racks: usize, name: impl Into<String>) -> Self {
        assert!(num_racks >= 2, "demand matrix needs at least 2 racks");
        Self {
            num_racks,
            weights: vec![0.0; num_racks * (num_racks - 1) / 2],
            name: name.into(),
        }
    }

    /// Wraps a canonical upper-triangle weight vector (`n(n-1)/2` entries,
    /// all finite and non-negative).
    pub fn from_weights(num_racks: usize, weights: Vec<f64>, name: impl Into<String>) -> Self {
        assert!(num_racks >= 2, "demand matrix needs at least 2 racks");
        assert_eq!(
            weights.len(),
            num_racks * (num_racks - 1) / 2,
            "weight vector must cover the upper triangle"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        Self {
            num_racks,
            weights,
            name: name.into(),
        }
    }

    /// Empirical matrix: per-pair request counts of an observed sequence
    /// (the `from_trace` estimator; any endpoint must be `< num_racks`).
    pub fn from_trace(num_racks: usize, requests: &[Pair]) -> Self {
        let mut m = Self::new(num_racks, format!("empirical({} requests)", requests.len()));
        for &r in requests {
            m.add(r, 1.0);
        }
        m
    }

    /// Uniform demand: every pair carries the same weight.
    pub fn uniform(num_racks: usize) -> Self {
        let pairs = num_racks * (num_racks - 1) / 2;
        Self::from_weights(
            num_racks,
            vec![1.0; pairs],
            format!("uniform(n={num_racks})"),
        )
    }

    /// Zipf-ranked pair weights over a seeded random rank permutation (the
    /// matrix behind the `zipf_pair` trace family).
    pub fn zipf_pairs(num_racks: usize, s: f64, seed: u64) -> Self {
        let mut m = Self::new(num_racks, format!("zipf-pairs(s={s}, n={num_racks})"));
        let num_pairs = m.weights.len();
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0xD1F));
        let mut ranks: Vec<u32> = (0..num_pairs as u32).collect();
        shuffle(&mut ranks, &mut rng);
        let w = zipf_weights(num_pairs, s);
        for (idx, &rank) in ranks.iter().enumerate() {
            m.weights[idx] = w[rank as usize];
        }
        m
    }

    /// Hotspot demand matching the `hotspot` trace family: probability mass
    /// `p_hot` spread uniformly over pairs within the first `num_hot` racks,
    /// the rest spread uniformly over all pairs.
    pub fn hotspot(num_racks: usize, num_hot: usize, p_hot: f64) -> Self {
        assert!(num_racks >= 4 && num_hot >= 2 && num_hot <= num_racks);
        assert!((0.0..=1.0).contains(&p_hot));
        let mut m = Self::new(num_racks, format!("hotspot({num_hot}/{num_racks})"));
        let all = m.weights.len() as f64;
        let hot = (num_hot * (num_hot - 1) / 2) as f64;
        for i in 0..num_racks as u32 {
            for j in (i + 1)..num_racks as u32 {
                let mut w = (1.0 - p_hot) / all;
                if (j as usize) < num_hot {
                    w += p_hot / hot;
                }
                m.set(Pair::new(i, j), w);
            }
        }
        m
    }

    /// Permutation demand: a seeded random perfect matching carries all the
    /// weight (the ideal case for reconfigurable links; `num_racks` even).
    pub fn permutation(num_racks: usize, seed: u64) -> Self {
        assert!(
            num_racks >= 2 && num_racks % 2 == 0,
            "permutation demand needs an even rack count"
        );
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0xD2E));
        let mut racks: Vec<u32> = (0..num_racks as u32).collect();
        shuffle(&mut racks, &mut rng);
        let mut m = Self::new(num_racks, format!("permutation(n={num_racks})"));
        for c in racks.chunks_exact(2) {
            m.set(Pair::new(c[0], c[1]), 1.0);
        }
        m
    }

    /// Clustered/block demand: racks are partitioned into `num_clusters`
    /// seeded clusters; mass `p_intra` is spread uniformly over
    /// intra-cluster pairs, the rest over inter-cluster pairs.
    pub fn clustered(num_racks: usize, num_clusters: usize, p_intra: f64, seed: u64) -> Self {
        assert!(num_clusters >= 1 && num_clusters <= num_racks);
        assert!((0.0..=1.0).contains(&p_intra));
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0xD3D));
        let mut racks: Vec<u32> = (0..num_racks as u32).collect();
        shuffle(&mut racks, &mut rng);
        let mut cluster_of = vec![0usize; num_racks];
        for (pos, &r) in racks.iter().enumerate() {
            cluster_of[r as usize] = pos % num_clusters;
        }
        let mut m = Self::new(
            num_racks,
            format!("clustered({num_clusters} blocks, n={num_racks})"),
        );
        let mut intra = 0usize;
        for i in 0..num_racks {
            for j in (i + 1)..num_racks {
                intra += (cluster_of[i] == cluster_of[j]) as usize;
            }
        }
        let inter = m.weights.len() - intra;
        for i in 0..num_racks as u32 {
            for j in (i + 1)..num_racks as u32 {
                let w = if cluster_of[i as usize] == cluster_of[j as usize] {
                    if intra > 0 {
                        p_intra / intra as f64
                    } else {
                        0.0
                    }
                } else if inter > 0 {
                    (1.0 - p_intra) / inter as f64
                } else {
                    0.0
                };
                m.set(Pair::new(i, j), w);
            }
        }
        m
    }

    /// The ProjecToR-style synthetic matrix of the paper's Fig. 4 (dense
    /// canonical storage of [`microsoft_pair_weights`]).
    pub fn microsoft(num_racks: usize, params: MicrosoftParams, seed: u64) -> Self {
        let (pairs, weights) = microsoft_pair_weights(num_racks, params, seed);
        let mut m = Self::new(num_racks, format!("microsoft(n={num_racks})"));
        for (&p, &w) in pairs.iter().zip(&weights) {
            m.set(p, w);
        }
        m
    }

    /// Convex combination `(1-λ)·a + λ·b` of two same-shape matrices — the
    /// drift primitive ([`crate::MatrixSequence::drifting`] quantizes it).
    pub fn blend(a: &DemandMatrix, b: &DemandMatrix, lambda: f64) -> Self {
        assert_eq!(a.num_racks, b.num_racks, "blend needs same-shape matrices");
        assert!((0.0..=1.0).contains(&lambda), "blend weight in [0, 1]");
        let weights = a
            .weights
            .iter()
            .zip(&b.weights)
            .map(|(&x, &y)| (1.0 - lambda) * x + lambda * y)
            .collect();
        Self::from_weights(
            a.num_racks,
            weights,
            format!("blend({:.2}: {} -> {})", lambda, a.name, b.name),
        )
    }

    #[inline]
    fn index(&self, pair: Pair) -> usize {
        let (i, j) = (pair.lo() as usize, pair.hi() as usize);
        // A hard assert, not a debug_assert: an out-of-range endpoint would
        // otherwise alias a *valid* slot of another pair (the triangle
        // formula stays in bounds) and silently corrupt weights.
        assert!(
            j < self.num_racks,
            "pair endpoint {j} out of range (racks: {})",
            self.num_racks
        );
        i * (2 * self.num_racks - i - 1) / 2 + (j - i - 1)
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.num_racks
    }

    /// Number of pair slots (`n(n-1)/2`).
    pub fn num_pairs(&self) -> usize {
        self.weights.len()
    }

    /// Human-readable provenance (flows into trace/report names).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the provenance name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Weight of `pair`.
    #[inline]
    pub fn get(&self, pair: Pair) -> f64 {
        self.weights[self.index(pair)]
    }

    /// Sets the weight of `pair` (finite, non-negative).
    #[inline]
    pub fn set(&mut self, pair: Pair, w: f64) {
        assert!(w.is_finite() && w >= 0.0, "weights are finite non-negative");
        let idx = self.index(pair);
        self.weights[idx] = w;
    }

    /// Adds `w` to the weight of `pair`; the sum must stay finite.
    #[inline]
    pub fn add(&mut self, pair: Pair, w: f64) {
        assert!(w.is_finite() && w >= 0.0, "weights are finite non-negative");
        let idx = self.index(pair);
        let sum = self.weights[idx] + w;
        assert!(
            sum.is_finite(),
            "weight of {pair} overflows f64: {} + {w}",
            self.weights[idx]
        );
        self.weights[idx] = sum;
    }

    /// The canonical upper-triangle weight slice (same order as
    /// [`DemandMatrix::pair_list`]).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// All pairs in canonical order (the slot order of
    /// [`DemandMatrix::weights`]).
    pub fn pair_list(&self) -> Vec<Pair> {
        let n = self.num_racks as u32;
        let mut pairs = Vec::with_capacity(self.weights.len());
        for i in 0..n {
            pairs.extend(((i + 1)..n).map(|j| Pair::new(i, j)));
        }
        pairs
    }

    /// Iterates `(pair, weight)` over entries with positive weight.
    pub fn entries(&self) -> impl Iterator<Item = (Pair, f64)> + '_ {
        let n = self.num_racks as u32;
        (0..n)
            .flat_map(move |i| ((i + 1)..n).map(move |j| Pair::new(i, j)))
            .zip(self.weights.iter().copied())
            .filter(|&(_, w)| w > 0.0)
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Scales weights in place so they sum to 1 (total must be positive).
    pub fn normalize(&mut self) {
        let total = self.total();
        assert!(total > 0.0, "cannot normalize an all-zero demand matrix");
        for w in &mut self.weights {
            *w /= total;
        }
    }

    /// A normalized copy (weights sum to 1).
    pub fn normalized(&self) -> Self {
        let mut m = self.clone();
        m.normalize();
        m
    }

    /// Gini coefficient of the pair weights (0 = uniform, → 1 = skewed).
    pub fn gini(&self) -> f64 {
        dcn_util::gini(&self.weights)
    }

    /// Shannon entropy (bits) of the normalized pair distribution. Uniform
    /// demand attains [`DemandMatrix::max_entropy_bits`]; a permutation
    /// matrix over `n/2` pairs attains `log2(n/2)`.
    pub fn entropy_bits(&self) -> f64 {
        let total = self.total();
        assert!(total > 0.0, "entropy of an all-zero demand matrix");
        self.weights
            .iter()
            .filter(|&&w| w > 0.0)
            .map(|&w| {
                let p = w / total;
                -p * p.log2()
            })
            .sum()
    }

    /// Entropy (bits) of the uniform distribution over all pair slots.
    pub fn max_entropy_bits(&self) -> f64 {
        (self.num_pairs() as f64).log2()
    }

    /// The `k` heaviest pairs, sorted by descending weight (ties broken by
    /// pair order for determinism).
    pub fn top_k(&self, k: usize) -> Vec<(Pair, f64)> {
        let mut entries: Vec<(Pair, f64)> = self.entries().collect();
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        entries.truncate(k);
        entries
    }

    /// Fraction of total demand carried by the `k` heaviest pairs.
    pub fn top_share(&self, k: usize) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        self.top_k(k).iter().map(|&(_, w)| w).sum::<f64>() / total
    }

    /// Serializes to a compact JSON object (`num_racks`, canonical
    /// `weights`, `name`) via `dcn_util::json`.
    pub fn to_json(&self) -> String {
        dcn_util::json::to_json_string(self).expect("demand matrix serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(a, b)
    }

    #[test]
    fn canonical_indexing_covers_triangle() {
        let n = 7;
        let m = DemandMatrix::new(n, "t");
        let mut seen = std::collections::HashSet::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                assert!(seen.insert(m.index(p(i, j))), "index collision at {i},{j}");
            }
        }
        assert_eq!(seen.len(), m.num_pairs());
        assert_eq!(*seen.iter().max().unwrap(), m.num_pairs() - 1);
        // pair_list is exactly the slot order.
        let pairs = m.pair_list();
        for (slot, &pair) in pairs.iter().enumerate() {
            assert_eq!(m.index(pair), slot);
        }
    }

    #[test]
    fn normalization_against_hand_computed() {
        let mut m = DemandMatrix::new(3, "t");
        m.set(p(0, 1), 1.0);
        m.set(p(0, 2), 1.0);
        m.set(p(1, 2), 2.0);
        assert_eq!(m.total(), 4.0);
        let n = m.normalized();
        assert!((n.get(p(0, 1)) - 0.25).abs() < 1e-12);
        assert!((n.get(p(1, 2)) - 0.5).abs() < 1e-12);
        assert!((n.total() - 1.0).abs() < 1e-12);
        // Original untouched.
        assert_eq!(m.get(p(1, 2)), 2.0);
    }

    #[test]
    fn entropy_against_hand_computed() {
        // [1, 1, 2] -> p = [1/4, 1/4, 1/2] -> H = 2·(1/4·2) + 1/2·1 = 1.5 bits.
        let mut m = DemandMatrix::new(3, "t");
        m.set(p(0, 1), 1.0);
        m.set(p(0, 2), 1.0);
        m.set(p(1, 2), 2.0);
        assert!((m.entropy_bits() - 1.5).abs() < 1e-12);
        assert!((m.max_entropy_bits() - 3f64.log2()).abs() < 1e-12);
        // Uniform attains the maximum; a single hot pair attains zero.
        let u = DemandMatrix::uniform(6);
        assert!((u.entropy_bits() - u.max_entropy_bits()).abs() < 1e-9);
        let mut hot = DemandMatrix::new(6, "t");
        hot.set(p(0, 1), 5.0);
        assert_eq!(hot.entropy_bits(), 0.0);
    }

    #[test]
    fn top_k_and_share_hand_computed() {
        let mut m = DemandMatrix::new(4, "t");
        m.set(p(0, 1), 5.0);
        m.set(p(2, 3), 3.0);
        m.set(p(0, 2), 2.0);
        let top = m.top_k(2);
        assert_eq!(top[0], (p(0, 1), 5.0));
        assert_eq!(top[1], (p(2, 3), 3.0));
        assert!((m.top_share(2) - 0.8).abs() < 1e-12);
        assert!((m.top_share(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gini_orders_families_by_skew() {
        let uniform = DemandMatrix::uniform(20);
        let zipf = DemandMatrix::zipf_pairs(20, 1.2, 1);
        let microsoft = DemandMatrix::microsoft(20, MicrosoftParams::default(), 1);
        assert!(uniform.gini() < 1e-12);
        assert!(zipf.gini() > 0.5, "zipf gini {}", zipf.gini());
        assert!(
            microsoft.gini() > 0.5,
            "microsoft gini {}",
            microsoft.gini()
        );
    }

    #[test]
    fn from_trace_counts_requests() {
        let reqs = vec![p(0, 1), p(0, 1), p(2, 3)];
        let m = DemandMatrix::from_trace(5, &reqs);
        assert_eq!(m.get(p(0, 1)), 2.0);
        assert_eq!(m.get(p(2, 3)), 1.0);
        assert_eq!(m.get(p(0, 4)), 0.0);
        assert_eq!(m.total(), 3.0);
    }

    #[test]
    fn hotspot_mass_splits_as_specified() {
        let m = DemandMatrix::hotspot(10, 4, 0.8);
        let hot: f64 = (0..4u32)
            .flat_map(|i| ((i + 1)..4).map(move |j| p(i, j)))
            .map(|e| m.get(e))
            .sum();
        // Hot pairs get p_hot plus their share of the uniform background.
        let expected = 0.8 + 0.2 * 6.0 / 45.0;
        assert!((hot - expected).abs() < 1e-12, "hot mass {hot}");
        assert!((m.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_is_a_perfect_matching() {
        let m = DemandMatrix::permutation(8, 3);
        let entries: Vec<(Pair, f64)> = m.entries().collect();
        assert_eq!(entries.len(), 4);
        let mut seen = std::collections::HashSet::new();
        for (pair, w) in entries {
            assert_eq!(w, 1.0);
            assert!(seen.insert(pair.lo()) && seen.insert(pair.hi()));
        }
    }

    #[test]
    fn clustered_intra_mass() {
        let m = DemandMatrix::clustered(12, 3, 0.9, 7);
        assert!((m.total() - 1.0).abs() < 1e-9);
        // 3 clusters of 4 racks -> 18 intra pairs out of 66; check the
        // heaviest 18 pairs carry the intra mass.
        assert!(m.top_share(18) > 0.89, "intra share {}", m.top_share(18));
    }

    #[test]
    fn blend_interpolates() {
        let a = DemandMatrix::uniform(6);
        let b = DemandMatrix::zipf_pairs(6, 1.5, 2);
        let mid = DemandMatrix::blend(&a.normalized(), &b.normalized(), 0.5);
        assert!((mid.total() - 1.0).abs() < 1e-9);
        assert_eq!(DemandMatrix::blend(&a, &b, 0.0).weights(), a.weights());
        assert_eq!(DemandMatrix::blend(&a, &b, 1.0).weights(), b.weights());
        let g_mid = mid.gini();
        assert!(g_mid > a.normalized().gini() && g_mid < b.normalized().gini());
    }

    #[test]
    fn microsoft_matches_pair_weight_arrays() {
        let (pairs, weights) = microsoft_pair_weights(12, MicrosoftParams::default(), 9);
        let m = DemandMatrix::microsoft(12, MicrosoftParams::default(), 9);
        for (&pair, &w) in pairs.iter().zip(&weights) {
            assert_eq!(m.get(pair), w);
        }
        assert_eq!(pairs.len(), m.num_pairs());
    }

    #[test]
    #[should_panic(expected = "overflows f64")]
    fn add_rejects_a_cell_that_overflows() {
        let mut m = DemandMatrix::new(3, "t");
        m.add(Pair::new(0, 1), 1e308);
        m.add(Pair::new(0, 1), 1e308);
    }

    #[test]
    fn json_emission() {
        let m = DemandMatrix::uniform(3);
        let j = m.to_json();
        assert!(j.contains("\"num_racks\":3"));
        assert!(j.contains("\"name\":\"uniform(n=3)\""));
    }

    #[test]
    #[should_panic(expected = "cannot normalize")]
    fn normalize_rejects_zero_matrix() {
        DemandMatrix::new(4, "zero").normalize();
    }
}
