//! Reference synthetic workloads: uniform, fixed permutation, hotspot and
//! pure-Zipf pair streams. These bracket the structured generators: uniform
//! has no structure at all (worst case for demand-aware networks),
//! permutation is the best case (a perfect matching exists), hotspot and
//! Zipf interpolate.
//!
//! Each workload is a lazy [`RequestSource`]; the `*_trace` functions are
//! thin [`RequestSource::materialize`] adapters kept for eager callers.

use crate::generators::all_pairs;
use crate::sampler::{zipf_weights, AliasTable};
use crate::source::{RequestSource, SeededSource, SourceKernel};
use crate::trace::Trace;
use dcn_topology::Pair;
use dcn_util::rngx::{derive_seed, shuffle};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Draws a uniform distinct pair over `0..n` — two RNG draws, matching the
/// historical eager generators draw-for-draw.
#[inline]
fn uniform_pair(rng: &mut SmallRng, n: usize) -> Pair {
    let a = rng.random_range(0..n as u32);
    let mut b = rng.random_range(0..n as u32 - 1);
    if b >= a {
        b += 1;
    }
    Pair::new(a, b)
}

/// Kernel of [`uniform_source`].
pub struct UniformKernel {
    num_racks: usize,
}

impl SourceKernel for UniformKernel {
    fn emit(&mut self, _t: usize, rng: &mut SmallRng) -> Pair {
        uniform_pair(rng, self.num_racks)
    }

    fn emit_batch(&mut self, _t0: usize, out: &mut [Pair], rng: &mut SmallRng) {
        let n = self.num_racks;
        for slot in out.iter_mut() {
            *slot = uniform_pair(rng, n);
        }
    }
}

/// Uniform i.i.d. requests over all distinct pairs, as a stream.
pub fn uniform_source(num_racks: usize, len: usize, seed: u64) -> SeededSource<UniformKernel> {
    assert!(num_racks >= 2);
    let rng = SmallRng::seed_from_u64(derive_seed(seed, 0x01));
    SeededSource::new(
        UniformKernel { num_racks },
        rng,
        len,
        num_racks,
        format!("uniform(n={num_racks})"),
    )
}

/// Uniform i.i.d. requests over all distinct pairs, materialized.
pub fn uniform_trace(num_racks: usize, len: usize, seed: u64) -> Trace {
    uniform_source(num_racks, len, seed).materialize()
}

/// Kernel of [`permutation_source`]: cycles a fixed random matching.
pub struct PermutationKernel {
    pairs: Vec<Pair>,
}

impl SourceKernel for PermutationKernel {
    fn emit(&mut self, t: usize, _rng: &mut SmallRng) -> Pair {
        self.pairs[t % self.pairs.len()]
    }
}

/// Requests cycle deterministically over a fixed random perfect-matching-like
/// permutation: rack `i` talks only to `π(i)`. The ideal case for
/// reconfigurable links — b=1 already serves everything after one
/// reconfiguration per pair.
pub fn permutation_source(
    num_racks: usize,
    len: usize,
    seed: u64,
) -> SeededSource<PermutationKernel> {
    assert!(
        num_racks >= 2 && num_racks.is_multiple_of(2),
        "permutation trace needs an even rack count"
    );
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x02));
    let mut racks: Vec<u32> = (0..num_racks as u32).collect();
    shuffle(&mut racks, &mut rng);
    let pairs: Vec<Pair> = racks
        .chunks_exact(2)
        .map(|c| Pair::new(c[0], c[1]))
        .collect();
    SeededSource::new(
        PermutationKernel { pairs },
        rng,
        len,
        num_racks,
        format!("permutation(n={num_racks})"),
    )
}

/// Materialized [`permutation_source`].
pub fn permutation_trace(num_racks: usize, len: usize, seed: u64) -> Trace {
    permutation_source(num_racks, len, seed).materialize()
}

/// Kernel of [`hotspot_source`].
pub struct HotspotKernel {
    num_racks: usize,
    num_hot: usize,
    p_hot: f64,
}

impl SourceKernel for HotspotKernel {
    fn emit(&mut self, _t: usize, rng: &mut SmallRng) -> Pair {
        if rng.random_range(0.0..1.0f64) < self.p_hot {
            uniform_pair(rng, self.num_hot)
        } else {
            uniform_pair(rng, self.num_racks)
        }
    }
}

/// A few hot racks exchange most of the traffic; the rest is uniform noise.
pub fn hotspot_source(
    num_racks: usize,
    len: usize,
    num_hot: usize,
    p_hot: f64,
    seed: u64,
) -> SeededSource<HotspotKernel> {
    assert!(num_racks >= 4 && num_hot >= 2 && num_hot <= num_racks);
    assert!((0.0..=1.0).contains(&p_hot));
    let rng = SmallRng::seed_from_u64(derive_seed(seed, 0x03));
    SeededSource::new(
        HotspotKernel {
            num_racks,
            num_hot,
            p_hot,
        },
        rng,
        len,
        num_racks,
        format!("hotspot({num_hot}/{num_racks})"),
    )
}

/// Materialized [`hotspot_source`].
pub fn hotspot_trace(num_racks: usize, len: usize, num_hot: usize, p_hot: f64, seed: u64) -> Trace {
    hotspot_source(num_racks, len, num_hot, p_hot, seed).materialize()
}

/// Kernel of [`zipf_pair_source`]: an alias table over the ranked pairs.
pub struct ZipfKernel {
    table: AliasTable<Pair>,
}

impl SourceKernel for ZipfKernel {
    fn emit(&mut self, _t: usize, rng: &mut SmallRng) -> Pair {
        self.table.sample(rng)
    }

    fn emit_batch(&mut self, _t0: usize, out: &mut [Pair], rng: &mut SmallRng) {
        self.table.fill(rng, out);
    }
}

/// I.i.d. requests where pair ranks follow a Zipf law with exponent `s` —
/// the knob for the skew-sweep ablation. Setup is O(num_racks²) (the pair
/// alias table); the stream itself is O(1) per request.
pub fn zipf_pair_source(
    num_racks: usize,
    len: usize,
    s: f64,
    seed: u64,
) -> SeededSource<ZipfKernel> {
    assert!(num_racks >= 2);
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x04));
    let mut pairs = all_pairs(num_racks);
    // Random rank assignment.
    shuffle(&mut pairs, &mut rng);
    let table = AliasTable::with_values(&zipf_weights(pairs.len(), s), &pairs);
    SeededSource::new(
        ZipfKernel { table },
        rng,
        len,
        num_racks,
        format!("zipf(s={s}, n={num_racks})"),
    )
}

/// Materialized [`zipf_pair_source`].
pub fn zipf_pair_trace(num_racks: usize, len: usize, s: f64, seed: u64) -> Trace {
    zipf_pair_source(num_racks, len, s, seed).materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn uniform_covers_pairs_evenly() {
        let t = uniform_trace(10, 50_000, 1);
        let stats = TraceStats::compute(&t);
        assert_eq!(stats.distinct_pairs, 45);
        assert!(
            stats.pair_gini < 0.15,
            "uniform should have tiny gini, got {}",
            stats.pair_gini
        );
    }

    #[test]
    fn permutation_uses_each_rack_once() {
        let t = permutation_trace(10, 1000, 2);
        let stats = TraceStats::compute(&t);
        assert_eq!(stats.distinct_pairs, 5);
        // Every rack appears in exactly one pair.
        let mut seen = std::collections::HashSet::new();
        for r in &t.requests {
            seen.insert(r.lo());
            seen.insert(r.hi());
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn hotspot_concentrates() {
        let t = hotspot_trace(20, 50_000, 4, 0.8, 3);
        let hot_share = t.requests.iter().filter(|r| r.hi() < 4).count() as f64 / t.len() as f64;
        assert!(hot_share > 0.75, "hot share {hot_share}");
    }

    #[test]
    fn zipf_skew_monotone_in_s() {
        let g1 = TraceStats::compute(&zipf_pair_trace(15, 40_000, 0.5, 4)).pair_gini;
        let g2 = TraceStats::compute(&zipf_pair_trace(15, 40_000, 1.5, 4)).pair_gini;
        assert!(
            g2 > g1,
            "higher exponent must be more skewed ({g1} vs {g2})"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            uniform_trace(8, 100, 5).requests,
            uniform_trace(8, 100, 5).requests
        );
        assert_eq!(
            zipf_pair_trace(8, 100, 1.0, 5).requests,
            zipf_pair_trace(8, 100, 1.0, 5).requests
        );
    }

    #[test]
    #[should_panic(expected = "even rack count")]
    fn permutation_rejects_odd() {
        permutation_trace(7, 10, 0);
    }
}
