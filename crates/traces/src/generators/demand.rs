//! Matrix-driven streaming kernels: i.i.d. sampling from a
//! [`DemandMatrix`] and phase-scheduled sampling from a [`MatrixSequence`].
//!
//! These are the generic counterparts of the Microsoft generator: *any*
//! demand matrix becomes a workload ([`matrix_source`]), and a matrix
//! sequence becomes a workload whose distribution moves over time
//! ([`sequence_source`]) — phase switches and drift included, which
//! frozen-matrix i.i.d. sampling cannot express. Setup builds one alias
//! table per matrix (O(n²) each); the stream itself is O(1) per request and
//! O(1) memory in the stream length, like every other kernel.

use crate::sampler::AliasTable;
use crate::source::{RequestSource, SeededSource, SourceKernel};
use crate::trace::Trace;
use dcn_demand::{DemandMatrix, MatrixSequence};
use dcn_topology::Pair;
use dcn_util::rngx::derive_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Kernel sampling i.i.d. from a frozen weighted pair list.
///
/// The pair/weight *ordering* is part of the sampled sequence (the alias
/// table maps RNG draws to list positions), so the Microsoft generator
/// feeds its historical construction order through
/// [`MatrixKernel::from_weighted_pairs`] to keep seeded streams
/// byte-identical, while [`MatrixKernel::from_matrix`] uses the canonical
/// triangle order of a [`DemandMatrix`].
pub struct MatrixKernel {
    table: AliasTable<Pair>,
}

impl MatrixKernel {
    /// Samples from a demand matrix in canonical upper-triangle order.
    pub fn from_matrix(matrix: &DemandMatrix) -> Self {
        Self::from_weighted_pairs(&matrix.pair_list(), matrix.weights())
    }

    /// Samples from an explicit `(pairs, weights)` list (orders must match).
    pub fn from_weighted_pairs(pairs: &[Pair], weights: &[f64]) -> Self {
        assert_eq!(pairs.len(), weights.len(), "pair/weight lists must align");
        Self {
            table: AliasTable::with_values(weights, pairs),
        }
    }
}

impl SourceKernel for MatrixKernel {
    fn emit(&mut self, _t: usize, rng: &mut SmallRng) -> Pair {
        self.table.sample(rng)
    }

    fn emit_batch(&mut self, _t0: usize, out: &mut [Pair], rng: &mut SmallRng) {
        self.table.fill(rng, out);
    }
}

/// An i.i.d. stream of `len` requests sampled from `matrix`.
pub fn matrix_source(matrix: &DemandMatrix, len: usize, seed: u64) -> SeededSource<MatrixKernel> {
    let rng = SmallRng::seed_from_u64(derive_seed(seed, 0xD17));
    SeededSource::new(
        MatrixKernel::from_matrix(matrix),
        rng,
        len,
        matrix.num_racks(),
        format!("demand({}, n={})", matrix.name(), matrix.num_racks()),
    )
}

/// Materialized [`matrix_source`].
pub fn matrix_trace(matrix: &DemandMatrix, len: usize, seed: u64) -> Trace {
    matrix_source(matrix, len, seed).materialize()
}

/// Kernel of [`sequence_source`]: one alias table per phase, switched as
/// the stream position crosses phase boundaries.
pub struct SequenceKernel {
    tables: Vec<AliasTable<Pair>>,
    ends: Vec<usize>,
    current: usize,
}

impl SequenceKernel {
    /// Builds the per-phase tables (canonical pair order is shared by all
    /// phases, since they have the same rack count).
    pub fn new(sequence: &MatrixSequence) -> Self {
        let pairs = sequence.phases()[0].matrix.pair_list();
        let tables = sequence
            .phases()
            .iter()
            .map(|p| AliasTable::with_values(p.matrix.weights(), &pairs))
            .collect();
        Self {
            tables,
            ends: sequence.phase_ends(),
            current: 0,
        }
    }
}

impl SourceKernel for SequenceKernel {
    fn emit(&mut self, t: usize, rng: &mut SmallRng) -> Pair {
        while t >= self.ends[self.current] {
            self.current += 1;
        }
        self.tables[self.current].sample(rng)
    }

    fn emit_batch(&mut self, t0: usize, out: &mut [Pair], rng: &mut SmallRng) {
        // One inner loop per phase segment: the phase lookup happens once
        // per boundary crossed instead of once per request.
        let mut t = t0;
        let mut written = 0;
        while written < out.len() {
            while t >= self.ends[self.current] {
                self.current += 1;
            }
            let take = (out.len() - written).min(self.ends[self.current] - t);
            self.tables[self.current].fill(rng, &mut out[written..written + take]);
            written += take;
            t += take;
        }
    }

    fn reset_state(&mut self) {
        self.current = 0;
    }
}

/// A stream following `sequence`'s phase schedule; its length is the
/// sequence's total length.
pub fn sequence_source(sequence: &MatrixSequence, seed: u64) -> SeededSource<SequenceKernel> {
    let rng = SmallRng::seed_from_u64(derive_seed(seed, 0xD25));
    SeededSource::new(
        SequenceKernel::new(sequence),
        rng,
        sequence.total_len(),
        sequence.num_racks(),
        format!(
            "demand-seq({}, n={})",
            sequence.name(),
            sequence.num_racks()
        ),
    )
}

/// Materialized [`sequence_source`].
pub fn sequence_trace(sequence: &MatrixSequence, seed: u64) -> Trace {
    sequence_source(sequence, seed).materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::RequestSource;
    use crate::stats::TraceStats;
    use dcn_demand::MatrixSequence;

    #[test]
    fn matrix_stream_respects_support() {
        // A permutation matrix only ever emits its own pairs.
        let matrix = DemandMatrix::permutation(8, 3);
        let support: std::collections::HashSet<Pair> = matrix.entries().map(|(p, _)| p).collect();
        let trace = matrix_trace(&matrix, 2_000, 1);
        assert_eq!(trace.num_racks, 8);
        for r in &trace.requests {
            assert!(support.contains(r), "{r} not in matrix support");
        }
    }

    #[test]
    fn matrix_stream_skew_follows_matrix() {
        let flat = matrix_trace(&DemandMatrix::uniform(20), 40_000, 2);
        let skewed = matrix_trace(&DemandMatrix::zipf_pairs(20, 1.4, 2), 40_000, 2);
        let g_flat = TraceStats::compute(&flat).pair_gini;
        let g_skewed = TraceStats::compute(&skewed).pair_gini;
        assert!(
            g_skewed > g_flat + 0.3,
            "matrix skew must carry into the stream ({g_flat} vs {g_skewed})"
        );
    }

    #[test]
    fn sequence_switches_distributions_at_boundaries() {
        // Phase 1 only uses pairs among racks 0..2, phase 2 among 3..5.
        let mut a = DemandMatrix::new(6, "a");
        a.set(Pair::new(0, 1), 1.0);
        a.set(Pair::new(0, 2), 1.0);
        let mut b = DemandMatrix::new(6, "b");
        b.set(Pair::new(3, 4), 1.0);
        b.set(Pair::new(4, 5), 1.0);
        let seq = MatrixSequence::switching(vec![a, b], 500);
        let trace = sequence_trace(&seq, 7);
        assert_eq!(trace.len(), 1_000);
        for (t, r) in trace.requests.iter().enumerate() {
            if t < 500 {
                assert!(r.hi() <= 2, "phase 1 leaked {r} at {t}");
            } else {
                assert!(r.lo() >= 3, "phase 2 leaked {r} at {t}");
            }
        }
    }

    #[test]
    fn sequence_source_resets_across_phases() {
        let seq = MatrixSequence::zipf_switching(10, 3, 200, 1.2, 5);
        let mut source = sequence_source(&seq, 9);
        let full: Vec<Pair> = std::iter::from_fn(|| source.next_request()).collect();
        assert_eq!(full.len(), 600);
        // Interrupt mid-phase-2, then reset: replay must be identical.
        source.reset();
        for _ in 0..350 {
            source.next_request();
        }
        source.reset();
        let replay: Vec<Pair> = std::iter::from_fn(|| source.next_request()).collect();
        assert_eq!(full, replay);
    }

    #[test]
    fn deterministic_per_seed() {
        let matrix = DemandMatrix::zipf_pairs(12, 1.1, 3);
        let a = matrix_trace(&matrix, 1_000, 4);
        let b = matrix_trace(&matrix, 1_000, 4);
        assert_eq!(a.requests, b.requests);
        let c = matrix_trace(&matrix, 1_000, 5);
        assert_ne!(a.requests, c.requests);
    }
}
