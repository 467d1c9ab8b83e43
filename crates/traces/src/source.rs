//! Streaming request sources: seeded, resettable, lazily-generated request
//! streams with O(1) memory in the request count.
//!
//! The paper's experiments replay a few hundred thousand requests, so a
//! materialized `Vec<Pair>` is fine there — but at production scale
//! (millions to tens of millions of requests, swept over trace-seed ×
//! algorithm-seed grids) the materialized trace, not the algorithm, caps
//! the workload size. Every generator in this crate therefore produces a
//! [`RequestSource`]: the request at position `t` is computed on demand from
//! a seeded RNG stream, the source can be [`reset`](RequestSource::reset)
//! to replay the identical sequence, and
//! [`materialize`](RequestSource::materialize) recovers the old eager
//! [`Trace`] when a slice really is needed (offline baselines, statistics).
//!
//! Determinism contract: for a fixed constructor input, the streamed
//! sequence is **byte-identical** to what the eager `*_trace` functions
//! returned before this layer existed — the seeded xoshiro256++ draws happen
//! in exactly the same order, only lazily. Tests in
//! `tests/stream_equivalence.rs` pin this down for every generator.
//!
//! [`TraceSpec`] is the serializable-by-value description of a workload
//! (generator + parameters + trace seed) that sweep jobs carry, so each
//! worker can synthesize its own stream in-place instead of sharing one
//! pre-built trace.

use crate::generators::adversarial::{star_round_robin_source, star_uniform_source};
use crate::generators::demand::{matrix_source, sequence_source};
use crate::generators::facebook::{facebook_cluster_source, FacebookCluster};
use crate::generators::microsoft::{microsoft_source, MicrosoftParams};
use crate::generators::synthetic::{
    hotspot_source, permutation_source, uniform_source, zipf_pair_source,
};
use crate::trace::Trace;
use dcn_demand::{DemandMatrix, MatrixSequence};
use dcn_topology::Pair;
use rand::rngs::SmallRng;
use std::borrow::Cow;
use std::sync::Arc;

/// A seeded, resettable, finite stream of rack-pair requests.
///
/// Implementations hold O(1) state in the stream length (setup structures
/// like alias tables scale with the rack count only), so arbitrarily long
/// workloads can be simulated without materializing them.
pub trait RequestSource {
    /// Number of racks (`|V|`); every emitted endpoint is `< num_racks`.
    fn num_racks(&self) -> usize;

    /// Total number of requests this source yields per replay.
    fn len(&self) -> usize;

    /// Whether the stream is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests not yet emitted since construction or the last
    /// [`reset`](Self::reset).
    fn remaining(&self) -> usize;

    /// Human-readable provenance for reports (matches the materialized
    /// [`Trace::name`]).
    fn name(&self) -> &str;

    /// Emits the next request, or `None` once `len()` requests were emitted.
    fn next_request(&mut self) -> Option<Pair>;

    /// Fills `buf` from the stream's current position and returns the number
    /// of requests written (short only at the end of the stream).
    ///
    /// This is the batch entry point of the serve pipeline: semantically it
    /// is exactly `buf.len()` calls to [`next_request`](Self::next_request)
    /// (the same seeded draws in the same order — pinned by a proptest in
    /// `tests/stream_equivalence.rs` over arbitrary batch-size schedules),
    /// but implementations amortize per-request overhead across the batch:
    /// [`SeededSource`] dispatches once into
    /// [`SourceKernel::emit_batch`], and [`MaterializedSource`] degenerates
    /// to a `memcpy`.
    fn fill(&mut self, buf: &mut [Pair]) -> usize {
        let mut written = 0;
        while written < buf.len() {
            match self.next_request() {
                Some(p) => {
                    buf[written] = p;
                    written += 1;
                }
                None => break,
            }
        }
        written
    }

    /// Rewinds to the start; the subsequent replay is identical to the
    /// first.
    fn reset(&mut self);

    /// Collects the whole stream (from the start, regardless of current
    /// position) into an eager [`Trace`], then resets so the source remains
    /// reusable.
    fn materialize(&mut self) -> Trace {
        self.reset();
        let mut requests = Vec::with_capacity(self.len());
        while let Some(p) = self.next_request() {
            requests.push(p);
        }
        let trace = Trace::new(self.num_racks(), requests, self.name().to_string());
        self.reset();
        trace
    }
}

/// Borrowing iterator over a source's remaining requests (exact-size, so the
/// simulator can lay out its checkpoint grid up front).
///
/// The length is captured **once** at construction and counted down locally,
/// so `len()`/`size_hint()` never re-consult
/// [`RequestSource::remaining`] — callers that lay out grids from the
/// iterator length and then drain it see one consistent total.
pub struct SourceIter<'a, S: ?Sized> {
    source: &'a mut S,
    remaining: usize,
}

impl<'a, S: RequestSource + ?Sized> SourceIter<'a, S> {
    /// Iterates `source` from its current position to the end.
    pub fn new(source: &'a mut S) -> Self {
        let remaining = source.remaining();
        Self { source, remaining }
    }
}

impl<S: RequestSource + ?Sized> Iterator for SourceIter<'_, S> {
    type Item = Pair;

    fn next(&mut self) -> Option<Pair> {
        let p = self.source.next_request();
        if p.is_some() {
            self.remaining = self.remaining.saturating_sub(1);
        }
        p
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<S: RequestSource + ?Sized> ExactSizeIterator for SourceIter<'_, S> {}

/// The per-request generation rule of a [`SeededSource`]: everything a
/// generator does *after* its seeded setup phase.
///
/// `emit` is called exactly once per position `t = 0, 1, …` with the
/// generator's RNG (already advanced past setup); `reset_state` clears any
/// cross-request state (working sets, current block) — the RNG rewind is
/// handled by [`SeededSource`].
pub trait SourceKernel {
    /// Produces the request at position `t`.
    fn emit(&mut self, t: usize, rng: &mut SmallRng) -> Pair;

    /// Produces the requests at positions `t0..t0 + out.len()` into `out`.
    ///
    /// Must be draw-for-draw identical to calling [`emit`](Self::emit) once
    /// per position; the default does exactly that. Hot kernels override it
    /// to hoist per-request setup (alias-table/pair-slice borrows, phase
    /// lookups) out of the inner loop.
    fn emit_batch(&mut self, t0: usize, out: &mut [Pair], rng: &mut SmallRng) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.emit(t0 + i, rng);
        }
    }

    /// Clears mutable cross-request state for a replay.
    fn reset_state(&mut self) {}
}

/// Generic [`RequestSource`] driving a [`SourceKernel`] with a seeded RNG.
///
/// Stores the post-setup RNG state so [`reset`](RequestSource::reset) can
/// rewind without repeating the (possibly expensive) setup phase.
pub struct SeededSource<K> {
    kernel: K,
    rng: SmallRng,
    start_rng: SmallRng,
    pos: usize,
    len: usize,
    num_racks: usize,
    name: String,
}

impl<K: SourceKernel> SeededSource<K> {
    /// Wraps a kernel; `rng` must be positioned exactly where the eager
    /// generator's per-request loop would start (i.e. after setup draws).
    pub fn new(kernel: K, rng: SmallRng, len: usize, num_racks: usize, name: String) -> Self {
        Self {
            kernel,
            start_rng: rng.clone(),
            rng,
            pos: 0,
            len,
            num_racks,
            name,
        }
    }

    /// Overrides the report name (e.g. cluster presets).
    pub fn with_name(mut self, name: String) -> Self {
        self.name = name;
        self
    }
}

impl<K: SourceKernel> RequestSource for SeededSource<K> {
    fn num_racks(&self) -> usize {
        self.num_racks
    }

    fn len(&self) -> usize {
        self.len
    }

    fn remaining(&self) -> usize {
        self.len - self.pos
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_request(&mut self) -> Option<Pair> {
        if self.pos == self.len {
            return None;
        }
        let pair = self.kernel.emit(self.pos, &mut self.rng);
        debug_assert!((pair.hi() as usize) < self.num_racks, "endpoint in range");
        self.pos += 1;
        Some(pair)
    }

    fn fill(&mut self, buf: &mut [Pair]) -> usize {
        dcn_util::failpoint::hit("traces.fill");
        let n = buf.len().min(self.len - self.pos);
        self.kernel
            .emit_batch(self.pos, &mut buf[..n], &mut self.rng);
        debug_assert!(
            buf[..n].iter().all(|p| (p.hi() as usize) < self.num_racks),
            "endpoint in range"
        );
        self.pos += n;
        n
    }

    fn reset(&mut self) {
        self.rng = self.start_rng.clone();
        self.kernel.reset_state();
        self.pos = 0;
    }
}

/// A [`RequestSource`] replaying an already-materialized [`Trace`] (e.g.
/// loaded from CSV) — the adapter that lets real-world traces flow through
/// the streaming pipeline. Shares the trace via `Arc`, so cloning specs is
/// cheap.
#[derive(Clone, Debug)]
pub struct MaterializedSource {
    trace: Arc<Trace>,
    pos: usize,
}

impl MaterializedSource {
    /// Streams `trace` from the start.
    pub fn new(trace: Arc<Trace>) -> Self {
        Self { trace, pos: 0 }
    }
}

impl From<Trace> for MaterializedSource {
    fn from(trace: Trace) -> Self {
        Self::new(Arc::new(trace))
    }
}

impl RequestSource for MaterializedSource {
    fn num_racks(&self) -> usize {
        self.trace.num_racks
    }

    fn len(&self) -> usize {
        self.trace.requests.len()
    }

    fn remaining(&self) -> usize {
        self.trace.requests.len() - self.pos
    }

    fn name(&self) -> &str {
        &self.trace.name
    }

    fn next_request(&mut self) -> Option<Pair> {
        let p = self.trace.requests.get(self.pos).copied();
        self.pos += (p.is_some()) as usize;
        p
    }

    fn fill(&mut self, buf: &mut [Pair]) -> usize {
        let n = buf.len().min(self.trace.requests.len() - self.pos);
        buf[..n].copy_from_slice(&self.trace.requests[self.pos..self.pos + n]);
        self.pos += n;
        n
    }

    fn reset(&mut self) {
        self.pos = 0;
    }
}

/// Value-level description of a workload: which generator, its parameters,
/// and the trace seed. Sweep jobs carry one of these so every worker can
/// synthesize its own stream in-place — no shared pre-built trace, and
/// (trace-seed × algorithm-seed) grids fall out of [`TraceSpec::with_seed`].
#[derive(Clone, Debug, PartialEq)]
pub enum TraceSpec {
    /// Uniform i.i.d. pairs ([`crate::generators::synthetic::uniform_source`]).
    Uniform {
        /// Number of racks.
        num_racks: usize,
        /// Stream length.
        len: usize,
        /// Trace seed.
        seed: u64,
    },
    /// Fixed random perfect matching, cycled
    /// ([`crate::generators::synthetic::permutation_source`]).
    Permutation {
        /// Number of racks (must be even).
        num_racks: usize,
        /// Stream length.
        len: usize,
        /// Trace seed.
        seed: u64,
    },
    /// Hot-rack traffic with uniform background
    /// ([`crate::generators::synthetic::hotspot_source`]).
    Hotspot {
        /// Number of racks.
        num_racks: usize,
        /// Stream length.
        len: usize,
        /// Number of hot racks.
        num_hot: usize,
        /// Probability a request stays among hot racks.
        p_hot: f64,
        /// Trace seed.
        seed: u64,
    },
    /// Zipf-ranked pair popularity
    /// ([`crate::generators::synthetic::zipf_pair_source`]).
    Zipf {
        /// Number of racks.
        num_racks: usize,
        /// Stream length.
        len: usize,
        /// Zipf exponent `s`.
        exponent: f64,
        /// Trace seed.
        seed: u64,
    },
    /// Facebook cluster preset
    /// ([`crate::generators::facebook::facebook_cluster_source`]).
    Facebook {
        /// Which cluster preset.
        cluster: FacebookCluster,
        /// Number of racks.
        num_racks: usize,
        /// Stream length.
        len: usize,
        /// Trace seed.
        seed: u64,
    },
    /// Microsoft i.i.d. matrix sampling
    /// ([`crate::generators::microsoft::microsoft_source`]).
    Microsoft {
        /// Number of racks.
        num_racks: usize,
        /// Stream length.
        len: usize,
        /// Traffic-matrix parameters.
        params: MicrosoftParams,
        /// Trace seed.
        seed: u64,
    },
    /// §2.4 star nemesis, uniform blocks
    /// ([`crate::generators::adversarial::star_uniform_source`]).
    StarUniform {
        /// Number of spokes (racks are `0..=spokes`, hub 0).
        spokes: usize,
        /// Block length α.
        alpha: usize,
        /// Number of blocks.
        num_blocks: usize,
        /// Trace seed.
        seed: u64,
    },
    /// §2.4 star nemesis, deterministic round-robin blocks
    /// ([`crate::generators::adversarial::star_round_robin_source`]).
    StarRoundRobin {
        /// Number of spokes.
        spokes: usize,
        /// Block length α.
        alpha: usize,
        /// Number of blocks.
        num_blocks: usize,
    },
    /// I.i.d. sampling from an explicit demand matrix
    /// ([`crate::generators::demand::matrix_source`]).
    Matrix {
        /// The demand matrix (shared, so cloning specs is cheap).
        matrix: Arc<DemandMatrix>,
        /// Stream length.
        len: usize,
        /// Trace seed.
        seed: u64,
    },
    /// Phase-scheduled sampling from a matrix sequence
    /// ([`crate::generators::demand::sequence_source`]); the stream length
    /// is the sequence's total length.
    Sequence {
        /// The matrix sequence (shared, so cloning specs is cheap).
        sequence: Arc<MatrixSequence>,
        /// Trace seed.
        seed: u64,
    },
    /// An already-materialized trace (CSV imports, hand-built tests).
    Materialized(Arc<Trace>),
}

impl TraceSpec {
    /// Wraps an eager trace.
    pub fn materialized(trace: Trace) -> Self {
        TraceSpec::Materialized(Arc::new(trace))
    }

    /// Wraps a demand matrix for i.i.d. sampling.
    pub fn matrix(matrix: DemandMatrix, len: usize, seed: u64) -> Self {
        TraceSpec::Matrix {
            matrix: Arc::new(matrix),
            len,
            seed,
        }
    }

    /// Wraps a matrix sequence.
    pub fn sequence(sequence: MatrixSequence, seed: u64) -> Self {
        TraceSpec::Sequence {
            sequence: Arc::new(sequence),
            seed,
        }
    }

    /// Instantiates the stream described by this spec.
    pub fn source(&self) -> Box<dyn RequestSource + Send> {
        match *self {
            TraceSpec::Uniform {
                num_racks,
                len,
                seed,
            } => Box::new(uniform_source(num_racks, len, seed)),
            TraceSpec::Permutation {
                num_racks,
                len,
                seed,
            } => Box::new(permutation_source(num_racks, len, seed)),
            TraceSpec::Hotspot {
                num_racks,
                len,
                num_hot,
                p_hot,
                seed,
            } => Box::new(hotspot_source(num_racks, len, num_hot, p_hot, seed)),
            TraceSpec::Zipf {
                num_racks,
                len,
                exponent,
                seed,
            } => Box::new(zipf_pair_source(num_racks, len, exponent, seed)),
            TraceSpec::Facebook {
                cluster,
                num_racks,
                len,
                seed,
            } => Box::new(facebook_cluster_source(cluster, num_racks, len, seed)),
            TraceSpec::Microsoft {
                num_racks,
                len,
                params,
                seed,
            } => Box::new(microsoft_source(num_racks, len, params, seed)),
            TraceSpec::StarUniform {
                spokes,
                alpha,
                num_blocks,
                seed,
            } => Box::new(star_uniform_source(spokes, alpha, num_blocks, seed)),
            TraceSpec::StarRoundRobin {
                spokes,
                alpha,
                num_blocks,
            } => Box::new(star_round_robin_source(spokes, alpha, num_blocks)),
            TraceSpec::Matrix {
                ref matrix,
                len,
                seed,
            } => Box::new(matrix_source(matrix, len, seed)),
            TraceSpec::Sequence { ref sequence, seed } => Box::new(sequence_source(sequence, seed)),
            TraceSpec::Materialized(ref t) => Box::new(MaterializedSource::new(Arc::clone(t))),
        }
    }

    /// Stream length without instantiating the source.
    pub fn len(&self) -> usize {
        match *self {
            TraceSpec::Uniform { len, .. }
            | TraceSpec::Permutation { len, .. }
            | TraceSpec::Hotspot { len, .. }
            | TraceSpec::Zipf { len, .. }
            | TraceSpec::Facebook { len, .. }
            | TraceSpec::Microsoft { len, .. }
            | TraceSpec::Matrix { len, .. } => len,
            TraceSpec::StarUniform {
                alpha, num_blocks, ..
            }
            | TraceSpec::StarRoundRobin {
                alpha, num_blocks, ..
            } => alpha * num_blocks,
            TraceSpec::Sequence { ref sequence, .. } => sequence.total_len(),
            TraceSpec::Materialized(ref t) => t.requests.len(),
        }
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Report name without instantiating the source (identical to the
    /// string the instantiated source's `name()` returns — pinned by a
    /// unit test, since e.g. the Facebook setup builds O(racks²) alias
    /// tables that a title string should not pay for).
    pub fn name(&self) -> String {
        match *self {
            TraceSpec::Uniform { num_racks, .. } => format!("uniform(n={num_racks})"),
            TraceSpec::Permutation { num_racks, .. } => format!("permutation(n={num_racks})"),
            TraceSpec::Hotspot {
                num_racks, num_hot, ..
            } => format!("hotspot({num_hot}/{num_racks})"),
            TraceSpec::Zipf {
                exponent,
                num_racks,
                ..
            } => format!("zipf(s={exponent}, n={num_racks})"),
            TraceSpec::Facebook {
                cluster, num_racks, ..
            } => format!("facebook-{cluster:?}(n={num_racks})"),
            TraceSpec::Microsoft { num_racks, .. } => format!("microsoft(n={num_racks})"),
            TraceSpec::StarUniform { spokes, alpha, .. } => {
                format!("star-nemesis(spokes={spokes}, alpha={alpha})")
            }
            TraceSpec::StarRoundRobin { spokes, alpha, .. } => {
                format!("star-rr(spokes={spokes}, alpha={alpha})")
            }
            TraceSpec::Matrix { ref matrix, .. } => {
                format!("demand({}, n={})", matrix.name(), matrix.num_racks())
            }
            TraceSpec::Sequence { ref sequence, .. } => format!(
                "demand-seq({}, n={})",
                sequence.name(),
                sequence.num_racks()
            ),
            TraceSpec::Materialized(ref t) => t.name.clone(),
        }
    }

    /// Number of racks without instantiating the source.
    pub fn num_racks(&self) -> usize {
        match *self {
            TraceSpec::Uniform { num_racks, .. }
            | TraceSpec::Permutation { num_racks, .. }
            | TraceSpec::Hotspot { num_racks, .. }
            | TraceSpec::Zipf { num_racks, .. }
            | TraceSpec::Facebook { num_racks, .. }
            | TraceSpec::Microsoft { num_racks, .. } => num_racks,
            TraceSpec::StarUniform { spokes, .. } | TraceSpec::StarRoundRobin { spokes, .. } => {
                spokes + 1
            }
            TraceSpec::Matrix { ref matrix, .. } => matrix.num_racks(),
            TraceSpec::Sequence { ref sequence, .. } => sequence.num_racks(),
            TraceSpec::Materialized(ref t) => t.num_racks,
        }
    }

    /// A copy with the trace seed replaced — the lever for
    /// (trace-seed × algorithm-seed) sweep grids. No-op for the seedless
    /// variants (`StarRoundRobin`, `Materialized`).
    pub fn with_seed(&self, new_seed: u64) -> Self {
        let mut spec = self.clone();
        match spec {
            TraceSpec::Uniform { ref mut seed, .. }
            | TraceSpec::Permutation { ref mut seed, .. }
            | TraceSpec::Hotspot { ref mut seed, .. }
            | TraceSpec::Zipf { ref mut seed, .. }
            | TraceSpec::Facebook { ref mut seed, .. }
            | TraceSpec::Microsoft { ref mut seed, .. }
            | TraceSpec::StarUniform { ref mut seed, .. }
            | TraceSpec::Matrix { ref mut seed, .. }
            | TraceSpec::Sequence { ref mut seed, .. } => *seed = new_seed,
            TraceSpec::StarRoundRobin { .. } | TraceSpec::Materialized(_) => {}
        }
        spec
    }

    /// The eager trace this spec describes: borrowed for
    /// [`Materialized`](TraceSpec::Materialized), generated otherwise.
    /// The offline baseline (SO-BMA) goes through this; the online path
    /// never should.
    pub fn as_trace(&self) -> Cow<'_, Trace> {
        match self {
            TraceSpec::Materialized(t) => Cow::Borrowed(&**t),
            _ => Cow::Owned(self.source().materialize()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::synthetic::uniform_trace;

    #[test]
    fn seeded_source_streams_reset_and_materialize() {
        let mut s = uniform_source(8, 100, 5);
        assert_eq!(s.len(), 100);
        assert_eq!(s.remaining(), 100);
        let first: Vec<Pair> = std::iter::from_fn(|| s.next_request()).collect();
        assert_eq!(first.len(), 100);
        assert_eq!(s.remaining(), 0);
        assert!(s.next_request().is_none());
        s.reset();
        let second: Vec<Pair> = std::iter::from_fn(|| s.next_request()).collect();
        assert_eq!(first, second, "reset must replay identically");
        let trace = s.materialize();
        assert_eq!(trace.requests, first);
        assert_eq!(s.remaining(), 100, "materialize leaves the source rewound");
    }

    #[test]
    fn source_iter_is_exact_size() {
        let mut s = uniform_source(6, 40, 1);
        s.next_request();
        let it = SourceIter::new(&mut s);
        assert_eq!(it.len(), 39);
        assert_eq!(it.count(), 39);
    }

    #[test]
    fn source_iter_len_counts_down_without_reconsulting_source() {
        let mut s = uniform_source(6, 10, 1);
        let mut it = SourceIter::new(&mut s);
        assert_eq!(it.len(), 10);
        it.next();
        it.next();
        assert_eq!(it.len(), 8, "length is tracked locally");
        assert_eq!(it.size_hint(), (8, Some(8)));
    }

    #[test]
    fn fill_replays_next_request_sequence() {
        let mut s = uniform_source(9, 100, 3);
        let expected: Vec<Pair> = std::iter::from_fn(|| s.next_request()).collect();
        s.reset();
        let mut buf = [Pair::new(0, 1); 7];
        let mut batched = Vec::new();
        loop {
            let n = s.fill(&mut buf);
            batched.extend_from_slice(&buf[..n]);
            if n < buf.len() {
                break;
            }
        }
        assert_eq!(batched, expected, "fill must equal per-request streaming");
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.fill(&mut buf), 0, "exhausted source fills nothing");
    }

    #[test]
    fn fill_is_short_only_at_stream_end() {
        let mut s = uniform_source(5, 10, 2);
        let mut buf = [Pair::new(0, 1); 64];
        assert_eq!(s.fill(&mut buf[..4]), 4);
        assert_eq!(s.remaining(), 6);
        assert_eq!(s.fill(&mut buf), 6, "tail fill is truncated to remaining");
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn materialized_fill_copies_and_tracks_position() {
        let trace = uniform_trace(8, 20, 4);
        let mut src = MaterializedSource::from(trace.clone());
        let mut buf = [Pair::new(0, 1); 12];
        let n = src.fill(&mut buf);
        assert_eq!(n, 12);
        assert_eq!(&buf[..n], &trace.requests[..12]);
        let n = src.fill(&mut buf);
        assert_eq!(n, 8);
        assert_eq!(&buf[..n], &trace.requests[12..]);
        assert!(src.next_request().is_none());
    }

    #[test]
    fn materialized_source_round_trips() {
        let trace = uniform_trace(10, 64, 9);
        let mut src = MaterializedSource::from(trace.clone());
        assert_eq!(src.name(), trace.name);
        assert_eq!(src.materialize().requests, trace.requests);
        let streamed: Vec<Pair> = std::iter::from_fn(|| src.next_request()).collect();
        assert_eq!(streamed, trace.requests);
    }

    #[test]
    fn spec_len_and_racks_agree_with_sources() {
        let specs = [
            TraceSpec::Uniform {
                num_racks: 9,
                len: 33,
                seed: 1,
            },
            TraceSpec::Permutation {
                num_racks: 8,
                len: 20,
                seed: 2,
            },
            TraceSpec::Hotspot {
                num_racks: 12,
                len: 40,
                num_hot: 3,
                p_hot: 0.7,
                seed: 3,
            },
            TraceSpec::Zipf {
                num_racks: 7,
                len: 25,
                exponent: 1.1,
                seed: 4,
            },
            TraceSpec::Facebook {
                cluster: FacebookCluster::Database,
                num_racks: 10,
                len: 50,
                seed: 5,
            },
            TraceSpec::Microsoft {
                num_racks: 6,
                len: 30,
                params: MicrosoftParams::default(),
                seed: 6,
            },
            TraceSpec::StarUniform {
                spokes: 4,
                alpha: 3,
                num_blocks: 5,
                seed: 7,
            },
            TraceSpec::StarRoundRobin {
                spokes: 4,
                alpha: 2,
                num_blocks: 6,
            },
            TraceSpec::matrix(dcn_demand::DemandMatrix::zipf_pairs(8, 1.2, 3), 45, 7),
            TraceSpec::sequence(
                dcn_demand::MatrixSequence::zipf_switching(6, 2, 20, 1.1, 4),
                8,
            ),
            TraceSpec::materialized(uniform_trace(5, 17, 0)),
        ];
        for spec in specs {
            let src = spec.source();
            assert_eq!(spec.len(), src.len(), "{spec:?}");
            assert_eq!(spec.num_racks(), src.num_racks(), "{spec:?}");
            assert_eq!(spec.name(), src.name(), "{spec:?}");
            assert!(!spec.is_empty());
        }
    }

    #[test]
    fn with_seed_changes_stream_only_where_seeded() {
        let spec = TraceSpec::Uniform {
            num_racks: 8,
            len: 50,
            seed: 1,
        };
        let a = spec.as_trace().into_owned();
        let b = spec.with_seed(2).as_trace().into_owned();
        assert_ne!(a.requests, b.requests);
        assert_eq!(
            spec.with_seed(1),
            spec,
            "with_seed is a pure seed substitution"
        );
        let rr = TraceSpec::StarRoundRobin {
            spokes: 3,
            alpha: 2,
            num_blocks: 4,
        };
        assert_eq!(rr.with_seed(99), rr);
    }

    #[test]
    fn as_trace_borrows_materialized() {
        let spec = TraceSpec::materialized(uniform_trace(5, 10, 3));
        assert!(matches!(spec.as_trace(), Cow::Borrowed(_)));
        let gen = TraceSpec::Uniform {
            num_racks: 5,
            len: 10,
            seed: 3,
        };
        assert_eq!(gen.as_trace().requests, spec.as_trace().requests);
    }
}
