//! Adversarial trace **genomes**: typed segment sequences that lower
//! deterministically to a [`RequestSource`].
//!
//! A genome is the unit the coverage-guided adversarial search
//! (`dcn-adversary`) mutates: a rack count plus a sequence of typed
//! [`Segment`]s — uniform noise, movable hotspots, permutation splices,
//! §2.4 star-nemesis blocks and Zipf-skew ramps. Each segment carries its
//! **own** seed and draws from its **own** derived RNG stream, so mutating
//! one segment (reseeding it, perturbing a parameter) never perturbs the
//! requests any other segment emits — the search locality that makes
//! pool-based mutation productive.
//!
//! Genomes serialize through `dcn-util::json` ([`Genome::to_json`] /
//! [`Genome::from_json`]), so every discovered adversarial input is a
//! committed, replayable artifact: the regression corpus under
//! `crates/adversary/corpus/` is exactly these JSON documents.

use crate::generators::all_pairs;
use crate::sampler::{zipf_weights, AliasTable};
use crate::source::{RequestSource, SeededSource, SourceKernel};
use crate::trace::Trace;
use dcn_topology::pair::DENSE_RACK_LIMIT;
use dcn_topology::Pair;
use dcn_util::json::{parse_json, to_json_string, JsonValue};
use dcn_util::rngx::{derive_seed, shuffle};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;

/// Number of interpolation steps a [`Segment::ZipfRamp`] quantizes its
/// exponent ramp into (one alias table per step).
pub const ZIPF_RAMP_STEPS: usize = 8;

/// Most requests a valid genome may emit. Replays materialize genomes for
/// the offline baseline, so [`Genome::validate`] bounds the total before
/// any allocation is sized by it.
pub const MAX_GENOME_LEN: usize = 100_000_000;

/// One typed segment of a trace genome. `len()` requests are emitted from
/// the segment's own seeded RNG stream.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum Segment {
    /// Uniform i.i.d. distinct pairs over all racks.
    Uniform {
        /// Requests emitted.
        len: usize,
        /// Segment seed.
        seed: u64,
    },
    /// Hotspot traffic whose hot set can *move*: with probability `p_hot`
    /// the pair is drawn among the `num_hot` racks starting at rack
    /// `offset` (wrapping), otherwise uniformly over all racks.
    Hotspot {
        /// Requests emitted.
        len: usize,
        /// Hot-set size (≥ 2).
        num_hot: usize,
        /// Probability a request stays inside the hot set.
        p_hot: f64,
        /// First hot rack (wraps modulo the rack count) — the "hotspot
        /// move" lever.
        offset: usize,
        /// Segment seed.
        seed: u64,
    },
    /// A fixed random perfect matching, cycled — the permutation splice.
    Permutation {
        /// Requests emitted.
        len: usize,
        /// Segment seed (selects the matching).
        seed: u64,
    },
    /// §2.4 star-nemesis blocks: `blocks` runs of `block_len` requests,
    /// each run pinned to the pair `{hub 0, random spoke in 1..=spokes}`.
    StarBlocks {
        /// Spoke universe (hub is rack 0).
        spokes: usize,
        /// Requests per block (the α of the paging reduction).
        block_len: usize,
        /// Number of blocks.
        blocks: usize,
        /// Segment seed.
        seed: u64,
    },
    /// Zipf-ranked pair popularity whose exponent ramps linearly from
    /// `s_start` to `s_end` over the segment (quantized into
    /// [`ZIPF_RAMP_STEPS`] alias tables).
    ZipfRamp {
        /// Requests emitted.
        len: usize,
        /// Exponent at the segment start.
        s_start: f64,
        /// Exponent at the segment end.
        s_end: f64,
        /// Segment seed.
        seed: u64,
    },
}

impl Segment {
    /// Requests this segment emits.
    pub fn len(&self) -> usize {
        self.checked_len()
            .expect("star block_len × blocks overflows usize")
    }

    /// Requests this segment emits, or `None` when a star segment's
    /// `block_len × blocks` overflows.
    fn checked_len(&self) -> Option<usize> {
        match *self {
            Segment::Uniform { len, .. }
            | Segment::Hotspot { len, .. }
            | Segment::Permutation { len, .. }
            | Segment::ZipfRamp { len, .. } => Some(len),
            Segment::StarBlocks {
                block_len, blocks, ..
            } => block_len.checked_mul(blocks),
        }
    }

    /// Whether the segment emits nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segment's seed.
    pub fn seed(&self) -> u64 {
        match *self {
            Segment::Uniform { seed, .. }
            | Segment::Hotspot { seed, .. }
            | Segment::Permutation { seed, .. }
            | Segment::StarBlocks { seed, .. }
            | Segment::ZipfRamp { seed, .. } => seed,
        }
    }

    /// Replaces the segment's seed (the "reseed segment" mutation).
    pub fn reseed(&mut self, new_seed: u64) {
        match self {
            Segment::Uniform { seed, .. }
            | Segment::Hotspot { seed, .. }
            | Segment::Permutation { seed, .. }
            | Segment::StarBlocks { seed, .. }
            | Segment::ZipfRamp { seed, .. } => *seed = new_seed,
        }
    }

    /// Structural validity against a rack count.
    fn validate(&self, num_racks: usize) -> Result<(), String> {
        let ok_len = |len: usize| {
            if len == 0 {
                Err("segment length must be >= 1".to_string())
            } else {
                Ok(())
            }
        };
        match *self {
            Segment::Uniform { len, .. } | Segment::Permutation { len, .. } => ok_len(len),
            Segment::Hotspot {
                len,
                num_hot,
                p_hot,
                offset,
                ..
            } => {
                ok_len(len)?;
                if num_hot < 2 || num_hot > num_racks {
                    return Err(format!("hotspot num_hot {num_hot} not in 2..={num_racks}"));
                }
                if !(0.0..=1.0).contains(&p_hot) {
                    return Err(format!("hotspot p_hot {p_hot} not in [0, 1]"));
                }
                if offset >= num_racks {
                    return Err(format!("hotspot offset {offset} >= num_racks {num_racks}"));
                }
                Ok(())
            }
            Segment::StarBlocks {
                spokes,
                block_len,
                blocks,
                ..
            } => {
                if spokes < 2 || spokes >= num_racks {
                    return Err(format!("star spokes {spokes} not in 2..{num_racks}"));
                }
                if block_len == 0 || blocks == 0 {
                    return Err("star blocks need block_len >= 1 and blocks >= 1".to_string());
                }
                Ok(())
            }
            Segment::ZipfRamp {
                len,
                s_start,
                s_end,
                ..
            } => {
                ok_len(len)?;
                for s in [s_start, s_end] {
                    if !s.is_finite() || !(0.0..=4.0).contains(&s) {
                        return Err(format!("zipf exponent {s} not in [0, 4]"));
                    }
                }
                Ok(())
            }
        }
    }
}

/// An adversarial trace genome: a rack count plus a segment sequence.
///
/// Lower it with [`Genome::source`]; serialize with [`Genome::to_json`] and
/// replay with [`Genome::from_json`] — the lowered stream is a pure
/// function of the genome value.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Genome {
    /// Number of racks (must be even and ≥ 4, so permutation splices are
    /// always well-formed).
    pub num_racks: usize,
    /// The segment sequence (non-empty).
    pub segments: Vec<Segment>,
}

impl Genome {
    /// Builds and validates a genome; panics on a structurally invalid one
    /// (use [`Genome::validate`] for fallible construction).
    pub fn new(num_racks: usize, segments: Vec<Segment>) -> Self {
        let g = Genome {
            num_racks,
            segments,
        };
        if let Err(e) = g.validate() {
            panic!("invalid genome: {e}");
        }
        g
    }

    /// Structural validity: even rack count in `4..=`[`DENSE_RACK_LIMIT`],
    /// at least one segment, every segment valid for this rack count, and
    /// at most [`MAX_GENOME_LEN`] requests in total.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_racks < 4 || self.num_racks % 2 != 0 {
            return Err(format!(
                "genome num_racks {} must be even and >= 4",
                self.num_racks
            ));
        }
        if self.num_racks > DENSE_RACK_LIMIT {
            return Err(format!(
                "genome num_racks {} exceeds {DENSE_RACK_LIMIT}",
                self.num_racks
            ));
        }
        if self.segments.is_empty() {
            return Err("genome needs at least one segment".to_string());
        }
        for (i, seg) in self.segments.iter().enumerate() {
            seg.validate(self.num_racks)
                .map_err(|e| format!("segment {i}: {e}"))?;
        }
        let len = self
            .segments
            .iter()
            .try_fold(0usize, |total, seg| total.checked_add(seg.checked_len()?));
        if len.is_none_or(|len| len > MAX_GENOME_LEN) {
            return Err(format!("genome len exceeds {MAX_GENOME_LEN} requests"));
        }
        Ok(())
    }

    /// Total requests the lowered source emits.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    /// Whether the genome emits nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Report name of the lowered source.
    pub fn name(&self) -> String {
        format!(
            "genome(n={}, segs={}, len={})",
            self.num_racks,
            self.segments.len(),
            self.len()
        )
    }

    /// Lowers the genome to its request stream. Deterministic: the same
    /// genome value always yields the same sequence.
    pub fn source(&self) -> GenomeSource {
        if let Err(e) = self.validate() {
            panic!("cannot lower invalid genome: {e}");
        }
        let parts = self
            .segments
            .iter()
            .map(|seg| lower_segment(seg, self.num_racks))
            .collect();
        GenomeSource {
            parts,
            part: 0,
            pos: 0,
            len: self.len(),
            num_racks: self.num_racks,
            name: self.name(),
        }
    }

    /// Materialized request sequence (for offline baselines).
    pub fn as_trace(&self) -> Trace {
        self.source().materialize()
    }

    /// Compact JSON form (via the `dcn-util::json` emitter).
    pub fn to_json(&self) -> String {
        to_json_string(self).expect("genome serialization cannot fail")
    }

    /// Parses [`Genome::to_json`] output back; the result is validated.
    pub fn from_json(text: &str) -> Result<Genome, String> {
        Genome::from_value(&parse_json(text)?)
    }

    /// Decodes a genome from an already-parsed [`JsonValue`] subtree (for
    /// documents embedding a genome, e.g. corpus entries); validated.
    pub fn from_value(v: &JsonValue) -> Result<Genome, String> {
        let genome = decode_genome(v)?;
        genome.validate()?;
        Ok(genome)
    }
}

fn decode_genome(v: &JsonValue) -> Result<Genome, String> {
    let num_racks = v
        .get("num_racks")
        .and_then(JsonValue::as_usize)
        .ok_or("genome: missing integer field num_racks")?;
    let segments = v
        .get("segments")
        .and_then(JsonValue::as_array)
        .ok_or("genome: missing array field segments")?
        .iter()
        .enumerate()
        .map(|(i, s)| decode_segment(s).map_err(|e| format!("segment {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Genome {
        num_racks,
        segments,
    })
}

fn decode_segment(v: &JsonValue) -> Result<Segment, String> {
    let obj = v.as_object().ok_or("segment must be an object")?;
    let (variant, body) = obj
        .first()
        .ok_or("segment object must have one variant key")?;
    let req_usize = |key: &str| {
        body.get(key)
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| format!("{variant}: missing integer field {key}"))
    };
    let req_u64 = |key: &str| {
        body.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{variant}: missing u64 field {key}"))
    };
    let req_f64 = |key: &str| {
        body.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{variant}: missing number field {key}"))
    };
    match variant.as_str() {
        "Uniform" => Ok(Segment::Uniform {
            len: req_usize("len")?,
            seed: req_u64("seed")?,
        }),
        "Hotspot" => Ok(Segment::Hotspot {
            len: req_usize("len")?,
            num_hot: req_usize("num_hot")?,
            p_hot: req_f64("p_hot")?,
            offset: req_usize("offset")?,
            seed: req_u64("seed")?,
        }),
        "Permutation" => Ok(Segment::Permutation {
            len: req_usize("len")?,
            seed: req_u64("seed")?,
        }),
        "StarBlocks" => Ok(Segment::StarBlocks {
            spokes: req_usize("spokes")?,
            block_len: req_usize("block_len")?,
            blocks: req_usize("blocks")?,
            seed: req_u64("seed")?,
        }),
        "ZipfRamp" => Ok(Segment::ZipfRamp {
            len: req_usize("len")?,
            s_start: req_f64("s_start")?,
            s_end: req_f64("s_end")?,
            seed: req_u64("seed")?,
        }),
        other => Err(format!("unknown segment variant {other:?}")),
    }
}

/// Uniform distinct pair over `0..n` — same two-draw scheme as the
/// synthetic generators, replicated here so genome streams stay pinned
/// even if the synthetic module's private helper changes.
#[inline]
fn uniform_pair(rng: &mut SmallRng, n: usize) -> Pair {
    let a = rng.random_range(0..n as u32);
    let mut b = rng.random_range(0..n as u32 - 1);
    if b >= a {
        b += 1;
    }
    Pair::new(a, b)
}

/// Per-segment generation rule; one [`SeededSource`] wraps each, so `t` is
/// segment-local and the RNG stream is the segment's own.
pub enum SegmentKernel {
    /// See [`Segment::Uniform`].
    Uniform {
        /// Rack count.
        n: usize,
    },
    /// See [`Segment::Hotspot`].
    Hotspot {
        /// Rack count.
        n: usize,
        /// Hot-set size.
        num_hot: usize,
        /// Hot probability.
        p_hot: f64,
        /// Hot-set start rack.
        offset: u32,
    },
    /// See [`Segment::Permutation`].
    Permutation {
        /// The cycled matching.
        pairs: Vec<Pair>,
    },
    /// See [`Segment::StarBlocks`].
    StarBlocks {
        /// Spoke universe.
        spokes: u32,
        /// Block length.
        block_len: usize,
        /// Current block's pair.
        current: Pair,
    },
    /// See [`Segment::ZipfRamp`].
    ZipfRamp {
        /// One alias table per ramp step, over the pairs in rank order.
        tables: Vec<AliasTable<Pair>>,
        /// Segment length (for the step index).
        len: usize,
    },
}

impl SourceKernel for SegmentKernel {
    fn emit(&mut self, t: usize, rng: &mut SmallRng) -> Pair {
        match self {
            SegmentKernel::Uniform { n } => uniform_pair(rng, *n),
            SegmentKernel::Hotspot {
                n,
                num_hot,
                p_hot,
                offset,
            } => {
                if rng.random_range(0.0..1.0f64) < *p_hot {
                    let p = uniform_pair(rng, *num_hot);
                    // Rotate the hot pair into the window starting at
                    // `offset` (distinctness is rotation-invariant).
                    let n = *n as u32;
                    Pair::new((p.lo() + *offset) % n, (p.hi() + *offset) % n)
                } else {
                    uniform_pair(rng, *n)
                }
            }
            SegmentKernel::Permutation { pairs } => pairs[t % pairs.len()],
            SegmentKernel::StarBlocks {
                spokes,
                block_len,
                current,
            } => {
                if t % *block_len == 0 {
                    let spoke = rng.random_range(1..=*spokes);
                    *current = Pair::new(0, spoke);
                }
                *current
            }
            SegmentKernel::ZipfRamp { tables, len } => {
                let step = (t * tables.len() / *len).min(tables.len() - 1);
                tables[step].sample(rng)
            }
        }
    }
}

/// Builds the seeded per-segment source. Setup draws (matching shuffle,
/// rank shuffle) happen before the [`SeededSource`] captures its reset
/// state, mirroring the synthetic generators.
fn lower_segment(seg: &Segment, num_racks: usize) -> SeededSource<SegmentKernel> {
    match *seg {
        Segment::Uniform { len, seed } => {
            let rng = SmallRng::seed_from_u64(derive_seed(seed, 0x6E01));
            SeededSource::new(
                SegmentKernel::Uniform { n: num_racks },
                rng,
                len,
                num_racks,
                String::new(),
            )
        }
        Segment::Hotspot {
            len,
            num_hot,
            p_hot,
            offset,
            seed,
        } => {
            let rng = SmallRng::seed_from_u64(derive_seed(seed, 0x6E02));
            SeededSource::new(
                SegmentKernel::Hotspot {
                    n: num_racks,
                    num_hot,
                    p_hot,
                    offset: offset as u32,
                },
                rng,
                len,
                num_racks,
                String::new(),
            )
        }
        Segment::Permutation { len, seed } => {
            let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x6E03));
            let mut racks: Vec<u32> = (0..num_racks as u32).collect();
            shuffle(&mut racks, &mut rng);
            let pairs: Vec<Pair> = racks
                .chunks_exact(2)
                .map(|c| Pair::new(c[0], c[1]))
                .collect();
            SeededSource::new(
                SegmentKernel::Permutation { pairs },
                rng,
                len,
                num_racks,
                String::new(),
            )
        }
        Segment::StarBlocks {
            spokes,
            block_len,
            blocks,
            seed,
        } => {
            let rng = SmallRng::seed_from_u64(derive_seed(seed, 0x6E04));
            SeededSource::new(
                SegmentKernel::StarBlocks {
                    spokes: spokes as u32,
                    block_len,
                    current: Pair::new(0, 1),
                },
                rng,
                block_len * blocks,
                num_racks,
                String::new(),
            )
        }
        Segment::ZipfRamp {
            len,
            s_start,
            s_end,
            seed,
        } => {
            let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x6E05));
            let mut pairs = all_pairs(num_racks);
            shuffle(&mut pairs, &mut rng);
            let steps = ZIPF_RAMP_STEPS.min(len).max(1);
            let tables = (0..steps)
                .map(|k| {
                    // Step k covers positions [k·len/steps, (k+1)·len/steps);
                    // its exponent is the ramp value at the step midpoint.
                    let frac = (k as f64 + 0.5) / steps as f64;
                    let s = s_start + (s_end - s_start) * frac;
                    AliasTable::with_values(&zipf_weights(pairs.len(), s), &pairs)
                })
                .collect();
            SeededSource::new(
                SegmentKernel::ZipfRamp { tables, len },
                rng,
                len,
                num_racks,
                String::new(),
            )
        }
    }
}

/// The lowered stream of a [`Genome`]: its segments' seeded sources,
/// concatenated. Implements the full [`RequestSource`] contract (batch
/// `fill` draw-for-draw equal to `next_request`, `reset` replay identity).
pub struct GenomeSource {
    parts: Vec<SeededSource<SegmentKernel>>,
    part: usize,
    pos: usize,
    len: usize,
    num_racks: usize,
    name: String,
}

impl RequestSource for GenomeSource {
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
        while self.part < self.parts.len() {
            if let Some(p) = self.parts[self.part].next_request() {
                self.pos += 1;
                return Some(p);
            }
            self.part += 1;
        }
        None
    }

    fn fill(&mut self, buf: &mut [Pair]) -> usize {
        let mut written = 0;
        while written < buf.len() && self.part < self.parts.len() {
            let part = &mut self.parts[self.part];
            written += part.fill(&mut buf[written..]);
            if part.remaining() == 0 {
                self.part += 1;
            }
        }
        self.pos += written;
        written
    }

    fn reset(&mut self) {
        for part in &mut self.parts {
            part.reset();
        }
        self.part = 0;
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_genome() -> Genome {
        Genome::new(
            8,
            vec![
                Segment::Uniform { len: 50, seed: 1 },
                Segment::Hotspot {
                    len: 60,
                    num_hot: 3,
                    p_hot: 0.9,
                    offset: 5,
                    seed: 2,
                },
                Segment::Permutation { len: 30, seed: 3 },
                Segment::StarBlocks {
                    spokes: 5,
                    block_len: 7,
                    blocks: 10,
                    seed: 4,
                },
                Segment::ZipfRamp {
                    len: 40,
                    s_start: 0.2,
                    s_end: 1.8,
                    seed: 5,
                },
            ],
        )
    }

    #[test]
    fn len_is_segment_sum_and_source_agrees() {
        let g = sample_genome();
        assert_eq!(g.len(), 50 + 60 + 30 + 70 + 40);
        let mut src = g.source();
        assert_eq!(src.len(), g.len());
        assert_eq!(src.num_racks(), 8);
        assert_eq!(src.name(), g.name());
        let emitted: Vec<Pair> = std::iter::from_fn(|| src.next_request()).collect();
        assert_eq!(emitted.len(), g.len());
        assert!(src.next_request().is_none());
        assert!(emitted.iter().all(|p| (p.hi() as usize) < g.num_racks));
    }

    #[test]
    fn lowering_is_deterministic() {
        let g = sample_genome();
        assert_eq!(g.as_trace().requests, g.as_trace().requests);
    }

    #[test]
    fn segment_streams_are_independent() {
        // Reseeding one segment must not change any other segment's output.
        let g1 = sample_genome();
        let mut g2 = g1.clone();
        g2.segments[1].reseed(0xFEED);
        let (t1, t2) = (g1.as_trace().requests, g2.as_trace().requests);
        assert_eq!(&t1[..50], &t2[..50], "segment 0 unchanged");
        assert_ne!(&t1[50..110], &t2[50..110], "segment 1 reseeded");
        assert_eq!(&t1[110..], &t2[110..], "segments 2.. unchanged");
    }

    #[test]
    fn hotspot_offset_moves_the_hot_set() {
        let hot = |offset: usize| {
            let g = Genome::new(
                12,
                vec![Segment::Hotspot {
                    len: 4000,
                    num_hot: 3,
                    p_hot: 1.0,
                    offset,
                    seed: 7,
                }],
            );
            let t = g.as_trace();
            t.requests
                .iter()
                .flat_map(|p| [p.lo(), p.hi()])
                .collect::<std::collections::HashSet<u32>>()
        };
        assert_eq!(hot(0), [0u32, 1, 2].into_iter().collect());
        assert_eq!(hot(5), [5u32, 6, 7].into_iter().collect());
        // Wrapping window.
        assert_eq!(hot(11), [11u32, 0, 1].into_iter().collect());
    }

    #[test]
    fn star_blocks_repeat_hub_pairs() {
        let g = Genome::new(
            8,
            vec![Segment::StarBlocks {
                spokes: 6,
                block_len: 5,
                blocks: 40,
                seed: 3,
            }],
        );
        let t = g.as_trace();
        assert!(t.requests.iter().all(|p| p.lo() == 0));
        for block in t.requests.chunks_exact(5) {
            assert!(block.iter().all(|&p| p == block[0]));
        }
    }

    #[test]
    fn zipf_ramp_skew_increases_along_the_segment() {
        let g = Genome::new(
            10,
            vec![Segment::ZipfRamp {
                len: 40_000,
                s_start: 0.1,
                s_end: 2.5,
                seed: 9,
            }],
        );
        let t = g.as_trace();
        let distinct = |reqs: &[Pair]| reqs.iter().collect::<std::collections::HashSet<_>>().len();
        let head = distinct(&t.requests[..10_000]);
        let tail = distinct(&t.requests[30_000..]);
        assert!(
            tail < head,
            "ramp must concentrate traffic: head {head} distinct vs tail {tail}"
        );
    }

    #[test]
    fn json_round_trip_is_identity() {
        let g = sample_genome();
        let text = g.to_json();
        let back = Genome::from_json(&text).expect("round trip");
        assert_eq!(back, g);
        assert_eq!(back.to_json(), text);
        // Large seeds survive exactly.
        let mut g2 = g;
        g2.segments[0].reseed(u64::MAX - 1);
        assert_eq!(Genome::from_json(&g2.to_json()).unwrap(), g2);
    }

    #[test]
    fn from_json_rejects_malformed_and_invalid() {
        assert!(Genome::from_json("{").is_err());
        assert!(Genome::from_json("{\"num_racks\":8}").is_err());
        assert!(Genome::from_json("{\"num_racks\":8,\"segments\":[]}").is_err());
        // Structurally parseable but semantically invalid (odd rack count).
        let bad = r#"{"num_racks":7,"segments":[{"Uniform":{"len":5,"seed":1}}]}"#;
        assert!(Genome::from_json(bad).unwrap_err().contains("even"));
        let unknown = r#"{"num_racks":8,"segments":[{"Mystery":{"len":5}}]}"#;
        assert!(Genome::from_json(unknown)
            .unwrap_err()
            .contains("unknown segment variant"));
    }

    #[test]
    fn validate_rejects_bad_segments() {
        let cases = [
            Genome {
                num_racks: 8,
                segments: vec![Segment::Uniform { len: 0, seed: 1 }],
            },
            Genome {
                num_racks: 8,
                segments: vec![Segment::Hotspot {
                    len: 5,
                    num_hot: 9,
                    p_hot: 0.5,
                    offset: 0,
                    seed: 1,
                }],
            },
            Genome {
                num_racks: 8,
                segments: vec![Segment::Hotspot {
                    len: 5,
                    num_hot: 3,
                    p_hot: 1.5,
                    offset: 0,
                    seed: 1,
                }],
            },
            Genome {
                num_racks: 8,
                segments: vec![Segment::StarBlocks {
                    spokes: 8,
                    block_len: 2,
                    blocks: 2,
                    seed: 1,
                }],
            },
            Genome {
                num_racks: 8,
                segments: vec![Segment::ZipfRamp {
                    len: 5,
                    s_start: -0.5,
                    s_end: 1.0,
                    seed: 1,
                }],
            },
        ];
        for g in cases {
            assert!(g.validate().is_err(), "{g:?} should be invalid");
        }
        assert!(sample_genome().validate().is_ok());
        // Size bounds: a rack count past the dense limit, and a star
        // segment whose block_len × blocks overflows usize.
        let huge_racks = Genome {
            num_racks: 1 << 20,
            segments: vec![Segment::Uniform { len: 5, seed: 1 }],
        };
        let err = huge_racks.validate().unwrap_err();
        assert!(err.contains("num_racks 1048576"), "{err}");
        let overflowing = Genome {
            num_racks: 8,
            segments: vec![Segment::StarBlocks {
                spokes: 3,
                block_len: 1 << 32,
                blocks: 1 << 32,
                seed: 1,
            }],
        };
        let err = overflowing.validate().unwrap_err();
        assert!(err.contains("len exceeds"), "{err}");
        // The length bound is inclusive.
        let at_limit = Genome {
            num_racks: 8,
            segments: vec![Segment::Uniform {
                len: MAX_GENOME_LEN,
                seed: 1,
            }],
        };
        assert!(at_limit.validate().is_ok());
        let past_limit = Genome {
            num_racks: 8,
            segments: vec![
                Segment::Uniform {
                    len: MAX_GENOME_LEN,
                    seed: 1,
                },
                Segment::Permutation { len: 1, seed: 2 },
            ],
        };
        assert!(past_limit.validate().is_err());
    }
}
