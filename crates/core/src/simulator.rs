//! Trace-driven simulation with the paper's cost model and checkpointed
//! series (§3.1 methodology).
//!
//! The simulator owns the cost model: routing cost is decided by the
//! matching state *at request arrival* (1 if matched, `ℓ_e` otherwise),
//! reconfigurations cost α each. Wall-clock time covers only the serve
//! loop — snapshotting and request generation are excluded — and a run
//! serves on the calling thread, matching "each simulation is run
//! sequentially" in §3.1. Parallelism lives in the sweep executor, across
//! independent runs; the one exception, chosen there, is a helper thread
//! that generates a sequential job's next requests
//! ([`crate::prefetch::with_prefetch`]), which leaves serving, and so the
//! stopwatch, on this thread.
//!
//! The serve loop is **batched**: requests are pulled through the
//! [`RequestStream`] abstraction in chunks of up to
//! [`SimConfig::batch_size`] into a reusable buffer, and each chunk is
//! handed to [`OnlineScheduler::serve_batch`] in one call — so the
//! per-request constant pays no virtual dispatch, no stopwatch reads and no
//! stream bookkeeping. Chunks are cut so they never straddle a checkpoint
//! or a verification boundary; a checkpoint landing in the middle of a
//! batch therefore still snapshots at its exact request index, and batched
//! and unbatched runs produce identical reports (pinned by tests below).
//!
//! A slice / `Vec` / [`Trace`] is consumed as zero-copy subslices; a
//! `&mut impl RequestSource` fills the batch buffer via
//! [`RequestSource::fill`] — the simulator itself holds O(batch) state in
//! the stream length, so workloads of tens of millions of requests run at
//! constant memory.

use crate::report::{Checkpoint, RunReport};
use crate::scheduler::{BatchOutcome, OnlineScheduler};
use dcn_telemetry::{Histogram, Telemetry};
use dcn_topology::{DistanceMatrix, Pair};
use dcn_traces::source::RequestSource;
use dcn_traces::Trace;
use dcn_util::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Requests served by [`run`] across the whole process, telemetry or not —
/// one relaxed add per chunk, powering the per-target throughput footer of
/// `repro_figures` without a telemetry registry.
static TOTAL_SERVED: AtomicU64 = AtomicU64::new(0);

/// Requests served by [`run`] so far, process-wide. Monotone; diff two
/// reads to attribute requests to a span of work.
pub fn total_served() -> u64 {
    TOTAL_SERVED.load(Ordering::Relaxed)
}

/// Default serve-batch size: large enough to amortize per-batch overhead
/// into noise, small enough that the buffer stays cache-resident (8 KiB of
/// packed pairs).
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Simulation options.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Request counts at which to snapshot cumulative series; the trace end
    /// is always snapshotted. Out-of-range entries are ignored.
    pub checkpoints: Vec<usize>,
    /// Verify the matching invariant every this many requests (0 = never;
    /// tests use small values, benches 0).
    pub verify_every: usize,
    /// Seed recorded in the report (provenance only).
    pub seed: u64,
    /// Trace name recorded in the report.
    pub trace_name: String,
    /// Maximum requests per [`OnlineScheduler::serve_batch`] call
    /// (`0` is treated as `1`, i.e. per-request serving). Any value
    /// produces the identical report; this only tunes the constant.
    pub batch_size: usize,
    /// Sink for run telemetry (serve-latency histogram, scheduler event
    /// counters, executor stats). The default picks up the process-global
    /// handle ([`dcn_telemetry::global`]), so sweeps and ablations built on
    /// `SimConfig::default()` report automatically once `repro_figures
    /// --telemetry` installs one. Disabled handles cost one branch per
    /// chunk; the report is byte-identical either way (pinned by proptest).
    pub telemetry: Telemetry,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            checkpoints: Vec::new(),
            verify_every: 0,
            seed: 0,
            trace_name: String::new(),
            batch_size: DEFAULT_BATCH_SIZE,
            telemetry: dcn_telemetry::global(),
        }
    }
}

impl SimConfig {
    /// A copy serving `batch_size` requests per scheduler call.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// A copy flushing run telemetry into `telemetry` (instead of the
    /// process-global handle `Default` picks up).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Evenly spaced checkpoints: up to `count` points up to `total`.
    ///
    /// Degrades gracefully instead of panicking: `count` is clamped to
    /// `1..=total` (a 3-request `--fast` smoke trace asked for 14 points
    /// gets 3), and an empty trace gets an empty grid.
    pub fn evenly_spaced(total: usize, count: usize) -> Vec<usize> {
        if total == 0 {
            return Vec::new();
        }
        let count = count.clamp(1, total);
        (1..=count).map(|i| total * i / count).collect()
    }
}

/// Anything the simulator can consume as a request sequence: an eager slice
/// (`&[Pair]`, `&Vec<Pair>`, `&Trace`) or a lazy `&mut impl RequestSource`
/// stream. Conversion yields a [`RequestChunks`] cursor the batched serve
/// loop pulls chunks from.
pub trait RequestStream {
    /// The concrete chunk cursor.
    type Chunks: RequestChunks;

    /// Converts into the chunk cursor.
    fn into_chunks(self) -> Self::Chunks;
}

/// Cursor over a request sequence, consumed in caller-sized chunks.
///
/// The total length is consulted **once**, up front, to lay out the
/// checkpoint grid; after that the simulator only asks for chunks.
pub trait RequestChunks {
    /// Requests not yet consumed.
    fn remaining(&self) -> usize;

    /// Yields the next `min(buf.len(), remaining)` requests. Eager
    /// sequences return zero-copy subslices of their storage and never
    /// touch `buf`; streaming sources fill `buf` (via
    /// [`RequestSource::fill`]) and return the filled prefix.
    fn next_chunk<'a>(&'a mut self, buf: &'a mut [Pair]) -> &'a [Pair];
}

/// Zero-copy chunk cursor over an eager request slice.
pub struct SliceChunks<'a> {
    requests: &'a [Pair],
}

impl RequestChunks for SliceChunks<'_> {
    fn remaining(&self) -> usize {
        self.requests.len()
    }

    fn next_chunk<'b>(&'b mut self, buf: &'b mut [Pair]) -> &'b [Pair] {
        let n = buf.len().min(self.requests.len());
        let (head, tail) = self.requests.split_at(n);
        self.requests = tail;
        head
    }
}

/// Chunk cursor over a lazy [`RequestSource`] (batch-fills the buffer).
pub struct SourceChunks<'a, S: ?Sized>(&'a mut S);

impl<S: RequestSource + ?Sized> RequestChunks for SourceChunks<'_, S> {
    fn remaining(&self) -> usize {
        self.0.remaining()
    }

    fn next_chunk<'b>(&'b mut self, buf: &'b mut [Pair]) -> &'b [Pair] {
        let n = self.0.fill(buf);
        &buf[..n]
    }
}

impl<'a> RequestStream for &'a [Pair] {
    type Chunks = SliceChunks<'a>;

    fn into_chunks(self) -> Self::Chunks {
        SliceChunks { requests: self }
    }
}

impl<'a> RequestStream for &'a Vec<Pair> {
    type Chunks = SliceChunks<'a>;

    fn into_chunks(self) -> Self::Chunks {
        SliceChunks { requests: self }
    }
}

impl<'a> RequestStream for &'a Trace {
    type Chunks = SliceChunks<'a>;

    fn into_chunks(self) -> Self::Chunks {
        SliceChunks {
            requests: &self.requests,
        }
    }
}

impl<'a, S: RequestSource + ?Sized> RequestStream for &'a mut S {
    type Chunks = SourceChunks<'a, S>;

    fn into_chunks(self) -> Self::Chunks {
        SourceChunks(self)
    }
}

/// Runs `scheduler` over `requests`, returning the checkpointed report.
///
/// A streaming source is consumed from its *current* position; call
/// [`RequestSource::reset`] first to replay from the start.
///
/// The serve loop is chunked: one reusable batch buffer, one
/// [`OnlineScheduler::serve_batch`] call per chunk, chunks cut at
/// checkpoint and verification boundaries so snapshots land at exact
/// request indices. The produced report is identical for every
/// [`SimConfig::batch_size`] (only `elapsed_secs` — wall-clock — varies).
pub fn run<S: OnlineScheduler + ?Sized, R: RequestStream>(
    scheduler: &mut S,
    dm: &DistanceMatrix,
    alpha: u64,
    requests: R,
    config: &SimConfig,
) -> RunReport {
    let mut stream = requests.into_chunks();
    let total = stream.remaining();
    let mut cps: Vec<usize> = config
        .checkpoints
        .iter()
        .copied()
        .filter(|&c| c > 0 && c <= total)
        .collect();
    cps.sort_unstable();
    cps.dedup();
    if cps.last() != Some(&total) && total > 0 {
        cps.push(total);
    }

    let batch = config.batch_size.max(1).min(total.max(1));
    let mut buf = vec![Pair::new(0, 1); batch];
    // Telemetry recorders are run-local; the registry is only touched at
    // the flush below. With a disabled handle the serve loop pays one
    // branch per chunk and nothing else.
    let telem_on = config.telemetry.is_enabled();
    let mut chunk_ns = Histogram::default();
    let mut state = Checkpoint::default();
    let mut checkpoints = Vec::with_capacity(cps.len());
    let mut next_cp = 0usize;
    let mut served = 0usize;
    let mut sw = Stopwatch::new();

    while served < total {
        dcn_util::failpoint::hit("sim.chunk");
        // The chunk must not straddle a checkpoint or verify boundary.
        let mut limit = batch.min(total - served);
        if next_cp < cps.len() {
            limit = limit.min(cps[next_cp] - served);
        }
        if config.verify_every > 0 {
            limit = limit.min(config.verify_every - served % config.verify_every);
        }

        // Chunk generation stays outside the timed window, exactly like the
        // historical per-request loop (wall-clock covers serving only).
        let chunk = stream.next_chunk(&mut buf[..limit]);
        let n = chunk.len();
        if n == 0 {
            break; // defensive: stream ended short of its advertised total
        }
        let mut acc = BatchOutcome::default();
        // Chunk latency reads the clock outside the stopwatch window, so
        // `elapsed_secs` is identical with telemetry on or off.
        let chunk_t0 = telem_on.then(Instant::now);
        sw.start();
        scheduler.serve_batch(chunk, dm, &mut acc);
        sw.pause();
        if let Some(t0) = chunk_t0 {
            chunk_ns.record(t0.elapsed().as_nanos() as u64);
        }
        TOTAL_SERVED.fetch_add(n as u64, Ordering::Relaxed);

        state.requests += n as u64;
        state.matched_requests += acc.matched;
        state.routing_cost += acc.routing_cost;
        state.reconfigurations += acc.reconfigurations();
        state.reconfig_cost += alpha * acc.reconfigurations();
        served += n;

        if config.verify_every > 0 && served % config.verify_every == 0 {
            scheduler.matching().assert_valid();
        }
        if next_cp < cps.len() && served == cps[next_cp] {
            state.elapsed_secs = sw.elapsed_secs();
            checkpoints.push(state);
            next_cp += 1;
        }
    }
    state.elapsed_secs = sw.elapsed_secs();

    if telem_on {
        let sink = &config.telemetry;
        sink.add_counter("serve.chunks", chunk_ns.count());
        sink.add_counter("serve.requests", state.requests);
        sink.add_counter("serve.matched", state.matched_requests);
        sink.add_counter("serve.reconfigurations", state.reconfigurations);
        sink.merge_histogram("serve.chunk_ns", &chunk_ns);
        scheduler.telemetry_flush(sink);
    }

    RunReport {
        algorithm: scheduler.name().to_string(),
        trace: config.trace_name.clone(),
        b: scheduler.cap(),
        alpha,
        seed: config.seed,
        total: state,
        checkpoints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::oblivious::Oblivious;
    use crate::algorithms::rbma::{Rbma, RemovalMode};
    use dcn_topology::builders;
    use dcn_traces::uniform_source;
    use std::sync::Arc;

    fn setup(n: usize) -> (Arc<DistanceMatrix>, Vec<Pair>) {
        let net = builders::leaf_spine(n, 2); // all distances 2
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let reqs: Vec<Pair> = (0..600u32)
            .map(|i| {
                Pair::new(
                    i % n as u32,
                    (i % (n as u32 - 1) + 1 + i % n as u32) % n as u32,
                )
            })
            .filter(|p| p.lo() != p.hi())
            .collect();
        (dm, reqs)
    }

    #[test]
    fn oblivious_cost_is_sum_of_distances() {
        let (dm, reqs) = setup(8);
        let mut alg = Oblivious::new(8, 2);
        let report = run(&mut alg, &dm, 10, &reqs, &SimConfig::default());
        let expected: u64 = reqs.iter().map(|r| dm.ell(*r) as u64).sum();
        assert_eq!(report.total.routing_cost, expected);
        assert_eq!(report.total.reconfig_cost, 0);
        assert_eq!(report.total.requests, reqs.len() as u64);
    }

    #[test]
    fn checkpoints_are_cumulative_and_sorted() {
        let (dm, reqs) = setup(8);
        let mut alg = Oblivious::new(8, 2);
        let config = SimConfig {
            checkpoints: vec![100, 300, 200, 100_000],
            ..Default::default()
        };
        let report = run(&mut alg, &dm, 10, &reqs, &config);
        let xs: Vec<u64> = report.checkpoints.iter().map(|c| c.requests).collect();
        assert_eq!(xs, vec![100, 200, 300, reqs.len() as u64]);
        let costs: Vec<u64> = report.checkpoints.iter().map(|c| c.routing_cost).collect();
        assert!(
            costs.windows(2).all(|w| w[0] <= w[1]),
            "cumulative must be monotone"
        );
    }

    #[test]
    fn rbma_cheaper_than_oblivious_on_repetitive_trace() {
        let n = 10;
        let net = builders::leaf_spine(n, 2);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        // A few hot pairs requested over and over.
        let reqs: Vec<Pair> = (0..4000u32).map(|i| Pair::new(i % 3, 5 + i % 3)).collect();
        let alpha = 5;
        let mut rbma = Rbma::new(dm.clone(), 3, alpha, RemovalMode::Lazy, 1);
        let r1 = run(&mut rbma, &dm, alpha, &reqs, &SimConfig::default());
        let mut obl = Oblivious::new(n, 3);
        let r2 = run(&mut obl, &dm, alpha, &reqs, &SimConfig::default());
        assert!(
            r1.total.routing_cost < r2.total.routing_cost,
            "R-BMA should beat oblivious on hot pairs: {} vs {}",
            r1.total.routing_cost,
            r2.total.routing_cost
        );
        // Total cost (incl. reconfig) must also win on this easy trace.
        assert!(r1.total.total_cost() < r2.total.total_cost());
    }

    #[test]
    fn reconfig_cost_is_alpha_times_changes() {
        let (dm, reqs) = setup(8);
        let alpha = 7;
        let mut rbma = Rbma::new(dm.clone(), 2, alpha, RemovalMode::Lazy, 2);
        let report = run(&mut rbma, &dm, alpha, &reqs, &SimConfig::default());
        assert_eq!(
            report.total.reconfig_cost,
            alpha * report.total.reconfigurations
        );
    }

    #[test]
    fn verification_hook_runs() {
        let (dm, reqs) = setup(8);
        let mut rbma = Rbma::new(dm.clone(), 2, 4, RemovalMode::Lazy, 3);
        let config = SimConfig {
            verify_every: 50,
            ..Default::default()
        };
        // Passes iff assert_valid never fires.
        let report = run(&mut rbma, &dm, 4, &reqs, &config);
        assert_eq!(report.total.requests, reqs.len() as u64);
    }

    #[test]
    fn streamed_run_equals_materialized_run() {
        let net = builders::leaf_spine(12, 2);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let mut source = uniform_source(12, 5000, 9);
        let trace = source.materialize();
        let config = SimConfig {
            checkpoints: vec![1000, 2500],
            ..Default::default()
        };

        let mut a = Rbma::new(dm.clone(), 3, 10, RemovalMode::Lazy, 4);
        let eager = run(&mut a, &dm, 10, &trace.requests, &config);
        let mut b = Rbma::new(dm.clone(), 3, 10, RemovalMode::Lazy, 4);
        let streamed = run(&mut b, &dm, 10, &mut source, &config);

        assert_eq!(eager.total.routing_cost, streamed.total.routing_cost);
        assert_eq!(
            eager.total.reconfigurations,
            streamed.total.reconfigurations
        );
        assert_eq!(eager.checkpoints.len(), streamed.checkpoints.len());
        for (x, y) in eager.checkpoints.iter().zip(&streamed.checkpoints) {
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.routing_cost, y.routing_cost);
        }
    }

    #[test]
    fn streamed_run_consumes_from_current_position() {
        let net = builders::leaf_spine(8, 2);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let mut source = uniform_source(8, 100, 2);
        source.next_request();
        let mut alg = Oblivious::new(8, 2);
        let report = run(&mut alg, &dm, 10, &mut source, &SimConfig::default());
        assert_eq!(report.total.requests, 99);
        source.reset();
        let mut alg2 = Oblivious::new(8, 2);
        let full = run(&mut alg2, &dm, 10, &mut source, &SimConfig::default());
        assert_eq!(full.total.requests, 100);
    }

    #[test]
    fn batched_run_equals_unbatched_run_for_every_scheduler() {
        // The hard batching contract: any batch size produces the identical
        // report — total cost, reconfiguration count, every checkpoint — on
        // every scheduler with a fused serve_batch loop (R-BMA in both
        // modes, BMA, Oblivious, Rotor).
        use crate::algorithms::bma::Bma;
        use crate::algorithms::rotor::Rotor;
        let net = builders::fat_tree_with_racks(16);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let mut source = uniform_source(16, 6_000, 11);
        let trace = source.materialize();
        let base = SimConfig {
            checkpoints: vec![500, 1_234, 3_000, 5_999],
            ..Default::default()
        };
        type Factory<'a> = Box<dyn Fn() -> Box<dyn OnlineScheduler> + 'a>;
        let factories: Vec<(&str, Factory)> = vec![
            (
                "rbma-lazy",
                Box::new(|| Box::new(Rbma::new(dm.clone(), 3, 10, RemovalMode::Lazy, 4))),
            ),
            (
                "rbma-strict",
                Box::new(|| Box::new(Rbma::new(dm.clone(), 3, 10, RemovalMode::Strict, 4))),
            ),
            ("bma", Box::new(|| Box::new(Bma::new(dm.clone(), 3, 10)))),
            ("oblivious", Box::new(|| Box::new(Oblivious::new(16, 3)))),
            ("rotor", Box::new(|| Box::new(Rotor::new(16, 3, 7)))),
        ];
        for (name, make) in &factories {
            let mut reference = make();
            let unbatched = run(
                reference.as_mut(),
                &dm,
                10,
                &trace.requests,
                &base.clone().with_batch_size(1),
            );
            for batch_size in [2usize, 7, 64, 1024, 100_000] {
                let config = base.clone().with_batch_size(batch_size);
                // Eager (zero-copy subslice) path.
                let mut s = make();
                let eager = run(s.as_mut(), &dm, 10, &trace.requests, &config);
                assert_eq!(
                    eager.without_wall_clock(),
                    unbatched.without_wall_clock(),
                    "{name} b={batch_size}"
                );
                // Streamed (fill-into-buffer) path.
                source.reset();
                let mut s = make();
                let streamed = run(s.as_mut(), &dm, 10, &mut source, &config);
                assert_eq!(
                    streamed.without_wall_clock(),
                    unbatched.without_wall_clock(),
                    "{name} streamed b={batch_size}"
                );
            }
        }
    }

    #[test]
    fn checkpoint_inside_a_batch_snapshots_at_exact_index() {
        // Regression (batched refactor): checkpoints that do not divide the
        // batch size must still snapshot at their exact request index, with
        // the same cumulative state an unbatched run records there.
        let net = builders::leaf_spine(10, 2);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let mut source = uniform_source(10, 2_000, 3);
        // 37 and 1961 both fall strictly inside 1024-sized batches.
        let config = SimConfig {
            checkpoints: vec![37, 1_961],
            batch_size: 1024,
            ..Default::default()
        };
        let mut a = Rbma::new(dm.clone(), 2, 5, RemovalMode::Lazy, 1);
        let batched = run(&mut a, &dm, 5, &mut source, &config);
        let xs: Vec<u64> = batched.checkpoints.iter().map(|c| c.requests).collect();
        assert_eq!(xs, vec![37, 1_961, 2_000]);

        source.reset();
        let mut b = Rbma::new(dm.clone(), 2, 5, RemovalMode::Lazy, 1);
        let unbatched = run(
            &mut b,
            &dm,
            5,
            &mut source,
            &config.clone().with_batch_size(1),
        );
        assert_eq!(
            batched.without_wall_clock(),
            unbatched.without_wall_clock(),
            "checkpoint mid-batch"
        );
    }

    #[test]
    fn verify_hook_fires_at_exact_boundaries_in_batched_runs() {
        // verify_every must split batches, so assert_valid runs at the same
        // request indices as the historical per-request loop. A panic-free
        // run over a verify interval that is coprime to the batch size is
        // the regression signal.
        let (dm, reqs) = setup(8);
        let config = SimConfig {
            verify_every: 97,
            batch_size: 64,
            ..Default::default()
        };
        let mut rbma = Rbma::new(dm.clone(), 2, 4, RemovalMode::Lazy, 3);
        let report = run(&mut rbma, &dm, 4, &reqs, &config);
        assert_eq!(report.total.requests, reqs.len() as u64);
    }

    #[test]
    fn evenly_spaced_grid() {
        assert_eq!(SimConfig::evenly_spaced(100, 4), vec![25, 50, 75, 100]);
        assert_eq!(SimConfig::evenly_spaced(10, 1), vec![10]);
    }

    #[test]
    fn evenly_spaced_clamps_gracefully() {
        // count > total: one checkpoint per request instead of a panic.
        assert_eq!(SimConfig::evenly_spaced(3, 14), vec![1, 2, 3]);
        assert_eq!(SimConfig::evenly_spaced(1, 8), vec![1]);
        // count = 0 still yields the trace end; empty traces yield nothing.
        assert_eq!(SimConfig::evenly_spaced(5, 0), vec![5]);
        assert_eq!(SimConfig::evenly_spaced(0, 4), Vec::<usize>::new());
    }
}
