//! The generate-while-serving path (`dcn_core::prefetch`) against inline
//! serving: a sequential job run with a helper thread (`with_threads(2)`)
//! must produce the report, the `serve.chunks` / `serve.requests` counters
//! and the stream of the same job run on one thread (`with_threads(1)`),
//! for every workload kind, checkpoint grid and batch size; a chunk inside
//! a ring block must be served in place and only a chunk across a block's
//! end copied; and a panic on either thread must fail the job as a panic,
//! without a short report, a hang or an abort.
//!
//! The telemetry sink and the failpoint registry are process-global, so
//! every test here serializes on `LOCK`.

use dcn_core::algorithms::rbma::{Rbma, RemovalMode};
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::prefetch::{with_prefetch, BLOCK, BLOCKS, FILL};
use dcn_core::simulator::{RequestChunks, RequestStream};
use dcn_core::sweep::{run_jobs_sequential, run_jobs_supervised, with_threads, Job};
use dcn_core::{run, SimConfig};
use dcn_demand::{DemandMatrix, MatrixSequence};
use dcn_telemetry::Telemetry;
use dcn_topology::{builders, DistanceMatrix, Pair};
use dcn_traces::source::RequestSource;
use dcn_traces::{uniform_source, uniform_trace, FacebookCluster, MicrosoftParams, TraceSpec};
use dcn_util::failpoint;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const RACKS: usize = 16;

fn distances() -> Arc<DistanceMatrix> {
    Arc::new(DistanceMatrix::between_racks(
        &builders::fat_tree_with_racks(RACKS),
    ))
}

/// The report without its wall-clock fields, as JSON.
/// The `serve.chunks` and `serve.requests` counters of a snapshot.
fn serve_counters(sink: &Telemetry) -> (u64, u64) {
    let snap = sink.drain();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (counter("serve.chunks"), counter("serve.requests"))
}

/// Runs `f` on its own thread and fails (instead of hanging the suite) if
/// it does not finish within a minute.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the run hung or its thread died")
}

/// One workload of every `TraceSpec` kind, each long enough to wrap the
/// ring several times.
fn every_kind() -> Vec<TraceSpec> {
    let facebook = |cluster| TraceSpec::Facebook {
        cluster,
        num_racks: RACKS,
        // Past two of Hadoop's 12,000-request shuffle phases.
        len: 30_000,
        seed: 3,
    };
    vec![
        TraceSpec::Uniform {
            num_racks: RACKS,
            len: 20_000,
            seed: 1,
        },
        TraceSpec::Permutation {
            num_racks: RACKS,
            len: 20_000,
            seed: 2,
        },
        TraceSpec::Hotspot {
            num_racks: RACKS,
            len: 20_000,
            num_hot: 3,
            p_hot: 0.7,
            seed: 4,
        },
        TraceSpec::Zipf {
            num_racks: RACKS,
            len: 20_000,
            exponent: 1.2,
            seed: 5,
        },
        facebook(FacebookCluster::Database),
        facebook(FacebookCluster::WebService),
        facebook(FacebookCluster::Hadoop),
        TraceSpec::Microsoft {
            num_racks: RACKS,
            len: 20_000,
            params: MicrosoftParams::default(),
            seed: 6,
        },
        TraceSpec::StarUniform {
            spokes: 7,
            alpha: 10,
            num_blocks: 2_000,
            seed: 7,
        },
        TraceSpec::StarRoundRobin {
            spokes: 7,
            alpha: 10,
            num_blocks: 2_000,
        },
        TraceSpec::matrix(DemandMatrix::zipf_pairs(RACKS, 1.4, 8), 20_000, 9),
        TraceSpec::sequence(MatrixSequence::zipf_switching(RACKS, 3, 7_000, 1.2, 10), 11),
        TraceSpec::materialized(uniform_trace(RACKS, 20_000, 12)),
    ]
}

#[test]
fn every_trace_kind_serves_identically_with_and_without_the_helper() {
    let _g = locked();
    let dm = distances();
    let mut jobs = Vec::new();
    for (i, trace) in every_kind().into_iter().enumerate() {
        let len = trace.len();
        for algorithm in [AlgorithmKind::Rbma { lazy: true }, AlgorithmKind::Bma] {
            jobs.push(Job {
                algorithm,
                b: 3,
                alpha: 10,
                seed: i as u64,
                // 37 and 1,061 cut chunks short; the evenly spaced points
                // mostly do not fall on a block boundary.
                checkpoints: [37, 1_061]
                    .into_iter()
                    .chain(SimConfig::evenly_spaced(len, 7))
                    .collect(),
                trace: trace.clone(),
            });
        }
    }
    let sink = Telemetry::enabled();
    dcn_telemetry::install_global(sink.clone());
    let inline = with_threads(1, || run_jobs_sequential(&dm, &jobs));
    let inline_counters = serve_counters(&sink);
    let helped = with_threads(2, || run_jobs_sequential(&dm, &jobs));
    let helped_counters = serve_counters(&sink);
    dcn_telemetry::install_global(Telemetry::disabled());

    let requests: usize = jobs.iter().map(|j| j.trace.len()).sum();
    assert_eq!(inline_counters.1, requests as u64);
    assert_eq!(
        inline_counters, helped_counters,
        "serve.chunks, serve.requests"
    );
    for (job, (a, b)) in jobs.iter().zip(inline.iter().zip(&helped)) {
        assert_eq!(
            a.without_wall_clock(),
            b.without_wall_clock(),
            "{}",
            job.trace.name()
        );
    }
}

#[test]
fn every_batch_size_and_checkpoint_grid_serves_identically() {
    let _g = locked();
    let dm = distances();
    let len = 3 * BLOCK * BLOCKS + 333;
    let grids: [Vec<usize>; 4] = [
        vec![],
        vec![1, 37, BLOCK - 1, BLOCK + 1, 5 * BLOCK + 3, len - 1],
        // A chunk ends on a block end, one straddles a block end by one
        // request, and one starts a request before a block end.
        vec![BLOCK, 2 * BLOCK + 1, 3 * BLOCK - 1],
        SimConfig::evenly_spaced(len, 14),
    ];
    // 1,000 divides neither the block nor a fill.
    for batch_size in [1, 7, 1000, 1024, 3 * BLOCK + 5] {
        for checkpoints in &grids {
            let config = |sink: &Telemetry| {
                SimConfig {
                    checkpoints: checkpoints.clone(),
                    verify_every: 999,
                    ..SimConfig::default()
                }
                .with_batch_size(batch_size)
                .with_telemetry(sink.clone())
            };
            let serve = |helper: bool| {
                let sink = Telemetry::enabled();
                let mut source = uniform_source(RACKS, len, 21);
                let mut rbma = Rbma::new(dm.clone(), 3, 10, RemovalMode::Lazy, 5);
                let report = if helper {
                    with_prefetch(&mut source, |stream| {
                        run(&mut rbma, &dm, 10, stream, &config(&sink))
                    })
                } else {
                    run(&mut rbma, &dm, 10, &mut source, &config(&sink))
                };
                assert_eq!(source.remaining(), 0, "the whole stream was read");
                (report.without_wall_clock(), serve_counters(&sink))
            };
            let ctx = format!("batch {batch_size}, checkpoints {checkpoints:?}");
            assert_eq!(serve(true), serve(false), "{ctx}");
        }
    }
}

/// A source that panics on its `panic_at`-th `fill` call, on whichever
/// thread makes it (never, at `usize::MAX`), counts its calls, and reports
/// each call as it starts.
struct PanickySource {
    inner: Box<dyn RequestSource + Send>,
    fills: Arc<AtomicUsize>,
    panic_at: usize,
    started: mpsc::Sender<()>,
}

impl RequestSource for PanickySource {
    fn num_racks(&self) -> usize {
        self.inner.num_racks()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn remaining(&self) -> usize {
        self.inner.remaining()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_request(&mut self) -> Option<Pair> {
        self.inner.next_request()
    }
    fn fill(&mut self, buf: &mut [Pair]) -> usize {
        let _ = self.started.send(());
        if self.fills.fetch_add(1, Ordering::SeqCst) + 1 == self.panic_at {
            panic!("source gave out at fill {}", self.panic_at);
        }
        self.inner.fill(buf)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[test]
fn a_panicking_source_fails_the_run_and_the_helper_is_joined() {
    let _g = locked();
    // With a head start, the serving thread reads nothing until a first
    // fill has started, which only the helper can make: the first fill,
    // and so the panic at fill 1, happen on the helper.
    let cases = [1, 2, 5, 40]
        .into_iter()
        .flat_map(|n| [(n, false), (n, true)]);
    for (panic_at, head_start) in cases {
        let fills = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&fills);
        let outcome = within_a_minute(move || {
            let dm = distances();
            let (started, first_fill) = mpsc::channel();
            let mut source = PanickySource {
                inner: Box::new(uniform_source(RACKS, 60_000, 2)),
                fills: counted,
                panic_at,
                started,
            };
            catch_unwind(AssertUnwindSafe(|| {
                let mut rbma = Rbma::new(dm.clone(), 3, 10, RemovalMode::Lazy, 5);
                with_prefetch(&mut source, |stream| {
                    if head_start {
                        first_fill.recv().expect("the helper starts a fill");
                    }
                    run(&mut rbma, &dm, 10, stream, &SimConfig::default())
                })
            }))
            .map_err(|payload| payload.downcast::<String>().map(|s| *s))
        });
        match outcome {
            Ok(report) => panic!(
                "fill {panic_at} panicked, yet the run returned a report of {} requests",
                report.total.requests
            ),
            Err(payload) => assert_eq!(
                payload.as_deref().ok(),
                Some(format!("source gave out at fill {panic_at}").as_str()),
                "the source's own payload is resumed"
            ),
        }
        // The helper was joined: nothing fills after the call returned.
        let calls = fills.load(Ordering::SeqCst);
        assert!(calls >= panic_at);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(fills.load(Ordering::SeqCst), calls, "no fill after return");
    }
}

#[test]
fn chunks_inside_a_block_are_served_in_place_and_only_straddles_are_copied() {
    let _g = locked();
    let len = (BLOCKS + 2) * BLOCK + 333;
    // Chunks of 1,000 requests (which divides no block) cut at a block
    // end, a request past one and a request before one.
    let batch = 1000;
    let cuts = [BLOCK, 2 * BLOCK + 1, 3 * BLOCK - 1, len];
    let (chunks, stream) = within_a_minute(move || {
        let (started, fill_started) = mpsc::channel();
        let mut source = PanickySource {
            inner: Box::new(uniform_source(RACKS, len, 8)),
            fills: Arc::new(AtomicUsize::new(0)),
            panic_at: usize::MAX,
            started,
        };
        with_prefetch(&mut source, |prefetched| {
            // Read nothing until the helper has started the fill that
            // ends the ring's last block: every block is then filled to
            // its end, so the first `BLOCKS` blocks end at multiples of
            // `BLOCK` in the stream.
            for _ in 0..BLOCKS * BLOCK / FILL {
                fill_started.recv().expect("the helper fills the ring");
            }
            let mut cursor = prefetched.into_chunks();
            let mut buf = vec![Pair::new(0, 1); batch];
            let (mut chunks, mut stream) = (Vec::new(), Vec::new());
            let mut pos = 0;
            while pos < len {
                let cut = cuts.into_iter().find(|&c| c > pos).expect("len is a cut");
                let n = batch.min(cut - pos);
                let copy_target = buf.as_ptr();
                let chunk = cursor.next_chunk(&mut buf[..n]);
                assert_eq!(chunk.len(), n, "chunk at {pos}");
                chunks.push((pos, pos + n, chunk.as_ptr() != copy_target));
                stream.extend_from_slice(chunk);
                pos += n;
            }
            assert_eq!(cursor.remaining(), 0);
            (chunks, stream)
        })
    });
    let mut inline = uniform_source(RACKS, len, 8);
    let mut want = vec![Pair::new(0, 1); len];
    assert_eq!(inline.fill(&mut want), len);
    assert!(
        stream == want,
        "the stream differs from the inline source's"
    );

    // Past the ring's first fill, block ends depend on timing; up to it,
    // a chunk is copied exactly when it straddles a block end.
    let mut copied = Vec::new();
    for &(start, end, in_place) in chunks.iter().filter(|c| c.1 <= BLOCKS * BLOCK) {
        let straddle = start / BLOCK != (end - 1) / BLOCK;
        assert_eq!(in_place, !straddle, "chunk {start}..{end}");
        if !in_place {
            copied.push((start, end));
        }
    }
    // The chunk that ends on the first block's end and the one that starts
    // the second block are in place; the chunk one request past the second
    // block's end and the one from a request before the third's are not
    // (a block is 8 chunks of 1,000 and one of 192).
    assert!(chunks.contains(&(BLOCK - 192, BLOCK, true)));
    assert!(chunks.contains(&(BLOCK, BLOCK + batch, true)));
    assert_eq!(
        copied,
        [
            (2 * BLOCK - 192, 2 * BLOCK + 1),
            (3 * BLOCK - 1, 3 * BLOCK + 999)
        ]
    );
}

fn fault_jobs() -> Vec<Job> {
    (0..2)
        .map(|i| Job {
            algorithm: AlgorithmKind::Rbma { lazy: true },
            b: 3,
            alpha: 10,
            seed: i,
            checkpoints: vec![5_000],
            trace: TraceSpec::Zipf {
                num_racks: RACKS,
                len: 40_000,
                exponent: 1.2,
                seed: 30 + i,
            },
        })
        .collect()
}

/// Arms `site` to panic on every hit, and checks that a helper-path run
/// panics (naming the site) and that a supervised run quarantines every
/// job with reason "panic".
fn injected_panic_fails_the_job(site: &'static str) {
    let _g = locked();
    failpoint::arm(site, failpoint::Action::Panic, failpoint::Trigger::Always);
    let message = within_a_minute(move || {
        let dm = distances();
        let jobs = fault_jobs();
        let helped = catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || run_jobs_sequential(&dm, &jobs))
        }));
        let outcomes = with_threads(2, || run_jobs_supervised(&dm, &jobs, 1, "prefetch"));
        (
            helped.map_err(|payload| payload.downcast::<String>().map(|s| *s)),
            outcomes,
        )
    });
    failpoint::disarm(site);
    let (helped, outcomes) = message;
    match helped {
        Ok(reports) => panic!("{site} armed, yet {} reports came back", reports.len()),
        Err(payload) => {
            let text = payload.expect("a formatted panic message");
            assert!(text.contains(site), "{text}");
        }
    }
    for outcome in &outcomes {
        let failure = outcome.failure().expect("every job quarantined");
        assert_eq!(failure.reason, "panic");
        assert!(failure.detail.contains(site), "{}", failure.detail);
    }
}

#[test]
fn an_armed_sim_chunk_panic_fails_the_job_as_a_panic() {
    injected_panic_fails_the_job("sim.chunk");
}

#[test]
fn an_armed_traces_fill_panic_fails_the_job_as_a_panic() {
    injected_panic_fails_the_job("traces.fill");
}

#[test]
fn a_late_panic_on_either_thread_leaves_no_short_report() {
    // The Nth fill (on whichever thread holds the baton) or the Nth chunk
    // panics part-way through a helped run.
    let _g = locked();
    for (site, nth) in [("traces.fill", 7), ("traces.fill", 30), ("sim.chunk", 11)] {
        failpoint::arm(site, failpoint::Action::Panic, failpoint::Trigger::Nth(nth));
        let helped = within_a_minute(move || {
            let dm = distances();
            let jobs = fault_jobs();
            catch_unwind(AssertUnwindSafe(|| {
                with_threads(2, || run_jobs_sequential(&dm, &jobs))
            }))
            .is_err()
        });
        let fired = failpoint::fired(site);
        failpoint::disarm(site);
        assert_eq!(fired, 1, "{site}@{nth}");
        assert!(helped, "{site}@{nth}: the run must panic, not return");
    }
}
