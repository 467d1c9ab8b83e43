//! Batched vs unbatched hot path: the serve loop (system level via
//! `simulator::run` at different `SimConfig::batch_size`, and scheduler
//! level via direct `serve`/`serve_batch` calls, on Zipf and, for BMA, on
//! the Facebook Database trace) and trace generation
//! (`RequestSource::fill` vs `next_request`, across batch sizes, for the
//! Zipf kernel; `fill` for the Facebook Database kernel).
//!
//! The headline number backing the batching refactor: R-BMA at degree
//! b = 12 on the Zipf workload, batched run vs the `batch_size = 1`
//! baseline (which is exactly the historical per-request loop: one virtual
//! serve call, one accounting fold and one stopwatch start/pause per
//! request). CI gates this bench against the shared criterion baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::scheduler::BatchOutcome;
use dcn_core::{run, SimConfig};
use dcn_matching::{BTreeRecencyMatching, LruBMatching, RecencyMatching};
use dcn_topology::{builders, DistanceMatrix, Pair};
use dcn_traces::{zipf_pair_source, RequestSource};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const RACKS: usize = 100;
const DEGREE: usize = 12;
const ALPHA: u64 = 10;
const LEN: usize = 30_000;
const EXPONENT: f64 = 1.2;
const BATCH_SIZES: [usize; 4] = [12, 64, 256, 1024];

fn distances() -> Arc<DistanceMatrix> {
    Arc::new(DistanceMatrix::between_racks(
        &builders::fat_tree_with_racks(RACKS),
    ))
}

fn zipf_requests() -> Vec<Pair> {
    zipf_pair_source(RACKS, LEN, EXPONENT, 5)
        .materialize()
        .requests
}

/// Full `simulator::run` throughput across batch sizes (`1` = the
/// unbatched baseline). This is the number the `scaling` target reports.
fn serve_run_batch_sizes(c: &mut Criterion) {
    let dm = distances();
    let mut group = c.benchmark_group("batch_run_rbma_b12_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(LEN as u64));
    let algorithm = AlgorithmKind::Rbma { lazy: true };
    for batch in std::iter::once(1usize).chain(BATCH_SIZES) {
        group.bench_with_input(BenchmarkId::new("run", batch), &batch, |bench, &batch| {
            let config = SimConfig::default().with_batch_size(batch);
            let mut source = zipf_pair_source(RACKS, LEN, EXPONENT, 5);
            bench.iter(|| {
                source.reset();
                let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                black_box(run(s.as_mut(), &dm, ALPHA, &mut source, &config))
            });
        });
    }
    group.finish();
}

/// Scheduler-level inner loop: per-request `serve` + accounting fold
/// (through the trait object, as the unbatched simulator dispatched) vs one
/// `serve_batch` call per chunk.
fn serve_inner_batched_vs_unbatched(c: &mut Criterion) {
    let dm = distances();
    let requests = zipf_requests();
    for algorithm in [AlgorithmKind::Rbma { lazy: true }, AlgorithmKind::Bma] {
        let mut group = c.benchmark_group(format!("batch_serve_{}_b12_zipf", algorithm.label()));
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(2))
            .throughput(Throughput::Elements(requests.len() as u64));
        group.bench_function("unbatched", |bench| {
            bench.iter(|| {
                let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                let mut acc = BatchOutcome::default();
                for &r in &requests {
                    let o = s.serve(r);
                    acc.record(r, o, &dm);
                }
                black_box(acc)
            });
        });
        for batch in BATCH_SIZES {
            // "batched" is the scheduler's fused serve_batch loop.
            group.bench_with_input(
                BenchmarkId::new("batched", batch),
                &batch,
                |bench, &batch| {
                    bench.iter(|| {
                        let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                        let mut acc = BatchOutcome::default();
                        for chunk in requests.chunks(batch) {
                            s.serve_batch(chunk, &dm, &mut acc);
                        }
                        black_box(acc)
                    });
                },
            );
        }
        group.finish();
    }
}

/// BMA's fused serve loop on the shape Fig. 1's panel (b) runs it: a
/// materialized Facebook Database trace over 100 racks at α = 10, served
/// in chunks of 1,024, at the panel's smallest and largest b. In Fig. 1
/// about 40% of BMA's requests miss the matching (against 15% on the Zipf
/// standard point), so the miss path (rent counters, buys, LRU evictions)
/// weighs far more here.
fn serve_bma_facebook(c: &mut Criterion) {
    let dm = distances();
    let requests =
        dcn_traces::facebook_cluster_trace(dcn_traces::FacebookCluster::Database, RACKS, LEN, 5)
            .requests;
    let mut group = c.benchmark_group("batch_serve_bma_facebook");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(requests.len() as u64));
    for b in [6usize, 18] {
        group.bench_with_input(BenchmarkId::new("batched_b", b), &b, |bench, &b| {
            bench.iter(|| {
                let mut s = AlgorithmKind::Bma.build_online(dm.clone(), b, ALPHA, 5);
                let mut acc = BatchOutcome::default();
                for chunk in requests.chunks(1024) {
                    s.serve_batch(chunk, &dm, &mut acc);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// Trace generation as the pipeline consumes it — through the
/// `Box<dyn RequestSource>` a `TraceSpec` yields: one virtual `fill` per
/// batch (one `AliasTable::fill` over the pair-valued table) vs one
/// virtual `next_request` per request. A statically-dispatched
/// `next_request` loop is included as the dispatch-free floor.
fn fill_batched_vs_unbatched(c: &mut Criterion) {
    let spec = dcn_traces::TraceSpec::Zipf {
        num_racks: RACKS,
        len: LEN,
        exponent: EXPONENT,
        seed: 5,
    };
    let mut group = c.benchmark_group("batch_fill_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(LEN as u64));
    group.bench_function("next_request_static", |bench| {
        let mut source = zipf_pair_source(RACKS, LEN, EXPONENT, 5);
        bench.iter(|| {
            source.reset();
            let mut acc = 0u64;
            while let Some(p) = source.next_request() {
                acc += p.lo() as u64;
            }
            black_box(acc)
        });
    });
    group.bench_function("next_request_dyn", |bench| {
        let mut source = spec.source();
        bench.iter(|| {
            source.reset();
            let mut acc = 0u64;
            while let Some(p) = source.next_request() {
                acc += p.lo() as u64;
            }
            black_box(acc)
        });
    });
    for batch in BATCH_SIZES {
        group.bench_with_input(
            BenchmarkId::new("fill_dyn", batch),
            &batch,
            |bench, &batch| {
                let mut source = spec.source();
                let mut buf = vec![Pair::new(0, 1); batch];
                bench.iter(|| {
                    source.reset();
                    let mut acc = 0u64;
                    loop {
                        let n = source.fill(&mut buf);
                        for p in &buf[..n] {
                            acc += p.lo() as u64;
                        }
                        if n < buf.len() {
                            break;
                        }
                    }
                    black_box(acc)
                });
            },
        );
    }
    group.finish();
}

/// Facebook Database generation, the kernel behind every Fig. 1 run, as
/// the pipeline consumes it: `fill` in chunks of 1,024 through the
/// `Box<dyn RequestSource>` of a `TraceSpec`. Each request draws a burst
/// coin, then either a working-set position or a source rack and its
/// partner from two alias tables.
fn fill_facebook(c: &mut Criterion) {
    let spec = dcn_traces::TraceSpec::Facebook {
        cluster: dcn_traces::FacebookCluster::Database,
        num_racks: RACKS,
        len: LEN,
        seed: 5,
    };
    let mut group = c.benchmark_group("batch_fill_facebook");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(LEN as u64));
    group.bench_with_input(
        BenchmarkId::new("fill_dyn", 1024),
        &1024,
        |bench, &batch| {
            let mut source = spec.source();
            let mut buf = vec![Pair::new(0, 1); batch];
            bench.iter(|| {
                source.reset();
                let mut acc = 0u64;
                loop {
                    let n = source.fill(&mut buf);
                    for p in &buf[..n] {
                        acc += p.lo() as u64;
                    }
                    if n < buf.len() {
                        break;
                    }
                }
                black_box(acc)
            });
        },
    );
    group.finish();
}

/// Specials-density axis: the standard point at α ∈ {4, 10, 40, 100,
/// 400}. The
/// Theorem-1 period `k_e = ⌈α/ℓ_e⌉` makes α the direct dial on how many
/// requests take the Theorem-2 specials path (at α = 4 and fat-tree
/// ℓ ∈ {2, 4}, k_e ∈ {1, 2}: most requests are special), so this group
/// gates the specials fast path against the criterion baseline exactly
/// like every other hot-path change: a regression hiding in the rare
/// path shows up here before it shows up in the α = 10 headline. At
/// α = 100–400 specials are rare and the ordinary-request loop dominates.
fn serve_specials_density(c: &mut Criterion) {
    let dm = distances();
    let requests = zipf_requests();
    let mut group = c.benchmark_group("batch_alpha_rbma_b12_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(requests.len() as u64));
    for alpha in [4u64, 10, 40, 100, 400] {
        group.bench_with_input(
            BenchmarkId::new("batched", alpha),
            &alpha,
            |bench, &alpha| {
                bench.iter(|| {
                    let mut s = AlgorithmKind::Rbma { lazy: true }.build_online(
                        dm.clone(),
                        DEGREE,
                        alpha,
                        5,
                    );
                    let mut acc = BatchOutcome::default();
                    for chunk in requests.chunks(1024) {
                        s.serve_batch(chunk, &dm, &mut acc);
                    }
                    black_box(acc)
                });
            },
        );
    }
    group.finish();
}

/// The isolated BMA hit-path upkeep: touching matched edges in the recency
/// index, flat last-touch stamps vs the historical BTreeMap reference, with
/// everything else (counters, routing lookups, dispatch) stripped away.
/// This is the `bma/recency_upkeep` point that makes the flattening win
/// visible in the benchmark artifact, not only in the end-to-end number.
fn bma_recency_upkeep(c: &mut Criterion) {
    // Populate both indexes identically: a b-regular-ish edge set at
    // paper-scale b, then replay a skewed hit sequence over those edges.
    fn populate<M: RecencyMatching>() -> (M, Vec<Pair>) {
        let mut m = M::new(RACKS, DEGREE);
        let mut edges = Vec::new();
        for v in 0..RACKS as u32 {
            for k in 1..=(DEGREE as u32 / 2) {
                let pair = Pair::new(v, (v + k) % RACKS as u32);
                if m.matching().can_insert(pair) {
                    m.insert_mru(pair);
                    edges.push(pair);
                }
            }
        }
        // Zipf-flavored hit schedule over the matched edges (hot head).
        let hits: Vec<Pair> = (0..LEN)
            .map(|i| edges[(i * i + i / 3) % edges.len().min(64)])
            .collect();
        (m, hits)
    }
    let mut group = c.benchmark_group("bma");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(LEN as u64));
    group.bench_function("recency_upkeep/flat_lru", |bench| {
        let (mut m, hits) = populate::<LruBMatching>();
        bench.iter(|| {
            let mut matched = 0u64;
            for &pair in &hits {
                matched += m.touch_hit(pair) as u64;
            }
            black_box(matched)
        });
    });
    group.bench_function("recency_upkeep/btree", |bench| {
        let (mut m, hits) = populate::<BTreeRecencyMatching>();
        bench.iter(|| {
            let mut matched = 0u64;
            for &pair in &hits {
                matched += m.touch_hit(pair) as u64;
            }
            black_box(matched)
        });
    });
    group.finish();
}

/// The telemetry tax at the standard point: the same R-BMA run with a live
/// enabled sink (chunk stopwatch + end-of-run flush) and with the default
/// disabled handle (one branch per flush site). CI gates `enabled` against
/// the shared baseline; the acceptance bar is enabled ≤ 2% over disabled.
fn telemetry_overhead(c: &mut Criterion) {
    let dm = distances();
    let mut group = c.benchmark_group("batch_telemetry_rbma_b12_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(LEN as u64));
    let algorithm = AlgorithmKind::Rbma { lazy: true };
    for point in ["disabled", "enabled"] {
        group.bench_function(point, |bench| {
            let config = SimConfig::default().with_batch_size(1024);
            let config = if point == "enabled" {
                config.with_telemetry(dcn_telemetry::Telemetry::enabled())
            } else {
                config
            };
            let mut source = zipf_pair_source(RACKS, LEN, EXPONENT, 5);
            bench.iter(|| {
                source.reset();
                let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                black_box(run(s.as_mut(), &dm, ALPHA, &mut source, &config))
            });
        });
    }
    group.finish();
}

/// The failpoint tax at the standard point: the serve loop passes
/// `sim.chunk` once per chunk. `disarmed` is the production configuration
/// (one relaxed atomic load per hit site, which must stay unmeasurable);
/// `armed_other` arms an *unrelated* name, paying the registry lookup on
/// every hit without firing, the worst non-firing case. CI gates
/// `disarmed` against the shared criterion baseline like every other
/// hot-path change.
fn failpoint_overhead(c: &mut Criterion) {
    let dm = distances();
    let mut group = c.benchmark_group("batch_failpoint_rbma_b12_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(LEN as u64));
    let algorithm = AlgorithmKind::Rbma { lazy: true };
    for point in ["disarmed", "armed_other"] {
        group.bench_function(point, |bench| {
            if point == "armed_other" {
                dcn_util::failpoint::arm(
                    "bench.unrelated",
                    dcn_util::failpoint::Action::Delay(Duration::ZERO),
                    dcn_util::failpoint::Trigger::Nth(u64::MAX),
                );
            }
            let config = SimConfig::default().with_batch_size(1024);
            let mut source = zipf_pair_source(RACKS, LEN, EXPONENT, 5);
            bench.iter(|| {
                source.reset();
                let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                black_box(run(s.as_mut(), &dm, ALPHA, &mut source, &config))
            });
            if point == "armed_other" {
                dcn_util::failpoint::disarm("bench.unrelated");
            }
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    serve_run_batch_sizes,
    serve_inner_batched_vs_unbatched,
    serve_bma_facebook,
    serve_specials_density,
    fill_batched_vs_unbatched,
    fill_facebook,
    bma_recency_upkeep,
    telemetry_overhead,
    failpoint_overhead
);
criterion_main!(benches);
