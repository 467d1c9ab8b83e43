//! The sweep executor's timing claims: work-stealing [`run_jobs`] vs the
//! sequential baseline on a deliberately **skewed** job-cost grid (two
//! heavyweight runs in front of a tail of small ones — the grid shape
//! where a static split strands workers while one thread grinds through a
//! big job). Worker counts beyond the machine's cores degrade to the core
//! count, so on a single-core CI shard the parallel rows mostly guard
//! against executor overhead rather than demonstrate speedup; the
//! `repro_figures sweep` target publishes the multi-core scaling table.
//!
//! CI gates this bench against the shared criterion baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::sweep::{run_jobs, run_jobs_sequential, Job};
use dcn_topology::{builders, DistanceMatrix};
use dcn_traces::TraceSpec;
use dcn_util::rngx::derive_seed;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const RACKS: usize = 100;
const DEGREE: usize = 12;
const ALPHA: u64 = 10;
/// Heavy jobs are 8x the small ones: a 2-big + 6-small grid under a static
/// halves split would leave one worker idle for most of the wall-clock.
const BIG: usize = 60_000;
const SMALL: usize = BIG / 8;

fn distances() -> Arc<DistanceMatrix> {
    Arc::new(DistanceMatrix::between_racks(
        &builders::fat_tree_with_racks(RACKS),
    ))
}

fn skewed_jobs() -> Vec<Job> {
    [BIG, BIG, SMALL, SMALL, SMALL, SMALL, SMALL, SMALL]
        .iter()
        .enumerate()
        .map(|(j, &len)| Job {
            algorithm: if j % 2 == 0 {
                AlgorithmKind::Rbma { lazy: true }
            } else {
                AlgorithmKind::Bma
            },
            b: DEGREE,
            alpha: ALPHA,
            seed: derive_seed(0x5E0, j as u64),
            checkpoints: vec![],
            trace: TraceSpec::Zipf {
                num_racks: RACKS,
                len,
                exponent: 1.2,
                seed: derive_seed(0x5E1, j as u64),
            },
        })
        .collect()
}

/// Sequential vs work-stealing execution of the skewed grid.
fn sweep_executor_skewed(c: &mut Criterion) {
    let dm = distances();
    let jobs = skewed_jobs();
    let total: u64 = jobs.iter().map(|j| j.trace.len() as u64).sum();
    let mut group = c.benchmark_group("sweep_skewed_grid");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
        .throughput(Throughput::Elements(total));
    group.bench_function("sequential", |bench| {
        bench.iter(|| black_box(run_jobs_sequential(&dm, &jobs)))
    });
    for workers in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("work_stealing", workers),
            &workers,
            |bench, &workers| bench.iter(|| black_box(run_jobs(&dm, &jobs, workers))),
        );
    }
    group.finish();
}

criterion_group!(benches, sweep_executor_skewed);
criterion_main!(benches);
