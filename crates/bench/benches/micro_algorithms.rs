//! Per-request micro-latency of every scheduler, plus b-sensitivity.
//!
//! Times the per-request work behind the §3.2 execution-time panels at the
//! finest granularity: R-BMA's ordinary request bumps one counter in a
//! `PairTable`, with marking work only on special requests; BMA's
//! pays O(1) recency upkeep (two list splices) on every hit and evicts
//! from the head of an intrusive LRU.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcn_bench::{FigureSpec, Workload};
use dcn_core::algorithms::AlgorithmKind;
use std::hint::black_box;
use std::time::Duration;

fn spec() -> FigureSpec {
    FigureSpec {
        id: "micro",
        title: "micro",
        workload: Workload::FacebookDb,
        racks: 100,
        bs: vec![12],
        total_requests: 30_000,
        num_checkpoints: 1,
        alpha: 10,
        repetitions: 1,
    }
}

fn all_algorithms(c: &mut Criterion) {
    let spec = spec();
    let dm = spec.distances();
    let trace = spec.trace(0);
    let mut group = c.benchmark_group("serve_latency_b12");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(trace.len() as u64));
    let algorithms = vec![
        AlgorithmKind::Oblivious,
        AlgorithmKind::Rbma { lazy: true },
        AlgorithmKind::Rbma { lazy: false },
        AlgorithmKind::Bma,
        AlgorithmKind::Rotor { period: 100 },
    ];
    for algorithm in algorithms {
        group.bench_function(algorithm.label(), |bencher| {
            bencher.iter(|| {
                let mut s = algorithm.build_online(dm.clone(), 12, spec.alpha, 5);
                let mut matched = 0u64;
                for &r in &trace.requests {
                    matched += s.serve(r).was_matched as u64;
                }
                black_box(matched)
            });
        });
    }
    group.finish();
}

fn b_sensitivity(c: &mut Criterion) {
    let spec = spec();
    let dm = spec.distances();
    let trace = spec.trace(0);
    let mut group = c.benchmark_group("b_sensitivity");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(trace.len() as u64));
    for algorithm in [AlgorithmKind::Rbma { lazy: true }, AlgorithmKind::Bma] {
        for b in [6usize, 12, 24, 48] {
            group.bench_with_input(BenchmarkId::new(algorithm.label(), b), &b, |bencher, &b| {
                bencher.iter(|| {
                    let mut s = algorithm.build_online(dm.clone(), b, spec.alpha, 5);
                    let mut matched = 0u64;
                    for &r in &trace.requests {
                        matched += s.serve(r).was_matched as u64;
                    }
                    black_box(matched)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, all_algorithms, b_sensitivity);
criterion_main!(benches);
