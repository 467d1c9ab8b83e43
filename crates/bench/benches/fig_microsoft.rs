//! Criterion companion to Figure 4b: serve-loop throughput on the
//! Microsoft-like i.i.d. workload (50 racks, b ∈ {3, 6, 9}).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcn_bench::{FigureSpec, Workload};
use dcn_core::algorithms::AlgorithmKind;
use std::hint::black_box;
use std::time::Duration;

fn fig4b(c: &mut Criterion) {
    let spec = FigureSpec {
        id: "bench",
        title: "bench",
        workload: Workload::Microsoft,
        racks: 50,
        bs: vec![3, 6, 9],
        total_requests: 100_000,
        num_checkpoints: 1,
        alpha: 10,
        repetitions: 1,
    };
    let dm = spec.distances();
    let trace = spec.trace(0);
    let mut group = c.benchmark_group("fig4b_microsoft");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(trace.len() as u64));
    for algorithm in [AlgorithmKind::Rbma { lazy: true }, AlgorithmKind::Bma] {
        for &b in &spec.bs {
            group.bench_with_input(BenchmarkId::new(algorithm.label(), b), &b, |bencher, &b| {
                bencher.iter(|| {
                    let mut s = algorithm.build_online(dm.clone(), b, spec.alpha, 3);
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

criterion_group!(benches, fig4b);
criterion_main!(benches);
