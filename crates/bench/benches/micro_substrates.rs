//! Substrate micro-benchmarks: the building blocks whose constants the
//! system-level numbers rest on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcn_paging::{Belady, Lru, Marking, PagingPolicy};
use dcn_topology::{builders, DistanceMatrix};
use dcn_traces::{zipf_weights, AliasTable};
use dcn_util::IndexedSet;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn paging_policies(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let seq: Vec<u64> = (0..50_000).map(|_| rng.random_range(0..64u64)).collect();
    let cap = 16;
    let mut group = c.benchmark_group("paging_access");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(seq.len() as u64));
    group.bench_function("marking", |b| {
        b.iter(|| {
            let mut m = Marking::new(cap, 3);
            let mut faults = 0u64;
            for &p in &seq {
                faults += m.access(p).is_fault() as u64;
            }
            black_box(faults)
        })
    });
    group.bench_function("lru", |b| {
        b.iter(|| {
            let mut m = Lru::new(cap);
            let mut faults = 0u64;
            for &p in &seq {
                faults += m.access(p).is_fault() as u64;
            }
            black_box(faults)
        })
    });
    group.bench_function("belady", |b| {
        b.iter(|| black_box(Belady::total_faults(cap, &seq)))
    });
    group.finish();
}

fn indexed_set_and_alias(c: &mut Criterion) {
    let mut group = c.benchmark_group("samplers");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("indexed_set_churn", |b| {
        b.iter(|| {
            let mut s: IndexedSet<u64> = IndexedSet::with_capacity(1024);
            let mut rng = SmallRng::seed_from_u64(5);
            for i in 0..20_000u64 {
                s.insert(i % 1024);
                if i % 3 == 0 {
                    let v = s.sample(&mut rng);
                    black_box(v);
                }
                if i % 7 == 0 {
                    s.remove(&((i * 31) % 1024));
                }
            }
            black_box(s.len())
        })
    });
    group.bench_function("alias_sample", |b| {
        let table = AliasTable::new(&zipf_weights(4950, 1.2));
        let mut rng = SmallRng::seed_from_u64(9);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc += table.sample(&mut rng) as u64;
            }
            black_box(acc)
        })
    });
    // Construction of the 100-rack Zipf pair table, built and dropped: a
    // source's set-up pays it once per table, and `setup_s` sees it.
    let weights = zipf_weights(4950, 1.2);
    group.bench_with_input(BenchmarkId::new("alias_build", 4950), &weights, |b, w| {
        b.iter(|| black_box(AliasTable::new(w)))
    });
    group.finish();
}

fn topology_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    // ≤ 100 racks: between_racks_parallel must fall back to the sequential
    // path (never slower at paper scale); 256 racks exercises the real
    // chunked fan-out and is where parallel should win.
    for racks in [50usize, 100, 256] {
        let net = builders::fat_tree_with_racks(racks);
        group.bench_with_input(
            BenchmarkId::new("apsp_sequential", racks),
            &net,
            |b, net| b.iter(|| black_box(DistanceMatrix::between_racks(net))),
        );
        group.bench_with_input(BenchmarkId::new("apsp_parallel4", racks), &net, |b, net| {
            b.iter(|| black_box(DistanceMatrix::between_racks_parallel(net, 4)))
        });
    }
    group.finish();
}

/// The rack-distance lookup on the batched serve path: one multiply-add +
/// u16 load per request-shaped `Pair`. Guards the `#[inline]`/layout audit
/// of `DistanceMatrix::ell` and the `Pair` accessors — a regression here
/// taxes every unmatched request of every scheduler.
fn ell_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let net = builders::fat_tree_with_racks(100);
    let dm = DistanceMatrix::between_racks(&net);
    let mut rng = SmallRng::seed_from_u64(7);
    let pairs: Vec<dcn_topology::Pair> = (0..10_000)
        .map(|_| {
            let a = rng.random_range(0..100u32);
            let mut b = rng.random_range(0..99u32);
            if b >= a {
                b += 1;
            }
            dcn_topology::Pair::new(a, b)
        })
        .collect();
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.bench_function("ell_lookup", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &pairs {
                acc += dm.ell(p) as u64;
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    paging_policies,
    indexed_set_and_alias,
    topology_distances,
    ell_lookup
);
criterion_main!(benches);
