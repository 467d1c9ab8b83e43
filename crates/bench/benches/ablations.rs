//! Offline-machinery benchmarks: the SO-BMA pipeline (demand aggregation →
//! blossom rounds → the per-checkpoint series) and the switch-assignment
//! edge coloring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcn_bench::FigureSpec;
use dcn_core::algorithms::static_offline::{demand_edges, so_bma_matching, so_bma_series};
use dcn_core::sweep::with_threads;
use dcn_matching::{edge_coloring, greedy_b_matching, max_weight_matching, WeightedEdge};
use dcn_topology::{builders, DistanceMatrix};
use dcn_traces::generators::facebook::facebook_cluster_trace;
use dcn_traces::FacebookCluster;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn blossom_vs_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwm");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    for n in [50usize, 100] {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.random_bool(0.5) {
                    edges.push(WeightedEdge::new(u, v, rng.random_range(1..10_000)));
                }
            }
        }
        group.bench_with_input(BenchmarkId::new("blossom", n), &edges, |b, edges| {
            b.iter(|| black_box(max_weight_matching(n, edges)))
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &edges, |b, edges| {
            b.iter(|| black_box(greedy_b_matching(n, edges, 1)))
        });
    }
    group.finish();
}

fn so_bma_pipeline(c: &mut Criterion) {
    let racks = 100;
    let net = builders::fat_tree_with_racks(racks);
    let dm = DistanceMatrix::between_racks(&net);
    let trace = facebook_cluster_trace(FacebookCluster::Database, racks, 100_000, 3);
    let mut group = c.benchmark_group("so_bma");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("demand_aggregation_100k", |b| {
        b.iter(|| black_box(demand_edges(&dm, &trace.requests)))
    });
    for b_cap in [6usize, 18] {
        group.bench_with_input(
            BenchmarkId::new("matching_rounds", b_cap),
            &b_cap,
            |bencher, &b_cap| {
                bencher.iter(|| black_box(so_bma_matching(&dm, &trace.requests, b_cap)))
            },
        );
    }
    // Panel (c)'s SO-BMA series for one repetition of Fig. 1 at paper scale
    // (350k requests, 14 checkpoints, b = 18): the unit a `fig1` pass of the
    // repository benchmark times as `offline.so_bma`. Its checkpoints fan out
    // one worker per core; the serial point keeps a blossom regression from
    // hiding behind the extra cores.
    let fig1 = FigureSpec::by_id("fig1").expect("fig1 is a paper figure");
    let (fig1_dm, fig1_trace, cps) = (fig1.distances(), fig1.trace(0), fig1.checkpoints());
    let b_max = *fig1.bs.last().expect("non-empty b sweep");
    let series = || so_bma_series(&fig1_dm, &fig1_trace.requests, b_max, &cps);
    group.bench_function("series_fig1_rep0", |bencher| {
        bencher.iter(|| black_box(series()))
    });
    group.bench_function("series_fig1_rep0_serial", |bencher| {
        bencher.iter(|| black_box(with_threads(1, series)))
    });
    group.finish();
}

fn switch_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_coloring");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for b in [6usize, 18] {
        // Random b-matching on 100 racks.
        let n = 100;
        let mut rng = SmallRng::seed_from_u64(b as u64);
        let mut degree = vec![0usize; n];
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if degree[u as usize] < b && degree[v as usize] < b && rng.random_bool(0.3) {
                    degree[u as usize] += 1;
                    degree[v as usize] += 1;
                    edges.push(dcn_topology::Pair::new(u, v));
                }
            }
        }
        group.bench_with_input(
            BenchmarkId::new("misra_gries", b),
            &edges,
            |bencher, edges| bencher.iter(|| black_box(edge_coloring(n, edges))),
        );
    }
    group.finish();
}

criterion_group!(benches, blossom_vs_greedy, so_bma_pipeline, switch_coloring);
criterion_main!(benches);
