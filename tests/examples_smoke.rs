//! Smoke tests mirroring the core path of each `examples/` binary, at
//! reduced scale, through the `rdcn::` facade — so a facade re-export
//! drifting away from the crates (or an example's pipeline breaking) fails
//! `cargo test` instead of surfacing only when someone runs the example.
//! CI additionally runs the example binaries themselves; these tests keep
//! the coverage inside the tier-1 command.

use rdcn::core::algorithms::rbma::{Rbma, RemovalMode};
use rdcn::core::algorithms::static_offline::{so_bma_matching, static_routing_cost};
use rdcn::core::algorithms::AlgorithmKind;
use rdcn::core::sweep::{run_jobs, Job};
use rdcn::core::{run, SimConfig};
use rdcn::paging::adversary::{uniform_sequence, Chaser};
use rdcn::paging::{run_policy, Belady, Lru, Marking};
use rdcn::topology::{builders, DistanceMatrix};
use rdcn::traces::{
    facebook_cluster_source, facebook_cluster_trace, hotspot_trace, microsoft_trace, uniform_trace,
    zipf_pair_trace, FacebookCluster, MicrosoftParams, RequestSource, TraceSpec, TraceStats,
};
use std::sync::Arc;

/// `examples/quickstart.rs`: fat-tree → Facebook trace → R-BMA vs Oblivious.
#[test]
fn quickstart_core_path() {
    let net = builders::fat_tree_with_racks(16);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let mut trace = facebook_cluster_source(FacebookCluster::Database, 16, 10_000, 42);
    let (b, alpha) = (4, 10);
    let config = SimConfig {
        checkpoints: SimConfig::evenly_spaced(trace.len(), 4),
        ..Default::default()
    };

    let mut rbma = Rbma::new(dm.clone(), b, alpha, RemovalMode::Lazy, 7);
    let report = run(&mut rbma, &dm, alpha, &mut trace, &config);

    trace.reset();
    let mut oblivious = AlgorithmKind::Oblivious.build_online(dm.clone(), b, alpha, 0);
    let baseline = run(oblivious.as_mut(), &dm, alpha, &mut trace, &config);

    assert_eq!(report.checkpoints.len(), 4);
    assert!(report.total.matched_fraction() > 0.0);
    assert!(
        report.total.routing_cost < baseline.total.routing_cost,
        "R-BMA should beat the no-matching baseline on a skewed trace"
    );
    // The JSON emission path the example prints.
    let json = rdcn::util::json::to_json_string(&report).expect("report serializes");
    assert!(json.contains("\"routing_cost\""));
}

/// `examples/datacenter_comparison.rs`: sweep fan-out plus offline SO-BMA.
#[test]
fn datacenter_comparison_core_path() {
    let racks = 20;
    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let spec = TraceSpec::Facebook {
        cluster: FacebookCluster::Database,
        num_racks: racks,
        len: 8_000,
        seed: 11,
    };
    let alpha = 10u64;

    let mut jobs = Vec::new();
    for algorithm in [
        AlgorithmKind::Rbma { lazy: true },
        AlgorithmKind::Bma,
        AlgorithmKind::Rotor { period: 100 },
    ] {
        jobs.push(Job {
            algorithm,
            b: 4,
            alpha,
            seed: 1,
            checkpoints: vec![],
            trace: spec.clone(),
        });
    }
    jobs.push(Job {
        algorithm: AlgorithmKind::Oblivious,
        b: 1,
        alpha,
        seed: 1,
        checkpoints: vec![],
        trace: spec.clone(),
    });
    let reports = run_jobs(&dm, &jobs, 3);
    assert_eq!(reports.len(), jobs.len());
    let oblivious_cost = reports.last().unwrap().total.routing_cost;
    assert!(oblivious_cost > 0);

    let trace = spec.as_trace();
    let matching = so_bma_matching(&dm, &trace.requests, 4);
    let cost = static_routing_cost(&dm, &trace.requests, &matching);
    assert!(
        cost < oblivious_cost,
        "offline static matching must save routing cost"
    );
}

/// `examples/adversarial_gap.rs`: chaser vs LRU, uniform nemesis vs marking.
#[test]
fn adversarial_gap_core_path() {
    let k = 8;
    let len = 4_000;
    let mut lru = Lru::new(k);
    let (seq, lru_faults) = Chaser::new(k).drive(&mut lru, len);
    assert_eq!(seq.len(), len);
    let opt = Belady::total_faults(k, &seq).max(1);
    let det_ratio = lru_faults as f64 / opt as f64;

    let useq = uniform_sequence(k, len, 99);
    let uopt = Belady::total_faults(k, &useq).max(1);
    let mark = run_policy(&mut Marking::new(k, 0), &useq).faults as f64;
    let rand_ratio = mark / uopt as f64;

    assert!(
        det_ratio > rand_ratio,
        "adaptive chaser must hurt deterministic LRU ({det_ratio:.2}) more than the uniform \
         nemesis hurts randomized marking ({rand_ratio:.2})"
    );

    // Layer 2 of the example (star-of-pairs nemesis table).
    let table = dcn_bench::lower_bound_gap(0.25, 0, rdcn::core::sweep::ShardSpec::full());
    assert!(!table.to_markdown().is_empty());
}

/// `examples/demand_drift.rs`: demand-aware static design vs drifting
/// traffic — beats Oblivious on its own matrix, loses ground to R-BMA as
/// drift grows.
#[test]
fn demand_drift_core_path() {
    use rdcn::demand::{DemandAware, DemandMatrix, MatrixSequence, MicrosoftParams};

    let racks = 20;
    let requests = 12_000;
    let (b, alpha) = (6usize, 10u64);
    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let base = DemandMatrix::microsoft(racks, MicrosoftParams::default(), 1).normalized();
    let drifted = DemandMatrix::microsoft(racks, MicrosoftParams::default(), 2).normalized();

    // λ = 0 (traffic from the forecast) and λ = 1 (fully drifted).
    let mut savings = Vec::new(); // (da_saving, rbma_saving) per λ
    for (li, lambda) in [0.0, 1.0].into_iter().enumerate() {
        let served = DemandMatrix::blend(&base, &drifted, lambda);
        let jobs: Vec<Job> = [
            AlgorithmKind::demand_aware(base.clone()),
            AlgorithmKind::Rbma { lazy: true },
            AlgorithmKind::Oblivious,
        ]
        .into_iter()
        .map(|algorithm| Job {
            algorithm,
            b,
            alpha,
            seed: 7,
            checkpoints: vec![],
            trace: TraceSpec::matrix(served.clone(), requests, 40 + li as u64),
        })
        .collect();
        let r = run_jobs(&dm, &jobs, 3);
        assert_eq!(r[0].algorithm, "DemandAware");
        assert_eq!(
            r[0].total.reconfigurations, 0,
            "static design never reconfigures"
        );
        let oblivious = r[2].total.routing_cost as f64;
        savings.push((
            1.0 - r[0].total.routing_cost as f64 / oblivious,
            1.0 - r[1].total.routing_cost as f64 / oblivious,
        ));
    }
    assert!(
        savings[0].0 > 0.2,
        "on its own matrix the static design must clearly beat Oblivious \
         (saving {:.3})",
        savings[0].0
    );
    assert!(
        savings[0].0 > savings[1].0 + 0.05,
        "drift must erode the static design's saving: {savings:?}"
    );
    let gap_at = |i: usize| savings[i].1 - savings[i].0;
    assert!(
        gap_at(1) > gap_at(0) + 0.05,
        "the static design must lose ground to R-BMA as drift grows: {savings:?}"
    );

    // The drifting-sequence stream of part 2, plus hedged-build determinism.
    let seq = MatrixSequence::drifting(&base, &drifted, 4_000, 4);
    let spec = TraceSpec::sequence(seq, 9);
    let job = Job {
        algorithm: AlgorithmKind::demand_aware_hedged(vec![base.clone(), drifted.clone()]),
        b,
        alpha,
        seed: 0,
        checkpoints: vec![2_000],
        trace: spec.clone(),
    };
    let r = run_jobs(&dm, std::slice::from_ref(&job), 2);
    assert_eq!(r[0].algorithm, "DemandAware(hedged)");
    assert_eq!(r[0].trace, spec.name());
    assert_eq!(r[0].total.requests, 4_000);
    let hedged = DemandAware::hedged(vec![base.clone(), drifted.clone()]);
    assert_eq!(
        hedged.build(&dm, b),
        hedged.build(&dm, b),
        "hedged build is deterministic"
    );
    // The JSON path the example prints.
    assert!(base.to_json().contains("\"num_racks\":20"));
}

/// `examples/trace_analysis.rs`: structure statistics for every generator.
#[test]
fn trace_analysis_core_path() {
    let n = 30;
    let len = 10_000;
    let traces = [
        facebook_cluster_trace(FacebookCluster::Database, n, len, 1),
        facebook_cluster_trace(FacebookCluster::Hadoop, n, len, 1),
        microsoft_trace(20, len, MicrosoftParams::default(), 1),
        uniform_trace(n, len, 1),
        hotspot_trace(n, len, 4, 0.8, 1),
        zipf_pair_trace(n, len, 1.2, 1),
    ];
    for trace in &traces {
        let stats = TraceStats::compute(trace);
        assert_eq!(stats.total_requests as usize, trace.len());
        assert!(stats.distinct_pairs > 0);
        assert!((0.0..=1.0).contains(&stats.pair_gini), "gini out of range");
        let cov = stats.topk_partner_coverage(trace, 6);
        assert!((0.0..=1.0 + 1e-9).contains(&cov));
    }
    // Skew ordering: Facebook Database is more skewed than uniform traffic.
    let fb = TraceStats::compute(&traces[0]);
    let uni = TraceStats::compute(&traces[3]);
    assert!(fb.pair_gini > uni.pair_gini);
}
