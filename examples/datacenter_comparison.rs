//! Full §3-style comparison on one cluster: R-BMA vs BMA vs SO-BMA vs
//! Oblivious vs Rotor, across b values — a miniature of the paper's
//! Figures 1a/1c plus the rotor reference point.
//!
//! ```text
//! cargo run --release --example datacenter_comparison [racks] [requests]
//! ```

use rdcn::core::algorithms::static_offline::{so_bma_matching, static_routing_cost};
use rdcn::core::algorithms::AlgorithmKind;
use rdcn::core::sweep::{run_jobs, Job};
use rdcn::topology::{builders, DistanceMatrix};
use rdcn::traces::{FacebookCluster, TraceSpec};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let racks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let requests: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);

    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    // The workload is a *description*: every online job below streams its
    // own copy in-place (O(1) memory); only offline SO-BMA materializes it.
    let spec = TraceSpec::Facebook {
        cluster: FacebookCluster::Database,
        num_racks: racks,
        len: requests,
        seed: 11,
    };
    let alpha = 10u64;
    println!(
        "workload: {} ({} requests, {racks} racks, α={alpha})\n",
        spec.name(),
        spec.len()
    );

    let bs = [6usize, 12, 18];
    let mut jobs = Vec::new();
    for algorithm in [
        AlgorithmKind::Rbma { lazy: true },
        AlgorithmKind::Bma,
        AlgorithmKind::Rotor { period: 100 },
    ] {
        for &b in &bs {
            jobs.push(Job {
                algorithm: algorithm.clone(),
                b,
                alpha,
                seed: 1,
                checkpoints: vec![],
                trace: spec.clone(),
            });
        }
    }
    jobs.push(Job {
        algorithm: AlgorithmKind::Oblivious,
        b: 1,
        alpha,
        seed: 1,
        checkpoints: vec![],
        trace: spec.clone(),
    });

    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let reports = run_jobs(&dm, &jobs, threads);

    let oblivious_cost = reports.last().expect("oblivious job").total.routing_cost;
    println!(
        "{:<16} {:>4} {:>14} {:>14} {:>12} {:>10}",
        "algorithm", "b", "routing", "reconfig", "total", "vs obliv"
    );
    for r in &reports {
        println!(
            "{:<16} {:>4} {:>14} {:>14} {:>12} {:>9.1}%",
            r.algorithm,
            r.b,
            r.total.routing_cost,
            r.total.reconfig_cost,
            r.total.total_cost(),
            100.0 * (1.0 - r.total.routing_cost as f64 / oblivious_cost as f64),
        );
    }

    // SO-BMA (offline static, whole trace) at each b.
    let trace = spec.as_trace();
    for &b in &bs {
        let matching = so_bma_matching(&dm, &trace.requests, b);
        let cost = static_routing_cost(&dm, &trace.requests, &matching);
        println!(
            "{:<16} {:>4} {:>14} {:>14} {:>12} {:>9.1}%",
            "SO-BMA",
            b,
            cost,
            0,
            cost,
            100.0 * (1.0 - cost as f64 / oblivious_cost as f64),
        );
    }
    println!(
        "\n(SO-BMA is offline: it sees the whole trace and pays no reconfiguration cost;\n\
         the online algorithms adapt on the fly. See Figs. 1c-4c for the regime analysis.)"
    );
}
