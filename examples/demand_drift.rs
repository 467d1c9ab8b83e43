//! Demand drift vs a demand-aware static design: the COUDER-style
//! mis-estimation scenario the `repro_figures demand` target sweeps.
//!
//! A [`DemandAware`] b-matching is provisioned from a *forecast* matrix.
//! On traffic sampled from that matrix it beats Oblivious handily — but as
//! the served distribution drifts toward an independent matrix, the static
//! design decays while online R-BMA (which never saw any forecast) keeps
//! adapting. A hedged design provisioned against both matrices holds up the
//! worst case.
//!
//! ```text
//! cargo run --release --example demand_drift [racks] [requests]
//! ```

use rdcn::core::algorithms::AlgorithmKind;
use rdcn::core::sweep::{run_jobs, Job};
use rdcn::demand::{DemandMatrix, MatrixSequence, MicrosoftParams};
use rdcn::topology::{builders, DistanceMatrix};
use rdcn::traces::TraceSpec;
use rdcn::util::rngx::derive_seed;
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let racks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);
    let requests: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60_000);
    let (b, alpha) = (6usize, 10u64);

    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));

    // The forecast the static design is built on, and the matrix the served
    // traffic drifts toward.
    let base = DemandMatrix::microsoft(racks, MicrosoftParams::default(), 1).normalized();
    let drifted = DemandMatrix::microsoft(racks, MicrosoftParams::default(), 2).normalized();
    println!(
        "forecast: {} (gini {:.2}, top-{} pairs carry {:.0}% of demand)",
        base.name(),
        base.gini(),
        racks * b / 2,
        100.0 * base.top_share(racks * b / 2),
    );
    println!("{racks} racks, b={b}, α={alpha}, {requests} requests per drift level\n");

    // Part 1: i.i.d. traffic at growing drift λ from the forecast.
    let algorithms = [
        AlgorithmKind::demand_aware(base.clone()),
        AlgorithmKind::demand_aware_hedged(vec![base.clone(), drifted.clone()]),
        AlgorithmKind::Rbma { lazy: true },
        AlgorithmKind::Oblivious,
    ];
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>14}  (routing cost, as in Figs. 1a-4a;\n{:>68}",
        "drift λ", "DemandAware", "Hedged", "R-BMA", "Oblivious", "R-BMA reconfig spend in parens)"
    );
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    for (li, lambda) in [0.0, 0.25, 0.5, 0.75, 1.0].into_iter().enumerate() {
        let served = DemandMatrix::blend(&base, &drifted, lambda);
        let jobs: Vec<Job> = algorithms
            .iter()
            .map(|algorithm| Job {
                algorithm: algorithm.clone(),
                b,
                alpha,
                seed: 7,
                checkpoints: vec![],
                trace: TraceSpec::matrix(served.clone(), requests, derive_seed(0xD81F7, li as u64)),
            })
            .collect();
        let r = run_jobs(&dm, &jobs, threads);
        println!(
            "{:<8} {:>14} {:>14} {:>14} {:>14}",
            format!("λ={lambda}"),
            r[0].total.routing_cost,
            r[1].total.routing_cost,
            format!(
                "{} (+{})",
                r[2].total.routing_cost, r[2].total.reconfig_cost
            ),
            r[3].total.routing_cost,
        );
    }

    // Part 2: the same story as one continuous stream — a MatrixSequence
    // drifting from the forecast to the independent matrix, checkpointed.
    let seq = MatrixSequence::drifting(&base, &drifted, requests, 5);
    let spec = TraceSpec::sequence(seq, 0xD81F);
    let checkpoints = rdcn::core::SimConfig::evenly_spaced(requests, 5);
    let jobs: Vec<Job> = [
        AlgorithmKind::demand_aware(base.clone()),
        AlgorithmKind::Rbma { lazy: true },
    ]
    .into_iter()
    .map(|algorithm| Job {
        algorithm,
        b,
        alpha,
        seed: 7,
        checkpoints: checkpoints.clone(),
        trace: spec.clone(),
    })
    .collect();
    let reports = run_jobs(&dm, &jobs, threads);
    println!("\ndrifting stream ({}):", spec.name());
    println!(
        "{:<12} {:>14} {:>14}  (cumulative routing cost)",
        "requests", "DemandAware", "R-BMA"
    );
    for (da, rbma) in reports[0].checkpoints.iter().zip(&reports[1].checkpoints) {
        println!(
            "{:<12} {:>14} {:>14}",
            da.requests, da.routing_cost, rbma.routing_cost
        );
    }
    println!(
        "\n(The static design's per-request cost rises phase by phase as the \
         served matrix\nleaves its forecast behind; R-BMA re-learns each phase. \
         See `repro_figures demand`\nfor the full mis-estimation sweep and \
         DESIGN.md §4 for the experiment index.)"
    );

    // Demand matrices round-trip as CSV/JSON for external tooling.
    let json_len = base.to_json().len();
    println!("(forecast matrix serializes to {json_len} bytes of JSON)");
}
