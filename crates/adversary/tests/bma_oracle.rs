//! Tier-1 oracle check for BMA: the production scheduler ([`Bma`]: flat
//! intrusive LRU and pair-table counters) and its reference ([`BmaBTree`]:
//! per-rack `BTreeMap` recency and `FxHashMap` counters) must produce
//! identical `RunReport`s, every field except wall-clock time, on the
//! `scaling` target's standard point and on every committed corpus genome
//! at that entry's own b and α. The two share only `BMatching`; the
//! reference decides hits and removals from its own recency map.

use dcn_adversary::committed_entries;
use dcn_adversary::search::search_topology;
use dcn_core::algorithms::bma::{Bma, BmaBTree};
use dcn_core::{run, OnlineScheduler, RunReport, SimConfig};
use dcn_topology::{builders, DistanceMatrix, Pair};
use dcn_traces::{zipf_pair_source, RequestSource};
use std::sync::Arc;

/// Runs `Bma` and `BmaBTree` over `trace` and asserts identical reports.
fn assert_oracle_agrees(
    dm: &Arc<DistanceMatrix>,
    b: usize,
    alpha: u64,
    trace: &[Pair],
    ctx: &str,
) -> RunReport {
    let config = SimConfig {
        checkpoints: SimConfig::evenly_spaced(trace.len(), 10),
        seed: 7,
        trace_name: ctx.to_string(),
        ..Default::default()
    };
    let run_with = |scheduler: &mut dyn OnlineScheduler| run(scheduler, dm, alpha, trace, &config);
    let flat = run_with(&mut Bma::new(Arc::clone(dm), b, alpha));
    let oracle = run_with(&mut BmaBTree::new(Arc::clone(dm), b, alpha));
    assert_eq!(
        flat.without_wall_clock(),
        oracle.without_wall_clock(),
        "{ctx}"
    );
    flat
}

#[test]
fn bma_matches_its_oracle_at_the_scaling_standard_point() {
    // The `scaling` target's configuration: 100-rack fat tree, b = 12,
    // α = 10, Zipf s = 1.2.
    let dm = Arc::new(DistanceMatrix::between_racks(
        &builders::fat_tree_with_racks(100),
    ));
    let trace = zipf_pair_source(100, 100_000, 1.2, 0x5CA1E)
        .materialize()
        .requests;
    let report = assert_oracle_agrees(&dm, 12, 10, &trace, "scaling standard point");
    // Non-vacuity: the run buys, evicts and hits.
    assert!(report.total.reconfigurations > 0 && report.total.matched_requests > 0);
}

#[test]
fn bma_matches_its_oracle_on_every_corpus_genome() {
    let entries = committed_entries();
    assert!(!entries.is_empty(), "the committed corpus is empty");
    for (name, entry) in entries {
        let dm = search_topology(entry.num_racks);
        let trace = entry.genome.as_trace().requests;
        assert_oracle_agrees(&dm, entry.b, entry.alpha, &trace, &name);
    }
}
