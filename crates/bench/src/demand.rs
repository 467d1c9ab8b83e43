//! The `demand` repro target: the **mis-estimation sweep**.
//!
//! A demand-aware static design (COUDER-style, arXiv:2010.00090) is only as
//! good as its forecast. This sweep provisions the
//! [`DemandAware`](dcn_demand::DemandAware) baseline
//! from a *base* ProjecToR-style matrix, then serves traffic sampled from
//! `blend(base, drifted, λ)` for growing drift λ — at λ = 0 the forecast is
//! perfect, at λ = 1 traffic follows an independent matrix the design never
//! saw. The table reports, per λ: the point-forecast baseline, a hedged
//! variant provisioned against *both* matrices, online R-BMA (which adapts
//! and should degrade far less), and the Oblivious envelope. Costs are
//! routing costs, as in the paper's panels (a) — the static designs pay no
//! reconfiguration by construction; R-BMA's reconfiguration spend (the
//! price of its adaptivity) is reported in its own column.
//!
//! Expected shape (asserted by tests at smoke scale): the static baseline
//! beats Oblivious handily on its own matrix and decays toward it as λ
//! grows; R-BMA's saving is nearly flat in λ (i.i.d. sampling looks the
//! same to an online algorithm regardless of which matrix it comes from),
//! so the static design loses ground to it with every step of drift;
//! hedging holds up the worst case at the price of the best case.

use crate::SimpleTable;
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::sweep::{run_jobs_supervised, Job, JobFailure, ShardSpec};
use dcn_demand::{DemandMatrix, MicrosoftParams};
use dcn_topology::{builders, DistanceMatrix};
use dcn_traces::TraceSpec;
use dcn_util::rngx::derive_seed;
use std::sync::Arc;

/// Runs the mis-estimation sweep at `scale` times the nominal 400k-request
/// workload; returns one row per drift level λ. `threads` is the
/// work-stealing worker count (`0` = auto); `shard` selects which λ rows
/// (by original index, so all seeds are unchanged) this invocation
/// computes — the sweep is fully deterministic, so shard artifacts merge
/// byte-identically into the unsharded table.
///
/// Every job runs supervised under the journal scope `"demand"`
/// ([`run_jobs_supervised`]): a panicking job is retried, and (with a
/// journal installed) completed jobs replay on `--resume` instead of
/// re-running. When every job completes, the table is **byte-identical**
/// to an unsupervised run's; when a job exhausts its retries, the affected
/// row's dependent cells degrade to NaN (serialized `null`), the row gets
/// a `statuses` note, and the structured [`JobFailure`] records are
/// returned for the quarantine report.
pub fn demand_sweep(
    scale: f64,
    threads: usize,
    shard: ShardSpec,
) -> (SimpleTable, Vec<JobFailure>) {
    assert!(scale > 0.0, "scale factor must be positive");
    let racks = 50;
    let b = 6;
    let alpha = 10u64;
    let reps = 2u64;
    let len = ((400_000.0 * scale).round() as usize).max(2_000);
    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));

    // The forecast the static design is built on, and the independent
    // matrix the served traffic drifts toward (normalized so blends are
    // probability mixtures).
    let base = DemandMatrix::microsoft(racks, MicrosoftParams::default(), 0xBA5E).normalized();
    let drifted = DemandMatrix::microsoft(racks, MicrosoftParams::default(), 0xD21F7).normalized();

    let algorithms = [
        AlgorithmKind::demand_aware(base.clone()),
        AlgorithmKind::demand_aware_hedged(vec![base.clone(), drifted.clone()]),
        AlgorithmKind::Rbma { lazy: true },
        AlgorithmKind::Oblivious,
    ];

    let lambdas = [0.0, 0.25, 0.5, 0.75, 1.0];
    // One flat job grid over the *owned* λ rows: (λ × algorithm ×
    // repetition), fanned out together. Seeds use the original λ index, so
    // a sharded run computes exactly the rows the unsharded run would.
    let owned: Vec<(usize, f64)> = lambdas
        .iter()
        .copied()
        .enumerate()
        .filter(|(li, _)| shard.owns(*li))
        .collect();
    let mut jobs = Vec::new();
    for &(li, lambda) in &owned {
        let served = DemandMatrix::blend(&base, &drifted, lambda);
        for algorithm in &algorithms {
            for rep in 0..reps {
                jobs.push(Job {
                    algorithm: algorithm.clone(),
                    b,
                    alpha,
                    seed: derive_seed(0xA3, rep),
                    checkpoints: vec![],
                    trace: TraceSpec::matrix(
                        served.clone(),
                        len,
                        derive_seed(0xDE3D, (li as u64) * reps + rep),
                    ),
                });
            }
        }
    }
    let outcomes = run_jobs_supervised(&dm, &jobs, threads, "demand");
    let failures: Vec<JobFailure> = outcomes
        .iter()
        .filter_map(|o| o.failure().cloned())
        .collect();
    let reports: Vec<Option<&dcn_core::RunReport>> = outcomes.iter().map(|o| o.report()).collect();

    let mut rows = Vec::new();
    let mut statuses = Vec::new();
    let row_jobs = algorithms.len() * reps as usize;
    for (oi, &(_, lambda)) in owned.iter().enumerate() {
        // Mean total routing / total cost per algorithm across repetitions.
        // A quarantined repetition poisons its algorithm's cells to NaN
        // rather than silently averaging over fewer samples.
        let mean = |ai: usize, f: &dyn Fn(&dcn_core::RunReport) -> f64| -> f64 {
            let start = (oi * algorithms.len() + ai) * reps as usize;
            let slice = &reports[start..start + reps as usize];
            if slice.iter().any(|r| r.is_none()) {
                return f64::NAN;
            }
            slice.iter().map(|r| f(r.expect("checked"))).sum::<f64>() / reps as f64
        };
        let da = mean(0, &|r| r.total.routing_cost as f64);
        let hedged = mean(1, &|r| r.total.routing_cost as f64);
        let rbma = mean(2, &|r| r.total.routing_cost as f64);
        let rbma_reconfig = mean(2, &|r| r.total.reconfig_cost as f64);
        let oblivious = mean(3, &|r| r.total.routing_cost as f64);
        rows.push((
            format!("λ={lambda}"),
            vec![
                da,
                hedged,
                rbma,
                rbma_reconfig,
                oblivious,
                1.0 - da / oblivious,
                1.0 - rbma / oblivious,
            ],
        ));
        let start = oi * row_jobs;
        let failed = reports[start..start + row_jobs]
            .iter()
            .filter(|r| r.is_none())
            .count();
        if failed > 0 {
            statuses.push((
                rows.len() - 1,
                format!("{failed} of {row_jobs} jobs quarantined; affected cells are null"),
            ));
        }
    }
    let table = SimpleTable {
        title: format!(
            "Demand mis-estimation sweep: static forecast vs drifting traffic \
             (microsoft matrices, {racks} racks, b={b}, α={alpha}, {len} requests, λ = drift)"
        ),
        columns: vec![
            "DemandAware routing".into(),
            "Hedged routing".into(),
            "R-BMA routing".into(),
            "R-BMA reconfig".into(),
            "Oblivious routing".into(),
            "DA saving".into(),
            "R-BMA saving".into(),
        ],
        rows,
        statuses,
    };
    (table, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_and_positive_costs() {
        let (t, _) = demand_sweep(0.01, 0, ShardSpec::full());
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.columns.len(), 7);
        for (label, v) in &t.rows {
            assert!(v[..5].iter().all(|&x| x > 0.0), "{label}: {v:?}");
        }
        assert!(t.to_markdown().contains("λ=0"));
    }

    #[test]
    fn baseline_beats_oblivious_on_its_own_matrix_then_decays() {
        let (t, _) = demand_sweep(0.01, 0, ShardSpec::full());
        let da_saving: Vec<f64> = t.rows.iter().map(|(_, v)| v[5]).collect();
        assert!(
            da_saving[0] > 0.15,
            "on its own matrix the static design must clearly beat oblivious: {da_saving:?}"
        );
        assert!(
            da_saving[0] > *da_saving.last().expect("rows") + 0.05,
            "drift must erode the static design's saving: {da_saving:?}"
        );
    }

    #[test]
    fn rbma_degrades_less_than_the_static_baseline() {
        let (t, _) = demand_sweep(0.01, 0, ShardSpec::full());
        let gap = |row: &(String, Vec<f64>)| row.1[6] - row.1[5];
        let gap_first = gap(&t.rows[0]);
        let gap_last = gap(t.rows.last().expect("rows"));
        assert!(
            gap_last > gap_first + 0.05,
            "R-BMA's edge over the static design must grow with drift \
             (gap {gap_first:.3} -> {gap_last:.3})"
        );
    }

    #[test]
    fn hedging_protects_the_drifted_end() {
        let (t, _) = demand_sweep(0.01, 0, ShardSpec::full());
        let last = &t.rows.last().expect("rows").1;
        let (hedged, point) = (last[1], last[0]);
        assert!(
            hedged < point,
            "at full drift the hedged design must out-serve the point forecast: \
             {hedged} vs {point}"
        );
    }
}
