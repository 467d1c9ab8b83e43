//! # dcn-bench
//!
//! The figure-reproduction harness. Every figure panel of the paper's
//! evaluation (§3.2) and every ablation listed in DESIGN.md is regenerated
//! either by the `repro_figures` binary (series printed as markdown/CSV) or
//! by the Criterion benches (micro-level timing claims).
//!
//! Mapping (see DESIGN.md §4 for the full experiment index):
//!
//! | Paper artifact | Harness entry |
//! |---|---|
//! | Fig. 1a/1b/1c (Facebook Database) | `repro_figures fig1` |
//! | Fig. 2a/2b/2c (Facebook Web)      | `repro_figures fig2` |
//! | Fig. 3a/3b/3c (Facebook Hadoop)   | `repro_figures fig3` |
//! | Fig. 4a/4b/4c (Microsoft)         | `repro_figures fig4` |
//! | Ablations A–E                     | `repro_figures ablation-*` / `lower-bound` |
//! | beyond-paper scaling (10⁵ → 10⁷)  | `repro_figures scaling` |
//! | executor scaling (skewed grids)   | `repro_figures sweep` |
//! | per-request latency vs b          | `cargo bench -p dcn-bench` |
//!
//! A figure is one pass ([`figure_pass`]): each job of [`figure_jobs`] runs
//! once, one after another, and panels (a), (b) and (c) read the same
//! reports. Workloads are described by [`dcn_traces::TraceSpec`] and
//! streamed per job, so figure runs hold O(1) trace memory regardless of
//! `--scale`; only the offline SO-BMA series materializes (one repetition
//! at a time).

pub mod ablations;
pub mod adversary;
pub mod demand;
pub mod ledger;
pub mod shard;
pub mod telem;

pub use ablations::{
    ablation_alpha, ablation_augmentation, ablation_removal, ablation_skew, lower_bound_gap,
    SimpleTable,
};
pub use adversary::{adversary_search, genomes_to_json};
pub use demand::demand_sweep;
pub use ledger::{locked_update, measure_standard_point, Ledger, LedgerEntry};
pub use shard::{merge_tables, merged_file_name, shard_file_name};

use dcn_core::algorithms::static_offline::so_bma_series;
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::report::AveragedSeries;
use dcn_core::sweep::{run_jobs, run_jobs_sequential, with_threads, Job, ShardSpec};
use dcn_topology::{builders, DistanceMatrix};
use dcn_traces::{FacebookCluster, MicrosoftParams, Trace, TraceSpec};
use dcn_util::rngx::derive_seed;
use std::sync::Arc;

/// Workload selector for figure specs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// Facebook Database cluster stand-in (Fig. 1).
    FacebookDb,
    /// Facebook Web-Service cluster stand-in (Fig. 2).
    FacebookWeb,
    /// Facebook Hadoop cluster stand-in (Fig. 3).
    FacebookHadoop,
    /// Microsoft i.i.d. traffic-matrix stand-in (Fig. 4).
    Microsoft,
    /// Pure-Zipf pair trace with the given exponent (skew ablation).
    Zipf(f64),
    /// Uniform traffic (structure-free reference).
    Uniform,
}

/// A reproducible figure configuration.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    /// Identifier, e.g. `fig1`.
    pub id: &'static str,
    /// Human title matching the paper.
    pub title: &'static str,
    /// Workload generator.
    pub workload: Workload,
    /// Number of racks (100 for Facebook figures, 50 for Microsoft).
    pub racks: usize,
    /// The b values swept in panel (a)/(b); the last is panel (c)'s b.
    pub bs: Vec<usize>,
    /// Trace length.
    pub total_requests: usize,
    /// Number of x-axis points.
    pub num_checkpoints: usize,
    /// Reconfiguration cost α.
    pub alpha: u64,
    /// Seed repetitions averaged per configuration (paper: 5).
    pub repetitions: u64,
}

impl FigureSpec {
    /// The four figures of §3.2 at paper scale.
    pub fn paper_figures() -> Vec<FigureSpec> {
        vec![
            FigureSpec {
                id: "fig1",
                title: "Facebook Database cluster",
                workload: Workload::FacebookDb,
                racks: 100,
                bs: vec![6, 12, 18],
                total_requests: 350_000,
                num_checkpoints: 14,
                alpha: 10,
                repetitions: 5,
            },
            FigureSpec {
                id: "fig2",
                title: "Facebook Web Service cluster",
                workload: Workload::FacebookWeb,
                racks: 100,
                bs: vec![6, 12, 18],
                total_requests: 400_000,
                num_checkpoints: 14,
                alpha: 10,
                repetitions: 5,
            },
            FigureSpec {
                id: "fig3",
                title: "Facebook Hadoop cluster",
                workload: Workload::FacebookHadoop,
                racks: 100,
                bs: vec![6, 12, 18],
                total_requests: 185_000,
                num_checkpoints: 14,
                alpha: 10,
                repetitions: 5,
            },
            FigureSpec {
                id: "fig4",
                title: "Microsoft cluster",
                workload: Workload::Microsoft,
                racks: 50,
                bs: vec![3, 6, 9],
                total_requests: 1_750_000,
                num_checkpoints: 14,
                alpha: 10,
                repetitions: 5,
            },
        ]
    }

    /// Looks up a paper figure by id.
    pub fn by_id(id: &str) -> Option<FigureSpec> {
        Self::paper_figures().into_iter().find(|f| f.id == id)
    }

    /// A proportionally scaled-down copy (for smoke tests / fast mode).
    pub fn scaled(&self, divisor: usize) -> FigureSpec {
        let mut s = self.clone();
        s.total_requests = (s.total_requests / divisor).max(s.num_checkpoints);
        s.repetitions = s.repetitions.min(2);
        s
    }

    /// The `--scale` knob: multiplies the request count by `factor`
    /// (e.g. `10.0` turns the 350k-request Fig. 1 into a 3.5M-request run —
    /// feasible at constant memory because workloads stream). At least one
    /// request per checkpoint is kept.
    pub fn scaled_by(&self, factor: f64) -> FigureSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut s = self.clone();
        s.total_requests = ((s.total_requests as f64 * factor).round() as usize)
            .max(s.num_checkpoints)
            .max(1);
        s
    }

    /// The workload description for repetition `rep` (each repetition gets
    /// fresh workload randomness, as in the paper's 5-run averaging).
    pub fn trace_spec(&self, rep: u64) -> TraceSpec {
        let seed = derive_seed(0xF16, rep);
        let (num_racks, len) = (self.racks, self.total_requests);
        match self.workload {
            Workload::FacebookDb => TraceSpec::Facebook {
                cluster: FacebookCluster::Database,
                num_racks,
                len,
                seed,
            },
            Workload::FacebookWeb => TraceSpec::Facebook {
                cluster: FacebookCluster::WebService,
                num_racks,
                len,
                seed,
            },
            Workload::FacebookHadoop => TraceSpec::Facebook {
                cluster: FacebookCluster::Hadoop,
                num_racks,
                len,
                seed,
            },
            Workload::Microsoft => TraceSpec::Microsoft {
                num_racks,
                len,
                params: MicrosoftParams::default(),
                seed,
            },
            Workload::Zipf(s) => TraceSpec::Zipf {
                num_racks,
                len,
                exponent: s,
                seed,
            },
            Workload::Uniform => TraceSpec::Uniform {
                num_racks,
                len,
                seed,
            },
        }
    }

    /// Materializes the trace for repetition `rep` (offline baselines and
    /// benches only; figure sweeps stream via [`FigureSpec::trace_spec`]).
    pub fn trace(&self, rep: u64) -> Trace {
        self.trace_spec(rep).as_trace().into_owned()
    }

    /// Fat-tree distance matrix for this spec's rack count.
    pub fn distances(&self) -> Arc<DistanceMatrix> {
        let net = builders::fat_tree_with_racks(self.racks);
        Arc::new(DistanceMatrix::between_racks(&net))
    }

    /// The checkpoint grid.
    pub fn checkpoints(&self) -> Vec<usize> {
        dcn_core::SimConfig::evenly_spaced(self.total_requests, self.num_checkpoints)
    }
}

/// Panel selector for [`run_panel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Panel {
    /// Routing cost, b-sweep + oblivious (Figs. *a).
    RoutingCost,
    /// Execution time, b-sweep (Figs. *b).
    ExecutionTime,
    /// Best-of comparison at max b incl. SO-BMA (Figs. *c).
    BestOf,
}

/// One panel of a figure: runs [`figure_pass`] and keeps that panel
/// (perfbench's `fig1` check compares its own series with these).
pub fn run_panel(spec: &FigureSpec, panel: Panel, threads: usize) -> Vec<AveragedSeries> {
    let [routing_cost, execution_time, best_of] = figure_pass(spec, threads);
    match panel {
        Panel::RoutingCost => routing_cost,
        Panel::ExecutionTime => execution_time,
        Panel::BestOf => best_of,
    }
}

/// Every simulated job of a figure, in the order [`figure_pass`] runs
/// them: R-BMA at every b, then BMA at every b, then Oblivious, each legend
/// entry as one job per repetition. Every job carries its own trace spec,
/// so no trace is shared.
pub fn figure_jobs(spec: &FigureSpec) -> Vec<Job> {
    let online = [AlgorithmKind::Rbma { lazy: true }, AlgorithmKind::Bma];
    let entries = online
        .iter()
        .flat_map(|algorithm| spec.bs.iter().map(move |&b| (algorithm.clone(), b)));
    entries
        .chain([(AlgorithmKind::Oblivious, spec.bs[0])])
        .flat_map(|(algorithm, b)| {
            (0..spec.repetitions).map(move |rep| Job {
                algorithm: algorithm.clone(),
                b,
                alpha: spec.alpha,
                seed: derive_seed(0xA1, rep),
                checkpoints: spec.checkpoints(),
                trace: spec.trace_spec(rep),
            })
        })
        .collect()
}

/// Runs a figure once and returns its panels (a), (b) and (c), one
/// averaged series per legend entry.
///
/// Every job of [`figure_jobs`] runs once, one after another, serving on
/// one thread under the serve stopwatch; with a core to spare, a helper
/// thread generates each job's next requests meanwhile. The panels read
/// the same reports: panel (a) every entry's routing cost, panel (b)
/// R-BMA's and BMA's elapsed seconds, and panel (c) panel (a)'s R-BMA and
/// BMA series at the largest b, next to SO-BMA's. `threads` is the width
/// of the pass (`0` = auto): above one the helper runs, and SO-BMA prices
/// its checkpoints that wide.
pub fn figure_pass(spec: &FigureSpec, threads: usize) -> [Vec<AveragedSeries>; 3] {
    with_threads(threads, || {
        let dm = spec.distances();
        let jobs = figure_jobs(spec);
        let reports = run_jobs_sequential(&dm, &jobs);
        let reps = spec.repetitions as usize;
        let (online, oblivious) = reports.split_at(reports.len() - reps);
        let routing = |c: &dcn_core::Checkpoint| c.routing_cost as f64;
        let mut routing_cost = Vec::new();
        let mut execution_time = Vec::new();
        for (entry, job) in online.chunks(reps).zip(jobs.iter().step_by(reps)) {
            let label = format!("{} (b: {})", job.algorithm.label(), job.b);
            routing_cost.push(AveragedSeries::from_reports(&label, entry, routing));
            execution_time.push(AveragedSeries::from_reports(label, entry, |c| {
                c.elapsed_secs
            }));
        }
        routing_cost.push(AveragedSeries::from_reports(
            "Oblivious",
            oblivious,
            routing,
        ));
        let nb = spec.bs.len();
        let mut best_of = vec![
            routing_cost[nb - 1].clone(),
            routing_cost[2 * nb - 1].clone(),
        ];
        // SO-BMA: clairvoyant static matching recomputed per checkpoint.
        // Offline by definition, so this is the one place a figure
        // materializes its trace — one repetition at a time, freed before
        // the next.
        let b = spec.bs[nb - 1];
        let cps = spec.checkpoints();
        let per_rep: Vec<Vec<f64>> = (0..spec.repetitions)
            .map(|rep| {
                let trace = spec.trace(rep);
                let series = so_bma_series(&dm, &trace.requests, b, &cps);
                series.into_iter().map(|(_, cost)| cost as f64).collect()
            })
            .collect();
        let x = cps.iter().map(|&c| c as u64).collect();
        best_of.push(AveragedSeries::from_runs(
            format!("SO-BMA (b: {b})"),
            x,
            &per_rep,
        ));
        [routing_cost, execution_time, best_of]
    })
}

/// The standing adversarial worst-case panel seeded into the figure and
/// demand targets (the PR 6 follow-up in ROADMAP): one row per
/// committed corpus entry (`crates/adversary/corpus/*.json`). Each
/// entry is replay-gated first ([`CorpusEntry::verify`] pins its
/// discovered costs), then the genome trace runs through R-BMA (sorted
/// batched), BMA and Oblivious on the entry's own topology and (b, α)
/// — so every figure run exercises the discovered nemesis traces, not
/// only the `scaling` target.
///
/// [`CorpusEntry::verify`]: dcn_adversary::CorpusEntry::verify
pub fn worst_case_panel() -> SimpleTable {
    let mut rows = Vec::new();
    for (name, entry) in dcn_adversary::committed_entries() {
        entry
            .verify()
            .unwrap_or_else(|report| panic!("worst-case panel gate: {report}"));
        let trace = entry.genome.as_trace();
        let adm = dcn_adversary::search::search_topology(entry.num_racks);
        let run = |algorithm: &AlgorithmKind| {
            let config = dcn_core::SimConfig {
                seed: entry.algo_seed,
                trace_name: trace.name.clone(),
                ..Default::default()
            };
            let mut scheduler =
                algorithm.build_online(Arc::clone(&adm), entry.b, entry.alpha, entry.algo_seed);
            dcn_core::run(
                scheduler.as_mut(),
                &adm,
                entry.alpha,
                &trace.requests,
                &config,
            )
        };
        let rbma = run(&AlgorithmKind::Rbma { lazy: true });
        let bma = run(&AlgorithmKind::Bma);
        let oblivious = run(&AlgorithmKind::Oblivious);
        rows.push((
            format!(
                "worst-case {name} (n={}, b={}, α={})",
                entry.num_racks, entry.b, entry.alpha
            ),
            vec![
                rbma.total.total_cost() as f64,
                bma.total.total_cost() as f64,
                oblivious.total.routing_cost as f64,
                entry.ratio,
            ],
        ));
    }
    SimpleTable {
        title: "Adversarial worst-case panel: committed corpus genomes, replay-gated \
                (pinned ratio = discovered cost vs SO-BMA)"
            .into(),
        columns: vec![
            "R-BMA total".into(),
            "BMA total".into(),
            "Oblivious routing".into(),
            "pinned cost ratio".into(),
        ],
        rows,
        statuses: Vec::new(),
    }
}

/// The `scaling` target: online algorithms over streamed workloads of
/// growing length (default 10⁵ → 10⁷ requests) at constant trace memory —
/// the beyond-paper scenario the streaming pipeline exists for. Returns one
/// row per length with total costs and serve-loop throughput, in **both**
/// serve modes: batched (the production default,
/// [`dcn_core::simulator::DEFAULT_BATCH_SIZE`]) and unbatched
/// (`batch_size = 1`, the historical per-request loop) — the ratio column
/// is the measured win of the batched pipeline. For R-BMA, BMA and
/// Oblivious the full seeded `RunReport`s are asserted identical across
/// modes on every row (the batching equivalence contract, live in
/// production output, not only in tests). BMA's recency oracle
/// ([`dcn_core::algorithms::bma::BmaBTree`]) is checked against the same
/// standard point and the corpus in tier-1 tests
/// (`crates/adversary/tests/bma_oracle.rs`), not here.
///
/// Simulation runs stay strictly sequential (the table reports wall-clock
/// throughput, and timing runs must not share cores — same rule as the
/// execution-time panels). `shard` selects which rows (by original index,
/// so seeds are unchanged) this invocation computes.
///
/// Further additions, live in the artifact:
///
/// * **Worst-case panel.** Every committed adversarial corpus entry
///   (`crates/adversary/corpus/*.json`) appends a standing row: the entry
///   is first replayed to its pinned costs ([`CorpusEntry::verify`] as
///   gate), then its genome trace runs through the same column set on the
///   entry's own topology and (b, α) — the discovered nemesis traces
///   exercise the serve paths in the live table, not only in tests.
///   Corpus rows shard by continued index (`lens.len() + i`).
/// * **Measured specials share.** The runs meter into a local
///   telemetry sink (merged into the process-global one afterwards, so
///   `--telemetry` artifacts stay whole); the second return value is
///   the observed `rbma.specials` share of all R-BMA requests served.
///   The caller prints it as the target footer.
///
/// [`CorpusEntry::verify`]: dcn_adversary::CorpusEntry::verify
pub fn scaling_sweep(lens: &[usize], shard: ShardSpec) -> (SimpleTable, f64) {
    let racks = 100;
    let b = 12;
    let alpha = 10u64;
    let exponent = 1.2;
    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    // Local metering sink: the measured runs flush here first so the
    // footer can report the observed specials share; the snapshot merges
    // into the process-global sink at the end (a no-op when none is
    // installed), keeping `--telemetry` artifacts whole.
    let specials_sink = dcn_telemetry::Telemetry::enabled();
    let run_streamed = |spec: &TraceSpec, algorithm: &AlgorithmKind, batch_size: usize| {
        let mut source = spec.source();
        let config = dcn_core::SimConfig {
            seed: 7,
            trace_name: spec.name(),
            ..Default::default()
        }
        .with_batch_size(batch_size)
        .with_telemetry(specials_sink.clone());
        let mut scheduler = algorithm.build_online(Arc::clone(&dm), b, alpha, 7);
        dcn_core::run(scheduler.as_mut(), &dm, alpha, source.as_mut(), &config)
    };
    let throughput = |r: &dcn_core::RunReport| {
        if r.total.elapsed_secs > 0.0 {
            r.total.requests as f64 / r.total.elapsed_secs / 1e6
        } else {
            f64::NAN
        }
    };
    let batched = dcn_core::simulator::DEFAULT_BATCH_SIZE;
    let mut rows = Vec::new();
    // Denominator of the footer's specials share: every R-BMA run's
    // requests (batched and per-request bump `rbma.specials` identically).
    let mut rbma_requests = 0u64;
    for (i, &len) in lens.iter().enumerate() {
        if !shard.owns(i) {
            continue;
        }
        let spec = TraceSpec::Zipf {
            num_racks: racks,
            len,
            exponent,
            seed: derive_seed(0x5CA1E, i as u64),
        };
        let rbma_kind = AlgorithmKind::Rbma { lazy: true };
        let rbma = run_streamed(&spec, &rbma_kind, batched);
        let bma = run_streamed(&spec, &AlgorithmKind::Bma, batched);
        let oblivious = run_streamed(&spec, &AlgorithmKind::Oblivious, batched);
        let rbma_unbatched = run_streamed(&spec, &rbma_kind, 1);
        rbma_requests += rbma.total.requests * 2;
        // Batched ≡ per-request, live, on every seeded report field.
        assert_eq!(
            rbma.without_wall_clock(),
            rbma_unbatched.without_wall_clock(),
            "R-BMA batched vs per-request"
        );
        for (batched_report, algorithm) in [
            (&bma, AlgorithmKind::Bma),
            (&oblivious, AlgorithmKind::Oblivious),
        ] {
            let unbatched = run_streamed(&spec, &algorithm, 1);
            assert_eq!(
                batched_report.without_wall_clock(),
                unbatched.without_wall_clock(),
                "{}: batched vs per-request",
                algorithm.label()
            );
        }
        let fast = throughput(&rbma);
        let slow = throughput(&rbma_unbatched);
        rows.push((
            format!("{len} requests"),
            vec![
                rbma.total.total_cost() as f64,
                bma.total.total_cost() as f64,
                oblivious.total.routing_cost as f64,
                fast,
                throughput(&bma),
                slow,
                fast / slow,
            ],
        ));
    }
    // Standing worst-case panel: one row per committed adversarial corpus
    // entry, replay-gated, over the entry's own topology and parameters.
    for (ci, (name, entry)) in dcn_adversary::committed_entries().iter().enumerate() {
        if !shard.owns(lens.len() + ci) {
            continue;
        }
        entry
            .verify()
            .unwrap_or_else(|report| panic!("worst-case panel gate: {report}"));
        let trace = entry.genome.as_trace();
        let adm = dcn_adversary::search::search_topology(entry.num_racks);
        let run_adv = |algorithm: &AlgorithmKind, batch_size: usize| {
            let config = dcn_core::SimConfig {
                seed: entry.algo_seed,
                trace_name: trace.name.clone(),
                ..Default::default()
            }
            .with_batch_size(batch_size)
            .with_telemetry(specials_sink.clone());
            let mut scheduler =
                algorithm.build_online(Arc::clone(&adm), entry.b, entry.alpha, entry.algo_seed);
            dcn_core::run(
                scheduler.as_mut(),
                &adm,
                entry.alpha,
                &trace.requests,
                &config,
            )
        };
        let rbma_kind = AlgorithmKind::Rbma { lazy: true };
        let rbma = run_adv(&rbma_kind, batched);
        let bma = run_adv(&AlgorithmKind::Bma, batched);
        let oblivious = run_adv(&AlgorithmKind::Oblivious, batched);
        let rbma_unbatched = run_adv(&rbma_kind, 1);
        rbma_requests += rbma.total.requests * 2;
        assert_eq!(
            rbma.without_wall_clock(),
            rbma_unbatched.without_wall_clock(),
            "worst-case {name}"
        );
        let fast = throughput(&rbma);
        let slow = throughput(&rbma_unbatched);
        rows.push((
            format!("worst-case {name}"),
            vec![
                rbma.total.total_cost() as f64,
                bma.total.total_cost() as f64,
                oblivious.total.routing_cost as f64,
                fast,
                throughput(&bma),
                slow,
                fast / slow,
            ],
        ));
    }
    // Merge the metered counters outward, then derive the footer share.
    let metered = specials_sink.snapshot();
    dcn_telemetry::global().merge(&metered);
    let specials = metered.counters.get("rbma.specials").copied().unwrap_or(0);
    let specials_share = specials as f64 / rbma_requests.max(1) as f64;
    let table = SimpleTable {
        title: format!(
            "Scaling: streamed Zipf(s={exponent}) workloads, {racks} racks, b={b}, α={alpha} \
             (O(1) trace memory; serve batch={batched} vs 1) \
             + adversarial worst-case panel"
        ),
        columns: vec![
            "R-BMA total".into(),
            "BMA total".into(),
            "Oblivious routing".into(),
            "R-BMA Mreq/s".into(),
            "BMA Mreq/s".into(),
            "R-BMA Mreq/s (batch=1)".into(),
            "batch speedup".into(),
        ],
        rows,
        statuses: Vec::new(),
    };
    (table, specials_share)
}

/// The `sweep` target: wall-clock scaling of the work-stealing
/// [`run_jobs`] executor on a deliberately **skewed** job mix (two
/// heavyweight runs next to a tail of small ones — the shape that strands
/// cores behind a static split). One row per worker count: seconds,
/// aggregate serve throughput, speedup vs one worker, the ideal speedup on
/// this host (`min(workers, cores)`), and efficiency = speedup/ideal.
/// Every parallel run's reports are asserted identical to the sequential
/// ones (the executor's determinism contract, live in the artifact).
///
/// Worker counts, not hosts, are the axis — multi-host splits are the
/// `--shard` flag's job (`shard` here selects table rows, by original
/// index, like every other table target).
pub fn sweep_scaling(scale: f64, shard: ShardSpec) -> SimpleTable {
    assert!(scale > 0.0, "scale factor must be positive");
    let racks = 100;
    let b = 12;
    let alpha = 10u64;
    let big = ((1_000_000.0 * scale).round() as usize).max(2_000);
    let small = (big / 8).max(250);
    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    // Two big jobs up front, then a tail of small ones in mixed algorithm
    // order: a static split of this grid idles half its workers.
    let mut jobs = Vec::new();
    for (j, &len) in [
        big, big, small, small, small, small, small, small, small, small,
    ]
    .iter()
    .enumerate()
    {
        let algorithm = if j % 2 == 0 {
            AlgorithmKind::Rbma { lazy: true }
        } else {
            AlgorithmKind::Bma
        };
        jobs.push(Job {
            algorithm,
            b,
            alpha,
            seed: derive_seed(0x57EA, j as u64),
            checkpoints: vec![],
            trace: TraceSpec::Zipf {
                num_racks: racks,
                len,
                exponent: 1.2,
                seed: derive_seed(0x57EB, j as u64),
            },
        });
    }
    let total_requests: usize = jobs.iter().map(|j| j.trace.len()).sum();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    let worker_counts = [1usize, 2, 4, 8];
    let any_owned = (0..worker_counts.len()).any(|i| shard.owns(i));
    // The sequential run doubles as the speedup baseline and the
    // determinism reference. It runs at width 1, without the helper thread
    // that would generate its requests on a second core, so the speedup
    // column stays "vs one core".
    let (reference, seq_secs) = if any_owned {
        let start = std::time::Instant::now();
        let reports = with_threads(1, || run_jobs_sequential(&dm, &jobs));
        (Some(reports), start.elapsed().as_secs_f64())
    } else {
        (None, 0.0)
    };
    let mut rows = Vec::new();
    for (i, &workers) in worker_counts.iter().enumerate() {
        if !shard.owns(i) {
            continue;
        }
        let reference = reference.as_ref().expect("computed when any row is owned");
        let start = std::time::Instant::now();
        let reports = run_jobs(&dm, &jobs, workers);
        let secs = start.elapsed().as_secs_f64();
        for (k, (got, want)) in reports.iter().zip(reference).enumerate() {
            assert_eq!(
                got.without_wall_clock(),
                want.without_wall_clock(),
                "work-stealing vs sequential, job {k} ({workers} workers)"
            );
        }
        let ideal = workers.min(cores) as f64;
        // On a single-core host a measured "speedup" is pure scheduling
        // noise around 1.0 — report n/a instead of a misleading ≈1.0×.
        let (speedup, efficiency) = if cores == 1 {
            (f64::NAN, f64::NAN)
        } else {
            let s = seq_secs / secs;
            (s, s / ideal)
        };
        rows.push((
            format!("{workers} workers"),
            vec![
                secs,
                total_requests as f64 / secs / 1e6,
                speedup,
                ideal,
                efficiency,
            ],
        ));
    }
    let core_note = if cores == 1 {
        "; 1 core: speedup n/a"
    } else {
        ""
    };
    SimpleTable {
        title: format!(
            "Sweep executor scaling: work-stealing run_jobs over a skewed job mix \
             ({} jobs, 2×{big} + 8×{small} requests, Zipf s=1.2, {racks} racks, b={b}{core_note})",
            jobs.len()
        ),
        columns: vec![
            "seconds".into(),
            "Mreq/s aggregate".into(),
            "speedup vs 1 worker".into(),
            "ideal (min(workers, cores))".into(),
            "efficiency".into(),
        ],
        rows,
        statuses: Vec::new(),
    }
}

/// Renders series as a markdown table (x column + one column per series).
pub fn series_to_markdown(title: &str, series: &[AveragedSeries]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}\n");
    let _ = write!(out, "| #Requests |");
    for s in series {
        let _ = write!(out, " {} |", s.label);
    }
    let _ = writeln!(out);
    let _ = write!(out, "|---|");
    for _ in series {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out);
    let rows = series.first().map_or(0, |s| s.x.len());
    for i in 0..rows {
        let _ = write!(out, "| {} |", series[0].x[i]);
        for s in series {
            let _ = write!(out, " {:.4} |", s.y_mean[i]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders series as CSV (long format: series,x,y_mean,y_std).
pub fn series_to_csv(series: &[AveragedSeries]) -> String {
    let mut out = String::from("series,requests,mean,stddev\n");
    for s in series {
        for i in 0..s.x.len() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                s.label, s.x[i], s.y_mean[i], s.y_std[i]
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> FigureSpec {
        FigureSpec {
            id: "test",
            title: "tiny",
            workload: Workload::FacebookDb,
            racks: 20,
            bs: vec![2, 4],
            total_requests: 4000,
            num_checkpoints: 4,
            alpha: 10,
            repetitions: 2,
        }
    }

    #[test]
    fn panel_a_has_expected_legends_and_order() {
        let [series, _, _] = figure_pass(&tiny_spec(), 4);
        let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "R-BMA (b: 2)",
                "R-BMA (b: 4)",
                "BMA (b: 2)",
                "BMA (b: 4)",
                "Oblivious"
            ]
        );
        // Oblivious is the upper envelope at the final checkpoint.
        let last = series[0].x.len() - 1;
        let oblivious = series.last().expect("series").y_mean[last];
        for s in &series[..series.len() - 1] {
            assert!(
                s.y_mean[last] <= oblivious,
                "{} ({}) should not exceed oblivious ({oblivious})",
                s.label,
                s.y_mean[last]
            );
        }
    }

    #[test]
    fn larger_b_does_not_hurt_rbma() {
        let [series, _, _] = figure_pass(&tiny_spec(), 4);
        let last = series[0].x.len() - 1;
        let rbma_b2 = series[0].y_mean[last];
        let rbma_b4 = series[1].y_mean[last];
        assert!(
            rbma_b4 <= rbma_b2 * 1.02,
            "more switches should not increase routing cost: b2={rbma_b2} b4={rbma_b4}"
        );
    }

    #[test]
    fn panel_c_includes_so_bma() {
        let [_, _, series] = figure_pass(&tiny_spec(), 4);
        assert_eq!(series.len(), 3);
        assert!(series[2].label.starts_with("SO-BMA"));
        // SO-BMA routing cost is monotone in the prefix.
        assert!(series[2].y_mean.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Fig. 1 at 1/100 scale, repetition 0, b = 18: the series is pinned,
    /// and equals the per-checkpoint replay through `static_routing_cost`.
    #[test]
    fn so_bma_series_pinned_on_scaled_fig1() {
        use dcn_core::algorithms::static_offline::{so_bma_matching, static_routing_cost};
        let spec = FigureSpec::by_id("fig1").expect("fig1 exists").scaled(100);
        let (dm, trace, cps) = (spec.distances(), spec.trace(0), spec.checkpoints());
        let b = *spec.bs.last().expect("non-empty b sweep");
        let series = so_bma_series(&dm, &trace.requests, b, &cps);
        let costs: Vec<u64> = series.iter().map(|&(_, cost)| cost).collect();
        assert_eq!(
            costs,
            [251, 521, 833, 1142, 1479, 1811, 2158, 2498, 2846, 3207, 3587, 3964, 4353, 4711]
        );
        for &(cp, cost) in &series {
            let prefix = &trace.requests[..cp];
            let matching = so_bma_matching(&dm, prefix, b);
            assert_eq!(cost, static_routing_cost(&dm, prefix, &matching), "cp {cp}");
        }
    }

    #[test]
    fn markdown_and_csv_render() {
        let series = vec![AveragedSeries {
            label: "A".into(),
            x: vec![10, 20],
            y_mean: vec![1.0, 2.0],
            y_std: vec![0.0, 0.1],
        }];
        let md = series_to_markdown("t", &series);
        assert!(md.contains("| 10 | 1.0000 |"));
        let csv = series_to_csv(&series);
        assert!(csv.contains("A,20,2,0.1"));
    }

    #[test]
    fn paper_figures_well_formed() {
        let figs = FigureSpec::paper_figures();
        assert_eq!(figs.len(), 4);
        assert!(FigureSpec::by_id("fig4").is_some());
        assert!(FigureSpec::by_id("fig9").is_none());
        let f4 = FigureSpec::by_id("fig4").expect("fig4 exists");
        assert_eq!(f4.racks, 50);
        assert_eq!(f4.bs, vec![3, 6, 9]);
        let scaled = f4.scaled(100);
        assert_eq!(scaled.total_requests, 17_500);
    }

    #[test]
    fn scaled_by_multiplies_requests() {
        let f1 = FigureSpec::by_id("fig1").expect("fig1 exists");
        assert_eq!(f1.scaled_by(2.0).total_requests, 700_000);
        assert_eq!(f1.scaled_by(0.1).total_requests, 35_000);
        // Never below one request per checkpoint.
        assert_eq!(f1.scaled_by(1e-9).total_requests, f1.num_checkpoints);
    }

    #[test]
    fn trace_spec_matches_eager_generator() {
        // Independent cross-check: the spec-streamed figure workload must
        // equal the eager generator called directly (spec.trace() itself is
        // defined via trace_spec, so comparing those two would be vacuous).
        let spec = tiny_spec();
        for rep in 0..2 {
            let streamed = spec.trace_spec(rep).as_trace().into_owned();
            let eager = dcn_traces::facebook_cluster_trace(
                dcn_traces::FacebookCluster::Database,
                spec.racks,
                spec.total_requests,
                derive_seed(0xF16, rep),
            );
            assert_eq!(eager.requests, streamed.requests);
            assert_eq!(eager.name, streamed.name);
        }
    }

    #[test]
    fn scaling_sweep_runs_streamed() {
        let corpus = dcn_adversary::committed_entries().len();
        assert!(corpus >= 3, "committed corpus should seed the panel");
        let (t, specials_share) = scaling_sweep(&[2_000, 4_000], ShardSpec::full());
        assert_eq!(t.rows.len(), 2 + corpus);
        assert_eq!(t.columns.len(), 7);
        // The footer share is a real measurement (the standard point sits
        // near 30% specials; the corpus rows pull the mix around, so just
        // bound it).
        assert!(
            specials_share > 0.0 && specials_share < 1.0,
            "share {specials_share}"
        );
        for (label, v) in &t.rows {
            // Online totals are bounded by the oblivious upper envelope plus
            // reconfiguration spend; all must be positive.
            assert!(v[0] > 0.0 && v[1] > 0.0 && v[2] > 0.0, "{label}: {v:?}");
            // Batched and per-request throughputs and their ratio are real
            // measurements (full report equality is asserted between the
            // paths inside the sweep).
            assert!(v[3] > 0.0 && v[5] > 0.0, "{label}: {v:?}");
            assert!(v[6].is_finite() && v[6] > 0.0, "{label}: {v:?}");
        }
        // Twice the requests ⇒ roughly twice the oblivious routing cost.
        let ratio = t.rows[1].1[2] / t.rows[0].1[2];
        assert!((1.5..=2.5).contains(&ratio), "ratio {ratio}");
        // The worst-case panel rows follow the length rows, in corpus
        // file-name order.
        for (label, _) in &t.rows[2..] {
            assert!(label.starts_with("worst-case "), "{label}");
        }
    }

    #[test]
    fn worst_case_panel_rows_are_replay_gated() {
        let corpus = dcn_adversary::committed_entries().len();
        let t = worst_case_panel();
        assert_eq!(t.rows.len(), corpus);
        assert_eq!(t.columns.len(), 4);
        for (label, v) in &t.rows {
            assert!(label.starts_with("worst-case "), "{label}");
            // Replay-gated totals plus the pinned adversarial ratio
            // (every committed nemesis beats the SO-BMA baseline).
            assert!(v[0] > 0.0 && v[1] > 0.0 && v[2] > 0.0, "{label}: {v:?}");
            assert!(v[3] > 1.0, "{label}: {v:?}");
        }
    }

    #[test]
    fn scaling_sweep_shards_partition_the_rows() {
        // Sharded invocations compute exactly their owned rows (lengths and
        // corpus panel alike, by continued original index) with the original
        // per-row seeds: the union of the cost columns equals the unsharded
        // run's (timing columns are wall-clock and excluded).
        let lens = [1_500usize, 2_500, 3_500];
        let full = scaling_sweep(&lens, ShardSpec::full()).0;
        let a = scaling_sweep(&lens, ShardSpec::new(0, 2)).0;
        let b = scaling_sweep(&lens, ShardSpec::new(1, 2)).0;
        let total = full.rows.len();
        assert_eq!(a.rows.len(), total.div_ceil(2));
        assert_eq!(b.rows.len(), total / 2);
        assert_eq!(a.title, full.title, "titles must merge byte-identically");
        // Round-robin by original index: shard 0 owns even rows, shard 1 odd.
        let mut merged = Vec::new();
        let (mut ai, mut bi) = (a.rows.iter(), b.rows.iter());
        for i in 0..total {
            merged.push(if i % 2 == 0 {
                ai.next().expect("shard 0 row")
            } else {
                bi.next().expect("shard 1 row")
            });
        }
        for (got, want) in merged.iter().zip(&full.rows) {
            assert_eq!(got.0, want.0);
            for c in 0..3 {
                assert_eq!(got.1[c], want.1[c], "cost column {c} of row {}", got.0);
            }
        }
    }

    #[test]
    fn sweep_scaling_reports_executor_rows() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let t = sweep_scaling(0.004, ShardSpec::full());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.columns.len(), 5);
        for (label, v) in &t.rows {
            assert!(v[0] > 0.0, "{label}: elapsed must be positive");
            assert!(v[1] > 0.0, "{label}: throughput must be positive");
            assert!(v[3] >= 1.0, "{label}: {v:?}");
            if cores == 1 {
                // Single-core hosts report n/a, not a noise-driven ≈1.0×.
                assert!(v[2].is_nan() && v[4].is_nan(), "{label}: {v:?}");
            } else {
                assert!(v[2] > 0.0 && v[4] > 0.0, "{label}: {v:?}");
            }
        }
        if cores == 1 {
            assert!(t.title.contains("1 core: speedup n/a"), "{}", t.title);
            assert!(t.to_markdown().contains(" n/a |"));
        }
        // Row sharding composes like every other table target.
        let first = sweep_scaling(0.004, ShardSpec::new(0, 4));
        assert_eq!(first.rows.len(), 1);
        assert_eq!(first.rows[0].0, "1 workers");
    }
}
