//! The three workloads, their set-up, and one pass over each.
//!
//! An untraced pass calls the library exactly as a user would: the
//! executors `run_jobs` / `run_jobs_sequential` and `so_bma_series`. A
//! traced pass runs the same jobs through [`run_job_traced`], which mirrors
//! the executor's job body with timing wrappers around the source and the
//! scheduler, under the library's `steal_map` for fan-outs. The
//! transparency tests pin that both produce identical reports.

use crate::spans::{timed, SpanLog, TimedScheduler, TimedSource};
use dcn_bench::FigureSpec;
use dcn_core::algorithms::static_offline::so_bma_series;
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::sweep::{resolve_threads, run_jobs, run_jobs_sequential, steal_map, Job};
use dcn_core::{AveragedSeries, Checkpoint, RunReport, SimConfig};
use dcn_topology::{builders, DistanceMatrix};
use dcn_traces::TraceSpec;
use dcn_util::rngx::derive_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The seed the pinned digests were taken at. For `fig1` it reproduces
/// `repro_figures fig1` exactly (its trace and algorithm seeds are XORed
/// with the workload seed).
pub const DEFAULT_SEED: u64 = 0;

const RACKS: usize = 100;
const ZIPF_B: usize = 12;
const ZIPF_EXPONENT: f64 = 1.2;
const ZIPF_CHECKPOINTS: usize = 10;
/// Zipf traces per run, passes cycling through them. Which pairs are hot
/// (and so their distances) depends on the trace seed, and with it the
/// cost of a pass; cycling averages that out of each run's median.
pub const ZIPF_VARIANTS: usize = 4;
/// Fan-out width of the `fig1` panels.
pub const FIG1_THREADS: usize = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Streamed Zipf standard point at α = 10: R-BMA, then BMA.
    ZipfA10,
    /// The same trace at α = 100: R-BMA only.
    ZipfA100,
    /// The whole Fig. 1 reproduction (panels a, b, c) with 2 threads.
    Fig1,
}

impl Workload {
    /// Every workload, in round-robin order.
    pub const ALL: [Workload; 3] = [Workload::ZipfA10, Workload::ZipfA100, Workload::Fig1];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfA10 => "zipf-a10",
            Workload::ZipfA100 => "zipf-a100",
            Workload::Fig1 => "fig1",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload size. [`Scale::FULL`] is what the benchmark measures; tests
/// shrink it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Requests per Zipf job.
    pub zipf_len: usize,
    /// Divisor of the paper's Fig. 1 request count (1 = paper scale; any
    /// other value also caps repetitions at 2, as `FigureSpec::scaled`).
    pub fig1_divisor: usize,
}

impl Scale {
    /// The measured size: 5M-request Zipf jobs, Fig. 1 at paper scale.
    pub const FULL: Scale = Scale {
        zipf_len: 5_000_000,
        fig1_divisor: 1,
    };
}

/// Jobs of one (algorithm, b) legend entry: one per repetition.
pub struct Grid {
    /// Legend label, as `run_panel` writes it.
    pub label: String,
    /// Degree bound.
    pub b: usize,
    /// One job per repetition.
    pub jobs: Vec<Job>,
}

/// A set-up workload, ready for passes.
pub enum Prepared {
    /// Sequential Zipf jobs on one distance matrix.
    Zipf {
        /// Fat-tree distances.
        dm: Arc<DistanceMatrix>,
        /// Per trace variant: R-BMA (and at α = 10, BMA) on that trace.
        variants: Vec<Vec<Job>>,
    },
    /// The Fig. 1 panels.
    Fig1 {
        /// The figure's configuration.
        spec: FigureSpec,
        /// Distances built at set-up (the panels rebuild theirs, as
        /// `run_panel` does); used by the output checks.
        dm: Arc<DistanceMatrix>,
        /// R-BMA × bs, then BMA × bs (panels a and b; panel c reruns the
        /// largest b).
        grids: Vec<Grid>,
        /// Oblivious at the smallest b (panel a's upper envelope).
        oblivious: Vec<Job>,
    },
}

/// Builds a workload: topology and APSP, trace specs and job grids, and one
/// construction of every source and scheduler the jobs use. Returns the
/// set-up and the seconds the topology build took.
pub fn prepare(workload: Workload, seed: u64, scale: Scale) -> (Prepared, f64) {
    match workload {
        Workload::ZipfA10 | Workload::ZipfA100 => {
            let t0 = Instant::now();
            let net = builders::fat_tree_with_racks(RACKS);
            let dm = Arc::new(DistanceMatrix::between_racks(&net));
            let topology_s = t0.elapsed().as_secs_f64();
            let (alpha, algorithms) = if workload == Workload::ZipfA10 {
                (
                    10,
                    vec![AlgorithmKind::Rbma { lazy: true }, AlgorithmKind::Bma],
                )
            } else {
                (100, vec![AlgorithmKind::Rbma { lazy: true }])
            };
            let variants: Vec<Vec<Job>> = (0..ZIPF_VARIANTS as u64)
                .map(|v| {
                    let trace = TraceSpec::Zipf {
                        num_racks: RACKS,
                        len: scale.zipf_len,
                        exponent: ZIPF_EXPONENT,
                        seed: derive_seed(seed, 2 * v + 1),
                    };
                    algorithms
                        .iter()
                        .map(|algorithm| Job {
                            algorithm: algorithm.clone(),
                            b: ZIPF_B,
                            alpha,
                            seed: derive_seed(seed, 2 * v + 2),
                            checkpoints: SimConfig::evenly_spaced(scale.zipf_len, ZIPF_CHECKPOINTS),
                            trace: trace.clone(),
                        })
                        .collect()
                })
                .collect();
            for jobs in &variants {
                construct_all(&dm, jobs);
            }
            (Prepared::Zipf { dm, variants }, topology_s)
        }
        Workload::Fig1 => {
            let paper = FigureSpec::by_id("fig1").expect("fig1 is a paper figure");
            let spec = if scale.fig1_divisor == 1 {
                paper
            } else {
                paper.scaled(scale.fig1_divisor)
            };
            let t0 = Instant::now();
            let dm = spec.distances();
            let topology_s = t0.elapsed().as_secs_f64();
            let reps: Vec<TraceSpec> = (0..spec.repetitions)
                .map(|rep| {
                    spec.trace_spec(rep)
                        .with_seed(derive_seed(0xF16 ^ seed, rep))
                })
                .collect();
            let grid = |algorithm: AlgorithmKind, b: usize| Grid {
                label: format!("{} (b: {b})", algorithm.label()),
                b,
                jobs: reps
                    .iter()
                    .enumerate()
                    .map(|(rep, trace)| Job {
                        algorithm: algorithm.clone(),
                        b,
                        alpha: spec.alpha,
                        seed: derive_seed(0xA1 ^ seed, rep as u64),
                        checkpoints: spec.checkpoints(),
                        trace: trace.clone(),
                    })
                    .collect(),
            };
            let mut grids = Vec::new();
            for algorithm in [AlgorithmKind::Rbma { lazy: true }, AlgorithmKind::Bma] {
                for &b in &spec.bs {
                    grids.push(grid(algorithm.clone(), b));
                }
            }
            let oblivious = grid(AlgorithmKind::Oblivious, spec.bs[0]).jobs;
            for g in &grids {
                construct_all(&dm, &g.jobs[..1]);
            }
            construct_all(&dm, &oblivious);
            let prepared = Prepared::Fig1 {
                spec,
                dm,
                grids,
                oblivious,
            };
            (prepared, topology_s)
        }
    }
}

/// Constructs (and drops) each job's source and scheduler once.
fn construct_all(dm: &Arc<DistanceMatrix>, jobs: &[Job]) {
    for job in jobs {
        std::hint::black_box(job.trace.source());
        std::hint::black_box(job.algorithm.build_online(
            Arc::clone(dm),
            job.b,
            job.alpha,
            job.seed,
        ));
    }
}

/// One SO-BMA series: (checkpoint, routing cost) rows.
pub type SoBmaSeries = Vec<(usize, u64)>;

/// What one pass produced.
#[derive(Default)]
pub struct PassOutcome<'a> {
    /// Which Zipf trace variant ran (0 on `fig1`).
    pub variant: usize,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// The sequential simulation jobs (panel b on `fig1`), in order:
    /// requests and wall seconds (build + generate + serve) of each.
    pub seq_jobs: Vec<(u64, f64)>,
    /// Every online job with its report, in pass order; `None` when the
    /// call that ran it panicked.
    pub jobs: Vec<(&'a Job, Option<RunReport>)>,
    /// SO-BMA series per repetition (`fig1`), with its trace spec.
    pub offline: Vec<(&'a Job, Option<SoBmaSeries>)>,
    /// Panels a and c, as `run_panel` returns them (`fig1`); `None` when a
    /// job they average failed.
    pub series: Option<Vec<AveragedSeries>>,
    /// Wall seconds of panels a, b, c (`fig1`).
    pub panel_s: [f64; 3],
}

/// Runs pass number `index` of a run; `log` switches on tracing.
pub fn run_pass<'a>(
    prepared: &'a Prepared,
    index: usize,
    log: Option<&SpanLog>,
) -> PassOutcome<'a> {
    let t0 = Instant::now();
    let mut out = timed(log, "pass", || match prepared {
        Prepared::Zipf { dm, variants } => {
            let variant = index % variants.len();
            let mut out = zipf_pass(dm, &variants[variant], log);
            out.variant = variant;
            out
        }
        Prepared::Fig1 {
            spec,
            grids,
            oblivious,
            ..
        } => fig1_pass(spec, grids, oblivious, log),
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

fn zipf_pass<'a>(
    dm: &Arc<DistanceMatrix>,
    jobs: &'a [Job],
    log: Option<&SpanLog>,
) -> PassOutcome<'a> {
    let mut out = PassOutcome::default();
    let reports = sequential(dm, jobs, log, &mut out.seq_jobs);
    out.jobs = jobs.iter().zip(reports).collect();
    out
}

fn fig1_pass<'a>(
    spec: &FigureSpec,
    grids: &'a [Grid],
    oblivious: &'a [Job],
    log: Option<&SpanLog>,
) -> PassOutcome<'a> {
    let mut out = PassOutcome::default();
    let mut series: Vec<Option<AveragedSeries>> = Vec::new();
    let routing = |c: &Checkpoint| c.routing_cost as f64;

    // Panel (a): routing cost, b sweep plus Oblivious, fanned out.
    let t0 = Instant::now();
    timed(log, "fig.panel_a", || {
        let dm = timed(log, "topology.build", || spec.distances());
        for g in grids {
            let reports = fan_out(&dm, &g.jobs, log);
            series.push(averaged(&g.label, &reports, routing));
            out.jobs.extend(g.jobs.iter().zip(reports));
        }
        let dm = timed(log, "topology.build", || spec.distances());
        let reports = fan_out(&dm, oblivious, log);
        series.push(averaged("Oblivious", &reports, routing));
        out.jobs.extend(oblivious.iter().zip(reports));
    });
    out.panel_s[0] = t0.elapsed().as_secs_f64();

    // Panel (b): execution time, strictly sequential. These jobs are the
    // workload's throughput.
    let t0 = Instant::now();
    timed(log, "fig.panel_b", || {
        let dm = timed(log, "topology.build", || spec.distances());
        for g in grids {
            let reports = sequential(&dm, &g.jobs, log, &mut out.seq_jobs);
            std::hint::black_box(averaged(&g.label, &reports, |c| c.elapsed_secs));
            out.jobs.extend(g.jobs.iter().zip(reports));
        }
    });
    out.panel_s[1] = t0.elapsed().as_secs_f64();

    // Panel (c): R-BMA and BMA at the largest b, then SO-BMA per repetition.
    let t0 = Instant::now();
    timed(log, "fig.panel_c", || {
        let dm = timed(log, "topology.build", || spec.distances());
        let b = *spec.bs.last().expect("non-empty b sweep");
        for g in grids.iter().filter(|g| g.b == b) {
            let reports = fan_out(&dm, &g.jobs, log);
            series.push(averaged(&g.label, &reports, routing));
            out.jobs.extend(g.jobs.iter().zip(reports));
        }
        let cps = spec.checkpoints();
        for job in &grids[0].jobs {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let trace = timed(log, "traces.materialize", || {
                    job.trace.as_trace().into_owned()
                });
                timed(log, "offline.so_bma", || {
                    so_bma_series(&dm, &trace.requests, b, &cps)
                })
            }));
            out.offline.push((job, result.ok()));
        }
        series.push(so_bma_averaged(b, &cps, &out.offline));
    });
    out.panel_s[2] = t0.elapsed().as_secs_f64();

    out.series = series.into_iter().collect();
    out
}

/// `AveragedSeries::from_reports` over the jobs that completed.
fn averaged(
    label: &str,
    reports: &[Option<RunReport>],
    metric: impl Fn(&Checkpoint) -> f64,
) -> Option<AveragedSeries> {
    let reports: Option<Vec<RunReport>> = reports.iter().cloned().collect();
    Some(AveragedSeries::from_reports(label, &reports?, metric))
}

/// Panel (c)'s SO-BMA legend entry, aggregated as `run_panel` does.
fn so_bma_averaged(
    b: usize,
    cps: &[usize],
    offline: &[(&Job, Option<SoBmaSeries>)],
) -> Option<AveragedSeries> {
    let per_rep: Option<Vec<&Vec<(usize, u64)>>> =
        offline.iter().map(|(_, s)| s.as_ref()).collect();
    let per_rep = per_rep?;
    let mut y_mean = Vec::with_capacity(cps.len());
    let mut y_std = Vec::with_capacity(cps.len());
    for i in 0..cps.len() {
        let samples: Vec<f64> = per_rep.iter().map(|r| r[i].1 as f64).collect();
        let s = dcn_util::summarize(&samples);
        y_mean.push(s.mean);
        y_std.push(s.stddev);
    }
    Some(AveragedSeries {
        label: format!("SO-BMA (b: {b})"),
        x: cps.iter().map(|&c| c as u64).collect(),
        y_mean,
        y_std,
    })
}

/// Runs `f`; a panic fails all `n` jobs it was running.
fn guard(n: usize, f: impl FnOnce() -> Vec<RunReport>) -> Vec<Option<RunReport>> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(reports) => reports.into_iter().map(Some).collect(),
        Err(_) => vec![None; n],
    }
}

/// The jobs one after another (`run_jobs_sequential` when untraced), each
/// timed on its own into `times` as (requests, seconds).
fn sequential(
    dm: &Arc<DistanceMatrix>,
    jobs: &[Job],
    log: Option<&SpanLog>,
    times: &mut Vec<(u64, f64)>,
) -> Vec<Option<RunReport>> {
    jobs.iter()
        .map(|job| {
            let t0 = Instant::now();
            let report = guard(1, || match log {
                None => run_jobs_sequential(dm, std::slice::from_ref(job)),
                Some(log) => vec![run_job_traced(dm, job, log)],
            });
            times.push((job.trace.len() as u64, t0.elapsed().as_secs_f64()));
            report.into_iter().next().flatten()
        })
        .collect()
}

/// The jobs over [`FIG1_THREADS`] work-stealing workers (`run_jobs` when
/// untraced, its `steal_map` with the traced job body otherwise).
fn fan_out(
    dm: &Arc<DistanceMatrix>,
    jobs: &[Job],
    log: Option<&SpanLog>,
) -> Vec<Option<RunReport>> {
    guard(jobs.len(), || match log {
        None => run_jobs(dm, jobs, FIG1_THREADS),
        Some(log) => {
            let workers = resolve_threads(FIG1_THREADS).min(jobs.len()).max(1) as u32;
            log.fan_out("sweep", workers, || {
                let epoch = log.epoch();
                steal_map(jobs.len(), FIG1_THREADS, |k| {
                    let child = SpanLog::new(epoch);
                    let report = run_job_traced(dm, &jobs[k], &child);
                    (report, child.into_spans())
                })
                .into_iter()
                .map(|(report, spans)| {
                    log.adopt(spans);
                    report
                })
                .collect()
            })
        }
    })
}

/// The executor's job body, with the source and scheduler wrapped in
/// timing forwarders. Produces the report the executor would.
pub fn run_job_traced(dm: &Arc<DistanceMatrix>, job: &Job, log: &SpanLog) -> RunReport {
    log.span("job", || {
        let mut config = SimConfig {
            checkpoints: job.checkpoints.clone(),
            seed: job.seed,
            ..SimConfig::default()
        };
        let source = log.span("traces.source", || job.trace.source());
        config.trace_name = source.name().to_string();
        let scheduler = log.span("algorithms.build", || {
            job.algorithm
                .build_online(Arc::clone(dm), job.b, job.alpha, job.seed)
        });
        let mut source = TimedSource::new(source, log);
        let mut scheduler = TimedScheduler::new(scheduler, log, serve_span(&job.algorithm));
        let mut report = log.span("sim.run", || {
            dcn_core::run(&mut scheduler, dm, job.alpha, &mut source, &config)
        });
        report.algorithm = job.algorithm.label();
        report
    })
}

/// Span name of an algorithm's batch calls.
pub fn serve_span(algorithm: &AlgorithmKind) -> &'static str {
    match algorithm {
        AlgorithmKind::Rbma { .. } => "serve.rbma",
        AlgorithmKind::Bma => "serve.bma",
        AlgorithmKind::Oblivious => "serve.oblivious",
        _ => "serve.other",
    }
}

/// Whether two figure series lists are identical, label for label and bit
/// for bit.
pub fn same_series(a: &[AveragedSeries], b: &[AveragedSeries]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.label == y.label && x.x == y.x && x.y_mean == y.y_mean && x.y_std == y.y_std
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_pass, pass_digests, Bounds};

    const SMALL: Scale = Scale {
        zipf_len: 30_000,
        fig1_divisor: 100,
    };

    #[test]
    fn traced_pass_reports_equal_untraced_on_every_workload() {
        for w in Workload::ALL {
            let (prepared, _) = prepare(w, 3, SMALL);
            let plain = run_pass(&prepared, 1, None);
            let log = SpanLog::new(Instant::now());
            let traced = run_pass(&prepared, 1, Some(&log));
            let digests = pass_digests(&plain);
            assert!(digests.iter().all(Option::is_some), "{}", w.name());
            assert_eq!(digests, pass_digests(&traced), "{}", w.name());
            let spans = log.into_spans();
            let jobs = spans.iter().filter(|s| s.name == "job").count();
            assert_eq!(jobs, plain.jobs.len(), "{}: one job span per job", w.name());
            let bounds = Bounds::new(&prepared);
            let (attempted, failed, errors) = check_pass(&plain, &bounds, None);
            assert!(attempted > 0 && failed == 0, "{}: {errors:?}", w.name());
        }
    }

    #[test]
    fn fig1_at_the_default_seed_is_run_panel() {
        let (prepared, _) = prepare(Workload::Fig1, DEFAULT_SEED, SMALL);
        let Prepared::Fig1 { spec, .. } = &prepared else {
            panic!("fig1 prepares the figure");
        };
        let pass = run_pass(&prepared, 0, None);
        let mut want = dcn_bench::run_panel(spec, dcn_bench::Panel::RoutingCost, FIG1_THREADS);
        want.extend(dcn_bench::run_panel(
            spec,
            dcn_bench::Panel::BestOf,
            FIG1_THREADS,
        ));
        assert!(same_series(pass.series.as_deref().expect("series"), &want));
    }

    #[test]
    fn the_seed_changes_the_inputs() {
        for w in Workload::ALL {
            let digest = |seed| {
                let (prepared, _) = prepare(w, seed, SMALL);
                pass_digests(&run_pass(&prepared, 0, None))
            };
            assert_eq!(digest(5), digest(5), "{}", w.name());
            assert_ne!(digest(5), digest(6), "{}", w.name());
        }
    }
}
