//! Deterministic parallel fan-out of simulation runs — a **work-stealing
//! executor** over the job grid, plus deterministic **sharding** for
//! multi-host splits.
//!
//! Cost figures need (algorithm × b × trace-seed × algo-seed) grids of
//! runs; each run serves on one thread (per the paper's methodology) but
//! runs are independent. Workers claim jobs dynamically from a shared atomic
//! cursor — the next idle worker takes the next undone job — so skewed job
//! costs (a 10⁷-request run next to 10⁵-request runs, exactly the shape of
//! the scaling/robustness grids) never leave cores idle behind a static
//! split. Each worker writes its result into that job's preallocated slot,
//! so the output order is job order and byte-identical to
//! [`run_jobs_sequential`] no matter how the OS schedules the workers
//! (every job's RNG streams are pure functions of its own seeds).
//!
//! `threads = 0` means **auto** (one worker per available core); any other
//! value is taken literally. This is the convention every `repro_figures
//! --threads N` target surfaces. Fan-outs never nest: inside any
//! [`steal_map`] worker auto resolves to one thread, and [`with_threads`]
//! sets what auto resolves to for the duration of a call (the one way a
//! library fan-out such as SO-BMA's checkpoints learns `--threads`).
//!
//! Every worker, the inline one included, runs the same claim loop and
//! keeps plain-u64 accounting (jobs, steals, busy time, a job wall-clock
//! histogram); it flushes that into the process-global telemetry sink
//! once, when the loop ends, and only if a sink is installed. Jobs run one
//! after another count apart, in `sweep.sequential_jobs`.
//!
//! A [`ShardSpec`] deterministically partitions a table target's rows for
//! multi-host runs: shard `i/m` owns exactly the rows whose index is
//! `≡ i (mod m)` — round-robin, so skewed grids split evenly — and
//! `repro_figures --merge-json` reassembles the shard artifacts into the
//! unsharded table byte-for-byte.
//!
//! [`run_jobs_supervised`] wraps each job in `catch_unwind` with a fixed
//! retry budget ([`RETRIES`], [`BACKOFF_BASE`]) and, when a journal is
//! installed, records and replays completed jobs (DESIGN §8).
//!
//! Every [`Job`] carries a [`TraceSpec`] — a *description* of its workload
//! (generator + parameters + trace seed) — and each worker synthesizes its
//! own request stream in-place. Job grids therefore never allocate a `Vec`
//! of the full trace (peak resident trace memory is O(1) in the request
//! count), there is no shared-trace `Arc` to contend on, and
//! (trace-seed × algo-seed) grids are just more jobs.
//!
//! Execution-*time* figures must not share cores between runs; they use
//! [`run_jobs_sequential`], as the figure harness does. A job run there
//! with a core to spare — auto width above one, i.e. outside any worker
//! and not under `with_threads(1)` — hands its request source to a helper
//! thread that generates the next requests into 8,192-request blocks
//! while the job serves, and the job serves its chunks in place from those
//! blocks ([`crate::prefetch`]). Reports are identical either way. The
//! serve stopwatch still times `serve_batch` only, which with the helper
//! includes reading the requests the helper wrote.

use crate::algorithms::AlgorithmKind;
use crate::prefetch::with_prefetch;
use crate::report::RunReport;
use crate::simulator::{run, SimConfig};
use dcn_telemetry::{Histogram, Telemetry};
use dcn_topology::DistanceMatrix;
use dcn_traces::TraceSpec;
use dcn_util::FxHasher;
use parking_lot::Mutex;
use serde::Serialize;
use std::cell::Cell;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One simulation job: an algorithm configuration plus the workload it runs
/// on.
#[derive(Clone, Debug)]
pub struct Job {
    /// Algorithm to instantiate.
    pub algorithm: AlgorithmKind,
    /// Degree bound b.
    pub b: usize,
    /// Reconfiguration cost α.
    pub alpha: u64,
    /// RNG seed for the algorithm.
    pub seed: u64,
    /// Checkpoint grid (request counts).
    pub checkpoints: Vec<usize>,
    /// Workload description; the worker synthesizes the stream in-place.
    pub trace: TraceSpec,
}

/// A deterministic `index`-of-`count` partition of a table's rows (or any
/// other indexed work list): shard `i/m` owns the indices `≡ i (mod m)`.
/// Round-robin assignment keeps skewed grids (where cost grows with index,
/// as in the scaling sweeps) balanced across hosts, and the union of all
/// `m` shards is exactly the full list, each index owned once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::full()
    }
}

impl ShardSpec {
    /// The trivial partition: one shard owning everything.
    pub fn full() -> Self {
        Self { index: 0, count: 1 }
    }

    /// Shard `index` of `count`; panics unless `index < count`.
    pub fn new(index: usize, count: usize) -> Self {
        assert!(
            index < count,
            "shard index {index} out of range for {count} shard(s)"
        );
        Self { index, count }
    }

    /// Parses the CLI form `"i/m"` (e.g. `"0/2"`, `"1/2"`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (i, m) = s
            .split_once('/')
            .ok_or_else(|| format!("shard spec {s:?} is not of the form i/m"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("shard index {i:?} is not a number"))?;
        let count: usize = m
            .trim()
            .parse()
            .map_err(|_| format!("shard count {m:?} is not a number"))?;
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s)"
            ));
        }
        Ok(Self { index, count })
    }

    /// This shard's position.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this is the trivial single-shard partition.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// Whether this shard owns work item `i`.
    #[inline]
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

thread_local! {
    /// What `threads = 0` resolves to on this thread: `0` while unset (one
    /// worker per available core), `1` inside a [`steal_map`] worker, or
    /// the width of the innermost [`with_threads`] scope.
    static AUTO_WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Sets this thread's auto width until dropped, then restores the previous
/// one (also when the scope unwinds).
struct AutoWidth(usize);

impl AutoWidth {
    fn set(width: usize) -> Self {
        Self(AUTO_WIDTH.replace(width))
    }
}

impl Drop for AutoWidth {
    fn drop(&mut self) {
        AUTO_WIDTH.set(self.0);
    }
}

/// Resolves the `threads` knob: `0` = auto, anything else is taken
/// literally. Auto is one worker per available core, except inside a
/// [`steal_map`] worker (one thread, so fan-outs never nest) or a
/// [`with_threads`] scope (its width).
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    match AUTO_WIDTH.get() {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        width => width,
    }
}

/// Runs `f` with auto (`threads = 0`) resolving to `threads` on this
/// thread, and restores the previous width when `f` returns or unwinds.
/// `threads = 0` leaves the width as it is. This is how a caller caps a
/// fan-out it does not configure directly, e.g. `--threads 1` keeping
/// [`crate::algorithms::static_offline::so_bma_series`] on one core, and
/// a sequential job's request generation on its serving thread.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _scope = (threads != 0).then(|| AutoWidth::set(threads));
    f()
}

/// Runs all jobs using `threads` workers (`0` = auto); results are in job
/// order, identical to [`run_jobs_sequential`].
pub fn run_jobs(dm: &Arc<DistanceMatrix>, jobs: &[Job], threads: usize) -> Vec<RunReport> {
    steal_map(jobs.len(), threads, |k| execute(dm, &jobs[k]))
}

/// The work-stealing primitive under [`run_jobs`] (and any other
/// independent-row fan-out, e.g. the lower-bound ablation's per-`b` rows):
/// computes `f(k)` for every `k in 0..n` using up to `threads` workers
/// (`0` = auto) that claim indices from a shared atomic cursor — the next
/// idle worker takes the next undone index, so skewed per-index costs
/// cannot strand work behind a static split — and writes each result into
/// its preallocated slot. `result[k] == f(k)`, in index order, for every
/// thread count. Every `f(k)` runs as a worker: auto resolves to one thread
/// inside it, also when the fan-out runs inline on the caller's thread.
///
/// With a process-global telemetry sink installed the fan-out adds `n` to
/// `sweep.jobs`, and each worker `w` flushes `sweep.worker.{w}.{jobs,
/// steals,busy_ns,idle_ns}` and the `sweep.job_ns` histogram once, when
/// its claim loop ends. A claim of index `k` by worker `w` counts as a
/// **steal** when `k % threads != w`, i.e. the dynamic cursor deviated from
/// the static round-robin split — the signal that load balancing actually
/// moved work.
pub fn steal_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // One global-handle read per fan-out, never per job.
    let sink = dcn_telemetry::global();
    sink.add_counter("sweep.jobs", n as u64);
    let threads = resolve_threads(threads).min(n);
    let cursor = AtomicUsize::new(0);
    if threads <= 1 {
        // Inline: the caller's thread is worker 0 of a one-worker pool.
        let mut out = Vec::with_capacity(n);
        claim_loop(0, 1, n, &cursor, &f, &sink, |_, r| out.push(r));
        return out;
    }
    // One slot per index: workers lock only their own claimed slot, so
    // there is no contention and no post-hoc sort.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (cursor, slots, f, sink) = (&cursor, &slots, &f, &sink);
            scope.spawn(move || {
                claim_loop(w, threads, n, cursor, f, sink, |k, r| {
                    *slots[k].lock() = Some(r)
                })
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("all claimed indices completed"))
        .collect()
}

/// Worker `w` of `threads`: claims indices below `n` from `cursor` until
/// none are left, hands each `f(k)` to `store`, and flushes its local
/// accounting into `sink` at the end (see [`steal_map`]).
fn claim_loop<T>(
    w: usize,
    threads: usize,
    n: usize,
    cursor: &AtomicUsize,
    f: &impl Fn(usize) -> T,
    sink: &Telemetry,
    mut store: impl FnMut(usize, T),
) {
    let _worker = AutoWidth::set(1);
    let (mut jobs, mut steals, mut busy) = (0u64, 0u64, 0u64);
    let mut job_ns = Histogram::default();
    let t_start = Instant::now();
    loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        if k >= n {
            break;
        }
        // The claim site sits *outside* any per-job supervision: a
        // failpoint panic here kills the whole fan-out, which is exactly
        // the "process died mid-sweep" scenario the journal-resume tests
        // and the CI chaos step simulate.
        dcn_util::failpoint::hit("sweep.job_claim");
        let t0 = Instant::now();
        let r = f(k);
        let ns = t0.elapsed().as_nanos() as u64;
        store(k, r);
        jobs += 1;
        busy += ns;
        job_ns.record(ns);
        steals += (k % threads != w) as u64;
    }
    if sink.is_enabled() {
        let wall = t_start.elapsed().as_nanos() as u64;
        sink.add_counter(&format!("sweep.worker.{w}.jobs"), jobs);
        sink.add_counter(&format!("sweep.worker.{w}.steals"), steals);
        sink.add_counter(&format!("sweep.worker.{w}.busy_ns"), busy);
        sink.add_counter(
            &format!("sweep.worker.{w}.idle_ns"),
            wall.saturating_sub(busy),
        );
        sink.merge_histogram("sweep.job_ns", &job_ns);
    }
}

/// The jobs one after another, each serving on this thread (for wall-clock
/// fidelity). With a core to spare, a helper thread generates each job's
/// next requests meanwhile (see the module docs).
///
/// With a process-global telemetry sink installed the call adds the job
/// count to `sweep.sequential_jobs` (the fan-outs count theirs in
/// `sweep.jobs`), with or without the helper.
pub fn run_jobs_sequential(dm: &Arc<DistanceMatrix>, jobs: &[Job]) -> Vec<RunReport> {
    // One global-handle read per call, never per job.
    dcn_telemetry::global().add_counter("sweep.sequential_jobs", jobs.len() as u64);
    jobs.iter().map(|j| execute(dm, j)).collect()
}

fn execute(dm: &Arc<DistanceMatrix>, job: &Job) -> RunReport {
    dcn_util::failpoint::hit("sweep.job_eval");
    let mut config = SimConfig {
        checkpoints: job.checkpoints.clone(),
        seed: job.seed,
        ..SimConfig::default()
    };
    // Stream the workload: O(1) memory in its length.
    let mut source = job.trace.source();
    config.trace_name = source.name().to_string();
    let mut scheduler = job
        .algorithm
        .build_online(Arc::clone(dm), job.b, job.alpha, job.seed);
    // With a core to spare (outside any worker, not under `threads = 1`),
    // a helper thread generates the next requests while this one serves.
    let mut report = if resolve_threads(0) > 1 {
        with_prefetch(source.as_mut(), |stream| {
            run(scheduler.as_mut(), dm, job.alpha, stream, &config)
        })
    } else {
        run(scheduler.as_mut(), dm, job.alpha, source.as_mut(), &config)
    };
    report.algorithm = job.algorithm.label();
    report
}

/// Extra attempts [`run_jobs_supervised`] makes after a job's first failed
/// one, so a job executes at most `RETRIES + 1` times.
pub const RETRIES: u32 = 2;

/// Backoff before retry `k` (1-based): `BACKOFF_BASE << (k - 1)` —
/// deterministic, so injected-failure schedules replay identically.
pub const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Structured record of a job that exhausted its retry budget.
#[derive(Clone, Debug, Serialize)]
pub struct JobFailure {
    /// Index of the job in the submitted grid.
    pub index: usize,
    /// The job's journal key (scope + index + configuration fingerprint).
    pub key: String,
    /// Why the last attempt failed: always `"panic"`.
    pub reason: String,
    /// Panic payload of the last attempt.
    pub detail: String,
    /// Attempts made (`RETRIES + 1` when quarantined).
    pub attempts: u32,
    /// Wall-clock seconds from first attempt to quarantine.
    pub elapsed_secs: f64,
}

/// Outcome of one supervised job: a report, or a quarantine record.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job produced a report (possibly replayed from the journal).
    Completed(RunReport),
    /// The job exhausted its retry budget and was quarantined.
    Quarantined(JobFailure),
}

impl JobOutcome {
    /// The report, if the job completed.
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            JobOutcome::Completed(r) => Some(r),
            JobOutcome::Quarantined(_) => None,
        }
    }

    /// The failure record, if the job was quarantined.
    pub fn failure(&self) -> Option<&JobFailure> {
        match self {
            JobOutcome::Completed(_) => None,
            JobOutcome::Quarantined(f) => Some(f),
        }
    }
}

/// The deterministic journal key for job `index` of a supervised grid:
/// scope, grid position, a readable summary of the job, and a 64-bit
/// digest of the job's whole `Debug` rendering. Every field of a [`Job`]
/// is plain data, so the rendering — and the key — is a pure function of
/// the job value. A resumed run rebuilds the same grid and therefore the
/// same keys; a *changed* job (another trace length or seed, other
/// checkpoints, another forecast) changes the digest, so stale journal
/// entries can never masquerade as the new grid's results.
pub fn job_key(scope: &str, index: usize, job: &Job) -> String {
    let mut digest = FxHasher::default();
    digest.write(format!("{job:?}").as_bytes());
    format!(
        "{scope}#{index}:{}/b={}/alpha={}/seed={}/{}/{:016x}",
        job.algorithm.label(),
        job.b,
        job.alpha,
        job.seed,
        job.trace.name(),
        digest.finish()
    )
}

/// [`run_jobs`] with fault tolerance: each job runs under `catch_unwind`
/// with a budget of [`RETRIES`] retries and a deterministic exponential
/// backoff from [`BACKOFF_BASE`]. Jobs that exhaust the budget are
/// returned as [`JobOutcome::Quarantined`] instead of unwinding the sweep.
/// `scope` namespaces the journal keys ([`job_key`]); conventionally it is
/// the `repro_figures` target name.
///
/// When a process-global journal is installed ([`crate::journal::install`])
/// completed jobs are recorded as they finish and already-recorded jobs
/// are replayed without executing — the `--resume` half of the
/// kill-and-resume contract. Outcomes are in job order for every thread
/// count, and a failure-free supervised sweep produces exactly the
/// [`run_jobs`] reports.
pub fn run_jobs_supervised(
    dm: &Arc<DistanceMatrix>,
    jobs: &[Job],
    threads: usize,
    scope: &str,
) -> Vec<JobOutcome> {
    // One global-handle read and one journal lookup per fan-out, shared by
    // every worker closure invocation.
    let telemetry = dcn_telemetry::global();
    let journal = crate::journal::installed();
    steal_map(jobs.len(), threads, |index| {
        execute_supervised(
            dm,
            &jobs[index],
            index,
            scope,
            &telemetry,
            journal.as_deref(),
        )
    })
}

fn execute_supervised(
    dm: &Arc<DistanceMatrix>,
    job: &Job,
    index: usize,
    scope: &str,
    telemetry: &Telemetry,
    journal: Option<&crate::journal::RunJournal>,
) -> JobOutcome {
    let key = job_key(scope, index, job);
    if let Some(report) = journal.and_then(|j| j.lookup(&key)) {
        return JobOutcome::Completed(report);
    }
    let t0 = Instant::now();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        // AssertUnwindSafe: on Err every captured structure (scheduler,
        // stream, accumulators) is dropped with the unwound attempt; the
        // retry rebuilds all job state from the job description alone.
        let payload = match catch_unwind(AssertUnwindSafe(|| execute(dm, job))) {
            Ok(report) => {
                if let Some(journal) = journal {
                    journal.record(&key, &report);
                }
                return JobOutcome::Completed(report);
            }
            Err(payload) => payload,
        };
        telemetry.add_counter("sweep.panics_caught", 1);
        if attempts > RETRIES {
            telemetry.add_counter("sweep.quarantined", 1);
            return JobOutcome::Quarantined(JobFailure {
                index,
                key,
                reason: "panic".to_string(),
                detail: panic_message(payload.as_ref()),
                attempts,
                elapsed_secs: t0.elapsed().as_secs_f64(),
            });
        }
        let backoff = BACKOFF_BASE * (1u32 << (attempts - 1));
        telemetry.add_counter("sweep.retries", 1);
        telemetry.observe("sweep.retry_backoff_ns", backoff.as_nanos() as u64);
        std::thread::sleep(backoff);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::builders;
    use dcn_traces::uniform_trace;

    fn setup() -> Arc<DistanceMatrix> {
        let net = builders::leaf_spine(10, 2);
        Arc::new(DistanceMatrix::between_racks(&net))
    }

    fn spec() -> TraceSpec {
        TraceSpec::Uniform {
            num_racks: 10,
            len: 3000,
            seed: 5,
        }
    }

    fn jobs() -> Vec<Job> {
        let mut jobs = Vec::new();
        for b in [2usize, 4] {
            for seed in 0..3u64 {
                jobs.push(Job {
                    algorithm: AlgorithmKind::Rbma { lazy: true },
                    b,
                    alpha: 5,
                    seed,
                    checkpoints: vec![1000, 2000, 3000],
                    trace: spec(),
                });
            }
        }
        jobs.push(Job {
            algorithm: AlgorithmKind::Oblivious,
            b: 2,
            alpha: 5,
            seed: 0,
            checkpoints: vec![1000, 2000, 3000],
            trace: spec(),
        });
        jobs
    }

    #[test]
    fn parallel_equals_sequential() {
        let dm = setup();
        let js = jobs();
        let seq = run_jobs_sequential(&dm, &js);
        let par = run_jobs(&dm, &js, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(a.b, b.b);
            assert_eq!(a.seed, b.seed);
            // Costs are deterministic given the seed; only wall-clock differs.
            assert_eq!(a.total.routing_cost, b.total.routing_cost);
            assert_eq!(a.total.reconfigurations, b.total.reconfigurations);
        }
    }

    #[test]
    fn trace_seed_grid_is_deterministic_and_distinct() {
        // (trace-seed × algo-seed) grid: same algorithm, two trace seeds.
        let dm = setup();
        let js: Vec<Job> = (0..2u64)
            .flat_map(|trace_seed| {
                (0..2u64).map(move |seed| Job {
                    algorithm: AlgorithmKind::Rbma { lazy: true },
                    b: 3,
                    alpha: 5,
                    seed,
                    checkpoints: vec![],
                    trace: spec().with_seed(trace_seed),
                })
            })
            .collect();
        let seq = run_jobs_sequential(&dm, &js);
        let par = run_jobs(&dm, &js, 3);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.total.routing_cost, b.total.routing_cost);
        }
        // Different trace seeds must actually change the workload.
        assert_ne!(seq[0].total.routing_cost, seq[2].total.routing_cost);
    }

    #[test]
    fn streamed_jobs_match_materialized_jobs() {
        // The streamed path must be cost-identical to replaying the
        // materialized trace the spec describes.
        let dm = setup();
        let trace = spec().as_trace().into_owned();
        let streamed = jobs();
        let materialized: Vec<Job> = streamed
            .iter()
            .map(|j| Job {
                trace: TraceSpec::materialized(trace.clone()),
                ..j.clone()
            })
            .collect();
        let a = run_jobs_sequential(&dm, &streamed);
        let b = run_jobs_sequential(&dm, &materialized);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total.routing_cost, y.total.routing_cost);
            assert_eq!(x.total.reconfigurations, y.total.reconfigurations);
            assert_eq!(x.trace, y.trace, "trace provenance must agree");
        }
    }

    #[test]
    fn materialized_spec_runs_csv_style_traces() {
        let dm = setup();
        let trace = uniform_trace(10, 500, 7);
        let job = Job {
            algorithm: AlgorithmKind::Bma,
            b: 2,
            alpha: 5,
            seed: 0,
            checkpoints: vec![],
            trace: TraceSpec::materialized(trace.clone()),
        };
        let out = run_jobs(&dm, &[job], 2);
        assert_eq!(out[0].trace, trace.name);
        assert_eq!(out[0].total.requests, 500);
    }

    #[test]
    fn demand_specs_and_demand_aware_flow_through_unchanged() {
        // The demand layer rides the existing pipeline: a TraceSpec::Matrix
        // workload and the DemandAware static baseline need no sweep-side
        // special casing, parallel equals sequential, and the baseline beats
        // oblivious on its own forecast matrix.
        let dm = setup();
        let matrix = dcn_demand::DemandMatrix::zipf_pairs(10, 1.4, 3);
        let spec = TraceSpec::matrix(matrix.clone(), 4000, 11);
        let seq_spec = TraceSpec::sequence(
            dcn_demand::MatrixSequence::zipf_switching(10, 2, 1000, 1.2, 5),
            13,
        );
        let jobs = vec![
            Job {
                algorithm: AlgorithmKind::demand_aware(matrix),
                b: 3,
                alpha: 5,
                seed: 0,
                checkpoints: vec![2000],
                trace: spec.clone(),
            },
            Job {
                algorithm: AlgorithmKind::Oblivious,
                b: 3,
                alpha: 5,
                seed: 0,
                checkpoints: vec![2000],
                trace: spec.clone(),
            },
            Job {
                algorithm: AlgorithmKind::Rbma { lazy: true },
                b: 3,
                alpha: 5,
                seed: 1,
                checkpoints: vec![],
                trace: seq_spec.clone(),
            },
        ];
        let seq = run_jobs_sequential(&dm, &jobs);
        let par = run_jobs(&dm, &jobs, 3);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.total.routing_cost, b.total.routing_cost);
        }
        assert_eq!(seq[0].algorithm, "DemandAware");
        assert_eq!(seq[0].trace, spec.name());
        assert_eq!(seq[0].total.reconfigurations, 0, "static baseline");
        assert!(
            seq[0].total.routing_cost < seq[1].total.routing_cost,
            "demand-aware must beat oblivious on its own matrix: {} vs {}",
            seq[0].total.routing_cost,
            seq[1].total.routing_cost
        );
        assert_eq!(seq[2].trace, seq_spec.name());
        assert_eq!(seq[2].total.requests, 2000);
    }

    #[test]
    fn work_stealing_matches_sequential_for_every_thread_count() {
        // The executor contract: for every worker count 1–8 (more workers
        // than jobs included), the report vector is identical to the
        // sequential run — same order, same costs, same checkpoints.
        let dm = setup();
        let js = jobs();
        let seq = run_jobs_sequential(&dm, &js);
        for threads in 1..=8usize {
            let par = run_jobs(&dm, &js, threads);
            assert_eq!(seq.len(), par.len(), "threads={threads}");
            for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
                assert_eq!(a.algorithm, b.algorithm, "threads={threads} job={i}");
                assert_eq!(a.b, b.b, "threads={threads} job={i}");
                assert_eq!(a.seed, b.seed, "threads={threads} job={i}");
                assert_eq!(
                    a.total.routing_cost, b.total.routing_cost,
                    "threads={threads} job={i}"
                );
                assert_eq!(
                    a.total.reconfigurations, b.total.reconfigurations,
                    "threads={threads} job={i}"
                );
                assert_eq!(
                    a.checkpoints.len(),
                    b.checkpoints.len(),
                    "threads={threads} job={i}"
                );
                for (x, y) in a.checkpoints.iter().zip(&b.checkpoints) {
                    assert_eq!(x.requests, y.requests, "threads={threads} job={i}");
                    assert_eq!(x.routing_cost, y.routing_cost, "threads={threads} job={i}");
                }
            }
        }
    }

    #[test]
    fn steal_map_is_index_ordered_for_every_thread_count() {
        // The shared primitive behind run_jobs and the row fan-outs:
        // result[k] == f(k) regardless of worker count, including more
        // workers than indices and the empty case.
        for threads in 0..=6usize {
            let out = steal_map(9, threads, |k| k * k);
            assert_eq!(
                out,
                (0..9).map(|k| k * k).collect::<Vec<_>>(),
                "t={threads}"
            );
        }
        assert_eq!(steal_map(0, 4, |k| k), Vec::<usize>::new());
    }

    #[test]
    fn zero_threads_means_auto() {
        // The 0 = auto convention must run (not panic) and stay
        // deterministic.
        let dm = setup();
        let js = jobs();
        let auto = run_jobs(&dm, &js, 0);
        let seq = run_jobs_sequential(&dm, &js);
        for (a, b) in auto.iter().zip(&seq) {
            assert_eq!(a.total.routing_cost, b.total.routing_cost);
        }
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        let s = ShardSpec::parse("1/3").expect("valid spec");
        assert_eq!((s.index(), s.count()), (1, 3));
        assert_eq!(s.to_string(), "1/3");
        assert!(!s.is_full());
        assert!(ShardSpec::full().is_full());
        assert_eq!(
            (0..8).filter(|&i| s.owns(i)).collect::<Vec<_>>(),
            vec![1, 4, 7]
        );
        // Every index is owned by exactly one shard.
        for n in [0usize, 1, 7, 20] {
            for m in 1..=5usize {
                for i in 0..n {
                    let owners = (0..m).filter(|&k| ShardSpec::new(k, m).owns(i)).count();
                    assert_eq!(owners, 1, "index {i} of {n} under {m} shards");
                }
            }
        }
        for bad in ["", "2", "a/b", "3/3", "1/0", "0/"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn results_in_job_order() {
        let dm = setup();
        let js = jobs();
        let out = run_jobs(&dm, &js, 3);
        for (job, report) in js.iter().zip(&out) {
            assert_eq!(report.b, job.b);
            assert_eq!(report.seed, job.seed);
            assert_eq!(report.algorithm, job.algorithm.label());
        }
    }

    #[test]
    fn single_job_runs_inline() {
        let dm = setup();
        let js = vec![Job {
            algorithm: AlgorithmKind::Bma,
            b: 3,
            alpha: 4,
            seed: 0,
            checkpoints: vec![1500],
            trace: spec(),
        }];
        let out = run_jobs(&dm, &js, 8);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].algorithm, "BMA");
        assert_eq!(out[0].checkpoints.len(), 2, "1500 plus trace end");
    }

    #[test]
    fn supervised_equals_plain_when_failure_free() {
        // No armed failpoints, no journal: supervised execution is the
        // plain executor plus a catch_unwind shell, and must produce the
        // identical reports in the identical order at every thread count.
        // Wall-clock is the one legitimately varying field.
        let dm = setup();
        let js = jobs();
        let plain = run_jobs(&dm, &js, 2);
        for threads in [1usize, 4] {
            let outcomes = run_jobs_supervised(&dm, &js, threads, "test");
            assert_eq!(outcomes.len(), plain.len());
            for (i, (o, want)) in outcomes.iter().zip(&plain).enumerate() {
                let got = o
                    .report()
                    .unwrap_or_else(|| panic!("job {i} unexpectedly quarantined"));
                assert_eq!(
                    got.without_wall_clock(),
                    want.without_wall_clock(),
                    "threads={threads} job={i}"
                );
            }
        }
    }

    #[test]
    fn job_keys_are_stable_and_distinct() {
        let js = jobs();
        let keys: Vec<String> = js
            .iter()
            .enumerate()
            .map(|(i, j)| job_key("demand", i, j))
            .collect();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), keys.len(), "keys must be unique");
        assert_eq!(keys, {
            let again: Vec<String> = js
                .iter()
                .enumerate()
                .map(|(i, j)| job_key("demand", i, j))
                .collect();
            again
        });
        assert!(keys[0].contains("/b=2/"), "fingerprint in key: {}", keys[0]);
        // Jobs that differ only where the readable summary is silent — the
        // trace's length or seed, or the checkpoint grid — must still get
        // distinct keys, or a resume at another scale replays stale rows.
        let base = &js[0];
        let variants = [
            Job {
                trace: TraceSpec::Uniform {
                    num_racks: 10,
                    len: 6000,
                    seed: 5,
                },
                ..base.clone()
            },
            Job {
                trace: base.trace.with_seed(6),
                ..base.clone()
            },
            Job {
                checkpoints: vec![1500, 3000],
                ..base.clone()
            },
        ];
        for variant in &variants {
            assert_ne!(
                job_key("demand", 0, variant),
                keys[0],
                "{variant:?} must not share the key of {base:?}"
            );
        }
    }

    #[test]
    fn report_names_match_source_names() {
        let dm = setup();
        let js = vec![Job {
            algorithm: AlgorithmKind::Rbma { lazy: true },
            b: 2,
            alpha: 5,
            seed: 0,
            checkpoints: vec![],
            trace: spec(),
        }];
        let out = run_jobs_sequential(&dm, &js);
        assert_eq!(out[0].trace, spec().name());
    }
}
