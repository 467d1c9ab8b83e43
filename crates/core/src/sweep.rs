//! Deterministic parallel fan-out of simulation runs — a **work-stealing
//! executor** over the job grid, plus deterministic **sharding** for
//! multi-host splits.
//!
//! Cost figures need (algorithm × b × trace-seed × algo-seed) grids of
//! runs; each run is single-threaded (per the paper's methodology) but runs
//! are independent. Workers claim jobs dynamically from a shared atomic
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
//! A [`ShardSpec`] deterministically partitions any grid for multi-host
//! runs: shard `i/m` owns exactly the jobs (or table rows) whose index is
//! `≡ i (mod m)` — round-robin, so skewed grids split evenly — and the
//! union of all `m` slices is the unsharded grid, in job order
//! ([`run_jobs_sharded`] returns original indices alongside reports, and
//! `repro_figures --merge-json` reassembles shard artifacts byte-for-byte).
//!
//! Every [`Job`] carries a [`TraceSpec`] — a *description* of its workload
//! (generator + parameters + trace seed) — and each worker synthesizes its
//! own request stream in-place. Job grids therefore never allocate a `Vec`
//! of the full trace (peak resident trace memory is O(1) in the request
//! count), there is no shared-trace `Arc` to contend on, and
//! (trace-seed × algo-seed) grids are just more jobs.
//!
//! Execution-*time* figures must not share cores; use `threads = 1` (or
//! [`run_jobs_sequential`]) for those, as the figure harness does.

use crate::algorithms::AlgorithmKind;
use crate::cancel::CancelToken;
use crate::report::RunReport;
use crate::simulator::{run, SimConfig};
use dcn_telemetry::{Histogram, Telemetry};
use dcn_topology::DistanceMatrix;
use dcn_traces::TraceSpec;
use parking_lot::Mutex;
use serde::Serialize;
use std::cell::Cell;
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

/// A deterministic `index`-of-`count` partition of a job grid (or any other
/// indexed work list): shard `i/m` owns the indices `≡ i (mod m)`.
/// Round-robin assignment keeps skewed grids (where cost grows with index,
/// as in the scaling sweeps) balanced across hosts, and the union of all
/// `m` shards is exactly the full grid, each index owned once.
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

    /// The indices this shard owns out of `0..n`, ascending.
    pub fn owned_indices(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        (self.index..n).step_by(self.count)
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
/// [`crate::algorithms::static_offline::so_bma_series`] on one core.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _scope = (threads != 0).then(|| AutoWidth::set(threads));
    f()
}

/// Runs all jobs using `threads` workers (`0` = auto); results are in job
/// order, identical to [`run_jobs_sequential`].
pub fn run_jobs(dm: &Arc<DistanceMatrix>, jobs: &[Job], threads: usize) -> Vec<RunReport> {
    let indices: Vec<usize> = (0..jobs.len()).collect();
    execute_indices(dm, jobs, &indices, threads)
}

/// Runs the subset of `jobs` owned by `shard` using `threads` workers
/// (`0` = auto). Returns `(original job index, report)` pairs in job order,
/// so the union of all shards' outputs — interleaved by index — is exactly
/// the unsharded [`run_jobs`] result.
pub fn run_jobs_sharded(
    dm: &Arc<DistanceMatrix>,
    jobs: &[Job],
    threads: usize,
    shard: ShardSpec,
) -> Vec<(usize, RunReport)> {
    let indices: Vec<usize> = shard.owned_indices(jobs.len()).collect();
    let reports = execute_indices(dm, jobs, &indices, threads);
    indices.into_iter().zip(reports).collect()
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
pub fn steal_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // One global-handle read per fan-out, never per job. With telemetry
    // enabled the instrumented twin runs instead; the path below is the
    // byte-for-byte historical executor.
    let telemetry = dcn_telemetry::global();
    if telemetry.is_enabled() {
        return steal_map_instrumented(n, threads, f, &telemetry);
    }
    let threads = resolve_threads(threads).min(n);
    if threads <= 1 {
        let _worker = AutoWidth::set(1);
        return (0..n)
            .map(|k| {
                // The claim site sits *outside* any per-job supervision:
                // a failpoint panic here kills the whole fan-out, which is
                // exactly the "process died mid-sweep" scenario the
                // journal-resume tests and the CI chaos step simulate.
                dcn_util::failpoint::hit("sweep.job_claim");
                f(k)
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    // One slot per index: workers lock only their own claimed slot, so
    // there is no contention and no post-hoc sort.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || {
                let _worker = AutoWidth::set(1);
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    dcn_util::failpoint::hit("sweep.job_claim");
                    *slots[k].lock() = Some(f(k));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("all claimed indices completed"))
        .collect()
}

/// [`steal_map`] with per-worker accounting: each worker keeps local
/// recorders (jobs claimed, steals, busy/idle nanoseconds, a job wall-clock
/// histogram) and flushes them into `sink` once, when its claim loop ends.
/// A claim of index `k` by worker `w` counts as a **steal** when
/// `k % threads != w`, i.e. the dynamic cursor deviated from the static
/// round-robin split — the signal that load balancing actually moved work.
/// Results are identical to the uninstrumented path (same claim protocol).
fn steal_map_instrumented<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
    sink: &Telemetry,
) -> Vec<T> {
    let threads = resolve_threads(threads).min(n);
    sink.add_counter("sweep.jobs", n as u64);
    if threads <= 1 {
        // Sequential fan-out: still attributed, as worker 0 with no steals.
        let _worker = AutoWidth::set(1);
        let mut busy = 0u64;
        let mut job_ns = Histogram::default();
        let t_start = Instant::now();
        let out = (0..n)
            .map(|k| {
                dcn_util::failpoint::hit("sweep.job_claim");
                let t0 = Instant::now();
                let r = f(k);
                let ns = t0.elapsed().as_nanos() as u64;
                busy += ns;
                job_ns.record(ns);
                r
            })
            .collect();
        let wall = t_start.elapsed().as_nanos() as u64;
        sink.add_counter("sweep.worker.0.jobs", n as u64);
        sink.add_counter("sweep.worker.0.busy_ns", busy);
        sink.add_counter("sweep.worker.0.idle_ns", wall.saturating_sub(busy));
        sink.merge_histogram("sweep.job_ns", &job_ns);
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let cursor = &cursor;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || {
                let _worker = AutoWidth::set(1);
                let mut jobs = 0u64;
                let mut steals = 0u64;
                let mut busy = 0u64;
                let mut job_ns = Histogram::default();
                let t_start = Instant::now();
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    dcn_util::failpoint::hit("sweep.job_claim");
                    let t0 = Instant::now();
                    let r = f(k);
                    let ns = t0.elapsed().as_nanos() as u64;
                    *slots[k].lock() = Some(r);
                    jobs += 1;
                    busy += ns;
                    job_ns.record(ns);
                    steals += (k % threads != w) as u64;
                }
                let wall = t_start.elapsed().as_nanos() as u64;
                sink.add_counter(&format!("sweep.worker.{w}.jobs"), jobs);
                sink.add_counter(&format!("sweep.worker.{w}.steals"), steals);
                sink.add_counter(&format!("sweep.worker.{w}.busy_ns"), busy);
                sink.add_counter(
                    &format!("sweep.worker.{w}.idle_ns"),
                    wall.saturating_sub(busy),
                );
                sink.merge_histogram("sweep.job_ns", &job_ns);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("all claimed indices completed"))
        .collect()
}

/// Job-grid adapter over [`steal_map`]: `result[k]` is the report of
/// `jobs[indices[k]]`.
fn execute_indices(
    dm: &Arc<DistanceMatrix>,
    jobs: &[Job],
    indices: &[usize],
    threads: usize,
) -> Vec<RunReport> {
    steal_map(indices.len(), threads, |k| execute(dm, &jobs[indices[k]]))
}

/// Single-threaded variant (for wall-clock fidelity).
pub fn run_jobs_sequential(dm: &Arc<DistanceMatrix>, jobs: &[Job]) -> Vec<RunReport> {
    jobs.iter().map(|j| execute(dm, j)).collect()
}

fn execute(dm: &Arc<DistanceMatrix>, job: &Job) -> RunReport {
    execute_with_cancel(dm, job, &CancelToken::none())
}

fn execute_with_cancel(dm: &Arc<DistanceMatrix>, job: &Job, cancel: &CancelToken) -> RunReport {
    dcn_util::failpoint::hit("sweep.job_eval");
    let mut config = SimConfig {
        checkpoints: job.checkpoints.clone(),
        seed: job.seed,
        cancel: cancel.clone(),
        ..SimConfig::default()
    };
    // Stream the workload: O(1) memory in its length.
    let mut source = job.trace.source();
    config.trace_name = source.name().to_string();
    let mut scheduler = job
        .algorithm
        .build_online(Arc::clone(dm), job.b, job.alpha, job.seed);
    let mut report = run(scheduler.as_mut(), dm, job.alpha, source.as_mut(), &config);
    report.algorithm = job.algorithm.label();
    report
}

/// Supervision policy for [`run_jobs_supervised`].
#[derive(Clone, Debug)]
pub struct Supervisor {
    /// Journal key namespace, conventionally the `repro_figures` target
    /// name (`"demand"`). Keys must be stable across runs for `--resume`
    /// to match completed jobs.
    pub scope: String,
    /// Extra attempts after the first failed one (so a job executes at
    /// most `retries + 1` times).
    pub retries: u32,
    /// Backoff before retry `k` (1-based): `backoff_base << (k-1)` —
    /// deterministic, so injected-failure schedules replay identically.
    pub backoff_base: Duration,
    /// Per-attempt wall-clock budget, observed cooperatively at simulator
    /// chunk boundaries. `None` = no deadline.
    pub deadline: Option<Duration>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Self {
            scope: String::new(),
            retries: 2,
            backoff_base: Duration::from_millis(10),
            deadline: None,
        }
    }
}

impl Supervisor {
    /// A supervisor namespaced under `scope` with the default policy.
    pub fn scoped(scope: impl Into<String>) -> Self {
        Self {
            scope: scope.into(),
            ..Default::default()
        }
    }

    /// A copy with the given retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// A copy with the given backoff base (use `Duration::ZERO` in tests).
    pub fn with_backoff(mut self, backoff_base: Duration) -> Self {
        self.backoff_base = backoff_base;
        self
    }

    /// A copy with a per-attempt deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Structured record of a job that exhausted its retry budget.
#[derive(Clone, Debug, Serialize)]
pub struct JobFailure {
    /// Index of the job in the submitted grid.
    pub index: usize,
    /// The job's journal key (scope + index + configuration fingerprint).
    pub key: String,
    /// `"panic"` or `"deadline"`.
    pub reason: String,
    /// Panic payload of the last attempt, or the deadline description.
    pub detail: String,
    /// Attempts made (`retries + 1` when quarantined).
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
/// scope, grid position, and the job's configuration fingerprint. A
/// resumed run rebuilds the same grid and therefore the same keys; a
/// *changed* grid changes the fingerprint, so stale journal entries can
/// never masquerade as the new grid's results.
pub fn job_key(scope: &str, index: usize, job: &Job) -> String {
    format!(
        "{scope}#{index}:{}/b={}/alpha={}/seed={}/{}",
        job.algorithm.label(),
        job.b,
        job.alpha,
        job.seed,
        job.trace.name()
    )
}

/// [`run_jobs`] with fault tolerance: each job runs under `catch_unwind`
/// with `supervisor`'s retry budget, deterministic exponential backoff and
/// optional per-attempt deadline. Jobs that exhaust the budget are
/// returned as [`JobOutcome::Quarantined`] instead of unwinding the sweep.
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
    supervisor: &Supervisor,
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
            supervisor,
            &telemetry,
            journal.as_deref(),
        )
    })
}

fn execute_supervised(
    dm: &Arc<DistanceMatrix>,
    job: &Job,
    index: usize,
    supervisor: &Supervisor,
    telemetry: &Telemetry,
    journal: Option<&crate::journal::RunJournal>,
) -> JobOutcome {
    let key = job_key(&supervisor.scope, index, job);
    if let Some(journal) = journal {
        if let Some(report) = journal.lookup(&key) {
            return JobOutcome::Completed(report);
        }
    }
    let telem_on = telemetry.is_enabled();
    let t0 = Instant::now();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let cancel = supervisor
            .deadline
            .map(CancelToken::with_deadline)
            .unwrap_or_default();
        // AssertUnwindSafe: on Err every captured structure (scheduler,
        // stream, accumulators) is dropped with the unwound attempt; the
        // retry rebuilds all job state from the job description alone.
        let attempt = catch_unwind(AssertUnwindSafe(|| execute_with_cancel(dm, job, &cancel)));
        let (reason, detail) = match attempt {
            Ok(report) if !cancel.is_cancelled() => {
                if let Some(journal) = journal {
                    journal.record(&key, &report);
                }
                return JobOutcome::Completed(report);
            }
            Ok(_) => {
                if telem_on {
                    telemetry.add_counter("sweep.deadline_hits", 1);
                }
                (
                    "deadline",
                    format!(
                        "exceeded per-attempt deadline of {:.3}s",
                        supervisor.deadline.unwrap_or_default().as_secs_f64()
                    ),
                )
            }
            Err(payload) => {
                if telem_on {
                    telemetry.add_counter("sweep.panics_caught", 1);
                }
                ("panic", panic_message(payload.as_ref()))
            }
        };
        if attempts > supervisor.retries {
            if telem_on {
                telemetry.add_counter("sweep.quarantined", 1);
            }
            return JobOutcome::Quarantined(JobFailure {
                index,
                key,
                reason: reason.to_string(),
                detail,
                attempts,
                elapsed_secs: t0.elapsed().as_secs_f64(),
            });
        }
        // Deterministic exponential backoff: base << (retry# - 1).
        let backoff = supervisor.backoff_base * (1u32 << (attempts - 1).min(16));
        if telem_on {
            telemetry.add_counter("sweep.retries", 1);
            telemetry.observe("sweep.retry_backoff_ns", backoff.as_nanos() as u64);
        }
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
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
    fn shard_union_is_the_unsharded_grid_in_job_order() {
        let dm = setup();
        let js = jobs();
        let full = run_jobs(&dm, &js, 2);
        for m in 1..=4usize {
            let mut merged: Vec<Option<RunReport>> = vec![None; js.len()];
            for i in 0..m {
                let shard = ShardSpec::new(i, m);
                for (idx, report) in run_jobs_sharded(&dm, &js, 2, shard) {
                    assert!(shard.owns(idx), "shard {shard} yielded foreign job {idx}");
                    assert!(merged[idx].is_none(), "job {idx} produced twice");
                    merged[idx] = Some(report);
                }
            }
            for (idx, (got, want)) in merged.iter().zip(&full).enumerate() {
                let got = got.as_ref().unwrap_or_else(|| panic!("job {idx} missing"));
                assert_eq!(got.algorithm, want.algorithm, "m={m} job={idx}");
                assert_eq!(
                    got.total.routing_cost, want.total.routing_cost,
                    "m={m} job={idx}"
                );
                assert_eq!(
                    got.total.reconfigurations, want.total.reconfigurations,
                    "m={m} job={idx}"
                );
            }
        }
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        let s = ShardSpec::parse("1/3").expect("valid spec");
        assert_eq!((s.index(), s.count()), (1, 3));
        assert_eq!(s.to_string(), "1/3");
        assert!(!s.is_full());
        assert!(ShardSpec::full().is_full());
        assert_eq!(s.owned_indices(8).collect::<Vec<_>>(), vec![1, 4, 7]);
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
        // Wall-clock is the one legitimately varying field; zero it before
        // the byte comparison (same canonicalization as the telemetry
        // identity proptest).
        let canonical = |r: &RunReport| {
            let mut r = r.clone();
            r.total.elapsed_secs = 0.0;
            for c in &mut r.checkpoints {
                c.elapsed_secs = 0.0;
            }
            r.to_json()
        };
        let dm = setup();
        let js = jobs();
        let plain = run_jobs(&dm, &js, 2);
        for threads in [1usize, 4] {
            let sup = Supervisor::scoped("test").with_backoff(Duration::ZERO);
            let outcomes = run_jobs_supervised(&dm, &js, threads, &sup);
            assert_eq!(outcomes.len(), plain.len());
            for (i, (o, want)) in outcomes.iter().zip(&plain).enumerate() {
                let got = o
                    .report()
                    .unwrap_or_else(|| panic!("job {i} unexpectedly quarantined"));
                assert_eq!(canonical(got), canonical(want), "threads={threads} job={i}");
            }
        }
    }

    #[test]
    fn supervised_deadline_quarantines_with_structured_failure() {
        // A zero deadline trips before the first chunk of every attempt:
        // the job must exhaust its budget and come back as a structured
        // quarantine row, not a panic and not a bogus report.
        let dm = setup();
        let js = &jobs()[..2];
        let sup = Supervisor::scoped("test")
            .with_retries(1)
            .with_backoff(Duration::ZERO)
            .with_deadline(Duration::ZERO);
        let outcomes = run_jobs_supervised(&dm, js, 2, &sup);
        for (i, o) in outcomes.iter().enumerate() {
            let failure = o
                .failure()
                .unwrap_or_else(|| panic!("job {i} should have quarantined on the zero deadline"));
            assert_eq!(failure.index, i);
            assert_eq!(failure.reason, "deadline");
            assert_eq!(failure.attempts, 2, "retries=1 means 2 attempts");
            assert!(failure.key.starts_with("test#"), "key: {}", failure.key);
            // The failure row serializes (it lands in QUARANTINE artifacts).
            let json = dcn_util::json::to_json_string(failure).unwrap();
            assert!(json.contains("\"reason\":\"deadline\""), "{json}");
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
