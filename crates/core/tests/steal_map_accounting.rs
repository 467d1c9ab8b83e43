//! The claim loop's telemetry accounting: with a process-global sink
//! installed, one `steal_map` fan-out adds its job count to `sweep.jobs`,
//! and every worker flushes `sweep.worker.{w}.*` counters and its share of
//! the `sweep.job_ns` histogram. Without a sink the same fan-out returns
//! the same vector and leaves nothing behind for a later sink.
//!
//! The global sink is process-wide, so these tests live in their own
//! integration binary and serialize through `SINK_LOCK`.

use dcn_core::sweep::steal_map;
use dcn_telemetry::{Snapshot, Telemetry};
use std::sync::Mutex;

static SINK_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn square(k: usize) -> usize {
    k * k
}

/// Runs one fan-out with a fresh sink installed and returns its output
/// and everything the sink received.
fn fan_out_with_sink(n: usize, threads: usize) -> (Vec<usize>, Snapshot) {
    let sink = Telemetry::enabled();
    dcn_telemetry::install_global(sink.clone());
    let out = steal_map(n, threads, square);
    dcn_telemetry::install_global(Telemetry::disabled());
    (out, sink.drain())
}

/// `(worker index, field)` of a `sweep.worker.{w}.{field}` counter key.
fn worker_key(key: &str) -> Option<(usize, &str)> {
    let (w, field) = key.strip_prefix("sweep.worker.")?.split_once('.')?;
    Some((w.parse().expect("numeric worker index"), field))
}

#[test]
fn sink_receives_every_workers_accounting() {
    let _g = locked();
    for n in [0usize, 7] {
        for threads in [1usize, 2, 3] {
            let ctx = format!("n={n} threads={threads}");
            let (out, snap) = fan_out_with_sink(n, threads);
            assert_eq!(out, (0..n).map(square).collect::<Vec<_>>(), "{ctx}");

            // Zero adds leave no key, so an empty fan-out has no job count.
            let want_jobs = (n > 0).then_some(n as u64);
            assert_eq!(snap.counters.get("sweep.jobs").copied(), want_jobs, "{ctx}");

            let workers: Vec<(usize, &str, u64)> = snap
                .counters
                .iter()
                .filter_map(|(k, &v)| worker_key(k).map(|(w, field)| (w, field, v)))
                .collect();
            let per_worker_jobs: u64 = workers
                .iter()
                .filter(|(_, field, _)| *field == "jobs")
                .map(|&(_, _, v)| v)
                .sum();
            assert_eq!(per_worker_jobs, n as u64, "{ctx}: {workers:?}");
            for &(w, field, _) in &workers {
                assert!(w < threads, "{ctx}: worker {w} ({field}) of {threads}");
                assert!(
                    threads > 1 || field != "steals",
                    "{ctx}: a single worker cannot steal"
                );
            }

            let observed = snap.histograms.get("sweep.job_ns").map_or(0, |h| h.count);
            assert_eq!(observed, n as u64, "{ctx}: one job_ns observation per job");
        }
    }
}

#[test]
fn without_a_sink_the_fan_out_records_nothing() {
    let _g = locked();
    for threads in [1usize, 2, 3] {
        let (with_sink, _) = fan_out_with_sink(7, threads);
        let without = steal_map(7, threads, square);
        assert_eq!(without, with_sink, "threads={threads}");
        // A sink installed afterwards starts empty: nothing was buffered
        // for a later flush.
        let later = Telemetry::enabled();
        dcn_telemetry::install_global(later.clone());
        dcn_telemetry::install_global(Telemetry::disabled());
        assert!(later.drain().is_empty(), "threads={threads}");
    }
}
