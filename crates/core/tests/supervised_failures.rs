//! Fault-injection coverage for the supervised sweep executor: injected
//! panics are retried, exhausted budgets quarantine with structured rows,
//! claim-site kills escape supervision (the "process died" simulation),
//! and a kill-and-resume through the journal reproduces the fault-free
//! results exactly.
//!
//! Failpoint state is process-global, and several sites here (`sim.chunk`,
//! `sweep.job_eval`, `sweep.job_claim`) are reached by *any* concurrently
//! running sweep — which is why these tests live in their own integration
//! binary (their own process) and serialize against each other through
//! `FAULT_LOCK`.

use dcn_core::algorithms::AlgorithmKind;
use dcn_core::sweep::{run_jobs, run_jobs_supervised, Job, RETRIES};
use dcn_core::{journal, RunReport};
use dcn_topology::{builders, DistanceMatrix};
use dcn_traces::TraceSpec;
use dcn_util::failpoint;
use std::sync::{Arc, Mutex};
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn setup() -> Arc<DistanceMatrix> {
    let net = builders::leaf_spine(10, 2);
    Arc::new(DistanceMatrix::between_racks(&net))
}

fn jobs(n: usize) -> Vec<Job> {
    (0..n)
        .map(|i| Job {
            algorithm: AlgorithmKind::Rbma { lazy: true },
            b: 2 + i % 3,
            alpha: 5,
            seed: i as u64,
            checkpoints: vec![1000, 2000],
            trace: TraceSpec::Uniform {
                num_racks: 10,
                len: 3000,
                seed: 7,
            },
        })
        .collect()
}

#[test]
fn injected_panic_is_retried_to_success_and_counted() {
    let _g = locked();
    let dm = setup();
    let js = jobs(4);
    let clean: Vec<RunReport> = run_jobs(&dm, &js, 1)
        .iter()
        .map(RunReport::without_wall_clock)
        .collect();

    // Telemetry coverage for the ISSUE's sweep.* counters rides along:
    // install an enabled sink, run with one injected panic, drain.
    let sink = dcn_telemetry::Telemetry::enabled();
    dcn_telemetry::install_global(sink.clone());
    failpoint::arm(
        "sweep.job_eval",
        failpoint::Action::Panic,
        failpoint::Trigger::Nth(2),
    );
    let outcomes = run_jobs_supervised(&dm, &js, 2, "retry");
    failpoint::disarm("sweep.job_eval");
    dcn_telemetry::install_global(dcn_telemetry::Telemetry::disabled());

    assert_eq!(failpoint::fired("sweep.job_eval"), 0, "disarmed resets");
    for (i, (o, want)) in outcomes.iter().zip(&clean).enumerate() {
        let got = o
            .report()
            .unwrap_or_else(|| panic!("job {i} quarantined despite retry budget"));
        assert_eq!(
            &got.without_wall_clock(),
            want,
            "job {i} must match the clean run"
        );
    }
    let snap = sink.drain();
    assert_eq!(snap.counters.get("sweep.panics_caught"), Some(&1));
    assert_eq!(snap.counters.get("sweep.retries"), Some(&1));
    assert!(!snap.counters.contains_key("sweep.quarantined"));
    let backoff = snap
        .histograms
        .get("sweep.retry_backoff_ns")
        .expect("retry backoff histogram");
    assert_eq!(backoff.count, 1);
}

#[test]
fn exhausted_retries_quarantine_instead_of_aborting() {
    let _g = locked();
    let dm = setup();
    let js = jobs(3);

    // Every chunk of every attempt panics: jobs must exhaust the budget
    // and come back as structured rows while the sweep itself survives.
    failpoint::arm(
        "sim.chunk",
        failpoint::Action::Panic,
        failpoint::Trigger::Always,
    );
    let outcomes = run_jobs_supervised(&dm, &js, 2, "quarantine");
    failpoint::disarm("sim.chunk");

    assert_eq!(outcomes.len(), js.len());
    for (i, o) in outcomes.iter().enumerate() {
        let f = o
            .failure()
            .unwrap_or_else(|| panic!("job {i} should have quarantined"));
        assert_eq!(f.index, i);
        assert_eq!(f.reason, "panic");
        assert_eq!(f.attempts, RETRIES + 1);
        assert!(f.key.starts_with("quarantine#"), "key: {}", f.key);
        assert!(
            f.detail.contains("sim.chunk"),
            "panic payload should be preserved: {}",
            f.detail
        );
        assert!(f.elapsed_secs >= 0.0);
        // The failure row serializes (it lands in QUARANTINE artifacts).
        let json = dcn_util::json::to_json_string(f).unwrap();
        assert!(json.contains("\"reason\":\"panic\""), "{json}");
    }
}

#[test]
fn claim_site_kill_escapes_supervision() {
    let _g = locked();
    let dm = setup();
    let js = jobs(4);

    // The claim site sits outside the per-job catch_unwind by design: a
    // panic there is the simulated process kill, and must unwind out of
    // the supervised fan-out rather than quarantine.
    failpoint::arm(
        "sweep.job_claim",
        failpoint::Action::Panic,
        failpoint::Trigger::Nth(2),
    );
    let r = std::panic::catch_unwind(|| run_jobs_supervised(&dm, &js, 1, "kill"));
    failpoint::disarm("sweep.job_claim");
    assert!(r.is_err(), "claim-site panic must kill the sweep");
}

#[test]
fn kill_then_resume_reproduces_the_fault_free_run() {
    let _g = locked();
    let dm = setup();
    let js = jobs(6);
    let clean: Vec<RunReport> = run_jobs(&dm, &js, 1)
        .iter()
        .map(RunReport::without_wall_clock)
        .collect();

    let path =
        std::env::temp_dir().join(format!("dcn_supervised_kill_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Run 1: journal fresh, killed at the 4th claim (sequentially, so
    // exactly 3 jobs complete and land in the journal before the kill).
    journal::install(journal::RunJournal::open(&path, false).unwrap());
    failpoint::arm(
        "sweep.job_claim",
        failpoint::Action::Panic,
        failpoint::Trigger::Nth(4),
    );
    let killed = std::panic::catch_unwind(|| run_jobs_supervised(&dm, &js, 1, "resume"));
    failpoint::disarm("sweep.job_claim");
    journal::uninstall();
    assert!(killed.is_err(), "the armed claim failpoint must kill run 1");

    // Run 2: resume from the journal. Completed jobs replay, the rest run.
    let resumed_journal = journal::RunJournal::open(&path, true).unwrap();
    assert_eq!(resumed_journal.len(), 3, "three jobs before the kill");
    journal::install(resumed_journal);
    let outcomes = run_jobs_supervised(&dm, &js, 4, "resume");
    journal::uninstall();

    for (i, (o, want)) in outcomes.iter().zip(&clean).enumerate() {
        let got = o.report().unwrap_or_else(|| panic!("job {i} missing"));
        assert_eq!(
            &got.without_wall_clock(),
            want,
            "resumed job {i} must equal the fault-free run"
        );
    }
    // And the journal now holds every job.
    let final_journal = journal::RunJournal::open(&path, true).unwrap();
    assert_eq!(final_journal.len(), js.len());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn delay_failpoint_slows_but_does_not_change_results() {
    let _g = locked();
    let dm = setup();
    let js = jobs(2);
    let clean: Vec<RunReport> = run_jobs(&dm, &js, 1)
        .iter()
        .map(RunReport::without_wall_clock)
        .collect();

    failpoint::arm(
        "sim.chunk",
        failpoint::Action::Delay(Duration::from_millis(1)),
        failpoint::Trigger::Percent(25),
    );
    let outcomes = run_jobs_supervised(&dm, &js, 2, "delay");
    failpoint::disarm("sim.chunk");

    for (i, (o, want)) in outcomes.iter().zip(&clean).enumerate() {
        assert_eq!(&o.report().unwrap().without_wall_clock(), want, "job {i}");
    }
}
