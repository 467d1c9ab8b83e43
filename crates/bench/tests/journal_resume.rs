//! The resumability contract of the demand sweep, end to end: for **any**
//! failpoint-chosen kill index and any worker count, a run killed
//! mid-sweep and then resumed from its journal produces a table JSON
//! byte-identical to the uninterrupted run. This is the property the CI
//! chaos step spot-checks with one schedule; the proptest sweeps the
//! schedule space. A journal written at one scale and resumed at another
//! must replay nothing: the resumed table is the clean one at the new
//! scale.
//!
//! Failpoint and journal state are process-global, so this test binary is
//! its own process and serializes its cases through `CASE_LOCK`.

use dcn_bench::demand_sweep;
use dcn_core::journal::{self, RunJournal};
use dcn_core::sweep::ShardSpec;
use dcn_util::failpoint;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static CASE_LOCK: Mutex<()> = Mutex::new(());

const SCALE: f64 = 0.005;
// The demand grid at any scale: 5 λ levels × 4 algorithms × 2 repetitions.
const GRID: u64 = 40;

fn clean_json(scale: f64) -> String {
    let (table, failures) = demand_sweep(scale, 1, ShardSpec::full());
    assert!(failures.is_empty(), "clean run must not quarantine");
    table.to_json()
}

fn kill_and_resume(kill_at: u64, resume_threads: usize) -> String {
    let path = std::env::temp_dir().join(format!(
        "rdcn-journal-resume-{}-{kill_at}-{resume_threads}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Run 1: killed at the `kill_at`-th job claim — the claim site sits
    // outside supervision, so the panic unwinds the whole sweep, exactly
    // like a process kill. Jobs journaled before the kill survive.
    journal::install(RunJournal::open(&path, false).expect("fresh journal"));
    failpoint::arm(
        "sweep.job_claim",
        failpoint::Action::Panic,
        failpoint::Trigger::Nth(kill_at),
    );
    let killed = catch_unwind(AssertUnwindSafe(|| {
        demand_sweep(SCALE, 1, ShardSpec::full())
    }));
    failpoint::disarm("sweep.job_claim");
    journal::uninstall();
    assert!(killed.is_err(), "claim {kill_at} must kill the run");

    // Run 2: resume. Journaled jobs replay digest-checked; the rest run,
    // at a *different* worker count than the killed run used.
    let resumed = RunJournal::open(&path, true).expect("replay journal");
    assert_eq!(
        resumed.len() as u64,
        kill_at - 1,
        "sequential kill at claim {kill_at} leaves exactly {} journaled job(s)",
        kill_at - 1
    );
    journal::install(resumed);
    let (table, failures) = demand_sweep(SCALE, resume_threads, ShardSpec::full());
    journal::uninstall();
    assert!(failures.is_empty(), "resume must complete every job");

    // The journal now covers the full grid.
    assert_eq!(
        RunJournal::open(&path, true).expect("final journal").len() as u64,
        GRID
    );
    std::fs::remove_file(&path).unwrap();
    table.to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn any_kill_point_resumes_to_the_byte_identical_artifact(
        kill_at in 1u64..=GRID,
        resume_threads in 1usize..=4,
    ) {
        let _g = CASE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let clean = clean_json(SCALE);
        let resumed = kill_and_resume(kill_at, resume_threads);
        prop_assert_eq!(resumed, clean, "kill@{} did not resume cleanly", kill_at);
    }
}

/// Pinned corners: first claim (nothing journaled) and last claim (all but
/// one journaled), resumed at 1 and 4 workers.
#[test]
fn pinned_kill_points() {
    let _g = CASE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let clean = clean_json(SCALE);
    assert_eq!(kill_and_resume(1, 4), clean);
    assert_eq!(kill_and_resume(GRID, 1), clean);
}

/// A complete journal written at `SCALE` and resumed at `2 × SCALE`: every
/// job's trace is twice as long, so no journaled report may replay. The
/// resumed table is the clean `2 × SCALE` table, and the journal gains one
/// record per re-run job.
#[test]
fn resume_at_another_scale_replays_nothing() {
    let _g = CASE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path =
        std::env::temp_dir().join(format!("rdcn-journal-rescale-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    journal::install(RunJournal::open(&path, false).expect("fresh journal"));
    let (_, failures) = demand_sweep(SCALE, 1, ShardSpec::full());
    journal::uninstall();
    assert!(failures.is_empty(), "clean run must not quarantine");

    let complete = RunJournal::open(&path, true).expect("replay journal");
    assert_eq!(complete.len() as u64, GRID);
    journal::install(complete);
    let (table, failures) = demand_sweep(2.0 * SCALE, 1, ShardSpec::full());
    journal::uninstall();
    assert!(failures.is_empty(), "resume must complete every job");
    assert_eq!(table.to_json(), clean_json(2.0 * SCALE));
    assert_eq!(
        RunJournal::open(&path, true).expect("final journal").len() as u64,
        2 * GRID
    );
    std::fs::remove_file(&path).unwrap();
}
