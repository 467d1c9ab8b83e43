//! Failpoint-driven coverage of the bench crate's hardened I/O paths: the
//! ledger's advisory file lock under a simulated race, and the shard
//! parser's injected-error path.
//!
//! Failpoint state is process-global, so these tests live in their own
//! integration binary and serialize through `FAULT_LOCK`.

use dcn_bench::{locked_update, Ledger, LedgerEntry};
use dcn_util::failpoint;
use std::sync::Mutex;
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn entry(pr: u64, algorithm: &str, mode: &str, tp: f64) -> LedgerEntry {
    LedgerEntry {
        pr,
        algorithm: algorithm.into(),
        mode: mode.into(),
        mreq_per_sec: tp,
    }
}

#[test]
fn concurrent_ledger_updates_serialize_under_the_file_lock() {
    let _g = locked();
    let path = std::env::temp_dir().join(format!("rdcn-ledger-race-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dcn_util::fsx::FileLock::lock_path_for(&path));

    // Widen the read-modify-write critical section so that, without the
    // lock, the two threads would both read the empty ledger and the
    // second atomic write would erase the first thread's row.
    failpoint::arm(
        "ledger.critical",
        failpoint::Action::Delay(Duration::from_millis(40)),
        failpoint::Trigger::Always,
    );
    std::thread::scope(|scope| {
        for pr in [101u64, 102] {
            let path = &path;
            scope.spawn(move || {
                locked_update(
                    path,
                    vec![entry(pr, "R-BMA", "batched", pr as f64)],
                    Duration::from_secs(10),
                )
                .expect("locked update");
            });
        }
    });
    failpoint::disarm("ledger.critical");
    assert_eq!(failpoint::hits("ledger.critical"), 0, "disarm resets");

    let text = std::fs::read_to_string(&path).expect("ledger written");
    let ledger = Ledger::from_json(&text).expect("parse");
    for pr in [101u64, 102] {
        assert!(
            ledger.entries.iter().any(|e| e.pr == pr),
            "PR {pr}'s row was lost to the race: {ledger:?}"
        );
    }
    // The lock file itself is released (removed) once both updates finish.
    assert!(!dcn_util::fsx::FileLock::lock_path_for(&path).exists());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn ledger_lock_times_out_with_a_structured_error() {
    let _g = locked();
    let path = std::env::temp_dir().join(format!("rdcn-ledger-stuck-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // A stale/held lock: acquisition must fail with an error naming the
    // contended path rather than deadlocking or clobbering.
    let held = dcn_util::fsx::FileLock::acquire(&path, Duration::ZERO).expect("acquire");
    let err = locked_update(
        &path,
        vec![entry(1, "R-BMA", "batched", 1.0)],
        Duration::from_millis(50),
    )
    .expect_err("held lock must time out");
    assert!(err.contains("lock"), "{err}");
    drop(held);
    // Once released, the same update goes through.
    locked_update(
        &path,
        vec![entry(1, "R-BMA", "batched", 1.0)],
        Duration::from_millis(50),
    )
    .expect("update after release");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn injected_parse_error_surfaces_through_the_merge_path() {
    let _g = locked();
    let dir = std::env::temp_dir().join(format!("rdcn-parse-inject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let (table, _) = dcn_bench::demand_sweep(0.005, 1, dcn_core::sweep::ShardSpec::new(0, 1));
    std::fs::write(
        dir.join(dcn_bench::shard_file_name(
            "BENCH",
            "inject",
            dcn_core::sweep::ShardSpec::new(0, 1),
        )),
        table.to_json(),
    )
    .expect("write shard");

    // Error-action failpoints surface through `eval` at the parser's
    // entry: the merge must fail with the injected message, file-tagged.
    failpoint::arm(
        "shard.parse",
        failpoint::Action::Error("injected corruption".into()),
        failpoint::Trigger::Always,
    );
    let err = dcn_bench::shard::merge_target_dir(&dir, "inject").expect_err("injected error");
    failpoint::disarm("shard.parse");
    assert!(err.contains("injected corruption"), "{err}");
    assert!(err.contains("BENCH_inject"), "{err}");

    // Disarmed, the same directory merges fine.
    let (merged, _) = dcn_bench::shard::merge_target_dir(&dir, "inject").expect("clean merge");
    assert_eq!(merged.to_json(), table.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}
