//! Resumable run journal: one JSON line per completed sweep job.
//!
//! `repro_figures --journal FILE` installs a process-global [`RunJournal`];
//! the supervised executor ([`crate::sweep::run_jobs_supervised`]) records
//! each job's [`RunReport`] under a deterministic key the moment it
//! completes, and consults the journal before executing so `--resume`
//! skips finished work. Quarantined jobs are *not* recorded — a resumed
//! run retries them from scratch.
//!
//! # Line format and atomicity
//!
//! Each line is a self-contained object:
//!
//! ```text
//! {"key":"demand#3:R-BMA/b=6/alpha=10/seed=…/matrix(…)/9f0c…","digest":1234…,"report":{…}}
//! ```
//!
//! The key ends in a digest of the job's whole configuration
//! ([`crate::sweep::job_key`]), so a journal written for another grid —
//! another `--scale`, say — matches no job and replays nothing.
//!
//! `digest` is the FxHash64 of the serialized report; on replay a line
//! whose report does not re-serialize to its digest is dropped (and
//! re-run) rather than trusted. Every record rewrites the whole journal
//! through `dcn_util::fsx::write_atomic` (write-then-rename), so a process
//! killed at *any* instruction leaves either the previous or the new
//! complete journal on disk — never a torn line. A trailing partial line
//! in a journal written by other means is tolerated and ignored.
//!
//! Replay correctness rests on `RunReport::from_json(to_json)` being a
//! byte-exact round trip (pinned in `report` tests): a resumed artifact is
//! assembled from parsed reports and still compares byte-identical to an
//! uninterrupted run's artifact.

use crate::report::RunReport;
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A file-backed map from job key to completed [`RunReport`].
#[derive(Debug)]
pub struct RunJournal {
    path: PathBuf,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    completed: HashMap<String, RunReport>,
    /// The full serialized journal, one record per line; rewritten
    /// atomically on every append.
    content: String,
}

fn digest(report_json: &str) -> u64 {
    let mut h = dcn_util::FxHasher::default();
    h.write(report_json.as_bytes());
    h.finish()
}

impl RunJournal {
    /// Opens a journal at `path`.
    ///
    /// With `resume = false` any existing file is ignored and overwritten
    /// by the first record. With `resume = true` existing records are
    /// replayed into memory: corrupt or digest-mismatched lines are
    /// reported on stderr and skipped (their jobs re-run), and a missing
    /// file is an empty journal.
    pub fn open(path: impl Into<PathBuf>, resume: bool) -> Result<RunJournal, String> {
        let path = path.into();
        let mut state = State::default();
        if resume {
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    for (lineno, line) in text.lines().enumerate() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        match Self::parse_line(line) {
                            Ok((key, report)) => {
                                state.content.push_str(line);
                                state.content.push('\n');
                                state.completed.insert(key, report);
                            }
                            Err(e) => {
                                // A torn tail is expected after a hard kill
                                // of a non-atomic writer; anything else is
                                // worth a warning. Either way the job
                                // simply re-runs.
                                eprintln!(
                                    "journal {}: skipping line {}: {e}",
                                    path.display(),
                                    lineno + 1
                                );
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
            }
        }
        Ok(RunJournal {
            path,
            state: Mutex::new(state),
        })
    }

    fn parse_line(line: &str) -> Result<(String, RunReport), String> {
        let v = dcn_util::json::parse_json(line)?;
        let key = v
            .get("key")
            .and_then(|k| k.as_str())
            .ok_or("record is missing 'key'")?
            .to_string();
        let recorded_digest = v
            .get("digest")
            .and_then(|d| d.as_u64())
            .ok_or("record is missing 'digest'")?;
        let report_value = v.get("report").ok_or("record is missing 'report'")?;
        let report = RunReport::from_json_value(report_value)?;
        let actual = digest(&report.to_json());
        if actual != recorded_digest {
            return Err(format!(
                "digest mismatch (recorded {recorded_digest}, recomputed {actual})"
            ));
        }
        Ok((key, report))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The completed report recorded under `key`, if any.
    pub fn lookup(&self, key: &str) -> Option<RunReport> {
        self.state.lock().unwrap().completed.get(key).cloned()
    }

    /// Number of completed jobs on record.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().completed.len()
    }

    /// Whether no jobs are on record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a completed job and persists the journal atomically.
    ///
    /// Serialized under the journal's lock: concurrent sweep workers append
    /// whole records in some order, and each persisted state is a valid
    /// journal. A persistence failure panics — continuing would complete
    /// the sweep while silently losing resumability.
    pub fn record(&self, key: &str, report: &RunReport) {
        dcn_util::failpoint::hit("journal.record");
        let mut state = self.state.lock().unwrap();
        let report_json = report.to_json();
        let line = format!(
            "{{\"key\":{},\"digest\":{},\"report\":{}}}\n",
            dcn_util::json::to_json_string(&key).expect("string serialization cannot fail"),
            digest(&report_json),
            report_json
        );
        state.content.push_str(&line);
        state.completed.insert(key.to_string(), report.clone());
        dcn_util::fsx::write_atomic(&self.path, state.content.as_bytes())
            .unwrap_or_else(|e| panic!("cannot persist journal {}: {e}", self.path.display()));
    }
}

static GLOBAL: Mutex<Option<Arc<RunJournal>>> = Mutex::new(None);

/// Installs `journal` as the process-global journal consulted by the
/// supervised executor. Replaces any previous installation.
pub fn install(journal: RunJournal) -> Arc<RunJournal> {
    let journal = Arc::new(journal);
    *GLOBAL.lock().unwrap() = Some(journal.clone());
    journal
}

/// Removes the process-global journal (tests; end of a journaled run).
pub fn uninstall() {
    *GLOBAL.lock().unwrap() = None;
}

/// The installed process-global journal, if any.
pub fn installed() -> Option<Arc<RunJournal>> {
    GLOBAL.lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Checkpoint;

    fn report(seed: u64) -> RunReport {
        let total = Checkpoint {
            requests: 100,
            routing_cost: 17 + seed,
            reconfig_cost: 30,
            reconfigurations: 3,
            matched_requests: 80,
            elapsed_secs: 1.0 / 3.0,
        };
        RunReport {
            algorithm: "R-BMA".into(),
            trace: "zipf".into(),
            b: 6,
            alpha: 10,
            seed,
            checkpoints: vec![total],
            total,
        }
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dcn_journal_{tag}_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn record_then_resume_round_trips_reports_exactly() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let j = RunJournal::open(&path, false).unwrap();
        j.record("a", &report(1));
        j.record("b", &report(2));
        assert_eq!(j.len(), 2);

        let resumed = RunJournal::open(&path, true).unwrap();
        assert_eq!(resumed.len(), 2);
        assert_eq!(
            resumed.lookup("a").unwrap().to_json(),
            report(1).to_json(),
            "replayed report must re-serialize byte-identically"
        );
        assert!(resumed.lookup("missing").is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fresh_open_ignores_an_existing_journal() {
        let path = tmp_path("fresh");
        std::fs::write(&path, "garbage\n").unwrap();
        let j = RunJournal::open(&path, false).unwrap();
        assert!(j.is_empty());
        j.record("x", &report(9));
        let resumed = RunJournal::open(&path, true).unwrap();
        assert_eq!(resumed.len(), 1, "garbage must have been overwritten");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_lines_are_skipped_not_trusted() {
        let path = tmp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let j = RunJournal::open(&path, false).unwrap();
        j.record("good", &report(5));
        // Simulate a torn tail and a digest-tampered record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("\"digest\":", "\"digest\":9");
        text.push_str(&tampered.lines().next().unwrap().replace("good", "evil"));
        text.push_str("\n{\"key\":\"torn");
        std::fs::write(&path, &text).unwrap();

        let resumed = RunJournal::open(&path, true).unwrap();
        assert_eq!(resumed.len(), 1);
        assert!(resumed.lookup("good").is_some());
        assert!(
            resumed.lookup("evil").is_none(),
            "digest mismatch must drop the record"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_resumes_empty() {
        let path = tmp_path("missing");
        let _ = std::fs::remove_file(&path);
        let j = RunJournal::open(&path, true).unwrap();
        assert!(j.is_empty());
    }
}
