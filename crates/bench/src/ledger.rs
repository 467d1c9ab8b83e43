//! The committed performance ledger: standard-point serve throughput
//! (Mreq/s) per algorithm per PR, frozen as `BENCH_LEDGER.json` at the
//! repository root so throughput history travels with the code instead of
//! living only in CI artifacts and ROADMAP prose.
//!
//! The *standard point* is the configuration every headline number in
//! ROADMAP.md and README.md has been quoted at since the batching work:
//! streamed Zipf(s=1.2), 100 racks, b=12, α=10. `repro_figures ledger
//! --pr N` measures the current tree at that point and upserts one row per
//! (algorithm, serve-mode) — re-running for the same PR overwrites rather
//! than duplicates, so the file stays one row per measurement coordinate.

use dcn_core::algorithms::AlgorithmKind;
use dcn_topology::{builders, DistanceMatrix};
use dcn_traces::TraceSpec;
use dcn_util::json::{parse_json, to_json_string, JsonValue};
use serde::Serialize;
use std::sync::Arc;

/// One measured point: `algorithm` at `mode` in PR `pr` ran at
/// `mreq_per_sec` million requests per second on the standard point.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LedgerEntry {
    /// PR number the measurement was taken at.
    pub pr: u64,
    /// Algorithm label (`R-BMA`, `BMA`, ...).
    pub algorithm: String,
    /// Serve-mode tag: `batched` (the production default path at that PR),
    /// `unbatched` (`batch_size = 1`); older rows also carry retired
    /// modes such as `unsorted-batched`.
    pub mode: String,
    /// Serve-loop throughput in million requests per second.
    pub mreq_per_sec: f64,
}

/// The whole ledger; entries are kept sorted by (pr, algorithm, mode).
#[derive(Clone, Debug, Default, Serialize)]
pub struct Ledger {
    /// All measurements, every PR.
    pub entries: Vec<LedgerEntry>,
}

impl Ledger {
    /// Parses the committed JSON form.
    pub fn from_json(text: &str) -> Result<Ledger, String> {
        let v = parse_json(text)?;
        let entries = v
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("ledger: missing array field entries")?;
        let mut out = Ledger::default();
        for e in entries {
            let str_field = |key: &str| {
                e.get(key)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("ledger entry: missing string field {key}"))
            };
            out.entries.push(LedgerEntry {
                pr: e
                    .get("pr")
                    .and_then(JsonValue::as_u64)
                    .ok_or("ledger entry: missing u64 field pr")?,
                algorithm: str_field("algorithm")?,
                mode: str_field("mode")?,
                mreq_per_sec: e
                    .get("mreq_per_sec")
                    .and_then(JsonValue::as_f64)
                    .ok_or("ledger entry: missing number field mreq_per_sec")?,
            });
        }
        out.sort();
        Ok(out)
    }

    /// Compact JSON form (the committed representation).
    pub fn to_json(&self) -> String {
        to_json_string(self).expect("ledger serialization cannot fail")
    }

    fn sort(&mut self) {
        self.entries
            .sort_by(|a, b| (a.pr, &a.algorithm, &a.mode).cmp(&(b.pr, &b.algorithm, &b.mode)));
    }

    /// Inserts `entry`, replacing any existing row with the same
    /// (pr, algorithm, mode) coordinate.
    pub fn upsert(&mut self, entry: LedgerEntry) {
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.pr == entry.pr && e.algorithm == entry.algorithm && e.mode == entry.mode)
        {
            *existing = entry;
        } else {
            self.entries.push(entry);
        }
        self.sort();
    }

    /// Markdown rendering: one row per (algorithm, mode), one column per PR.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let mut prs: Vec<u64> = self.entries.iter().map(|e| e.pr).collect();
        prs.sort_unstable();
        prs.dedup();
        let mut coords: Vec<(&str, &str)> = self
            .entries
            .iter()
            .map(|e| (e.algorithm.as_str(), e.mode.as_str()))
            .collect();
        coords.sort_unstable();
        coords.dedup();
        let mut out = String::from("### Performance ledger (standard point, Mreq/s)\n\n");
        let _ = write!(out, "| algorithm | mode |");
        for pr in &prs {
            let _ = write!(out, " PR {pr} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|---|");
        for _ in &prs {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for (algorithm, mode) in coords {
            let _ = write!(out, "| {algorithm} | {mode} |");
            for &pr in &prs {
                match self
                    .entries
                    .iter()
                    .find(|e| e.pr == pr && e.algorithm == algorithm && e.mode == mode)
                {
                    Some(e) => {
                        let _ = write!(out, " {:.1} |", e.mreq_per_sec);
                    }
                    None => {
                        let _ = write!(out, " — |");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Read-modify-write of the ledger at `path` under an advisory file lock:
/// acquires `<path>.lock` (create-and-rename exclusivity, up to `wait`),
/// re-reads the file *inside* the critical section, upserts `entries`, and
/// writes the result atomically. Two concurrent CI runs updating the same
/// `BENCH_LEDGER.json` therefore serialize instead of interleaving — the
/// loser of the lock race sees the winner's rows and adds its own, and no
/// torn or lost update is possible. Returns the merged ledger.
pub fn locked_update(
    path: &std::path::Path,
    entries: Vec<LedgerEntry>,
    wait: std::time::Duration,
) -> Result<Ledger, String> {
    let _lock = dcn_util::fsx::FileLock::acquire(path, wait)?;
    // Failure injection for the race test: a delay here widens the
    // critical section; without the lock the interleaving would lose rows.
    dcn_util::failpoint::hit("ledger.critical");
    let mut ledger = match std::fs::read_to_string(path) {
        Ok(text) => Ledger::from_json(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ledger::default(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    for entry in entries {
        ledger.upsert(entry);
    }
    dcn_util::fsx::write_atomic(path, ledger.to_json().as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(ledger)
}

/// Measures the current tree at the standard point and returns this PR's
/// rows: R-BMA batched and per-request, BMA batched. Strictly sequential
/// (these are wall-clock numbers).
pub fn measure_standard_point(pr: u64) -> Vec<LedgerEntry> {
    let racks = 100;
    let b = 12;
    let alpha = 10u64;
    let len = 300_000;
    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let spec = TraceSpec::Zipf {
        num_racks: racks,
        len,
        exponent: 1.2,
        seed: 5,
    };
    let measure = |algorithm: &AlgorithmKind, batch_size: usize| {
        // Best of three fresh runs: a single wall-clock pass is at the
        // mercy of scheduler preemption and frequency ramps; the fastest
        // run is the least-disturbed estimate of the tree's throughput.
        (0..3)
            .map(|_| {
                let mut source = spec.source();
                let config = dcn_core::SimConfig {
                    seed: 7,
                    trace_name: spec.name(),
                    ..Default::default()
                }
                .with_batch_size(batch_size);
                let mut scheduler = algorithm.build_online(Arc::clone(&dm), b, alpha, 7);
                let report =
                    dcn_core::run(scheduler.as_mut(), &dm, alpha, source.as_mut(), &config);
                report.total.requests as f64 / report.total.elapsed_secs.max(1e-9) / 1e6
            })
            .fold(0.0f64, f64::max)
    };
    let batched = dcn_core::simulator::DEFAULT_BATCH_SIZE;
    let rbma = AlgorithmKind::Rbma { lazy: true };
    vec![
        LedgerEntry {
            pr,
            algorithm: "R-BMA".into(),
            mode: "batched".into(),
            mreq_per_sec: measure(&rbma, batched),
        },
        LedgerEntry {
            pr,
            algorithm: "R-BMA".into(),
            mode: "unbatched".into(),
            mreq_per_sec: measure(&rbma, 1),
        },
        LedgerEntry {
            pr,
            algorithm: "BMA".into(),
            mode: "batched".into(),
            mreq_per_sec: measure(&AlgorithmKind::Bma, batched),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pr: u64, algorithm: &str, mode: &str, tp: f64) -> LedgerEntry {
        LedgerEntry {
            pr,
            algorithm: algorithm.into(),
            mode: mode.into(),
            mreq_per_sec: tp,
        }
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let mut ledger = Ledger::default();
        ledger.upsert(entry(4, "R-BMA", "batched", 22.8));
        ledger.upsert(entry(4, "R-BMA", "unbatched", 12.7));
        ledger.upsert(entry(5, "BMA", "batched", 31.0));
        let back = Ledger::from_json(&ledger.to_json()).unwrap();
        assert_eq!(back.entries, ledger.entries);
    }

    #[test]
    fn upsert_replaces_the_same_coordinate() {
        let mut ledger = Ledger::default();
        ledger.upsert(entry(7, "R-BMA", "batched", 20.0));
        ledger.upsert(entry(7, "R-BMA", "batched", 25.0));
        assert_eq!(ledger.entries.len(), 1);
        assert_eq!(ledger.entries[0].mreq_per_sec, 25.0);
        ledger.upsert(entry(7, "R-BMA", "unbatched", 12.0));
        assert_eq!(ledger.entries.len(), 2);
    }

    #[test]
    fn entries_stay_sorted_by_pr_then_coordinate() {
        let mut ledger = Ledger::default();
        ledger.upsert(entry(7, "R-BMA", "batched", 20.0));
        ledger.upsert(entry(4, "R-BMA", "batched", 22.8));
        ledger.upsert(entry(5, "BMA", "batched", 31.0));
        let prs: Vec<u64> = ledger.entries.iter().map(|e| e.pr).collect();
        assert_eq!(prs, vec![4, 5, 7]);
    }

    #[test]
    fn markdown_pivots_prs_into_columns() {
        let mut ledger = Ledger::default();
        ledger.upsert(entry(4, "R-BMA", "batched", 22.8));
        ledger.upsert(entry(7, "R-BMA", "batched", 30.0));
        ledger.upsert(entry(7, "BMA", "batched", 31.0));
        let md = ledger.to_markdown();
        assert!(md.contains("| algorithm | mode | PR 4 | PR 7 |"), "{md}");
        assert!(md.contains("| R-BMA | batched | 22.8 | 30.0 |"), "{md}");
        // BMA has no PR 4 point: rendered as a gap, not a fabricated 0.
        assert!(md.contains("| BMA | batched | — | 31.0 |"), "{md}");
    }

    #[test]
    fn committed_ledger_parses_and_covers_the_seeded_history() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_LEDGER.json");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let ledger = Ledger::from_json(&text).unwrap();
        // The seeded ROADMAP history: PR 4's R-BMA batched/unbatched pair
        // and PR 5's BMA point must stay present.
        for (pr, algorithm, mode) in [
            (4, "R-BMA", "batched"),
            (4, "R-BMA", "unbatched"),
            (5, "BMA", "batched"),
        ] {
            assert!(
                ledger
                    .entries
                    .iter()
                    .any(|e| e.pr == pr && e.algorithm == algorithm && e.mode == mode),
                "missing seeded ledger row ({pr}, {algorithm}, {mode})"
            );
        }
    }

    #[test]
    fn measure_standard_point_produces_positive_rows() {
        let rows = measure_standard_point(7);
        let coords: Vec<(&str, &str)> = rows
            .iter()
            .map(|e| (e.algorithm.as_str(), e.mode.as_str()))
            .collect();
        assert_eq!(
            coords,
            vec![
                ("R-BMA", "batched"),
                ("R-BMA", "unbatched"),
                ("BMA", "batched"),
            ]
        );
        for e in &rows {
            assert!(e.pr == 7 && e.mreq_per_sec > 0.0, "{e:?}");
        }
    }
}
