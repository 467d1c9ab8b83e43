//! Multi-host sharding of the table targets: shard artifacts, their
//! byte-exact reassembly, and the one collector of shard files.
//!
//! `repro_figures --shard i/m --json DIR <target>` computes only the table
//! rows shard `i` owns (round-robin by original row index, seeds
//! unchanged — see [`dcn_core::sweep::ShardSpec`]) and writes them as
//! `BENCH_<target>.shard-i-of-m.json`. `repro_figures --merge-json DIR
//! <target>` gathers all `m` shard files, re-interleaves the rows (row `p`
//! of the full table is row `p / m` of shard `p % m`), and writes the
//! merged `BENCH_<target>.json`. TELEM snapshots shard the same way, and
//! [`shard_file_name`] and [`read_shards`] build and read both families'
//! shard file names.
//!
//! The merge contract is **byte identity**: for deterministic tables (all
//! cost columns; the CI smoke diffs the `demand` and `ablation-alpha`
//! targets), the merged file equals the file an unsharded run writes, byte
//! for byte. That holds because (a) sharded runs derive every row's seeds
//! from its original index, (b) titles/columns are identical across
//! shards, and (c) the [`SimpleTable::from_json`] → [`SimpleTable::to_json`]
//! round trip is exact: both rest on `dcn_util::json`, whose
//! [`parse_json`](dcn_util::json::parse_json) recovers the identical `f64`
//! from the emitter's shortest-round-trip `Display`.

use crate::SimpleTable;
use dcn_core::sweep::ShardSpec;
use std::path::{Path, PathBuf};

/// File name of one shard's slice of the `<kind>_<target>.json` artifact,
/// where `kind` is `BENCH` or `TELEM`: `<kind>_<target>.shard-i-of-m.json`.
pub fn shard_file_name(kind: &str, target: &str, shard: ShardSpec) -> String {
    format!(
        "{kind}_{target}.shard-{}-of-{}.json",
        shard.index(),
        shard.count()
    )
}

/// File name of the merged (= unsharded) artifact for `target`.
pub fn merged_file_name(target: &str) -> String {
    format!("BENCH_{target}.json")
}

/// Merges shard tables (each tagged with its [`ShardSpec`]) back into the
/// full table: validates one table per shard index with a consistent shard
/// count and identical title/columns, then re-interleaves rows
/// round-robin. Fails on any gap — a missing shard, or shard sizes that
/// cannot come from one grid.
pub fn merge_tables(parts: Vec<(ShardSpec, SimpleTable)>) -> Result<SimpleTable, String> {
    let count = parts
        .first()
        .map(|(s, _)| s.count())
        .ok_or("no shard tables to merge")?;
    let mut by_index: Vec<Option<SimpleTable>> = (0..count).map(|_| None).collect();
    for (shard, table) in parts {
        if shard.count() != count {
            return Err(format!(
                "inconsistent shard counts: {} vs {count}",
                shard.count()
            ));
        }
        if by_index[shard.index()].is_some() {
            return Err(format!("duplicate shard {shard}"));
        }
        by_index[shard.index()] = Some(table);
    }
    let tables: Vec<SimpleTable> = by_index
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.ok_or(format!("missing shard {i}-of-{count}")))
        .collect::<Result<_, _>>()?;

    let reference = &tables[0];
    for t in &tables[1..] {
        if t.title != reference.title {
            return Err(format!(
                "shard titles disagree: {:?} vs {:?}",
                t.title, reference.title
            ));
        }
        if t.columns != reference.columns {
            return Err("shard column sets disagree".into());
        }
    }

    let total: usize = tables.iter().map(|t| t.rows.len()).sum();
    let mut rows = Vec::with_capacity(total);
    let mut cursors = vec![0usize; count];
    for p in 0..total {
        let shard_of_row = p % count;
        let row = tables[shard_of_row]
            .rows
            .get(cursors[shard_of_row])
            .ok_or(format!(
                "shard {shard_of_row}-of-{count} is short: no row for grid position {p} \
                 (shard sizes do not interleave into one grid)"
            ))?;
        cursors[shard_of_row] += 1;
        rows.push(row.clone());
    }
    // Every shard's rows must be consumed exactly.
    for (i, (cursor, t)) in cursors.iter().zip(&tables).enumerate() {
        if *cursor != t.rows.len() {
            return Err(format!(
                "shard {i}-of-{count} has {} surplus row(s)",
                t.rows.len() - cursor
            ));
        }
    }
    // Quarantine notes travel with their rows: local row `r` of shard `i`
    // sits at grid position `r * count + i` after re-interleaving.
    let mut statuses = Vec::new();
    for (i, t) in tables.iter().enumerate() {
        for (local, note) in &t.statuses {
            if *local >= t.rows.len() {
                return Err(format!(
                    "shard {i}-of-{count} status points at row {local}, \
                     but the shard has only {} row(s)",
                    t.rows.len()
                ));
            }
            statuses.push((local * count + i, note.clone()));
        }
    }
    statuses.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(SimpleTable {
        title: reference.title.clone(),
        columns: reference.columns.clone(),
        rows,
        statuses,
    })
}

/// Reads every shard file of the `<kind>_<target>.json` artifact in `dir`
/// (see [`shard_file_name`]) through `parse`, in shard-index order, and
/// checks that the files form one partition: one shard count, no repeated
/// index and no gap. No shard file at all is an empty list. Every error
/// names the files involved; a parse error is tagged with its file.
pub fn read_shards<T>(
    dir: &Path,
    kind: &str,
    target: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<(ShardSpec, PathBuf, T)>, String> {
    let prefix = format!("{kind}_{target}.shard-");
    let mut names: Vec<(ShardSpec, String)> = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let Some(spec) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        // File-name form is "i-of-m".
        let Some((i, m)) = spec.split_once("-of-") else {
            return Err(format!("malformed shard file name {name:?}"));
        };
        let shard = ShardSpec::parse(&format!("{i}/{m}"))
            .map_err(|e| format!("shard file {name:?}: {e}"))?;
        if let Some((first, first_name)) = names.first() {
            if first.count() != shard.count() {
                return Err(format!(
                    "mixed shard counts: {name:?} is of {} shard(s) but {first_name:?} \
                     is of {} shard(s)",
                    shard.count(),
                    first.count()
                ));
            }
        }
        if let Some((_, dup)) = names.iter().find(|(s, _)| s.index() == shard.index()) {
            return Err(format!(
                "duplicate shard index {}: {name:?} vs {dup:?}",
                shard.index()
            ));
        }
        names.push((shard, name));
    }
    names.sort_by_key(|(s, _)| s.index());
    let mut shards = Vec::with_capacity(names.len());
    for (shard, name) in &names {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        shards.push((
            *shard,
            path,
            parse(&text).map_err(|e| format!("{name}: {e}"))?,
        ));
    }
    // A corrupt file is reported before a missing one: it is the more
    // specific damage.
    if let Some((first, _)) = names.first() {
        let count = first.count();
        if let Some(gap) = (0..count).find(|&i| names.iter().all(|(s, _)| s.index() != i)) {
            let found: Vec<&str> = names.iter().map(|(_, name)| name.as_str()).collect();
            let noun = if kind == "TELEM" {
                "telemetry shard"
            } else {
                "shard"
            };
            return Err(format!(
                "missing {noun} {gap}-of-{count}: found only {found:?}"
            ));
        }
    }
    Ok(shards)
}

/// Reads `target`'s `BENCH` shard files from `dir` (see [`read_shards`])
/// and merges them, returning the merged table together with the paths it
/// consumed. Every failure is a structured error naming the offending file
/// (and, for parse errors, the byte offset): a corrupt or inconsistent
/// shard set must never panic or silently drop rows.
pub fn merge_target_dir(dir: &Path, target: &str) -> Result<(SimpleTable, Vec<PathBuf>), String> {
    let shards = read_shards(dir, "BENCH", target, SimpleTable::from_json)?;
    if shards.is_empty() {
        return Err(format!(
            "no BENCH_{target}.shard-*.json shard files in {}",
            dir.display()
        ));
    }
    let (parts, paths) = shards
        .into_iter()
        .map(|(shard, path, table)| ((shard, table), path))
        .unzip();
    merge_tables(parts).map(|t| (t, paths))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> SimpleTable {
        SimpleTable {
            title: "Scaling: α=10, λ = drift \"quoted\" \\ slash\nnewline".into(),
            columns: vec!["R-BMA Mreq/s".into(), "ratio".into()],
            rows: vec![
                ("λ=0".into(), vec![22.75321, 1.0]),
                ("row2".into(), vec![-0.5, 1e-9]),
                ("row3".into(), vec![123456789.0, 0.3333333333333333]),
                // Cells that test the number path: negative zero, the
                // non-finite cells the emitter writes as `null`, integers
                // beyond 64 bits or at the edge of f64 precision, the
                // smallest subnormal, and a shortest-round-trip fraction.
                (
                    "special".into(),
                    vec![
                        -0.0,
                        f64::NAN,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        1e20,
                        1.2345678901234568e18,
                        -9.3e18,
                        5e-324,
                        0.30000000000000004,
                    ],
                ),
            ],
            statuses: Vec::new(),
        }
    }

    #[test]
    fn parse_round_trips_to_json_byte_identically() {
        let table = sample_table();
        let json = table.to_json();
        let back = SimpleTable::from_json(&json).expect("parse emitted JSON");
        assert_eq!(back.to_json(), json, "round trip must be byte-identical");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"title\": 3}",
            "{\"title\": \"t\"} extra",
            "{\"bogus\": \"x\"}",
        ] {
            assert!(
                SimpleTable::from_json(bad).is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn statuses_survive_the_json_round_trip() {
        let mut table = sample_table();
        table.statuses = vec![
            (0, "2 of 8 jobs quarantined".into()),
            (2, "degraded".into()),
        ];
        let json = table.to_json();
        assert!(json.contains("\"statuses\""));
        let back = SimpleTable::from_json(&json).expect("parse");
        assert_eq!(back.statuses, table.statuses);
        assert_eq!(back.to_json(), json, "round trip must be byte-identical");
        // And a failure-free table omits the key entirely (historical bytes).
        assert!(!sample_table().to_json().contains("statuses"));
    }

    #[test]
    fn merge_reindexes_statuses_to_grid_positions() {
        let full = sample_table();
        let mut shard0 = SimpleTable {
            title: full.title.clone(),
            columns: full.columns.clone(),
            rows: vec![full.rows[0].clone(), full.rows[2].clone()],
            statuses: vec![(1, "late".into())],
        };
        let shard1 = SimpleTable {
            title: full.title.clone(),
            columns: full.columns.clone(),
            rows: vec![full.rows[1].clone()],
            statuses: vec![(0, "early".into())],
        };
        let merged = merge_tables(vec![
            (ShardSpec::new(0, 2), shard0.clone()),
            (ShardSpec::new(1, 2), shard1),
        ])
        .expect("merge");
        // Local row 1 of shard 0 → grid 2; local row 0 of shard 1 → grid 1.
        assert_eq!(
            merged.statuses,
            vec![(1, "early".to_string()), (2, "late".to_string())]
        );
        // A status pointing past the shard's rows is a structured error.
        shard0.statuses = vec![(7, "dangling".into())];
        let err = merge_tables(vec![(ShardSpec::new(0, 1), shard0)]).unwrap_err();
        assert!(err.contains("row 7"), "{err}");
    }

    #[test]
    fn truncated_artifacts_error_without_panicking() {
        // Kill-mid-write leaves a prefix: every strict prefix of a valid
        // artifact must come back as Err naming a byte offset, never a
        // panic or a silent Ok. That includes cuts inside a string.
        let mut table = sample_table();
        table.statuses = vec![(1, "note".into())];
        let json = table.to_json();
        for cut in 0..json.len() {
            if !json.is_char_boundary(cut) {
                continue;
            }
            let err = SimpleTable::from_json(&json[..cut]).expect_err("prefix must not parse");
            assert!(err.contains("at byte"), "cut at {cut}: {err}");
        }
        assert!(SimpleTable::from_json(&json[..json.len() - 1])
            .unwrap_err()
            .contains("byte"));
        // A cut inside the title ends the input inside a string.
        let cut = json.find("Scaling").expect("title") + 3;
        let err = SimpleTable::from_json(&json[..cut]).unwrap_err();
        assert!(
            err.contains(&format!("unterminated string at byte {cut}")),
            "{err}"
        );
    }

    #[test]
    fn corrupted_bytes_error_or_parse_but_never_panic() {
        // Single-byte corruption: overwrite each position with a hostile
        // byte. Many mutants still parse (flipping a digit), some fail —
        // either way the parser must return, not panic or loop.
        let json = sample_table().to_json();
        for evil in [b'{', b'}', b'"', b'\\', b',', b'x', 0xFFu8] {
            for i in 0..json.len() {
                let mut bytes = json.clone().into_bytes();
                bytes[i] = evil;
                if let Ok(mutant) = String::from_utf8(bytes) {
                    let _ = SimpleTable::from_json(&mutant);
                }
            }
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_with_an_offset() {
        let err = SimpleTable::from_json(r#"{"title": "a", "title": "b"}"#).unwrap_err();
        assert!(err.contains("duplicate key \"title\""), "{err}");
        assert!(err.contains("byte 15"), "{err}");
    }

    #[test]
    fn merge_reassembles_round_robin_rows() {
        let full = sample_table();
        // Shard by row index round-robin, as the table targets do.
        let split = |i: usize, m: usize| SimpleTable {
            title: full.title.clone(),
            columns: full.columns.clone(),
            rows: full
                .rows
                .iter()
                .enumerate()
                .filter(|(r, _)| ShardSpec::new(i, m).owns(*r))
                .map(|(_, row)| row.clone())
                .collect(),
            statuses: Vec::new(),
        };
        for m in 1..=3usize {
            let parts: Vec<_> = (0..m)
                .map(|i| (ShardSpec::new(i, m), split(i, m)))
                .collect();
            let merged = merge_tables(parts).expect("merge");
            assert_eq!(merged.to_json(), full.to_json(), "m={m}");
        }
    }

    #[test]
    fn merge_rejects_inconsistent_parts() {
        let t = sample_table();
        // Missing shard 1.
        let only0 = vec![(ShardSpec::new(0, 2), t.clone())];
        assert!(merge_tables(only0).is_err());
        // Title mismatch.
        let mut other = t.clone();
        other.title = "different".into();
        let parts = vec![
            (ShardSpec::new(0, 2), t.clone()),
            (ShardSpec::new(1, 2), other),
        ];
        assert!(merge_tables(parts).is_err());
        // Duplicate shard index.
        let parts = vec![
            (ShardSpec::new(0, 2), t.clone()),
            (ShardSpec::new(0, 2), t.clone()),
        ];
        assert!(merge_tables(parts).is_err());
        assert!(merge_tables(Vec::new()).is_err());
    }

    #[test]
    fn sharded_demand_sweep_merges_byte_identically() {
        // The real contract behind the CI smoke step: run the (fully
        // deterministic) demand target unsharded and as two shards; the
        // merged JSON must equal the unsharded JSON byte for byte.
        let (full, _) = crate::demand_sweep(0.005, 1, ShardSpec::full());
        let parts: Vec<_> = (0..2)
            .map(|i| {
                let shard = ShardSpec::new(i, 2);
                (shard, crate::demand_sweep(0.005, 1, shard).0)
            })
            .collect();
        let merged = merge_tables(parts).expect("merge");
        assert_eq!(merged.to_json(), full.to_json());
    }

    #[test]
    fn merge_target_dir_reads_shard_files() {
        let dir = std::env::temp_dir().join(format!("rdcn-shard-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let full = sample_table();
        for i in 0..2usize {
            let shard = ShardSpec::new(i, 2);
            let part = SimpleTable {
                title: full.title.clone(),
                columns: full.columns.clone(),
                rows: full
                    .rows
                    .iter()
                    .enumerate()
                    .filter(|(r, _)| shard.owns(*r))
                    .map(|(_, row)| row.clone())
                    .collect(),
                statuses: Vec::new(),
            };
            std::fs::write(
                dir.join(shard_file_name("BENCH", "demo", shard)),
                part.to_json(),
            )
            .expect("write shard");
        }
        let (merged, paths) = merge_target_dir(&dir, "demo").expect("merge dir");
        assert_eq!(paths.len(), 2);
        assert_eq!(merged.to_json(), full.to_json());
        assert!(merge_target_dir(&dir, "absent").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_target_dir_names_the_offending_file() {
        let dir = std::env::temp_dir().join(format!("rdcn-shard-harden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let full = sample_table();

        // A truncated shard file: the error must carry the file name and
        // the byte offset the parser tripped on.
        let name0 = shard_file_name("BENCH", "mangled", ShardSpec::new(0, 2));
        let json = full.to_json();
        std::fs::write(dir.join(&name0), &json[..json.len() / 2]).expect("write");
        let err = merge_target_dir(&dir, "mangled").unwrap_err();
        assert!(err.contains(&name0), "{err}");
        assert!(err.contains("byte"), "{err}");
        // Truncated inside a string (a row label): the same two facts.
        let cut = json.find("row2").expect("a row label") + 2;
        std::fs::write(dir.join(&name0), &json[..cut]).expect("write");
        let err = merge_target_dir(&dir, "mangled").unwrap_err();
        assert!(err.contains(&name0), "{err}");
        assert!(err.contains(&format!("at byte {cut}")), "{err}");

        // Mixed shard counts: both file names appear in the error.
        std::fs::write(dir.join(&name0), &json).expect("write");
        let name1 = shard_file_name("BENCH", "mangled", ShardSpec::new(1, 3));
        std::fs::write(dir.join(&name1), &json).expect("write");
        let err = merge_target_dir(&dir, "mangled").unwrap_err();
        assert!(err.contains("mixed shard counts"), "{err}");
        assert!(err.contains(&name0) && err.contains(&name1), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
