//! `TELEM_*` artifacts: naming, parsing, shard merging and the diffable
//! projection.
//!
//! `repro_figures --telemetry DIR <target>` drains the global
//! [`dcn_telemetry::Telemetry`] handle once per target and writes the
//! snapshot as `TELEM_<target>.json` (plus a Prometheus-text twin,
//! `TELEM_<target>.prom`). Sharded runs write
//! `TELEM_<target>.shard-i-of-m.json` (named and collected by
//! [`crate::shard`], as the `BENCH_*` shards are), and `--merge-json` folds
//! the shard snapshots back together with [`Snapshot::absorb`]: counters
//! and histogram buckets sum, saturating at `u64::MAX`, which is
//! associative and commutative, so the merge is order-independent.
//!
//! Unlike `BENCH_*` tables, telemetry snapshots are **not** byte-stable
//! across run shapes: wall-clock histograms and per-worker busy/idle
//! counters move with machine load and thread interleaving. The CI
//! shard-vs-unsharded check therefore compares the [`projection`] — the
//! event counters that determinism does guarantee (everything except
//! per-worker splits and `*_ns` time sums) plus each histogram's total
//! observation count.

use crate::shard::read_shards;
use dcn_telemetry::Snapshot;
use dcn_util::json::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File name of the merged (= unsharded) telemetry artifact for `target`.
pub fn telem_file_name(target: &str) -> String {
    format!("TELEM_{target}.json")
}

/// File name of the Prometheus-text twin for `target`.
pub fn telem_prom_file_name(target: &str) -> String {
    format!("TELEM_{target}.prom")
}

/// Parses the JSON that [`Snapshot::to_json`] emits back into the
/// `(target, snapshot)` pair. Derived fields (`p50`/`p90`/`p99`) are
/// ignored — they are recomputed from the buckets on re-serialization,
/// which is what makes merging commute with export. So is the `gauges`
/// object that files written before gauges were dropped carry, which keeps
/// those files comparable under `--telemetry-diff`.
pub fn parse_snapshot(text: &str) -> Result<(String, Snapshot), String> {
    let root = parse_json(text)?;
    let target = root
        .get("target")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"target\"")?
        .to_string();
    let mut snap = Snapshot::default();
    for (name, v) in root
        .get("counters")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"counters\"")?
    {
        let v = v
            .as_u64()
            .ok_or_else(|| format!("counter {name:?}: not a u64"))?;
        snap.counters.insert(name.clone(), v);
    }
    for (name, h) in root
        .get("histograms")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"histograms\"")?
    {
        let field = |key: &str| {
            h.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("histogram {name:?}: bad {key:?}"))
        };
        let mut hs = dcn_telemetry::HistogramSnapshot {
            count: field("count")?,
            sum: field("sum")?,
            buckets: Vec::new(),
        };
        for pair in h
            .get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("histogram {name:?}: missing buckets"))?
        {
            let entry = pair.as_array().filter(|a| a.len() == 2);
            let (Some(b), Some(c)) = (
                entry.and_then(|a| a[0].as_u64()),
                entry.and_then(|a| a[1].as_u64()),
            ) else {
                return Err(format!("histogram {name:?}: malformed bucket entry"));
            };
            if b as usize >= dcn_telemetry::HIST_BUCKETS {
                return Err(format!("histogram {name:?}: bucket {b} out of range"));
            }
            // Percentiles walk the buckets in order, and `absorb` sorts
            // them, so an unsorted list would read differently once merged.
            if hs
                .buckets
                .last()
                .is_some_and(|&(last, _)| u64::from(last) >= b)
            {
                return Err(format!("histogram {name:?}: bucket {b} out of order"));
            }
            hs.buckets.push((b as u8, c));
        }
        let total = hs
            .buckets
            .iter()
            .try_fold(0u64, |sum, &(_, c)| sum.checked_add(c))
            .ok_or_else(|| format!("histogram {name:?}: bucket counts overflow u64"))?;
        if total != hs.count {
            return Err(format!(
                "histogram {name:?}: bucket counts don't sum to count"
            ));
        }
        snap.histograms.insert(name.clone(), hs);
    }
    Ok((target, snap))
}

/// Reads `target`'s `TELEM` shard files from `dir` (see [`read_shards`])
/// and absorbs them into one snapshot, returned with the paths consumed.
/// No shard file at all is the empty snapshot and no path.
pub fn merge_target_dir(dir: &Path, target: &str) -> Result<(Snapshot, Vec<PathBuf>), String> {
    let parse = |text: &str| match parse_snapshot(text)? {
        (file_target, snap) if file_target == target => Ok(snap),
        (file_target, _) => Err(format!(
            "tagged for target {file_target:?}, expected {target:?}"
        )),
    };
    let mut merged = Snapshot::default();
    let mut paths = Vec::new();
    for (_, path, snap) in read_shards(dir, "TELEM", target, parse)? {
        merged.absorb(&snap);
        paths.push(path);
    }
    Ok((merged, paths))
}

/// The deterministic projection of a snapshot: counters whose value does
/// not depend on thread scheduling or wall clock — every counter whose
/// name neither contains `.worker.` nor ends in `_ns` — plus each
/// histogram's total observation count (bucket *positions* move with
/// timing; the number of observations does not).
pub fn projection(snapshot: &Snapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (k, &v) in &snapshot.counters {
        if !k.contains(".worker.") && !k.ends_with("_ns") {
            out.insert(k.clone(), v);
        }
    }
    for (k, h) in &snapshot.histograms {
        out.insert(format!("{k}:count"), h.count);
    }
    out
}

/// Compares the deterministic projections of two snapshots; `Err` lists
/// every divergence (missing keys and value mismatches).
pub fn diff_projection(a: &Snapshot, b: &Snapshot) -> Result<(), String> {
    let (pa, pb) = (projection(a), projection(b));
    let mut lines = Vec::new();
    for (k, va) in &pa {
        match pb.get(k) {
            None => lines.push(format!("{k}: {va} vs <missing>")),
            Some(vb) if vb != va => lines.push(format!("{k}: {va} vs {vb}")),
            Some(_) => {}
        }
    }
    for (k, vb) in &pb {
        if !pa.contains_key(k) {
            lines.push(format!("{k}: <missing> vs {vb}"));
        }
    }
    if lines.is_empty() {
        Ok(())
    } else {
        Err(lines.join("\n"))
    }
}

/// Renders the human summary printed under each target: one markdown
/// table of counters, one of histogram percentiles.
pub fn summary_table(snapshot: &Snapshot) -> String {
    let mut s = String::new();
    if !snapshot.counters.is_empty() {
        s.push_str("| metric | value |\n|---|---:|\n");
        for (k, v) in &snapshot.counters {
            s.push_str(&format!("| {k} | {v} |\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        s.push_str("\n| histogram | count | p50 | p90 | p99 |\n|---|---:|---:|---:|---:|\n");
        for (k, h) in &snapshot.histograms {
            s.push_str(&format!(
                "| {k} | {} | {} | {} | {} |\n",
                h.count,
                h.percentile(50),
                h.percentile(90),
                h.percentile(99)
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_file_name;
    use dcn_core::sweep::ShardSpec;
    use dcn_telemetry::{Histogram, Telemetry};

    fn sample_snapshot(scale: u64) -> Snapshot {
        let t = Telemetry::enabled();
        t.add_counter("serve.requests", 100 * scale);
        t.add_counter("sweep.worker.0.steals", 3 * scale);
        t.add_counter("sweep.worker.0.busy_ns", 999 * scale);
        let mut h = Histogram::default();
        for v in 0..40 * scale {
            h.record(v * v);
        }
        t.merge_histogram("serve.chunk_ns", &h);
        t.snapshot()
    }

    #[test]
    fn json_round_trips_through_parse() {
        let snap = sample_snapshot(2);
        let (target, back) = parse_snapshot(&snap.to_json("demand")).unwrap();
        assert_eq!(target, "demand");
        assert_eq!(back.to_json("demand"), snap.to_json("demand"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_snapshot("{}").is_err());
        assert!(parse_snapshot("{\"target\":\"x\",\"counters\":{}}").is_err());
        // A bucket list that does not sum to `count`.
        let bad = "{\"target\":\"x\",\"counters\":{},\"gauges\":{},\
                   \"histograms\":{\"h\":{\"count\":5,\"sum\":1,\
                   \"p50\":1,\"p90\":1,\"p99\":1,\"buckets\":[[1,2]]}}}";
        assert!(parse_snapshot(bad).is_err());
        // Bucket counts whose sum wraps to `count` in u64 arithmetic.
        let wraps = "{\"target\":\"x\",\"counters\":{},\"histograms\":{\"h\":{\"count\":4,\
                     \"sum\":1,\"buckets\":[[1,18446744073709551615],[2,5]]}}}";
        let err = parse_snapshot(wraps).unwrap_err();
        assert!(
            err.contains("histogram \"h\"") && err.contains("overflow"),
            "{err}"
        );
        // Buckets out of order or repeated.
        for buckets in ["[[10,1],[1,1]]", "[[1,1],[1,1]]"] {
            let text = format!(
                "{{\"target\":\"x\",\"counters\":{{}},\"histograms\":{{\"h\":\
                 {{\"count\":2,\"sum\":0,\"buckets\":{buckets}}}}}}}"
            );
            let err = parse_snapshot(&text).unwrap_err();
            assert!(err.contains("out of order"), "{err}");
        }
    }

    #[test]
    fn huge_histogram_counts_load_and_serialize() {
        // `count * 99` exceeds u64, so percentiles rank in u128.
        let text = "{\"target\":\"x\",\"counters\":{},\"histograms\":{\"h\":{\
                    \"count\":200000000000000000,\"sum\":0,\
                    \"buckets\":[[3,200000000000000000]]}}}";
        let (_, snap) = parse_snapshot(text).unwrap();
        assert_eq!(snap.histograms["h"].percentile(99), 7);
        let json = snap.to_json("x");
        assert!(json.contains("\"p99\":7"), "{json}");
        assert!(summary_table(&snap).contains("| h | 200000000000000000 | 7 | 7 | 7 |"));
    }

    #[test]
    fn merged_counters_saturate_instead_of_wrapping() {
        let dir = std::env::temp_dir().join(format!("rdcn-telem-sat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = "{\"target\":\"demand\",\"counters\":{\"serve.requests\":9223372036854775808},\
                    \"gauges\":{},\"histograms\":{}}";
        for i in 0..2 {
            let name = shard_file_name("TELEM", "demand", ShardSpec::new(i, 2));
            std::fs::write(dir.join(name), text).unwrap();
        }
        let (merged, paths) = merge_target_dir(&dir, "demand").unwrap();
        assert_eq!(paths.len(), 2);
        assert_eq!(merged.counters["serve.requests"], u64::MAX);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_merge_round_trips_and_validates() {
        let dir = std::env::temp_dir().join(format!("rdcn-telem-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (sample_snapshot(1), sample_snapshot(3));
        let s0 = ShardSpec::parse("0/2").unwrap();
        let s1 = ShardSpec::parse("1/2").unwrap();
        std::fs::write(
            dir.join(shard_file_name("TELEM", "demand", s0)),
            a.to_json("demand"),
        )
        .unwrap();
        std::fs::write(
            dir.join(shard_file_name("TELEM", "demand", s1)),
            b.to_json("demand"),
        )
        .unwrap();

        let (merged, paths) = merge_target_dir(&dir, "demand").unwrap();
        assert_eq!(paths.len(), 2);
        let mut expect = Snapshot::default();
        expect.absorb(&a);
        expect.absorb(&b);
        assert_eq!(merged.to_json("demand"), expect.to_json("demand"));
        // Absorb order doesn't matter.
        let mut swapped = Snapshot::default();
        swapped.absorb(&b);
        swapped.absorb(&a);
        assert_eq!(merged.to_json("demand"), swapped.to_json("demand"));

        // A missing shard is a hard error.
        std::fs::remove_file(dir.join(shard_file_name("TELEM", "demand", s1))).unwrap();
        let err = merge_target_dir(&dir, "demand").unwrap_err();
        assert!(err.contains("missing telemetry shard 1-of-2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn projection_keeps_deterministic_counters_only() {
        let p = projection(&sample_snapshot(1));
        assert_eq!(p.get("serve.requests"), Some(&100));
        assert_eq!(p.get("serve.chunk_ns:count"), Some(&40));
        assert!(!p.contains_key("sweep.worker.0.steals"));
        assert!(!p.contains_key("sweep.worker.0.busy_ns"));
        assert!(!p.contains_key("intra.imbalance_pct"));
    }

    #[test]
    fn diff_projection_reports_divergence() {
        let (a, b) = (sample_snapshot(1), sample_snapshot(2));
        assert!(diff_projection(&a, &a).is_ok());
        let err = diff_projection(&a, &b).unwrap_err();
        assert!(err.contains("serve.requests: 100 vs 200"), "{err}");
    }

    #[test]
    fn summary_table_lists_counters_and_percentiles() {
        let s = summary_table(&sample_snapshot(1));
        assert!(s.contains("| serve.requests | 100 |"));
        assert!(s.contains("| serve.chunk_ns |"));
    }
}
