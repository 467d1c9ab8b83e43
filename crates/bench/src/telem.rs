//! `TELEM_*` artifacts: naming, parsing, shard merging and the diffable
//! projection.
//!
//! `repro_figures --telemetry DIR <target>` drains the global
//! [`dcn_telemetry::Telemetry`] handle once per target and writes the
//! snapshot as `TELEM_<target>.json` (plus a Prometheus-text twin,
//! `TELEM_<target>.prom`). Sharded runs write
//! `TELEM_<target>.shard-i-of-m.json`, and `--merge-json` folds the shard
//! snapshots back together with [`Snapshot::absorb`] — counters sum,
//! gauges max, histogram buckets sum — which is associative and
//! commutative, so the merge is order-independent.
//!
//! Unlike `BENCH_*` tables, telemetry snapshots are **not** byte-stable
//! across run shapes: wall-clock histograms and per-worker busy/idle
//! counters move with machine load and thread interleaving. The CI
//! shard-vs-unsharded check therefore compares the [`projection`] — the
//! event counters that determinism does guarantee (everything except
//! per-worker splits and `*_ns` time sums) plus each histogram's total
//! observation count.

use dcn_core::sweep::ShardSpec;
use dcn_telemetry::Snapshot;
use dcn_util::json::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File name of one shard's telemetry artifact for `target`.
pub fn telem_shard_file_name(target: &str, shard: ShardSpec) -> String {
    format!(
        "TELEM_{target}.shard-{}-of-{}.json",
        shard.index(),
        shard.count()
    )
}

/// File name of the merged (= unsharded) telemetry artifact for `target`.
pub fn telem_file_name(target: &str) -> String {
    format!("TELEM_{target}.json")
}

/// File name of the Prometheus-text twin for `target`.
pub fn telem_prom_file_name(target: &str) -> String {
    format!("TELEM_{target}.prom")
}

fn as_i64(v: &JsonValue) -> Option<i64> {
    match *v {
        JsonValue::Uint(u) => i64::try_from(u).ok(),
        JsonValue::Int(i) => Some(i),
        _ => None,
    }
}

/// Parses the JSON that [`Snapshot::to_json`] emits back into the
/// `(target, snapshot)` pair. Derived fields (`p50`/`p90`/`p99`) are
/// ignored — they are recomputed from the buckets on re-serialization,
/// which is what makes merging commute with export.
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
    for (name, v) in root
        .get("gauges")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"gauges\"")?
    {
        let v = as_i64(v).ok_or_else(|| format!("gauge {name:?}: not an i64"))?;
        snap.gauges.insert(name.clone(), v);
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
            hs.buckets.push((b as u8, c));
        }
        if hs.buckets.iter().map(|&(_, c)| c).sum::<u64>() != hs.count {
            return Err(format!(
                "histogram {name:?}: bucket counts don't sum to count"
            ));
        }
        snap.histograms.insert(name.clone(), hs);
    }
    Ok((target, snap))
}

/// Scans `dir` for `target`'s telemetry shard files, parses and absorbs
/// them into one snapshot, and returns it with the paths consumed.
/// Validates the same partition invariants as the `BENCH_*` merge: a
/// consistent shard count, no duplicates, no gaps.
pub fn merge_target_dir(dir: &Path, target: &str) -> Result<(Snapshot, Vec<PathBuf>), String> {
    let prefix = format!("TELEM_{target}.shard-");
    let mut parts: Vec<(ShardSpec, Snapshot)> = Vec::new();
    let mut paths = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(spec) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        let Some((i, m)) = spec.split_once("-of-") else {
            return Err(format!("malformed telemetry shard file name {name:?}"));
        };
        let shard = ShardSpec::parse(&format!("{i}/{m}"))
            .map_err(|e| format!("telemetry shard file {name:?}: {e}"))?;
        let text = std::fs::read_to_string(entry.path()).map_err(|e| format!("{name}: {e}"))?;
        let (file_target, snap) = parse_snapshot(&text).map_err(|e| format!("{name}: {e}"))?;
        if file_target != target {
            return Err(format!(
                "{name}: tagged for target {file_target:?}, expected {target:?}"
            ));
        }
        parts.push((shard, snap));
        paths.push(entry.path());
    }
    let count = parts
        .first()
        .map(|(s, _)| s.count())
        .ok_or_else(|| format!("no {prefix}*.json shard files in {}", dir.display()))?;
    let mut seen = vec![false; count];
    let mut merged = Snapshot::default();
    for (shard, snap) in &parts {
        if shard.count() != count {
            return Err(format!(
                "inconsistent telemetry shard counts: {} vs {count}",
                shard.count()
            ));
        }
        if std::mem::replace(&mut seen[shard.index()], true) {
            return Err(format!("duplicate telemetry shard {shard}"));
        }
        merged.absorb(snap);
    }
    if let Some(i) = seen.iter().position(|&s| !s) {
        return Err(format!("missing telemetry shard {i}-of-{count}"));
    }
    paths.sort();
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
/// table of counters and gauges, one of histogram percentiles.
pub fn summary_table(snapshot: &Snapshot) -> String {
    let mut s = String::new();
    if !snapshot.counters.is_empty() || !snapshot.gauges.is_empty() {
        s.push_str("| metric | value |\n|---|---:|\n");
        for (k, v) in &snapshot.counters {
            s.push_str(&format!("| {k} | {v} |\n"));
        }
        for (k, v) in &snapshot.gauges {
            s.push_str(&format!("| {k} (gauge) | {v} |\n"));
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
    use dcn_telemetry::{Histogram, Telemetry};

    fn sample_snapshot(scale: u64) -> Snapshot {
        let t = Telemetry::enabled();
        t.add_counter("serve.requests", 100 * scale);
        t.add_counter("sweep.worker.0.steals", 3 * scale);
        t.add_counter("sweep.worker.0.busy_ns", 999 * scale);
        t.gauge_max("intra.imbalance_pct", 12 * scale as i64);
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
    }

    #[test]
    fn shard_merge_round_trips_and_validates() {
        let dir = std::env::temp_dir().join(format!("rdcn-telem-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (sample_snapshot(1), sample_snapshot(3));
        let s0 = ShardSpec::parse("0/2").unwrap();
        let s1 = ShardSpec::parse("1/2").unwrap();
        std::fs::write(
            dir.join(telem_shard_file_name("demand", s0)),
            a.to_json("demand"),
        )
        .unwrap();
        std::fs::write(
            dir.join(telem_shard_file_name("demand", s1)),
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
        std::fs::remove_file(dir.join(telem_shard_file_name("demand", s1))).unwrap();
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
        assert!(s.contains("(gauge)"));
    }
}
