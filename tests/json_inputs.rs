//! Every JSON input kind the workspace reads back, through its typed
//! reader and through `dcn_util::json::parse_json`, the one JSON reader
//! under all of them: a round trip that re-serializes to the same bytes,
//! and a mangled-input corpus (every truncation, single-byte overwrites,
//! a repeated key) that must come back as `Err`, never as a panic.

use dcn_bench::{telem, Ledger, SimpleTable};
use rdcn::adversary::CorpusEntry;
use rdcn::core::algorithms::AlgorithmKind;
use rdcn::core::{run, RunReport, SimConfig};
use rdcn::telemetry::{Histogram, Telemetry};
use rdcn::topology::{builders, DistanceMatrix};
use rdcn::traces::{uniform_trace, Genome};
use rdcn::util::json::parse_json;
use std::path::Path;
use std::sync::Arc;

/// One input kind: a document and its typed reader, which re-serializes
/// what it read.
struct Kind {
    name: String,
    document: String,
    reread: fn(&str) -> Result<String, String>,
}

fn kind(
    name: impl Into<String>,
    document: String,
    reread: fn(&str) -> Result<String, String>,
) -> Kind {
    Kind {
        name: name.into(),
        document,
        reread,
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn run_report() -> RunReport {
    let net = builders::fat_tree_with_racks(8);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let trace = uniform_trace(8, 2_000, 3);
    let mut scheduler = AlgorithmKind::Rbma { lazy: true }.build_online(dm.clone(), 2, 10, 7);
    let config = SimConfig {
        checkpoints: vec![500, 1_000, 2_000],
        ..Default::default()
    };
    run(scheduler.as_mut(), &dm, 10, &trace.requests, &config)
}

fn telemetry_snapshot() -> String {
    let t = Telemetry::enabled();
    t.add_counter("serve.requests", u64::MAX);
    t.add_counter("sweep.worker.0.busy_ns", 12_345);
    let mut h = Histogram::default();
    for v in [0, 1, 900, 1 << 40, u64::MAX] {
        h.record(v);
    }
    t.merge_histogram("serve.chunk_ns", &h);
    t.snapshot().to_json("demand")
}

fn table_with_statuses() -> SimpleTable {
    SimpleTable {
        title: "Demand: α = 10, \"quoted\" \\ tab\t".into(),
        columns: vec!["cost".into(), "ratio".into()],
        rows: vec![
            ("λ=0".into(), vec![2174.3333333333335, 2726.0]),
            ("edge".into(), vec![-0.0, f64::NAN, 1e20, 5e-324]),
        ],
        statuses: vec![(1, "1 of 4 jobs quarantined".into())],
    }
}

fn input_kinds() -> Vec<Kind> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut kinds = Vec::new();
    let mut corpus: Vec<_> = std::fs::read_dir(root.join("crates/adversary/corpus"))
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    corpus.sort();
    assert!(!corpus.is_empty(), "no committed corpus entries");
    for path in &corpus {
        kinds.push(kind(path.display().to_string(), read(path), |text| {
            CorpusEntry::from_json(text).map(|e| e.to_json())
        }));
    }
    // The longest committed genome mixes the most segment kinds.
    let genome = corpus
        .iter()
        .map(|path| {
            CorpusEntry::from_json(&read(path))
                .expect("corpus entry")
                .genome
        })
        .max_by_key(|g| g.to_json().len())
        .expect("a corpus genome");
    kinds.push(kind("genome", genome.to_json(), |text| {
        Genome::from_json(text).map(|g| g.to_json())
    }));
    kinds.push(kind(
        "ledger",
        read(&root.join("BENCH_LEDGER.json")),
        |text| Ledger::from_json(text).map(|l| l.to_json()),
    ));
    kinds.push(kind("run report", run_report().to_json(), |text| {
        RunReport::from_json(text).map(|r| r.to_json())
    }));
    kinds.push(kind("TELEM snapshot", telemetry_snapshot(), |text| {
        telem::parse_snapshot(text).map(|(target, snap)| snap.to_json(&target))
    }));
    kinds.push(kind("table", table_with_statuses().to_json(), |text| {
        SimpleTable::from_json(text).map(|t| t.to_json())
    }));
    kinds
}

#[test]
fn every_kind_round_trips_byte_identically() {
    for k in input_kinds() {
        // Committed files are the emitter's own bytes plus a newline.
        let doc = k.document.trim();
        let again = (k.reread)(doc).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        assert_eq!(again, doc, "{}: round trip changed bytes", k.name);
    }
}

#[test]
fn every_strict_prefix_is_an_error_naming_a_byte() {
    for k in input_kinds() {
        let doc = k.document.trim();
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            let prefix = &doc[..cut];
            let err = parse_json(prefix).expect_err("a strict prefix must not parse");
            assert!(err.contains("at byte"), "{} cut at {cut}: {err}", k.name);
            assert!(
                (k.reread)(prefix).is_err(),
                "{} cut at {cut}: typed reader accepted a prefix",
                k.name
            );
        }
    }
}

#[test]
fn overwriting_any_byte_never_panics() {
    for k in input_kinds() {
        let doc = k.document.trim();
        for evil in [b'{', b'}', b'"', b'\\', b',', b'x'] {
            for i in 0..doc.len() {
                let mut bytes = doc.as_bytes().to_vec();
                bytes[i] = evil;
                // Overwriting inside a multi-byte character leaves no &str.
                if let Ok(mutant) = String::from_utf8(bytes) {
                    let _ = parse_json(&mutant);
                    let _ = (k.reread)(&mutant);
                }
            }
        }
    }
}

#[test]
fn a_repeated_key_is_an_error() {
    for k in input_kinds() {
        let doc = k.document.trim();
        let key_end = doc[2..].find('"').expect("first key") + 3;
        let first_key = &doc[1..key_end];
        let mutant = format!("{{{first_key}:null,{}", &doc[1..]);
        let err = parse_json(&mutant).expect_err("repeated key");
        assert!(
            err.contains(&format!("duplicate key {first_key} at byte")),
            "{}: {err}",
            k.name
        );
        assert!((k.reread)(&mutant).is_err(), "{}", k.name);
    }
}
