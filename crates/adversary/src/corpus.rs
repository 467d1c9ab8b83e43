//! Regression-corpus entries: discovered adversarial genomes frozen as
//! JSON together with the **exact** costs their replay must reproduce.
//!
//! An entry is self-contained: algorithm tag, topology scale, (b, α),
//! seeds, the genome, and the expected online/offline costs. The tier-1
//! test `tests/corpus_replay.rs` loads every `corpus/*.json`, re-runs it
//! through [`crate::evaluate`], and demands bit-exact agreement — any
//! behavioural drift in the simulator, the algorithms, the RNG streams,
//! or the genome lowering fails the build with a copy-pasteable report.
//!
//! Beyond the replay gate, the corpus is a standing benchmark input: the
//! `scaling` target replays every entry as serve-path equality rows, and
//! `fig1`/`demand` append it as a replay-gated worst-case panel table
//! (each entry re-verified via [`CorpusEntry::verify`] before its row is
//! computed).

use crate::search::{evaluate, search_topology};
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::ratio::RatioOutcome;
use dcn_traces::Genome;
use dcn_util::json::{parse_json, to_json_string, JsonValue};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// The committed corpus directory (`crates/adversary/corpus/`).
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Loads every committed `corpus/*.json` entry, sorted by file name.
/// Panics on unreadable or malformed files — a broken corpus should fail
/// loudly wherever it is consumed (the tier-1 replay gate, the scaling
/// table's worst-case panel).
pub fn committed_entries() -> Vec<(String, CorpusEntry)> {
    let mut out = Vec::new();
    for dirent in std::fs::read_dir(corpus_dir()).expect("corpus directory exists") {
        let path = dirent.expect("readable corpus dirent").path();
        if path.extension().is_some_and(|x| x == "json") {
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            let entry = CorpusEntry::from_json(&text)
                .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, entry));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// One frozen adversarial discovery.
#[derive(Clone, Debug, Serialize)]
pub struct CorpusEntry {
    /// Algorithm tag, parseable by [`parse_kind`].
    pub algorithm: String,
    /// Rack count of the leaf-spine evaluation topology.
    pub num_racks: usize,
    /// Matching degree b.
    pub b: usize,
    /// Reconfiguration cost α.
    pub alpha: u64,
    /// Seed of the algorithm under attack.
    pub algo_seed: u64,
    /// Expected online routing cost.
    pub expected_routing_cost: u64,
    /// Expected online reconfiguration cost.
    pub expected_reconfig_cost: u64,
    /// Expected number of reconfigurations.
    pub expected_reconfigurations: u64,
    /// Expected SO-BMA routing cost (the ratio denominator).
    pub expected_offline_cost: u64,
    /// The achieved ratio (informational; the u64 fields are the pins).
    pub ratio: f64,
    /// The hand-written star nemesis ratio at the same scale when this
    /// entry was harvested (informational).
    pub star_baseline: f64,
    /// The genome itself.
    pub genome: Genome,
}

/// Parses an algorithm tag: `Oblivious`, `Bma`, `RbmaLazy`, `RbmaStrict`,
/// `Rotor:<period>`, `Periodic:<period>`, with `period ≥ 1`. Any other tag,
/// including those of retired algorithms, is `None`. (The demand-aware
/// baseline needs forecast matrices and is not corpus-expressible.)
pub fn parse_kind(tag: &str) -> Option<AlgorithmKind> {
    match tag {
        "Oblivious" => return Some(AlgorithmKind::Oblivious),
        "Bma" => return Some(AlgorithmKind::Bma),
        "RbmaLazy" => return Some(AlgorithmKind::Rbma { lazy: true }),
        "RbmaStrict" => return Some(AlgorithmKind::Rbma { lazy: false }),
        _ => {}
    }
    let (name, arg) = tag.split_once(':')?;
    let period = arg.parse().ok().filter(|&p| p >= 1)?;
    match name {
        "Rotor" => Some(AlgorithmKind::Rotor { period }),
        "Periodic" => Some(AlgorithmKind::Periodic { period }),
        _ => None,
    }
}

/// The corpus tag for a kind (inverse of [`parse_kind`]); `None` for
/// kinds that cannot be expressed as a tag.
pub fn kind_tag(kind: &AlgorithmKind) -> Option<String> {
    Some(match kind {
        AlgorithmKind::Oblivious => "Oblivious".into(),
        AlgorithmKind::Bma => "Bma".into(),
        AlgorithmKind::Rbma { lazy: true } => "RbmaLazy".into(),
        AlgorithmKind::Rbma { lazy: false } => "RbmaStrict".into(),
        AlgorithmKind::Rotor { period } => format!("Rotor:{period}"),
        AlgorithmKind::Periodic { period } => format!("Periodic:{period}"),
        AlgorithmKind::DemandAware { .. } => return None,
    })
}

impl CorpusEntry {
    /// Freezes an evaluation outcome as a corpus entry.
    pub fn from_outcome(
        kind: &AlgorithmKind,
        num_racks: usize,
        b: usize,
        alpha: u64,
        algo_seed: u64,
        star_baseline: f64,
        genome: Genome,
        outcome: &RatioOutcome,
    ) -> Self {
        CorpusEntry {
            algorithm: kind_tag(kind).expect("corpus-expressible algorithm"),
            num_racks,
            b,
            alpha,
            algo_seed,
            expected_routing_cost: outcome.online.total.routing_cost,
            expected_reconfig_cost: outcome.online.total.reconfig_cost,
            expected_reconfigurations: outcome.online.total.reconfigurations,
            expected_offline_cost: outcome.offline_cost,
            ratio: outcome.ratio,
            star_baseline,
            genome,
        }
    }

    /// Compact JSON form.
    pub fn to_json(&self) -> String {
        to_json_string(self).expect("corpus entry serialization cannot fail")
    }

    /// Parses [`CorpusEntry::to_json`] output back. An entry [`verify`]
    /// could not replay is an `Err` naming the field: an unknown tag,
    /// `b` outside `1..num_racks`, `alpha` outside `1..=u32::MAX`, or a
    /// genome over a different rack count. The α bound is R-BMA's period
    /// counter, and for every tag it keeps the replay's reconfiguration
    /// cost `alpha · reconfigurations` within a `u64` below 2³²
    /// reconfigurations.
    ///
    /// [`verify`]: CorpusEntry::verify
    pub fn from_json(text: &str) -> Result<CorpusEntry, String> {
        let v = parse_json(text)?;
        let req_u64 = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("corpus entry: missing u64 field {key}"))
        };
        let entry = CorpusEntry {
            algorithm: v
                .get("algorithm")
                .and_then(JsonValue::as_str)
                .ok_or("corpus entry: missing string field algorithm")?
                .to_string(),
            num_racks: v
                .get("num_racks")
                .and_then(JsonValue::as_usize)
                .ok_or("corpus entry: missing integer field num_racks")?,
            b: v.get("b")
                .and_then(JsonValue::as_usize)
                .ok_or("corpus entry: missing integer field b")?,
            alpha: req_u64("alpha")?,
            algo_seed: req_u64("algo_seed")?,
            expected_routing_cost: req_u64("expected_routing_cost")?,
            expected_reconfig_cost: req_u64("expected_reconfig_cost")?,
            expected_reconfigurations: req_u64("expected_reconfigurations")?,
            expected_offline_cost: req_u64("expected_offline_cost")?,
            ratio: v
                .get("ratio")
                .and_then(JsonValue::as_f64)
                .ok_or("corpus entry: missing number field ratio")?,
            star_baseline: v
                .get("star_baseline")
                .and_then(JsonValue::as_f64)
                .ok_or("corpus entry: missing number field star_baseline")?,
            genome: Genome::from_value(
                v.get("genome")
                    .ok_or("corpus entry: missing field genome")?,
            )?,
        };
        entry.check_replayable()?;
        Ok(entry)
    }

    /// The ranges [`CorpusEntry::verify`]'s replay needs to run without a
    /// panic or an oversized allocation.
    fn check_replayable(&self) -> Result<(), String> {
        parse_kind(&self.algorithm).ok_or_else(|| {
            format!(
                "corpus entry: field algorithm = {:?} is not a known tag",
                self.algorithm
            )
        })?;
        if self.b == 0 || self.b >= self.num_racks {
            return Err(format!(
                "corpus entry: field b = {} not in 1..{} (num_racks)",
                self.b, self.num_racks
            ));
        }
        if !(1..=u64::from(u32::MAX)).contains(&self.alpha) {
            return Err(format!(
                "corpus entry: field alpha = {} not in 1..={}",
                self.alpha,
                u32::MAX
            ));
        }
        if self.genome.num_racks != self.num_racks {
            return Err(format!(
                "corpus entry: field genome.num_racks = {} differs from num_racks = {}",
                self.genome.num_racks, self.num_racks
            ));
        }
        Ok(())
    }

    /// Replays the entry and demands exact cost agreement.
    ///
    /// The error message is a full, copy-pasteable replay recipe: every
    /// parameter plus the genome JSON.
    pub fn verify(&self) -> Result<RatioOutcome, String> {
        let kind = parse_kind(&self.algorithm)
            .ok_or_else(|| format!("unknown algorithm tag {:?}", self.algorithm))?;
        let dm = search_topology(self.num_racks);
        let out = evaluate(&kind, &dm, self.b, self.alpha, self.algo_seed, &self.genome);
        let got = (
            out.online.total.routing_cost,
            out.online.total.reconfig_cost,
            out.online.total.reconfigurations,
            out.offline_cost,
        );
        let want = (
            self.expected_routing_cost,
            self.expected_reconfig_cost,
            self.expected_reconfigurations,
            self.expected_offline_cost,
        );
        if got != want {
            return Err(format!(
                "corpus replay mismatch for {} (num_racks={}, b={}, alpha={}, algo_seed={}):\n\
                 expected (routing, reconfig, reconfigurations, offline) = {want:?}\n\
                 got      (routing, reconfig, reconfigurations, offline) = {got:?}\n\
                 replay genome JSON: {}",
                self.algorithm,
                self.num_racks,
                self.b,
                self.alpha,
                self.algo_seed,
                self.genome.to_json()
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{star_nemesis_genome, SearchConfig};

    #[test]
    fn kind_tags_round_trip() {
        for kind in [
            AlgorithmKind::Oblivious,
            AlgorithmKind::Bma,
            AlgorithmKind::Rbma { lazy: true },
            AlgorithmKind::Rbma { lazy: false },
            AlgorithmKind::Rotor { period: 50 },
            AlgorithmKind::Periodic { period: 200 },
        ] {
            let tag = kind_tag(&kind).unwrap();
            assert_eq!(parse_kind(&tag), Some(kind), "tag {tag}");
        }
        assert!(parse_kind("NoSuchAlgorithm").is_none());
        assert!(parse_kind("Rotor:notanumber").is_none());
        assert!(parse_kind("PredictiveRbma:0.5").is_none());
        assert!(parse_kind("Rotor:0").is_none());
    }

    /// One mangled copy of a committed entry per field: each must be an
    /// `Err` naming that field, where it used to panic or abort in replay.
    #[test]
    fn from_json_rejects_entries_replay_cannot_run() {
        let read = |name: &str| std::fs::read_to_string(corpus_dir().join(name)).unwrap();
        let (rotor, rbma) = (read("rotor_50.json"), read("rbma_lazy.json"));
        let periodic = read("periodic_100.json");
        let mangle = |text: &str, from: &str, to: &str| {
            assert_eq!(text.matches(from).count(), 1, "{from} must occur once");
            text.replacen(from, to, 1)
        };
        for (text, from, to, field) in [
            (&rotor, r#""Rotor:50""#, r#""Rotor:0""#, "algorithm"),
            (&rotor, r#""Rotor:50""#, r#""Periodic:0""#, "algorithm"),
            (&rotor, r#""b":2,"#, r#""b":0,"#, "b"),
            (&rotor, r#""b":2,"#, r#""b":8,"#, "b"),
            (&rotor, r#""b":2,"#, r#""b":10000000000000,"#, "b"),
            (&rotor, r#""alpha":10,"#, r#""alpha":0,"#, "alpha"),
            (&rbma, r#""alpha":10,"#, r#""alpha":0,"#, "alpha"),
            (&rbma, r#""alpha":10,"#, r#""alpha":4294967296,"#, "alpha"),
            (&rotor, r#""alpha":10,"#, r#""alpha":4294967296,"#, "alpha"),
            // 2⁶²: `alpha · reconfigurations` overflowed in replay.
            (
                &periodic,
                r#""alpha":10,"#,
                r#""alpha":4611686018427387904,"#,
                "alpha",
            ),
            (
                &rotor,
                r#"8,"segments""#,
                r#"16,"segments""#,
                "genome.num_racks",
            ),
        ] {
            let err = CorpusEntry::from_json(&mangle(text, from, to)).unwrap_err();
            assert!(err.contains(&format!("field {field} = ")), "{to}: {err}");
        }
        // The bounds are inclusive, and the u32 bound holds for every tag.
        for (text, from, to) in [
            (&rbma, r#""alpha":10,"#, r#""alpha":4294967295,"#),
            (&rotor, r#""alpha":10,"#, r#""alpha":4294967295,"#),
            (&rotor, r#""b":2,"#, r#""b":7,"#),
        ] {
            CorpusEntry::from_json(&mangle(text, from, to)).expect("in-range entry loads");
        }
    }

    #[test]
    fn entry_round_trips_and_verifies() {
        let cfg = SearchConfig::quick(13);
        let genome = star_nemesis_genome(&cfg);
        let kind = AlgorithmKind::Bma;
        let dm = search_topology(cfg.num_racks);
        let out = evaluate(&kind, &dm, cfg.b, cfg.alpha, cfg.algo_seed, &genome);
        let entry = CorpusEntry::from_outcome(
            &kind,
            cfg.num_racks,
            cfg.b,
            cfg.alpha,
            cfg.algo_seed,
            out.ratio,
            genome,
            &out,
        );
        let back = CorpusEntry::from_json(&entry.to_json()).unwrap();
        assert_eq!(back.genome, entry.genome);
        assert_eq!(back.expected_routing_cost, entry.expected_routing_cost);
        back.verify().expect("fresh entry must replay exactly");
    }

    #[test]
    fn verify_reports_a_replayable_mismatch() {
        let cfg = SearchConfig::quick(17);
        let genome = star_nemesis_genome(&cfg);
        let kind = AlgorithmKind::Bma;
        let dm = search_topology(cfg.num_racks);
        let out = evaluate(&kind, &dm, cfg.b, cfg.alpha, cfg.algo_seed, &genome);
        let mut entry = CorpusEntry::from_outcome(
            &kind,
            cfg.num_racks,
            cfg.b,
            cfg.alpha,
            cfg.algo_seed,
            out.ratio,
            genome,
            &out,
        );
        entry.expected_routing_cost += 1;
        let err = entry.verify().unwrap_err();
        assert!(err.contains("corpus replay mismatch"), "{err}");
        assert!(err.contains("replay genome JSON: {"), "{err}");
    }
}
