//! Metric names, units and their computation from passes and spans.

use crate::spans::{attribute, totals, Span, LAYERS, ROOT};
use crate::workload::PassOutcome;
use dcn_telemetry::Snapshot;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_mreqs", "Mreq/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced runs): name, unit. A layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("topology.build_ms", "ms"),
    ("traces.fill_ns_per_req", "ns/req"),
    ("traces.fill_share", "ratio"),
    ("traces.materialize_s", "s"),
    ("sim.self_ns_per_req", "ns/req"),
    ("sim.serve_mreqs", "Mreq/s"),
    ("rbma.serve_ns_per_req", "ns/req"),
    ("bma.serve_ns_per_req", "ns/req"),
    ("serve.chunk_p50_us", "us"),
    ("serve.chunk_p99_us", "us"),
    ("rbma.specials_share", "ratio"),
    ("rbma.fast_gate_ratio", "ratio"),
    ("rbma.divert_ratio", "ratio"),
    ("bma.hit_ratio", "ratio"),
    ("sim.reconfig_per_kreq", "1/kreq"),
    ("sim.matched_share", "ratio"),
    ("sweep.wall_s", "s"),
    ("sweep.efficiency", "ratio"),
    ("sweep.steals", "count"),
    ("offline.so_bma_s", "s"),
    ("offline.share", "ratio"),
    ("fig.panel_a_s", "s"),
    ("fig.panel_b_s", "s"),
    ("fig.panel_c_s", "s"),
    ("trace.overhead_pct", "%"),
    ("share.topology_pct", "%"),
    ("share.traces_pct", "%"),
    ("share.algorithms_pct", "%"),
    ("share.simulator_pct", "%"),
    ("share.sweep_pct", "%"),
    ("share.offline_pct", "%"),
    ("share.figures_pct", "%"),
    ("share.unattributed_pct", "%"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Per-layer metrics of one traced pass (all but `topology.build_ms` and
/// `trace.overhead_pct`, which span passes).
pub fn layer_metrics(
    spans: &[Span],
    telemetry: &Snapshot,
    pass: &PassOutcome,
) -> BTreeMap<&'static str, f64> {
    let t = totals(spans);
    let ns = |name: &str| t.get(name).map_or(0.0, |e| e.1 as f64);
    let count = |name: &str| t.get(name).map_or(0.0, |e| e.2 as f64);
    let calls = |name: &str| t.get(name).map_or(0.0, |e| e.0 as f64);
    let counter = |name: &str| telemetry.counters.get(name).copied().unwrap_or(0) as f64;
    let serve_names: Vec<&str> = t
        .keys()
        .copied()
        .filter(|n| n.starts_with("serve."))
        .collect();
    let serve_ns: f64 = serve_names.iter().map(|n| ns(n)).sum();
    let served: f64 = serve_names.iter().map(|n| count(n)).sum();

    let mut chunks: Vec<u64> = spans
        .iter()
        .filter(|s| s.name.starts_with("serve."))
        .map(Span::dur_ns)
        .collect();
    chunks.sort_unstable();
    let pct = |p: usize| {
        chunks
            .get((chunks.len() * p / 100).min(chunks.len().saturating_sub(1)))
            .map_or(0.0, |&v| v as f64 / 1e3)
    };

    let (mut busy, mut capacity) = (0.0, 0.0);
    for s in spans {
        if s.name == "sweep" {
            capacity += s.workers as f64 * s.dur_ns() as f64;
        } else if s.parent != ROOT && spans[s.parent as usize].name == "sweep" {
            busy += s.dur_ns() as f64;
        }
    }
    let steals: u64 = telemetry
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("sweep.worker.") && k.ends_with(".steals"))
        .map(|(_, v)| v)
        .sum();

    let reports: Vec<_> = pass.jobs.iter().filter_map(|(_, r)| r.as_ref()).collect();
    let sum = |f: fn(&dcn_core::Checkpoint) -> u64| {
        reports.iter().map(|r| f(&r.total) as f64).sum::<f64>()
    };
    let requests = sum(|c| c.requests);
    let stopwatch: f64 = reports.iter().map(|r| r.total.elapsed_secs).sum();

    let wall_ns: f64 = spans
        .iter()
        .filter(|s| s.parent == ROOT)
        .map(|s| s.dur_ns() as f64)
        .sum();
    let panel = |name: &str| ns(name) / 1e9;

    let mut m = BTreeMap::new();
    m.insert(
        "traces.fill_ns_per_req",
        ratio(ns("traces.fill"), count("traces.fill")),
    );
    m.insert("traces.fill_share", ratio(ns("traces.fill"), ns("job")));
    m.insert("traces.materialize_s", ns("traces.materialize") / 1e9);
    m.insert(
        "sim.self_ns_per_req",
        ratio(ns("sim.run") - ns("traces.fill") - serve_ns, served),
    );
    m.insert("sim.serve_mreqs", ratio(requests, stopwatch) / 1e6);
    m.insert(
        "rbma.serve_ns_per_req",
        ratio(ns("serve.rbma"), count("serve.rbma")),
    );
    m.insert(
        "bma.serve_ns_per_req",
        ratio(ns("serve.bma"), count("serve.bma")),
    );
    m.insert("serve.chunk_p50_us", pct(50));
    m.insert("serve.chunk_p99_us", pct(99));
    m.insert(
        "rbma.specials_share",
        ratio(counter("rbma.specials"), count("serve.rbma")),
    );
    m.insert(
        "rbma.fast_gate_ratio",
        ratio(counter("rbma.fast_specials"), counter("rbma.specials")),
    );
    m.insert(
        "rbma.divert_ratio",
        ratio(counter("rbma.unsorted_diverts"), calls("serve.rbma")),
    );
    m.insert(
        "bma.hit_ratio",
        ratio(counter("bma.hits"), count("serve.bma")),
    );
    m.insert(
        "sim.reconfig_per_kreq",
        1e3 * ratio(sum(|c| c.reconfigurations), requests),
    );
    m.insert(
        "sim.matched_share",
        ratio(sum(|c| c.matched_requests), requests),
    );
    m.insert("sweep.wall_s", ns("sweep") / 1e9);
    m.insert("sweep.efficiency", ratio(busy, capacity));
    m.insert("sweep.steals", steals as f64);
    m.insert("offline.so_bma_s", ns("offline.so_bma") / 1e9);
    m.insert("offline.share", ratio(ns("offline.so_bma"), wall_ns));
    m.insert("fig.panel_a_s", panel("fig.panel_a"));
    m.insert("fig.panel_b_s", panel("fig.panel_b"));
    m.insert("fig.panel_c_s", panel("fig.panel_c"));
    for ((_, name), secs) in LAYERS.iter().zip(attribute(spans)) {
        m.insert(name, 100.0 * ratio(secs * 1e9, wall_ns));
    }
    m
}

/// The layer-share table of one traced pass: self time by layer, summing to
/// the pass's wall time, with the remainder `unattributed`.
pub fn share_table(spans: &[Span]) -> String {
    let by_layer = attribute(spans);
    let wall: f64 = by_layer.iter().sum();
    let mut out = String::from("| layer | self time (s) | share |\n|---|---|---|\n");
    for ((layer, _), secs) in LAYERS.iter().zip(&by_layer) {
        out += &format!(
            "| {layer} | {secs:.4} | {:.1}% |\n",
            100.0 * ratio(*secs, wall)
        );
    }
    out += &format!("| total (pass wall) | {wall:.4} | 100.0% |\n");
    out
}

/// The result line: `correct`, `attempted`, `failed` and each metric with
/// its unit.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .chain(crate::workload::Workload::ALL.map(|w| w.name()))
            .collect();
        for name in &names {
            assert!(valid(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for (_, name) in LAYERS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = dcn_util::json::parse_json(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_json(
            3,
            0,
            &[("wall_s".into(), 1.25, "s"), ("x".into(), f64::NAN, "s")],
        );
        let v = dcn_util::json::parse_json(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|x| x.as_str()), Some("s"));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
