//! Serializable run reports and cross-seed aggregation.

use dcn_util::json::JsonValue;
use serde::Serialize;

/// Cumulative state snapshot at a checkpoint (one x-axis point of the
/// paper's figures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct Checkpoint {
    /// Requests processed so far.
    pub requests: u64,
    /// Cumulative routing cost (1 per matched request, `ℓ_e` otherwise) —
    /// the y-axis of Figs. 1a–4a and 1c–4c.
    pub routing_cost: u64,
    /// Cumulative reconfiguration cost (α per matching change).
    pub reconfig_cost: u64,
    /// Number of matching-edge insertions + removals so far.
    pub reconfigurations: u64,
    /// Requests served over a matching edge so far.
    pub matched_requests: u64,
    /// Wall-clock seconds spent in the serve loop so far — the y-axis of
    /// Figs. 1b–4b.
    pub elapsed_secs: f64,
}

impl Checkpoint {
    /// Routing + reconfiguration cost (the objective of §1.1).
    pub fn total_cost(&self) -> u64 {
        self.routing_cost + self.reconfig_cost
    }

    /// Fraction of requests served over matching edges.
    pub fn matched_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.matched_requests as f64 / self.requests as f64
        }
    }

    /// Parses a checkpoint from a parsed JSON object (inverse of the
    /// `Serialize` impl; see [`RunReport::from_json`]).
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        let u = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("checkpoint field '{key}' missing or not an integer"))
        };
        Ok(Checkpoint {
            requests: u("requests")?,
            routing_cost: u("routing_cost")?,
            reconfig_cost: u("reconfig_cost")?,
            reconfigurations: u("reconfigurations")?,
            matched_requests: u("matched_requests")?,
            elapsed_secs: v
                .get("elapsed_secs")
                .and_then(JsonValue::as_f64)
                .ok_or("checkpoint field 'elapsed_secs' missing or not a number")?,
        })
    }
}

/// Full result of one simulation run.
///
/// Equality compares every field, wall clock included; compare
/// [`RunReport::without_wall_clock`] copies to ask whether two runs are
/// the same run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RunReport {
    /// Algorithm label (figure legend entry).
    pub algorithm: String,
    /// Trace name.
    pub trace: String,
    /// Degree bound b ("cache size" in the paper's terminology).
    pub b: usize,
    /// Reconfiguration cost α.
    pub alpha: u64,
    /// RNG seed of this run.
    pub seed: u64,
    /// Snapshots at the configured request counts.
    pub checkpoints: Vec<Checkpoint>,
    /// Final state (== last checkpoint if one lands on the trace end).
    pub total: Checkpoint,
}

impl RunReport {
    /// This report with every wall-clock field (each checkpoint's and the
    /// total's `elapsed_secs`) zeroed: what is left is a pure function of
    /// the run's seeds and inputs.
    pub fn without_wall_clock(&self) -> Self {
        let mut r = self.clone();
        for c in r.checkpoints.iter_mut().chain([&mut r.total]) {
            c.elapsed_secs = 0.0;
        }
        r
    }

    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        dcn_util::json::to_json_string(self).expect("report serialization cannot fail")
    }

    /// Parses a report back from [`RunReport::to_json`] output.
    ///
    /// The round trip is **exact**: integer fields parse as `u64`, and
    /// `elapsed_secs` survives because the writer emits the shortest
    /// round-trip decimal for finite floats. `from_json(r.to_json())`
    /// re-serializes to the identical bytes — the run journal's digest
    /// check and the `--resume` byte-identity contract both rest on this
    /// (pinned in tests).
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_json_value(&dcn_util::json::parse_json(text)?)
    }

    /// Parses a report from an already-parsed JSON object.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        let s = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report field '{key}' missing or not a string"))
        };
        let u = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("report field '{key}' missing or not an integer"))
        };
        let checkpoints = v
            .get("checkpoints")
            .and_then(JsonValue::as_array)
            .ok_or("report field 'checkpoints' missing or not an array")?
            .iter()
            .map(Checkpoint::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        let total =
            Checkpoint::from_json_value(v.get("total").ok_or("report field 'total' missing")?)?;
        Ok(RunReport {
            algorithm: s("algorithm")?,
            trace: s("trace")?,
            b: u("b")? as usize,
            alpha: u("alpha")?,
            seed: u("seed")?,
            checkpoints,
            total,
        })
    }
}

/// Mean ± stddev series aggregated over seeds (the paper averages 5 runs).
#[derive(Clone, Debug, Serialize)]
pub struct AveragedSeries {
    /// Legend label.
    pub label: String,
    /// X values (request counts).
    pub x: Vec<u64>,
    /// Mean y per checkpoint.
    pub y_mean: Vec<f64>,
    /// Sample standard deviation per checkpoint.
    pub y_std: Vec<f64>,
}

impl AveragedSeries {
    /// Aggregates one metric across reports that share checkpoints.
    ///
    /// Panics if the reports have inconsistent checkpoint grids.
    pub fn from_reports(
        label: impl Into<String>,
        reports: &[RunReport],
        metric: impl Fn(&Checkpoint) -> f64,
    ) -> Self {
        assert!(!reports.is_empty(), "need at least one report");
        let x: Vec<u64> = reports[0].checkpoints.iter().map(|c| c.requests).collect();
        let runs: Vec<Vec<f64>> = reports
            .iter()
            .map(|r| {
                let rx: Vec<u64> = r.checkpoints.iter().map(|c| c.requests).collect();
                assert_eq!(rx, x, "checkpoint grids differ between runs");
                r.checkpoints.iter().map(&metric).collect()
            })
            .collect();
        Self::from_runs(label, x, &runs)
    }

    /// Aggregates runs given as y values: `runs[r][i]` is run `r`'s y at
    /// `x[i]`.
    pub fn from_runs(label: impl Into<String>, x: Vec<u64>, runs: &[Vec<f64>]) -> Self {
        let (y_mean, y_std) = (0..x.len())
            .map(|i| {
                let samples: Vec<f64> = runs.iter().map(|r| r[i]).collect();
                let s = dcn_util::summarize(&samples);
                (s.mean, s.stddev)
            })
            .unzip();
        Self {
            label: label.into(),
            x,
            y_mean,
            y_std,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_report(costs: &[u64]) -> RunReport {
        let checkpoints: Vec<Checkpoint> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| Checkpoint {
                requests: (i as u64 + 1) * 100,
                routing_cost: c,
                ..Default::default()
            })
            .collect();
        RunReport {
            algorithm: "X".into(),
            trace: "t".into(),
            b: 6,
            alpha: 10,
            seed: 0,
            total: *checkpoints.last().unwrap(),
            checkpoints,
        }
    }

    #[test]
    fn checkpoint_helpers() {
        let c = Checkpoint {
            requests: 10,
            routing_cost: 30,
            reconfig_cost: 5,
            matched_requests: 4,
            ..Default::default()
        };
        assert_eq!(c.total_cost(), 35);
        assert!((c.matched_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn averaging_across_seeds() {
        let a = mk_report(&[100, 200]);
        let b = mk_report(&[120, 240]);
        let s = AveragedSeries::from_reports("R-BMA", &[a, b], |c| c.routing_cost as f64);
        assert_eq!(s.x, vec![100, 200]);
        assert_eq!(s.y_mean, vec![110.0, 220.0]);
        assert!(s.y_std[0] > 0.0);
    }

    #[test]
    fn json_emission() {
        let r = mk_report(&[1]);
        let j = r.to_json();
        assert!(j.contains("\"algorithm\":\"X\""));
        assert!(j.contains("\"routing_cost\":1"));
    }

    #[test]
    fn json_round_trip_is_byte_exact() {
        // The journal contract: parse(to_json) re-serializes identically,
        // including an "ugly" float elapsed and max-range integers.
        let mut r = mk_report(&[17, u64::MAX]);
        r.seed = u64::MAX;
        r.total.elapsed_secs = 0.1 + 0.2; // 0.30000000000000004
        r.checkpoints[0].elapsed_secs = 1.0 / 3.0;
        let j = r.to_json();
        let back = RunReport::from_json(&j).unwrap();
        assert_eq!(back.to_json(), j, "round trip must be byte-identical");
        assert_eq!(back.seed, u64::MAX);
        assert_eq!(back.checkpoints.len(), 2);
    }

    #[test]
    fn from_json_names_the_missing_field() {
        let err = RunReport::from_json("{\"algorithm\":\"X\"}").unwrap_err();
        assert!(
            err.contains("checkpoints"),
            "error should name the field: {err}"
        );
        assert!(RunReport::from_json("not json").is_err());
    }

    #[test]
    #[should_panic(expected = "checkpoint grids differ")]
    fn mismatched_grids_detected() {
        let a = mk_report(&[1, 2]);
        let b = mk_report(&[1]);
        AveragedSeries::from_reports("x", &[a, b], |c| c.routing_cost as f64);
    }
}
