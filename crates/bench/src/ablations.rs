//! Ablation experiments (DESIGN.md §4, Abl. A–E): the design-choice probes
//! that complement the paper's headline figures.

use crate::{FigureSpec, Workload};
use dcn_core::algorithms::rbma::{Rbma, RemovalMode};
use dcn_core::algorithms::static_offline::so_bma_series;
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::sweep::{run_jobs, steal_map, Job, ShardSpec};
use dcn_core::OnlineScheduler;
use dcn_topology::{builders, DistanceMatrix, Pair};
use dcn_util::json::JsonValue;
use dcn_util::rngx::derive_seed;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use std::sync::Arc;

/// A generic result table (rows × named columns).
#[derive(Clone, Debug, Default)]
pub struct SimpleTable {
    /// Table caption.
    pub title: String,
    /// Column headers (excluding the row-label column).
    pub columns: Vec<String>,
    /// (row label, one value per column).
    pub rows: Vec<(String, Vec<f64>)>,
    /// Sparse per-row degradation notes `(row index, status)`, sorted by
    /// row index — populated when supervised execution quarantined one of
    /// the jobs behind a row, so partial artifacts degrade *visibly*.
    pub statuses: Vec<(usize, String)>,
}

// Hand-written so the `statuses` field is emitted only when non-empty:
// failure-free artifacts keep their historical bytes (the shard-merge and
// kill-and-resume identity gates diff artifacts byte-for-byte).
impl Serialize for SimpleTable {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let fields = 3 + usize::from(!self.statuses.is_empty());
        let mut s = serializer.serialize_struct("SimpleTable", fields)?;
        s.serialize_field("title", &self.title)?;
        s.serialize_field("columns", &self.columns)?;
        s.serialize_field("rows", &self.rows)?;
        if !self.statuses.is_empty() {
            s.serialize_field("statuses", &self.statuses)?;
        }
        s.end()
    }
}

impl SimpleTable {
    /// Compact JSON rendering (for machine-readable bench summaries, e.g.
    /// the CI smoke run's `BENCH_demand.json`).
    pub fn to_json(&self) -> String {
        dcn_util::json::to_json_string(self).expect("table serialization cannot fail")
    }

    /// Reads what [`SimpleTable::to_json`] writes back, exactly:
    /// `title`, `columns` and `rows` are required, `statuses` is optional
    /// and any other key is an error. Each row is `[label, [cells]]`, and a
    /// `null` cell reads as NaN, since the emitter writes every non-finite
    /// cell as `null`. Cells parse with `str::parse`, which recovers the
    /// identical `f64` from the emitter's shortest-round-trip output, so
    /// `from_json(to_json(t)).to_json()` is byte-identical.
    pub fn from_json(text: &str) -> Result<SimpleTable, String> {
        fn string(v: &JsonValue, what: &str) -> Result<String, String> {
            v.as_str()
                .map(str::to_string)
                .ok_or(format!("table {what}: not a string"))
        }
        fn array<'a>(v: &'a JsonValue, what: &str) -> Result<&'a [JsonValue], String> {
            v.as_array().ok_or(format!("table {what}: not an array"))
        }
        fn pair<'a>(v: &'a JsonValue, what: &str) -> Result<[&'a JsonValue; 2], String> {
            match array(v, what)? {
                [a, b] => Ok([a, b]),
                _ => Err(format!("table {what}: not a pair")),
            }
        }
        fn cell(v: &JsonValue) -> Result<f64, String> {
            match v {
                JsonValue::Null => Ok(f64::NAN),
                v => v.as_f64().ok_or("table cell: not a number".to_string()),
            }
        }

        if let Some(msg) = dcn_util::failpoint::eval("shard.parse") {
            return Err(msg);
        }
        let root = dcn_util::json::parse_json(text)?;
        let fields = root.as_object().ok_or("table JSON: not an object")?;
        let (mut title, mut columns, mut rows) = (None, None, None);
        let mut statuses = Vec::new();
        for (key, v) in fields {
            match key.as_str() {
                "title" => title = Some(string(v, "title")?),
                "columns" => {
                    let names = array(v, "columns")?.iter().map(|c| string(c, "column"));
                    columns = Some(names.collect::<Result<_, _>>()?);
                }
                "rows" => {
                    let mut parsed = Vec::new();
                    for row in array(v, "rows")? {
                        let [label, cells] = pair(row, "row")?;
                        let cells = array(cells, "row cells")?.iter().map(cell);
                        parsed.push((
                            string(label, "row label")?,
                            cells.collect::<Result<_, _>>()?,
                        ));
                    }
                    rows = Some(parsed);
                }
                "statuses" => {
                    for status in array(v, "statuses")? {
                        let [row, note] = pair(status, "status")?;
                        let row = row.as_usize().ok_or("table status: row not an index")?;
                        statuses.push((row, string(note, "status note")?));
                    }
                }
                other => return Err(format!("unexpected key {other:?} in table JSON")),
            }
        }
        Ok(SimpleTable {
            title: title.ok_or("table JSON missing \"title\"")?,
            columns: columns.ok_or("table JSON missing \"columns\"")?,
            rows: rows.ok_or("table JSON missing \"rows\"")?,
            statuses,
        })
    }

    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = write!(out, "| |");
        for c in &self.columns {
            let _ = write!(out, " {c} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.columns {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "| {label} |");
            for v in values {
                // Non-finite cells are deliberate "not applicable" markers
                // (e.g. speedup on a 1-core host) — render them readably.
                if v.is_finite() {
                    let _ = write!(out, " {v:.4} |");
                } else {
                    let _ = write!(out, " n/a |");
                }
            }
            let _ = writeln!(out);
        }
        if !self.statuses.is_empty() {
            let _ = writeln!(out);
            for (i, note) in &self.statuses {
                let label = self.rows.get(*i).map_or("?", |(l, _)| l.as_str());
                let _ = writeln!(out, "> ⚠ row {label}: {note}");
            }
        }
        out
    }
}

/// Base configuration at `scale` times the nominal 200k-request workload
/// (`1.0` = full size; `repro_figures` passes `--scale / 20` under
/// `--fast`).
fn base_spec(scale: f64) -> FigureSpec {
    FigureSpec {
        id: "ablation",
        title: "ablation base (Facebook Database)",
        workload: Workload::FacebookDb,
        racks: 100,
        bs: vec![12],
        total_requests: 200_000,
        num_checkpoints: 4,
        alpha: 10,
        repetitions: 3,
    }
    .scaled_by(scale)
}

fn total_costs(
    spec: &FigureSpec,
    algorithm: AlgorithmKind,
    b: usize,
    alpha: u64,
    threads: usize,
) -> (f64, f64) {
    // Returns (mean routing cost, mean reconfig cost) across repetitions.
    // Each job streams its own trace; nothing is materialized.
    let dm = spec.distances();
    let jobs: Vec<Job> = (0..spec.repetitions)
        .map(|rep| Job {
            algorithm: algorithm.clone(),
            b,
            alpha,
            seed: derive_seed(0xAB1, rep),
            checkpoints: vec![],
            trace: spec.trace_spec(rep),
        })
        .collect();
    let reports = run_jobs(&dm, &jobs, threads);
    let n = spec.repetitions as f64;
    (
        reports
            .iter()
            .map(|r| r.total.routing_cost as f64)
            .sum::<f64>()
            / n,
        reports
            .iter()
            .map(|r| r.total.reconfig_cost as f64)
            .sum::<f64>()
            / n,
    )
}

/// Abl. A — reconfiguration-cost sweep: how α moves the rent-or-buy point.
/// `threads` feeds the work-stealing executor (`0` = auto); `shard`
/// selects which α rows (by original index) this invocation computes.
pub fn ablation_alpha(scale: f64, threads: usize, shard: ShardSpec) -> SimpleTable {
    let spec = base_spec(scale);
    let b = 12;
    let mut rows = Vec::new();
    for (i, alpha) in [1u64, 2, 5, 10, 20, 50, 100].into_iter().enumerate() {
        if !shard.owns(i) {
            continue;
        }
        let (r_rbma, c_rbma) =
            total_costs(&spec, AlgorithmKind::Rbma { lazy: true }, b, alpha, threads);
        let (r_bma, c_bma) = total_costs(&spec, AlgorithmKind::Bma, b, alpha, threads);
        rows.push((
            format!("α={alpha}"),
            vec![r_rbma, c_rbma, r_rbma + c_rbma, r_bma, c_bma, r_bma + c_bma],
        ));
    }
    SimpleTable {
        title: format!(
            "Ablation A: α sweep (FB-DB, b={b}, {} requests)",
            spec.total_requests
        ),
        columns: vec![
            "R-BMA routing".into(),
            "R-BMA reconfig".into(),
            "R-BMA total".into(),
            "BMA routing".into(),
            "BMA reconfig".into(),
            "BMA total".into(),
        ],
        rows,
        statuses: Vec::new(),
    }
}

/// Abl. B — resource augmentation: online R-BMA with degree b versus the
/// *offline static* optimum restricted to degree a ≤ b (the (b,a) setting
/// of the analysis). `threads`/`shard` follow the table-target convention.
pub fn ablation_augmentation(scale: f64, threads: usize, shard: ShardSpec) -> SimpleTable {
    let spec = base_spec(scale);
    let b = 12;
    let dm = spec.distances();
    let a_values = [2usize, 4, 6, 8, 10, 12];
    // The R-BMA baseline is shared by every row: skip it entirely when this
    // shard owns no rows (an empty slice must cost nothing).
    let rbma_total = if (0..a_values.len()).any(|i| shard.owns(i)) {
        let (routing, reconfig) = total_costs(
            &spec,
            AlgorithmKind::Rbma { lazy: true },
            b,
            spec.alpha,
            threads,
        );
        routing + reconfig
    } else {
        0.0
    };
    let mut rows = Vec::new();
    for (i, a) in a_values.into_iter().enumerate() {
        if !shard.owns(i) {
            continue;
        }
        let mut so = 0.0;
        for rep in 0..spec.repetitions {
            let trace = spec.trace(rep);
            so += so_bma_series(&dm, &trace.requests, a, &[trace.requests.len()])[0].1 as f64;
        }
        so /= spec.repetitions as f64;
        rows.push((format!("a={a}"), vec![so, rbma_total, rbma_total / so]));
    }
    SimpleTable {
        title: format!(
            "Ablation B: (b,a)-augmentation (online R-BMA b={b} vs offline degree-a static)"
        ),
        columns: vec![
            "SO-BMA(a) routing".into(),
            "R-BMA total".into(),
            "ratio".into(),
        ],
        rows,
        statuses: Vec::new(),
    }
}

/// Abl. C — spatial-skew sweep: routing-cost reduction vs the oblivious
/// baseline as a function of the Zipf exponent. `threads`/`shard` follow
/// the table-target convention.
pub fn ablation_skew(scale: f64, threads: usize, shard: ShardSpec) -> SimpleTable {
    let mut rows = Vec::new();
    for (i, s) in [0.6, 0.9, 1.2, 1.5, 1.8].into_iter().enumerate() {
        if !shard.owns(i) {
            continue;
        }
        let spec = FigureSpec {
            workload: Workload::Zipf(s),
            ..base_spec(scale)
        };
        let b = 12;
        let (rbma, _) = total_costs(
            &spec,
            AlgorithmKind::Rbma { lazy: true },
            b,
            spec.alpha,
            threads,
        );
        let (obl, _) = total_costs(&spec, AlgorithmKind::Oblivious, b, spec.alpha, threads);
        rows.push((format!("s={s}"), vec![obl, rbma, 1.0 - rbma / obl]));
    }
    SimpleTable {
        title: "Ablation C: skew sweep (Zipf exponent vs R-BMA's routing-cost reduction, b=12)"
            .into(),
        columns: vec!["Oblivious".into(), "R-BMA".into(), "reduction".into()],
        rows,
        statuses: Vec::new(),
    }
}

/// Abl. E — lazy vs strict removals (footnote 2 of the paper).
/// `threads`/`shard` follow the table-target convention.
pub fn ablation_removal(scale: f64, threads: usize, shard: ShardSpec) -> SimpleTable {
    let spec = base_spec(scale);
    let mut rows = Vec::new();
    for (i, b) in [6usize, 12, 18].into_iter().enumerate() {
        if !shard.owns(i) {
            continue;
        }
        let (r_lazy, c_lazy) = total_costs(
            &spec,
            AlgorithmKind::Rbma { lazy: true },
            b,
            spec.alpha,
            threads,
        );
        let (r_strict, c_strict) = total_costs(
            &spec,
            AlgorithmKind::Rbma { lazy: false },
            b,
            spec.alpha,
            threads,
        );
        rows.push((
            format!("b={b}"),
            vec![r_lazy, r_strict, r_strict - r_lazy, c_lazy, c_strict],
        ));
    }
    SimpleTable {
        title: "Ablation E: lazy vs strict removal mode (FB-DB)".into(),
        columns: vec![
            "routing lazy".into(),
            "routing strict".into(),
            "strict - lazy".into(),
            "reconfig lazy".into(),
            "reconfig strict".into(),
        ],
        rows,
        statuses: Vec::new(),
    }
}

/// Abl. D — the power of randomization: excess cost of deterministic BMA
/// (driven by an adaptive chaser) vs randomized R-BMA (oblivious uniform
/// blocks) on the §2.4 star-of-pairs nemesis, as b grows.
///
/// All requests target pairs `{0, v}` on a leaf-spine (ℓ ≡ 2), in blocks
/// long enough to cross both algorithms' buy thresholds. `excess` is the
/// total cost above the all-matched ideal (`1` per request); the
/// deterministic excess grows ≈ linearly in b while the randomized one
/// grows ≈ logarithmically, so the ratio grows ≈ b/log b.
pub fn lower_bound_gap(scale: f64, threads: usize, shard: ShardSpec) -> SimpleTable {
    assert!(scale > 0.0);
    let alpha = 10u64;
    let num_blocks = ((2000.0 * scale).round() as usize).max(200);
    // Each row drives adversarial serve loops sequentially (the chaser is
    // adaptive), but the rows are independent — fan the owned rows out over
    // `threads` workers (`0` = auto) like every other grid.
    let owned: Vec<usize> = [2usize, 4, 8, 16]
        .into_iter()
        .enumerate()
        .filter(|(i, _)| shard.owns(*i))
        .map(|(_, b)| b)
        .collect();
    let compute_row = |b: usize| -> (String, Vec<f64>) {
        let spokes = b + 1;
        let n = spokes + 1;
        let net = builders::leaf_spine(n, 2);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let block_len = alpha as usize; // ≥ buy threshold for ℓ=2

        // Deterministic BMA vs adaptive chaser.
        let mut bma = dcn_core::algorithms::bma::Bma::new(dm.clone(), b, alpha);
        let excess_bma =
            drive_star_blocks(&mut bma, &dm, alpha, spokes, block_len, num_blocks, None);

        // Randomized R-BMA vs oblivious uniform blocks (3 seeds).
        let mut excess_rbma = 0.0;
        let seeds = 3;
        for seed in 0..seeds {
            let mut rbma = Rbma::new(dm.clone(), b, alpha, RemovalMode::Lazy, seed);
            excess_rbma += drive_star_blocks(
                &mut rbma,
                &dm,
                alpha,
                spokes,
                block_len,
                num_blocks,
                Some(derive_seed(0xD00, seed)),
            );
        }
        excess_rbma /= seeds as f64;

        (
            format!("b={b}"),
            vec![excess_bma, excess_rbma, excess_bma / excess_rbma.max(1.0)],
        )
    };
    let rows = steal_map(owned.len(), threads, |k| compute_row(owned[k]));
    SimpleTable {
        title: format!(
            "Ablation D: deterministic vs randomized excess cost on the star nemesis \
             (α={alpha}, {num_blocks} blocks)"
        ),
        columns: vec!["BMA excess".into(), "R-BMA excess".into(), "ratio".into()],
        rows,
        statuses: Vec::new(),
    }
}

/// Feeds block requests to a scheduler. With `rng_seed = None`, plays the
/// adaptive chaser (next block targets a pair missing from the matching);
/// otherwise picks the spoke uniformly at random. Returns the cost in
/// excess of the all-matched ideal (1/request).
fn drive_star_blocks<S: OnlineScheduler + ?Sized>(
    scheduler: &mut S,
    dm: &DistanceMatrix,
    alpha: u64,
    spokes: usize,
    block_len: usize,
    num_blocks: usize,
    rng_seed: Option<u64>,
) -> f64 {
    let mut rng = rng_seed.map(SmallRng::seed_from_u64);
    let mut total = 0u64;
    for blk in 0..num_blocks {
        let spoke = match &mut rng {
            Some(rng) => rng.random_range(1..=spokes as u32),
            None => (1..=spokes as u32)
                .find(|&v| !scheduler.matching().contains(Pair::new(0, v)))
                .unwrap_or((blk % spokes) as u32 + 1),
        };
        let pair = Pair::new(0, spoke);
        for _ in 0..block_len {
            let out = scheduler.serve(pair);
            total += if out.was_matched {
                1
            } else {
                dm.ell(pair) as u64
            };
            total += alpha * (out.added + out.removed) as u64;
        }
    }
    total as f64 - (num_blocks * block_len) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_table_shape() {
        let t = ablation_alpha(0.02, 1, ShardSpec::full());
        assert_eq!(t.rows.len(), 7);
        assert_eq!(t.columns.len(), 6);
        // Reconfig cost at α=1 must be positive for both algorithms.
        assert!(t.rows[0].1[1] > 0.0 && t.rows[0].1[4] > 0.0);
        let md = t.to_markdown();
        assert!(md.contains("α=1"));
    }

    #[test]
    fn augmentation_ratio_decreases_with_a() {
        let t = ablation_augmentation(0.02, 1, ShardSpec::full());
        // SO-BMA with larger a can only do better (rows report its cost in
        // column 0): monotone non-increasing.
        let costs: Vec<f64> = t.rows.iter().map(|(_, v)| v[0]).collect();
        assert!(costs.windows(2).all(|w| w[1] <= w[0] * 1.001), "{costs:?}");
    }

    #[test]
    fn skew_reduction_increases_with_s() {
        let t = ablation_skew(0.02, 2, ShardSpec::full());
        let first = t.rows.first().expect("rows").1[2];
        let last = t.rows.last().expect("rows").1[2];
        assert!(
            last > first,
            "more skew should mean more reduction: {first} -> {last}"
        );
    }

    #[test]
    fn removal_mode_lazy_not_worse_routing() {
        let t = ablation_removal(0.02, 1, ShardSpec::full());
        for (label, v) in &t.rows {
            // Keeping edges longer can only reduce routing cost: strict ≥ lazy
            // (allow 2% noise).
            assert!(
                v[1] >= v[0] * 0.98,
                "{label}: strict {} vs lazy {}",
                v[1],
                v[0]
            );
        }
    }

    #[test]
    fn lower_bound_gap_grows_with_b() {
        let t = lower_bound_gap(0.1, 2, ShardSpec::full());
        let ratios: Vec<f64> = t.rows.iter().map(|(_, v)| v[2]).collect();
        assert!(
            ratios.last().expect("rows") > ratios.first().expect("rows"),
            "deterministic/randomized gap should widen with b: {ratios:?}"
        );
    }
}
