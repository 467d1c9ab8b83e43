//! The repository benchmark. See `README.md` next to this file.
//!
//! ```text
//! perfbench --workload <zipf-a10|zipf-a100|fig1|all> [--seed N] [--seconds S]
//!           [--trace 0|1] [--reps R]
//! perfbench pin
//! ```
//!
//! One workload per process: set up several times, then run passes until
//! `--seconds` have elapsed, check every output, and print one JSON result
//! line last. `--trace 1` alternates untraced and traced passes and reports
//! the per-layer metrics instead. `--workload all` runs every workload `R`
//! times round-robin, each run in a fresh process, and prints medians.
//! `pin` prints the digests to pin at the default seed.

mod check;
mod metrics;
mod spans;
mod workload;

use check::Bounds;
use metrics::{median, END_TO_END, PER_LAYER};
use spans::SpanLog;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workload::{prepare, run_pass, Scale, Workload, DEFAULT_SEED};

/// Set-ups before the first pass, and before every pass after it, so they
/// sample the same stretch of machine time as the passes; `setup_s` is the
/// fastest of them.
const SETUPS_FIRST: usize = 9;
const SETUPS_PER_PASS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <zipf-a10|zipf-a100|fig1|all> [--seed N] \
                     [--seconds S] [--trace 0|1] [--reps R]\n       perfbench pin";

struct Opts {
    /// `None` = all workloads.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reps: 3,
    };
    let mut seen_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                seen_workload = true;
                opts.workload = match value {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or_else(bad)?),
                };
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--reps" => opts.reps = value.parse().ok().filter(|&r| r > 0).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seen_workload {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin") {
        return pin();
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.workload {
        Some(w) => measure(w, &opts),
        None => run_all(&opts),
    }
}

/// One workload in this process; prints the result line last.
fn measure(w: Workload, opts: &Opts) -> ExitCode {
    let (mut setup_s, mut topology_s) = (Vec::new(), Vec::new());
    let mut set_up = |times: usize| {
        let mut prepared = None;
        for _ in 0..times {
            let t0 = Instant::now();
            let (p, topo) = prepare(w, opts.seed, Scale::FULL);
            setup_s.push(t0.elapsed().as_secs_f64());
            topology_s.push(topo);
            prepared = Some(p);
        }
        prepared.expect("at least one set-up")
    };
    let prepared = set_up(SETUPS_FIRST);
    let bounds = Bounds::new(&prepared);
    let pinned = Some(check::pinned(w)).filter(|p| opts.seed == DEFAULT_SEED && !p.is_empty());

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |pass: &workload::PassOutcome| {
        let (a, f, errors) = check::check_pass(pass, &bounds, pinned.as_deref());
        for e in errors.iter().take(5) {
            eprintln!("perfbench: {}: {e}", w.name());
        }
        attempted += a;
        failed += f;
    };

    let start = Instant::now();
    let seconds = opts.seconds;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !opts.trace {
        let mut walls = Vec::new();
        // Per sequential job (Zipf variant, position): requests and the
        // seconds of every pass that ran it.
        let mut job_secs: BTreeMap<(usize, usize), (u64, Vec<f64>)> = BTreeMap::new();
        while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
            if !walls.is_empty() {
                set_up(SETUPS_PER_PASS);
            }
            let pass = run_pass(&prepared, walls.len(), None);
            walls.push(pass.wall_s);
            for (k, &(requests, secs)) in pass.seq_jobs.iter().enumerate() {
                let e = job_secs
                    .entry((pass.variant, k))
                    .or_insert((requests, Vec::new()));
                e.1.push(secs);
            }
            tally(&pass);
        }
        eprintln!("perfbench: {}: {} passes", w.name(), walls.len());
        // Timings take the fastest run of each job, pass and set-up: other
        // tenants of a shared host only ever add time, in bursts that last
        // from seconds to minutes. Measured on a 2-core host, a run's
        // median spread 22% across seeds on `fig1` throughput and 29% on
        // `setup_s`, the fastest run 4% and 6%.
        let requests: u64 = job_secs.values().map(|(r, _)| r).sum();
        let secs: f64 = job_secs.values().map(|(_, s)| fastest(s)).sum();
        let values = [
            requests as f64 / secs / 1e6,
            fastest(&walls),
            fastest(&setup_s),
            metrics::peak_rss_mib(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
    } else {
        let telemetry = dcn_telemetry::Telemetry::enabled();
        let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
        let mut per_pass: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut last_spans = Vec::new();
        let mut round = 0;
        while traced_walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
            // Alternate which side runs first so order cannot bias overhead.
            for traced in [round % 2 == 1, round % 2 == 0] {
                if !traced {
                    let pass = run_pass(&prepared, round, None);
                    plain_walls.push(pass.wall_s);
                    tally(&pass);
                    continue;
                }
                dcn_telemetry::install_global(telemetry.clone());
                let log = SpanLog::new(Instant::now());
                let pass = run_pass(&prepared, round, Some(&log));
                dcn_telemetry::install_global(dcn_telemetry::Telemetry::disabled());
                let spans = log.into_spans();
                for (name, v) in metrics::layer_metrics(&spans, &telemetry.drain(), &pass) {
                    per_pass.entry(name).or_default().push(v);
                }
                traced_walls.push(pass.wall_s);
                tally(&pass);
                last_spans = spans;
            }
            round += 1;
        }
        per_pass.insert("topology.build_ms", vec![1e3 * fastest(&topology_s)]);
        per_pass.insert(
            "trace.overhead_pct",
            vec![100.0 * (fastest(&traced_walls) / fastest(&plain_walls) - 1.0)],
        );
        println!(
            "layer shares, {} (last of {} traced passes):\n{}",
            w.name(),
            traced_walls.len(),
            metrics::share_table(&last_spans)
        );
        let path = spans_path(w);
        if let Err(e) = write_spans(&path, &last_spans) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("spans: {path} ({} spans)", last_spans.len());
        for (name, unit) in PER_LAYER {
            let v = per_pass.get(name).map_or(0.0, |xs| median(xs));
            metrics.push((name.to_string(), v, unit));
        }
    }
    println!("{}", metrics::result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// The smallest sample.
fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Spans go next to the build output, which stays out of version control.
fn spans_path(w: Workload) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    format!("{dir}/perfbench-spans-{}.jsonl", w.name())
}

fn write_spans(path: &str, spans: &[spans::Span]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans::to_json_lines(spans))
}

/// Every workload `reps` times, round-robin, each run in a fresh process so
/// `peak_rss_mib` is per workload. Prints median and quartiles per metric.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut samples: BTreeMap<(usize, String), (Vec<f64>, String)> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for rep in 0..opts.reps {
        for (wi, w) in Workload::ALL.iter().enumerate() {
            eprintln!("perfbench: round {}/{}: {}", rep + 1, opts.reps, w.name());
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }]);
            let output = match cmd.output() {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!("perfbench: {} exited with {}", w.name(), o.status);
                    eprint!("{}", String::from_utf8_lossy(&o.stderr));
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let stdout = String::from_utf8_lossy(&output.stdout);
            let Some(v) = stdout
                .lines()
                .last()
                .and_then(|l| dcn_util::json::parse_json(l).ok())
            else {
                eprintln!("perfbench: {} printed no result line", w.name());
                return ExitCode::FAILURE;
            };
            attempted += v.get("attempted").and_then(|x| x.as_u64()).unwrap_or(0);
            failed += v.get("failed").and_then(|x| x.as_u64()).unwrap_or(1);
            for (name, m) in v.get("metrics").and_then(|m| m.as_object()).unwrap_or(&[]) {
                let value = m.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(|x| x.as_str()).unwrap_or("");
                let e = samples
                    .entry((wi, name.clone()))
                    .or_insert_with(|| (Vec::new(), unit.to_string()));
                e.0.push(value);
            }
        }
    }
    println!(
        "| workload | metric | median | q1 | q3 | runs | unit |\n|---|---|---|---|---|---|---|"
    );
    let mut summary = Vec::new();
    for ((wi, name), (values, unit)) in &samples {
        let mut v = values.clone();
        v.sort_by(f64::total_cmp);
        let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
        let w = Workload::ALL[*wi].name();
        println!(
            "| {w} | {name} | {:.4} | {:.4} | {:.4} | {} | {unit} |",
            median(values),
            q(0.25),
            q(0.75),
            values.len()
        );
        let unit: &str = unit;
        summary.push((format!("{w}.{name}"), median(values), unit));
    }
    println!("{}", metrics::result_json(attempted, failed, &summary));
    ExitCode::SUCCESS
}

/// Prints the digests to pin (`perfbench pin > perfbench/pinned.txt`), and
/// first checks that this benchmark's `fig1` series equal
/// `dcn_bench::run_panel`'s at the default seed, at paper scale.
fn pin() -> ExitCode {
    let mut lines = Vec::new();
    for w in Workload::ALL {
        let (prepared, _) = prepare(w, DEFAULT_SEED, Scale::FULL);
        let bounds = Bounds::new(&prepared);
        let variants = match &prepared {
            workload::Prepared::Zipf { variants, .. } => variants.len(),
            workload::Prepared::Fig1 { .. } => 1,
        };
        let mut k = 0;
        for index in 0..variants {
            let pass = run_pass(&prepared, index, None);
            let (_, failed, errors) = check::check_pass(&pass, &bounds, None);
            if failed > 0 {
                eprintln!("perfbench pin: {}: {errors:?}", w.name());
                return ExitCode::FAILURE;
            }
            if let workload::Prepared::Fig1 { spec, .. } = &prepared {
                let threads = workload::FIG1_THREADS;
                let mut want = dcn_bench::run_panel(spec, dcn_bench::Panel::RoutingCost, threads);
                want.extend(dcn_bench::run_panel(
                    spec,
                    dcn_bench::Panel::BestOf,
                    threads,
                ));
                if !workload::same_series(pass.series.as_deref().unwrap_or(&[]), &want) {
                    eprintln!("perfbench pin: fig1 series differ from run_panel's");
                    return ExitCode::FAILURE;
                }
            }
            for d in check::pass_digests(&pass) {
                let d = d.expect("checked pass has every output");
                lines.push(format!("{} {k} {d:016x}", w.name()));
                k += 1;
            }
        }
    }
    println!("{}", lines.join("\n"));
    ExitCode::SUCCESS
}
