//! One pass per figure: `figure_pass` runs every job of `figure_jobs` once
//! and reads panels (a), (b) and (c) from the same reports.
//!
//! `dcn_core::total_served()` counts process-wide, so every test that
//! serves requests holds `LOCK`, and the pass under test runs once, under
//! it.

use dcn_bench::{figure_jobs, figure_pass, FigureSpec};
use dcn_core::report::AveragedSeries;
use dcn_core::sweep::{run_jobs, run_jobs_sequential, with_threads};
use dcn_core::total_served;
use std::sync::{Mutex, MutexGuard, OnceLock};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn spec() -> FigureSpec {
    FigureSpec::by_id("fig1").expect("fig1 exists").scaled(100)
}

/// Fig. 1 at 1/100 scale: the pass's panels (a), (b), (c), and the
/// requests it served.
fn pass() -> &'static ([Vec<AveragedSeries>; 3], u64) {
    static PASS: OnceLock<([Vec<AveragedSeries>; 3], u64)> = OnceLock::new();
    PASS.get_or_init(|| {
        let _g = locked();
        let before = total_served();
        let panels = figure_pass(&spec(), 2);
        (panels, total_served() - before)
    })
}

/// A series' y values as bits, so equality is bit for bit.
fn bits(s: &AveragedSeries) -> (Vec<u64>, Vec<u64>) {
    let b = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect();
    (b(&s.y_mean), b(&s.y_std))
}

fn labels(panel: &[AveragedSeries]) -> Vec<&str> {
    panel.iter().map(|s| s.label.as_str()).collect()
}

#[test]
fn each_job_serves_its_requests_once() {
    let spec = spec();
    let (_, served) = pass();
    // R-BMA and BMA at every b, then Oblivious, each grid served once:
    // re-running any panel's jobs (say panel (c)'s at the largest b) adds
    // grids here.
    let grids = 2 * spec.bs.len() as u64 + 1;
    let want = grids * spec.repetitions * spec.total_requests as u64;
    assert_eq!(*served, want);
    let listed: u64 = figure_jobs(&spec)
        .iter()
        .map(|j| j.trace.len() as u64)
        .sum();
    assert_eq!(listed, want);
}

#[test]
fn the_panels_are_views_of_one_pass() {
    let spec = spec();
    let [a, b, c] = &pass().0;
    // Panel (c)'s online series are panel (a)'s at the largest b.
    let largest = format!("(b: {})", spec.bs.last().expect("non-empty b sweep"));
    let at_largest: Vec<&AveragedSeries> =
        a.iter().filter(|s| s.label.ends_with(&largest)).collect();
    assert_eq!(at_largest.len(), 2);
    assert_eq!(c.len(), 3);
    for (got, want) in c.iter().zip(at_largest) {
        assert_eq!(got.label, want.label);
        assert_eq!(got.x, want.x);
        assert_eq!(bits(got), bits(want), "{}", got.label);
    }
    assert_eq!(c[2].label, format!("SO-BMA {largest}"));
    // Panel (b) times panel (a)'s online entries, on the same grid.
    assert_eq!(a.last().expect("panel (a)").label, "Oblivious");
    assert_eq!(labels(b), labels(&a[..a.len() - 1]));
    for s in b.iter().chain(c) {
        assert_eq!(s.x, a[0].x, "{}", s.label);
    }
}

/// The final means, pinned with the panels run one at a time.
#[test]
fn final_means_are_unchanged() {
    let [a, _, c] = &pass().0;
    let finals = |panel: &[AveragedSeries]| -> Vec<(String, f64)> {
        let last = |s: &AveragedSeries| *s.y_mean.last().expect("checkpoints");
        panel.iter().map(|s| (s.label.clone(), last(s))).collect()
    };
    let pinned = |rows: &[(&str, f64)]| -> Vec<(String, f64)> {
        rows.iter().map(|&(l, y)| (l.to_string(), y)).collect()
    };
    assert_eq!(
        finals(a),
        pinned(&[
            ("R-BMA (b: 6)", 9658.5),
            ("R-BMA (b: 12)", 8916.0),
            ("R-BMA (b: 18)", 8690.0),
            ("BMA (b: 6)", 9535.0),
            ("BMA (b: 12)", 8867.0),
            ("BMA (b: 18)", 8648.5),
            ("Oblivious", 13509.0),
        ])
    );
    assert_eq!(
        finals(c),
        pinned(&[
            ("R-BMA (b: 18)", 8690.0),
            ("BMA (b: 18)", 8648.5),
            ("SO-BMA (b: 18)", 4650.0),
        ])
    );
}

#[test]
fn panel_a_averages_the_fanned_out_reports() {
    let [a, _, _] = &pass().0;
    let _g = locked();
    let spec = spec();
    let dm = spec.distances();
    let jobs = figure_jobs(&spec);
    // The jobs fanned out over two workers are the same runs as one after
    // another on one thread, so panel (a) averages either.
    let fanned = run_jobs(&dm, &jobs, 2);
    let one_by_one = with_threads(1, || run_jobs_sequential(&dm, &jobs));
    for (k, (x, y)) in fanned.iter().zip(&one_by_one).enumerate() {
        assert_eq!(x.without_wall_clock(), y.without_wall_clock(), "job {k}");
    }
    let reps = spec.repetitions as usize;
    assert_eq!(a.len() * reps, jobs.len());
    for (series, entry) in a.iter().zip(fanned.chunks(reps)) {
        let want = AveragedSeries::from_reports(&series.label, entry, |c| c.routing_cost as f64);
        assert_eq!(bits(series), bits(&want), "{}", series.label);
    }
}
