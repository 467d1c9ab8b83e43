//! Telemetry must be a pure observer: for every scheduler and batch size,
//! a run with an enabled `Telemetry` handle must produce
//! an **identical** `RunReport` (`RunReport::without_wall_clock`: wall
//! clock is the one field defined to vary) to the same run with telemetry
//! disabled.
//! RNG streams, cost accounting and checkpoint grids may not shift by one
//! event. Alongside the identity, the enabled run must actually have
//! recorded something, so the property cannot pass vacuously.

use dcn_core::algorithms::bma::Bma;
use dcn_core::algorithms::oblivious::Oblivious;
use dcn_core::algorithms::rbma::{Rbma, RemovalMode};
use dcn_core::algorithms::rotor::Rotor;
use dcn_core::{run, OnlineScheduler, RunReport, SimConfig};
use dcn_telemetry::Telemetry;
use dcn_topology::{builders, DistanceMatrix, Pair};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic skewed trace from an xorshift stream (hot pairs repeat,
/// so hits, buys, evictions and specials all fire).
fn make_trace(n: u32, len: usize, seed: u64) -> Vec<Pair> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..len)
        .map(|_| {
            // Square the draw to skew toward low rack ids.
            let a = ((next() % n as u64) * (next() % n as u64) / n as u64) as u32;
            let mut b = (next() % n as u64) as u32;
            if a == b {
                b = (b + 1) % n;
            }
            Pair::new(a, b)
        })
        .collect()
}

/// The report serialization with wall-clock (the one legitimately varying
/// field) zeroed everywhere.
type Factory = Box<dyn Fn() -> Box<dyn OnlineScheduler>>;

fn factories(dm: &Arc<DistanceMatrix>) -> Vec<(&'static str, Factory)> {
    let n = dm.num_racks();
    let d = |f: fn(Arc<DistanceMatrix>) -> Box<dyn OnlineScheduler>| {
        let dm = Arc::clone(dm);
        Box::new(move || f(dm.clone())) as Factory
    };
    vec![
        (
            "rbma-lazy",
            d(|dm| Box::new(Rbma::new(dm, 3, 10, RemovalMode::Lazy, 7))),
        ),
        (
            "rbma-strict",
            d(|dm| Box::new(Rbma::new(dm, 3, 10, RemovalMode::Strict, 7))),
        ),
        ("bma", d(|dm| Box::new(Bma::new(dm, 3, 10)))),
        (
            "oblivious",
            Box::new(move || Box::new(Oblivious::new(n, 3))),
        ),
        ("rotor", Box::new(move || Box::new(Rotor::new(n, 2, 37)))),
    ]
}

fn check_identity(racks: usize, len: usize, seed: u64, batch: usize) {
    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let trace = make_trace(dm.num_racks() as u32, len, seed);
    // Checkpoints off the batch grid; explicit disabled baseline so an
    // installed global handle (other tests, other processes) can't leak in.
    let base = SimConfig {
        checkpoints: vec![len / 3 + 1, len.saturating_sub(1)],
        batch_size: batch,
        telemetry: Telemetry::disabled(),
        ..SimConfig::default()
    };
    for (name, make) in factories(&dm) {
        let mut s = make();
        let off = run(s.as_mut(), &dm, 10, &trace, &base);
        let sink = Telemetry::enabled();
        let mut s = make();
        let on = run(
            s.as_mut(),
            &dm,
            10,
            &trace,
            &base.clone().with_telemetry(sink.clone()),
        );
        assert_eq!(
            off.without_wall_clock(),
            on.without_wall_clock(),
            "{name} b={batch}: telemetry perturbed the report"
        );
        let snap = sink.snapshot();
        assert_eq!(
            snap.counters.get("serve.requests").copied(),
            Some(len as u64),
            "{name}: enabled run must count its requests"
        );
        let hist = snap
            .histograms
            .get("serve.chunk_ns")
            .unwrap_or_else(|| panic!("{name}: chunk latency histogram missing"));
        assert!(hist.count > 0 && hist.percentile(99) >= hist.percentile(50));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn reports_are_byte_identical_with_telemetry_on_or_off(
        racks in 6usize..16,
        len in 60usize..300,
        seed in 0u64..10_000,
        batch in 1usize..130,
    ) {
        check_identity(racks, len, seed, batch);
    }
}

/// Pinned corners: per-request serving, whole-trace batches, a chunk size
/// that divides nothing.
#[test]
fn pinned_corner_cases() {
    check_identity(8, 150, 42, 1);
    check_identity(12, 200, 7, 100_000);
    check_identity(10, 200, 3, 64);
}

/// The supervised executor is under the same contract: with the sink on,
/// its retry/quarantine accounting may not shift a single reported byte,
/// and the new `sweep.*` supervision counters flow into the registry the
/// sweep executor already feeds.
#[test]
fn supervised_sweep_reports_identical_with_telemetry_on_or_off() {
    use dcn_core::algorithms::AlgorithmKind;
    use dcn_core::sweep::{run_jobs_supervised, Job};
    use dcn_traces::TraceSpec;

    let net = builders::fat_tree_with_racks(12);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let jobs: Vec<Job> = (0..5u64)
        .map(|seed| Job {
            algorithm: AlgorithmKind::Rbma { lazy: true },
            b: 3,
            alpha: 10,
            seed,
            checkpoints: vec![800],
            trace: TraceSpec::Uniform {
                num_racks: 12,
                len: 2000,
                seed: 3,
            },
        })
        .collect();

    // Off: whatever global handle is installed right now is disabled (no
    // test in this binary installs one before this point).
    let off: Vec<RunReport> = run_jobs_supervised(&dm, &jobs, 2, "telem")
        .iter()
        .map(|o| o.report().expect("failure-free").without_wall_clock())
        .collect();

    // On: supervised runs pick the sink up through the global handle, the
    // same way `repro_figures --telemetry` wires it.
    let sink = Telemetry::enabled();
    dcn_telemetry::install_global(sink.clone());
    let on: Vec<RunReport> = run_jobs_supervised(&dm, &jobs, 2, "telem")
        .iter()
        .map(|o| o.report().expect("failure-free").without_wall_clock())
        .collect();
    dcn_telemetry::install_global(Telemetry::disabled());

    assert_eq!(off, on, "telemetry perturbed a supervised sweep");
    let snap = sink.drain();
    assert_eq!(snap.counters.get("sweep.jobs").copied(), Some(5));
    assert_eq!(
        snap.counters.get("serve.requests").copied(),
        Some(5 * 2000),
        "each supervised job must flush its serve counters"
    );
    // Failure-free: the supervision counters stay silent rather than
    // emitting zero-valued noise.
    assert!(!snap.counters.contains_key("sweep.retries"));
    assert!(!snap.counters.contains_key("sweep.quarantined"));
}
