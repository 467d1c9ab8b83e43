//! The SO-BMA series against the per-checkpoint replay it replaces:
//! recompute the matching on each prefix, then replay the prefix through
//! `static_routing_cost`. The series must agree row for row on any
//! checkpoint list — unsorted, repeated, 0, or beyond the trace — and at
//! every width its checkpoints fan out at.
//!
//! One test installs the process-global telemetry sink, which every
//! fan-out in this binary would write to; it holds `SINK` for writing, and
//! every test that fans out holds it for reading.

use dcn_core::algorithms::static_offline::{so_bma_matching, so_bma_series, static_routing_cost};
use dcn_core::sweep::{resolve_threads, steal_map, with_threads};
use dcn_telemetry::Telemetry;
use dcn_topology::{builders, DistanceMatrix, Pair};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::{RwLock, RwLockReadGuard};

const RACKS: u32 = 20;

static SINK: RwLock<()> = RwLock::new(());

/// Keeps the telemetry test from running while this test fans out.
fn fans_out() -> RwLockReadGuard<'static, ()> {
    SINK.read().unwrap_or_else(|e| e.into_inner())
}

fn fat_tree() -> DistanceMatrix {
    DistanceMatrix::between_racks(&builders::fat_tree_with_racks(RACKS as usize))
}

/// The reference: each checkpoint's prefix aggregated, matched and replayed
/// from scratch.
fn replay(dm: &DistanceMatrix, reqs: &[Pair], b: usize, cps: &[usize]) -> Vec<(usize, u64)> {
    cps.iter()
        .map(|&cp| {
            let prefix = &reqs[..cp.min(reqs.len())];
            let matching = so_bma_matching(dm, prefix, b);
            (cp, static_routing_cost(dm, prefix, &matching))
        })
        .collect()
}

/// `len` requests on `RACKS` racks: half on a few hot pairs, so pair counts
/// spread and tie, half uniform.
fn requests(len: usize, seed: u64) -> Vec<Pair> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let hot: Vec<Pair> = (0..6).map(|i| Pair::new(i, (i * 7 + 3) % RACKS)).collect();
    (0..len)
        .map(|_| {
            if rng.random_bool(0.5) {
                hot[rng.random_range(0..hot.len())]
            } else {
                let a = rng.random_range(0..RACKS);
                let c = rng.random_range(0..RACKS - 1);
                Pair::new(a, if c >= a { c + 1 } else { c })
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn series_equals_per_checkpoint_replay(
        len in 0usize..600,
        seed in any::<u64>(),
        b in 1usize..5,
        cps in prop::collection::vec(0usize..700, 0..10),
    ) {
        let _fans_out = fans_out();
        let dm = fat_tree();
        let reqs = requests(len, seed);
        prop_assert_eq!(so_bma_series(&dm, &reqs, b, &cps), replay(&dm, &reqs, b, &cps));
    }

    #[test]
    fn series_is_identical_at_every_width(
        len in 0usize..600,
        seed in any::<u64>(),
        b in 1usize..5,
        cps in prop::collection::vec(0usize..700, 0..10),
    ) {
        let _fans_out = fans_out();
        let dm = fat_tree();
        let reqs = requests(len, seed);
        let want = replay(&dm, &reqs, b, &cps);
        for threads in 1..=3 {
            prop_assert_eq!(
                with_threads(threads, || so_bma_series(&dm, &reqs, b, &cps)),
                want.clone(),
                "threads = {}",
                threads
            );
        }
    }
}

#[test]
fn series_handles_zero_repeated_unsorted_and_overlong_checkpoints() {
    let _fans_out = fans_out();
    let dm = fat_tree();
    let reqs = requests(500, 7);
    let cps = [0, 120, 120, 40, 500, 900, 0, 260, 260, 499, 10_000, 3];
    for b in 1..=4 {
        let want = replay(&dm, &reqs, b, &cps);
        assert_eq!(so_bma_series(&dm, &reqs, b, &cps), want, "b = {b}");
        for threads in 1..=3 {
            assert_eq!(
                with_threads(threads, || so_bma_series(&dm, &reqs, b, &cps)),
                want,
                "b = {b}, threads = {threads}"
            );
        }
    }
}

#[test]
fn fan_outs_never_nest_and_widths_are_restored() {
    let _fans_out = fans_out();
    let auto = resolve_threads(0);
    for threads in 1..=3 {
        // Inline (one worker) and spawned workers alike resolve auto to 1.
        assert_eq!(steal_map(4, threads, |_| resolve_threads(0)), vec![1; 4]);
        assert_eq!(
            resolve_threads(0),
            auto,
            "restored after {threads} worker(s)"
        );
    }
    let inside = with_threads(3, || {
        (
            resolve_threads(0),
            steal_map(2, 0, |_| resolve_threads(0)),
            resolve_threads(0),
        )
    });
    assert_eq!(inside, (3, vec![1, 1], 3));
    assert_eq!(resolve_threads(0), auto, "restored after with_threads");
    // 0 keeps the current width; an explicit width is always literal.
    assert_eq!(with_threads(0, || resolve_threads(0)), auto);
    assert_eq!(with_threads(1, || resolve_threads(5)), 5);
    assert_eq!(
        steal_map(1, 1, |_| with_threads(2, || resolve_threads(0))),
        vec![2]
    );
    // Unwinding out of either scope restores the width too.
    assert!(std::panic::catch_unwind(|| with_threads(2, || panic!("unwind"))).is_err());
    assert_eq!(resolve_threads(0), auto);
    assert!(std::panic::catch_unwind(|| steal_map(1, 1, |_| panic!("unwind"))).is_err());
    assert_eq!(resolve_threads(0), auto);
}

#[test]
fn only_a_multi_checkpoint_series_claims_executor_jobs() {
    let _owns_sink = SINK.write().unwrap_or_else(|e| e.into_inner());
    let dm = fat_tree();
    let reqs = requests(300, 11);
    let sink = Telemetry::enabled();
    dcn_telemetry::install_global(sink.clone());
    let single = so_bma_series(&dm, &reqs, 2, &[reqs.len()]);
    let after_single = sink.drain();
    let multi = so_bma_series(&dm, &reqs, 2, &[100, 300, 200]);
    let after_multi = sink.drain();
    dcn_telemetry::install_global(Telemetry::disabled());

    assert_eq!(single, replay(&dm, &reqs, 2, &[reqs.len()]));
    assert_eq!(multi, replay(&dm, &reqs, 2, &[100, 300, 200]));
    let sweep_keys = |s: &dcn_telemetry::Snapshot| {
        s.counters
            .keys()
            .filter(|k| k.starts_with("sweep."))
            .cloned()
            .collect::<Vec<_>>()
    };
    assert!(
        sweep_keys(&after_single).is_empty(),
        "one checkpoint ran on the executor: {:?}",
        sweep_keys(&after_single)
    );
    assert_eq!(after_multi.counters.get("sweep.jobs"), Some(&3));
}
