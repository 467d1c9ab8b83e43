//! Batched serving must equal per-request serving, for **every**
//! scheduler: each fused `serve_batch` loop (R-BMA lazy/strict, BMA over
//! both recency indexes, Oblivious, Rotor) and the trait default
//! (Periodic) is run through the simulator at batch sizes 1, small primes,
//! 1024 and the whole trace, and its `RunReport` — every checkpoint field,
//! not just totals — is compared with a run whose chunks go through the
//! per-request `serve_batch_unsorted` reference loop.
//!
//! The inputs cover duplicate-heavy, permutation and star trace shapes,
//! a specials-heavy permutation+star trace at small α (with a non-vacuity
//! check that specials fired), checkpoints that land inside batches,
//! verification boundaries coprime to the batch size, rotor rotation
//! boundaries inside chunks, BMA against its `BmaBTree` oracle, and R-BMA
//! and BMA above `DENSE_RACK_LIMIT` racks, where every `PairTable` (their
//! counters, R-BMA's marked set and the matching's position index) falls
//! back to hashing.

use dcn_core::algorithms::bma::{Bma, BmaBTree};
use dcn_core::algorithms::oblivious::Oblivious;
use dcn_core::algorithms::periodic::PeriodicRebuild;
use dcn_core::algorithms::rbma::{Rbma, RemovalMode};
use dcn_core::algorithms::rotor::Rotor;
use dcn_core::scheduler::BatchOutcome;
use dcn_core::{run, OnlineScheduler, RunReport, ServeOutcome, SimConfig};
use dcn_matching::BMatching;
use dcn_topology::pair::DENSE_RACK_LIMIT;
use dcn_topology::{builders, DistanceMatrix, Pair};
use proptest::prelude::*;
use std::sync::Arc;

/// Batch sizes every check runs at, besides the drawn one and the whole
/// trace: per-request chunks, small primes (coprime to the checkpoint and
/// verification grids) and the simulator default.
const BATCH_SIZES: [usize; 5] = [1, 2, 7, 13, 1024];

/// Forwards everything to the wrapped scheduler, except that each chunk
/// is served by the per-request `serve_batch_unsorted` reference loop.
struct Reference(Box<dyn OnlineScheduler>);

impl OnlineScheduler for Reference {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn cap(&self) -> usize {
        self.0.cap()
    }

    fn serve(&mut self, pair: Pair) -> ServeOutcome {
        self.0.serve(pair)
    }

    fn serve_batch(&mut self, batch: &[Pair], dm: &DistanceMatrix, acc: &mut BatchOutcome) {
        self.0.serve_batch_unsorted(batch, dm, acc);
    }

    fn matching(&self) -> &BMatching {
        self.0.matching()
    }
}

/// The trace shapes batching must stay exact on: long runs of identical
/// pairs, all-distinct pairs, hub-concentrated churn (the eviction-heavy
/// case), and alternating permutation and star segments (the
/// specials-heavy case at small α).
#[derive(Clone, Copy, Debug)]
enum Shape {
    DuplicateHeavy,
    Permutation,
    Star,
    SpecialsHeavy,
}

/// Deterministic trace synthesis from an xorshift stream — no RNG state
/// shared with the schedulers under test.
fn make_trace(shape: Shape, n: u32, len: usize, seed: u64) -> Vec<Pair> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let pair = |a: u64, b: u64| {
        let a = (a % n as u64) as u32;
        let mut b = (b % n as u64) as u32;
        if a == b {
            b = (b + 1) % n;
        }
        Pair::new(a, b)
    };
    let all = || -> Vec<Pair> {
        (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| Pair::new(a, b)))
            .collect()
    };
    let mut out = Vec::with_capacity(len);
    match shape {
        Shape::DuplicateHeavy => {
            // A hot pool of 3 pairs, emitted in runs of 1..=8.
            let pool: Vec<Pair> = (0..3).map(|_| pair(next(), next())).collect();
            while out.len() < len {
                let p = pool[(next() % pool.len() as u64) as usize];
                for _ in 0..=(next() % 8) {
                    out.push(p);
                }
            }
        }
        Shape::Permutation => {
            // Walk all distinct pairs with a stride coprime to the count:
            // within each lap every pair occurs exactly once, so chunks
            // carry no duplicates at all.
            let all = all();
            let mut stride = 1 + (next() % all.len() as u64) as usize;
            while stride > 1 && all.len() % stride == 0 {
                stride -= 1;
            }
            let mut i = (next() % all.len() as u64) as usize;
            for _ in 0..len {
                out.push(all[i]);
                i = (i + stride) % all.len();
            }
        }
        Shape::Star => {
            // Everything hits one hub rack — maximal eviction pressure on
            // that rack's cache / recency list.
            let hub = next() % n as u64;
            for _ in 0..len {
                out.push(pair(hub, next()));
            }
        }
        Shape::SpecialsHeavy => {
            let all = all();
            let mut perm_i = (next() % all.len() as u64) as usize;
            while out.len() < len {
                // Permutation segment: a stride-walk lap over distinct
                // pairs.
                let seg = 20 + (next() % 60) as usize;
                let stride = 1 + (next() % (all.len() as u64 - 1)) as usize;
                for _ in 0..seg {
                    out.push(all[perm_i]);
                    perm_i = (perm_i + stride) % all.len();
                }
                // Star segment: hub-concentrated churn (marked-set and
                // fault traffic).
                let hub = next();
                for _ in 0..20 + (next() % 60) {
                    out.push(pair(hub, next()));
                }
            }
        }
    }
    out.truncate(len);
    out
}

/// Reports must agree on every field except wall-clock time.
fn assert_reports_identical(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.algorithm, b.algorithm, "{ctx}");
    assert_eq!(a.b, b.b, "{ctx}");
    assert_eq!(a.total.requests, b.total.requests, "{ctx}");
    assert_eq!(a.total.routing_cost, b.total.routing_cost, "{ctx}");
    assert_eq!(a.total.reconfig_cost, b.total.reconfig_cost, "{ctx}");
    assert_eq!(a.total.reconfigurations, b.total.reconfigurations, "{ctx}");
    assert_eq!(a.total.matched_requests, b.total.matched_requests, "{ctx}");
    assert_eq!(a.checkpoints.len(), b.checkpoints.len(), "{ctx}");
    for (x, y) in a.checkpoints.iter().zip(&b.checkpoints) {
        assert_eq!(x.requests, y.requests, "{ctx}");
        assert_eq!(x.routing_cost, y.routing_cost, "{ctx}");
        assert_eq!(x.reconfig_cost, y.reconfig_cost, "{ctx}");
        assert_eq!(x.reconfigurations, y.reconfigurations, "{ctx}");
        assert_eq!(x.matched_requests, y.matched_requests, "{ctx}");
    }
}

type Factory = Box<dyn Fn() -> Box<dyn OnlineScheduler>>;

/// A scheduler under test and the scheduler whose per-request run is its
/// reference (itself, except BMA, which answers to its `BmaBTree` oracle).
struct Case {
    name: &'static str,
    make: Factory,
    reference: Factory,
}

/// Every scheduler the equivalence must hold for: the fused loops (R-BMA
/// in both removal modes, BMA over both recency indexes, Oblivious, Rotor
/// with rotation boundaries inside chunks and with none), and the trait
/// default (Periodic) as the control.
fn cases(dm: &Arc<DistanceMatrix>, b: usize, alpha: u64) -> Vec<Case> {
    let n = dm.num_racks();
    let d = |f: fn(Arc<DistanceMatrix>, usize, u64) -> Box<dyn OnlineScheduler>| {
        let dm = Arc::clone(dm);
        Box::new(move || f(dm.clone(), b, alpha)) as Factory
    };
    let same = |name, make: fn(Arc<DistanceMatrix>, usize, u64) -> Box<dyn OnlineScheduler>| Case {
        name,
        make: d(make),
        reference: d(make),
    };
    vec![
        same("rbma-lazy", |dm, b, a| {
            Box::new(Rbma::new(dm, b, a, RemovalMode::Lazy, 7))
        }),
        same("rbma-strict", |dm, b, a| {
            Box::new(Rbma::new(dm, b, a, RemovalMode::Strict, 7))
        }),
        Case {
            name: "bma-vs-btree",
            make: d(|dm, b, a| Box::new(Bma::new(dm, b, a))),
            reference: d(|dm, b, a| Box::new(BmaBTree::new(dm, b, a))),
        },
        same("bma-btree", |dm, b, a| Box::new(BmaBTree::new(dm, b, a))),
        Case {
            name: "oblivious",
            make: Box::new(move || Box::new(Oblivious::new(n, b))),
            reference: Box::new(move || Box::new(Oblivious::new(n, b))),
        },
        Case {
            name: "rotor-short",
            make: Box::new(move || Box::new(Rotor::new(n, 2, 5))),
            reference: Box::new(move || Box::new(Rotor::new(n, 2, 5))),
        },
        Case {
            name: "rotor-long",
            make: Box::new(move || Box::new(Rotor::new(n, 2, 1_000_000))),
            reference: Box::new(move || Box::new(Rotor::new(n, 2, 1_000_000))),
        },
        same("periodic-default-path", |dm, b, _| {
            Box::new(PeriodicRebuild::new(dm, b, 50))
        }),
    ]
}

/// Runs `case` batched at `batches` (plus the whole trace) and asserts
/// every report equals the per-request reference; returns the reference.
fn check_case(
    case: &Case,
    dm: &DistanceMatrix,
    alpha: u64,
    trace: &[Pair],
    base: &SimConfig,
    batches: &[usize],
) -> RunReport {
    let reference = run(&mut Reference((case.reference)()), dm, alpha, trace, base);
    for &batch in batches.iter().chain([trace.len().max(1)].iter()) {
        let config = base.clone().with_batch_size(batch);
        let batched = run((case.make)().as_mut(), dm, alpha, trace, &config);
        assert_reports_identical(
            &batched,
            &reference,
            &format!("{} α={alpha} batch={batch}", case.name),
        );
    }
    reference
}

/// A fat tree of about `racks` racks (it may round up; traces draw from
/// the actual universe).
fn fat_tree(racks: usize) -> Arc<DistanceMatrix> {
    Arc::new(DistanceMatrix::between_racks(
        &builders::fat_tree_with_racks(racks),
    ))
}

/// Checkpoints deliberately off the batch grid; verification interval
/// coprime to every batch size tried.
fn base_config(len: usize) -> SimConfig {
    SimConfig {
        checkpoints: vec![len / 3 + 1, len / 2, len.saturating_sub(1)],
        verify_every: 53,
        ..Default::default()
    }
}

fn check_every_scheduler(
    shape: Shape,
    racks: usize,
    len: usize,
    seed: u64,
    batch: usize,
    alpha: u64,
) {
    let dm = fat_tree(racks);
    let trace = make_trace(shape, dm.num_racks() as u32, len, seed);
    let batches: Vec<usize> = BATCH_SIZES.iter().copied().chain([batch]).collect();
    for case in cases(&dm, 3, alpha) {
        check_case(&case, &dm, alpha, &trace, &base_config(len), &batches);
    }
}

/// R-BMA in both modes on the specials-heavy trace at small α, with the
/// non-vacuity check: every R-BMA matching insertion happens inside a
/// special request, so reconfigurations > 0 proves specials fired.
fn check_specials_heavy(racks: usize, len: usize, seed: u64, batch: usize, alpha: u64, b: usize) {
    let dm = fat_tree(racks);
    let trace = make_trace(Shape::SpecialsHeavy, dm.num_racks() as u32, len, seed);
    let batches: Vec<usize> = BATCH_SIZES.iter().copied().chain([batch]).collect();
    for case in cases(&dm, b, alpha)
        .iter()
        .filter(|c| c.name.starts_with("rbma"))
    {
        let reference = check_case(case, &dm, alpha, &trace, &base_config(len), &batches);
        assert!(
            reference.total.reconfigurations > 0,
            "{}: vacuous trace, no specials fired (α={alpha}, len={len}, seed={seed})",
            case.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_scheduler_batches_like_the_reference(
        shape_sel in 0usize..3,
        racks in 6usize..20,
        len in 60usize..400,
        seed in 0u64..10_000,
        batch in 2usize..130,
        alpha in 1u64..15,
    ) {
        let shape = [Shape::DuplicateHeavy, Shape::Permutation, Shape::Star][shape_sel];
        check_every_scheduler(shape, racks, len, seed, batch, alpha);
    }

    #[test]
    fn rbma_batches_exactly_on_specials_heavy_traces(
        racks in 6usize..16,
        len in 400usize..2_000,
        seed in 0u64..10_000,
        batch in 32usize..300,
        alpha in 1u64..5,
        b in 2usize..5,
    ) {
        check_specials_heavy(racks, len, seed, batch, alpha, b);
    }
}

/// Pinned worst-case corners the proptest might not draw every run.
#[test]
fn pinned_corner_cases() {
    // Batch size 2 with runs of duplicates; alpha 1 (every request special
    // for uniform-distance R-BMA, instant buys for BMA).
    check_every_scheduler(Shape::DuplicateHeavy, 8, 200, 42, 2, 1);
    // Star hub churn with a batch larger than the trace.
    check_every_scheduler(Shape::Star, 16, 150, 7, 1024, 10);
    // Permutation sweep where every pair in a chunk is distinct.
    check_every_scheduler(Shape::Permutation, 12, 300, 3, 64, 8);
}

/// Pinned specials-heavy corners.
#[test]
fn pinned_specials_heavy_corners() {
    // Everything special, small caches: maximal fault/eviction churn.
    check_specials_heavy(8, 1_500, 42, 128, 1, 2);
    // α = 4 on a fat tree (ℓ ∈ {2,4} ⇒ k_e ∈ {1,2}), a long trace.
    check_specials_heavy(10, 4_000, 7, 512, 4, 3);
    // A batch longer than the trace.
    check_specials_heavy(6, 450, 3, 512, 2, 2);
}

/// Above `DENSE_RACK_LIMIT` racks R-BMA's counters and marked set, BMA's
/// counters, and `BMatching`'s position index are hash containers.
/// Batched serving there must still equal the per-request reference (for
/// BMA, its `BmaBTree` oracle), keep the degree bound at every
/// verification point, and actually reconfigure.
#[test]
fn rbma_beyond_dense_rack_limit_matches_the_reference() {
    let n = DENSE_RACK_LIMIT + 1;
    let dm = Arc::new(DistanceMatrix::uniform(n));
    // Hub churn, then hot duplicate runs.
    let mut trace = make_trace(Shape::Star, n as u32, 2_000, 11);
    trace.extend(make_trace(Shape::DuplicateHeavy, n as u32, 2_000, 12));
    let alpha = 2;
    for case in cases(&dm, 2, alpha)
        .iter()
        .filter(|c| c.name.starts_with("rbma") || c.name == "bma-vs-btree")
    {
        let reference = check_case(
            case,
            &dm,
            alpha,
            &trace,
            &base_config(trace.len()),
            &[1, 7, 1024],
        );
        assert!(
            reference.total.reconfigurations > 0,
            "{}: no reconfigurations above the dense limit",
            case.name
        );
    }
}
