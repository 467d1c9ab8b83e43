//! `AliasTable` against the textbook sampler it replaced, draw for draw.
//!
//! `Reference` below is the former `prob`/`alias` implementation, kept
//! verbatim: a slot from `random_range(0..n)`, then the coin
//! `random_range(0.0..1.0) < prob[slot]`. The table under test must return
//! the same category (or value) for every draw and leave the generator in
//! the same state. Seeded draws cover random weight vectors with zeros and
//! the 4,950-pair Zipf table; scripted words put the coin exactly on, just
//! under and just over each slot's threshold.

use dcn_topology::Pair;
use dcn_traces::{zipf_weights, AliasTable};
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

/// The former alias sampler, verbatim apart from the generic RNG.
struct Reference {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl Reference {
    fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "alias table needs at least one category");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative, not all zero"
        );
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers: everything remaining gets probability 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let i = rng.random_range(0..self.prob.len());
        if rng.random_range(0.0..1.0f64) < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }
}

/// Draws `draws` times from both samplers on clones of one generator and
/// compares every category and the final generator state.
fn assert_same_draws(weights: &[f64], seed: u64, draws: usize) {
    let reference = Reference::new(weights);
    let table = AliasTable::new(weights);
    assert_eq!(table.len(), weights.len());
    let mut ours = SmallRng::seed_from_u64(seed);
    let mut theirs = ours.clone();
    for k in 0..draws {
        assert_eq!(
            table.sample(&mut ours),
            reference.sample(&mut theirs),
            "draw {k} of {} weights, seed {seed}",
            weights.len()
        );
    }
    assert_eq!(
        format!("{ours:?}"),
        format!("{theirs:?}"),
        "generator state"
    );
}

/// Replays a fixed word list.
struct Scripted {
    words: Vec<u64>,
    pos: usize,
}

impl Rng for Scripted {
    fn next_u64(&mut self) -> u64 {
        let w = self.words[self.pos];
        self.pos += 1;
        w
    }
}

/// For every slot, scripts the slot word followed by coin words whose top
/// 53 bits are the slot's threshold and its neighbours (`⌈p·2⁵³⌉ - 1`,
/// `⌈p·2⁵³⌉`, `⌈p·2⁵³⌉ + 1`, with low bits all zero and all one), and
/// compares both samplers on each script.
fn assert_same_at_thresholds(weights: &[f64]) {
    let reference = Reference::new(weights);
    let table = AliasTable::new(weights);
    let n = weights.len();
    for slot in 0..n {
        let p = reference.prob[slot];
        let edge = (p * (1u64 << 53) as f64).ceil() as u64;
        let coins = [edge.saturating_sub(1), edge, edge + 1]
            .into_iter()
            .filter(|&k| k < 1 << 53)
            .flat_map(|k| [k << 11, (k << 11) | 0x7FF]);
        for coin in coins {
            // A slot word below `n` is always accepted and returns itself;
            // a single category draws no slot word at all.
            let words = if n == 1 {
                vec![coin]
            } else {
                vec![slot as u64, coin]
            };
            let mut ours = Scripted {
                words: words.clone(),
                pos: 0,
            };
            let mut theirs = Scripted { words, pos: 0 };
            assert_eq!(
                table.sample(&mut ours),
                reference.sample(&mut theirs),
                "slot {slot}, p {p:e}, coin word {coin:#x}"
            );
            assert_eq!(ours.pos, theirs.pos, "words consumed");
        }
    }
}

#[test]
fn random_weights_with_zeros() {
    let mut gen = SmallRng::seed_from_u64(0xA11A5);
    for case in 0..300 {
        let n = gen.random_range(1..200usize);
        let mut weights: Vec<f64> = (0..n)
            .map(|_| match gen.random_range(0..4u32) {
                0 => 0.0,
                1 => gen.random_range(0.0..1.0),
                2 => gen.random_range(0.0..1e6),
                _ => gen.random_range(1..10u32) as f64,
            })
            .collect();
        if weights.iter().all(|&w| w == 0.0) {
            weights[n / 2] = 1.0;
        }
        assert_same_draws(&weights, case, 2_000);
        if case % 10 == 0 {
            assert_same_at_thresholds(&weights);
        }
    }
}

#[test]
fn single_category() {
    assert_same_draws(&[42.0], 1, 1_000);
    assert_same_at_thresholds(&[42.0]);
    assert_same_at_thresholds(&[3.0]);
}

#[test]
fn every_probability_one() {
    // Equal weights scale to exactly 1: every coin keeps its own slot.
    let weights = [2.5; 7];
    assert!(Reference::new(&weights).prob.iter().all(|&p| p == 1.0));
    assert_same_draws(&weights, 2, 5_000);
    assert_same_at_thresholds(&weights);
}

#[test]
fn probabilities_on_the_coin_grid() {
    // Weights 1 and 3 scale to 0.5 and 1.5, so slot 0's threshold is
    // exactly 2^52; 1, 1, 2 and 4 give halves, and 1 and 7 quarters.
    for weights in [&[1.0, 3.0][..], &[1.0, 1.0, 2.0, 4.0], &[1.0, 7.0]] {
        let reference = Reference::new(weights);
        assert!(reference
            .prob
            .iter()
            .all(|&p| (p * (1u64 << 53) as f64).fract() == 0.0));
        assert_same_draws(weights, 3, 5_000);
        assert_same_at_thresholds(weights);
    }
}

#[test]
fn subnormal_probability() {
    // The smallest positive weight scales to a subnormal probability,
    // whose threshold is 1: only a coin of 0 keeps the slot.
    let weights = [f64::from_bits(1), 1.0];
    let p = Reference::new(&weights).prob[0];
    assert!(p > 0.0 && !p.is_normal(), "p = {p:e}");
    assert_same_draws(&weights, 4, 5_000);
    assert_same_at_thresholds(&weights);
}

#[test]
fn zipf_pair_table() {
    let weights = zipf_weights(4_950, 1.2);
    assert_same_draws(&weights, 5, 200_000);
    assert_same_at_thresholds(&weights);
}

#[test]
fn pair_valued_tables_draw_the_reference_pairs() {
    // The kernels' tables carry rack pairs instead of indices.
    let pairs: Vec<Pair> = (0..30u32)
        .flat_map(|a| ((a + 1)..30).map(move |b| Pair::new(a, b)))
        .collect();
    let weights = zipf_weights(pairs.len(), 1.1);
    let reference = Reference::new(&weights);
    let table = AliasTable::with_values(&weights, &pairs);
    let mut ours = SmallRng::seed_from_u64(6);
    let mut theirs = ours.clone();
    let mut filled = vec![Pair::new(0, 1); 10_000];
    table.fill(&mut ours, &mut filled);
    for (k, &got) in filled.iter().enumerate() {
        let expected = pairs[reference.sample(&mut theirs) as usize];
        assert_eq!(got, expected, "draw {k}");
    }
    assert_eq!(format!("{ours:?}"), format!("{theirs:?}"));
}
