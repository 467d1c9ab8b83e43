//! Seed derivation for reproducible experiment sweeps, and the seeded
//! draws every generator shares.
//!
//! Every run in a sweep needs an independent RNG stream that is nevertheless
//! a pure function of `(base_seed, run_index)` so that re-running a sweep —
//! sequentially or in parallel, in any order — reproduces identical results.
//! SplitMix64 is the standard generator for this purpose. [`shuffle`] and
//! [`UniformIndex`] are the two draw shapes whose exact word consumption
//! the pinned seeded streams depend on.

/// One step of the SplitMix64 generator; advances `state` and returns the output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle: `len - 1` draws of `random_range(0..=i)`
/// for `i = len-1, …, 1`, swapping as it goes.
///
/// Every seeded generator in the workspace permutes with exactly this draw
/// order, and seeded streams are pinned byte-identical across refactors —
/// so there is one definition, here, instead of per-crate copies that
/// could silently diverge.
pub fn shuffle<T>(v: &mut [T], rng: &mut rand::rngs::SmallRng) {
    use rand::RngExt;
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// Uniform sampler over a fixed range `0..n`, draw-for-draw identical to
/// `rng.random_range(0..n)`: it consumes the same words, rejects the same
/// ones, and returns the same value. Like `random_range`, `n == 1`
/// returns 0 without consuming a word.
///
/// `random_range` pays two 64-bit divisions per draw: one for its
/// rejection zone and one for `draw % n`. For a range fixed at
/// construction the zone is computed once, and the remainder comes from an
/// exact reciprocal of `n` (Granlund and Montgomery, "Division by
/// invariant integers using multiplication", 1994, Fig. 4.1; libdivide's
/// u64 path): a multiply-high, a subtract, an add and two shifts give
/// `x / n`, and a multiply and a subtract more give `x % n`.
///
/// Why the reciprocal equals `/` for every `u64` `x`, when `n ≥ 2`: let
/// `ℓ = ⌈log₂ n⌉`, so `2^(ℓ-1) < n ≤ 2^ℓ`, and
/// `m = ⌊2^(64+ℓ) / n⌋ + 1`. Then `m·n = 2^(64+ℓ) + e` with
/// `0 < e ≤ n ≤ 2^ℓ`. Write `x = q·n + r` with `0 ≤ r < n`. Then
/// `m·x / 2^(64+ℓ) = x/n + x·e / (n·2^(64+ℓ))`. The second term is at
/// least 0 and, as `x < 2^64` and `e ≤ 2^ℓ`, below `1/n`. The sum therefore
/// lies in `[q, (q·n + r + 1)/n)`, which lies in `[q, q + 1)`, so
/// `⌊m·x / 2^(64+ℓ)⌋ = q`. As `m < 2^65`, it is stored as
/// `magic = m − 2^64`. With `t = ⌊magic·x / 2^64⌋` (the multiply-high),
/// `⌊m·x / 2^(64+ℓ)⌋ = ⌊(x + t) / 2^ℓ⌋`. Because `t ≤ x`, this equals
/// `(t + ⌊(x − t)/2⌋) >> (ℓ − 1)`, and no step overflows 64 bits.
/// `tests::quotient_matches_division` and
/// `tests::matches_random_range_draw_for_draw` check both claims.
#[derive(Clone, Copy, Debug)]
pub struct UniformIndex {
    n: u64,
    /// Largest accepted word: `u64::MAX - (2^64 - n) % n`, as in
    /// `random_range`.
    zone: u64,
    /// `⌊2^(64+ℓ) / n⌋ + 1 − 2^64` (unused when `n == 1`, which never
    /// divides).
    magic: u64,
    /// `ℓ − 1` (unused when `n == 1`).
    shift: u32,
}

impl UniformIndex {
    /// Sampler for `0..n`. Panics if `n == 0`, as `random_range(0..0)` does.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cannot sample empty range");
        let n = n as u64;
        if n == 1 {
            return Self {
                n,
                zone: u64::MAX,
                magic: 0,
                shift: 0,
            };
        }
        let ell = 64 - (n - 1).leading_zeros();
        let magic = (((1u128 << ell) - n as u128) << 64) / n as u128 + 1;
        Self {
            n,
            zone: u64::MAX - (u64::MAX - n + 1) % n,
            magic: magic as u64,
            shift: ell - 1,
        }
    }

    /// The range size `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Always false: the range is never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `x / n` for `n ≥ 2`, without a division instruction (see the
    /// type's doc for why it is exact).
    #[inline]
    fn quotient(&self, x: u64) -> u64 {
        let t = ((self.magic as u128 * x as u128) >> 64) as u64;
        (t + ((x - t) >> 1)) >> self.shift
    }

    /// Draws one index, exactly as `rng.random_range(0..n)` would.
    #[inline]
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if self.n == 1 {
            return 0;
        }
        loop {
            let draw = rng.next_u64();
            if draw <= self.zone {
                return (draw - self.quotient(draw) * self.n) as usize;
            }
        }
    }
}

/// Derives an independent sub-seed from a base seed and a stream index.
///
/// Distinct `(base, stream)` pairs give (with overwhelming probability)
/// distinct, decorrelated seeds; identical pairs always give the same seed.
#[inline]
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut state = base ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    // A couple of mixing rounds so that low-entropy (base, stream) pairs
    // (e.g. 0, 1, 2, ...) still produce well-spread seeds.
    let a = splitmix64(&mut state);
    let b = splitmix64(&mut state);
    a ^ b.rotate_left(17)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        let mut s1 = 9u64;
        let mut s2 = 9u64;
        assert_eq!(splitmix64(&mut s1), splitmix64(&mut s2));
    }

    #[test]
    fn streams_distinct() {
        let mut seen = HashSet::new();
        for base in 0..20u64 {
            for stream in 0..200u64 {
                assert!(
                    seen.insert(derive_seed(base, stream)),
                    "collision at {base}/{stream}"
                );
            }
        }
    }

    /// The ranges the differential tests cover: every small size, the
    /// 100-rack Zipf pair count, powers of two, and sizes at the edges of
    /// 32- and 64-bit arithmetic.
    fn test_sizes() -> Vec<u64> {
        let mut sizes: Vec<u64> = (1..=3000).collect();
        sizes.push(4_950);
        sizes.extend((0..64).map(|k| 1u64 << k));
        sizes.extend([(1 << 32) - 1, (1 << 32) + 1]);
        sizes.extend([0, 1, 2, 3, 4_950, 1 << 40, (1 << 63) - 1].map(|k| (1u64 << 63) + k));
        sizes.push(usize::MAX as u64);
        sizes
    }

    #[test]
    fn quotient_matches_division() {
        use rand::{Rng, SeedableRng};
        // A range of one never divides; every other size does.
        for n in test_sizes().into_iter().filter(|&n| n >= 2) {
            let index = UniformIndex::new(n as usize);
            for x in [0, n - 1, n, n.wrapping_add(1), u64::MAX - 1, u64::MAX] {
                assert_eq!(index.quotient(x), x / n, "{x} / {n}");
            }
        }
        // Random divisors and numerators of every bit length.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        for _ in 0..100_000 {
            let n = (rng.next_u64() >> (rng.next_u64() % 64)).max(2);
            let x = rng.next_u64() >> (rng.next_u64() % 64);
            assert_eq!(
                UniformIndex::new(n as usize).quotient(x),
                x / n,
                "{x} / {n}"
            );
        }
    }

    #[test]
    fn matches_random_range_draw_for_draw() {
        use rand::{RngExt, SeedableRng};
        for n in test_sizes() {
            let index = UniformIndex::new(n as usize);
            assert_eq!(index.len() as u64, n);
            let mut ours = rand::rngs::SmallRng::seed_from_u64(n ^ 0x5EED);
            let mut theirs = ours.clone();
            for draw in 0..40 {
                let expected = theirs.random_range(0..n as usize);
                assert_eq!(index.sample(&mut ours), expected, "n = {n}, draw {draw}");
            }
            // Same words consumed, rejections included.
            assert_eq!(format!("{ours:?}"), format!("{theirs:?}"), "n = {n}");
        }
    }

    /// Replays a fixed word list.
    struct Scripted(Vec<u64>);

    impl rand::Rng for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
    }

    #[test]
    fn rejects_exactly_the_words_random_range_rejects() {
        use rand::RngExt;
        for n in [3u64, 4_950, (1 << 32) + 1, (1 << 63) + 3, u64::MAX] {
            let index = UniformIndex::new(n as usize);
            let zone = index.zone;
            for word in [0, n - 1, zone - 1, zone, zone.saturating_add(1), u64::MAX] {
                // A rejected word is followed by 1, which every size accepts.
                let (mut ours, mut theirs) = (Scripted(vec![word, 1]), Scripted(vec![word, 1]));
                let got = index.sample(&mut ours);
                assert_eq!(
                    got,
                    theirs.random_range(0..n as usize),
                    "n = {n}, word {word}"
                );
                assert_eq!(ours.0, theirs.0, "n = {n}, word {word}: words consumed");
            }
        }
    }

    #[test]
    fn size_one_consumes_no_word() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let before = format!("{rng:?}");
        assert_eq!(UniformIndex::new(1).sample(&mut rng), 0);
        assert_eq!(format!("{rng:?}"), before);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn size_zero_panics() {
        UniformIndex::new(0);
    }

    #[test]
    fn splitmix_known_sequence_is_nontrivial() {
        let mut state = 0u64;
        let first = splitmix64(&mut state);
        let second = splitmix64(&mut state);
        assert_ne!(first, second);
        assert_ne!(first, 0);
    }
}
