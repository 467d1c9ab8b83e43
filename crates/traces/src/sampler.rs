//! Weighted sampling: Walker's alias method and Zipf weight vectors.
//!
//! Trace generation samples millions of requests from skewed categorical
//! distributions; the alias method gives O(1) per sample after O(n) setup.
//!
//! **Identical draws.** Every seeded stream in the workspace is pinned, so
//! [`AliasTable`] draws exactly what the textbook `prob`/`alias` sampler
//! drew: one `random_range(0..n)` for the slot `i`, then one word `w` for
//! the coin `random_range(0.0..1.0) < prob[i]`. The slot draw goes through
//! a [`UniformIndex`], which consumes the same words and rejects the same
//! ones without dividing. The table is built by the same floating-point
//! steps in the same order (Vose's small/large stacks), so every `prob[i]`
//! is bit-for-bit the one the textbook sampler compares against.
//!
//! **The integer coin.** The vendored `random_range(0.0..1.0)` returns
//! `k·2⁻⁵³` with `k = w >> 11`, exactly (`k < 2⁵³` converts without
//! rounding, and scaling by a power of two is exact). Every `prob[i]` lies
//! in `[0, 1]`, so `p·2⁵³` is exact too, subnormal `p` included. Hence
//! `coin < p` holds exactly when `k < p·2⁵³`, and, `k` being an integer,
//! exactly when `k < ⌈p·2⁵³⌉`. The table stores that integer and a draw
//! compares integers; `p = 1` gives `2⁵³`, which every `k` is below.
//! `Coin` applies the same rule to a fixed probability, such as the
//! Facebook kernel's burst probability.
//!
//! **Tables carry their values.** Each slot holds its threshold and both
//! outcomes: the slot's own value and its alias's. A kernel that maps a
//! category to a rack pair builds its table over the pairs, so a draw is
//! one index draw, one entry load, one integer compare and a branch-free
//! select, with no side array to read.

use dcn_util::rngx::UniformIndex;
use rand::Rng;

/// One slot: the coin threshold `⌈prob·2⁵³⌉` and the two outcomes.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Entry<T> {
    threshold: u64,
    own: T,
    alias: T,
}

/// Walker alias table over categories `0..n` with the given non-negative
/// weights (not all zero, with a finite total), drawing values of type `T`.
/// [`AliasTable::new`] draws the category index itself;
/// [`AliasTable::with_values`] and [`AliasTable::map`] attach a value to
/// each category.
///
/// ```
/// use dcn_traces::AliasTable;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let table = AliasTable::new(&[0.0, 3.0, 1.0]);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let draw = table.sample(&mut rng);
/// assert!(draw == 1 || draw == 2, "zero-weight category is never drawn");
/// ```
#[derive(Clone, Debug)]
pub struct AliasTable<T = u32> {
    index: UniformIndex,
    entries: Vec<Entry<T>>,
}

impl AliasTable {
    /// Builds the table in O(n); a draw returns the category index.
    pub fn new(weights: &[f64]) -> Self {
        Self::build(weights, |i| i as u32)
    }
}

impl<T: Copy> AliasTable<T> {
    /// Builds the table in O(n); a draw of category `i` returns
    /// `values[i]`. Draws the same categories as [`AliasTable::new`].
    pub fn with_values(weights: &[f64], values: &[T]) -> Self {
        assert_eq!(
            weights.len(),
            values.len(),
            "one value per weight is needed"
        );
        Self::build(weights, |i| values[i])
    }

    /// Vose's construction, in the textbook's floating-point steps and
    /// order, so every probability is bit-for-bit the textbook's.
    fn build(weights: &[f64], value: impl Fn(usize) -> T) -> Self {
        let n = weights.len();
        assert!(n > 0, "alias table needs at least one category");
        // The sequential fold `Iterator::sum` performs, with the sign check
        // riding along.
        let (mut total, mut nonneg) = (-0.0f64, true);
        for &w in weights {
            total += w;
            nonneg &= w >= 0.0;
        }
        assert!(
            total > 0.0 && nonneg,
            "weights must be non-negative, not all zero"
        );
        assert!(
            total.is_finite(),
            "alias table weight total is {total}: the weights must sum to a finite f64"
        );
        let scale = n as f64 / total;
        let starts_small = |i: usize| weights[i] * scale < 1.0;
        // Until a slot's probability is final, its threshold field holds
        // the probability's bits.
        let mut entries: Vec<Entry<T>> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let own = value(i);
                Entry {
                    threshold: (w * scale).to_bits(),
                    own,
                    alias: own,
                }
            })
            .collect();
        // The textbook's two stacks need no worklist. Each step pops the top
        // small slot `s`, aliases it to the top large slot `l`, and sets
        // `p_l -= 1 - p_s`; once `p_l < 1`, it pops `l` and pushes it on
        // `small`, where the next step pops it again. So `large` only ever
        // loses its top, and `small` holds at most that one pushed slot
        // above its initial slots. Each initial stack lists its slots in
        // index order, so its top is the highest slot of its kind below a
        // cursor that walks down.
        let next = |end: &mut usize, small: bool| {
            while *end > 0 {
                *end -= 1;
                if starts_small(*end) == small {
                    return Some(*end);
                }
            }
            None
        };
        let (mut small_end, mut large_end) = (n, n);
        let mut pushed = None;
        let mut top_large = next(&mut large_end, false);
        // `p_l` stays in a register while `l` is on top, and `p_s` is final
        // once `s` is popped, so its threshold is set there.
        let mut p_l = top_large.map_or(0.0, |l| f64::from_bits(entries[l].threshold));
        while let Some(l) = top_large {
            let Some(s) = pushed.take().or_else(|| next(&mut small_end, true)) else {
                break;
            };
            let p_s = f64::from_bits(entries[s].threshold);
            entries[s].threshold = coin_threshold(p_s);
            entries[s].alias = entries[l].own;
            p_l -= 1.0 - p_s;
            if p_l < 1.0 {
                entries[l].threshold = p_l.to_bits();
                pushed = Some(l);
                top_large = next(&mut large_end, false);
                if let Some(l) = top_large {
                    p_l = f64::from_bits(entries[l].threshold);
                }
            }
        }
        // Numerical leftovers: everything still on a stack gets probability 1.
        let leftovers = pushed
            .into_iter()
            .chain(top_large)
            .chain((0..small_end).filter(|&i| starts_small(i)))
            .chain((0..large_end).filter(|&i| !starts_small(i)));
        for i in leftovers {
            entries[i].threshold = coin_threshold(1.0);
        }
        Self {
            index: UniformIndex::new(n),
            entries,
        }
    }

    /// The same table with every value passed through `f`: the draws are
    /// the same categories, returning `f` of what `self` returns.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> AliasTable<U> {
        AliasTable {
            index: self.index,
            entries: self
                .entries
                .iter()
                .map(|e| Entry {
                    threshold: e.threshold,
                    own: f(e.own),
                    alias: f(e.alias),
                })
                .collect(),
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Draws one value in O(1).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        draw(&self.index, &self.entries, rng)
    }

    /// Fills `out` with independent draws: exactly `out.len()` calls to
    /// [`sample`](Self::sample), with the index sampler held in a local.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [T]) {
        let index = self.index;
        let entries = self.entries.as_slice();
        for slot in out {
            *slot = draw(&index, entries, rng);
        }
    }
}

#[inline(always)]
fn draw<T: Copy, R: Rng + ?Sized>(index: &UniformIndex, entries: &[Entry<T>], rng: &mut R) -> T {
    let e = &entries[index.sample(rng)];
    let coin = rng.next_u64() >> 11;
    std::hint::select_unpredictable(coin < e.threshold, e.own, e.alias)
}

/// A biased coin that lands heads exactly when
/// `rng.random_range(0.0..1.0) < p` would hold for the same word: it
/// consumes one word and compares integers (see the module doc). Any `p`
/// is allowed; at or above 1 it always lands heads, and at or below 0, or
/// NaN, never.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Coin(u64);

impl Coin {
    pub(crate) fn new(p: f64) -> Self {
        Coin(if p > 0.0 {
            coin_threshold(p.min(1.0))
        } else {
            0
        })
    }

    #[inline]
    pub(crate) fn flip<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        (rng.next_u64() >> 11) < self.0
    }
}

/// `⌈p·2⁵³⌉` for `p ∈ [0, 1]`: `p·2⁵³` is exact and at most `2⁵³`, so the
/// truncating cast is exact on integers and one compare rounds up the rest.
#[inline]
fn coin_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    let x = p * (1u64 << 53) as f64;
    let t = x as i64;
    (t + ((t as f64) < x) as i64) as u64
}

// The single definition lives in dcn-util, shared with dcn-demand's matrix
// constructors; re-exported here to keep the historical path.
pub use dcn_util::zipf_weights;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matches_expected_frequencies() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        const N: usize = 200_000;
        for _ in 0..N {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        let total_w: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = N as f64 * w / total_w;
            let sd = (expected * (1.0 - w / total_w)).sqrt();
            assert!(
                (counts[i] as f64 - expected).abs() < 6.0 * sd,
                "category {i}: {} vs expected {expected}",
                counts[i]
            );
        }
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert_eq!(table.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_category() {
        let table = AliasTable::new(&[42.0]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(table.sample(&mut rng), 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn zipf_shapes() {
        let u = zipf_weights(4, 0.0);
        assert!(u.iter().all(|&w| (w - 1.0).abs() < 1e-12));
        let z = zipf_weights(4, 1.0);
        assert!((z[0] - 1.0).abs() < 1e-12);
        assert!((z[3] - 0.25).abs() < 1e-12);
        // Monotone decreasing.
        assert!(z.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    /// Each weight is finite but the total is `+inf`; scaling by it used to
    /// zero every probability and draw all three categories uniformly.
    #[test]
    #[should_panic(expected = "weight total is inf")]
    fn rejects_a_total_that_overflows() {
        AliasTable::new(&[1e308, 1e308, 0.0]);
    }

    #[test]
    fn coin_thresholds_round_up_exactly() {
        assert_eq!(coin_threshold(0.0), 0);
        assert_eq!(coin_threshold(1.0), 1 << 53);
        assert_eq!(coin_threshold(0.5), 1 << 52);
        assert_eq!(coin_threshold(f64::from_bits(1)), 1, "smallest subnormal");
        let just_below_half = 0.5f64.next_down();
        assert_eq!(coin_threshold(just_below_half), 1 << 52);
        assert_eq!(coin_threshold(0.5f64.next_up()), (1 << 52) + 1);
    }

    #[test]
    fn coin_flips_match_float_coin_draws() {
        use rand::RngExt;
        let ps = [
            f64::NAN,
            -1.0,
            0.0,
            f64::from_bits(1),
            0.25,
            0.45,
            0.5f64.next_down(),
            1.0f64.next_down(),
            1.0,
            1.5,
        ];
        for p in ps {
            let coin = Coin::new(p);
            let mut ours = SmallRng::seed_from_u64(p.to_bits());
            let mut theirs = ours.clone();
            for _ in 0..20_000 {
                assert_eq!(
                    coin.flip(&mut ours),
                    theirs.random_range(0.0..1.0f64) < p,
                    "p = {p}"
                );
            }
        }
    }

    #[test]
    fn values_and_map_draw_the_same_categories() {
        let weights = zipf_weights(50, 1.1);
        let values: Vec<u64> = (0..50).map(|i| 1000 + i).collect();
        let by_index = AliasTable::new(&weights);
        let by_value = AliasTable::with_values(&weights, &values);
        let mapped = by_index.map(|i| values[i as usize]);
        let mut rngs = [0, 1, 2, 3].map(|_| SmallRng::seed_from_u64(8));
        let mut filled = vec![0u64; 5_000];
        by_value.fill(&mut rngs[3], &mut filled);
        for &from_fill in &filled {
            let expected = values[by_index.sample(&mut rngs[0]) as usize];
            assert_eq!(by_value.sample(&mut rngs[1]), expected);
            assert_eq!(mapped.sample(&mut rngs[2]), expected);
            assert_eq!(from_fill, expected);
        }
    }
}
