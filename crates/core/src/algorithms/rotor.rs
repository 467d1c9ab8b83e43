//! Demand-**oblivious** rotating matchings, in the spirit of RotorNet \[56\]
//! (an extension beyond the paper's baselines; useful as a reference point
//! between "no reconfiguration" and "demand-aware reconfiguration").
//!
//! The `n-1` rounds of a round-robin tournament partition all rack pairs
//! into perfect matchings. Each of the `b` rotor switches cycles through
//! these rounds on a fixed schedule, offset so the switches always carry
//! `b` distinct rounds. A request is served optically iff its pair's round
//! is currently active. Rotation is free (it happens on a fixed schedule,
//! demand plays no role — the usual rotor-network accounting).

use crate::scheduler::{BatchOutcome, OnlineScheduler, ServeOutcome};
use dcn_matching::BMatching;
use dcn_topology::{DistanceMatrix, Pair};

/// Oblivious rotor scheduler.
pub struct Rotor {
    n: usize,
    rounds: usize,
    b: usize,
    period: u64,
    clock: u64,
    /// Round → currently-active flag, refreshed once per rotation step so
    /// activity checks are a single indexed load instead of an O(b) window
    /// scan per request.
    active: Vec<bool>,
    active_step: u64,
    /// Exposed matching view (rebuilt lazily per rotation for inspection).
    matching: BMatching,
    matching_step: u64,
}

impl Rotor {
    /// Creates a rotor system over `n` racks (`n ≥ 2`) with `b` switches
    /// rotating every `period` requests.
    pub fn new(n: usize, b: usize, period: u64) -> Self {
        assert!(n >= 2 && b >= 1 && period >= 1);
        // Round-robin schedule is defined for even player counts; pad odd
        // n with a virtual rack (its pairs never occur in requests).
        let players = if n.is_multiple_of(2) { n } else { n + 1 };
        let rounds = players - 1;
        let mut rotor = Self {
            n,
            rounds,
            b: b.min(rounds),
            period,
            clock: 0,
            active: vec![false; rounds],
            active_step: u64::MAX,
            matching: BMatching::new(n, b),
            matching_step: u64::MAX,
        };
        rotor.refresh_active();
        rotor.rebuild_matching();
        rotor
    }

    /// Tournament round of a pair (circle method): every pair belongs to
    /// exactly one of the `players - 1` rounds.
    fn round_of(&self, pair: Pair) -> usize {
        let players = if self.n.is_multiple_of(2) {
            self.n
        } else {
            self.n + 1
        };
        let m = players - 1;
        let (i, j) = (pair.lo() as usize, pair.hi() as usize);
        if j == players - 1 {
            (2 * i) % m
        } else {
            (i + j) % m
        }
    }

    fn active_window(&self) -> impl Iterator<Item = usize> + '_ {
        let start = (self.clock / self.period) as usize % self.rounds;
        (0..self.b).map(move |i| (start + i) % self.rounds)
    }

    /// Recomputes the round-activity mask if the window moved.
    fn refresh_active(&mut self) {
        let step = self.clock / self.period;
        if step == self.active_step {
            return;
        }
        self.active_step = step;
        self.active.fill(false);
        let start = step as usize % self.rounds;
        for i in 0..self.b {
            self.active[(start + i) % self.rounds] = true;
        }
    }

    fn is_active(&self, pair: Pair) -> bool {
        debug_assert_eq!(self.active_step, self.clock / self.period);
        self.active[self.round_of(pair)]
    }

    /// Rebuilds the exposed matching snapshot for the current window.
    fn rebuild_matching(&mut self) {
        let step = self.clock / self.period;
        if step == self.matching_step {
            return;
        }
        self.matching_step = step;
        self.matching.clear();
        let players = if self.n.is_multiple_of(2) {
            self.n
        } else {
            self.n + 1
        };
        let m = players - 1;
        let active: Vec<usize> = self.active_window().collect();
        // Modular inverse of 2 (m is odd): the partner of the fixed player.
        let inv2 = m.div_ceil(2);
        for &r in &active {
            let k = (r * inv2) % m; // 2k ≡ r (mod m)
            for i in 0..players / 2 {
                let (a, bb) = if i == 0 {
                    (players - 1, k)
                } else {
                    ((k + i) % m, (k + m - i) % m)
                };
                if a < self.n && bb < self.n && a != bb {
                    let p = Pair::new(a as u32, bb as u32);
                    debug_assert_eq!(self.round_of(p), r);
                    let _ = self.matching.try_insert(p);
                }
            }
        }
    }
}

impl OnlineScheduler for Rotor {
    fn name(&self) -> &str {
        "Rotor"
    }

    fn cap(&self) -> usize {
        self.b
    }

    fn serve(&mut self, pair: Pair) -> ServeOutcome {
        let was_matched = self.is_active(pair);
        self.clock += 1;
        // Rotations are schedule-driven and free; refresh the mask and the
        // snapshot only when the window moved.
        self.refresh_active();
        self.rebuild_matching();
        ServeOutcome {
            was_matched,
            added: 0,
            removed: 0,
        }
    }

    /// Batched serve, segmented at rotation boundaries: within a segment
    /// the active window is frozen, so the inner loop is `round_of` plus
    /// one mask probe per request — the window scan, mask refresh and
    /// snapshot rebuild happen once per rotation step instead of once per
    /// request.
    fn serve_batch(&mut self, batch: &[Pair], dm: &DistanceMatrix, acc: &mut BatchOutcome) {
        let mut i = 0;
        while i < batch.len() {
            let until_rotation = (self.period - self.clock % self.period) as usize;
            let take = until_rotation.min(batch.len() - i);
            let mut matched = 0u64;
            let mut routing = 0u64;
            for &pair in &batch[i..i + take] {
                let was_matched = self.active[self.round_of(pair)];
                matched += was_matched as u64;
                routing += if was_matched { 1 } else { dm.ell(pair) as u64 };
            }
            acc.matched += matched;
            acc.routing_cost += routing;
            self.clock += take as u64;
            self.refresh_active();
            self.rebuild_matching();
            i += take;
        }
    }

    fn matching(&self) -> &BMatching {
        &self.matching
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_partition_all_pairs() {
        let rotor = Rotor::new(8, 1, 10);
        let mut per_round = vec![0usize; rotor.rounds];
        for a in 0..8u32 {
            for b in (a + 1)..8u32 {
                per_round[rotor.round_of(Pair::new(a, b))] += 1;
            }
        }
        // 28 pairs over 7 rounds = 4 per round (perfect matchings on 8).
        assert!(per_round.iter().all(|&c| c == 4), "{per_round:?}");
    }

    #[test]
    fn active_window_serves_exactly_b_rounds() {
        let mut rotor = Rotor::new(8, 3, 1_000_000);
        rotor.rebuild_matching();
        // Snapshot has 3 perfect matchings = 12 edges; degree 3 each.
        assert_eq!(rotor.matching().len(), 12);
        for v in 0..8 {
            assert_eq!(rotor.matching().degree(v), 3);
        }
    }

    #[test]
    fn rotation_changes_active_set() {
        let mut rotor = Rotor::new(6, 1, 2);
        let p = Pair::new(0, 1);
        let mut saw_active = false;
        let mut saw_inactive = false;
        for _ in 0..20 {
            let out = rotor.serve(p);
            if out.was_matched {
                saw_active = true;
            } else {
                saw_inactive = true;
            }
        }
        assert!(
            saw_active && saw_inactive,
            "rotation should toggle pair activity"
        );
    }

    #[test]
    fn serve_batch_equals_serve_loop_across_rotations() {
        use crate::scheduler::BatchOutcome;
        use dcn_topology::DistanceMatrix;
        // Short period so batches straddle many rotation boundaries.
        let dm = DistanceMatrix::uniform(8);
        let reqs: Vec<Pair> = (0..1000u32)
            .map(|i| {
                let a = i % 8;
                let b = (a + 1 + i % 7) % 8;
                if a == b {
                    Pair::new(a, (b + 1) % 8)
                } else {
                    Pair::new(a, b)
                }
            })
            .filter(|p| p.lo() != p.hi())
            .collect();
        let mut unbatched = Rotor::new(8, 2, 3);
        let mut expected = BatchOutcome::default();
        for &p in &reqs {
            let o = unbatched.serve(p);
            expected.record(p, o, &dm);
        }
        let mut batched = Rotor::new(8, 2, 3);
        let mut acc = BatchOutcome::default();
        for chunk in reqs.chunks(64) {
            batched.serve_batch(chunk, &dm, &mut acc);
        }
        assert_eq!(acc, expected);
        assert_eq!(batched.clock, unbatched.clock);
        // Exposed matching snapshots agree too.
        let mut a: Vec<Pair> = batched.matching().edges().collect();
        let mut b: Vec<Pair> = unbatched.matching().edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn odd_rack_count_supported() {
        let mut rotor = Rotor::new(7, 2, 5);
        for i in 0..100u32 {
            let a = i % 7;
            let b = (a + 1 + i % 5) % 7;
            if a != b {
                rotor.serve(Pair::new(a, b));
                rotor.matching().assert_valid();
            }
        }
    }
}
