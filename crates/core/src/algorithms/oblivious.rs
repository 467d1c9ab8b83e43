//! The demand-oblivious baseline: no reconfigurable links at all. Every
//! request rides the fixed network at cost `ℓ_e` — the violet reference
//! line in Figs. 1a–4a.

use crate::scheduler::{BatchOutcome, OnlineScheduler, ServeOutcome};
use dcn_matching::BMatching;
use dcn_topology::{DistanceMatrix, Pair};

/// Scheduler that never configures a matching edge.
#[derive(Clone, Debug)]
pub struct Oblivious {
    matching: BMatching,
}

impl Oblivious {
    /// Creates the baseline over `n` racks (cap kept for reporting parity).
    pub fn new(n: usize, b: usize) -> Self {
        Self {
            matching: BMatching::new(n, b.max(1)),
        }
    }
}

impl OnlineScheduler for Oblivious {
    fn name(&self) -> &str {
        "Oblivious"
    }

    fn cap(&self) -> usize {
        self.matching.cap()
    }

    fn serve(&mut self, _pair: Pair) -> ServeOutcome {
        ServeOutcome {
            was_matched: false,
            added: 0,
            removed: 0,
        }
    }

    /// Batched serve: with no matching state at all, a batch is a pure
    /// distance-lookup sum — the floor any batched scheduler loop is
    /// measured against.
    fn serve_batch(&mut self, batch: &[Pair], dm: &DistanceMatrix, acc: &mut BatchOutcome) {
        let mut routing = 0u64;
        for &pair in batch {
            routing += dm.ell(pair) as u64;
        }
        acc.routing_cost += routing;
    }

    fn matching(&self) -> &BMatching {
        &self.matching
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_matches() {
        let mut o = Oblivious::new(5, 2);
        for _ in 0..10 {
            let out = o.serve(Pair::new(0, 1));
            assert!(!out.was_matched);
            assert_eq!(out.added + out.removed, 0);
        }
        assert!(o.matching().is_empty());
    }
}
