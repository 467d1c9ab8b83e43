//! The contract between online algorithms and the simulator.
//!
//! The simulator owns the cost *model*; schedulers own the matching and
//! report what they changed. Requests reach a scheduler in **batches**: the
//! simulator cuts the stream into chunks (aligned to checkpoint and
//! verification boundaries) and makes one
//! [`serve_batch`](OnlineScheduler::serve_batch) call per chunk, which
//! accumulates the chunk's cost components into a [`BatchOutcome`].
//!
//! A scheduler implements [`serve`](OnlineScheduler::serve) and may
//! override `serve_batch` with one fused loop (R-BMA, BMA, Oblivious and
//! Rotor do) that drops the per-request dispatch and folds the accounting
//! inline. Accounting is part of the contract: the accumulated
//! [`BatchOutcome`] must equal what per-request serving plus
//! [`BatchOutcome::record`] would produce —
//! [`serve_batch_unsorted`](OnlineScheduler::serve_batch_unsorted) is
//! exactly that loop, overridden by no scheduler, and the tests compare
//! every `serve_batch` against it on full reports.

use dcn_matching::BMatching;
use dcn_topology::{DistanceMatrix, Pair};

/// What happened while serving one request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Whether the requested pair was a matching edge *when the request
    /// arrived* (determines routing cost: 1 vs `ℓ_e`). Reconfigurations
    /// triggered by the request take effect after it is served (§1.1).
    pub was_matched: bool,
    /// Number of edges the scheduler added to the matching.
    pub added: u32,
    /// Number of edges the scheduler removed from the matching.
    pub removed: u32,
}

/// Accumulated cost components of a served batch (the per-chunk unit the
/// simulator folds into its cumulative [`Checkpoint`](crate::Checkpoint)
/// state).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Requests that arrived on a matching edge (each contributed routing
    /// cost 1).
    pub matched: u64,
    /// Total routing cost of the batch (1 per matched request, `ℓ_e`
    /// otherwise).
    pub routing_cost: u64,
    /// Matching-edge insertions performed while serving the batch.
    pub added: u64,
    /// Matching-edge removals performed while serving the batch.
    pub removed: u64,
}

impl BatchOutcome {
    /// Folds one request's [`ServeOutcome`] into the accumulator — the
    /// single definition of per-request cost accounting, shared by the
    /// default loop and the simulator's contract tests.
    #[inline]
    pub fn record(&mut self, pair: Pair, outcome: ServeOutcome, dm: &DistanceMatrix) {
        self.matched += outcome.was_matched as u64;
        self.routing_cost += if outcome.was_matched {
            1
        } else {
            dm.ell(pair) as u64
        };
        self.added += outcome.added as u64;
        self.removed += outcome.removed as u64;
    }

    /// Insertions + removals (each costs α).
    #[inline]
    pub fn reconfigurations(&self) -> u64 {
        self.added + self.removed
    }
}

/// Retired intra-run worker pool. Serving is sequential within a run, and
/// parallelism lives in the sweep executor ([`crate::sweep`]), where jobs
/// are independent. The type survives, uninhabited, only so that
/// out-of-tree code naming it and
/// [`OnlineScheduler::serve_batch_sharded`] keeps compiling; no value of
/// it can exist.
#[derive(Debug)]
pub enum IntraPool {}

/// An online algorithm maintaining a dynamic b-matching.
pub trait OnlineScheduler {
    /// Short machine-readable name for reports (e.g. `"R-BMA"`).
    fn name(&self) -> &str;

    /// The degree bound `b`.
    fn cap(&self) -> usize;

    /// Serves one request and applies any reconfigurations.
    fn serve(&mut self, pair: Pair) -> ServeOutcome;

    /// Serves a batch one request at a time through
    /// [`serve`](Self::serve), folding each outcome with
    /// [`BatchOutcome::record`] — the per-request reference every
    /// [`serve_batch`](Self::serve_batch) must match. `dm` is the distance
    /// matrix the *simulator* accounts routing cost with (schedulers keep
    /// using their own for decisions). Kept with this default body only;
    /// no scheduler overrides it.
    fn serve_batch_unsorted(
        &mut self,
        batch: &[Pair],
        dm: &DistanceMatrix,
        acc: &mut BatchOutcome,
    ) {
        for &pair in batch {
            let outcome = self.serve(pair);
            acc.record(pair, outcome, dm);
        }
    }

    /// Serves a batch of requests, accumulating cost components into `acc`
    /// — the simulator's one call per chunk. Overrides run a fused loop;
    /// the accumulated outcome and the scheduler's end state must stay
    /// identical to [`serve_batch_unsorted`](Self::serve_batch_unsorted).
    fn serve_batch(&mut self, batch: &[Pair], dm: &DistanceMatrix, acc: &mut BatchOutcome) {
        self.serve_batch_unsorted(batch, dm, acc);
    }

    /// Kept for source compatibility: delegates to
    /// [`serve_batch`](Self::serve_batch). `pool` is uninhabited, so no
    /// caller can reach this.
    fn serve_batch_sharded(
        &mut self,
        batch: &[Pair],
        dm: &DistanceMatrix,
        _pool: &IntraPool,
        acc: &mut BatchOutcome,
    ) {
        self.serve_batch(batch, dm, acc);
    }

    /// Read access to the current matching (for verification and analysis).
    fn matching(&self) -> &BMatching;

    /// Drains the scheduler's local telemetry recorders into `sink` (called
    /// once by the simulator at end of run — never on the serve path). The
    /// default reports nothing.
    fn telemetry_flush(&mut self, _sink: &dcn_telemetry::Telemetry) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_default() {
        let o = ServeOutcome::default();
        assert!(!o.was_matched);
        assert_eq!(o.added + o.removed, 0);
    }

    #[test]
    fn record_accounts_matched_and_unmatched() {
        let dm = DistanceMatrix::uniform(4);
        let mut acc = BatchOutcome::default();
        acc.record(
            Pair::new(0, 1),
            ServeOutcome {
                was_matched: true,
                added: 0,
                removed: 0,
            },
            &dm,
        );
        acc.record(
            Pair::new(1, 2),
            ServeOutcome {
                was_matched: false,
                added: 1,
                removed: 2,
            },
            &dm,
        );
        assert_eq!(acc.matched, 1);
        assert_eq!(acc.routing_cost, 1 + 1, "1 (matched) + ℓ=1 (uniform)");
        assert_eq!(acc.reconfigurations(), 3);
    }
}
