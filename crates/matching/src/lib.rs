//! # dcn-matching
//!
//! The **matching substrate**: data structures and offline algorithms for
//! (b-)matchings between racks.
//!
//! * [`bmatching`] — [`BMatching`], the dynamic degree-capped edge set every
//!   online algorithm maintains (`M ⊆ V²` with `deg_M(v) ≤ b`, §1.1).
//! * [`blossom`] — exact maximum-weight matching (Edmonds' blossom
//!   algorithm, Galil \[31\], in the O(n³) formulation popularized by van
//!   Rantwijk's `mwmatching` — the implementation behind NetworkX's
//!   `max_weight_matching` that the paper's SO-BMA baseline calls).
//! * [`greedy`] — greedy heavy matchings (½-approximation) and greedy
//!   b-matchings, in the spirit of Hanauer et al. \[40\].
//! * [`repeated`] — maximum-weight *b*-matching as the union of `b` rounds
//!   of exact matching on the residual graph: exactly what `b` optical
//!   circuit switches realize physically (each switch carries one matching).
//! * [`recency`] — per-endpoint LRU recency over a [`BMatching`]:
//!   [`recency::LruBMatching`], one last-touch stamp per slot of the
//!   matching's fixed-stride adjacency (O(1) touch, O(b) eviction, BMA's
//!   hot path), plus the stamp/B-tree reference oracle it is
//!   equivalence-tested against.
//! * [`brute`] — exponential-time exact optima for small instances, used as
//!   ground truth by tests.

pub mod blossom;
pub mod bmatching;
pub mod brute;
pub mod greedy;
pub mod recency;
pub mod repeated;

pub use blossom::max_weight_matching;
pub use bmatching::BMatching;
pub use greedy::{greedy_b_matching, greedy_matching};
pub use recency::{BTreeRecencyMatching, LruBMatching, RecencyMatching};
pub use repeated::repeated_mwm_b_matching;

/// A weighted candidate edge between racks `u` and `v` (`u != v`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedEdge {
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
    /// Weight (for SO-BMA: accumulated routing-cost savings of the pair).
    pub weight: i64,
}

impl WeightedEdge {
    /// Convenience constructor.
    pub fn new(u: u32, v: u32, weight: i64) -> Self {
        assert!(u != v, "weighted edge endpoints must differ");
        Self { u, v, weight }
    }
}
