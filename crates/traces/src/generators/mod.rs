//! Workload generators: Facebook-like clusters, Microsoft-like traffic
//! matrices, generic demand-matrix kernels, synthetic references and
//! adversarial sequences.

pub mod adversarial;
pub mod demand;
pub mod facebook;
pub mod genome;
pub mod microsoft;
pub mod synthetic;

use dcn_topology::Pair;

/// Every rack pair over `0..num_racks` in canonical order (`(0,1), (0,2),
/// …, (1,2), …`), allocated once at its exact length.
pub(crate) fn all_pairs(num_racks: usize) -> Vec<Pair> {
    let n = num_racks as u32;
    let mut pairs = Vec::with_capacity(num_racks * (num_racks - 1) / 2);
    for a in 0..n {
        pairs.extend(((a + 1)..n).map(|b| Pair::new(a, b)));
    }
    pairs
}
