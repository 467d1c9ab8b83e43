//! # dcn-topology
//!
//! The **fixed network** substrate of the (b,a)-matching model (§1.1 of the
//! paper): an arbitrary static, connected network `G = (V, F)` over which
//! requests not served by a reconfigurable matching edge are routed, paying
//! the shortest-path length `ℓ_e`.
//!
//! Modules:
//!
//! * [`graph`] — a compact CSR (compressed sparse row) undirected graph.
//! * [`builders`] — datacenter topology generators. The paper's evaluation
//!   uses a fat-tree; the model section explicitly allows any static network
//!   (star, etc.), and the lower bound (§2.4) is built on a star. We provide:
//!   fat-tree, two-tier leaf–spine Clos, star, ring, 2-D torus, hypercube,
//!   random regular (Jellyfish-style) and complete graphs.
//! * [`distance`] — all-pairs shortest path lengths between *racks* (BFS per
//!   source, optionally parallelized across sources), yielding the
//!   [`DistanceMatrix`] the cost model reads `ℓ_e` from.
//! * [`pair`] — the unordered node-pair type used across the workspace, and
//!   [`PairTable`], the per-pair state store of the online schedulers.
//!
//! # Example
//!
//! ```
//! use dcn_topology::{builders, DistanceMatrix};
//!
//! let net = builders::fat_tree(4); // 4-ary fat-tree, 8 racks
//! let dm = DistanceMatrix::between_racks(&net);
//! assert_eq!(dm.num_racks(), 8);
//! // Racks in the same pod are 2 hops apart, across pods 4 hops.
//! assert_eq!(dm.dist(0, 1), 2);
//! assert_eq!(dm.dist(0, 7), 4);
//! ```

pub mod builders;
pub mod distance;
pub mod graph;
pub mod pair;

pub use builders::Network;
pub use distance::DistanceMatrix;
pub use graph::{Graph, GraphBuilder, NodeId};
pub use pair::{Pair, PairTable};
