//! # rdcn — Randomized Online b-Matching for Reconfigurable Optical Datacenters
//!
//! A from-scratch Rust reproduction of *“Optimizing Reconfigurable Optical
//! Datacenters: The Power of Randomization”* (Bienkowski, Fuchssteiner,
//! Schmid; SC 2023 / arXiv:2209.01863).
//!
//! This crate is the public facade: it re-exports the workspace crates under
//! stable module names. See `README.md` for a tour and `DESIGN.md` for the
//! system inventory and experiment index.
//!
//! * [`topology`] — fixed networks (fat-tree, Clos, star, …) + distances.
//! * [`paging`] — (b,a)-paging: randomized marking (R-BMA's per-rack
//!   cache), LRU and Belady for the §2.4 separation, and its adversaries.
//! * [`matching`] — b-matching structures, LRU recency, blossom
//!   max-weight matching.
//! * [`demand`] — traffic matrices, temporal matrix sequences, and
//!   demand-aware static baselines (COUDER-style).
//! * [`traces`] — synthetic datacenter workloads + trace statistics.
//! * [`core`] — R-BMA, BMA, SO-BMA, the cost model and the simulator.
//! * [`adversary`] — coverage-guided adversarial trace search over
//!   mutation genomes, with a replayable regression corpus.
//! * [`telemetry`] — zero-overhead counters and histograms riding the
//!   hot paths (reports stay byte-identical with the sink on or off).
//! * [`util`] — hashing, sampling sets, statistics, JSON.
//!
//! # Quickstart
//!
//! ```
//! use rdcn::core::algorithms::rbma::{Rbma, RemovalMode};
//! use rdcn::core::{run, SimConfig};
//! use rdcn::topology::{builders, DistanceMatrix};
//! use rdcn::traces::{facebook_cluster_source, FacebookCluster, RequestSource};
//! use std::sync::Arc;
//!
//! // 1. Fixed network: a fat-tree with 16 racks.
//! let net = builders::fat_tree_with_racks(16);
//! let dm = Arc::new(DistanceMatrix::between_racks(&net));
//!
//! // 2. Workload: a bursty, skewed Facebook-like request stream — lazy,
//! //    seeded and resettable, O(1) memory regardless of length.
//! let mut trace = facebook_cluster_source(FacebookCluster::Database, 16, 10_000, 1);
//! assert_eq!(trace.len(), 10_000);
//!
//! // 3. Algorithm: R-BMA with b = 4 optical switches, α = 10.
//! let alpha = 10;
//! let mut rbma = Rbma::new(dm.clone(), 4, alpha, RemovalMode::Lazy, 7);
//!
//! // 4. Simulate and inspect costs (`trace.materialize()` would recover an
//! //    eager `Trace` for offline baselines).
//! let report = run(&mut rbma, &dm, alpha, &mut trace, &SimConfig::default());
//! println!("routing cost: {}", report.total.routing_cost);
//! assert!(report.total.matched_fraction() > 0.0);
//! ```

pub use dcn_adversary as adversary;
pub use dcn_core as core;
pub use dcn_demand as demand;
pub use dcn_matching as matching;
pub use dcn_paging as paging;
pub use dcn_telemetry as telemetry;
pub use dcn_topology as topology;
pub use dcn_traces as traces;
pub use dcn_util as util;
