//! # dcn-demand
//!
//! The **demand-matrix substrate**: rack-to-rack traffic matrices as
//! first-class values, their temporal evolution, and demand-aware static
//! baselines built from them.
//!
//! The paper evaluates R-BMA on traces *sampled from* a rack-to-rack
//! probability matrix (the Microsoft/ProjecToR setting of Fig. 4), and the
//! demand-aware-networking literature — COUDER (arXiv:2010.00090),
//! integrated topology/traffic engineering (arXiv:2402.09115) — treats the
//! matrix itself as the design input: its skew decides how much a
//! b-matching can save, its drift decides how fast a static design decays,
//! and robust designs hedge over matrix *sets*. This crate provides that
//! vocabulary to the rest of the workspace:
//!
//! * [`matrix`] — [`DemandMatrix`]: dense upper-triangle pair weights with
//!   normalization, skew/entropy statistics, top-k extraction, JSON
//!   export, empirical estimation from observed requests, and constructors for
//!   the standard families (uniform, Zipf-pair, clustered, hotspot,
//!   permutation, and the paper's ProjecToR-style [`microsoft`]
//!   matrix — [`microsoft_pair_weights`] preserves the historical
//!   construction order so seeded Microsoft streams stay byte-identical).
//! * [`sequence`] — [`MatrixSequence`]: piecewise-constant temporal
//!   evolution (abrupt phase switches, quantized smooth drift, per-phase
//!   seeds), so workloads are no longer frozen-matrix i.i.d.
//! * [`aware`] — [`DemandAware`]: COUDER-style static b-matchings from one
//!   matrix (greedy heavy edges or repeated exact matchings over
//!   `dcn-matching`) or hedged over a set (greedy max-min), run by
//!   `dcn-core` as the `DemandAware` algorithm next to SO-BMA/Oblivious.
//!
//! The streaming side lives in `dcn-traces` (`MatrixKernel`,
//! `SequenceKernel`, `TraceSpec::Matrix`/`TraceSpec::Sequence`): this crate
//! deliberately sits *below* the trace layer so both the workload
//! generators and the algorithms can depend on it.
//!
//! [`microsoft`]: DemandMatrix::microsoft

pub mod aware;
pub mod matrix;
pub mod sequence;

pub use aware::{demand_edges, AwareStrategy, DemandAware};
pub use matrix::{microsoft_pair_weights, DemandMatrix, MicrosoftParams};
pub use sequence::{MatrixSequence, Phase};
