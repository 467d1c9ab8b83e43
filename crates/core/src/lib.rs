//! # dcn-core
//!
//! The paper's primary contribution as a library: **online (b,a)-matching
//! for reconfigurable optical datacenters**.
//!
//! The model (§1.1): racks communicate over a fixed network with
//! shortest-path lengths `ℓ_e`; `b` optical circuit switches provide a
//! reconfigurable b-matching `M`. Serving request `e` costs 1 if `e ∈ M`
//! and `ℓ_e` otherwise; each matching-edge insertion or removal costs `α`.
//!
//! * [`scheduler`] — the [`OnlineScheduler`] contract and serve outcomes:
//!   `serve` per request plus one fused `serve_batch` loop per chunk.
//! * [`algorithms`] — the algorithms of §2/§3:
//!   [`algorithms::rbma::Rbma`] (the paper's randomized O(γ·log b)
//!   algorithm), [`algorithms::bma::Bma`] (the deterministic Θ(b) baseline
//!   of Bienkowski et al. \[11\]), [`algorithms::static_offline`] (SO-BMA),
//!   [`algorithms::oblivious::Oblivious`], plus the RotorNet-style rotor,
//!   periodic-rebuild and demand-aware static baselines. All of them are
//!   online: [`algorithms::AlgorithmKind::build_online`] is the one
//!   constructor, and none needs the trace ahead of time.
//! * [`simulator`] — request-driven execution with checkpointed
//!   routing-cost / reconfiguration-cost / wall-clock series (the x/y data
//!   of Figs. 1–4). Consumes any [`simulator::RequestStream`]: an eager
//!   slice or an O(1)-memory [`dcn_traces::RequestSource`] stream.
//! * [`sweep`] — deterministic parallel fan-out of
//!   (algorithm × b × trace-seed × algo-seed) runs across threads; each
//!   job carries a [`dcn_traces::TraceSpec`] and synthesizes its own
//!   stream in-place. Each simulation serves on one thread, as in §3.1.
//! * [`prefetch`] — generate while serving: a sequential job with a core
//!   to spare has one helper thread fill its next requests into a small
//!   ring, with every report and counter unchanged.
//! * [`journal`] / [`sweep::run_jobs_supervised`] — the fault-tolerance
//!   layer: `catch_unwind` supervision with a fixed, deterministic retry
//!   budget ([`sweep::RETRIES`], [`sweep::BACKOFF_BASE`]) and structured
//!   quarantine ([`sweep::JobFailure`]), and a resumable completed-job
//!   journal ([`journal::RunJournal`]) written with atomic rename so
//!   kill-and-resume reproduces an uninterrupted run byte-for-byte
//!   (DESIGN §8).
//! * Telemetry — the simulator, the schedulers and the executor's claim
//!   loop flush event counters and log2 latency histograms into a
//!   [`dcn_telemetry::Telemetry`] handle
//!   ([`simulator::SimConfig::telemetry`]; disabled by default). Reports
//!   stay byte-identical with telemetry on or off.
//! * [`ratio`] — adversarial fitness: an online algorithm's total cost
//!   relative to the static offline baseline on the same trace (the
//!   objective the adversary search in `dcn-adversary` maximizes).
//! * [`report`] — serializable run reports and cross-seed averaging.
//!
//! # Quickstart
//!
//! ```
//! use dcn_core::algorithms::rbma::{Rbma, RemovalMode};
//! use dcn_core::simulator::{run, SimConfig};
//! use dcn_topology::{builders, DistanceMatrix};
//! use dcn_traces::generators::facebook::{facebook_cluster_source, FacebookCluster};
//! use std::sync::Arc;
//!
//! let net = builders::fat_tree_with_racks(16);
//! let dm = Arc::new(DistanceMatrix::between_racks(&net));
//! // A lazy request stream — nothing is materialized.
//! let mut trace = facebook_cluster_source(FacebookCluster::Database, 16, 20_000, 42);
//! let alpha = 10;
//! let mut rbma = Rbma::new(dm.clone(), 4, alpha, RemovalMode::Lazy, 7);
//! let report = run(&mut rbma, &dm, alpha, &mut trace, &SimConfig::default());
//! assert!(report.total.routing_cost > 0);
//! ```

pub mod algorithms;
pub mod journal;
pub mod prefetch;
pub mod ratio;
pub mod report;
pub mod scheduler;
pub mod simulator;
pub mod sweep;

pub use journal::RunJournal;
pub use ratio::{cost_ratio_vs_static, RatioOutcome};
pub use report::{AveragedSeries, Checkpoint, RunReport};
pub use scheduler::{IntraPool, OnlineScheduler, ServeOutcome};
pub use simulator::{run, total_served, RequestStream, SimConfig};
pub use sweep::{JobFailure, JobOutcome, ShardSpec};
