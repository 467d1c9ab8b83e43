//! # dcn-util
//!
//! Shared low-level utilities for the `rdcn` workspace.
//!
//! This crate is the performance substrate under every other crate in the
//! workspace. It deliberately has no dependency besides [`rand`]:
//!
//! * [`fxhash`] — an Fx-style multiplicative hasher plus [`FxHashMap`] /
//!   [`FxHashSet`] aliases. The workloads hash billions of small integer keys
//!   (packed node pairs), where SipHash is needlessly slow.
//! * [`indexed_set`] — [`IndexedSet`], a set with O(1) insert, remove,
//!   membership *and O(1) uniform random sampling*. The randomized marking
//!   algorithm at the heart of R-BMA needs to evict a uniformly random
//!   unmarked page per fault; this structure makes that O(1).
//! * [`stats`] — streaming statistics (Welford), summaries, Zipf weights
//!   and the Gini coefficient used by trace analysis and the generators.
//! * [`json`] — a compact `serde`-compatible JSON writer used to persist
//!   simulation reports without pulling in a full JSON crate, and the
//!   workspace's one JSON reader.
//! * [`timer`] — a [`timer::Stopwatch`] for the execution-time
//!   panels of the evaluation.
//! * [`rngx`] — SplitMix64 seed derivation so that every run in a sweep gets
//!   an independent but reproducible RNG stream, plus the shared seeded
//!   Fisher–Yates [`rngx::shuffle`] whose draw order the byte-identical
//!   stream guarantees rest on.
//! * [`failpoint`] — deterministic fault injection: named, seeded,
//!   replayable failure sites that cost one relaxed load while disarmed.
//! * [`fsx`] — crash-safe filesystem primitives: atomic write-then-rename
//!   and an advisory create-new file lock.

pub mod failpoint;
pub mod fsx;
pub mod fxhash;
pub mod indexed_set;
pub mod json;
pub mod rngx;
pub mod stats;
pub mod timer;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use indexed_set::IndexedSet;
pub use stats::{gini, summarize, zipf_weights, OnlineStats, Summary};
pub use timer::Stopwatch;
