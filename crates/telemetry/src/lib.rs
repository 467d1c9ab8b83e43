//! # dcn-telemetry
//!
//! Dependency-free metrics for the simulator, the executor and the figure
//! harness: [`Counter`] and log2-bucketed integer [`Histogram`] recorders,
//! merged at flush time into a shared [`Telemetry`] handle.
//!
//! ## Hot-path discipline
//!
//! The serve loop runs at tens of millions of requests per second, so the
//! layer is built around **component-local recorders**: a scheduler or a
//! worker thread owns plain [`Counter`]s and [`Histogram`]s (single u64
//! adds — no atomics, no locks, no floats, no allocation) and merges them
//! into the [`Telemetry`] registry exactly once, at flush (end of run or
//! worker exit). The registry itself is a mutex around a [`Snapshot`]; it
//! is only ever touched on the flush path.
//!
//! Telemetry must never perturb results: recorders draw no randomness,
//! change no cost accounting, and nothing recorded here enters a
//! `RunReport` — reports are byte-identical with telemetry enabled or
//! disabled (pinned by a proptest in `dcn-core`).
//!
//! ## Enabled and disabled
//!
//! A disabled handle ([`Telemetry::disabled`], the default) makes every
//! merge a no-op behind one branch, so a call site pays that branch per
//! flush and nothing else; `micro_batch`'s `batch_telemetry` group gates
//! the enabled handle's cost against the disabled one.
//!
//! ## Export
//!
//! [`Snapshot`] is the portable aggregation unit: it merges associatively
//! ([`Snapshot::absorb`] — counters and histogram buckets sum, gauges
//! max), serializes to the compact single-line `TELEM_*.json` schema
//! ([`Snapshot::to_json`]) and to Prometheus text exposition format
//! ([`Snapshot::to_prometheus`]). Histogram percentiles are recomputed
//! from the merged buckets, so merge-then-export equals export-then-merge.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Local recorders (hot-path side: plain integer cells, no sharing)
// ---------------------------------------------------------------------------

/// A component-local event counter: one u64, bumped on the hot path,
/// drained into the registry at flush.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter(u64);

impl Counter {
    /// Adds one.
    #[inline(always)]
    pub fn bump(&mut self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline(always)]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Returns the value and resets to zero (flush-and-drain).
    #[inline]
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `k ≥ 1`
/// holds values with bit length `k`, i.e. `[2^(k-1), 2^k - 1]`, up to
/// bucket 64 (`[2^63, u64::MAX]`).
pub const HIST_BUCKETS: usize = 65;

/// Bucket index of a value: 0 for 0, otherwise the bit length (1..=64).
#[inline(always)]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Largest value a bucket holds: 0, 1, 3, 7, …, `u64::MAX`. This is the
/// representative percentiles report, so a percentile overestimates its
/// exact order statistic by at most 2x (the log2 resolution).
#[inline]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        64.. => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// A component-local log2-bucketed integer histogram. `record` is a
/// `leading_zeros` plus three u64 adds — no floats, no locks, no
/// allocation — so it is safe to call once per serve chunk or per job.
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline(always)]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The portable (sparse) form for merging and export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| (k as u8, c))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots (flush/export side)
// ---------------------------------------------------------------------------

/// Sparse portable histogram: sorted `(bucket, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The `p`-th percentile (p in 1..=100): the upper bound of the first
    /// bucket whose cumulative count reaches rank `⌈count·p/100⌉`.
    /// Returns 0 on an empty histogram.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * p).div_ceil(100).max(1);
        let mut cum = 0u64;
        for &(k, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return bucket_upper_bound(k as usize);
            }
        }
        bucket_upper_bound(64)
    }

    /// Folds `other` in: counts and per-bucket tallies sum.
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        let mut merged: BTreeMap<u8, u64> = self.buckets.iter().copied().collect();
        for &(k, c) in &other.buckets {
            *merged.entry(k).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// A merged view of everything flushed into one [`Telemetry`] registry:
/// the unit `TELEM_*.json` serializes, shard merging folds, and the
/// summary table renders.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotone event counts (shard merge: sum).
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time values (shard merge: max).
    pub gauges: BTreeMap<String, i64>,
    /// Log2 histograms (shard merge: bucket-wise sum).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` in. Associative and commutative (counters and
    /// histogram buckets sum, gauges max), so shard artifacts merge in any
    /// grouping to the same result — pinned by unit tests here and the
    /// shard round-trip in CI.
    pub fn absorb(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(i64::MIN);
            *e = (*e).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().absorb(h);
        }
    }

    /// Serializes to the compact single-line `TELEM_*.json` schema:
    ///
    /// ```json
    /// {"target":"demand","counters":{...},"gauges":{...},
    ///  "histograms":{"name":{"count":N,"sum":S,"p50":..,"p90":..,"p99":..,
    ///                        "buckets":[[k,c],...]}}}
    /// ```
    ///
    /// Every value is an integer (percentiles are bucket upper bounds), so
    /// the artifact is exactly reproducible from the buckets and merging
    /// commutes with serialization.
    pub fn to_json(&self, target: &str) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"target\":");
        push_json_string(&mut s, target);
        s.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_string(&mut s, k);
            s.push(':');
            s.push_str(&v.to_string());
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_string(&mut s, k);
            s.push(':');
            s.push_str(&v.to_string());
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_string(&mut s, k);
            s.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.percentile(50),
                h.percentile(90),
                h.percentile(99)
            ));
            for (j, (b, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{b},{c}]"));
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }

    /// Serializes to Prometheus text exposition format (`# TYPE` lines,
    /// `rdcn_`-prefixed sanitized names, cumulative `_bucket{le=...}`
    /// series per histogram).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(256);
        for (k, v) in &self.counters {
            let name = prom_name(k);
            s.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = prom_name(k);
            s.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let name = prom_name(k);
            s.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for &(b, c) in &h.buckets {
                cum += c;
                s.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_upper_bound(b as usize)
                ));
            }
            s.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            s.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        s
    }
}

/// Appends a JSON string literal (metric names are ASCII, but escape
/// defensively anyway).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Sanitizes a dotted metric name for Prometheus: `serve.chunk_ns` →
/// `rdcn_serve_chunk_ns`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("rdcn_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

struct Registry {
    store: Mutex<Snapshot>,
}

/// Shared sink local recorders flush into. Cloning shares the registry
/// (it is an `Arc`); the default handle is disabled and every method on
/// it is a no-op behind one branch.
///
/// All methods lock the registry — they are **flush-path** operations.
/// Hot loops accumulate into local [`Counter`]s / [`Histogram`]s and call
/// these once per run / worker / chunk boundary.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_enabled() {
            f.write_str("Telemetry(enabled)")
        } else {
            f.write_str("Telemetry(disabled)")
        }
    }
}

impl Telemetry {
    /// A live handle with a fresh registry.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Registry {
                store: Mutex::new(Snapshot::default()),
            })),
        }
    }

    /// The no-op handle (also the `Default`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether flushes into this handle are recorded.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_store(&self, f: impl FnOnce(&mut Snapshot)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.store.lock().expect("telemetry registry poisoned"));
        }
    }

    /// Adds to a named counter (no-op when disabled or `v == 0`, so
    /// drained recorders that saw nothing leave no key behind).
    pub fn add_counter(&self, name: &str, v: u64) {
        if v > 0 {
            self.with_store(|s| *s.counters.entry(name.to_string()).or_insert(0) += v);
        }
    }

    /// Folds a named gauge toward its maximum.
    pub fn gauge_max(&self, name: &str, v: i64) {
        self.with_store(|s| {
            let e = s.gauges.entry(name.to_string()).or_insert(i64::MIN);
            *e = (*e).max(v);
        });
    }

    /// Records a single observation into a named histogram (flush-path
    /// convenience; hot loops use a local [`Histogram`] and
    /// [`Telemetry::merge_histogram`]).
    pub fn observe(&self, name: &str, v: u64) {
        self.with_store(|s| {
            let h = s.histograms.entry(name.to_string()).or_default();
            let mut local = Histogram::default();
            local.record(v);
            h.absorb(&local.snapshot());
        });
    }

    /// Merges a local histogram recorder into a named histogram.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if !h.is_empty() {
            self.with_store(|s| {
                s.histograms
                    .entry(name.to_string())
                    .or_default()
                    .absorb(&h.snapshot())
            });
        }
    }

    /// Merges a whole snapshot (used by shard merging and tests).
    pub fn merge(&self, snapshot: &Snapshot) {
        self.with_store(|s| s.absorb(snapshot));
    }

    /// A copy of everything flushed so far (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        if let Some(inner) = &self.inner {
            return inner
                .store
                .lock()
                .expect("telemetry registry poisoned")
                .clone();
        }
        Snapshot::default()
    }

    /// Takes everything flushed so far, leaving the registry empty —
    /// the per-target export boundary of `repro_figures --telemetry`.
    pub fn drain(&self) -> Snapshot {
        if let Some(inner) = &self.inner {
            return std::mem::take(&mut *inner.store.lock().expect("telemetry registry poisoned"));
        }
        Snapshot::default()
    }
}

// ---------------------------------------------------------------------------
// Process-global handle
// ---------------------------------------------------------------------------

static GLOBAL: Mutex<Option<Telemetry>> = Mutex::new(None);

/// Installs the process-global handle (`repro_figures --telemetry` does
/// this once at startup). Components that take no explicit handle —
/// `SimConfig::default()`, the sweep executor — pick it up via
/// [`global`]. Installing a disabled handle uninstalls.
pub fn install_global(telemetry: Telemetry) {
    *GLOBAL.lock().expect("global telemetry poisoned") =
        telemetry.is_enabled().then_some(telemetry);
}

/// The process-global handle; disabled unless [`install_global`] was
/// called. Cheap (one mutex lock + `Arc` clone) but not hot-path cheap —
/// call once per run/fan-out, not per request.
pub fn global() -> Telemetry {
    if let Some(t) = GLOBAL.lock().expect("global telemetry poisoned").as_ref() {
        return t.clone();
    }
    Telemetry::disabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Value-asserting tests of the recorders, the registry and its exports.
    mod compiled_in {
        use super::super::*;

        #[test]
        fn bucket_boundaries_are_exact_powers_of_two() {
            // Bucket 0 is the value 0; bucket k >= 1 is bit length k,
            // i.e. the half-open doubling interval [2^(k-1), 2^k).
            assert_eq!(bucket_index(0), 0);
            assert_eq!(bucket_index(1), 1);
            assert_eq!(bucket_index(2), 2);
            assert_eq!(bucket_index(3), 2);
            assert_eq!(bucket_index(4), 3);
            for k in 1..64usize {
                let lo = 1u64 << (k - 1);
                let hi = (1u64 << k) - 1;
                assert_eq!(bucket_index(lo), k, "lower edge of bucket {k}");
                assert_eq!(bucket_index(hi), k, "upper edge of bucket {k}");
                assert_eq!(bucket_index(hi + 1), k + 1, "first value past bucket {k}");
            }
            assert_eq!(bucket_index(u64::MAX), 64);
            assert_eq!(bucket_upper_bound(0), 0);
            assert_eq!(bucket_upper_bound(1), 1);
            assert_eq!(bucket_upper_bound(2), 3);
            assert_eq!(bucket_upper_bound(10), 1023);
            assert_eq!(bucket_upper_bound(64), u64::MAX);
        }

        #[test]
        fn histogram_records_and_snapshots() {
            let mut h = Histogram::default();
            for v in [0u64, 1, 2, 3, 1000, 1023, 1024] {
                h.record(v);
            }
            assert_eq!(h.count(), 7);
            let s = h.snapshot();
            assert_eq!(s.count, 7);
            assert_eq!(s.sum, 3053);
            // 0→b0, 1→b1, {2,3}→b2, {1000,1023}→b10, 1024→b11.
            assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (10, 2), (11, 1)]);
        }

        #[test]
        fn percentiles_walk_cumulative_buckets() {
            let mut h = Histogram::default();
            for _ in 0..90 {
                h.record(100); // bucket 7, upper bound 127
            }
            for _ in 0..10 {
                h.record(100_000); // bucket 17, upper bound 131071
            }
            let s = h.snapshot();
            assert_eq!(s.percentile(50), 127);
            assert_eq!(s.percentile(90), 127);
            assert_eq!(s.percentile(91), 131_071);
            assert_eq!(s.percentile(99), 131_071);
            assert_eq!(s.percentile(100), 131_071);
            assert_eq!(HistogramSnapshot::default().percentile(50), 0);
        }

        #[test]
        fn snapshot_merge_is_associative_and_commutative() {
            let make = |seed: u64| {
                let t = Telemetry::enabled();
                t.add_counter("c.events", seed + 1);
                t.add_counter(&format!("c.only{seed}"), 7);
                t.gauge_max("g.peak", seed as i64 * 10);
                let mut h = Histogram::default();
                for i in 0..seed + 3 {
                    h.record(i * seed + 1);
                }
                t.merge_histogram("h.lat", &h);
                t.snapshot()
            };
            let (a, b, c) = (make(1), make(2), make(5));
            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.absorb(&b);
            left.absorb(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b.clone();
            bc.absorb(&c);
            let mut right = a.clone();
            right.absorb(&bc);
            assert_eq!(left, right);
            // commutes, and serialization commutes with merging
            let mut rev = c.clone();
            rev.absorb(&b);
            rev.absorb(&a);
            assert_eq!(left, rev);
            assert_eq!(left.to_json("t"), rev.to_json("t"));
        }

        #[test]
        fn json_schema_is_stable() {
            let t = Telemetry::enabled();
            t.add_counter("serve.requests", 5);
            t.gauge_max("intra.imbalance_pct", 12);
            t.observe("serve.chunk_ns", 900);
            let j = t.snapshot().to_json("demand");
            assert_eq!(
                j,
                "{\"target\":\"demand\",\"counters\":{\"serve.requests\":5},\
                 \"gauges\":{\"intra.imbalance_pct\":12},\
                 \"histograms\":{\"serve.chunk_ns\":{\"count\":1,\"sum\":900,\
                 \"p50\":1023,\"p90\":1023,\"p99\":1023,\"buckets\":[[10,1]]}}}"
            );
        }

        #[test]
        fn prometheus_dump_has_cumulative_buckets() {
            let t = Telemetry::enabled();
            t.add_counter("serve.requests", 5);
            let mut h = Histogram::default();
            h.record(1);
            h.record(2);
            h.record(900);
            t.merge_histogram("serve.chunk_ns", &h);
            let p = t.snapshot().to_prometheus();
            assert!(p.contains("# TYPE rdcn_serve_requests counter\nrdcn_serve_requests 5\n"));
            assert!(p.contains("rdcn_serve_chunk_ns_bucket{le=\"1\"} 1\n"));
            assert!(p.contains("rdcn_serve_chunk_ns_bucket{le=\"3\"} 2\n"));
            assert!(p.contains("rdcn_serve_chunk_ns_bucket{le=\"1023\"} 3\n"));
            assert!(p.contains("rdcn_serve_chunk_ns_bucket{le=\"+Inf\"} 3\n"));
            assert!(p.contains("rdcn_serve_chunk_ns_count 3\n"));
        }

        #[test]
        fn drain_empties_the_registry_and_zero_adds_leave_no_key() {
            let t = Telemetry::enabled();
            t.add_counter("a", 0);
            assert!(t.snapshot().is_empty(), "zero add must leave no key");
            t.add_counter("a", 2);
            let clone = t.clone();
            clone.add_counter("a", 3); // clones share the registry
            assert_eq!(t.drain().counters["a"], 5);
            assert!(t.snapshot().is_empty());
        }

        #[test]
        fn counter_and_gauge_recorders() {
            let mut c = Counter::default();
            c.bump();
            c.add(4);
            assert_eq!(c.get(), 5);
            assert_eq!(c.take(), 5);
            assert_eq!(c.get(), 0);
            // Gauges live in the registry only and fold toward their max.
            let t = Telemetry::enabled();
            t.gauge_max("g", 3);
            t.gauge_max("g", -1);
            assert_eq!(t.snapshot().gauges["g"], 3);
        }

        #[test]
        fn global_install_and_uninstall() {
            // Serialized within this test: install, observe, uninstall.
            let t = Telemetry::enabled();
            install_global(t.clone());
            global().add_counter("g.c", 1);
            assert_eq!(t.snapshot().counters["g.c"], 1);
            install_global(Telemetry::disabled());
            assert!(!global().is_enabled());
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.add_counter("x", 10);
        t.gauge_max("y", 3);
        t.observe("z", 9);
        assert!(t.snapshot().is_empty());
        assert!(t.drain().is_empty());
    }
}
