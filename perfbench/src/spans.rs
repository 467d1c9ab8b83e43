//! Spans for the traced run: one span per public call into a layer, kept in
//! memory, attributed to layers by self time, and written out at the end.
//!
//! A span's self time is its duration minus the part its children cover.
//! Under a fan-out span (`workers > 1`) the children ran on worker threads
//! in parallel, so each child covers `duration / workers` of the fan-out's
//! wall time and the fan-out's own self time is the workers' idle share.
//! With that scaling the attributed times of a root span's subtree sum to
//! the root's duration exactly, which is what lets the layer-share table
//! add up to the pass's wall time.

use dcn_core::scheduler::{BatchOutcome, OnlineScheduler, ServeOutcome};
use dcn_matching::BMatching;
use dcn_topology::{DistanceMatrix, Pair};
use dcn_traces::RequestSource;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Call name, `layer.call` (see [`layer_of`]).
    pub name: &'static str,
    /// Index of the enclosing span in the same log, or [`ROOT`].
    pub parent: u32,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Requests the call handled (`fill`, `serve_batch`); 0 elsewhere.
    pub count: u64,
    /// Workers running this span's children in parallel (1 = sequential).
    pub workers: u32,
    /// Small per-process index of the recording thread.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// A single-threaded span recorder. Worker threads record into logs of
/// their own (sharing the epoch) that the fan-out span then adopts.
pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl SpanLog {
    /// An empty log on the calling thread, timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            thread: thread_index(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// The instant all offsets count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.borrow().last().copied().unwrap_or(ROOT)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.fan_out(name, 1, f)
    }

    /// Runs `f` inside a span whose children run on `workers` threads.
    pub fn fan_out<T>(&self, name: &'static str, workers: u32, f: impl FnOnce() -> T) -> T {
        let start = self.offset(Instant::now());
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.parent(),
                start_ns: start,
                end_ns: start,
                count: 0,
                workers: workers.max(1),
                thread: self.thread,
            });
            (spans.len() - 1) as u32
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id as usize].end_ns = self.offset(Instant::now());
        out
    }

    /// Records a finished call without children (the wrappers' hot path).
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant, count: u64) {
        let span = Span {
            name,
            parent: self.parent(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            count,
            workers: 1,
            thread: self.thread,
        };
        self.spans.borrow_mut().push(span);
    }

    /// Moves a worker log's spans under the currently open span.
    pub fn adopt(&self, child: Vec<Span>) {
        let parent = self.parent();
        let mut spans = self.spans.borrow_mut();
        let base = spans.len() as u32;
        spans.extend(child.into_iter().map(|mut s| {
            s.parent = if s.parent == ROOT {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    /// The recorded spans, in start order per thread.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Runs `f` in a span when a log is given, bare otherwise.
pub fn timed<T>(log: Option<&SpanLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => log.span(name, f),
        None => f(),
    }
}

/// The layer (crate or module) a span name belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "topology" => "dcn-topology",
        "traces" => "dcn-traces",
        "algorithms" | "serve" => "dcn-core::algorithms",
        "sim" => "dcn-core::simulator",
        "sweep" => "dcn-core::sweep",
        "offline" => "static_offline",
        "fig" => "dcn-bench",
        _ => UNATTRIBUTED,
    }
}

/// Layer of the benchmark's own glue between calls.
pub const UNATTRIBUTED: &str = "unattributed";

/// Every layer of the share table, in print order, with the per-layer
/// metric that reports its share.
pub const LAYERS: [(&str, &str); 8] = [
    ("dcn-topology", "share.topology_pct"),
    ("dcn-traces", "share.traces_pct"),
    ("dcn-core::algorithms", "share.algorithms_pct"),
    ("dcn-core::simulator", "share.simulator_pct"),
    ("dcn-core::sweep", "share.sweep_pct"),
    ("static_offline", "share.offline_pct"),
    ("dcn-bench", "share.figures_pct"),
    (UNATTRIBUTED, "share.unattributed_pct"),
];

/// Wall-clock seconds attributed to each layer of [`LAYERS`] (same order).
/// The entries sum to the total duration of the root spans.
pub fn attribute(spans: &[Span]) -> Vec<f64> {
    let n = spans.len();
    let mut covered = vec![0f64; n];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            covered[s.parent as usize] += s.dur_ns() as f64 / p.workers as f64;
        }
    }
    // Parents precede their children, so one forward pass sets weights.
    let mut weight = vec![1f64; n];
    let mut out = vec![0f64; LAYERS.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != ROOT {
            let p = s.parent as usize;
            weight[i] = weight[p] / spans[p].workers as f64;
        }
        let self_ns = s.dur_ns() as f64 - covered[i];
        let layer = layer_of(s.name);
        let k = LAYERS
            .iter()
            .position(|&(l, _)| l == layer)
            .expect("known layer");
        out[k] += weight[i] * self_ns / 1e9;
    }
    out
}

/// Per-name totals over a span set: (calls, summed duration ns, summed count).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.count;
    }
    out
}

/// The spans as JSON lines, one object per span, `id` = position.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"thread\":{},\
             \"start_ns\":{},\"end_ns\":{},\"count\":{},\"workers\":{}}}",
            s.name,
            layer_of(s.name),
            s.thread,
            s.start_ns,
            s.end_ns,
            s.count,
            s.workers
        );
    }
    out
}

/// A request source that records one `traces.fill` span per `fill` call and
/// forwards everything else unchanged.
pub struct TimedSource<'a> {
    inner: Box<dyn RequestSource + Send>,
    log: &'a SpanLog,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn RequestSource + Send>, log: &'a SpanLog) -> Self {
        Self { inner, log }
    }
}

impl RequestSource for TimedSource<'_> {
    fn num_racks(&self) -> usize {
        self.inner.num_racks()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<Pair> {
        self.inner.next_request()
    }

    fn fill(&mut self, buf: &mut [Pair]) -> usize {
        let t0 = Instant::now();
        let n = self.inner.fill(buf);
        self.log.leaf("traces.fill", t0, Instant::now(), n as u64);
        n
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// A scheduler that records one span per `serve_batch` call (named after
/// the algorithm, e.g. `serve.rbma`) and forwards everything else
/// unchanged. The simulator's default configuration calls only
/// `serve_batch`; the other batch entry points are forwarded so that no
/// trait default reroutes them.
pub struct TimedScheduler<'a> {
    inner: Box<dyn OnlineScheduler>,
    log: &'a SpanLog,
    span: &'static str,
}

impl<'a> TimedScheduler<'a> {
    /// Wraps `inner`, recording its batch calls as `span` into `log`.
    pub fn new(inner: Box<dyn OnlineScheduler>, log: &'a SpanLog, span: &'static str) -> Self {
        Self { inner, log, span }
    }
}

impl OnlineScheduler for TimedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cap(&self) -> usize {
        self.inner.cap()
    }

    fn serve(&mut self, pair: Pair) -> ServeOutcome {
        self.inner.serve(pair)
    }

    fn serve_batch_unsorted(
        &mut self,
        batch: &[Pair],
        dm: &DistanceMatrix,
        acc: &mut BatchOutcome,
    ) {
        self.inner.serve_batch_unsorted(batch, dm, acc)
    }

    fn serve_batch(&mut self, batch: &[Pair], dm: &DistanceMatrix, acc: &mut BatchOutcome) {
        let t0 = Instant::now();
        self.inner.serve_batch(batch, dm, acc);
        self.log
            .leaf(self.span, t0, Instant::now(), batch.len() as u64);
    }

    fn serve_batch_sharded(
        &mut self,
        batch: &[Pair],
        dm: &DistanceMatrix,
        pool: &dcn_core::IntraPool,
        acc: &mut BatchOutcome,
    ) {
        self.inner.serve_batch_sharded(batch, dm, pool, acc)
    }

    fn matching(&self) -> &BMatching {
        self.inner.matching()
    }

    fn telemetry_flush(&mut self, sink: &dcn_telemetry::Telemetry) {
        self.inner.telemetry_flush(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64, workers: u32) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            count: 0,
            workers,
            thread: 0,
        }
    }

    #[test]
    fn attribution_sums_to_root_duration() {
        // pass [0, 100): fig [10, 90) with a 2-worker sweep [20, 80) whose
        // two jobs on separate threads each run 50 ns, one of them mostly
        // filling.
        let spans = vec![
            span("pass", ROOT, 0, 100, 1),
            span("fig.panel_a", 0, 10, 90, 1),
            span("sweep", 1, 20, 80, 2),
            span("job", 2, 20, 70, 1),
            span("traces.fill", 3, 20, 60, 1),
            span("job", 2, 30, 80, 1),
        ];
        let by_layer = attribute(&spans);
        let total: f64 = by_layer.iter().sum();
        assert!((total - 100e-9).abs() < 1e-15, "{by_layer:?}");
        let at = |l: &str| by_layer[LAYERS.iter().position(|&(x, _)| x == l).unwrap()] * 1e9;
        // Fill: 40 ns on one of two workers = 20 ns of wall time.
        assert!((at("dcn-traces") - 20.0).abs() < 1e-9);
        // Sweep self: 60 ns wall − (50 + 50) / 2 = 10 ns of idle share.
        assert!((at("dcn-core::sweep") - 10.0).abs() < 1e-9);
        assert!((at("dcn-bench") - 20.0).abs() < 1e-9);
    }

    #[test]
    fn adopted_spans_nest_under_the_open_span() {
        let epoch = Instant::now();
        let log = SpanLog::new(epoch);
        log.span("pass", || {
            log.fan_out("sweep", 2, || {
                let child = SpanLog::new(epoch);
                child.span("job", || child.leaf("traces.fill", epoch, epoch, 3));
                log.adopt(child.into_spans());
            })
        });
        let spans = log.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("pass", ROOT), ("sweep", 0), ("job", 1), ("traces.fill", 2)]
        );
        assert_eq!(totals(&spans)["traces.fill"], (1, 0, 3));
        assert_eq!(to_json_lines(&spans).lines().count(), 4);
    }
}
