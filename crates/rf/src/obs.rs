//! Deterministic observability: spans, counters, histograms, trace export.
//!
//! The Monte-Carlo engine is fast and bit-identical at any thread count,
//! but until this module it was also opaque: a slow 26-experiment sweep or
//! a regressed kernel showed up only as an end-to-end wall time. `obs`
//! adds the missing visibility — hierarchical span timers, event counters
//! and log-bucketed histograms — without external dependencies and, more
//! importantly, **without ever changing simulated results**.
//!
//! ## The determinism argument
//!
//! Observability must not perturb the engine's contract (results are
//! bit-identical at any thread count — see [`crate::par`]). Two rules make
//! that hold:
//!
//! 1. **Recording is a pure side channel.** Instrumented code never reads
//!    anything back from the collector; counters, histogram observations
//!    and span timings cannot flow into simulated numbers. Wall-clock
//!    times live only in span events and reports — exactly like the
//!    pre-existing `wall_ms` manifest field — never in result tables.
//! 2. **Events are sharded per worker and merged in unit order.** All
//!    recording goes to a thread-local buffer. The parallel engine
//!    ([`crate::par::par_indexed_scratch_with`]) runs every participant
//!    at the submitting thread's level, captures each work unit's event
//!    delta on the worker that ran it and appends the deltas to the
//!    *calling* thread's buffer in unit-index order after the join. The
//!    resulting event log therefore has the same deterministic structure
//!    (same events, same order) at 1 thread and at 64; only the wall-time
//!    *values* inside span events differ. Counter and histogram merges are
//!    integer additions — commutative and associative — so aggregated
//!    metrics are bit-identical across thread counts.
//!
//! ## Levels and overhead
//!
//! Recording is gated by a per-thread [`Level`]: a thread records at the
//! level it set itself (or, inside a parallel region, at the level of the
//! thread that submitted the work), so concurrent runs on different
//! threads never silence or read each other.
//!
//! * [`Level::Off`] (default) — every hook is a single thread-local
//!   load; hot kernels pay no time and allocate nothing (the repo's
//!   allocation-guard test runs at this level).
//! * [`Level::Counters`] — counters and histogram observations are
//!   recorded; spans stay inert.
//! * [`Level::Trace`] — everything, including span timers, is recorded;
//!   [`ObsReport::to_chrome_json`] exports the result for
//!   `chrome://tracing` / Perfetto. Instrumentation sits at *chunk*
//!   granularity (thousands of bits per event), so full tracing adds a
//!   few events per chunk of work, not per sample. Its cost is not
//!   measured today.
//!
//! ## Reporting
//!
//! Every reporting call reads the calling thread's log only. [`drain`]
//! consumes everything recorded so far into an [`ObsReport`] (aggregated
//! spans/counters/histograms plus the raw event list);
//! [`mark`]/[`report_since`] carve out one run's delta without disturbing
//! an enclosing consumer. A [`Window`] packages the two for the scenario
//! `Runner`, which attaches a `metrics` block to every run manifest: at
//! [`Level::Off`] it raises the thread to [`Level::Counters`] and removes
//! its own events when it closes, so a thread that asked for nothing
//! keeps an empty log; inside a CLI `--trace` capture it only reports.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// How much the observability layer records. Per thread, default
/// [`Level::Off`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing; every hook is one thread-local load.
    Off,
    /// Record counters and histogram observations; spans stay inert.
    Counters,
    /// Record everything, including span timers (Chrome-trace exportable).
    Trace,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LEVEL: Cell<Level> = const { Cell::new(Level::Off) };
    static LOG: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// The process-wide monotonic time origin all span timestamps are relative
/// to (first use wins).
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Sets the calling thread's recording level.
pub fn set_level(level: Level) {
    LEVEL.with(|l| l.set(level));
}

/// The calling thread's recording level.
pub fn level() -> Level {
    LEVEL.with(Cell::get)
}

/// True when counters/histograms are being recorded (level ≥ Counters).
#[inline]
pub fn counting() -> bool {
    level() >= Level::Counters
}

/// True when spans are being recorded (level = Trace).
#[inline]
pub fn tracing() -> bool {
    level() == Level::Trace
}

/// One recorded observation. Events are plain data; aggregation happens at
/// report time so recording stays cheap and deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A counter increment.
    Count {
        /// Counter name (dotted taxonomy, e.g. `phy.ber.bits`).
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
    /// One histogram sample (log-bucketed at report time).
    Observe {
        /// Histogram name.
        name: &'static str,
        /// The observed value.
        value: u64,
    },
    /// A completed span.
    Span {
        /// Span name (dotted taxonomy, e.g. `runner.trials`).
        name: &'static str,
        /// Start time, µs since the process time origin.
        start_us: f64,
        /// Duration in µs.
        dur_us: f64,
        /// Small per-thread id (stable within a thread's lifetime).
        tid: u32,
        /// Nesting depth at entry (0 = top level on that thread).
        depth: u32,
    },
    /// A warning routed through [`warn`].
    Warn {
        /// The warning text (also printed to stderr at emit time).
        message: String,
    },
}

fn record(event: Event) {
    LOG.with(|l| l.borrow_mut().push(event));
}

/// Adds `delta` to the named counter. No-op below [`Level::Counters`].
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if counting() {
        record(Event::Count { name, delta });
    }
}

/// Records one histogram sample. No-op below [`Level::Counters`].
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if counting() {
        record(Event::Observe { name, value });
    }
}

/// Emits a warning: always printed to stderr (a warning that only shows up
/// in an opt-in trace is not a warning), and additionally recorded as an
/// [`Event::Warn`] when the level is ≥ [`Level::Counters`] so reports and
/// traces retain it.
pub fn warn(message: &str) {
    eprintln!("{message}");
    if counting() {
        record(Event::Warn {
            message: message.to_string(),
        });
    }
}

/// The small, stable per-thread id used in trace events (assigned lazily,
/// first use per thread).
fn local_tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != u32::MAX {
            return v;
        }
        let n = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(n);
        n
    })
}

/// An RAII span timer: created by [`span`], records an [`Event::Span`]
/// (with its wall duration, thread id and nesting depth) when dropped.
/// Inert — no clock reads, no recording — below [`Level::Trace`].
#[must_use = "a span measures the scope it is bound to; an unbound span is empty"]
pub struct SpanGuard {
    name: &'static str,
    /// `Some` only when tracing was enabled at entry.
    start: Option<(Instant, f64)>,
}

/// Opens a span. Bind the guard (`let _span = obs::span("stage");`) so it
/// closes when the scope ends.
pub fn span(name: &'static str) -> SpanGuard {
    let start = if tracing() {
        let origin = anchor();
        let now = Instant::now();
        DEPTH.with(|d| d.set(d.get() + 1));
        Some((now, now.duration_since(origin).as_secs_f64() * 1e6))
    } else {
        None
    };
    SpanGuard { name, start }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, start_us)) = self.start {
            let depth = DEPTH.with(|d| {
                let v = d.get().saturating_sub(1);
                d.set(v);
                v
            });
            record(Event::Span {
                name: self.name,
                start_us,
                dur_us: start.elapsed().as_secs_f64() * 1e6,
                tid: local_tid(),
                depth,
            });
        }
    }
}

// ---- per-unit capture: the parallel engine's side of the contract ----

/// Removes and returns every event the calling thread recorded since
/// `mark` (a [`mark`] return value). Empty, and allocation-free, when
/// nothing was recorded since — the case for every work unit at
/// [`Level::Off`].
pub(crate) fn take_since(mark: usize) -> Vec<Event> {
    LOG.with(|l| {
        let mut log = l.borrow_mut();
        if mark >= log.len() {
            Vec::new()
        } else if mark == 0 {
            std::mem::take(&mut *log)
        } else {
            log.split_off(mark)
        }
    })
}

/// Appends captured unit deltas to the calling thread's buffer — the merge
/// half of the shard-per-worker scheme. The parallel engine calls this in
/// unit-index order after the join, so the caller's event log ends up
/// identical to what a serial run would have produced.
pub(crate) fn append_events(events: Vec<Event>) {
    if events.is_empty() {
        return;
    }
    LOG.with(|l| l.borrow_mut().extend(events));
}

// ---- reporting ----

/// Aggregate statistics for one span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Summed wall time, µs.
    pub total_us: f64,
    /// Longest single span, µs.
    pub max_us: f64,
}

/// One counter's aggregated value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterStat {
    /// Counter name.
    pub name: String,
    /// Summed value.
    pub value: u64,
}

/// One log₂ histogram bucket: `lo` is the bucket's lower bound (0, then
/// successive powers of two); the bucket covers `lo ..= 2·lo − 1` (just
/// `0` for the zero bucket).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistBucket {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Samples that landed in the bucket.
    pub count: u64,
}

/// A log₂-bucketed histogram: the one histogram type in the workspace.
/// Reports aggregate [`observe`] samples into it, and a long-running
/// server records its latencies into one directly with
/// [`HistogramStat::record`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramStat {
    /// Histogram name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending by `lo`.
    pub buckets: Vec<HistBucket>,
}

/// The lower bound of `value`'s log₂ bucket: 0 for 0, else the largest
/// power of two ≤ `value`.
fn bucket_lo(value: u64) -> u64 {
    match value {
        0 => 0,
        v => 1 << v.ilog2(),
    }
}

impl HistogramStat {
    /// An empty histogram.
    pub fn new(name: &str) -> HistogramStat {
        HistogramStat {
            name: name.to_string(),
            ..HistogramStat::default()
        }
    }

    /// Adds one sample to its bucket. Allocates only when the sample
    /// opens a bucket no earlier sample landed in (at most 65 times).
    pub fn record(&mut self, value: u64) {
        let lo = bucket_lo(value);
        self.count += 1;
        self.sum += value;
        match self.buckets.binary_search_by_key(&lo, |b| b.lo) {
            Ok(i) => self.buckets[i].count += 1,
            Err(i) => self.buckets.insert(i, HistBucket { lo, count: 1 }),
        }
    }

    /// Exact, order-independent quantile over the bucketed samples:
    /// returns the lower bound `lo` of the bucket holding the sample of
    /// rank `⌈q·count⌉` (clamped to `1..=count`), i.e. a conservative
    /// (rounded-down-to-bucket) estimate of the q-quantile. Because the
    /// buckets are aggregates, the result is independent of observation
    /// order and of how samples were sharded across threads. Returns 0
    /// for an empty histogram; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.lo;
            }
        }
        self.buckets.last().map(|b| b.lo).unwrap_or(0)
    }

    /// Median bucket bound — `quantile(0.5)`.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile bucket bound — `quantile(0.95)`.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile bucket bound — `quantile(0.99)`.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Everything the observability layer recorded over some window:
/// aggregates (sorted by name, so equal recordings compare equal) plus the
/// raw events for trace export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsReport {
    /// Per-span-name aggregates, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Histogram shapes, sorted by name.
    pub histograms: Vec<HistogramStat>,
    /// Warnings, in emission order.
    pub warnings: Vec<String>,
    /// The raw event log (what [`ObsReport::to_chrome_json`] exports).
    pub events: Vec<Event>,
}

fn aggregate(events: Vec<Event>) -> ObsReport {
    use std::collections::BTreeMap;
    let mut spans: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut hists: BTreeMap<&'static str, HistogramStat> = BTreeMap::new();
    let mut warnings = Vec::new();
    for e in &events {
        match e {
            Event::Count { name, delta } => *counters.entry(name).or_default() += delta,
            Event::Observe { name, value } => hists
                .entry(name)
                .or_insert_with(|| HistogramStat::new(name))
                .record(*value),
            Event::Span { name, dur_us, .. } => {
                let s = spans.entry(name).or_insert_with(|| SpanStat {
                    name: name.to_string(),
                    ..SpanStat::default()
                });
                s.count += 1;
                s.total_us += dur_us;
                if *dur_us > s.max_us {
                    s.max_us = *dur_us;
                }
            }
            Event::Warn { message } => warnings.push(message.clone()),
        }
    }
    ObsReport {
        spans: spans.into_values().collect(),
        counters: counters
            .into_iter()
            .map(|(name, value)| CounterStat {
                name: name.to_string(),
                value,
            })
            .collect(),
        histograms: hists.into_values().collect(),
        warnings,
        events,
    }
}

/// The length of the calling thread's event log — a cursor for
/// [`report_since`]. Use a `mark`/`report_since` pair to carve one run's
/// metrics out of a longer recording without consuming it.
pub fn mark() -> usize {
    LOG.with(|l| l.borrow().len())
}

/// Aggregates everything the calling thread recorded since `mark` (a
/// [`mark`] return value) *without* removing it from the log — an
/// enclosing [`drain`] (e.g. a CLI `--trace` capture) still sees it all.
pub fn report_since(mark: usize) -> ObsReport {
    aggregate(LOG.with(|l| l.borrow().get(mark..).unwrap_or_default().to_vec()))
}

/// Consumes everything the calling thread recorded into an [`ObsReport`],
/// leaving its log empty.
pub fn drain() -> ObsReport {
    aggregate(take_since(0))
}

/// A metrics window over the calling thread's recording: the scenario
/// `Runner` opens one per run. Opened at [`Level::Off`], it raises the
/// thread to [`Level::Counters`], and when it closes — or unwinds out of
/// a panicking run — it removes the window's events and restores `Off`,
/// so the thread's log is as it found it. Opened above `Off`, it reports
/// without removing anything, and an enclosing capture sees every event.
#[must_use = "a window measures the run it is bound to; close it for the report"]
pub struct Window {
    mark: usize,
    raised: bool,
}

impl Window {
    /// Opens a window at the calling thread's current log position.
    pub fn open() -> Window {
        let raised = level() == Level::Off;
        if raised {
            set_level(Level::Counters);
        }
        Window {
            mark: mark(),
            raised,
        }
    }

    /// Aggregates what the calling thread recorded since [`Window::open`].
    pub fn close(self) -> ObsReport {
        if self.raised {
            aggregate(take_since(self.mark))
        } else {
            report_since(self.mark)
        }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        if self.raised {
            take_since(self.mark);
            set_level(Level::Off);
        }
    }
}

/// Escapes `s` as the body of a JSON string (backslash, quote, control
/// characters) into `out` — the one escaping rule every hand-rolled JSON
/// writer in the workspace shares (re-exported as
/// `mmtag_sim::json::escape_into`).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl ObsReport {
    /// True when nothing was recorded over the report's window.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The value of a named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Serializes the raw span events as Chrome tracing JSON (the
    /// `chrome://tracing` / Perfetto "trace event" format): one complete
    /// (`"ph": "X"`) event per span, timestamps in µs since the process
    /// time origin, one track per worker thread. Warnings become global
    /// instant events so they stay visible on the timeline.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for e in &self.events {
            match e {
                Event::Span {
                    name,
                    start_us,
                    dur_us,
                    tid,
                    depth,
                } => {
                    let mut line = String::from("  {\"name\": \"");
                    escape_into(&mut line, name);
                    let _ = write!(
                        line,
                        "\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {start_us:.3}, \
                         \"dur\": {dur_us:.3}, \"args\": {{\"depth\": {depth}}}}}"
                    );
                    push(line, &mut out);
                }
                Event::Warn { message } => {
                    let mut line = String::from("  {\"name\": \"");
                    escape_into(&mut line, message);
                    line.push_str(
                        "\", \"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": 0, \"ts\": 0}",
                    );
                    push(line, &mut out);
                }
                Event::Count { .. } | Event::Observe { .. } => {}
            }
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// Serializes the aggregates as the `metrics` JSON object embedded in
    /// every run manifest: `{"counters": {...}, "spans": {...},
    /// "histograms": {...}}`. Deterministic (name-sorted) and free of raw
    /// events, so manifests stay small.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(&mut out, &c.name);
            let _ = write!(out, "\": {}", c.value);
        }
        out.push_str("}, \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(&mut out, &s.name);
            let _ = write!(
                out,
                "\": {{\"count\": {}, \"total_us\": {:.3}, \"max_us\": {:.3}}}",
                s.count, s.total_us, s.max_us
            );
        }
        out.push_str("}, \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(&mut out, &h.name);
            let _ = write!(
                out,
                "\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{}, {}]", b.lo, b.count);
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    // The level and the log belong to the thread that records, and every
    // test runs on a thread of its own, so these tests need no lock: each
    // starts at `Off` with an empty log.

    #[test]
    fn off_level_records_nothing() {
        counter_add("test.off.counter", 5);
        observe("test.off.hist", 42);
        {
            let _span = span("test.off.span");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        set_level(Level::Counters);
        counter_add("test.agg.b", 2);
        counter_add("test.agg.a", 1);
        counter_add("test.agg.b", 3);
        observe("test.agg.h", 0);
        observe("test.agg.h", 1);
        observe("test.agg.h", 9); // bucket lo = 8
        let report = drain();
        set_level(Level::Off);
        // Sorted by name, summed.
        assert_eq!(report.counter("test.agg.a"), 1);
        assert_eq!(report.counter("test.agg.b"), 5);
        assert!(report.counters.len() >= 2);
        let h = report
            .histograms
            .iter()
            .find(|h| h.name == "test.agg.h")
            .unwrap();
        assert_eq!((h.count, h.sum), (3, 10));
        assert_eq!(
            h.buckets,
            vec![
                HistBucket { lo: 0, count: 1 },
                HistBucket { lo: 1, count: 1 },
                HistBucket { lo: 8, count: 1 },
            ]
        );
        // Counters level keeps spans inert.
        assert!(report.spans.is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        set_level(Level::Trace);
        {
            let _outer = span("test.span.outer");
            let _inner = span("test.span.inner");
        }
        let report = drain();
        set_level(Level::Off);
        let outer = report
            .spans
            .iter()
            .find(|s| s.name == "test.span.outer")
            .unwrap();
        let inner = report
            .spans
            .iter()
            .find(|s| s.name == "test.span.inner")
            .unwrap();
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_us >= inner.total_us);
        // Depths recorded: outer 0, inner 1.
        let depths: Vec<(&str, u32)> = report
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Span { name, depth, .. } => Some((*name, *depth)),
                _ => None,
            })
            .collect();
        assert!(depths.contains(&("test.span.outer", 0)));
        assert!(depths.contains(&("test.span.inner", 1)));
    }

    #[test]
    fn par_capture_merges_in_unit_order_and_counters_are_thread_invariant() {
        set_level(Level::Counters);
        let run = |threads: usize| {
            let _ = crate::par::par_indexed_with(threads, 16, |i| {
                counter_add("test.par.units", 1);
                observe("test.par.index", i as u64);
                i
            });
            drain()
        };
        let serial = run(1);
        for threads in [2, 8] {
            let parallel = run(threads);
            assert_eq!(serial.counters, parallel.counters, "threads={threads}");
            assert_eq!(serial.histograms, parallel.histograms, "threads={threads}");
            // The merged event *log* is identical too (no wall times in
            // counter/observe events).
            assert_eq!(serial.events, parallel.events, "threads={threads}");
        }
        set_level(Level::Off);
        assert_eq!(serial.counter("test.par.units"), 16);
    }

    #[test]
    fn pool_workers_record_at_the_submitting_threads_level() {
        // Two units that wait for each other run on two threads at once,
        // so a pool worker runs one of them.
        let both = Barrier::new(2);
        let region = || {
            crate::par::par_indexed_with(2, 2, |i| {
                both.wait();
                counter_add("test.pool.units", 1);
                i
            })
        };
        set_level(Level::Counters);
        region();
        assert_eq!(drain().counter("test.pool.units"), 2);
        // The worker that just counted now runs at this thread's `Off`.
        set_level(Level::Off);
        region();
        assert!(drain().is_empty());
    }

    #[test]
    fn mark_and_report_since_carve_a_window_nondestructively() {
        set_level(Level::Counters);
        counter_add("test.window.before", 1);
        let m = mark();
        counter_add("test.window.inside", 2);
        let window = report_since(m);
        assert_eq!(window.counter("test.window.inside"), 2);
        assert_eq!(window.counter("test.window.before"), 0);
        // Nothing consumed: a full drain still sees both.
        let all = drain();
        set_level(Level::Off);
        assert_eq!(all.counter("test.window.before"), 1);
        assert_eq!(all.counter("test.window.inside"), 2);
    }

    // The two tests below assert only after their threads have joined,
    // so a failing check can never leave the other thread parked on a
    // barrier.

    #[test]
    fn a_window_never_contains_events_recorded_on_another_thread() {
        let step = Barrier::new(2);
        let (theirs, window, rest) = std::thread::scope(|s| {
            let other = s.spawn(|| {
                // A second run on its own thread, inside this thread's
                // window: it opens and closes a window of its own.
                set_level(Level::Counters);
                step.wait();
                let m = mark();
                counter_add("test.iso.theirs", 1);
                let theirs = report_since(m);
                step.wait();
                theirs
            });
            set_level(Level::Counters);
            let m = mark();
            counter_add("test.iso.mine", 1);
            step.wait();
            step.wait();
            let window = report_since(m);
            set_level(Level::Off);
            (other.join().unwrap(), window, drain())
        });
        assert_eq!(theirs.counter("test.iso.theirs"), 1);
        assert_eq!(window.counter("test.iso.mine"), 1);
        assert_eq!(window.counter("test.iso.theirs"), 0, "{window:?}");
        assert_eq!(rest.counter("test.iso.theirs"), 0, "{rest:?}");
    }

    #[test]
    fn another_threads_level_never_changes_what_this_thread_records() {
        let step = Barrier::new(2);
        let (level_seen, at_off, at_counters) = std::thread::scope(|s| {
            s.spawn(|| {
                set_level(Level::Trace);
                step.wait(); // raised while this thread is Off
                step.wait();
                set_level(Level::Off);
                step.wait(); // lowered while this thread counts
            });
            step.wait();
            let level_seen = level();
            counter_add("test.level.off", 1);
            {
                let _span = span("test.level.span");
            }
            let at_off = drain();
            set_level(Level::Counters);
            step.wait();
            step.wait();
            counter_add("test.level.on", 1);
            set_level(Level::Off);
            (level_seen, at_off, drain())
        });
        assert_eq!(level_seen, Level::Off);
        assert!(
            at_off.is_empty(),
            "recorded at another thread's level: {at_off:?}"
        );
        assert_eq!(at_counters.counter("test.level.on"), 1, "{at_counters:?}");
    }

    #[test]
    fn a_raised_window_leaves_the_log_and_level_as_it_found_them() {
        let window = Window::open();
        assert_eq!(level(), Level::Counters);
        counter_add("test.window.run", 3);
        assert_eq!(window.close().counter("test.window.run"), 3);
        assert_eq!(level(), Level::Off);
        assert!(drain().is_empty());
        // A panicking run unwinds through its window the same way.
        let unwound = std::panic::catch_unwind(|| {
            let _window = Window::open();
            counter_add("test.window.panic", 1);
            panic!("run failed");
        });
        assert!(unwound.is_err());
        assert_eq!(level(), Level::Off);
        assert!(drain().is_empty());
    }

    #[test]
    fn a_window_inside_a_capture_reports_without_removing() {
        set_level(Level::Trace);
        counter_add("test.capture.before", 1);
        let window = Window::open();
        counter_add("test.capture.inside", 2);
        let report = window.close();
        assert_eq!(level(), Level::Trace);
        assert_eq!(report.counter("test.capture.before"), 0);
        assert_eq!(report.counter("test.capture.inside"), 2);
        let all = drain();
        set_level(Level::Off);
        assert_eq!(all.counter("test.capture.before"), 1);
        assert_eq!(all.counter("test.capture.inside"), 2);
    }

    #[test]
    fn warn_is_recorded_when_counting() {
        set_level(Level::Counters);
        warn("test warning: something odd");
        let report = drain();
        set_level(Level::Off);
        assert_eq!(report.warnings, vec!["test warning: something odd"]);
    }

    #[test]
    fn chrome_json_has_trace_events_array() {
        set_level(Level::Trace);
        {
            let _span = span("test.chrome.span");
        }
        warn("test.chrome.warning");
        let report = drain();
        set_level(Level::Off);
        let json = report.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"test.chrome.span\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"test.chrome.warning\""));
    }

    #[test]
    fn metrics_json_is_deterministic_and_complete() {
        set_level(Level::Counters);
        counter_add("test.mj.z", 1);
        counter_add("test.mj.a", 2);
        observe("test.mj.h", 5);
        let json = drain().metrics_json();
        set_level(Level::Off);
        // Name-sorted: a before z.
        let a = json.find("test.mj.a").unwrap();
        let z = json.find("test.mj.z").unwrap();
        assert!(a < z, "{json}");
        assert!(json.contains("\"buckets\": [[4, 1]]"), "{json}");
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"spans\""));
        assert!(json.contains("\"histograms\""));
    }

    #[test]
    fn bucket_bounds() {
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(2), 2);
        assert_eq!(bucket_lo(3), 2);
        assert_eq!(bucket_lo(4), 4);
        assert_eq!(bucket_lo(1000), 512);
        assert_eq!(bucket_lo(u64::MAX), 1 << 63);
    }

    /// A histogram of raw sample values, recorded directly.
    fn hist_of(samples: &[u64]) -> HistogramStat {
        let mut h = HistogramStat::new("test.q");
        for &v in samples {
            h.record(v);
        }
        h
    }

    #[test]
    fn quantile_empty_histogram_is_zero() {
        let h = HistogramStat::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn quantile_bucket_boundaries() {
        // Samples 0,1,2,3 land in buckets lo=0 (x1), lo=1 (x1), lo=2 (x2).
        let h = hist_of(&[0, 1, 2, 3]);
        assert_eq!(h.count, 4);
        // rank = ceil(q·4), clamped to 1..=4; the bucket holding that
        // rank answers. q=0 clamps up to rank 1 → the zero bucket.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.25), 0); // rank 1 → bucket lo=0
        assert_eq!(h.quantile(0.26), 1); // rank 2 → bucket lo=1
        assert_eq!(h.quantile(0.50), 1); // rank 2 → bucket lo=1
        assert_eq!(h.quantile(0.51), 2); // rank 3 → bucket lo=2
        assert_eq!(h.quantile(0.75), 2); // rank 3 → bucket lo=2
        assert_eq!(h.quantile(1.0), 2); // rank 4 → bucket lo=2
                                        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 2);
    }

    #[test]
    fn quantile_returns_bucket_lower_bound() {
        // 100 samples of value 1000 → one bucket, lo = 512 (2^9), since
        // 1000 ∈ 512..=1023. Every quantile answers that bound.
        let h = hist_of(&[1000; 100]);
        assert_eq!(h.buckets.len(), 1);
        assert_eq!(h.buckets[0].lo, 512);
        assert_eq!(h.p50(), 512);
        assert_eq!(h.p95(), 512);
        assert_eq!(h.p99(), 512);
    }

    #[test]
    fn quantile_is_order_independent() {
        let a = hist_of(&[5, 90, 3, 70000, 12, 12, 900]);
        let b = hist_of(&[12, 900, 70000, 3, 12, 5, 90]);
        for q in [0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), b.quantile(q), "q={q}");
        }
    }

    #[test]
    fn quantile_tail_ranks() {
        // 99 fast samples (value 1) and one slow outlier (value 4096):
        // p50/p95 sit in the fast bucket, p99 rank 99 still fast, but
        // quantile(1.0) = rank 100 reaches the outlier bucket lo=4096.
        let mut samples = vec![1u64; 99];
        samples.push(4096);
        let h = hist_of(&samples);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p95(), 1);
        assert_eq!(h.p99(), 1);
        assert_eq!(h.quantile(1.0), 4096);
    }

    #[test]
    fn observed_samples_aggregate_like_recorded_ones() {
        set_level(Level::Counters);
        for v in [0u64, 1, 2, 3, 1000] {
            observe("test.q", v);
        }
        let report = drain();
        set_level(Level::Off);
        assert_eq!(report.histograms, vec![hist_of(&[0, 1, 2, 3, 1000])]);
    }

    #[test]
    fn empty_report_serializers_are_valid() {
        let report = ObsReport::default();
        assert!(report.is_empty());
        assert_eq!(report.counter("anything"), 0);
        assert_eq!(
            report.metrics_json(),
            "{\"counters\": {}, \"spans\": {}, \"histograms\": {}}"
        );
        assert!(report.to_chrome_json().contains("traceEvents"));
    }
}
