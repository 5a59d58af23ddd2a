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
//!    ([`crate::par::par_indexed_scratch_with`]) captures each work unit's
//!    event delta on the worker that ran it and appends the deltas to the
//!    *calling* thread's buffer in unit-index order after the join. The
//!    resulting event log therefore has the same deterministic structure
//!    (same events, same order) at 1 thread and at 64; only the wall-time
//!    *values* inside span events differ. Counter and histogram merges are
//!    integer additions — commutative and associative — so aggregated
//!    metrics are bit-identical across thread counts.
//!
//! ## Levels and overhead
//!
//! Recording is gated by a process-global [`Level`]:
//!
//! * [`Level::Off`] (default) — every hook is a single relaxed atomic
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
//! [`drain`] consumes everything recorded so far into an [`ObsReport`]
//! (aggregated spans/counters/histograms plus the raw event list);
//! [`mark`]/[`report_since`] carve out one run's delta without disturbing
//! an enclosing consumer — the scenario `Runner` uses this to attach a
//! `metrics` block to every run manifest while a CLI `--trace` capture is
//! in flight around it.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How much the observability layer records. Process-global, default
/// [`Level::Off`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing; every hook is one relaxed atomic load.
    Off,
    /// Record counters and histogram observations; spans stay inert.
    Counters,
    /// Record everything, including span timers (Chrome-trace exportable).
    Trace,
}

static LEVEL: AtomicU8 = AtomicU8::new(0);
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LOCAL: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// The process-wide monotonic time origin all span timestamps are relative
/// to (first use wins).
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Sets the global recording level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global recording level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Counters,
        _ => Level::Trace,
    }
}

/// True when counters/histograms are being recorded (level ≥ Counters).
#[inline]
pub fn counting() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Counters as u8
}

/// True when spans are being recorded (level = Trace).
#[inline]
pub fn tracing() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Trace as u8
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
    LOCAL.with(|l| l.borrow_mut().push(event));
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

/// Marks the current thread's buffer position so a work unit's event delta
/// can be captured afterwards. Zero-cost (returns 0) when recording is off.
pub(crate) fn capture_mark() -> usize {
    if level() == Level::Off {
        return 0;
    }
    LOCAL.with(|l| l.borrow().len())
}

/// Takes every event recorded on this thread since `mark`. Empty (and
/// allocation-free) when recording is off.
pub(crate) fn capture_since(mark: usize) -> Vec<Event> {
    if level() == Level::Off {
        return Vec::new();
    }
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        if mark >= buf.len() {
            Vec::new()
        } else {
            buf.split_off(mark)
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
    LOCAL.with(|l| l.borrow_mut().extend(events));
}

/// Moves the calling thread's buffered events into the global collector.
fn flush_local() {
    let drained: Vec<Event> = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if drained.is_empty() {
        return;
    }
    EVENTS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .extend(drained);
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

/// One histogram's aggregated, log₂-bucketed shape.
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

impl HistogramStat {
    /// Builds a stat from a raw 65-slot log₂ bucket array (the layout
    /// [`observe`] aggregates into): slot 0 counts zeros, slot `i ≥ 1`
    /// counts values in `2^(i−1) ..= 2^i − 1`. Lets code that keeps its
    /// own atomic bucket counters (e.g. a long-running server) reuse the
    /// quantile machinery without routing through the event log.
    pub fn from_counts(name: &str, counts: &[u64; 65]) -> HistogramStat {
        let count: u64 = counts.iter().sum();
        HistogramStat {
            name: name.to_string(),
            count,
            sum: 0,
            buckets: counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &count)| HistBucket {
                    lo: if i == 0 { 0 } else { 1u64 << (i - 1) },
                    count,
                })
                .collect(),
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

/// log₂ bucket index: 0 for value 0, else `floor(log2(v)) + 1` (so bucket
/// `i ≥ 1` has lower bound `2^(i−1)`).
fn bucket_index(value: u64) -> u32 {
    64 - value.leading_zeros()
}

fn aggregate(events: Vec<Event>) -> ObsReport {
    use std::collections::BTreeMap;
    let mut spans: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut hists: BTreeMap<&'static str, (u64, u64, [u64; 65])> = BTreeMap::new();
    let mut warnings = Vec::new();
    for e in &events {
        match e {
            Event::Count { name, delta } => *counters.entry(name).or_default() += delta,
            Event::Observe { name, value } => {
                let h = hists.entry(name).or_insert((0, 0, [0u64; 65]));
                h.0 += 1;
                h.1 += value;
                h.2[bucket_index(*value) as usize] += 1;
            }
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
        histograms: hists
            .into_iter()
            .map(|(name, (count, sum, buckets))| HistogramStat {
                name: name.to_string(),
                count,
                sum,
                buckets: buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &count)| HistBucket {
                        lo: if i == 0 { 0 } else { 1u64 << (i - 1) },
                        count,
                    })
                    .collect(),
            })
            .collect(),
        warnings,
        events,
    }
}

/// Flushes the calling thread's buffer and returns the global event count —
/// a cursor for [`report_since`]. Use a `mark`/`report_since` pair to
/// carve one run's metrics out of a longer recording without consuming it.
pub fn mark() -> usize {
    flush_local();
    EVENTS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Aggregates everything recorded since `mark` (a [`mark`] return value)
/// *without* removing it from the collector — an enclosing [`drain`] (e.g.
/// a CLI `--trace` capture) still sees the full log.
pub fn report_since(mark: usize) -> ObsReport {
    flush_local();
    let events: Vec<Event> = {
        let log = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
        log[mark.min(log.len())..].to_vec()
    };
    aggregate(events)
}

/// Consumes everything recorded so far into an [`ObsReport`], leaving the
/// collector empty.
pub fn drain() -> ObsReport {
    flush_local();
    let events = std::mem::take(&mut *EVENTS.lock().unwrap_or_else(|e| e.into_inner()));
    aggregate(events)
}

/// Clears the calling thread's buffer and the global collector (test
/// isolation helper).
pub fn reset() {
    LOCAL.with(|l| l.borrow_mut().clear());
    EVENTS.lock().unwrap_or_else(|e| e.into_inner()).clear();
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
    use std::sync::MutexGuard;

    /// Obs state is process-global; tests that touch the level or the
    /// collector serialize through this lock so they can't see each
    /// other's events.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_level(Level::Off);
        reset();
        guard
    }

    #[test]
    fn off_level_records_nothing() {
        let _g = lock();
        counter_add("test.off.counter", 5);
        observe("test.off.hist", 42);
        {
            let _span = span("test.off.span");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let _g = lock();
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
        let _g = lock();
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
        let _g = lock();
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
    fn mark_and_report_since_carve_a_window_nondestructively() {
        let _g = lock();
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

    #[test]
    fn warn_is_recorded_when_counting() {
        let _g = lock();
        set_level(Level::Counters);
        warn("test warning: something odd");
        let report = drain();
        set_level(Level::Off);
        assert_eq!(report.warnings, vec!["test warning: something odd"]);
    }

    #[test]
    fn chrome_json_has_trace_events_array() {
        let _g = lock();
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
        let _g = lock();
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
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    /// Builds a HistogramStat the same way `aggregate` does, from raw
    /// sample values, without touching the global recorder.
    fn hist_of(samples: &[u64]) -> HistogramStat {
        let mut counts = [0u64; 65];
        for &v in samples {
            counts[bucket_index(v) as usize] += 1;
        }
        let mut h = HistogramStat::from_counts("test.q", &counts);
        h.sum = samples.iter().sum();
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
    fn from_counts_matches_aggregate_shape() {
        let _g = lock();
        set_level(Level::Counters);
        reset();
        for v in [0u64, 1, 2, 3, 1000] {
            observe("test.fc", v);
        }
        let report = drain();
        set_level(Level::Off);
        let via_events = report
            .histograms
            .iter()
            .find(|h| h.name == "test.fc")
            .unwrap();
        let mut direct = hist_of(&[0, 1, 2, 3, 1000]);
        direct.name = "test.fc".to_string();
        assert_eq!(via_events, &direct);
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
