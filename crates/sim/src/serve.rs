//! Simulation-as-a-service: the `mmtag serve` daemon.
//!
//! The paper's evaluation is a static link; everything *around* the link
//! (§9) is what the simulator answers — and once sweep surfaces exist on
//! disk, most questions are lookups, not simulations. This module turns
//! the [`crate::scenario::Runner`] + [`crate::cache::RunCache`] stack
//! into a long-lived service:
//!
//! * **protocol** — one JSON object per line, over TCP or a Unix socket.
//!   Requests carry an `op` (`run`, `query`, `sweep`, `status`, `prune`,
//!   `shutdown`); responses echo the request `id` and either `"ok":true`
//!   with the payload or `"ok":false` with a machine-readable `error`
//!   code. Every op answers with exactly one line except `sweep`, which
//!   *streams*: one `sweep_point` line per grid point followed by a
//!   summary line. Each request line is read once by
//!   [`crate::json::parse_flat`]: a line that is not one flat object of
//!   at most [`crate::json::FLAT_MEMBERS`] escape-free members is
//!   answered `bad_request` with id 0, since its id cannot be trusted,
//!   and members the protocol does not define are ignored. Replies are
//!   written with a fixed key order by [`crate::json`]'s writers, and
//!   [`crate::json::parse_json`] reads them on the client side.
//! * **bounded admission** — jobs pass through an [`AdmissionQueue`]
//!   with a hard capacity and per-job priorities. At capacity the submit
//!   fails *immediately* and the client sees `"error":"queue_full"`;
//!   the daemon never buffers unboundedly. Request lines are bounded
//!   too: more than [`MAX_REQUEST_BYTES`] without a newline is answered
//!   `"error":"line_too_long"` and the connection is closed.
//! * **cache-first execution** — a request is resolved against an
//!   in-memory store (request-tuple and spec-hash indexes), then the
//!   on-disk [`crate::cache::RunCache`], and only then simulated.
//!   Identical in-flight requests are deduplicated single-flight: N
//!   concurrent misses on one spec cost one run.
//! * **surface queries** — `op:"query"` interpolates (linear in 1-D,
//!   bilinear in 2-D) from a cached sweep table without re-simulating,
//!   and every answer carries provenance: the spec hash and the grid
//!   corners the value was interpolated between.
//!
//! # Determinism
//!
//! `run`, `query` and `sweep` response bodies are pure functions of the
//! request: they contain no wall-clock times, thread counts, or
//! hit/miss markers. Replaying a request log therefore produces
//! byte-identical response bodies regardless of executor count or
//! arrival interleaving (`status` and `prune` report live load and are
//! excluded from the contract). Sweep point lines additionally stream
//! in point order and carry their `point` index, so streamed sets stay
//! byte-comparable under any stable sort by index.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::cache::RunCache;
use crate::experiment::Table;
use crate::json::{parse_flat, write_list, write_num, write_str, Flat};
use crate::obs;
use crate::scenario::{Registry, RunRecord, Runner, Scenario, ScenarioSpec};

// ---------------------------------------------------------------------------
// Request fields
// ---------------------------------------------------------------------------

/// Numeric member `key`, parsed from its lexeme: `Ok(None)` if absent,
/// `bad_request` if present but not a `T`.
fn num<T: std::str::FromStr>(req: &Flat, key: &str) -> Result<Option<T>, &'static str> {
    req.get(key)
        .map(|v| v.as_num().and_then(|n| n.parse().ok()).ok_or("bad_request"))
        .transpose()
}

/// String member `key`: `Ok(None)` if absent, `bad_request` if present
/// but not a string.
fn text<'a>(req: &Flat<'a>, key: &str) -> Result<Option<&'a str>, &'static str> {
    req.get(key)
        .map(|v| v.as_str().ok_or("bad_request"))
        .transpose()
}

// ---------------------------------------------------------------------------
// Bounded priority admission queue
// ---------------------------------------------------------------------------

/// A bounded MPMC priority queue with backpressure: [`submit`] never
/// blocks and never buffers past `capacity` — at capacity it hands the
/// job back as [`SubmitError::Full`], which the protocol surfaces as
/// `"error":"queue_full"`. Higher `priority` pops first; within one
/// priority, FIFO by submission order. After [`close`], remaining jobs
/// still drain, then [`pop`] returns `None` forever.
///
/// [`submit`]: AdmissionQueue::submit
/// [`close`]: AdmissionQueue::close
/// [`pop`]: AdmissionQueue::pop
pub struct AdmissionQueue<T> {
    inner: Mutex<QueueInner<T>>,
    cv: Condvar,
    capacity: usize,
}

struct QueueInner<T> {
    jobs: Vec<(T, i64, u64)>,
    seq: u64,
    closed: bool,
}

/// Why [`AdmissionQueue::submit`] refused a job; the job rides back to
/// the caller so it can fail its waiters.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue is at capacity — backpressure, not buffering.
    Full(T),
    /// The queue has been closed (daemon shutting down).
    Closed(T),
}

impl<T> AdmissionQueue<T> {
    /// An empty queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(QueueInner {
                jobs: Vec::new(),
                seq: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `job` at `priority`, or returns it immediately if the
    /// queue is full or closed.
    pub fn submit(&self, job: T, priority: i64) -> Result<(), SubmitError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(SubmitError::Closed(job));
        }
        if inner.jobs.len() >= self.capacity {
            return Err(SubmitError::Full(job));
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.jobs.push((job, priority, seq));
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next job: highest priority first, FIFO within a
    /// priority. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.jobs.is_empty() {
                let best = inner
                    .jobs
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (_, pri, seq))| (*pri, std::cmp::Reverse(*seq)))
                    .map(|(i, _)| i)
                    .expect("non-empty");
                return Some(inner.jobs.swap_remove(best).0);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Closes the queue: further submits fail, poppers drain what is
    /// left and then unblock with `None`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Jobs currently waiting for an executor.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }
}

// ---------------------------------------------------------------------------
// Interpolation surfaces
// ---------------------------------------------------------------------------

/// The grid corners a query answer was interpolated between — returned
/// in every `query` response so a consumer can audit how far from a
/// simulated sample the value sits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Provenance {
    /// Lower x grid corner.
    pub x0: f64,
    /// Upper x grid corner.
    pub x1: f64,
    /// Lower y grid corner (2-D surfaces only).
    pub y0: Option<f64>,
    /// Upper y grid corner (2-D surfaces only).
    pub y1: Option<f64>,
}

/// A sweep table re-shaped for interpolated point queries: a strictly
/// ordered x axis (and, for 2-D surfaces, a y axis spanning a complete
/// rectangular grid) with one value series per remaining column.
/// Queries *inside* the grid interpolate (linear / bilinear); queries
/// outside it are refused — the daemon never extrapolates.
pub struct Surface {
    xs: Vec<f64>,
    ys: Vec<f64>, // empty = 1-D
    cols: Vec<String>,
    vals: Vec<f64>, // [point-major][column]
}

/// A resolved query position: bracketing indices plus interpolation
/// weights along each axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bracket {
    x_lo: usize,
    x_hi: usize,
    tx: f64,
    y_lo: usize,
    y_hi: usize,
    ty: f64,
}

impl Surface {
    /// Builds a surface from `table`. 1-D: column 0 must be strictly
    /// increasing and at least one value column must follow. 2-D:
    /// columns 0/1 are the x/y axes and the rows must cover a complete
    /// rectangular grid, each cell exactly once. Returns `None` for any
    /// table that does not satisfy the shape (NaN axis values, duplicate
    /// or missing grid cells, non-monotonic axes).
    pub fn from_table(table: &Table, two_d: bool) -> Option<Surface> {
        if two_d {
            Self::from_table_2d(table)
        } else {
            Self::from_table_1d(table)
        }
    }

    fn from_table_1d(table: &Table) -> Option<Surface> {
        let columns = table.columns();
        if columns.len() < 2 || table.is_empty() {
            return None;
        }
        let xs = table.column(0);
        if xs.iter().any(|v| v.is_nan()) || xs.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let cols: Vec<String> = columns[1..].to_vec();
        let mut vals = Vec::with_capacity(table.len() * cols.len());
        for row in 0..table.len() {
            for col in 1..columns.len() {
                vals.push(table.cell(row, col));
            }
        }
        Some(Surface {
            xs,
            ys: Vec::new(),
            cols,
            vals,
        })
    }

    fn from_table_2d(table: &Table) -> Option<Surface> {
        let columns = table.columns();
        if columns.len() < 3 || table.is_empty() {
            return None;
        }
        let raw_x = table.column(0);
        let raw_y = table.column(1);
        if raw_x.iter().chain(raw_y.iter()).any(|v| v.is_nan()) {
            return None;
        }
        let mut xs = raw_x.clone();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut ys = raw_y.clone();
        ys.sort_by(f64::total_cmp);
        ys.dedup();
        if xs.len() < 2 || ys.len() < 2 || xs.len() * ys.len() != table.len() {
            return None;
        }
        let ncols = columns.len() - 2;
        let mut vals = vec![f64::NAN; table.len() * ncols];
        let mut seen = vec![false; table.len()];
        for row in 0..table.len() {
            let xi = xs.iter().position(|&v| v == raw_x[row])?;
            let yi = ys.iter().position(|&v| v == raw_y[row])?;
            let cell = xi * ys.len() + yi;
            if seen[cell] {
                return None; // duplicate grid cell
            }
            seen[cell] = true;
            for col in 0..ncols {
                vals[cell * ncols + col] = table.cell(row, col + 2);
            }
        }
        let cols: Vec<String> = columns[2..].to_vec();
        Some(Surface { xs, ys, cols, vals })
    }

    /// Value-column names, in table order.
    pub fn columns(&self) -> &[String] {
        &self.cols
    }

    /// Whether this surface interpolates over two axes.
    pub fn is_2d(&self) -> bool {
        !self.ys.is_empty()
    }

    fn bracket_axis(axis: &[f64], v: f64) -> Option<(usize, usize, f64)> {
        let (first, last) = (*axis.first()?, *axis.last()?);
        if !(v >= first && v <= last) {
            return None; // also rejects NaN
        }
        let i = axis.partition_point(|&a| a <= v);
        let hi = i.min(axis.len() - 1).max(1);
        let lo = hi - 1;
        let span = axis[hi] - axis[lo];
        let t = if span == 0.0 {
            0.0
        } else {
            (v - axis[lo]) / span
        };
        Some((lo, hi, t))
    }

    /// Resolves a query position to its bracketing grid cell, or
    /// `Err("out_of_range")` if it falls outside the grid (no
    /// extrapolation) or the dimensionality disagrees with the surface.
    pub fn bracket(&self, x: f64, y: Option<f64>) -> Result<Bracket, &'static str> {
        if self.is_2d() != y.is_some() {
            return Err("out_of_range");
        }
        let (x_lo, x_hi, tx) = Self::bracket_axis(&self.xs, x).ok_or("out_of_range")?;
        let (y_lo, y_hi, ty) = match y {
            Some(y) => Self::bracket_axis(&self.ys, y).ok_or("out_of_range")?,
            None => (0, 0, 0.0),
        };
        Ok(Bracket {
            x_lo,
            x_hi,
            tx,
            y_lo,
            y_hi,
            ty,
        })
    }

    /// Interpolated value of column `col` at a resolved position —
    /// linear in 1-D, bilinear in 2-D; exact at grid points.
    pub fn value_at(&self, b: &Bracket, col: usize) -> f64 {
        let ncols = self.cols.len();
        let lerp = |a: f64, z: f64, t: f64| a + (z - a) * t;
        if self.ys.is_empty() {
            let lo = self.vals[b.x_lo * ncols + col];
            let hi = self.vals[b.x_hi * ncols + col];
            lerp(lo, hi, b.tx)
        } else {
            let h = self.ys.len();
            let at = |xi: usize, yi: usize| self.vals[(xi * h + yi) * ncols + col];
            let low = lerp(at(b.x_lo, b.y_lo), at(b.x_hi, b.y_lo), b.tx);
            let high = lerp(at(b.x_lo, b.y_hi), at(b.x_hi, b.y_hi), b.tx);
            lerp(low, high, b.ty)
        }
    }

    /// The grid corners of a resolved position.
    pub fn provenance(&self, b: &Bracket) -> Provenance {
        Provenance {
            x0: self.xs[b.x_lo],
            x1: self.xs[b.x_hi],
            y0: (!self.ys.is_empty()).then(|| self.ys[b.y_lo]),
            y1: (!self.ys.is_empty()).then(|| self.ys[b.y_hi]),
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory result store + single-flight
// ---------------------------------------------------------------------------

/// One completed run, pinned in memory: its tables, a prebuilt JSON
/// fragment (so cache-hit responses copy bytes instead of re-encoding),
/// and lazily-built interpolation surfaces.
struct StoredRun {
    scenario: String,
    spec_hash: String,
    tables: Vec<Table>,
    tables_json: String,
    /// Per table: the 1-D and 2-D surface slots, built on first query.
    surfaces: Vec<[OnceLock<Option<Surface>>; 2]>,
}

impl StoredRun {
    fn new(record: RunRecord) -> StoredRun {
        let mut tables_json = String::new();
        crate::json::write_tables(&mut tables_json, &record.tables);
        let surfaces = (0..record.tables.len())
            .map(|_| [OnceLock::new(), OnceLock::new()])
            .collect();
        StoredRun {
            scenario: record.manifest.scenario,
            spec_hash: record.manifest.spec_hash,
            tables: record.tables,
            tables_json,
            surfaces,
        }
    }

    /// The (lazily built) surface over table `table`; `None` if the
    /// table index is out of range or the table has no valid grid of
    /// the requested dimensionality.
    fn surface(&self, table: usize, two_d: bool) -> Option<&Surface> {
        let slot = &self.surfaces.get(table)?[usize::from(two_d)];
        slot.get_or_init(|| Surface::from_table(&self.tables[table], two_d))
            .as_ref()
    }
}

/// The request tuple a client can vary — used as the fast-path index so
/// repeat requests resolve without rebuilding or hashing a spec.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ReqKey {
    scenario: u32,
    seed: Option<u64>,
    trials: Option<u64>,
    points: Option<u64>,
}

/// FIFO-bounded map of completed runs, indexed by spec hash and by
/// request tuple.
struct MemoryStore {
    map: HashMap<u64, Arc<StoredRun>>,
    order: VecDeque<u64>,
    params: HashMap<ReqKey, u64>,
    capacity: usize,
}

impl MemoryStore {
    fn new(capacity: usize) -> MemoryStore {
        MemoryStore {
            map: HashMap::new(),
            order: VecDeque::new(),
            params: HashMap::new(),
            capacity: capacity.max(1),
        }
    }

    fn get_by_params(&mut self, key: &ReqKey) -> Option<Arc<StoredRun>> {
        let spec_key = *self.params.get(key)?;
        match self.map.get(&spec_key) {
            Some(run) => Some(Arc::clone(run)),
            None => {
                // The run was evicted; drop the dangling index entry.
                self.params.remove(key);
                None
            }
        }
    }

    fn get_by_key(&self, key: u64) -> Option<Arc<StoredRun>> {
        self.map.get(&key).map(Arc::clone)
    }

    fn index_params(&mut self, params: ReqKey, key: u64) {
        self.params.insert(params, key);
    }

    fn insert(&mut self, key: u64, params: ReqKey, run: Arc<StoredRun>) {
        if self.map.insert(key, run).is_none() {
            self.order.push_back(key);
        }
        self.params.insert(params, key);
        while self.map.len() > self.capacity {
            let evict = self.order.pop_front().expect("order tracks map");
            self.map.remove(&evict);
        }
    }
}

/// A single-flight slot: the leader runs the job, joiners block on the
/// condvar until the leader publishes the result.
struct Flight {
    state: Mutex<Option<Result<Arc<StoredRun>, &'static str>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Arc<StoredRun>, &'static str>) {
        *self.state.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<StoredRun>, &'static str> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = self.cv.wait(state).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Hard per-request cap on `sweep` grid size. A sweep expands on the
/// handler thread into per-point flights and (worst case) one queued
/// job per point, so the cap bounds what one request line can pin in
/// memory; larger campaigns split into multiple requests.
pub const MAX_SWEEP_SEEDS: u64 = 4096;

/// The longest request line a connection reads, newline excluded. Every
/// request the protocol defines is a flat object well under 1 KiB; a
/// peer that sends more than this without a newline gets
/// `"error":"line_too_long"` and the connection is closed, so one
/// connection's line buffer never outgrows this.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Sizing knobs for an [`Engine`] / [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Executor threads draining the admission queue. `0` selects
    /// *inline* mode: the requesting thread executes its own job
    /// synchronously (unit tests, allocation guards).
    pub executors: usize,
    /// Worker-thread budget each job's [`Runner`] uses.
    pub job_threads: usize,
    /// Admission-queue capacity; submits beyond it are rejected with
    /// `queue_full`.
    pub queue_capacity: usize,
    /// In-memory result-store capacity (completed runs; FIFO eviction).
    pub memory_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            executors: 2,
            job_threads: 2,
            queue_capacity: 64,
            memory_capacity: 256,
        }
    }
}

/// Monotonic service counters, snapshotted by `op:"status"` and by
/// [`Engine::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Protocol lines handled (any op).
    pub requests: u64,
    /// `run` ops handled.
    pub runs: u64,
    /// `query` ops handled.
    pub queries: u64,
    /// `sweep` ops handled (each expands to many points).
    pub sweeps: u64,
    /// Grid points expanded from `sweep` ops; each also lands in one of
    /// the resolution counters below.
    pub sweep_points: u64,
    /// Resolutions served from the in-memory store.
    pub memory_hits: u64,
    /// Resolutions served by replaying an on-disk cache entry.
    pub disk_hits: u64,
    /// Resolutions that had to simulate.
    pub sim_runs: u64,
    /// Resolutions that joined another request's in-flight run.
    pub dedup_joined: u64,
    /// Jobs refused with `queue_full`.
    pub rejected: u64,
}

impl StatsSnapshot {
    /// Fraction of resolutions that did **not** pay for a simulation:
    /// `(total − sim_runs) / total`, `0` before any resolution.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.memory_hits + self.disk_hits + self.sim_runs + self.dedup_joined;
        if total == 0 {
            return 0.0;
        }
        (total - self.sim_runs) as f64 / total as f64
    }
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    runs: AtomicU64,
    queries: AtomicU64,
    sweeps: AtomicU64,
    sweep_points: AtomicU64,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    sim_runs: AtomicU64,
    dedup_joined: AtomicU64,
    rejected: AtomicU64,
}

/// Lock-free log₂ latency histogram, bucket-compatible with
/// [`obs::HistogramStat::from_counts`].
struct AtomicHist {
    counts: [AtomicU64; 65],
}

impl AtomicHist {
    fn new() -> AtomicHist {
        AtomicHist {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> [u64; 65] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }
}

/// A unit of work: the reseeded/minimized scenario plus the
/// single-flight slot its waiters block on. One admission-queue item is
/// the `Vec` of one request's uncached jobs: N cold sweep points cost
/// one slot, one submit and one rejection decision, so admission is per
/// *request*, not per point.
struct Job {
    key: u64,
    params: ReqKey,
    scenario: Box<dyn Scenario>,
    flight: Arc<Flight>,
}

/// The job fields `run`, `query` and `sweep` share, parsed by
/// [`Engine::job_fields`].
struct JobFields<'e> {
    base: &'e dyn Scenario,
    params: ReqKey,
    priority: i64,
}

impl JobFields<'_> {
    /// The base scenario's spec, minimized to the request's `points`
    /// and `trials` and reseeded to its `seed`, each only when given.
    fn spec(&self) -> ScenarioSpec {
        let ReqKey {
            seed,
            trials,
            points,
            ..
        } = self.params;
        let base = self.base.spec();
        base.minimized(
            points.map_or(usize::MAX, |p| p as usize),
            trials.map_or(base.trials, |t| t as usize),
        )
        .with_seed(seed.unwrap_or(base.seed))
    }
}

/// One resolved point: a stored run, or the flight that will carry it.
enum Point {
    Ready(Arc<StoredRun>),
    Wait(Arc<Flight>),
}

impl Point {
    fn wait(&self) -> Result<Arc<StoredRun>, &'static str> {
        match self {
            Point::Ready(run) => Ok(Arc::clone(run)),
            Point::Wait(flight) => flight.wait(),
        }
    }
}

/// The protocol brain: resolves one request line to one response line.
/// Transport-agnostic — [`Server`] feeds it from sockets, tests and
/// allocation guards call [`Engine::handle_line`] directly.
pub struct Engine {
    registry: Arc<Registry>,
    cache: Option<RunCache>,
    config: EngineConfig,
    queue: AdmissionQueue<Vec<Job>>,
    store: Mutex<MemoryStore>,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    stats: Stats,
    job_us: AtomicHist,
}

impl Engine {
    /// An engine resolving requests against `registry`, optionally
    /// memoizing through `cache`.
    pub fn new(registry: Arc<Registry>, cache: Option<RunCache>, config: EngineConfig) -> Engine {
        Engine {
            registry,
            cache,
            queue: AdmissionQueue::new(config.queue_capacity),
            store: Mutex::new(MemoryStore::new(config.memory_capacity)),
            inflight: Mutex::new(HashMap::new()),
            stats: Stats::default(),
            job_us: AtomicHist::new(),
            config,
        }
    }

    /// The executor-thread body: drains the admission queue until it is
    /// closed *and* empty. Public so in-process tests can pair an
    /// engine with a hand-spawned executor, no sockets involved.
    pub fn run_executor(&self) {
        while let Some(jobs) = self.queue.pop() {
            self.execute(jobs);
        }
    }

    /// Closes the admission queue: already-admitted jobs still drain,
    /// new submissions fail with `shutting_down`, and executors exit
    /// once the queue is empty.
    pub fn close(&self) {
        self.queue.close();
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            requests: load(&self.stats.requests),
            runs: load(&self.stats.runs),
            queries: load(&self.stats.queries),
            sweeps: load(&self.stats.sweeps),
            sweep_points: load(&self.stats.sweep_points),
            memory_hits: load(&self.stats.memory_hits),
            disk_hits: load(&self.stats.disk_hits),
            sim_runs: load(&self.stats.sim_runs),
            dedup_joined: load(&self.stats.dedup_joined),
            rejected: load(&self.stats.rejected),
        }
    }

    /// Handles one request line, appending the complete response —
    /// exactly one line for every op except `sweep`, which appends one
    /// `sweep_point` line per grid point plus a summary line — to `out`.
    /// Returns `false` when the request was a `shutdown` — the transport
    /// should stop serving.
    ///
    /// On the cache-hit path (in-memory store) this performs no heap
    /// allocation beyond growing `out`, so a reused buffer makes repeat
    /// queries allocation-free in steady state.
    pub fn handle_line(&self, line: &str, out: &mut String) -> bool {
        self.handle_line_streaming(line, out, &mut |_| true)
    }

    /// Like [`Engine::handle_line`], but with partial-result streaming:
    /// `emit` is called after every *complete* response line lands in
    /// `out` except the last (which the caller writes as before). A
    /// streaming transport writes `out` and clears it inside `emit`; a
    /// buffering caller passes `&mut |_| true` and gets every line
    /// accumulated. `emit` returning `false` (client gone) abandons the
    /// remaining lines of the current request.
    pub fn handle_line_streaming(
        &self,
        line: &str,
        out: &mut String,
        emit: &mut dyn FnMut(&mut String) -> bool,
    ) -> bool {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        // The line is read once. A line that is not one flat object, or
        // whose id is malformed, is answered with id 0: its id cannot be
        // trusted.
        let Some((id, req)) = parse_flat(line)
            .ok()
            .and_then(|req| Some((num(&req, "id").ok()?.unwrap_or(0), req)))
        else {
            write_err(out, 0, "bad_request");
            return true;
        };
        match text(&req, "op") {
            Ok(Some("run")) => self.op_run(&req, id, out),
            Ok(Some("query")) => self.op_query(&req, id, out),
            Ok(Some("sweep")) => self.op_sweep(&req, id, out, emit),
            Ok(Some("status")) => self.op_status(id, out),
            Ok(Some("prune")) => self.op_prune(id, out),
            Ok(Some("shutdown")) => {
                let _ = writeln!(out, "{{\"id\":{id},\"ok\":true,\"op\":\"shutdown\"}}");
                return false;
            }
            _ => write_err(out, id, "bad_request"),
        }
        true
    }

    /// Parses the job fields `run`, `query` and `sweep` share:
    /// `scenario`, `seed`, `trials`, `points` and `priority`. A malformed
    /// field is `bad_request`; the scenario name is looked up last, so
    /// `unknown_scenario` means every field parsed.
    fn job_fields(&self, req: &Flat) -> Result<JobFields<'_>, &'static str> {
        let name = text(req, "scenario")?.ok_or("bad_request")?;
        let (seed, trials, points) = (num(req, "seed")?, num(req, "trials")?, num(req, "points")?);
        let priority = num(req, "priority")?.unwrap_or(0);
        let (scenario, base) = (self.registry.iter().enumerate())
            .find(|(_, s)| s.spec().name == name)
            .ok_or("unknown_scenario")?;
        Ok(JobFields {
            base,
            params: ReqKey {
                scenario: scenario as u32,
                seed,
                trials,
                points,
            },
            priority,
        })
    }

    /// Resolves a `run` or `query` request's one point, simulating it if
    /// no store holds it.
    fn resolve(&self, job: &JobFields) -> Result<Arc<StoredRun>, &'static str> {
        let mut leaders = Vec::new();
        let point = self.resolve_point(job.params, job.base, || job.spec(), &mut leaders);
        self.admit(leaders, job.priority);
        point.wait()
    }

    /// Cache-first resolution of one point: in-memory request index →
    /// in-memory spec index → single-flight (the executor's [`Runner`]
    /// then consults the on-disk cache before simulating). `spec` is
    /// built only past the request index, so a repeat request builds,
    /// hashes and clones nothing. A point that needs running pushes its
    /// job onto `leaders`, for the caller to [`admit`](Engine::admit);
    /// one that another request is already running joins its flight.
    fn resolve_point(
        &self,
        params: ReqKey,
        base: &dyn Scenario,
        spec: impl FnOnce() -> ScenarioSpec,
        leaders: &mut Vec<Job>,
    ) -> Point {
        if let Some(run) = self.store.lock().unwrap().get_by_params(&params) {
            self.stats.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Point::Ready(run);
        }
        let spec = spec();
        let key = spec.hash();
        // Second chance: a different request tuple already produced this
        // exact spec (e.g. explicit seed equal to the default).
        {
            let mut store = self.store.lock().unwrap();
            if let Some(run) = store.get_by_key(key) {
                store.index_params(params, key);
                self.stats.memory_hits.fetch_add(1, Ordering::Relaxed);
                return Point::Ready(run);
            }
        }
        // Single-flight: exactly one leader per spec; everyone else
        // joins its flight and waits.
        let mut inflight = self.inflight.lock().unwrap();
        if let Some(flight) = inflight.get(&key) {
            self.stats.dedup_joined.fetch_add(1, Ordering::Relaxed);
            return Point::Wait(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        inflight.insert(key, Arc::clone(&flight));
        drop(inflight);
        leaders.push(Job {
            key,
            params,
            scenario: base.with_spec(spec),
            flight: Arc::clone(&flight),
        });
        Point::Wait(flight)
    }

    /// Admits one request's uncached jobs: runs them on the calling
    /// thread in inline mode, else submits them as ONE queue item. A
    /// refused item fails every flight it carried (`queue_full` or
    /// `shutting_down`) and frees their single-flight slots, so a retry
    /// gets a fresh leader.
    fn admit(&self, jobs: Vec<Job>, priority: i64) {
        if jobs.is_empty() {
            return;
        }
        if self.config.executors == 0 {
            return self.execute(jobs);
        }
        let (jobs, code) = match self.queue.submit(jobs, priority) {
            Ok(()) => return,
            Err(SubmitError::Full(jobs)) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                (jobs, "queue_full")
            }
            Err(SubmitError::Closed(jobs)) => (jobs, "shutting_down"),
        };
        let mut inflight = self.inflight.lock().unwrap();
        for job in jobs {
            inflight.remove(&job.key);
            job.flight.complete(Err(code));
        }
    }

    fn op_run(&self, req: &Flat, id: u64, out: &mut String) {
        self.stats.runs.fetch_add(1, Ordering::Relaxed);
        match self.job_fields(req).and_then(|job| self.resolve(&job)) {
            Err(code) => write_err(out, id, code),
            Ok(run) => {
                let _ = writeln!(
                    out,
                    "{{\"id\":{id},\"ok\":true,\"op\":\"run\",\"scenario\":\"{}\",\"spec_hash\":\"{}\",\"tables\":{}}}",
                    run.scenario, run.spec_hash, run.tables_json
                );
            }
        }
    }

    /// One request, a whole grid: expands the base spec to `seeds`
    /// consecutive per-seed points, resolves each cache-first, and
    /// admits every uncached point as ONE queue item — a sweep costs
    /// one queue slot, one spec minimization pass, and one rejection
    /// decision instead of N of each. Single-flight dedup stays
    /// point-granular: each point's flight is keyed by its spec hash in
    /// the same map `run` uses, so overlapping sweeps (and point `run`s
    /// racing a sweep) share work.
    ///
    /// Responses stream: one `sweep_point` line per point, in point
    /// order (each line carries its `point` index, so any stable sort
    /// by index makes replays byte-comparable), then one summary line
    /// that — like `run` bodies — is a pure function of the request.
    fn op_sweep(
        &self,
        req: &Flat,
        id: u64,
        out: &mut String,
        emit: &mut dyn FnMut(&mut String) -> bool,
    ) {
        self.stats.sweeps.fetch_add(1, Ordering::Relaxed);
        let parsed = match num(req, "seeds") {
            Ok(Some(seeds @ 1..=MAX_SWEEP_SEEDS)) => self.job_fields(req).map(|job| (seeds, job)),
            Ok(_) => Err("bad_request"),
            Err(code) => Err(code),
        };
        let (seeds, job) = match parsed {
            Ok(p) => p,
            Err(code) => return write_err(out, id, code),
        };
        self.stats.sweep_points.fetch_add(seeds, Ordering::Relaxed);
        // ONE minimization/canonicalization pass for the whole grid;
        // per-point specs differ only in seed.
        let spec = job.spec();
        let base_seed = spec.seed;
        let mut leaders = Vec::new();
        let points: Vec<Point> = (0..seeds)
            .map(|p| {
                let seed = base_seed.wrapping_add(p);
                let params = ReqKey {
                    seed: Some(seed),
                    ..job.params
                };
                let spec = || spec.clone().with_seed(seed);
                self.resolve_point(params, job.base, spec, &mut leaders)
            })
            .collect();
        self.admit(leaders, job.priority);
        // Stream one line per point as its flight completes. Point
        // order, not completion order: a point's line is emitted the
        // moment its own flight resolves, so early points flow while
        // late ones still compute.
        let mut failed = 0u64;
        for (p, point) in points.iter().enumerate() {
            match point.wait() {
                Ok(run) => {
                    let _ = writeln!(
                        out,
                        "{{\"id\":{id},\"ok\":true,\"op\":\"sweep_point\",\"point\":{p},\
                         \"seed\":{},\"scenario\":\"{}\",\"spec_hash\":\"{}\",\"tables\":{}}}",
                        base_seed.wrapping_add(p as u64),
                        run.scenario,
                        run.spec_hash,
                        run.tables_json
                    );
                }
                Err(code) => {
                    failed += 1;
                    let _ = writeln!(
                        out,
                        "{{\"id\":{id},\"ok\":false,\"op\":\"sweep_point\",\"point\":{p},\
                         \"error\":\"{code}\"}}"
                    );
                }
            }
            if !emit(out) {
                return; // client gone; drop the rest of the stream
            }
        }
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"ok\":{},\"op\":\"sweep\",\"scenario\":\"{}\",\
             \"points\":{seeds},\"failed\":{failed}}}",
            failed == 0,
            job.base.spec().name
        );
    }

    fn op_query(&self, req: &Flat, id: u64, out: &mut String) {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let parsed = (|| {
            let x = num::<f64>(req, "x")?.ok_or("bad_request")?;
            let y = num::<f64>(req, "y")?;
            let table = num::<u64>(req, "table")?.unwrap_or(0) as usize;
            Ok((x, y, table, self.resolve(&self.job_fields(req)?)?))
        })();
        let (x, y, table, run) = match parsed {
            Ok(p) => p,
            Err(code) => return write_err(out, id, code),
        };
        let surface = match run.surface(table, y.is_some()) {
            Some(s) => s,
            None => return write_err(out, id, "no_surface"),
        };
        let bracket = match surface.bracket(x, y) {
            Ok(b) => b,
            Err(code) => return write_err(out, id, code),
        };
        let _ = write!(
            out,
            "{{\"id\":{id},\"ok\":true,\"op\":\"query\",\"scenario\":\"{}\",\"spec_hash\":\"{}\",\"table\":{table},\"x\":",
            run.scenario, run.spec_hash
        );
        write_num(out, x);
        if let Some(y) = y {
            out.push_str(",\"y\":");
            write_num(out, y);
        }
        out.push_str(",\"columns\":");
        write_list(out, surface.columns(), |out, name| write_str(out, name));
        out.push_str(",\"values\":");
        write_list(out, 0..surface.columns().len(), |out, col| {
            write_num(out, surface.value_at(&bracket, col));
        });
        let p = surface.provenance(&bracket);
        let _ = write!(
            out,
            ",\"provenance\":{{\"spec_hash\":\"{}\",\"x0\":",
            run.spec_hash
        );
        write_num(out, p.x0);
        out.push_str(",\"x1\":");
        write_num(out, p.x1);
        if let (Some(y0), Some(y1)) = (p.y0, p.y1) {
            out.push_str(",\"y0\":");
            write_num(out, y0);
            out.push_str(",\"y1\":");
            write_num(out, y1);
        }
        out.push_str("}}\n");
    }

    fn op_status(&self, id: u64, out: &mut String) {
        let s = self.stats();
        let cache_stats = self.cache.as_ref().map(RunCache::stats).unwrap_or_default();
        let (evicted, evicted_bytes) = self.cache.as_ref().map(RunCache::evicted).unwrap_or((0, 0));
        let hist = obs::HistogramStat::from_counts("serve.job_us", &self.job_us.snapshot());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"ok\":true,\"op\":\"status\",\"scenarios\":{},\"queue_depth\":{},\
             \"requests\":{},\"runs\":{},\"queries\":{},\"sweeps\":{},\"sweep_points\":{},\
             \"memory_hits\":{},\"disk_hits\":{},\
             \"sim_runs\":{},\"dedup_joined\":{},\"rejected\":{},\"cache_hit_ratio\":{},\
             \"cache_entries\":{},\"cache_bytes\":{},\"cache_stale\":{},\
             \"cache_evicted\":{},\"cache_evicted_bytes\":{},\
             \"job_p50_us\":{},\"job_p99_us\":{}}}",
            self.registry.len(),
            self.queue.depth(),
            s.requests,
            s.runs,
            s.queries,
            s.sweeps,
            s.sweep_points,
            s.memory_hits,
            s.disk_hits,
            s.sim_runs,
            s.dedup_joined,
            s.rejected,
            s.cache_hit_ratio(),
            cache_stats.entries,
            cache_stats.bytes,
            cache_stats.stale,
            evicted,
            evicted_bytes,
            hist.p50(),
            hist.p99(),
        );
    }

    fn op_prune(&self, id: u64, out: &mut String) {
        match &self.cache {
            None => write_err(out, id, "no_cache"),
            Some(cache) => match cache.prune_stale() {
                Ok((removed, bytes)) => {
                    let _ = writeln!(
                        out,
                        "{{\"id\":{id},\"ok\":true,\"op\":\"prune\",\
                         \"removed\":{removed},\"bytes\":{bytes}}}"
                    );
                }
                Err(_) => write_err(out, id, "prune_failed"),
            },
        }
    }

    /// Runs one admitted queue item (executor thread, or the caller in
    /// inline mode). A lone job gets a `job_threads`-wide [`Runner`].
    /// Several fan out across the pool as one flat point grid (the same
    /// `par_map_with` scheduler the flat (point × chunk) sweep grid
    /// uses), each on a *serial* Runner — `threads <= 1` bypasses the
    /// pool, so the workers are spent on point-level parallelism instead
    /// of nested dispatch. Every job completes its own flight the moment
    /// it finishes, so a sweep's handler streams early points while late
    /// ones still compute.
    fn execute(&self, jobs: Vec<Job>) {
        let started = Instant::now();
        if let [job] = jobs.as_slice() {
            self.execute_point(job, self.config.job_threads);
        } else {
            crate::par::par_map_with(self.config.job_threads, &jobs, |_, job| {
                self.execute_point(job, 1);
            });
        }
        self.job_us
            .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        // Discard this item's obs events so a long-lived daemon's global
        // event log stays bounded. Consequence: an in-process server
        // cannot run under an enclosing trace capture — the bench
        // harness runs its serving pass before the traced pass.
        obs::drain();
    }

    /// Runs one point with a `threads`-wide [`Runner`] and publishes
    /// the result to its flight.
    fn execute_point(&self, job: &Job, threads: usize) {
        // Classify from the runner's own lookup outcome, not a pre-check:
        // a corrupt or truncated entry fails to load and is simulated, and
        // the evictor may remove an entry between a check and the run.
        // (The manifest's hit/miss counters say the same, but concurrent
        // jobs share one obs log, so the daemon keeps its own tally.)
        let mut runner = Runner::with_threads(threads);
        if let Some(cache) = &self.cache {
            runner = runner.with_cache(cache.clone());
        }
        let result = catch_unwind(AssertUnwindSafe(|| runner.run(&*job.scenario)));
        match result {
            Ok(record) => {
                if record.from_cache {
                    self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats.sim_runs.fetch_add(1, Ordering::Relaxed);
                }
                let stored = Arc::new(StoredRun::new(record));
                self.store
                    .lock()
                    .unwrap()
                    .insert(job.key, job.params, Arc::clone(&stored));
                self.inflight.lock().unwrap().remove(&job.key);
                job.flight.complete(Ok(stored));
            }
            Err(_) => {
                self.inflight.lock().unwrap().remove(&job.key);
                job.flight.complete(Err("run_failed"));
            }
        }
    }
}

/// Writes the uniform error response.
fn write_err(out: &mut String, id: u64, code: &str) {
    let _ = writeln!(out, "{{\"id\":{id},\"ok\":false,\"error\":\"{code}\"}}");
}

// ---------------------------------------------------------------------------
// Transport: listeners, connections, shutdown
// ---------------------------------------------------------------------------

/// A connected socket of either family.
enum AnyStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl AnyStream {
    fn try_clone(&self) -> io::Result<AnyStream> {
        match self {
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
        }
    }

    fn shutdown_both(&self) {
        let _ = match self {
            AnyStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

/// Where a dummy connection must be made to unpark an acceptor blocked
/// in `accept` (std has no listener close-from-another-thread).
enum WakeTarget {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// State shared by acceptors, connection handlers and the shutdown
/// path.
struct Shared {
    engine: Arc<Engine>,
    /// Clones of every live connection, for `shutdown(Both)` wakeups.
    conns: Mutex<HashMap<u64, AnyStream>>,
    next_conn: AtomicU64,
    wake: Vec<WakeTarget>,
    shutting_down: AtomicBool,
    /// Connection-handler threads: finished ones are joined at the next
    /// accept, the rest by [`Server::join`].
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Idempotent orderly shutdown: close the queue (draining what is
    /// already admitted), unpark every acceptor, and EOF every blocked
    /// connection read.
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.engine.queue.close();
        for target in &self.wake {
            match target {
                WakeTarget::Tcp(addr) => drop(TcpStream::connect(addr)),
                #[cfg(unix)]
                WakeTarget::Unix(path) => drop(UnixStream::connect(path)),
            }
        }
        for conn in self.conns.lock().unwrap().values() {
            conn.shutdown_both();
        }
    }
}

/// Builder for a [`Server`]: pick listeners, cache, and sizing, then
/// [`start`](ServerBuilder::start).
pub struct ServerBuilder {
    registry: Arc<Registry>,
    cache: Option<RunCache>,
    config: EngineConfig,
    tcp: Option<String>,
    #[cfg_attr(not(unix), allow(dead_code))]
    unix: Option<PathBuf>,
}

impl ServerBuilder {
    /// Attaches the on-disk run cache.
    pub fn cache(mut self, cache: RunCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the sizing knobs.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port).
    pub fn tcp(mut self, addr: &str) -> Self {
        self.tcp = Some(addr.to_string());
        self
    }

    /// Adds a Unix-domain listener at `path` (a stale socket file from
    /// a previous run is removed at bind).
    #[cfg(unix)]
    pub fn unix(mut self, path: impl Into<PathBuf>) -> Self {
        self.unix = Some(path.into());
        self
    }

    /// Binds the listeners, pre-spawns the job-thread pool workers, and
    /// starts executor, acceptor and connection threads.
    pub fn start(self) -> io::Result<Server> {
        let mut config = self.config;
        // A socket server with zero executors would deadlock: handlers
        // block on flights nobody drains. Inline mode is engine-only.
        config.executors = config.executors.max(1);
        // Pre-spawn the shared pool so the first job does not pay
        // thread-creation latency. Acceptors and connection handlers
        // never call pool::run, so they hold no worker slot.
        mmtag_rf::pool::ensure_workers(config.job_threads.saturating_sub(1));
        let engine = Arc::new(Engine::new(self.registry, self.cache, config));

        let mut listeners = Vec::new();
        let mut wake = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &self.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            let local = listener.local_addr()?;
            tcp_addr = Some(local);
            wake.push(WakeTarget::Tcp(local));
            listeners.push(Listener::Tcp(listener));
        }
        #[cfg(unix)]
        let unix_path = self.unix;
        #[cfg(not(unix))]
        let unix_path: Option<PathBuf> = None;
        #[cfg(unix)]
        if let Some(path) = &unix_path {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let listener = UnixListener::bind(path)?;
            wake.push(WakeTarget::Unix(path.clone()));
            listeners.push(Listener::Unix(listener));
        }
        if listeners.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve: no listener configured (need --socket and/or --tcp)",
            ));
        }

        let shared = Arc::new(Shared {
            engine: Arc::clone(&engine),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            wake,
            shutting_down: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
        });

        let mut threads = Vec::new();
        for i in 0..config.executors {
            let engine = Arc::clone(&engine);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("mmtag-serve-exec-{i}"))
                    .spawn(move || engine.run_executor())?,
            );
        }
        for listener in listeners {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mmtag-serve-accept".to_string())
                    .spawn(move || accept_loop(&shared, listener))?,
            );
        }

        Ok(Server {
            shared,
            threads,
            tcp_addr,
            unix_path,
        })
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                AnyStream::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }
}

/// Accepts connections until shutdown. Each connection gets its own
/// handler thread; the acceptor itself never touches the engine, so it
/// can never occupy a pool worker slot or an executor. Every accept first
/// joins the handlers that have finished, so a long-lived daemon holds
/// one thread (and its stack) per *open* connection, not per connection
/// ever served.
fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => break,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            break; // the wake-up connect, or a late client
        }
        {
            let mut handlers = shared.handlers.lock().unwrap();
            let mut i = 0;
            while i < handlers.len() {
                if handlers[i].is_finished() {
                    drop(handlers.swap_remove(i).join());
                } else {
                    i += 1;
                }
            }
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().insert(conn_id, clone);
        }
        let shared2 = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("mmtag-serve-conn-{conn_id}"))
            .spawn(move || {
                conn_loop(&shared2, stream);
                shared2.conns.lock().unwrap().remove(&conn_id);
            });
        match handle {
            Ok(h) => shared.handlers.lock().unwrap().push(h),
            Err(_) => shared
                .conns
                .lock()
                .unwrap()
                .remove(&conn_id)
                .map(drop)
                .unwrap_or(()),
        }
    }
}

/// One connection: read a line, handle it, write the response; repeat
/// until EOF, error, an over-long line, or a `shutdown` op.
fn conn_loop(shared: &Arc<Shared>, stream: AnyStream) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut out = String::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from one that
        // ends exactly at it.
        let mut capped = (&mut reader).take(MAX_REQUEST_BYTES as u64 + 1);
        match capped.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            out.clear();
            write_err(&mut out, 0, "line_too_long");
            let _ = reader.get_mut().write_all(out.as_bytes());
            break;
        }
        let Ok(line) = std::str::from_utf8(&line) else {
            break;
        };
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        out.clear();
        let mut io_ok = true;
        let keep_serving = if shared.shutting_down.load(Ordering::SeqCst) {
            let id = parse_flat(trimmed)
                .ok()
                .and_then(|req| num(&req, "id").ok().flatten())
                .unwrap_or(0);
            write_err(&mut out, id, "shutting_down");
            true
        } else {
            // Stream partial results (sweep point lines) as they
            // complete instead of buffering a whole grid's tables.
            let stream = reader.get_mut();
            shared
                .engine
                .handle_line_streaming(trimmed, &mut out, &mut |buf: &mut String| match stream
                    .write_all(buf.as_bytes())
                    .and_then(|()| stream.flush())
                {
                    Ok(()) => {
                        buf.clear();
                        true
                    }
                    Err(_) => {
                        io_ok = false;
                        false
                    }
                })
        };
        if !io_ok || reader.get_mut().write_all(out.as_bytes()).is_err() {
            break;
        }
        if !keep_serving {
            shared.initiate_shutdown();
            break;
        }
    }
}

/// A running daemon: listeners bound, executors draining the admission
/// queue. Stops when some client sends `{"op":"shutdown"}`;
/// [`Server::join`] then reaps every thread.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Starts building a server over `registry`.
    pub fn builder(registry: Registry) -> ServerBuilder {
        ServerBuilder {
            registry: Arc::new(registry),
            cache: None,
            config: EngineConfig::default(),
            tcp: None,
            unix: None,
        }
    }

    /// The bound TCP address, if a TCP listener was configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The engine, for in-process inspection (tests, the bench
    /// harness).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Requests shutdown from within the process — equivalent to a
    /// client sending `{"op":"shutdown"}`.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until the daemon has shut down and every thread has been
    /// joined, then removes the Unix socket file.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        loop {
            let handle = self.shared.handlers.lock().unwrap().pop();
            match handle {
                Some(h) => drop(h.join()),
                None => break,
            }
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking protocol client: write one request line, read one
/// response line. Used by the CLI, the load generator, and the
/// integration tests.
pub struct Client {
    reader: BufReader<AnyStream>,
    /// Reused request staging buffer: the request plus its newline go
    /// out in ONE write. Two small writes on a TCP stream trip the
    /// Nagle/delayed-ACK interaction and cost ~40 ms per round trip.
    wbuf: String,
}

impl Client {
    /// Connects over TCP (with `TCP_NODELAY`, as every line-oriented
    /// request/response protocol should).
    pub fn connect_tcp(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(AnyStream::Tcp(stream)),
            wbuf: String::new(),
        })
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(AnyStream::Unix(UnixStream::connect(path)?)),
            wbuf: String::new(),
        })
    }

    /// Sends `request` (one JSON object, no newline needed) and returns
    /// the response line with its trailing newline trimmed.
    pub fn roundtrip(&mut self, request: &str) -> io::Result<String> {
        let mut response = String::new();
        self.roundtrip_into(request, &mut response)?;
        Ok(response)
    }

    /// Like [`Client::roundtrip`], but appends the response into a
    /// caller-owned buffer (load generators reuse one buffer per
    /// connection).
    pub fn roundtrip_into(&mut self, request: &str, response: &mut String) -> io::Result<()> {
        self.wbuf.clear();
        self.wbuf.push_str(request);
        if !request.ends_with('\n') {
            self.wbuf.push('\n');
        }
        let stream = self.reader.get_mut();
        stream.write_all(self.wbuf.as_bytes())?;
        stream.flush()?;
        let start = response.len();
        let n = self.reader.read_line(response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "serve: connection closed mid-request",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        debug_assert!(response.len() >= start);
        Ok(())
    }

    /// Sends a `sweep` request and appends the whole response stream —
    /// every `sweep_point` line plus the terminating summary (or error)
    /// line — into `response`, newline-separated with the final newline
    /// trimmed. Returns how many `sweep_point` lines were streamed.
    pub fn sweep_into(&mut self, request: &str, response: &mut String) -> io::Result<usize> {
        self.wbuf.clear();
        self.wbuf.push_str(request);
        if !request.ends_with('\n') {
            self.wbuf.push('\n');
        }
        let stream = self.reader.get_mut();
        stream.write_all(self.wbuf.as_bytes())?;
        stream.flush()?;
        let mut points = 0;
        loop {
            let start = response.len();
            let n = self.reader.read_line(response)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "serve: connection closed mid-sweep",
                ));
            }
            // Any line that is not a point line — the summary, or a
            // whole-request error — terminates the stream.
            if !response[start..].contains("\"op\":\"sweep_point\"") {
                while response.ends_with('\n') || response.ends_with('\r') {
                    response.pop();
                }
                return Ok(points);
            }
            points += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AxisKind, RunContext, ScenarioSpec};
    use std::sync::atomic::AtomicUsize;

    // -- request fields ---------------------------------------------------

    #[test]
    fn scanner_extracts_fields_without_confusing_values_for_keys() {
        let line = r#"{"id": 7, "op": "query", "scenario": "op", "x": -2.5e1, "note": "x"}"#;
        let req = parse_flat(line).unwrap();
        assert_eq!(num::<u64>(&req, "id"), Ok(Some(7)));
        assert_eq!(text(&req, "op"), Ok(Some("query")));
        // The value "op" must not shadow the key "op"; the value "x"
        // must not shadow the key "x".
        assert_eq!(text(&req, "scenario"), Ok(Some("op")));
        assert_eq!(num::<f64>(&req, "x"), Ok(Some(-25.0)));
        assert_eq!(text(&req, "missing"), Ok(None));
    }

    #[test]
    fn scanner_rejects_malformed_fields() {
        let req = |line| parse_flat(line).unwrap();
        assert_eq!(
            num::<u64>(&req(r#"{"id": "nope"}"#), "id"),
            Err("bad_request")
        );
        assert_eq!(text(&req(r#"{"op": 3}"#), "op"), Err("bad_request"));
        // Escapes, nested values and unterminated strings refuse the
        // whole line, which the engine answers `bad_request` with id 0.
        assert!(parse_flat(r#"{"op": "a\"b"}"#).is_err());
        assert!(parse_flat(r#"{"op": {"nested": 1}}"#).is_err());
        assert!(parse_flat(r#"{"op": "unterminated"#).is_err());
    }

    // -- admission queue --------------------------------------------------

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let q = AdmissionQueue::new(8);
        q.submit("low-1", -1).unwrap();
        q.submit("mid-1", 0).unwrap();
        q.submit("mid-2", 0).unwrap();
        q.submit("high", 5).unwrap();
        q.close();
        assert_eq!(q.pop(), Some("high"));
        assert_eq!(q.pop(), Some("mid-1"));
        assert_eq!(q.pop(), Some("mid-2"));
        assert_eq!(q.pop(), Some("low-1"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // stays closed
    }

    #[test]
    fn queue_rejects_at_capacity_and_after_close() {
        let q = AdmissionQueue::new(2);
        q.submit(1, 0).unwrap();
        q.submit(2, 0).unwrap();
        assert!(matches!(q.submit(3, 9), Err(SubmitError::Full(3))));
        assert_eq!(q.depth(), 2);
        q.close();
        assert!(matches!(q.submit(4, 0), Err(SubmitError::Closed(4))));
        // Close drains what was already admitted.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    // -- surfaces ---------------------------------------------------------

    fn table_1d() -> Table {
        let mut t = Table::new("line", &["x", "y", "z"]);
        t.push_row(&[0.0, 0.0, 10.0]);
        t.push_row(&[2.0, 4.0, 30.0]);
        t.push_row(&[4.0, 16.0, 50.0]);
        t
    }

    fn table_2d() -> Table {
        let mut t = Table::new("grid", &["x", "y", "v"]);
        for &x in &[0.0, 1.0] {
            for &y in &[0.0, 2.0] {
                t.push_row(&[x, y, 10.0 * x + y]);
            }
        }
        t
    }

    #[test]
    fn surface_1d_interpolates_linearly_and_exactly_at_grid_points() {
        let s = Surface::from_table(&table_1d(), false).unwrap();
        assert_eq!(s.columns(), &["y".to_string(), "z".to_string()]);
        let b = s.bracket(1.0, None).unwrap();
        assert_eq!(s.value_at(&b, 0), 2.0);
        assert_eq!(s.value_at(&b, 1), 20.0);
        assert_eq!(
            s.provenance(&b),
            Provenance {
                x0: 0.0,
                x1: 2.0,
                y0: None,
                y1: None
            }
        );
        // Exact at grid points, including both endpoints.
        for (x, want) in [(0.0, 0.0), (2.0, 4.0), (4.0, 16.0)] {
            let b = s.bracket(x, None).unwrap();
            assert_eq!(s.value_at(&b, 0), want, "x={x}");
        }
    }

    #[test]
    fn surface_2d_interpolates_bilinearly() {
        let s = Surface::from_table(&table_2d(), true).unwrap();
        assert!(s.is_2d());
        let b = s.bracket(0.5, Some(1.0)).unwrap();
        assert_eq!(s.value_at(&b, 0), 6.0); // 10*0.5 + 1.0
        let p = s.provenance(&b);
        assert_eq!((p.x0, p.x1, p.y0, p.y1), (0.0, 1.0, Some(0.0), Some(2.0)));
        let corner = s.bracket(1.0, Some(2.0)).unwrap();
        assert_eq!(s.value_at(&corner, 0), 12.0);
    }

    #[test]
    fn surface_refuses_out_of_range_and_dimension_mismatch() {
        let s1 = Surface::from_table(&table_1d(), false).unwrap();
        assert_eq!(s1.bracket(-0.1, None), Err("out_of_range"));
        assert_eq!(s1.bracket(4.1, None), Err("out_of_range"));
        assert_eq!(s1.bracket(f64::NAN, None), Err("out_of_range"));
        assert_eq!(s1.bracket(1.0, Some(1.0)), Err("out_of_range")); // y on a 1-D surface
        let s2 = Surface::from_table(&table_2d(), true).unwrap();
        assert_eq!(s2.bracket(0.5, None), Err("out_of_range")); // missing y on 2-D
        assert_eq!(s2.bracket(0.5, Some(3.0)), Err("out_of_range"));
    }

    #[test]
    fn surface_rejects_malformed_grids() {
        // Non-monotonic x axis.
        let mut t = Table::new("bad", &["x", "y"]);
        t.push_row(&[1.0, 0.0]);
        t.push_row(&[0.0, 1.0]);
        assert!(Surface::from_table(&t, false).is_none());
        // Duplicate x values.
        let mut t = Table::new("bad", &["x", "y"]);
        t.push_row(&[1.0, 0.0]);
        t.push_row(&[1.0, 1.0]);
        assert!(Surface::from_table(&t, false).is_none());
        // Incomplete 2-D grid: 3 rows can't tile a 2x2 grid.
        let mut t = Table::new("bad", &["x", "y", "v"]);
        t.push_row(&[0.0, 0.0, 1.0]);
        t.push_row(&[0.0, 1.0, 2.0]);
        t.push_row(&[1.0, 0.0, 3.0]);
        assert!(Surface::from_table(&t, true).is_none());
        // Duplicate 2-D cell.
        let mut t = Table::new("bad", &["x", "y", "v"]);
        t.push_row(&[0.0, 0.0, 1.0]);
        t.push_row(&[0.0, 1.0, 2.0]);
        t.push_row(&[1.0, 0.0, 3.0]);
        t.push_row(&[0.0, 0.0, 4.0]);
        assert!(Surface::from_table(&t, true).is_none());
        // Too few columns for the dimensionality.
        assert!(Surface::from_table(&Table::new("empty", &["x"]), false).is_none());
        assert!(
            Surface::from_table(&table_1d(), true).is_none() || table_1d().columns().len() >= 3
        );
    }

    // -- engine (inline mode) ---------------------------------------------

    /// A cheap scenario that counts its executions: `f(x) = 3x` over a
    /// small linspace axis.
    struct Counting {
        spec: ScenarioSpec,
        executions: Arc<AtomicUsize>,
    }

    impl Scenario for Counting {
        fn spec(&self) -> &ScenarioSpec {
            &self.spec
        }
        fn run(&self, ctx: &RunContext) -> Vec<Table> {
            self.executions.fetch_add(1, Ordering::SeqCst);
            let mut t = Table::new("triple", &["x", "y"]);
            for x in ctx.spec.values("x") {
                t.push_row(&[x, 3.0 * x]);
            }
            vec![t]
        }
        fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario> {
            Box::new(Counting {
                spec,
                executions: Arc::clone(&self.executions),
            })
        }
    }

    fn inline_engine() -> (Engine, Arc<AtomicUsize>) {
        let executions = Arc::new(AtomicUsize::new(0));
        let spec = ScenarioSpec::paper_link("t90-triple", "serve unit-test scenario").with_axis(
            "x",
            AxisKind::Linspace {
                start: 0.0,
                stop: 4.0,
                points: 5,
            },
        );
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::clone(&executions),
        }));
        let config = EngineConfig {
            executors: 0, // inline: the caller runs its own job
            job_threads: 1,
            queue_capacity: 4,
            memory_capacity: 4,
        };
        (Engine::new(Arc::new(registry), None, config), executions)
    }

    #[test]
    fn engine_run_resolves_once_and_serves_repeats_from_memory() {
        let (engine, executions) = inline_engine();
        let mut out = String::new();
        let req = r#"{"id":1,"op":"run","scenario":"t90-triple"}"#;
        assert!(engine.handle_line(req, &mut out));
        let first = out.clone();
        assert!(first.ends_with('\n'));
        assert!(first.contains("\"ok\":true"));
        assert!(first.contains("\"op\":\"run\""));
        assert!(first.contains("\"tables\":[{\"title\":\"triple\""));
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        out.clear();
        assert!(engine.handle_line(req, &mut out));
        assert_eq!(out, first, "repeat responses must be byte-identical");
        assert_eq!(
            executions.load(Ordering::SeqCst),
            1,
            "repeat must not re-run"
        );
        let stats = engine.stats();
        assert_eq!(stats.sim_runs, 1);
        assert_eq!(stats.memory_hits, 1);
    }

    #[test]
    fn engine_reseed_and_minimize_produce_distinct_runs() {
        let (engine, executions) = inline_engine();
        let mut out = String::new();
        engine.handle_line(r#"{"id":1,"op":"run","scenario":"t90-triple"}"#, &mut out);
        engine.handle_line(
            r#"{"id":2,"op":"run","scenario":"t90-triple","seed":7}"#,
            &mut out,
        );
        engine.handle_line(
            r#"{"id":3,"op":"run","scenario":"t90-triple","points":2}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 3);
        // An explicit seed equal to the default spec's seed is the same
        // spec — second-chance lookup indexes it without re-running.
        out.clear();
        engine.handle_line(
            r#"{"id":4,"op":"run","scenario":"t90-triple","seed":0}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 3);
        assert!(out.contains("\"ok\":true"));
    }

    #[test]
    fn engine_query_interpolates_with_provenance() {
        let (engine, _) = inline_engine();
        let mut out = String::new();
        let req = r#"{"id":5,"op":"query","scenario":"t90-triple","x":1.5}"#;
        assert!(engine.handle_line(req, &mut out));
        // Axis is linspace 0..4 over 5 points: grid step 1, so x=1.5
        // brackets [1, 2] and y = 3x interpolates exactly.
        assert!(out.contains("\"op\":\"query\""), "{out}");
        assert!(out.contains("\"columns\":[\"y\"]"), "{out}");
        assert!(out.contains("\"values\":[4.5]"), "{out}");
        assert!(out.contains("\"provenance\":{\"spec_hash\":\""), "{out}");
        assert!(out.contains("\"x0\":1,\"x1\":2}"), "{out}");
        // Query never registered a second run or table.
        assert_eq!(engine.stats().sim_runs, 1);
        out.clear();
        assert!(engine.handle_line(
            r#"{"id":6,"op":"query","scenario":"t90-triple","x":99}"#,
            &mut out
        ));
        assert!(out.contains("\"error\":\"out_of_range\""), "{out}");
        out.clear();
        engine.handle_line(
            r#"{"id":7,"op":"query","scenario":"t90-triple","x":1,"table":9}"#,
            &mut out,
        );
        assert!(out.contains("\"error\":\"no_surface\""), "{out}");
    }

    #[test]
    fn engine_rejects_unknown_scenarios_and_bad_requests() {
        let (engine, _) = inline_engine();
        let mut out = String::new();
        engine.handle_line(r#"{"id":1,"op":"run","scenario":"no-such"}"#, &mut out);
        assert_eq!(
            out,
            "{\"id\":1,\"ok\":false,\"error\":\"unknown_scenario\"}\n"
        );
        out.clear();
        engine.handle_line(r#"{"id":2,"op":"warp"}"#, &mut out);
        assert_eq!(out, "{\"id\":2,\"ok\":false,\"error\":\"bad_request\"}\n");
        out.clear();
        engine.handle_line(r#"{"id":3}"#, &mut out);
        assert!(out.contains("bad_request"));
        out.clear();
        engine.handle_line(
            r#"{"id":4,"op":"run","scenario":"t90-triple","seed":"x"}"#,
            &mut out,
        );
        assert!(out.contains("bad_request"));
        out.clear();
        engine.handle_line(r#"{"id":5,"op":"query","scenario":"t90-triple"}"#, &mut out);
        assert!(out.contains("bad_request"), "query without x: {out}");
        out.clear();
        engine.handle_line(r#"{"id":6,"op":"prune"}"#, &mut out);
        assert_eq!(out, "{\"id\":6,\"ok\":false,\"error\":\"no_cache\"}\n");
    }

    #[test]
    fn engine_status_and_shutdown_round_trip() {
        let (engine, _) = inline_engine();
        let mut out = String::new();
        engine.handle_line(r#"{"id":1,"op":"run","scenario":"t90-triple"}"#, &mut out);
        out.clear();
        assert!(engine.handle_line(r#"{"id":2,"op":"status"}"#, &mut out));
        let dom = crate::json::parse_json(out.trim()).unwrap();
        assert_eq!(dom.get("ok"), Some(&crate::json::Json::Bool(true)));
        assert_eq!(dom.get("scenarios").and_then(|v| v.as_num()), Some(1.0));
        assert_eq!(dom.get("sim_runs").and_then(|v| v.as_num()), Some(1.0));
        assert!(dom
            .get("cache_hit_ratio")
            .and_then(|v| v.as_num())
            .is_some());
        assert!(dom.get("job_p50_us").and_then(|v| v.as_num()).is_some());
        out.clear();
        assert!(!engine.handle_line(r#"{"id":3,"op":"shutdown"}"#, &mut out));
        assert_eq!(out, "{\"id\":3,\"ok\":true,\"op\":\"shutdown\"}\n");
    }

    #[test]
    fn engine_answers_lines_that_are_not_one_flat_object_with_bad_request() {
        // Each of these once ran a scenario, took one of two duplicate
        // `op`s, or stopped the daemon from a nested or non-JSON `op`.
        let (engine, executions) = inline_engine();
        for line in [
            r#"{"id":1,"note":{"op":"shutdown"}}"#,
            r#"not json "op":"shutdown""#,
            r#"{"id":7,"op":"run","meta":{"scenario":"t90-triple"}}"#,
            r#"{"id":4,"op":"run","op":"shutdown"}"#,
            r#"{"id":2,"op":"status""#,
            r#"{"id":3,"op":"status"} trailing"#,
            r#"[{"id":9,"op":"status"}]"#,
            r#"{"id":5,"op":"run","scenario":"t90-triple","seed":+5}"#,
        ] {
            let mut out = String::new();
            assert!(
                engine.handle_line(line, &mut out),
                "{line} stopped the engine"
            );
            assert_eq!(
                out, "{\"id\":0,\"ok\":false,\"error\":\"bad_request\"}\n",
                "{line}"
            );
        }
        assert_eq!(executions.load(Ordering::SeqCst), 0);
        assert_eq!(engine.stats().runs, 0);
    }

    #[test]
    fn stats_snapshot_hit_ratio() {
        let s = StatsSnapshot {
            memory_hits: 6,
            disk_hits: 2,
            sim_runs: 2,
            ..Default::default()
        };
        assert!((s.cache_hit_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().cache_hit_ratio(), 0.0);
    }

    // -- sockets ----------------------------------------------------------

    #[test]
    fn server_round_trips_over_tcp_and_shuts_down_cleanly() {
        let executions = Arc::new(AtomicUsize::new(0));
        let spec = ScenarioSpec::paper_link("t91-srv", "serve socket test")
            .with_axis("x", AxisKind::Values(vec![0.0, 1.0, 2.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::clone(&executions),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 1,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 4,
            })
            .start()
            .unwrap();
        let addr = server.tcp_addr().unwrap();
        let mut client = Client::connect_tcp(addr).unwrap();
        let run = client
            .roundtrip(r#"{"id":1,"op":"run","scenario":"t91-srv"}"#)
            .unwrap();
        assert!(run.contains("\"ok\":true"), "{run}");
        let query = client
            .roundtrip(r#"{"id":2,"op":"query","scenario":"t91-srv","x":0.5}"#)
            .unwrap();
        assert!(query.contains("\"values\":[1.5]"), "{query}");
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        // A second client sees the same memoized state.
        let mut second = Client::connect_tcp(addr).unwrap();
        let again = second
            .roundtrip(r#"{"id":3,"op":"run","scenario":"t91-srv"}"#)
            .unwrap();
        assert!(again.contains("\"ok\":true"));
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        let bye = client.roundtrip(r#"{"id":4,"op":"shutdown"}"#).unwrap();
        assert!(bye.contains("\"op\":\"shutdown\""));
        server.join(); // must not hang: second client's read EOFs
    }

    #[test]
    fn finished_connection_handlers_are_reaped_at_the_next_accept() {
        let spec = ScenarioSpec::paper_link("t94-reap", "handler reap test")
            .with_axis("x", AxisKind::Values(vec![0.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::new(AtomicUsize::new(0)),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 1,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 4,
            })
            .start()
            .unwrap();
        let addr = server.tcp_addr().unwrap();
        let handlers = &server.shared.handlers;
        // Polls (bounded, never a fixed sleep) until connection `id`'s
        // handler is registered and `done` holds for it.
        let wait_for = |id: u64, done: bool| {
            let name = format!("mmtag-serve-conn-{id}");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let ready = handlers.lock().unwrap().iter().any(|h| {
                    h.thread().name() == Some(name.as_str()) && (!done || h.is_finished())
                });
                if ready {
                    return;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "handler {id} not {}",
                    if done { "finished" } else { "registered" }
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        for id in 0..6 {
            let mut client = Client::connect_tcp(addr).unwrap();
            let status = client.roundtrip(r#"{"id":1,"op":"status"}"#).unwrap();
            assert!(status.contains("\"ok\":true"), "{status}");
            wait_for(id, false);
            // This accept joined every earlier, finished handler.
            assert_eq!(handlers.lock().unwrap().len(), 1, "after accept {id}");
            drop(client);
            wait_for(id, true);
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn corrupt_disk_entry_is_counted_as_a_simulation() {
        // A truncated or corrupt entry fails to load, so the runner
        // simulates: the daemon must count a sim run, not a disk hit.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "mmtag-serve-corrupt-{}-{nanos}",
            std::process::id()
        ));
        let cache = RunCache::at(&dir);
        let spec = ScenarioSpec::paper_link("t92-corrupt", "corrupt cache entry test")
            .with_axis("x", AxisKind::Values(vec![0.0, 1.0]));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.entry_path(&spec), "not a run entry\n").unwrap();
        let executions = Arc::new(AtomicUsize::new(0));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec: spec.clone(),
            executions: Arc::clone(&executions),
        }));
        let config = EngineConfig {
            executors: 0,
            job_threads: 1,
            queue_capacity: 4,
            memory_capacity: 4,
        };
        let engine = Engine::new(Arc::new(registry), Some(cache.clone()), config);
        let mut out = String::new();
        assert!(engine.handle_line(r#"{"id":1,"op":"run","scenario":"t92-corrupt"}"#, &mut out));
        assert!(out.contains("\"ok\":true"), "{out}");
        assert_eq!(
            executions.load(Ordering::SeqCst),
            1,
            "corrupt entry must be simulated"
        );
        let stats = engine.stats();
        assert_eq!((stats.disk_hits, stats.sim_runs), (0, 1));
        // The run rewrote the very entry the test corrupted.
        assert!(cache.load(&spec).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_long_request_line_is_refused_and_the_connection_closed() {
        // 1 MiB without a newline: the daemon must answer line_too_long
        // after at most MAX_REQUEST_BYTES + 1 bytes instead of buffering
        // the line until the peer stops. The read timeout turns a daemon
        // that keeps reading into a failure instead of a hang.
        let spec = ScenarioSpec::paper_link("t93-long", "long line test")
            .with_axis("x", AxisKind::Values(vec![0.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::new(AtomicUsize::new(0)),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 1,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 4,
            })
            .start()
            .unwrap();
        let addr = server.tcp_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            // The daemon hangs up part-way, so this write fails; ignore it.
            let _ = writer.write_all(&vec![b'a'; 1 << 20]);
        });
        let mut response = String::new();
        BufReader::new(&stream).read_line(&mut response).unwrap();
        assert_eq!(
            response,
            "{\"id\":0,\"ok\":false,\"error\":\"line_too_long\"}\n"
        );
        flood.join().unwrap();
        // The daemon still serves other connections.
        let mut client = Client::connect_tcp(addr).unwrap();
        let status = client.roundtrip(r#"{"id":2,"op":"status"}"#).unwrap();
        assert!(status.contains("\"ok\":true"), "{status}");
        let bye = client.roundtrip(r#"{"id":3,"op":"shutdown"}"#).unwrap();
        assert!(bye.contains("\"op\":\"shutdown\""));
        server.join();
    }

    #[test]
    fn nested_shutdown_op_does_not_stop_the_daemon() {
        let spec = ScenarioSpec::paper_link("t95-nested", "nested shutdown test")
            .with_axis("x", AxisKind::Values(vec![0.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::new(AtomicUsize::new(0)),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 1,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 4,
            })
            .start()
            .unwrap();
        let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        let reply = client
            .roundtrip(r#"{"id":1,"note":{"op":"shutdown"}}"#)
            .unwrap();
        assert_eq!(reply, "{\"id\":0,\"ok\":false,\"error\":\"bad_request\"}");
        // The same connection is still served.
        let status = client.roundtrip(r#"{"id":2,"op":"status"}"#).unwrap();
        assert!(status.contains("\"ok\":true"), "{status}");
        let bye = client.roundtrip(r#"{"id":3,"op":"shutdown"}"#).unwrap();
        assert!(bye.contains("\"op\":\"shutdown\""));
        server.join();
    }

    // -- admission queue under contention (fairness) -----------------------

    #[test]
    fn queue_is_fifo_per_submitter_among_equal_priorities_under_contention() {
        // 4 threads concurrently submit their own ordered sequences at
        // one priority. Global order is racy, but each submitter's items
        // must pop in that submitter's order: FIFO-by-seq may never
        // reorder two jobs one thread submitted back to back.
        const THREADS: usize = 4;
        const PER: usize = 64;
        let q = AdmissionQueue::new(THREADS * PER);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (q, barrier) = (&q, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER {
                        q.submit((t, i), 0).unwrap();
                    }
                });
            }
        });
        q.close();
        let mut next = [0usize; THREADS];
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            assert_eq!(
                i, next[t],
                "submitter {t}'s items popped out of submission order"
            );
            next[t] += 1;
            popped += 1;
        }
        assert_eq!(popped, THREADS * PER);
    }

    #[test]
    fn full_queue_rejects_exactly_the_overflow_under_contention() {
        // Capacity C, T*PER concurrent submits, no poppers: exactly
        // C submits land and exactly T*PER - C come back as Full — no
        // double-counting, no lost jobs, depth pinned at capacity.
        const CAP: usize = 8;
        const THREADS: usize = 4;
        const PER: usize = 8;
        let q = AdmissionQueue::new(CAP);
        let rejected = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (q, rejected, barrier) = (&q, &rejected, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER {
                        match q.submit((t, i), 0) {
                            Ok(()) => {}
                            Err(SubmitError::Full((rt, ri))) => {
                                // The rejected job rides back intact.
                                assert_eq!((rt, ri), (t, i));
                                rejected.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(SubmitError::Closed(_)) => unreachable!("queue never closed"),
                        }
                    }
                });
            }
        });
        assert_eq!(rejected.load(Ordering::SeqCst), THREADS * PER - CAP);
        assert_eq!(q.depth(), CAP);
        // The admitted jobs all drain.
        q.close();
        let mut drained = 0;
        while q.pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, CAP);
    }

    // -- sweep (inline engine) ---------------------------------------------

    #[test]
    fn sweep_streams_point_lines_in_order_plus_a_deterministic_summary() {
        let (engine, executions) = inline_engine();
        let mut out = String::new();
        let req = r#"{"id":9,"op":"sweep","scenario":"t90-triple","seeds":4,"seed":10}"#;
        assert!(engine.handle_line(req, &mut out));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "4 points + summary: {out}");
        for (p, line) in lines[..4].iter().enumerate() {
            assert!(line.contains("\"op\":\"sweep_point\""), "{line}");
            assert!(line.contains(&format!("\"point\":{p},")), "{line}");
            assert!(line.contains(&format!("\"seed\":{}", 10 + p)), "{line}");
            assert!(line.contains("\"tables\":[{\"title\":\"triple\""), "{line}");
        }
        assert_eq!(
            lines[4],
            "{\"id\":9,\"ok\":true,\"op\":\"sweep\",\"scenario\":\"t90-triple\",\"points\":4,\"failed\":0}"
        );
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        let stats = engine.stats();
        assert_eq!((stats.sweeps, stats.sweep_points), (1, 4));
        assert_eq!(stats.sim_runs, 4);
        // A cache-hot replay is byte-identical and runs nothing.
        let mut again = String::new();
        assert!(engine.handle_line(req, &mut again));
        assert_eq!(again, out);
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        assert_eq!(engine.stats().memory_hits, 4);
    }

    #[test]
    fn sweep_shares_points_with_run_requests_and_overlapping_sweeps() {
        let (engine, executions) = inline_engine();
        let mut out = String::new();
        // A point run seeds the store...
        engine.handle_line(
            r#"{"id":1,"op":"run","scenario":"t90-triple","seed":12}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        // ...and the sweep covering seeds 10..14 only simulates the
        // other three points.
        out.clear();
        engine.handle_line(
            r#"{"id":2,"op":"sweep","scenario":"t90-triple","seeds":4,"seed":10}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        // An overlapping sweep (seeds 12..16) re-simulates only 14, 15.
        out.clear();
        engine.handle_line(
            r#"{"id":3,"op":"sweep","scenario":"t90-triple","seeds":4,"seed":12}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 6);
        assert!(out.contains("\"points\":4,\"failed\":0"), "{out}");
    }

    #[test]
    fn sweep_rejects_bad_grids_with_one_error_line() {
        let (engine, _) = inline_engine();
        for req in [
            r#"{"id":1,"op":"sweep","scenario":"t90-triple"}"#, // no seeds
            r#"{"id":1,"op":"sweep","scenario":"t90-triple","seeds":0}"#,
            r#"{"id":1,"op":"sweep","scenario":"t90-triple","seeds":5000}"#, // > cap
            r#"{"id":1,"op":"sweep","seeds":4}"#,                            // no scenario
        ] {
            let mut out = String::new();
            assert!(engine.handle_line(req, &mut out));
            assert_eq!(
                out, "{\"id\":1,\"ok\":false,\"error\":\"bad_request\"}\n",
                "{req}"
            );
        }
        let mut out = String::new();
        engine.handle_line(
            r#"{"id":2,"op":"sweep","scenario":"no-such","seeds":4}"#,
            &mut out,
        );
        assert_eq!(
            out,
            "{\"id\":2,\"ok\":false,\"error\":\"unknown_scenario\"}\n"
        );
    }

    #[test]
    fn sweep_streaming_emit_sees_every_point_line_and_can_abort() {
        let (engine, _) = inline_engine();
        // Streaming sink: collect each flushed chunk like a transport.
        let mut chunks: Vec<String> = Vec::new();
        let mut out = String::new();
        let req = r#"{"id":4,"op":"sweep","scenario":"t90-triple","seeds":3}"#;
        engine.handle_line_streaming(req, &mut out, &mut |buf| {
            chunks.push(std::mem::take(buf));
            true
        });
        assert_eq!(chunks.len(), 3, "one flush per point line");
        assert!(chunks.iter().all(|c| c.contains("\"op\":\"sweep_point\"")));
        assert!(
            out.contains("\"op\":\"sweep\""),
            "summary stays for the caller: {out}"
        );
        // An aborting sink stops the stream; nothing more lands in out.
        let mut seen = 0;
        out.clear();
        engine.handle_line_streaming(req, &mut out, &mut |buf| {
            seen += 1;
            buf.clear();
            false
        });
        assert_eq!(seen, 1);
        assert!(out.is_empty(), "{out}");
    }

    #[test]
    fn sweep_round_trips_over_tcp_with_client_streaming() {
        let executions = Arc::new(AtomicUsize::new(0));
        let spec = ScenarioSpec::paper_link("t92-sweep", "serve sweep socket test")
            .with_axis("x", AxisKind::Values(vec![0.0, 1.0, 2.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::clone(&executions),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 2,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 16,
            })
            .start()
            .unwrap();
        let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        let req = r#"{"id":1,"op":"sweep","scenario":"t92-sweep","seeds":6,"seed":3}"#;
        let mut stream = String::new();
        let points = client.sweep_into(req, &mut stream).unwrap();
        assert_eq!(points, 6);
        assert_eq!(stream.lines().count(), 7, "{stream}");
        assert!(stream.ends_with("\"points\":6,\"failed\":0}"), "{stream}");
        assert_eq!(executions.load(Ordering::SeqCst), 6);
        // Cache-hot replay: byte-identical stream, no new executions.
        let mut hot = String::new();
        assert_eq!(client.sweep_into(req, &mut hot).unwrap(), 6);
        assert_eq!(hot, stream);
        assert_eq!(executions.load(Ordering::SeqCst), 6);
        // Interleaved point ops still work on the same connection.
        let run = client
            .roundtrip(r#"{"id":2,"op":"run","scenario":"t92-sweep","seed":4}"#)
            .unwrap();
        assert!(run.contains("\"ok\":true"), "{run}");
        assert_eq!(
            executions.load(Ordering::SeqCst),
            6,
            "seed 4 was swept already"
        );
        client.roundtrip(r#"{"id":3,"op":"shutdown"}"#).unwrap();
        server.join();
    }
}
