//! The engine: one request line in, its response lines out. It owns the
//! FIFO admission queue, the run map (every run in flight or landed,
//! under one lock) and the executors' job bodies; it never touches a
//! socket.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use super::protocol::{num, text, write_err, Surface, MAX_SWEEP_SEEDS};
use crate::cache::RunCache;
use crate::experiment::Table;
use crate::json::{parse_flat, write_list, write_num, write_str, Flat};
use crate::obs;
use crate::scenario::{Registry, RunRecord, Runner, Scenario, ScenarioSpec};

/// A bounded MPMC FIFO with backpressure: [`submit`] never blocks and
/// never buffers past `capacity` — at capacity it hands the job back as
/// [`SubmitError::Full`], which the protocol surfaces as
/// `"error":"queue_full"`. Jobs pop in submission order. After
/// [`close`], remaining jobs still drain, then [`pop`] returns `None`
/// forever.
///
/// [`submit`]: AdmissionQueue::submit
/// [`close`]: AdmissionQueue::close
/// [`pop`]: AdmissionQueue::pop
pub(super) struct AdmissionQueue<T> {
    inner: Mutex<QueueInner<T>>,
    cv: Condvar,
    capacity: usize,
}

struct QueueInner<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// Why [`AdmissionQueue::submit`] refused a job; the job rides back to
/// the caller so it can fail its waiters.
#[derive(Debug)]
pub(super) enum SubmitError<T> {
    /// The queue is at capacity — backpressure, not buffering.
    Full(T),
    /// The queue has been closed (daemon shutting down).
    Closed(T),
}

impl<T> AdmissionQueue<T> {
    /// An empty queue admitting at most `capacity` pending jobs.
    pub(super) fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner<T>> {
        self.inner
            .lock()
            .expect("the queue lock is never held across a panic")
    }

    /// Admits `job` behind every job already waiting, or returns it
    /// immediately if the queue is full or closed.
    pub(super) fn submit(&self, job: T) -> Result<(), SubmitError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(SubmitError::Closed(job));
        }
        if inner.jobs.len() >= self.capacity {
            return Err(SubmitError::Full(job));
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the oldest job. Returns `None` once the queue is
    /// closed *and* drained.
    pub(super) fn pop(&self) -> Option<T> {
        let inner = self
            .cv
            .wait_while(self.lock(), |q| q.jobs.is_empty() && !q.closed);
        inner
            .expect("the queue lock is never held across a panic")
            .jobs
            .pop_front()
    }

    /// Closes the queue: further submits fail, poppers drain what is
    /// left and then unblock with `None`.
    pub(super) fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Jobs currently waiting for an executor.
    pub(super) fn depth(&self) -> usize {
        self.lock().jobs.len()
    }
}

/// One completed run, pinned in memory: its tables, a prebuilt JSON
/// fragment (so cache-hit responses copy bytes instead of re-encoding),
/// and lazily-built interpolation surfaces.
pub(super) struct StoredRun {
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
pub(super) struct ReqKey {
    scenario: u32,
    seed: Option<u64>,
    trials: Option<u64>,
    points: Option<u64>,
}

/// A run's single-flight slot: set once, under the run map's lock, by
/// the job that runs it (or by its refused admission), and waited on by
/// every request that needs the run ([`Engine::wait`]). A stored run is
/// a flight that has landed `Ok`.
type Flight = OnceLock<Result<Arc<StoredRun>, &'static str>>;

/// Every run the engine knows, under one lock. A spec hash is absent
/// (the next request for it leads a new flight), flying (requests join
/// it) or landed (requests hit it), and a request checks and claims it
/// in one critical section, so single-flight is exact. At most
/// `capacity` landed runs stay, evicted in landing order; the
/// request-tuple index names landed runs only.
pub(super) struct RunMap {
    pub(super) flights: HashMap<u64, Arc<Flight>>,
    landed: VecDeque<u64>,
    pub(super) params: HashMap<ReqKey, u64>,
    pub(super) capacity: usize,
}

impl RunMap {
    /// Lands `job`'s flight. A run that landed `Ok` stays (evicting the
    /// oldest past capacity); a failed one leaves, so a retry gets a
    /// fresh leader.
    fn land(&mut self, job: &Job, result: Result<Arc<StoredRun>, &'static str>) {
        if result.is_ok() {
            self.landed.push_back(job.key);
            self.params.insert(job.params, job.key);
            while self.landed.len() > self.capacity {
                let evict = self.landed.pop_front().expect("over capacity");
                self.flights.remove(&evict);
                // Every request tuple that named the evicted run goes with it,
                // so the index is bounded by the runs the map keeps.
                self.params.retain(|_, k| *k != evict);
            }
        } else {
            self.flights.remove(&job.key);
        }
        // Only the job's own leader lands a flight, and only once.
        let _ = job.flight.set(result);
    }
}

/// Sizing knobs for an [`Engine`] / [`super::Server`].
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

/// The protocol brain: resolves one request line to its response lines.
/// Transport-agnostic — [`super::Server`] feeds it from sockets, tests
/// and allocation guards call [`Engine::handle_line`] directly.
pub struct Engine {
    registry: Arc<Registry>,
    cache: Option<RunCache>,
    config: EngineConfig,
    queue: AdmissionQueue<Vec<Job>>,
    pub(super) runs: Mutex<RunMap>,
    /// Paired with `runs`: notified whenever flights land.
    landing: Condvar,
    stats: Stats,
    /// Executor time per admitted queue item, µs.
    job_us: Mutex<obs::HistogramStat>,
}

impl Engine {
    /// An engine resolving requests against `registry`, optionally
    /// memoizing through `cache`.
    pub fn new(registry: Arc<Registry>, cache: Option<RunCache>, config: EngineConfig) -> Engine {
        Engine {
            registry,
            cache,
            queue: AdmissionQueue::new(config.queue_capacity),
            runs: Mutex::new(RunMap {
                flights: HashMap::new(),
                landed: VecDeque::new(),
                params: HashMap::new(),
                capacity: config.memory_capacity.max(1),
            }),
            landing: Condvar::new(),
            stats: Stats::default(),
            job_us: Mutex::new(obs::HistogramStat::new("serve.job_us")),
            config,
        }
    }

    fn runs(&self) -> std::sync::MutexGuard<'_, RunMap> {
        self.runs
            .lock()
            .expect("the run map is never held across a panic")
    }

    /// Blocks until `flight` has landed and returns its result.
    fn wait(&self, flight: &Flight) -> Result<Arc<StoredRun>, &'static str> {
        if flight.get().is_none() {
            let runs = self.runs();
            let landed = self.landing.wait_while(runs, |_| flight.get().is_none());
            drop(landed.expect("the run map is never held across a panic"));
        }
        flight.get().expect("the flight has landed").clone()
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
    /// `scenario`, `seed`, `trials` and `points`. A malformed field is
    /// `bad_request`; the scenario name is looked up last, so
    /// `unknown_scenario` means every field parsed.
    fn job_fields(&self, req: &Flat) -> Result<JobFields<'_>, &'static str> {
        let name = text(req, "scenario")?.ok_or("bad_request")?;
        let (seed, trials, points) = (num(req, "seed")?, num(req, "trials")?, num(req, "points")?);
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
        })
    }

    /// Resolves a `run` or `query` request's one point, simulating it if
    /// no store holds it.
    fn resolve(&self, job: &JobFields) -> Result<Arc<StoredRun>, &'static str> {
        let mut leaders = Vec::new();
        let flight = self.resolve_point(job.params, job.base, || job.spec(), &mut leaders);
        self.admit(leaders);
        self.wait(&flight)
    }

    /// Cache-first resolution of one point: the run map's request index,
    /// then its spec index (the executor's [`Runner`] then consults the
    /// on-disk cache before simulating). `spec` is built only past the
    /// request index, so a repeat request builds, hashes and clones
    /// nothing. A landed run is a memory hit and a flying one is joined;
    /// an absent one gets a new flight, whose job goes onto `leaders`
    /// for the caller to [`admit`](Engine::admit).
    fn resolve_point(
        &self,
        params: ReqKey,
        base: &dyn Scenario,
        spec: impl FnOnce() -> ScenarioSpec,
        leaders: &mut Vec<Job>,
    ) -> Arc<Flight> {
        let hit = {
            let runs = self.runs();
            let key = runs.params.get(&params);
            key.and_then(|key| runs.flights.get(key)).map(Arc::clone)
        };
        if let Some(run) = hit {
            self.stats.memory_hits.fetch_add(1, Ordering::Relaxed);
            return run;
        }
        let spec = spec();
        let key = spec.hash();
        let mut runs = self.runs();
        if let Some(flight) = runs.flights.get(&key).map(Arc::clone) {
            if flight.get().is_some() {
                // A different request tuple already produced this exact
                // spec (e.g. explicit seed equal to the default).
                runs.params.insert(params, key);
                self.stats.memory_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats.dedup_joined.fetch_add(1, Ordering::Relaxed);
            }
            return flight;
        }
        let flight = Arc::new(Flight::new());
        runs.flights.insert(key, Arc::clone(&flight));
        drop(runs);
        leaders.push(Job {
            key,
            params,
            scenario: base.with_spec(spec),
            flight: Arc::clone(&flight),
        });
        flight
    }

    /// Admits one request's uncached jobs: runs them on the calling
    /// thread in inline mode, else submits them as ONE queue item. A
    /// refused item lands every flight it carried as failed
    /// (`queue_full` or `shutting_down`), so a retry gets a fresh leader.
    fn admit(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        if self.config.executors == 0 {
            return self.execute(jobs);
        }
        let (jobs, code) = match self.queue.submit(jobs) {
            Ok(()) => return,
            Err(SubmitError::Full(jobs)) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                (jobs, "queue_full")
            }
            Err(SubmitError::Closed(jobs)) => (jobs, "shutting_down"),
        };
        let mut runs = self.runs();
        for job in &jobs {
            runs.land(job, Err(code));
        }
        drop(runs);
        self.landing.notify_all();
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
    /// the same run map `run` uses, so overlapping sweeps (and point
    /// `run`s racing a sweep) share work.
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
        let flights: Vec<Arc<Flight>> = (0..seeds)
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
        self.admit(leaders);
        // Stream one line per point as its flight lands. Point order,
        // not completion order: a point's line is emitted the moment its
        // own flight lands, so early points flow while late ones still
        // compute.
        let mut failed = 0u64;
        for (p, flight) in flights.iter().enumerate() {
            match self.wait(flight) {
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
        let (job_p50_us, job_p99_us) = {
            let hist = self
                .job_us
                .lock()
                .expect("job_us is never held across a panic");
            (hist.p50(), hist.p99())
        };
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
            job_p50_us,
            job_p99_us,
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
    /// of nested dispatch. Every job lands its own flight the moment it
    /// finishes, so a sweep's handler streams early points while late
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
        let us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.job_us
            .lock()
            .expect("job_us is never held across a panic")
            .record(us);
    }

    /// Runs one point with a `threads`-wide [`Runner`] and lands its
    /// flight.
    fn execute_point(&self, job: &Job, threads: usize) {
        // Classify from the runner's own lookup outcome, not a pre-check:
        // a corrupt or truncated entry fails to load and is simulated, and
        // the evictor may remove an entry between a check and the run.
        let mut runner = Runner::with_threads(threads);
        if let Some(cache) = &self.cache {
            runner = runner.with_cache(cache.clone());
        }
        let result = catch_unwind(AssertUnwindSafe(|| runner.run(&*job.scenario)))
            .map(|record| {
                let resolution = if record.from_cache {
                    &self.stats.disk_hits
                } else {
                    &self.stats.sim_runs
                };
                resolution.fetch_add(1, Ordering::Relaxed);
                Arc::new(StoredRun::new(record))
            })
            .map_err(|_| "run_failed");
        self.runs().land(job, result);
        self.landing.notify_all();
    }
}
