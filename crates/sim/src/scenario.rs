//! The typed scenario pipeline: `ScenarioSpec` → [`Runner`] → [`RunRecord`].
//!
//! Every experiment in this repository — the paper's own figures, the
//! extension studies, the CLI sweeps — is the same shape: build a scene, a
//! reader and a tag from a handful of typed parameters, walk one or more
//! sweep axes, repeat stochastic parts for a trial count under a root
//! seed, and emit tables. Before this module each call site re-assembled
//! that plumbing by hand; now the parameters live in a serializable
//! [`ScenarioSpec`], a [`Runner`] executes specs through the deterministic
//! parallel engine ([`crate::par`] + [`crate::rng::SeedTree`]), and the
//! result comes back as a [`RunRecord`]: the tables plus a [`Manifest`]
//! recording seed, thread count, wall time, a hash of the spec that
//! produced them and the run's observability metrics. Those metrics are
//! the calling thread's own (see [`Runner::run`]): concurrent runs on
//! other threads never leak into them, and a run the caller did not ask
//! to trace leaves no events behind.
//!
//! The [`Registry`] maps scenario names to runnable instances so campaign
//! tooling (the CLI `scenarios` and `run` commands, the benchmark, the
//! smoke tests) can enumerate and execute every experiment uniformly.
//! Specs are plain data: this crate sits *below* the device models, so the
//! reader/tag/scene fields are declarative configs ([`ReaderSpec`],
//! [`TagSpec`], [`SceneSpec`]) that the `mmtag` core crate interprets into
//! live objects (`mmtag::scenario`).
//!
//! Everything here is `std`-only, including the JSON writer.

use crate::experiment::{linspace, logspace, Table};
use crate::json;
use crate::obs;
use crate::rng::SeedTree;
use std::fmt::Write as _;

/// A wall or blocker segment, in meters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentSpec {
    /// Start x (m).
    pub x1: f64,
    /// Start y (m).
    pub y1: f64,
    /// End x (m).
    pub x2: f64,
    /// End y (m).
    pub y2: f64,
}

/// The kind of environment a scenario runs in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SceneKind {
    /// Open space: LOS only, nothing to reflect from or collide with.
    FreeSpace,
    /// A rectangular room with four reflective walls.
    Room {
        /// Room width (m).
        width_m: f64,
        /// Room height (m).
        height_m: f64,
    },
}

/// Declarative scene description: environment plus optional blockers.
#[derive(Clone, Debug, PartialEq)]
pub struct SceneSpec {
    /// The environment.
    pub kind: SceneKind,
    /// LOS blockers (e.g. a person stepping into the path).
    pub blockers: Vec<SegmentSpec>,
}

impl SceneSpec {
    /// Free space, no obstacles — the paper's range-test environment.
    pub fn free_space() -> Self {
        SceneSpec {
            kind: SceneKind::FreeSpace,
            blockers: Vec::new(),
        }
    }

    /// A rectangular room.
    pub fn room(width_m: f64, height_m: f64) -> Self {
        SceneSpec {
            kind: SceneKind::Room { width_m, height_m },
            blockers: Vec::new(),
        }
    }

    /// Adds a blocker segment (builder style).
    pub fn with_blocker(mut self, x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        self.blockers.push(SegmentSpec { x1, y1, x2, y2 });
        self
    }

    /// The same scene with every blocker removed.
    pub fn without_blockers(&self) -> Self {
        SceneSpec {
            kind: self.kind,
            blockers: Vec::new(),
        }
    }
}

/// Declarative reader configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReaderSpec {
    /// Carrier band (GHz).
    pub band_ghz: f64,
    /// Active self-interference cancellation on top of the passive
    /// isolation (dB); 0 = the paper's passive-only lab setup.
    pub cancellation_db: f64,
}

impl ReaderSpec {
    /// The paper's testbed reader at 24 GHz, passive isolation only.
    pub fn mmtag_setup() -> Self {
        ReaderSpec {
            band_ghz: 24.0,
            cancellation_db: 0.0,
        }
    }

    /// The same reader retuned to another band.
    pub fn at_band(band_ghz: f64) -> Self {
        ReaderSpec {
            band_ghz,
            ..ReaderSpec::mmtag_setup()
        }
    }
}

/// The tag's reflector wiring (mirrors `mmtag_antenna::ReflectorWiring`
/// as plain data so specs stay below the antenna layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WiringSpec {
    /// mmTag's retrodirective Van Atta pairing.
    VanAtta,
    /// The fixed-beam tag of the paper's reference \[18\].
    FixedBeam,
    /// A plain specular mirror.
    Specular,
}

impl WiringSpec {
    /// Canonical name (used in hashing and the CLI `--wiring` flag).
    pub fn name(&self) -> &'static str {
        match self {
            WiringSpec::VanAtta => "vanatta",
            WiringSpec::FixedBeam => "fixed",
            WiringSpec::Specular => "mirror",
        }
    }

    /// Parses a CLI-style wiring name; unknown strings mean Van Atta.
    pub fn parse(s: &str) -> Self {
        match s {
            "fixed" => WiringSpec::FixedBeam,
            "mirror" => WiringSpec::Specular,
            _ => WiringSpec::VanAtta,
        }
    }
}

/// Declarative tag configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TagSpec {
    /// Number of antenna elements.
    pub elements: usize,
    /// Carrier band (GHz).
    pub band_ghz: f64,
    /// Reflector wiring.
    pub wiring: WiringSpec,
}

impl TagSpec {
    /// The paper's 6-element 24 GHz Van Atta prototype.
    pub fn prototype() -> Self {
        TagSpec {
            elements: 6,
            band_ghz: 24.0,
            wiring: WiringSpec::VanAtta,
        }
    }

    /// The prototype rewired.
    pub fn with_wiring(mut self, wiring: WiringSpec) -> Self {
        self.wiring = wiring;
        self
    }
}

/// How a sweep axis generates its values.
#[derive(Clone, Debug, PartialEq)]
pub enum AxisKind {
    /// Inclusive linear sweep (see [`linspace`]).
    Linspace {
        /// First value.
        start: f64,
        /// Last value.
        stop: f64,
        /// Sample count.
        points: usize,
    },
    /// Geometric sweep (see [`logspace`]).
    Logspace {
        /// First value (> 0).
        start: f64,
        /// Last value (> 0).
        stop: f64,
        /// Sample count.
        points: usize,
    },
    /// An explicit value list.
    Values(Vec<f64>),
}

/// One named sweep axis of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepAxis {
    /// Axis label — doubles as the table column name by convention.
    pub label: String,
    /// Value generator.
    pub kind: AxisKind,
}

impl SweepAxis {
    /// Materializes the axis values.
    pub fn values(&self) -> Vec<f64> {
        match &self.kind {
            AxisKind::Linspace {
                start,
                stop,
                points,
            } => linspace(*start, *stop, *points),
            AxisKind::Logspace {
                start,
                stop,
                points,
            } => logspace(*start, *stop, *points),
            AxisKind::Values(v) => v.clone(),
        }
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        match &self.kind {
            AxisKind::Linspace { points, .. } | AxisKind::Logspace { points, .. } => *points,
            AxisKind::Values(v) => v.len(),
        }
    }

    /// True for a degenerate (zero-point) axis.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The same axis clamped to at most `max` points (Linspace/Logspace
    /// shrink their sample count; Values truncate).
    pub fn clamped(&self, max: usize) -> SweepAxis {
        let kind = match &self.kind {
            AxisKind::Linspace {
                start,
                stop,
                points,
            } => AxisKind::Linspace {
                start: *start,
                stop: *stop,
                points: (*points).min(max),
            },
            AxisKind::Logspace {
                start,
                stop,
                points,
            } => AxisKind::Logspace {
                start: *start,
                stop: *stop,
                points: (*points).min(max),
            },
            AxisKind::Values(v) => AxisKind::Values(v.iter().take(max).copied().collect()),
        };
        SweepAxis {
            label: self.label.clone(),
            kind,
        }
    }
}

/// The complete, serializable description of one experiment.
///
/// A spec carries everything the [`Runner`] needs: the typed device and
/// scene configs, the sweep axes, the Monte-Carlo trial count and the root
/// seed. Two runs with equal specs (at any thread count) produce
/// bit-identical tables — that is the contract the deterministic parallel
/// engine provides and the [`Manifest::spec_hash`] records.
///
/// # Examples
///
/// Specs are assembled builder-style from the paper's defaults:
///
/// ```
/// use mmtag_sim::scenario::{AxisKind, ScenarioSpec};
///
/// let spec = ScenarioSpec::paper_link("e99-demo", "builder demo")
///     .with_axis(
///         "range_m",
///         AxisKind::Linspace { start: 1.0, stop: 8.0, points: 8 },
///     )
///     .with_trials(1_000)
///     .with_seed(42);
///
/// assert_eq!(spec.values("range_m").len(), 8);
/// assert_eq!(spec.seed, 42);
/// // Smoke runs shrink the same spec instead of forking a second config.
/// assert_eq!(spec.minimized(3, 200).trials, 200);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Registry name, kebab-case (e.g. `e02-link-budget`).
    pub name: String,
    /// Human-readable one-line description.
    pub title: String,
    /// Scene config.
    pub scene: SceneSpec,
    /// Reader config.
    pub reader: ReaderSpec,
    /// Tag config.
    pub tag: TagSpec,
    /// Sweep axes, in table order.
    pub axes: Vec<SweepAxis>,
    /// Monte-Carlo repetitions (bits, trials, …); 0 for closed-form
    /// scenarios.
    pub trials: usize,
    /// Root seed for the scenario's [`SeedTree`].
    pub seed: u64,
}

impl ScenarioSpec {
    /// A spec over the paper's default hardware (prototype tag, testbed
    /// reader, free space), no axes, no trials, seed 0.
    pub fn paper_link(name: &str, title: &str) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            title: title.to_string(),
            scene: SceneSpec::free_space(),
            reader: ReaderSpec::mmtag_setup(),
            tag: TagSpec::prototype(),
            axes: Vec::new(),
            trials: 0,
            seed: 0,
        }
    }

    /// Builder: adds a sweep axis.
    pub fn with_axis(mut self, label: &str, kind: AxisKind) -> Self {
        self.axes.push(SweepAxis {
            label: label.to_string(),
            kind,
        });
        self
    }

    /// Builder: sets the trial count.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Builder: sets the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: replaces the scene.
    pub fn with_scene(mut self, scene: SceneSpec) -> Self {
        self.scene = scene;
        self
    }

    /// Builder: replaces the reader config.
    pub fn with_reader(mut self, reader: ReaderSpec) -> Self {
        self.reader = reader;
        self
    }

    /// Builder: replaces the tag config.
    pub fn with_tag(mut self, tag: TagSpec) -> Self {
        self.tag = tag;
        self
    }

    /// The axis with the given label, if present.
    pub fn axis(&self, label: &str) -> Option<&SweepAxis> {
        self.axes.iter().find(|a| a.label == label)
    }

    /// Materialized values of a named axis.
    ///
    /// # Panics
    /// Panics if the spec has no such axis — a scenario body asking for an
    /// axis its spec does not declare is a wiring bug, not a runtime
    /// condition.
    pub fn values(&self, label: &str) -> Vec<f64> {
        self.axis(label)
            .unwrap_or_else(|| panic!("scenario '{}' has no axis '{label}'", self.name))
            .values()
    }

    /// A shrunken copy for smoke runs: every axis clamped to at most
    /// `max_points` samples and the trial count to at most `max_trials`.
    /// The scenario still exercises its full code path, just at minimal
    /// size.
    pub fn minimized(&self, max_points: usize, max_trials: usize) -> ScenarioSpec {
        let mut s = self.clone();
        s.axes = s.axes.iter().map(|a| a.clamped(max_points)).collect();
        if s.trials > 0 {
            s.trials = s.trials.min(max_trials);
        }
        s
    }

    /// A canonical, human-readable encoding of every field. Equal specs
    /// produce equal encodings; the [`Self::hash`] is computed over it.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "name={};title={};", self.name, self.title);
        match self.scene.kind {
            SceneKind::FreeSpace => out.push_str("scene=free_space;"),
            SceneKind::Room { width_m, height_m } => {
                let _ = write!(out, "scene=room({width_m},{height_m});");
            }
        }
        for b in &self.scene.blockers {
            let _ = write!(out, "blocker=({},{},{},{});", b.x1, b.y1, b.x2, b.y2);
        }
        let _ = write!(
            out,
            "reader=(band={},cancel={});tag=(n={},band={},wiring={});",
            self.reader.band_ghz,
            self.reader.cancellation_db,
            self.tag.elements,
            self.tag.band_ghz,
            self.tag.wiring.name()
        );
        for a in &self.axes {
            match &a.kind {
                AxisKind::Linspace {
                    start,
                    stop,
                    points,
                } => {
                    let _ = write!(out, "axis={}:lin({start},{stop},{points});", a.label);
                }
                AxisKind::Logspace {
                    start,
                    stop,
                    points,
                } => {
                    let _ = write!(out, "axis={}:log({start},{stop},{points});", a.label);
                }
                AxisKind::Values(v) => {
                    let _ = write!(out, "axis={}:values(", a.label);
                    for (i, x) in v.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{x}");
                    }
                    out.push_str(");");
                }
            }
        }
        let _ = write!(out, "trials={};seed={}", self.trials, self.seed);
        out
    }

    /// FNV-1a hash of [`Self::canonical`] — the spec fingerprint the
    /// manifest records so a result file can be matched to the exact spec
    /// that produced it.
    pub fn hash(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// 64-bit FNV-1a over a byte string (dependency-free, stable forever).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything a scenario body receives from the [`Runner`]: its spec, the
/// seed tree rooted at the spec's seed, and the thread budget.
pub struct RunContext<'a> {
    /// The spec being executed.
    pub spec: &'a ScenarioSpec,
    /// Seed tree rooted at `spec.seed`; derive all randomness from here.
    pub tree: SeedTree,
    /// Worker-thread budget for the parallel engine.
    pub threads: usize,
}

/// A runnable experiment: a typed spec plus the code that interprets it.
///
/// `Send + Sync` is a supertrait so registries of scenarios can be shared
/// across threads — the serve daemon resolves requests against one
/// [`Registry`] from many executor threads. Scenario state is a spec plus
/// interpreting code (typically a fn pointer), so the bound costs
/// implementors nothing.
pub trait Scenario: Send + Sync {
    /// The spec this instance will run.
    fn spec(&self) -> &ScenarioSpec;

    /// Executes the scenario, returning its result tables.
    fn run(&self, ctx: &RunContext) -> Vec<Table>;

    /// A copy of this scenario with a different spec (used to run
    /// minimized or reseeded variants through the same body).
    fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario>;
}

/// What a run recorded about itself, alongside the tables.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Scenario (registry) name.
    pub scenario: String,
    /// Scenario description.
    pub title: String,
    /// Root seed the run used.
    pub seed: u64,
    /// Trial count the run used.
    pub trials: usize,
    /// Worker-thread budget (results are bit-identical at any value).
    pub threads: usize,
    /// Wall-clock time of the run, in milliseconds.
    pub wall_ms: f64,
    /// Hex [`ScenarioSpec::hash`] of the executed spec.
    pub spec_hash: String,
    /// Observability aggregates recorded during the run on the calling
    /// thread and the pool workers it fanned out to (counters at least:
    /// spans too under a trace capture). Counters and histograms are
    /// bit-identical at any thread count; span wall times — like
    /// [`Manifest::wall_ms`] — are machine-dependent and excluded from the
    /// determinism contract.
    pub metrics: obs::ObsReport,
}

/// The structured result of one scenario run: tables plus manifest,
/// serializable to JSON and CSV with in-house writers.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Run metadata.
    pub manifest: Manifest,
    /// Result tables, in the order the scenario produced them.
    pub tables: Vec<Table>,
    /// True when the tables were replayed from the [`crate::cache::RunCache`] instead of
    /// simulated — the runner's own lookup outcome, so a corrupt entry or
    /// one evicted between a caller's check and the run reads `false`.
    /// Not serialized: the manifest's `runner.cache.hit` counter already
    /// records it in every written artifact.
    pub from_cache: bool,
}

impl RunRecord {
    /// The first table (most scenarios produce exactly one).
    ///
    /// # Panics
    /// Panics if the run produced no tables.
    pub fn table(&self) -> &Table {
        &self.tables[0]
    }

    /// Consumes the record, returning its first table.
    ///
    /// # Panics
    /// Panics if the run produced no tables.
    pub fn into_table(self) -> Table {
        self.tables
            .into_iter()
            .next()
            .expect("scenario produced no tables")
    }

    /// Renders every table in the human-readable aligned format, each
    /// followed by a blank line — byte-compatible with the historical
    /// `println!("{}", table.render())` figure-binary output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// Serializes manifest + tables as JSON; the tables are in
    /// [`crate::json::write_tables`]'s layout (non-finite cells become
    /// `null`).
    pub fn to_json(&self) -> String {
        let m = &self.manifest;
        let mut out = String::from("{\n  \"manifest\": {\"scenario\": ");
        json::write_str(&mut out, &m.scenario);
        out.push_str(", \"title\": ");
        json::write_str(&mut out, &m.title);
        let _ = write!(
            out,
            ", \"seed\": {}, \"trials\": {}, \"threads\": {}, \"wall_ms\": {:.3}, \"spec_hash\": ",
            m.seed, m.trials, m.threads, m.wall_ms,
        );
        json::write_str(&mut out, &m.spec_hash);
        out.push_str(", \"metrics\": ");
        out.push_str(&m.metrics.metrics_json());
        out.push_str("},\n  \"tables\": ");
        json::write_tables(&mut out, &self.tables);
        out.push_str("\n}\n");
        out
    }

    /// Serializes every table as CSV, each section preceded by a
    /// `# <title>` comment line; a manifest comment leads the file.
    pub fn to_csv(&self) -> String {
        let m = &self.manifest;
        let mut out = format!(
            "# scenario={} seed={} trials={} threads={} spec_hash={}\n",
            m.scenario, m.seed, m.trials, m.threads, m.spec_hash
        );
        for t in &self.tables {
            let _ = writeln!(out, "# {}", t.title());
            out.push_str(&t.to_csv());
        }
        out
    }
}

/// Executes [`Scenario`]s and assembles [`RunRecord`]s.
///
/// The runner owns the execution policy — the thread budget and,
/// optionally, result memoization via [`crate::cache::RunCache`] — so
/// scenario bodies stay pure functions of their [`RunContext`].
pub struct Runner {
    threads: usize,
    cache: Option<crate::cache::RunCache>,
}

impl Runner {
    /// A runner at the engine's default thread budget (`MMTAG_THREADS` or
    /// `available_parallelism`), with no cache.
    pub fn new() -> Self {
        Runner {
            threads: crate::par::thread_limit(),
            cache: None,
        }
    }

    /// A runner pinned to an explicit thread budget, with no cache.
    pub fn with_threads(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
            cache: None,
        }
    }

    /// Attaches a content-addressed run cache: [`Runner::run`] consults
    /// it before executing and replays byte-identical tables on a hit
    /// (see [`crate::cache`] for the key and invalidation rules). The
    /// manifest records the outcome as a `runner.cache.hit` or
    /// `runner.cache.miss` counter in its metrics block.
    pub fn with_cache(mut self, cache: crate::cache::RunCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Drops any attached run cache.
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// The runner's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a scenario, timing it and recording the manifest (including
    /// the observability aggregates recorded over the run — see
    /// [`Manifest::metrics`]). The metrics come from an [`obs::Window`]
    /// on the calling thread, so runs on other threads never show up in
    /// them, and an enclosing trace capture (e.g. the CLI `--trace` flag)
    /// still sees everything.
    ///
    /// If the thread's obs level is `Off`, the runner raises it to
    /// `Counters` for the duration of the run so the manifest's metrics
    /// block is populated by default; afterwards — also when the scenario
    /// panics — it removes the run's events and restores `Off`, so
    /// repeated runs leave nothing behind. Counter and histogram
    /// recording is deterministic — integer aggregates of per-unit
    /// contributions — so this changes no output bytes except the metrics
    /// block itself, which is thread-count invariant.
    ///
    /// # Examples
    ///
    /// Any [`Scenario`] implementation runs the same way; the record
    /// carries the tables plus a manifest identifying the run:
    ///
    /// ```
    /// use mmtag_sim::experiment::Table;
    /// use mmtag_sim::scenario::{AxisKind, RunContext, Runner, Scenario, ScenarioSpec};
    ///
    /// struct Doubler(ScenarioSpec);
    ///
    /// impl Scenario for Doubler {
    ///     fn spec(&self) -> &ScenarioSpec {
    ///         &self.0
    ///     }
    ///     fn run(&self, ctx: &RunContext) -> Vec<Table> {
    ///         let mut t = Table::new("doubled", &["x", "y"]);
    ///         for x in ctx.spec.values("x") {
    ///             t.push_row(&[x, 2.0 * x]);
    ///         }
    ///         vec![t]
    ///     }
    ///     fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario> {
    ///         Box::new(Doubler(spec))
    ///     }
    /// }
    ///
    /// let spec = ScenarioSpec::paper_link("e99-doubler", "doctest scenario")
    ///     .with_axis("x", AxisKind::Values(vec![1.0, 2.0]));
    /// let record = Runner::with_threads(2).run(&Doubler(spec));
    ///
    /// assert_eq!(record.manifest.scenario, "e99-doubler");
    /// assert_eq!(record.tables[0].len(), 2);
    /// ```
    pub fn run(&self, scenario: &dyn Scenario) -> RunRecord {
        let window = obs::Window::open();
        let spec = scenario.spec();
        let spec_hash = {
            let _span = obs::span("runner.canonicalize");
            format!("{:016x}", spec.hash())
        };
        let start = std::time::Instant::now();
        // Cache lookup: a hit replays the stored tables byte-identically
        // and skips execution entirely. Outcome counters land in this
        // run's metrics window, so the manifest says which path ran.
        let cached = self.cache.as_ref().and_then(|cache| {
            let _span = obs::span("runner.cache.lookup");
            let hit = cache.load(spec);
            obs::counter_add(
                if hit.is_some() {
                    "runner.cache.hit"
                } else {
                    "runner.cache.miss"
                },
                1,
            );
            hit
        });
        let served_from_cache = cached.is_some();
        let tables = match cached {
            Some(tables) => tables,
            None => {
                let ctx = RunContext {
                    spec,
                    tree: SeedTree::new(spec.seed),
                    threads: self.threads,
                };
                let _span = obs::span("runner.trials");
                scenario.run(&ctx)
            }
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if !served_from_cache {
            if let Some(cache) = &self.cache {
                let _span = obs::span("runner.cache.store");
                match cache.store(spec, &tables) {
                    Ok(()) => {
                        // A store already paid for a full simulation, so a
                        // directory scan is in the noise — surface the
                        // store's size in this run's manifest metrics.
                        let stats = cache.stats();
                        obs::counter_add("runner.cache.entries", stats.entries as u64);
                        obs::counter_add("runner.cache.bytes", stats.bytes);
                        obs::counter_add("runner.cache.stale", stats.stale as u64);
                    }
                    Err(e) => obs::warn(&format!(
                        "mmtag: run cache store failed ({}): {e}",
                        cache.dir().display()
                    )),
                }
            }
        }
        {
            let _span = obs::span("runner.tables");
            let rows: usize = tables.iter().map(Table::len).sum();
            obs::counter_add("runner.table_rows", rows as u64);
        }
        let metrics = window.close();
        RunRecord {
            manifest: Manifest {
                scenario: spec.name.clone(),
                title: spec.title.clone(),
                seed: spec.seed,
                trials: spec.trials,
                threads: self.threads,
                spec_hash,
                wall_ms,
                metrics,
            },
            tables,
            from_cache: served_from_cache,
        }
    }

    /// Runs a scenario at smoke size (axes ≤ `max_points` samples, trials
    /// ≤ `max_trials`).
    pub fn run_minimized(
        &self,
        scenario: &dyn Scenario,
        max_points: usize,
        max_trials: usize,
    ) -> RunRecord {
        let small = scenario.with_spec(scenario.spec().minimized(max_points, max_trials));
        self.run(&*small)
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

/// Name → scenario map: the single place every experiment is enumerable
/// from. The CLI, the benchmark and the smoke tests all resolve
/// scenarios here instead of wiring experiments by hand.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Box<dyn Scenario>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }

    /// Registers a scenario under its spec's name.
    ///
    /// # Panics
    /// Panics on a duplicate name — two experiments claiming one name is
    /// a wiring bug.
    pub fn register(&mut self, scenario: Box<dyn Scenario>) {
        let name = scenario.spec().name.clone();
        assert!(
            self.get(&name).is_none(),
            "duplicate scenario name '{name}'"
        );
        self.entries.push(scenario);
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.entries
            .iter()
            .find(|s| s.spec().name == name)
            .map(|s| s.as_ref())
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries
            .iter()
            .map(|s| s.spec().name.as_str())
            .collect()
    }

    /// Iterates the registered scenarios in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.entries.iter().map(|s| s.as_ref())
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Runs a named scenario with the given runner.
    pub fn run(&self, name: &str, runner: &Runner) -> Option<RunRecord> {
        self.get(name).map(|s| runner.run(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        spec: ScenarioSpec,
    }

    impl Scenario for Echo {
        fn spec(&self) -> &ScenarioSpec {
            &self.spec
        }
        fn run(&self, ctx: &RunContext) -> Vec<Table> {
            let mut t = Table::new("echo", &["x", "seeded"]);
            for x in ctx.spec.values("x") {
                t.push_row(&[x, ctx.tree.rng("echo").f64()]);
            }
            vec![t]
        }
        fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario> {
            Box::new(Echo { spec })
        }
    }

    use crate::rng::Rng;

    fn echo_spec() -> ScenarioSpec {
        ScenarioSpec::paper_link("echo", "echo test").with_axis(
            "x",
            AxisKind::Linspace {
                start: 0.0,
                stop: 10.0,
                points: 11,
            },
        )
    }

    #[test]
    fn runner_is_deterministic_across_thread_counts() {
        let sc = Echo { spec: echo_spec() };
        let a = Runner::with_threads(1).run(&sc);
        let b = Runner::with_threads(8).run(&sc);
        assert_eq!(a.tables[0].column(1), b.tables[0].column(1));
        assert_eq!(a.manifest.spec_hash, b.manifest.spec_hash);
        assert_eq!(b.manifest.threads, 8);
    }

    #[test]
    fn cached_runner_replays_byte_identical_tables_without_executing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct Counting {
            spec: ScenarioSpec,
            executions: Arc<AtomicUsize>,
        }
        impl Scenario for Counting {
            fn spec(&self) -> &ScenarioSpec {
                &self.spec
            }
            fn run(&self, ctx: &RunContext) -> Vec<Table> {
                self.executions.fetch_add(1, Ordering::Relaxed);
                let mut t = Table::new("counted", &["x", "seeded"]);
                for x in ctx.spec.values("x") {
                    t.push_row(&[x, ctx.tree.rng("echo").f64()]);
                }
                vec![t]
            }
            fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario> {
                Box::new(Counting {
                    spec,
                    executions: self.executions.clone(),
                })
            }
        }

        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "mmtag-runner-cache-test-{}-{nanos}",
            std::process::id()
        ));
        let executions = Arc::new(AtomicUsize::new(0));
        let sc = Counting {
            spec: echo_spec(),
            executions: executions.clone(),
        };
        let runner = Runner::with_threads(2).with_cache(crate::cache::RunCache::at(&dir));

        let first = runner.run(&sc);
        assert_eq!(executions.load(Ordering::Relaxed), 1);
        assert_eq!(first.manifest.metrics.counter("runner.cache.miss"), 1);
        assert_eq!(first.manifest.metrics.counter("runner.cache.hit"), 0);

        let second = runner.run(&sc);
        assert_eq!(
            executions.load(Ordering::Relaxed),
            1,
            "hit must not execute"
        );
        assert_eq!(second.manifest.metrics.counter("runner.cache.hit"), 1);

        // Replayed tables are byte-identical in every serialization.
        for (a, b) in first.tables.iter().zip(&second.tables) {
            assert_eq!(a.render(), b.render());
            assert_eq!(a.to_csv(), b.to_csv());
        }
        assert_eq!(first.manifest.spec_hash, second.manifest.spec_hash);
        // The JSON table sections match too (the manifest's wall_ms may
        // not, so compare from the tables array on).
        let tables_json = |s: &str| s[s.find("\"tables\"").unwrap()..].to_string();
        assert_eq!(
            tables_json(&first.to_json()),
            tables_json(&second.to_json())
        );

        // A different seed under the same cache misses and re-executes.
        let reseeded = sc.with_spec(echo_spec().with_seed(9));
        let third = runner.run(&*reseeded);
        assert_eq!(executions.load(Ordering::Relaxed), 2);
        assert_eq!(third.manifest.metrics.counter("runner.cache.miss"), 1);

        // An uncached runner never touches the store.
        let fourth = Runner::with_threads(2).run(&sc);
        assert_eq!(executions.load(Ordering::Relaxed), 3);
        assert_eq!(fourth.manifest.metrics.counter("runner.cache.hit"), 0);
        assert_eq!(fourth.manifest.metrics.counter("runner.cache.miss"), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_hash_is_stable_and_sensitive() {
        let a = echo_spec();
        assert_eq!(a.hash(), echo_spec().hash());
        assert_ne!(a.hash(), a.clone().with_seed(1).hash());
        assert_ne!(a.hash(), a.clone().with_trials(5).hash());
        assert_ne!(
            a.hash(),
            a.clone()
                .with_tag(TagSpec::prototype().with_wiring(WiringSpec::FixedBeam))
                .hash()
        );
    }

    #[test]
    fn minimized_clamps_axes_and_trials() {
        let s = echo_spec().with_trials(100_000).minimized(3, 200);
        assert_eq!(s.axes[0].len(), 3);
        assert_eq!(s.trials, 200);
        // Endpoints survive minimization.
        let v = s.values("x");
        assert_eq!(v.first().copied(), Some(0.0));
        assert_eq!(v.last().copied(), Some(10.0));
    }

    #[test]
    fn registry_round_trip_and_duplicate_detection() {
        let mut reg = Registry::new();
        reg.register(Box::new(Echo { spec: echo_spec() }));
        assert_eq!(reg.names(), vec!["echo"]);
        let rec = reg.run("echo", &Runner::with_threads(1)).unwrap();
        assert_eq!(rec.tables[0].len(), 11);
        assert!(reg.run("nope", &Runner::new()).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_registration_panics() {
        let mut reg = Registry::new();
        reg.register(Box::new(Echo { spec: echo_spec() }));
        reg.register(Box::new(Echo { spec: echo_spec() }));
    }

    #[test]
    fn json_writer_escapes_and_nullifies() {
        let mut t = Table::new("a \"quoted\"\ntitle", &["v"]);
        t.push_labeled_row("sys,1", &[f64::NAN]);
        let rec = RunRecord {
            manifest: Manifest {
                scenario: "x".into(),
                title: "t".into(),
                seed: 1,
                trials: 0,
                threads: 1,
                wall_ms: 0.5,
                spec_hash: "00".into(),
                metrics: obs::ObsReport::default(),
            },
            tables: vec![t],
            from_cache: false,
        };
        let json = rec.to_json();
        assert!(json.contains("a \\\"quoted\\\"\\ntitle"));
        assert!(json.contains("null"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn axis_values_match_generators() {
        let lin = SweepAxis {
            label: "x".into(),
            kind: AxisKind::Linspace {
                start: 2.0,
                stop: 12.0,
                points: 6,
            },
        };
        assert_eq!(lin.values(), linspace(2.0, 12.0, 6));
        let vals = SweepAxis {
            label: "y".into(),
            kind: AxisKind::Values(vec![1.0, 4.0]),
        };
        assert_eq!(vals.values(), vec![1.0, 4.0]);
        assert_eq!(vals.clamped(1).values(), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "has no axis")]
    fn missing_axis_is_a_wiring_bug() {
        echo_spec().values("nonexistent");
    }
}
