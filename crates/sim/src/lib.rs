//! # mmtag-sim — discrete-event simulation substrate
//!
//! The paper evaluates a single static link; its discussion section (§9)
//! raises everything that happens *around* that link: readers scanning for
//! tags, tags moving, LOS paths getting blocked, multiple tags colliding.
//! Answering those questions requires a simulator, so this crate provides
//! one, in the smoltcp spirit: explicit state, deterministic execution, no
//! hidden global time.
//!
//! * [`time`] — nanosecond-resolution simulation time,
//! * [`des`] — a deterministic discrete-event scheduler,
//! * [`geom`] — 2-D geometry: vectors, wall segments, line-of-sight tests
//!   and image-method specular reflections,
//! * [`spatial`] — a uniform-grid spatial hash (CSR layout, counting-sort
//!   rebuild) for coverage and interference-neighborhood disc queries,
//! * [`mobility`] — position/orientation trajectories for tags and blockers,
//! * [`rng`] — deterministic per-entity RNG streams (add a tag without
//!   perturbing anyone else's randomness),
//! * [`par`] — deterministic parallel Monte-Carlo on `std::thread::scope`:
//!   chunked work, per-chunk RNG streams, bit-identical at any thread
//!   count (`MMTAG_THREADS` overrides the worker budget),
//! * [`rate_region`] — the multi-tag primary-vs-backscatter rate-region
//!   sweep (E29–E31): one trial-chunk grid estimates the depth curves
//!   over the cascade channel and tag constellations, and every weight
//!   selects its operating point from that estimate (DESIGN.md §14),
//! * [`obs`] — the observability layer (re-exported from `mmtag_rf::obs`):
//!   span timers, counters and histograms whose recording never perturbs
//!   simulated results; the [`scenario`] `Runner` attaches the calling
//!   thread's aggregate report to every run manifest,
//! * [`scene`] — a room: one reader, tags, walls; produces the ray sets the
//!   channel layer consumes,
//! * [`metrics`] — streaming summary statistics and time series,
//! * [`experiment`] — parameter sweeps with aligned-table output (the
//!   format every figure/table binary in `mmtag-bench` prints),
//! * [`scenario`] — the typed scenario pipeline: serializable
//!   `ScenarioSpec`s, a `Runner` executing them through the deterministic
//!   parallel engine, structured `RunRecord` artifacts (tables + manifest,
//!   JSON/CSV writers) and the name → scenario `Registry` every
//!   experiment entry point resolves through,
//! * [`json`] — the minimal JSON DOM parser every reader in the
//!   workspace shares (bench-report verifier, serve clients),
//! * [`serve`] — simulation-as-a-service: a line-delimited JSON protocol
//!   over TCP/Unix sockets with a bounded priority admission queue,
//!   single-flight deduplication, cache-first execution and interpolated
//!   surface queries over cached sweep grids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mmtag_rf::obs;

pub mod cache;
pub mod des;
pub mod experiment;
pub mod geom;
pub mod json;
pub mod metrics;
pub mod mobility;
pub mod par;
pub mod rate_region;
pub mod rng;
pub mod scenario;
pub mod scene;
pub mod serve;
pub mod spatial;
pub mod time;

pub use des::CalendarQueue;
pub use geom::{Segment, Vec2};
pub use rng::SeedTree;
pub use scene::Scene;
pub use spatial::SpatialHash;
pub use time::{Duration, Instant};
