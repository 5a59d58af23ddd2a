//! # mmtag-rf — RF foundations for the mmTag stack
//!
//! This crate holds the zero-dependency numerical foundations shared by every
//! layer of the mmTag millimeter-wave backscatter stack:
//!
//! * [`Complex`] — complex arithmetic for phasor/array-factor computation,
//! * [`units`] — strongly-typed physical quantities (frequency, power,
//!   distance, angles, bandwidth, data rate) with explicit conversions,
//! * [`db`] — decibel ↔ linear conversions done once, correctly,
//! * [`fft`] — radix-4 FFT and Welch PSD for spectrum analysis,
//! * [`constants`] — the physical constants the link budget rests on,
//! * [`special`] — `erf`/`erfc`/Q-function needed for BER theory,
//! * [`rng`] — the in-house xoshiro256++ generator, sampler trait and
//!   [`rng::SeedTree`] stream derivation (zero external dependencies),
//! * [`pool`] — the lazily-initialized persistent worker pool (std-only
//!   `Mutex`/`Condvar`, workers spawned once per process and reused),
//! * [`par`] — the deterministic parallel engine every Monte-Carlo hot
//!   path runs on, built on [`pool`] (`MMTAG_THREADS` to override),
//! * [`obs`] — the zero-dependency observability layer (span timers,
//!   counters, histograms, Chrome-trace export) whose level and log are
//!   per thread, and whose recording is sharded per worker and merged in
//!   unit order so it never perturbs results.
//!
//! The numerics are `no_std`-shaped in spirit (no allocation, no I/O); they
//! are the part of the stack you would keep if you ported the models to
//! firmware. `rng`/`par` are the simulation substrate layered on top.

// `deny` rather than `forbid`: the worker pool (`pool`) and the engine's
// in-place result writes (`par`) opt back in with scoped `allow`s and
// per-use SAFETY arguments. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod constants;
pub mod db;
pub mod fft;
pub mod math;
pub mod obs;
pub mod par;
pub mod pool;
pub mod rng;
pub mod special;
pub mod units;

pub use complex::Complex;
pub use units::{Angle, Bandwidth, DataRate, Db, Dbi, Dbm, Distance, Frequency, Temperature};
