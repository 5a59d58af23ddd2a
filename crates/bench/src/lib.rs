//! # mmtag-bench — the experiment harness
//!
//! One `(spec, body)` pair per experiment in `DESIGN.md`'s per-experiment
//! index: the spec declares the sweep, the body turns it into
//! [`mmtag_sim::experiment::Table`]s, and [`scenarios::registry`] names
//! the pair so `mmtag run` prints its tables and the smoke tests assert
//! its headline numbers (`cargo run -p mmtag-cli -- run e02-link-budget`).
//! Nothing here times anything: the repository benchmark (`perfbench/`,
//! declared in `BENCHMARK.json`) does, and `--bin bench_report` records
//! its runs into `BENCH_report.json`. The `mmtag serve` daemon serves
//! this registry, and `mmtag request` is its client.
//!
//! | experiment | paper artifact | registry scenario |
//! |---|---|---|
//! | E1 | Fig. 6 | `e01-s11` ([`eval`]) |
//! | E2 | Fig. 7 | `e02-link-budget` ([`eval`]) |
//! | E3 | §5.2 retrodirectivity | `e03-retro` ([`antenna_figs`]) |
//! | E4 | §1/§3 comparison | `e04-comparison` ([`system_tables`]) |
//! | E5 | §8 BER assumption | `e05-ber` ([`phy_figs`]) |
//! | E6 | §7 beamwidth | `e06-beamwidth` ([`antenna_figs`]) |
//! | E7 | §9 MAC | `e07-aloha` ([`network_figs`]) |
//! | E8 | §1 mobility | `e08-mobility` ([`network_figs`]) |
//! | E9 | §9 self-interference | `e09-selfint` ([`system_tables`]) |
//! | E10 | §1 batteryless | `e10-power` ([`system_tables`]) |
//! | E11 | §7 footnote 3 | `e11-60ghz` ([`system_tables`]) |
//! | E12 | §4 NLOS | `e12-nlos` ([`network_figs`]) |
//! | E13–E22 | extensions/ablations | `e13-spectrum` … `e22-mimo` ([`extensions`]) |
//! | E23–E26 | ISI / Gen2 / localization / SI cancellation | `e23-delay-spread` … `e26-cancellation` ([`advanced`]) |
//! | E27–E28 | city scale | `e27-city-density`, `e28-city-mobility` ([`city_figs`]) |
//! | E29–E31 | multi-tag rate region | `e29-rate-region` … `e31-rate-vs-states` ([`rate_figs`]) |
//!
//! Every experiment is also registered as a named scenario in
//! [`scenarios::registry`] — `cargo run -p mmtag-cli -- scenarios`
//! enumerates them, and each runs through the typed
//! [`mmtag_sim::scenario`] pipeline (spec → [`mmtag_sim::scenario::Runner`]
//! → [`mmtag_sim::scenario::RunRecord`] with a reproducibility manifest).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advanced;
pub mod antenna_figs;
pub mod city_figs;
pub mod eval;
pub mod extensions;
pub mod network_figs;
pub mod phy_figs;
pub mod rate_figs;
pub mod scenarios;
pub mod system_tables;
