//! # mmtag-bench — the experiment harness
//!
//! One function per experiment in `DESIGN.md`'s per-experiment index; each
//! returns a [`mmtag_sim::experiment::Table`] so the scenario registry
//! prints it and the smoke tests assert its headline numbers
//! (`cargo run -p mmtag-bench --bin scenario -- run e02-link-budget`).
//! Nothing here times anything: the repository benchmark (`perfbench/`,
//! declared in `BENCHMARK.json`) does, and `--bin bench_report` records
//! its runs into `BENCH_report.json`.
//!
//! | experiment | paper artifact | function |
//! |---|---|---|
//! | E1 | Fig. 6 | [`eval::fig6_s11`] |
//! | E2 | Fig. 7 | [`eval::fig7_link_budget`] |
//! | E3 | §5.2 retrodirectivity | [`antenna_figs::fig_retro`] |
//! | E4 | §1/§3 comparison | [`system_tables::table_comparison`] |
//! | E5 | §8 BER assumption | [`phy_figs::fig_ber`] |
//! | E6 | §7 beamwidth | [`antenna_figs::fig_beamwidth`] |
//! | E7 | §9 MAC | [`network_figs::fig_aloha`] |
//! | E8 | §1 mobility | [`network_figs::fig_mobility`] |
//! | E9 | §9 self-interference | [`system_tables::fig_selfint`] |
//! | E10 | §1 batteryless | [`system_tables::table_power`] |
//! | E11 | §7 footnote 3 | [`system_tables::fig_60ghz`] |
//! | E12 | §4 NLOS | [`network_figs::fig_nlos`] |
//! | E13–E22 | extensions/ablations | [`extensions`] |
//! | E23–E26 | ISI / Gen2 / localization / SI cancellation | [`advanced`] |
//!
//! Every experiment is also registered as a named scenario in
//! [`scenarios::registry`] — `cargo run -p mmtag-bench --bin scenario --
//! list` enumerates them, and each runs through the typed
//! [`mmtag_sim::scenario`] pipeline (spec → [`mmtag_sim::scenario::Runner`]
//! → [`mmtag_sim::scenario::RunRecord`] with a reproducibility manifest).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advanced;
pub mod antenna_figs;
pub mod city_figs;
pub mod eval;
pub mod extensions;
pub mod loadgen;
pub mod network_figs;
pub mod phy_figs;
pub mod rate_figs;
pub mod scenarios;
pub mod system_tables;
