//! The core-aware `BENCH_report.json` schema: building, serializing, and
//! — the part CI actually leans on — *verifying* it.
//!
//! PR 5's report recorded whatever speedups the host produced, which let
//! a 1-core CI box commit `aloha_ensemble_128tags_x16_par4_vs_serial:
//! 0.739` — four time-sliced threads losing to serial, published as if it
//! were a measurement of the pool. This schema makes that impossible to
//! state by accident:
//!
//! * `available_cores` records `std::thread::available_parallelism()` at
//!   measurement time, next to the `threads` knob (`MMTAG_THREADS`) the
//!   run was asked for;
//! * a `par{t}` speedup row on a host with fewer than `t` cores is
//!   **skipped**: the ratio is JSON `null` and a same-named entry in
//!   `skipped` says why (`"cores=1 < threads=4"`). [`verify_report`]
//!   rejects a report that publishes a *numeric* `par{t}` ratio measured
//!   on fewer than `t` cores, and rejects a `null` with no reason;
//! * `scaling_efficiency` (speedup ÷ threads) is emitted for every
//!   parallel row that did run, so a future report can't present 2.1× on
//!   8 threads as a win without the 0.26 efficiency sitting next to it;
//! * `ns_per_bit` carries per-work-unit costs (ns per bit for BER rows,
//!   per trial for outage, per sample for the Gaussian fills, per
//!   transform for the FFT, per DES event for the city engine) — the
//!   machine-comparable form of the kernel numbers. [`verify_report`]
//!   requires every [`NS_PER_BIT_REQUIRED`] row; whether a cost regressed
//!   is judged by the repository benchmark (`BENCHMARK.json`) against
//!   the parent commit, not by a ratio to an older kernel.
//!
//! The verifier parses the report into a tiny JSON DOM ([`Json`]) —
//! shape-checking needs values, not just well-formedness, and the
//! workspace is dependency-free by design, so no serde.

use crate::timing::BenchResult;
use mmtag_rf::obs::SpanStat;

/// Kernel-cost rows the `ns_per_bit` section must carry: the BER and
/// outage lane kernels, the Gaussian fill, one 1024-point FFT and one
/// city-engine DES event.
pub const NS_PER_BIT_REQUIRED: [&str; 5] = [
    "ber_kernel_lanes",
    "outage_kernel_lanes",
    "fill_normal_lanes",
    "fft1024",
    "city_ns_per_event",
];

/// Throughput-row suffixes [`verify_report`] requires: the city engine
/// must publish how many tags it inventories and how many DES events it
/// retires per wall-clock second.
const THROUGHPUT_SUFFIXES: [&str; 2] = ["_tags_per_sec", "_events_per_sec"];

/// Rows the `serving` section must carry: client-observed latency
/// quantiles for the cache-hit and cache-miss paths (µs, from the obs
/// log₂ histograms), sustained jobs/s, the server-reported cache hit
/// ratio under the default loadgen mix, and the sweep-heavy-mix
/// throughput pair (`sweep` jobs retired per second and grid points
/// streamed per second).
pub const SERVING_REQUIRED: [&str; 8] = [
    "hit_p50_us",
    "hit_p99_us",
    "miss_p50_us",
    "miss_p99_us",
    "jobs_per_sec",
    "cache_hit_ratio",
    "sweep_jobs_per_sec",
    "points_per_sec",
];

/// The multi-executor serving row: jobs/s at `N` executors over jobs/s
/// at 1, divided by `N`. Core-aware like the `par{t}` speedup rows — on
/// a host with fewer than 2 cores it must be `null` with a reason in
/// `skipped`, because two time-sliced executors measure the scheduler,
/// not the serving stack.
pub const SERVE_SCALING_ROW: &str = "serving_scaling_efficiency";

/// Minimum admissible [`SERVE_SCALING_ROW`]: efficiency 0.5 is the
/// break-even where `N` executors merely tie one, so a published number
/// at or below ~0.55 means adding executors bought nothing — the report
/// may not present that as multi-core serving throughput.
pub const SERVE_SCALING_FLOOR: f64 = 0.55;

/// The sweep-fanout gate row (lives in `speedups`): points/s of one
/// cache-cold ≥64-point `sweep` request over points/s of the same grid
/// issued as individual `run` requests at equal thread budget.
pub const SWEEP_FANOUT_ROW: &str = "sweep_fanout_vs_pointwise";

/// Minimum admissible [`SWEEP_FANOUT_ROW`]: the sweep op exists to
/// amortize admission, canonicalization, and cache I/O across the grid
/// and to fan points outward — if one sweep request is not at least
/// twice as fast as the pointwise protocol it replaced, the op is
/// machinery without a win. Core-aware: `null` + reason on 1-core hosts.
pub const SWEEP_FANOUT_FLOOR: f64 = 2.0;

/// The serving gate: a cache hit (in-memory surface interpolation) must
/// be at least this many times faster at p99 than the *median* cache
/// miss (a full simulation). If serving a precomputed surface is within
/// 10× of recomputing it, the cache-first path has regressed into
/// pointless machinery.
pub const SERVE_HIT_FACTOR: f64 = 10.0;

/// Minimum admissible cache hit ratio for the committed report: the
/// default loadgen mix revisits a small spec pool, so a ratio at or
/// below 0.5 means the daemon is re-simulating work it already holds.
pub const SERVE_HIT_RATIO_FLOOR: f64 = 0.5;

/// Rows the `rate_region` section must carry: the per-trial cost of the
/// E29 sweep kernel and the single-tag AWGN anchor — the Monte-Carlo
/// primary rate of the degenerate (one tag, K = ∞) scene next to its
/// closed form `log2(1 + ρ|1 + a·ĉ|²)` and the absolute error between
/// them.
pub const RATE_REGION_REQUIRED: [&str; 4] = [
    "ns_per_trial",
    "single_tag_awgn_primary",
    "single_tag_awgn_closed_form",
    "single_tag_awgn_anchor_err",
];

/// The rate-region gate: with every K-factor infinite the scene has no
/// randomness left, so the Monte-Carlo estimate must agree with the
/// closed form to floating-point accumulation error — anything larger
/// means the estimator itself drifted.
pub const RATE_ANCHOR_TOL: f64 = 1e-6;

/// Everything that goes into `BENCH_report.json`, gathered by
/// `bench_report` and serialized by [`Report::to_json`].
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The thread budget the run was asked for (`MMTAG_THREADS` /
    /// [`mmtag_rf::par::thread_limit`]).
    pub threads: usize,
    /// Physical truth: `available_parallelism()` on the measuring host.
    pub available_cores: usize,
    /// Raw per-bench timings.
    pub benches: Vec<BenchResult>,
    /// Named speedup ratios; `None` means the row was skipped (see
    /// [`Report::skipped`]) and serializes as JSON `null`.
    pub speedups: Vec<(String, Option<f64>)>,
    /// Why each skipped speedup row was skipped, keyed by row name.
    pub skipped: Vec<(String, String)>,
    /// Speedup ÷ thread count for each parallel row that ran.
    pub scaling_efficiency: Vec<(String, f64)>,
    /// Per-work-unit kernel costs (ns per bit / trial / sample).
    pub ns_per_bit: Vec<(String, f64)>,
    /// Wall-clock throughput rows (`*_tags_per_sec`, `*_events_per_sec`)
    /// from the city-engine benches.
    pub throughput: Vec<(String, f64)>,
    /// Serving-stack rows from the in-process loadgen passes (see
    /// [`SERVING_REQUIRED`] for the mandatory keys). `None` rows are
    /// core-aware skips ([`SERVE_SCALING_ROW`] on 1-core hosts) and
    /// serialize as JSON `null` with their reason in [`Report::skipped`].
    pub serving: Vec<(String, Option<f64>)>,
    /// Rate-region sweep rows: kernel cost and the single-tag AWGN anchor
    /// (see [`RATE_REGION_REQUIRED`] for the mandatory keys).
    pub rate_region: Vec<(String, f64)>,
    /// Observability span breakdown from the traced pass.
    pub spans: Vec<SpanStat>,
}

impl Report {
    /// Serializes the report. Key order is fixed so diffs of the
    /// committed artifact stay readable.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            mmtag_sim::json::escape_into(&mut out, s);
            out
        }
        fn num_obj(out: &mut String, name: &str, rows: &[(String, f64)], prec: usize) {
            out.push_str(&format!("  \"{name}\": {{\n"));
            for (i, (k, v)) in rows.iter().enumerate() {
                let v = format!("{v:.prec$}");
                out.push_str(&format!(
                    "    \"{}\": {}{}\n",
                    esc(k),
                    v,
                    if i + 1 < rows.len() { "," } else { "" }
                ));
            }
            out.push_str("  },\n");
        }
        fn num_obj_opt(out: &mut String, name: &str, rows: &[(String, Option<f64>)], prec: usize) {
            out.push_str(&format!("  \"{name}\": {{\n"));
            for (i, (k, v)) in rows.iter().enumerate() {
                let v = match v {
                    Some(v) => format!("{v:.prec$}"),
                    None => "null".to_string(),
                };
                out.push_str(&format!(
                    "    \"{}\": {}{}\n",
                    esc(k),
                    v,
                    if i + 1 < rows.len() { "," } else { "" }
                ));
            }
            out.push_str("  },\n");
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"available_cores\": {},\n",
            self.available_cores
        ));
        out.push_str("  \"benches\": {\n");
        for (i, r) in self.benches.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"ns_per_iter\": {:.1}, \"iters\": {}}}{}\n",
                esc(&r.name),
                r.ns_per_iter,
                r.iters,
                if i + 1 < self.benches.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"speedups\": {\n");
        for (i, (name, ratio)) in self.speedups.iter().enumerate() {
            let v = match ratio {
                Some(r) => format!("{r:.3}"),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                esc(name),
                v,
                if i + 1 < self.speedups.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"skipped\": {\n");
        for (i, (name, why)) in self.skipped.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": \"{}\"{}\n",
                esc(name),
                esc(why),
                if i + 1 < self.skipped.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n");
        num_obj(&mut out, "scaling_efficiency", &self.scaling_efficiency, 3);
        num_obj(&mut out, "ns_per_bit", &self.ns_per_bit, 4);
        num_obj(&mut out, "throughput", &self.throughput, 1);
        num_obj_opt(&mut out, "serving", &self.serving, 4);
        num_obj(&mut out, "rate_region", &self.rate_region, 9);
        out.push_str("  \"spans\": {\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"total_us\": {:.3}, \"max_us\": {:.3}}}{}\n",
                esc(&s.name),
                s.count,
                s.total_us,
                s.max_us,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

// The JSON DOM the verifier walks lives in `mmtag_sim::json` since the
// serve layer needs the same parser below the bench crate; re-exported
// here so existing `mmtag_bench::report::{Json, parse_json}` callers
// keep working.
pub use mmtag_sim::json::{parse_json, Json};

/// Extracts the pinned thread count from a `…par{t}_vs_serial` speedup
/// row name (`None` for rows that aren't parallel-vs-serial).
fn par_threads(name: &str) -> Option<usize> {
    let stem = name.strip_suffix("_vs_serial")?;
    let at = stem.rfind("_par")?;
    let digits = &stem[at + 4..];
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// The `--verify` gate over a committed `BENCH_report.json`.
///
/// Checks, in order:
/// 1. the document parses and has `threads`, `available_cores` (integer
///    ≥ 1), non-empty `benches`, `speedups`, `skipped`, and an
///    `ns_per_bit` of finite positive numbers carrying every
///    [`NS_PER_BIT_REQUIRED`] row;
/// 2. no *numeric* `par{t}_vs_serial` speedup was measured with
///    `t > available_cores` — those rows must be `null` with a reason in
///    `skipped` (and any `null` row must carry a reason);
/// 3. the [`SWEEP_FANOUT_ROW`] is present in `speedups`;
/// 4. `throughput` is present with finite positive numbers and carries
///    at least one `*_tags_per_sec` and one `*_events_per_sec` row — the
///    city engine's wall-clock numbers cannot silently drop out;
/// 5. `serving` is present with every [`SERVING_REQUIRED`] row numeric,
///    the cache-hit p99 beats the cache-miss p50 by at least
///    [`SERVE_HIT_FACTOR`], the hit ratio exceeds
///    [`SERVE_HIT_RATIO_FLOOR`] (and is ≤ 1), and `jobs_per_sec` and
///    `points_per_sec` are positive — a report missing the serving
///    section predates the daemon and is rejected. The
///    [`SERVE_SCALING_ROW`] must be present and core-aware: numeric only
///    when measured on ≥ 2 cores and then at least
///    [`SERVE_SCALING_FLOOR`], otherwise `null` with a reason in
///    `skipped`. The [`SWEEP_FANOUT_ROW`] in `speedups` follows the same
///    shape with its own [`SWEEP_FANOUT_FLOOR`];
/// 6. `rate_region` is present with every [`RATE_REGION_REQUIRED`] row,
///    `ns_per_trial` is positive, and the single-tag AWGN anchor error is
///    within [`RATE_ANCHOR_TOL`] of the closed form — the E29 estimator
///    cannot silently drift off its analytic pin.
pub fn verify_report(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let cores = doc
        .get("available_cores")
        .and_then(Json::as_num)
        .ok_or("report lacks \"available_cores\"")?;
    if cores < 1.0 || cores.fract() != 0.0 {
        return Err(format!(
            "\"available_cores\" must be a positive integer, got {cores}"
        ));
    }
    let cores = cores as usize;
    doc.get("threads")
        .and_then(Json::as_num)
        .ok_or("report lacks \"threads\"")?;
    let benches = doc
        .get("benches")
        .and_then(Json::as_obj)
        .ok_or("report lacks \"benches\"")?;
    if benches.is_empty() {
        return Err("\"benches\" is empty".into());
    }
    let speedups = doc
        .get("speedups")
        .and_then(Json::as_obj)
        .ok_or("report lacks \"speedups\"")?;
    let skipped = doc
        .get("skipped")
        .and_then(Json::as_obj)
        .ok_or("report lacks \"skipped\" (pre-core-aware schema?)")?;
    let ns_per_bit = doc
        .get("ns_per_bit")
        .and_then(Json::as_obj)
        .ok_or("report lacks \"ns_per_bit\"")?;
    for (k, v) in ns_per_bit {
        match v.as_num() {
            Some(x) if x.is_finite() && x > 0.0 => {}
            _ => return Err(format!("ns_per_bit[\"{k}\"] is not a positive number")),
        }
    }
    for row in NS_PER_BIT_REQUIRED {
        if !ns_per_bit.iter().any(|(k, _)| k == row) {
            return Err(format!(
                "\"ns_per_bit\" lacks required kernel row \"{row}\""
            ));
        }
    }
    let throughput = doc
        .get("throughput")
        .and_then(Json::as_obj)
        .ok_or("report lacks \"throughput\" (pre-city schema?)")?;
    for (k, v) in throughput {
        match v.as_num() {
            Some(x) if x.is_finite() && x > 0.0 => {}
            _ => return Err(format!("throughput[\"{k}\"] is not a positive number")),
        }
    }
    for suffix in THROUGHPUT_SUFFIXES {
        if !throughput.iter().any(|(k, _)| k.ends_with(suffix)) {
            return Err(format!(
                "no \"*{suffix}\" row in \"throughput\" — the city engine's \
                 wall-clock numbers are not being tracked"
            ));
        }
    }
    let serving = doc
        .get("serving")
        .and_then(Json::as_obj)
        .ok_or("report lacks \"serving\" (pre-daemon schema?)")?;
    let serving_row = |key: &str| -> Result<f64, String> {
        let v = serving
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or(format!("\"serving\" lacks required row \"{key}\""))?;
        match v.as_num() {
            Some(x) if x.is_finite() && x >= 0.0 => Ok(x),
            _ => Err(format!("serving[\"{key}\"] is not a finite number")),
        }
    };
    for key in SERVING_REQUIRED {
        serving_row(key)?;
    }
    let hit_p99 = serving_row("hit_p99_us")?;
    let miss_p50 = serving_row("miss_p50_us")?;
    if miss_p50 < SERVE_HIT_FACTOR * hit_p99 {
        return Err(format!(
            "serving hit-path p99 ({hit_p99} µs) is not ≥{SERVE_HIT_FACTOR}× faster \
             than miss-path p50 ({miss_p50} µs) — the cache-first path has regressed"
        ));
    }
    let ratio = serving_row("cache_hit_ratio")?;
    if ratio <= SERVE_HIT_RATIO_FLOOR || ratio > 1.0 {
        return Err(format!(
            "serving cache_hit_ratio = {ratio} is outside \
             ({SERVE_HIT_RATIO_FLOOR}, 1.0] — the default mix must mostly hit"
        ));
    }
    if serving_row("jobs_per_sec")? <= 0.0 {
        return Err("serving jobs_per_sec is not positive".into());
    }
    if serving_row("points_per_sec")? <= 0.0 {
        return Err("serving points_per_sec is not positive".into());
    }
    let scaling_row = serving
        .iter()
        .rev()
        .find(|(k, _)| k == SERVE_SCALING_ROW)
        .map(|(_, v)| v)
        .ok_or(format!(
            "\"serving\" lacks the \"{SERVE_SCALING_ROW}\" row — multi-executor \
             throughput is not being tracked"
        ))?;
    match scaling_row {
        Json::Null => {
            if !skipped.iter().any(|(k, _)| k == SERVE_SCALING_ROW) {
                return Err(format!(
                    "serving \"{SERVE_SCALING_ROW}\" is null with no entry in \"skipped\""
                ));
            }
        }
        Json::Num(eff) => {
            if cores < 2 {
                return Err(format!(
                    "serving \"{SERVE_SCALING_ROW}\" claims a multi-executor measurement \
                     on {cores} core(s) — time-sliced, not parallel; must be skipped \
                     (null + reason)"
                ));
            }
            if !eff.is_finite() || *eff < SERVE_SCALING_FLOOR {
                return Err(format!(
                    "serving \"{SERVE_SCALING_ROW}\" = {eff} is below the \
                     {SERVE_SCALING_FLOOR} floor — extra executors bought nothing"
                ));
            }
        }
        _ => {
            return Err(format!(
                "serving \"{SERVE_SCALING_ROW}\" is neither a number nor null"
            ))
        }
    }
    let rate_region = doc
        .get("rate_region")
        .and_then(Json::as_obj)
        .ok_or("report lacks \"rate_region\" (pre-E29 schema?)")?;
    let rate_row = |key: &str| -> Result<f64, String> {
        let v = rate_region
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or(format!("\"rate_region\" lacks required row \"{key}\""))?;
        match v.as_num() {
            Some(x) if x.is_finite() && x >= 0.0 => Ok(x),
            _ => Err(format!("rate_region[\"{key}\"] is not a finite number")),
        }
    };
    for key in RATE_REGION_REQUIRED {
        rate_row(key)?;
    }
    if rate_row("ns_per_trial")? <= 0.0 {
        return Err("rate_region ns_per_trial is not positive".into());
    }
    let anchor_err = rate_row("single_tag_awgn_anchor_err")?;
    if anchor_err > RATE_ANCHOR_TOL {
        return Err(format!(
            "rate_region single_tag_awgn_anchor_err = {anchor_err} exceeds \
             {RATE_ANCHOR_TOL} — the E29 estimator drifted off its closed-form pin"
        ));
    }

    let has_reason = |name: &str| skipped.iter().any(|(k, _)| k == name);
    for (name, v) in speedups {
        match v {
            Json::Null => {
                if !has_reason(name) {
                    return Err(format!(
                        "speedup \"{name}\" is null with no entry in \"skipped\""
                    ));
                }
            }
            Json::Num(ratio) => {
                if let Some(t) = par_threads(name) {
                    if t > cores {
                        return Err(format!(
                            "speedup \"{name}\" claims a {t}-thread measurement on \
                             {cores} core(s) — time-sliced, not parallel; must be \
                             skipped (null + reason)"
                        ));
                    }
                }
                if name == SWEEP_FANOUT_ROW {
                    if cores < 2 {
                        return Err(format!(
                            "speedup \"{SWEEP_FANOUT_ROW}\" claims a fanout measurement \
                             on {cores} core(s) — time-sliced, not parallel; must be \
                             skipped (null + reason)"
                        ));
                    }
                    if *ratio < SWEEP_FANOUT_FLOOR {
                        return Err(format!(
                            "gated sweep speedup \"{SWEEP_FANOUT_ROW}\" = {ratio:.3} is \
                             below the {SWEEP_FANOUT_FLOOR} floor — one sweep request \
                             must beat the pointwise protocol it replaced"
                        ));
                    }
                }
            }
            _ => return Err(format!("speedup \"{name}\" is neither a number nor null")),
        }
    }
    if !speedups.iter().any(|(k, _)| k == SWEEP_FANOUT_ROW) {
        return Err(format!(
            "gated sweep speedup \"{SWEEP_FANOUT_ROW}\" is missing — the sweep-vs-pointwise \
             trajectory is not being tracked"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_report() -> Report {
        Report {
            threads: 4,
            available_cores: 1,
            benches: vec![BenchResult {
                name: "k".into(),
                iters: 3,
                ns_per_iter: 10.0,
            }],
            speedups: vec![
                ("ber_point_100kbit_par1_vs_serial".into(), Some(0.99)),
                ("ber_point_100kbit_par4_vs_serial".into(), None),
                ("sweep_fanout_vs_pointwise".into(), None),
            ],
            skipped: vec![
                (
                    "ber_point_100kbit_par4_vs_serial".into(),
                    "cores=1 < threads=4".into(),
                ),
                ("sweep_fanout_vs_pointwise".into(), "cores=1 < 2".into()),
                ("serving_scaling_efficiency".into(), "cores=1 < 2".into()),
            ],
            scaling_efficiency: vec![("ber_point_100kbit_par1".into(), 0.99)],
            ns_per_bit: vec![
                ("ber_kernel_lanes".into(), 2.3),
                ("outage_kernel_lanes".into(), 4.1),
                ("fill_normal_lanes".into(), 3.0),
                ("fft1024".into(), 5_400.0),
                ("city_ns_per_event".into(), 120.0),
            ],
            throughput: vec![
                ("city_100k_tags_per_sec".into(), 2.5e6),
                ("city_100k_events_per_sec".into(), 8.1e6),
            ],
            serving: vec![
                ("hit_p50_us".into(), Some(64.0)),
                ("hit_p99_us".into(), Some(256.0)),
                ("miss_p50_us".into(), Some(8192.0)),
                ("miss_p99_us".into(), Some(16384.0)),
                ("jobs_per_sec".into(), Some(3200.0)),
                ("cache_hit_ratio".into(), Some(0.9)),
                ("sweep_jobs_per_sec".into(), Some(40.0)),
                ("points_per_sec".into(), Some(820.0)),
                ("serving_scaling_efficiency".into(), None),
            ],
            rate_region: vec![
                ("ns_per_trial".into(), 21_000.0),
                ("single_tag_awgn_primary".into(), 3.9),
                ("single_tag_awgn_closed_form".into(), 3.9),
                ("single_tag_awgn_anchor_err".into(), 0.0),
            ],
            spans: vec![],
        }
    }

    #[test]
    fn round_trip_report_verifies() {
        let json = base_report().to_json();
        parse_json(&json).unwrap();
        verify_report(&json).unwrap();
    }

    #[test]
    fn par_thread_names_parse() {
        assert_eq!(par_threads("ber_point_100kbit_par4_vs_serial"), Some(4));
        assert_eq!(
            par_threads("aloha_ensemble_128tags_x16_par16_vs_serial"),
            Some(16)
        );
        assert_eq!(par_threads("sweep_fanout_vs_pointwise"), None);
        assert_eq!(par_threads("something_par_vs_serial"), None);
    }

    #[test]
    fn numeric_par_row_beyond_core_count_is_rejected() {
        let mut r = base_report();
        r.speedups[1].1 = Some(0.739); // the PR 5 lie, restated
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("time-sliced"), "{err}");
    }

    #[test]
    fn null_without_reason_is_rejected() {
        let mut r = base_report();
        r.skipped.clear();
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("no entry in \"skipped\""), "{err}");
    }

    #[test]
    fn missing_gated_rows_are_rejected() {
        for row in NS_PER_BIT_REQUIRED {
            let mut r = base_report();
            r.ns_per_bit.retain(|(k, _)| k != row);
            let err = verify_report(&r.to_json()).unwrap_err();
            assert!(err.contains(row), "{row}: {err}");
        }
        let mut r = base_report();
        r.ns_per_bit[0].1 = 0.0; // a zero kernel cost is a broken bench
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("not a positive number"), "{err}");
    }

    #[test]
    fn missing_throughput_rows_are_rejected() {
        let mut r = base_report();
        r.throughput.clear();
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("_tags_per_sec"), "{err}");

        let mut r = base_report();
        r.throughput.remove(1); // keep tags_per_sec, drop events_per_sec
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("_events_per_sec"), "{err}");

        let mut r = base_report();
        r.throughput[0].1 = 0.0; // a throughput of zero is a broken bench
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("not a positive number"), "{err}");
    }

    #[test]
    fn missing_serving_section_is_rejected() {
        let mut r = base_report();
        r.serving.clear();
        // An empty serving object serializes as {} — still "present", so
        // the required-row check is what fires.
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("hit_p50_us"), "{err}");

        // A report with no serving key at all (pre-daemon schema).
        let json = base_report().to_json();
        let stripped = {
            let start = json.find("  \"serving\"").unwrap();
            let end = json[start..].find("},\n").unwrap() + start + 3;
            format!("{}{}", &json[..start], &json[end..])
        };
        let err = verify_report(&stripped).unwrap_err();
        assert!(err.contains("pre-daemon"), "{err}");
    }

    #[test]
    fn slow_hit_path_is_rejected() {
        let mut r = base_report();
        // Hit p99 = 4096 µs vs miss p50 = 8192 µs: less than 10× apart.
        r.serving[1].1 = Some(4096.0);
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("cache-first path has regressed"), "{err}");
    }

    #[test]
    fn low_cache_hit_ratio_is_rejected() {
        let mut r = base_report();
        r.serving[5].1 = Some(0.5); // the floor is exclusive
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("cache_hit_ratio"), "{err}");

        let mut r = base_report();
        r.serving[5].1 = Some(1.2); // a ratio above 1 is a broken counter
        assert!(verify_report(&r.to_json()).is_err());
    }

    /// A report from a multi-core host: the same fixture with the
    /// core-aware rows measured instead of skipped.
    fn multicore_report() -> Report {
        let mut r = base_report();
        r.available_cores = 4;
        r.speedups[1].1 = Some(2.9); // par4 ran for real
        r.speedups[2].1 = Some(3.1); // sweep fanout measured
        r.skipped.clear();
        r.serving[8].1 = Some(0.8); // scaling efficiency measured
        r
    }

    #[test]
    fn multicore_report_with_measured_sweep_rows_verifies() {
        verify_report(&multicore_report().to_json()).unwrap();
    }

    #[test]
    fn missing_sweep_serving_rows_are_rejected() {
        let mut r = base_report();
        r.serving.remove(7); // drop points_per_sec
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("points_per_sec"), "{err}");

        let mut r = base_report();
        r.serving.remove(8); // drop the scaling row entirely
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("serving_scaling_efficiency"), "{err}");
    }

    #[test]
    fn scaling_efficiency_on_one_core_must_be_skipped() {
        let mut r = base_report();
        r.serving[8].1 = Some(0.9); // numeric on a 1-core host: a lie
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("time-sliced"), "{err}");

        let mut r = base_report();
        // Null is fine, but only with a reason in `skipped`.
        r.skipped.retain(|(k, _)| k != "serving_scaling_efficiency");
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("no entry in \"skipped\""), "{err}");
    }

    #[test]
    fn scaling_efficiency_below_floor_is_rejected() {
        let mut r = multicore_report();
        r.serving[8].1 = Some(0.5); // 2 executors tying 1: not a win
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("extra executors bought nothing"), "{err}");
    }

    #[test]
    fn sweep_fanout_gate_holds_the_two_x_floor() {
        let mut r = multicore_report();
        r.speedups[2].1 = Some(1.4); // below the 2× bar
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("sweep_fanout_vs_pointwise"), "{err}");
        assert!(err.contains("below the 2 floor"), "{err}");

        let mut r = multicore_report();
        r.speedups.remove(2);
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("sweep-vs-pointwise trajectory"), "{err}");
    }

    #[test]
    fn sweep_fanout_on_one_core_must_be_skipped() {
        let mut r = base_report();
        r.speedups[2].1 = Some(2.5); // numeric fanout on a 1-core host
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("time-sliced"), "{err}");
    }

    #[test]
    fn missing_rate_region_section_is_rejected() {
        let mut r = base_report();
        r.rate_region.clear();
        // An empty rate_region object serializes as {} — still "present",
        // so the required-row check is what fires.
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("ns_per_trial"), "{err}");

        // A report with no rate_region key at all (pre-E29 schema).
        let json = base_report().to_json();
        let stripped = {
            let start = json.find("  \"rate_region\"").unwrap();
            let end = json[start..].find("},\n").unwrap() + start + 3;
            format!("{}{}", &json[..start], &json[end..])
        };
        let err = verify_report(&stripped).unwrap_err();
        assert!(err.contains("pre-E29"), "{err}");
    }

    #[test]
    fn drifted_rate_anchor_is_rejected() {
        let mut r = base_report();
        r.rate_region[3].1 = 1e-3; // way past fp accumulation error
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("closed-form pin"), "{err}");
    }

    #[test]
    fn zero_rate_kernel_cost_is_rejected() {
        let mut r = base_report();
        r.rate_region[0].1 = 0.0;
        let err = verify_report(&r.to_json()).unwrap_err();
        assert!(err.contains("ns_per_trial is not positive"), "{err}");
    }

    #[test]
    fn pre_core_aware_reports_are_rejected() {
        // The PR 5 shape: no available_cores, no skipped, no ns_per_bit.
        let old = r#"{"threads": 4, "benches": {"k": {"ns_per_iter": 1.0, "iters": 1}},
                      "speedups": {"a_par4_vs_serial": 0.739}, "spans": {}}"#;
        assert!(verify_report(old).is_err());
    }
}
