//! `repro-cold`: regenerate every table of the paper from cold.
//!
//! Every registry scenario runs at its published default size through
//! `Runner::with_threads(nproc)` with no run cache, each pass reseeding
//! every scenario from the workload seed — what a user regenerating the
//! paper's tables waits for. The compute layers (rf, phy, channel, mac,
//! sim.scenario) do the work; the cache and serve layers do none.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mmtag_rf::rng::SeedTree;
use mmtag_sim::scenario::{Runner, Scenario};

use crate::stats;
use crate::trace::Trace;
use crate::{Ctx, Outcome};

/// Scenarios whose cold run takes at least 2 ms on the 2-core reference
/// host. Each has its own `runner.<name>_ms` per-layer row; the others
/// share `runner.rest_ms`.
pub const TIMED_SCENARIOS: [&str; 14] = [
    "e05-ber",
    "e13-spectrum",
    "e15-fading",
    "e16-bpsk",
    "e19-acquisition",
    "e20-pulse",
    "e21-capture",
    "e24-gen2",
    "e26-cancellation",
    "e27-city-density",
    "e28-city-mobility",
    "e29-rate-region",
    "e30-rate-vs-tags",
    "e31-rate-vs-states",
];

/// The set-up's warm-up pass: every scenario at smoke size (axes of at
/// most 2 points, at most 100 trials), so code pages, lazy tables and pool
/// workers are live before the first timed pass.
const WARM_UP: (usize, usize) = (2, 100);

/// How much work one run does.
pub struct Plan {
    /// Timed passes over the registry.
    pub passes: usize,
}

/// Timed passes a run always makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

impl Plan {
    /// Passes filling about `seconds` on the reference host (≈2.2 s
    /// each at two threads).
    pub fn for_seconds(seconds: u64) -> Plan {
        Plan {
            passes: (seconds as usize * 5).div_ceil(11).max(MIN_PASSES),
        }
    }
}

/// The registry with every scenario reseeded from the workload seed.
pub fn scenarios(seed: u64, minimized: Option<(usize, usize)>) -> Vec<Box<dyn Scenario>> {
    let tree = SeedTree::new(seed).subtree("repro-cold");
    mmtag_bench::scenarios::registry()
        .iter()
        .map(|s| {
            let mut spec = s.spec().clone().with_seed(tree.seed_for(&s.spec().name));
            if let Some((points, trials)) = minimized {
                spec = spec.minimized(points, trials);
            }
            s.with_spec(spec)
        })
        .collect()
}

/// One pass over the scenarios.
pub struct Pass {
    /// `Runner::run` wall time per scenario, ms.
    pub ms: Vec<f64>,
    /// Per scenario, the FNV-1a digest of each rendered table (none if it
    /// panicked).
    pub digests: Vec<Vec<u64>>,
    /// Scenarios that panicked.
    pub panicked: Vec<String>,
}

/// Runs every scenario once through a cache-less runner at `threads`,
/// rendering and digesting its tables, with one span per `Runner::run`.
pub fn pass(scenarios: &[Box<dyn Scenario>], threads: usize, trace: &mut Trace) -> Pass {
    let runner = Runner::with_threads(threads);
    let mut pass = Pass {
        ms: Vec::with_capacity(scenarios.len()),
        digests: Vec::with_capacity(scenarios.len()),
        panicked: Vec::new(),
    };
    for s in scenarios {
        let name = s.spec().name.as_str();
        let t0 = Instant::now();
        let record = catch_unwind(AssertUnwindSafe(|| runner.run(&**s)));
        let t1 = Instant::now();
        trace.span("runner.run", name, t0, t1);
        pass.ms.push(crate::ms(t0, t1));
        match record {
            Ok(record) => pass.digests.push(
                record
                    .tables
                    .iter()
                    .map(|t| fnv1a(t.render().as_bytes()))
                    .collect(),
            ),
            Err(_) => {
                pass.digests.push(Vec::new());
                pass.panicked.push(name.to_string());
            }
        }
    }
    pass
}

/// The runner leaves each run's metrics in the process-wide obs log;
/// draining it between passes starts every pass from the same state, as a
/// fresh process would.
pub fn drain_obs() {
    mmtag_sim::obs::drain();
}

/// One pass at one thread in a fresh process — this binary re-run as
/// `--serial-pass <seed>` under `MMTAG_THREADS=1`, which also serializes
/// the scenarios that size their own parallel loops — and that process's
/// peak resident memory, MiB. Allocation at one thread is deterministic,
/// so the peak repeats; at nproc threads it moves by megabytes with which
/// thread's heap each buffer lands in.
fn serial_pass(seed: u64, scenarios: usize) -> Result<(Pass, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .args(["--serial-pass", &seed.to_string()])
        .env("MMTAG_THREADS", "1")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let mut pass = Pass {
        ms: Vec::new(),
        digests: Vec::with_capacity(scenarios),
        panicked: Vec::new(),
    };
    let mut peak_rss_mb = None;
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        let Some(name) = words.next() else { continue };
        if name == "peak_rss_mb" {
            peak_rss_mb = words.next().and_then(|v| v.parse::<f64>().ok());
            continue;
        }
        let digests: Vec<&str> = words.collect();
        if digests == ["panicked"] {
            pass.panicked.push(name.to_string());
            pass.digests.push(Vec::new());
        } else {
            let parsed: Result<Vec<u64>, _> =
                digests.iter().map(|d| u64::from_str_radix(d, 16)).collect();
            pass.digests
                .push(parsed.map_err(|e| format!("{line}: {e}"))?);
        }
    }
    match peak_rss_mb {
        Some(peak) if child.status.success() && pass.digests.len() == scenarios => Ok((pass, peak)),
        _ => Err(format!("the child process ended with {}", child.status)),
    }
}

/// The child side of [`serial_pass`]: prints one line per scenario, its
/// name and then its tables' digests or `panicked`, and last the
/// process's peak resident memory.
pub fn serial_main(args: &[String]) -> ExitCode {
    let Some(seed) = args.first().and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("perfbench: bad --serial-pass arguments {args:?}");
        return ExitCode::from(2);
    };
    let scen = scenarios(seed, None);
    let result = pass(&scen, 1, &mut Trace::new(false));
    let mut text = String::new();
    for (s, digests) in scen.iter().zip(&result.digests) {
        let name = &s.spec().name;
        text.push_str(name);
        if result.panicked.contains(name) {
            text.push_str(" panicked");
        }
        for d in digests {
            let _ = write!(text, " {d:016x}");
        }
        text.push('\n');
    }
    let _ = writeln!(
        text,
        "peak_rss_mb {}",
        crate::peak_rss_mib("/proc/self/status")
    );
    print!("{text}");
    ExitCode::SUCCESS
}

/// 64-bit FNV-1a: the digest recorded for every rendered table.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checks a pass against the first: nothing panicked and every table
/// renders to the same bytes.
fn check(
    out: &mut Outcome,
    scenarios: &[Box<dyn Scenario>],
    pass: &Pass,
    first: &mut Option<Vec<Vec<u64>>>,
    what: &str,
) {
    for name in &pass.panicked {
        out.fail(format!("{name} panicked ({what})"));
    }
    match first {
        None => *first = Some(pass.digests.clone()),
        Some(first) => {
            for ((s, a), b) in scenarios.iter().zip(first.iter()).zip(&pass.digests) {
                if a != b {
                    out.fail(format!(
                        "{} tables differ from the first pass ({what})",
                        s.spec().name
                    ));
                }
            }
        }
    }
}

pub fn run(ctx: &mut Ctx, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    mmtag_rf::pool::ensure_workers(ctx.threads.saturating_sub(1));
    let warm = scenarios(ctx.seed, Some(WARM_UP));
    let warm_pass = pass(&warm, ctx.threads, &mut ctx.trace);
    drain_obs();
    out.attempted += warm.len() as u64;
    for name in &warm_pass.panicked {
        out.fail(format!("{name} panicked in the warm-up pass"));
    }
    let setup_s = ctx.start.elapsed().as_secs_f64();

    let mut first = None;
    let mut pass_ms = Vec::with_capacity(plan.passes);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut scenario_runs = 0;
    let window = Instant::now();
    for p in 0..plan.passes {
        if p >= MIN_PASSES && ctx.out_of_time() {
            break;
        }
        // A traced run alternates traced and untraced passes.
        ctx.trace.pause(p % 2 == 1);
        let t0 = Instant::now();
        let scen = scenarios(ctx.seed, None);
        let result = pass(&scen, ctx.threads, &mut ctx.trace);
        let t1 = Instant::now();
        ctx.trace.span("repro.pass", "", t0, t1);
        drain_obs();
        let ms = crate::ms(t0, t1);
        pass_ms.push(ms);
        if p % 2 == 0 {
            traced.push(ms);
        } else {
            untraced.push(ms);
        }
        scenario_runs += scen.len();
        out.attempted += scen.len() as u64;
        check(&mut out, &scen, &result, &mut first, "timed pass");
    }
    let window_s = window.elapsed().as_secs_f64();
    ctx.trace.pause(false);

    // The determinism contract: a fully serial pass, in a fresh process,
    // renders the same tables.
    let scen = scenarios(ctx.seed, None);
    out.attempted += scen.len() as u64;
    let peak_rss_mb = match serial_pass(ctx.seed, scen.len()) {
        Ok((serial, peak_rss_mb)) => {
            check(&mut out, &scen, &serial, &mut first, "1-thread pass");
            peak_rss_mb
        }
        Err(e) => {
            out.fail(format!("1-thread pass: {e}"));
            f64::NAN
        }
    };

    if let Some(digests) = &first {
        for (s, tables) in scen.iter().zip(digests) {
            for (k, h) in tables.iter().enumerate() {
                out.detail(format!("digest.{}#{k}", s.spec().name), format!("{h:016x}"));
            }
        }
    }
    let sorted = stats::sorted(&pass_ms);
    let p50 = stats::quantile_sorted(&sorted, 0.5);
    let (tail_label, tail) = stats::tail(&sorted);
    out.metric("setup_s", setup_s, "s", 1);
    out.metric("peak_rss_mb", peak_rss_mb, "MiB", 1);
    out.metric("op_p50_ms", p50, "ms", sorted.len());
    out.metric("op_tail_ms", tail, "ms", sorted.len());
    out.metric(
        "op_iqr_frac",
        stats::spread(&pass_ms).unwrap_or(f64::NAN),
        "ratio",
        sorted.len(),
    );
    out.metric(
        "throughput_per_s",
        scenario_runs as f64 / window_s,
        "1/s",
        scenario_runs,
    );
    out.metric("repro_pass_s", p50 / 1e3, "s", sorted.len());
    if ctx.trace.on() {
        out.metric(
            "trace_overhead_frac",
            stats::overhead(&traced, &untraced),
            "ratio",
            sorted.len(),
        );
    }
    out.detail("op", "one cold pass over every registry scenario");
    out.detail("op_tail", tail_label);
    out.detail("throughput", "scenario runs per second");
    out.detail(
        "peak_rss",
        "peak resident memory of a fresh process making one pass at one thread",
    );
    out.detail("scenarios", scen.len());
    out.detail("passes", pass_ms.len());
    out.detail("thread_budget", ctx.threads);
    out.detail("connections", 0);
    out.detail("executors", 0);
    out.detail("run_cache", "none");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
