//! The mmTag repository benchmark: one command, three workloads, every
//! metric by name with its unit and sample count.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro-cold|serve-hot|serve-sweep> --seed <n> --seconds <1-60> --trace <0|1>
//! ```
//!
//! | workload | what a user waits for | layers doing the work |
//! |---|---|---|
//! | `repro-cold` | every table of the paper regenerated: 31 registry scenarios, no run cache | rf, phy, channel, mac, sim.scenario |
//! | `serve-hot` | a warm daemon answering run/query requests from memory | sim.serve: scan, interpolate, format, socket |
//! | `serve-sweep` | streamed sweep campaigns, cold, then replayed from a byte-budgeted disk cache | sim.serve, sim.cache, rf.pool, phy |
//!
//! `BENCHMARK.json` gates `repro-cold` and `serve-sweep`. `serve-hot`
//! stays runnable, and its engine and transport probes run in every
//! traced run, but it is not gated: on the 2-core reference host its
//! median request moved between ≈8 and ≈12 µs with the host's load from
//! one set of runs to the next, beyond any bound the benchmark may set.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the same workload with the benchmark's own spans
//! around its calls into the program, alternating traced and untraced
//! stretches to measure the overhead; it then times every layer's public
//! entry point on inputs drawn from the same seed ([`layers`]) and
//! reports the per-layer metrics. Its spans are written as Chrome-trace
//! JSON to `<target dir>/perfbench/trace-<workload>.json`.
//!
//! The serving workloads run the daemon (`Server::builder`) in a child
//! process — this binary re-run as `--daemon` — so `peak_rss_mb` is the
//! daemon's own and the load generator's sample buffers stay out of it.
//!
//! Work is sized from `--seconds` (calibrated on a 2-core host) instead
//! of being cut off by a clock, so every count a run reports repeats
//! exactly for a given seed; only on a host much slower does a run stop
//! early, at twice `--seconds`. The last stdout line is
//! the result object; the line before it records every metric with its
//! sample count, the host (nproc, thread budget, connections, executors,
//! commit), the workload shape and the table digests. A failed output
//! check counts in `failed` and makes the command exit non-zero.
//!
//! Tests: `cargo test --release --manifest-path perfbench/Cargo.toml`.

mod hot;
mod layers;
mod repro;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mmtag_sim::cache::{CachePolicy, RunCache};
use mmtag_sim::json::{parse_json, Json};
use mmtag_sim::serve::{Client, EngineConfig, Server};

use stats::Metric;
use trace::Trace;

/// End-to-end metrics in `BENCHMARK.json` order, printed by `--trace 0`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "op_p50_ms",
    "op_tail_ms",
    "throughput_per_s",
];

/// A run stops adding work once it has taken this many times `--seconds`.
const DEADLINE_FACTOR: u32 = 2;

const USAGE: &str = "usage: mmtag-perfbench --workload <repro-cold|serve-hot|serve-sweep> \
                     --seed <n> [--seconds <1-60>] [--trace <0|1>]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ReproCold,
    ServeHot,
    ServeSweep,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "repro-cold" => Some(Workload::ReproCold),
            "serve-hot" => Some(Workload::ServeHot),
            "serve-sweep" => Some(Workload::ServeSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReproCold => "repro-cold",
            Workload::ServeHot => "serve-hot",
            Workload::ServeSweep => "serve-sweep",
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed '{value}'"))?,
                );
            }
            "--seconds" => {
                seconds = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds must be 1-60, got '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                };
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What every workload gets: its seed, the host's thread budget, a
/// scratch directory, the span recorder and its clock.
pub struct Ctx {
    pub seed: u64,
    /// `available_parallelism`: the runner, job and pool thread budget.
    pub threads: usize,
    /// This run's scratch directory (sockets, cache directories); removed
    /// when the run ends.
    pub dir: PathBuf,
    pub trace: Trace,
    /// Process start: `setup_s` runs from here to the first timed
    /// operation.
    pub start: Instant,
    deadline: Instant,
}

impl Ctx {
    fn new(args: &Args, start: Instant) -> Ctx {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        Ctx {
            seed: args.seed,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            dir,
            trace: Trace::new(args.trace),
            start,
            deadline: start + Duration::from_secs(args.seconds) * DEADLINE_FACTOR,
        }
    }

    /// Whether the run has used up its time; the timed loops check it
    /// only after their minimum work.
    pub fn out_of_time(&self) -> bool {
        Instant::now() > self.deadline
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Daemon counters, from its `status` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub memory_hits: u64,
    pub disk_hits: u64,
    pub sim_runs: u64,
    pub dedup_joined: u64,
    pub rejected: u64,
    /// Run-cache entries the lifecycle policy evicted.
    pub evicted: u64,
}

impl Counts {
    /// The counters' growth since `before`.
    pub fn since(self, before: Counts) -> Counts {
        Counts {
            memory_hits: self.memory_hits - before.memory_hits,
            disk_hits: self.disk_hits - before.disk_hits,
            sim_runs: self.sim_runs - before.sim_runs,
            dedup_joined: self.dedup_joined - before.dedup_joined,
            rejected: self.rejected - before.rejected,
            evicted: self.evicted - before.evicted,
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted; failed operations and failed output checks.
    pub attempted: u64,
    pub failed: u64,
    /// Workload shape, host facts and table digests, recorded with the
    /// result.
    pub detail: Vec<(String, String)>,
    /// Daemon counters over the timed window; `None` when no daemon runs.
    pub counts: Option<Counts>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric::new(name, value, unit, n));
    }

    pub fn detail(&mut self, key: impl Into<String>, value: impl ToString) {
        self.detail.push((key.into(), value.to_string()));
    }

    /// Counts a failed operation or output check; the first few are also
    /// reported on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// An `mmtag serve` daemon on a Unix socket, in a child process.
pub struct Daemon {
    child: Child,
    /// Held open while the daemon runs: the child exits when it closes,
    /// so a benchmark that dies never leaves a daemon behind.
    _stdin: Option<ChildStdin>,
    pub sock: PathBuf,
}

impl Daemon {
    /// Starts a daemon with `config` and, if given, a run cache at
    /// `cache.0` under a `cache.1`-byte budget; returns once it listens.
    pub fn start(
        dir: &Path,
        name: &str,
        config: EngineConfig,
        cache: Option<(&Path, u64)>,
    ) -> Daemon {
        let sock = dir.join(format!("{name}.sock"));
        let exe = std::env::current_exe().expect("locating the benchmark binary");
        let mut cmd = Command::new(exe);
        cmd.arg("--daemon").arg(&sock).args(
            [
                config.executors,
                config.job_threads,
                config.queue_capacity,
                config.memory_capacity,
            ]
            .map(|v| v.to_string()),
        );
        if let Some((cache_dir, budget)) = cache {
            cmd.arg(cache_dir).arg(budget.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawning the daemon");
        let stdin = child.stdin.take();
        let mut ready = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let _ = BufReader::new(stdout).read_line(&mut ready);
        let daemon = Daemon {
            child,
            _stdin: stdin,
            sock,
        };
        assert_eq!(
            ready.trim(),
            "ready",
            "the daemon on {} did not start",
            daemon.sock.display()
        );
        daemon
    }

    /// The daemon's counters, from its `status` op.
    pub fn counts(&self) -> Result<Counts, String> {
        let line = Client::connect_unix(&self.sock)
            .and_then(|mut c| c.roundtrip("{\"id\":0,\"op\":\"status\"}"))
            .map_err(|e| format!("status: {e}"))?;
        let status = parse_json(&line).map_err(|e| format!("status: {e}"))?;
        let n = |key: &str| {
            status
                .get(key)
                .and_then(Json::as_num)
                .map(|v| v as u64)
                .ok_or_else(|| format!("status has no '{key}': {line}"))
        };
        Ok(Counts {
            memory_hits: n("memory_hits")?,
            disk_hits: n("disk_hits")?,
            sim_runs: n("sim_runs")?,
            dedup_joined: n("dedup_joined")?,
            rejected: n("rejected")?,
            evicted: n("cache_evicted")?,
        })
    }

    /// Peak resident memory of the daemon process so far, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to shut down and waits until it has exited.
    pub fn stop(mut self) {
        let _ = Client::connect_unix(&self.sock)
            .and_then(|mut c| c.roundtrip("{\"id\":0,\"op\":\"shutdown\"}"));
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The child side of [`Daemon::start`]: `--daemon <socket> <executors>
/// <job threads> <queue capacity> <memory capacity> [<cache dir> <byte
/// budget>]`. Serves until a `shutdown` request or until its stdin closes.
fn daemon_main(args: &[String]) -> ExitCode {
    let num = |i: usize| args.get(i).and_then(|s| s.parse::<usize>().ok());
    let (Some(sock), Some(executors), Some(job_threads), Some(queue_capacity), Some(memory)) =
        (args.first(), num(1), num(2), num(3), num(4))
    else {
        eprintln!("perfbench: bad --daemon arguments {args:?}");
        return ExitCode::from(2);
    };
    let config = EngineConfig {
        executors,
        job_threads,
        queue_capacity,
        memory_capacity: memory,
    };
    let mut builder = Server::builder(mmtag_bench::scenarios::registry())
        .config(config)
        .unix(sock);
    if let (Some(dir), Some(budget)) = (args.get(5), num(6)) {
        builder = builder.cache(RunCache::at(dir).with_policy(CachePolicy {
            max_bytes: Some(budget as u64),
            max_age: None,
        }));
    }
    let server = match builder.start() {
        Ok(server) => server,
        Err(e) => {
            eprintln!("perfbench: starting the daemon on {sock}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("ready");
    // Ends the process when the benchmark goes away without stopping it.
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        std::process::exit(1);
    });
    server.join();
    ExitCode::SUCCESS
}

/// A Linux `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to one CPU, the first it may run on, until
/// dropped; a daemon started meanwhile inherits the pin. A closed-loop
/// ping-pong left to the scheduler flips, run by run, between a same-core
/// handoff (≈12 µs per request on the 2-core reference host) and a
/// cross-core wakeup (≈20 µs); pinned, every request is the same-core
/// handoff.
pub struct Pin {
    saved: Option<CpuSet>,
    pub cpu: Option<usize>,
}

impl Pin {
    pub fn first_cpu() -> Pin {
        let size = std::mem::size_of::<CpuSet>();
        let mut saved: CpuSet = [0; 16];
        // SAFETY: `saved` is a writable buffer of `size` bytes; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut saved) } != 0 {
            return Pin {
                saved: None,
                cpu: None,
            };
        }
        let Some(word) = saved.iter().position(|&w| w != 0) else {
            return Pin {
                saved: None,
                cpu: None,
            };
        };
        let bit = saved[word].trailing_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a readable buffer of `size` bytes.
        let pinned = unsafe { sched_setaffinity(0, size, &one) } == 0;
        Pin {
            saved: pinned.then_some(saved),
            cpu: pinned.then_some(word * 64 + bit),
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(saved) = &self.saved {
            // SAFETY: `saved` is a readable buffer of a `CpuSet`'s size.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), saved) };
        }
    }
}

/// Milliseconds from `a` to `b`.
pub fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// Where runs keep sockets, cache directories and trace files:
/// `$CARGO_TARGET_DIR/perfbench`, else `perfbench/target/perfbench` —
/// relative to the working directory when it lies below it, because a
/// Unix socket path must stay under ~100 bytes.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let relative = std::env::current_dir()
        .ok()
        .and_then(|cwd| target.strip_prefix(cwd).ok().map(Path::to_path_buf));
    relative.unwrap_or(target).join("perfbench")
}

/// Peak resident memory (`VmHWM`) from a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mib(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory (no
/// git process, nothing outside the checkout); "unknown" elsewhere.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    mmtag_sim::json::escape_into(&mut out, s);
    out.push('"');
    out
}

/// A JSON number with every digit of Rust's shortest round-trip form;
/// non-finite values (a failed run) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The record line: every metric with its unit and sample count, the
/// error fraction, host facts, workload shape and digests.
fn detail_line(args: &Args, out: &Outcome) -> String {
    let error_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let mut s = format!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"attempted\":{},\"failed\":{},\"error_frac\":{},\"detail\":{{",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted,
        out.failed,
        json_num(error_frac)
    );
    for (i, (k, v)) in out.detail.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}:{}", json_str(k), json_str(v));
    }
    s.push_str("},\"metrics\":{");
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"value\":{},\"unit\":{},\"n\":{}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit),
            m.n
        );
    }
    s.push_str("}}}");
    s
}

/// The result line the benchmark contract reads.
fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--daemon") => return daemon_main(&argv[1..]),
        Some("--serial-pass") => return repro::serial_main(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(&args, start);
    let mut out = match args.workload {
        Workload::ReproCold => repro::run(&mut ctx, &repro::Plan::for_seconds(args.seconds)),
        Workload::ServeHot => hot::run(&mut ctx, &hot::Plan::for_seconds(args.seconds)),
        Workload::ServeSweep => sweep::run(&mut ctx, &sweep::Plan::for_seconds(args.seconds)),
    };
    let names: &[&str] = if args.trace {
        layers::probe(&mut ctx, &mut out);
        let path = out_dir().join(format!("trace-{}.json", args.workload.name()));
        match ctx.trace.write_chrome(&path) {
            Ok(()) => out.detail("trace_file", path.display()),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
        layers::PER_LAYER
    } else {
        &END_TO_END
    };
    out.detail("nproc", ctx.threads);
    out.detail("commit", git_commit());
    let mut reported = Vec::with_capacity(names.len());
    for &name in names {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("the workload produced no '{name}' metric"))
            .clone();
        if !m.value.is_finite() {
            out.fail(format!("metric {name} is not a number"));
        }
        reported.push(m);
    }
    println!("{}", detail_line(&args, &out));
    println!("{}", result_line(&out, &reported));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve-hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ServeHot,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "repro-cold", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "repro-cold", "--seed", "1", "--trace", "2"]).is_err());
    }

    #[test]
    fn counts_subtract_field_by_field() {
        let before = Counts {
            memory_hits: 1,
            disk_hits: 2,
            sim_runs: 3,
            dedup_joined: 0,
            rejected: 0,
            evicted: 4,
        };
        let after = Counts {
            memory_hits: 11,
            disk_hits: 22,
            sim_runs: 33,
            dedup_joined: 0,
            rejected: 1,
            evicted: 44,
        };
        let d = after.since(before);
        assert_eq!((d.memory_hits, d.disk_hits, d.sim_runs), (10, 20, 30));
        assert_eq!((d.rejected, d.evicted), (1, 40));
    }
}
