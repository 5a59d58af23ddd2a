//! `serve-sweep`: the daemon streaming `sweep` campaigns through a
//! byte-budgeted run cache.
//!
//! One connection sends 16-point `e05-ber` campaigns. Each goes out once
//! cold, then again [`LAG`] campaigns later, when its points have left the
//! [`MEMORY`]-point memory store but are still on disk under the
//! [`BUDGET`]. That interleaves cache writes (simulate → store → amortized
//! LRU eviction) with cache reads (disk replay), and exercises the
//! admission queue and the pool fan-out that `serve-hot` bypasses.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use mmtag_rf::rng::SeedTree;
use mmtag_sim::scenario::Scenario;
use mmtag_sim::serve::EngineConfig;

use crate::stats;
use crate::{ms, Ctx, Daemon, Outcome};

const SCENARIO: &str = "e05-ber";
/// Points per campaign (the request's `seeds`).
pub const CAMPAIGN_POINTS: u64 = 16;
const TRIALS: u64 = 10_000;
const SNR_POINTS: u64 = 8;
/// Campaigns between a campaign's cold send and its replay.
const LAG: usize = 4;
/// Memory-store capacity, points: below the `LAG · CAMPAIGN_POINTS`
/// reuse distance, so replays miss memory.
const MEMORY: usize = 32;
/// Run-cache byte budget: room for about six campaigns, so a replay
/// [`LAG`] campaigns later still finds its points on disk.
pub const BUDGET: u64 = 192 * 1024;

/// How much work one run does.
pub struct Plan {
    /// Timed cold campaigns.
    pub campaigns: usize,
}

/// Timed cold campaigns a run always makes, whatever `--seconds` says.
const MIN_CAMPAIGNS: usize = 2 * LAG;

impl Plan {
    /// Campaigns filling about `seconds` on the reference host (≈78 ms
    /// for a cold sweep and a replay). At 10 s that is over 100 cold
    /// sweeps, so their p90 has ten samples beyond it.
    pub fn for_seconds(seconds: u64) -> Plan {
        Plan {
            campaigns: (seconds as usize * 13).max(MIN_CAMPAIGNS),
        }
    }
}

/// Seed of campaign `c`'s first point; campaigns are disjoint seed ranges.
fn campaign_seed(seed: u64, c: usize) -> u64 {
    ((SeedTree::new(seed).seed_for("serve-sweep") >> 24) + c as u64) * CAMPAIGN_POINTS
}

/// The request line of campaign `c`, newline-terminated.
pub fn request(seed: u64, c: usize) -> String {
    format!(
        "{{\"id\":{c},\"op\":\"sweep\",\"scenario\":\"{SCENARIO}\",\"seeds\":{CAMPAIGN_POINTS},\
         \"seed\":{},\"trials\":{TRIALS},\"points\":{SNR_POINTS}}}\n",
        campaign_seed(seed, c)
    )
}

/// The scenario the daemon runs for campaign 0's first point.
pub fn point_scenario(seed: u64) -> Box<dyn Scenario> {
    let registry = mmtag_bench::scenarios::registry();
    let base = registry.get(SCENARIO).expect("e05-ber is registered");
    let spec = base
        .spec()
        .minimized(SNR_POINTS as usize, TRIALS as usize)
        .with_seed(campaign_seed(seed, 0));
    base.with_spec(spec)
}

/// A raw protocol connection: `Client::sweep_into` hands a stream back
/// only once it has ended, and the benchmark also times the first point.
pub struct Conn {
    reader: BufReader<UnixStream>,
}

/// When a sweep's request went out and its lines came back.
pub struct Arrivals {
    pub sent: Instant,
    pub first: Instant,
    pub end: Instant,
    pub points: usize,
}

impl Conn {
    pub fn connect(sock: &Path) -> io::Result<Conn> {
        Ok(Conn {
            reader: BufReader::new(UnixStream::connect(sock)?),
        })
    }

    /// Sends one `sweep` request and reads its whole stream into `out`.
    pub fn sweep(&mut self, request: &str, out: &mut String) -> io::Result<Arrivals> {
        out.clear();
        let sent = Instant::now();
        self.reader.get_mut().write_all(request.as_bytes())?;
        let mut first = None;
        let mut points = 0;
        loop {
            let start = out.len();
            if self.reader.read_line(out)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "sweep stream ended early",
                ));
            }
            let now = Instant::now();
            let first_at = *first.get_or_insert(now);
            if !out[start..].contains("\"op\":\"sweep_point\"") {
                return Ok(Arrivals {
                    sent,
                    first: first_at,
                    end: now,
                    points,
                });
            }
            points += 1;
        }
    }
}

/// Whether a stream ends in a summary line reporting no failed point.
fn summary_ok(stream: &str) -> bool {
    let last = stream.trim_end().rsplit('\n').next().unwrap_or("");
    last.contains("\"op\":\"sweep\"")
        && last.contains("\"ok\":true")
        && last.contains("\"failed\":0")
}

/// Wall times (ms) of `n` cold sweeps on a fresh daemon without a run
/// cache: the fan-out probe.
pub fn cold_sweeps(ctx: &mut Ctx, n: usize, out: &mut Outcome) -> Vec<f64> {
    let config = EngineConfig {
        job_threads: ctx.threads,
        ..EngineConfig::default()
    };
    let daemon = Daemon::start(&ctx.dir, "probe-sweep", config, None);
    let mut conn = Conn::connect(&daemon.sock).expect("connecting to the daemon");
    let mut buf = String::new();
    let mut wall = Vec::with_capacity(n);
    for c in 0..n {
        out.attempted += 1;
        match conn.sweep(&request(ctx.seed, c), &mut buf) {
            Ok(a) if summary_ok(&buf) => {
                ctx.trace.span("serve.sweep_cold", "", a.sent, a.end);
                wall.push(ms(a.sent, a.end));
            }
            Ok(_) => out.fail(format!("probe sweep {c} reported failed points")),
            Err(e) => out.fail(format!("probe sweep {c}: {e}")),
        }
    }
    drop(conn);
    daemon.stop();
    wall
}

pub fn run(ctx: &mut Ctx, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let config = EngineConfig {
        job_threads: ctx.threads,
        memory_capacity: MEMORY,
        ..EngineConfig::default()
    };
    let cache_dir = ctx.dir.join("sweep-cache");
    let daemon = Daemon::start(&ctx.dir, "sweep", config, Some((&cache_dir, BUDGET)));
    let mut conn = Conn::connect(&daemon.sock).expect("connecting to the daemon");
    // Warm-up: campaign 0, cold, so the pool and code are live and the
    // eviction cadence is in step before timing.
    let mut buf = String::new();
    out.attempted += 1;
    match conn.sweep(&request(ctx.seed, 0), &mut buf) {
        Ok(a) if a.points == CAMPAIGN_POINTS as usize && summary_ok(&buf) => {}
        Ok(_) => out.fail("warm-up sweep reported failed points"),
        Err(e) => out.fail(format!("warm-up sweep: {e}")),
    }
    let before = daemon.counts();
    let setup_s = ctx.start.elapsed().as_secs_f64();

    let mut cold_ms = Vec::with_capacity(plan.campaigns);
    let mut first_ms = Vec::with_capacity(plan.campaigns);
    let mut disk_ms = Vec::with_capacity(plan.campaigns);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut pending: VecDeque<(usize, String)> = VecDeque::new();
    let mut points = 0usize;
    let window = Instant::now();
    for c in 1..=plan.campaigns {
        if c > MIN_CAMPAIGNS && ctx.out_of_time() {
            break;
        }
        // A traced run alternates traced and untraced campaigns.
        let recording = c % 2 == 1;
        ctx.trace.pause(!recording);
        out.attempted += 1;
        match conn.sweep(&request(ctx.seed, c), &mut buf) {
            Ok(a) => {
                let wall = ms(a.sent, a.end);
                cold_ms.push(wall);
                first_ms.push(ms(a.sent, a.first));
                if recording {
                    traced.push(wall);
                } else {
                    untraced.push(wall);
                }
                points += a.points;
                ctx.trace.span("sweep.cold", "", a.sent, a.end);
                ctx.trace.span("sweep.first_point", "", a.sent, a.first);
                if a.points != CAMPAIGN_POINTS as usize || !summary_ok(&buf) {
                    out.fail(format!("cold sweep {c} reported failed points"));
                }
                pending.push_back((c, buf.clone()));
            }
            Err(e) => {
                out.fail(format!("cold sweep {c}: {e}"));
                break;
            }
        }
        if c > LAG {
            let (rc, cold) = pending.pop_front().expect("LAG campaigns are pending");
            out.attempted += 1;
            match conn.sweep(&request(ctx.seed, rc), &mut buf) {
                Ok(a) => {
                    disk_ms.push(ms(a.sent, a.end));
                    points += a.points;
                    ctx.trace.span("sweep.replay", "", a.sent, a.end);
                    if buf != cold {
                        out.fail(format!(
                            "replay of campaign {rc} differs from its cold stream"
                        ));
                    }
                }
                Err(e) => {
                    out.fail(format!("replay of campaign {rc}: {e}"));
                    break;
                }
            }
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    ctx.trace.pause(false);
    let counts = before.and_then(|before| Ok(daemon.counts()?.since(before)));
    let peak_rss_mb = daemon.peak_rss_mib();
    drop(conn);
    daemon.stop();

    let cold_points = cold_ms.len() as u64 * CAMPAIGN_POINTS;
    let replayed_points = disk_ms.len() as u64 * CAMPAIGN_POINTS;
    match counts {
        Ok(counts) if counts.sim_runs == cold_points && counts.disk_hits == replayed_points => {
            out.counts = Some(counts);
        }
        Ok(counts) => out.fail(format!(
            "the daemon counted {} simulations and {} disk hits; the schedule implies \
             {cold_points} and {replayed_points}",
            counts.sim_runs, counts.disk_hits
        )),
        Err(e) => out.fail(e),
    }

    let sorted = stats::sorted(&cold_ms);
    let n = sorted.len();
    let p50 = stats::quantile_sorted(&sorted, 0.5);
    let (tail_label, tail) = stats::tail(&sorted);
    let points_per_s = points as f64 / window_s;
    out.metric("setup_s", setup_s, "s", 1);
    out.metric("peak_rss_mb", peak_rss_mb, "MiB", 1);
    out.metric("op_p50_ms", p50, "ms", n);
    out.metric("op_tail_ms", tail, "ms", n);
    out.metric(
        "op_iqr_frac",
        stats::spread(&cold_ms).unwrap_or(f64::NAN),
        "ratio",
        n,
    );
    out.metric("throughput_per_s", points_per_s, "1/s", points);
    out.metric("sweep_cold_p50_ms", p50, "ms", n);
    out.metric(
        "sweep_cold_p90_ms",
        stats::quantile_sorted(&sorted, 0.9),
        "ms",
        n,
    );
    out.metric(
        "sweep_first_point_p50_ms",
        stats::median(&first_ms),
        "ms",
        first_ms.len(),
    );
    out.metric(
        "sweep_disk_p50_ms",
        stats::median(&disk_ms),
        "ms",
        disk_ms.len(),
    );
    out.metric("sweep_points_per_s", points_per_s, "1/s", points);
    if ctx.trace.on() {
        out.metric(
            "trace_overhead_frac",
            stats::overhead(&traced, &untraced),
            "ratio",
            n,
        );
    }
    out.detail("op", "one cold sweep, request to summary line");
    out.detail("op_tail", tail_label);
    out.detail("throughput", "sweep points streamed per second");
    out.detail(
        "campaigns",
        format!(
            "{} cold + {} replayed {LAG} campaigns later; {CAMPAIGN_POINTS} {SCENARIO} points each \
             (trials {TRIALS}, points {SNR_POINTS})",
            cold_ms.len(),
            disk_ms.len()
        ),
    );
    out.detail("cache_budget_bytes", BUDGET);
    out.detail("memory_capacity_points", MEMORY);
    out.detail("thread_budget", config.job_threads);
    out.detail("connections", 1);
    out.detail("executors", config.executors);
    out
}
