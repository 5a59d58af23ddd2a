//! `serve-hot`: a warm `mmtag serve` daemon answering a seeded run/query
//! log entirely from its memory store.
//!
//! A daemon with the default `EngineConfig` listens on a Unix socket;
//! before timing, its memory store is warmed with every spec the
//! log names. The load is a closed loop over one connection — clients
//! wait for each reply — so request scanning, interpolation,
//! response formatting and the socket do all the work, and the kernels,
//! the pool and the disk cache do none. The load generator and the daemon
//! are pinned to one CPU ([`Pin`]), so a request costs a same-core handoff
//! on every run rather than whatever the scheduler picks.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mmtag_rf::rng::{Rng, SeedTree};
use mmtag_sim::serve::{Client, Engine, EngineConfig};

use crate::stats;
use crate::{Ctx, Daemon, Outcome, Pin};

/// Every spec in the pool is a cheap `e05-ber` run, so warm-up is quick.
const SCENARIO: &str = "e05-ber";
const TRIALS: u64 = 20_000;
const POINTS: u64 = 8;
/// Specs in the pool.
const SPECS: usize = 8;
/// Distinct query positions per spec.
const XS_PER_SPEC: usize = 255;
/// Share of `run` requests, percent; the rest are `query`.
const RUN_PERCENT: u64 = 20;
/// Untimed requests replayed before the window.
const WARM_REQUESTS: usize = 20_000;
/// Requests per traced or untraced stretch of a traced run, and between
/// checks of the run's deadline.
const BLOCK: usize = 4_096;

/// How much work one run does.
pub struct Plan {
    /// Timed requests, after [`WARM_REQUESTS`] untimed ones.
    pub requests: usize,
}

impl Plan {
    /// Requests filling about `seconds` on the reference host (≈14 µs
    /// each).
    pub fn for_seconds(seconds: u64) -> Plan {
        Plan {
            requests: seconds as usize * 70_000,
        }
    }
}

/// The seeded request log.
pub struct Log {
    /// Every distinct request line; line `i` carries `"id":i`.
    pub lines: Vec<String>,
    /// Whether line `i` is a `run` (else a `query`).
    pub is_run: Vec<bool>,
    /// Send order, as indices into `lines`.
    pub order: Vec<u32>,
}

/// Generates the log from `seed`: [`SPECS`] specs, each with one `run`
/// line and [`XS_PER_SPEC`] `query` lines, and `requests` draws over them
/// — [`RUN_PERCENT`]% runs, specs and positions uniform.
pub fn log(seed: u64, requests: usize) -> Log {
    let mut rng = SeedTree::new(seed).rng("serve-hot");
    let mut lines = Vec::with_capacity(SPECS * (1 + XS_PER_SPEC));
    let mut is_run = Vec::with_capacity(SPECS * (1 + XS_PER_SPEC));
    for _ in 0..SPECS {
        let spec_seed = rng.next_u64() >> 24;
        let common = format!(
            "\"scenario\":\"{SCENARIO}\",\"seed\":{spec_seed},\"trials\":{TRIALS},\"points\":{POINTS}"
        );
        lines.push(format!(
            "{{\"id\":{},\"op\":\"run\",{common}}}",
            lines.len()
        ));
        is_run.push(true);
        for _ in 0..XS_PER_SPEC {
            // Inside the spec's 0–14 dB axis, three decimals.
            let x = (rng.f64() * 14_000.0).floor() / 1_000.0;
            lines.push(format!(
                "{{\"id\":{},\"op\":\"query\",{common},\"x\":{x}}}",
                lines.len()
            ));
            is_run.push(false);
        }
    }
    let order = (0..requests)
        .map(|_| {
            let spec = rng.index(SPECS);
            let k = if rng.below(100) < RUN_PERCENT {
                0
            } else {
                1 + rng.index(XS_PER_SPEC)
            };
            (spec * (1 + XS_PER_SPEC) + k) as u32
        })
        .collect();
    Log {
        lines,
        is_run,
        order,
    }
}

/// The log's `run` lines, or its `query` lines.
pub fn lines_of(log: &Log, run: bool) -> Vec<&str> {
    log.lines
        .iter()
        .zip(&log.is_run)
        .filter(|&(_, &r)| r == run)
        .map(|(line, _)| line.as_str())
        .collect()
}

/// `Engine::handle_line`'s own answer to every distinct line — inline
/// mode, no sockets, trimmed as `Client` returns it — and the engine,
/// warmed with every spec.
pub fn oracle(log: &Log) -> (Engine, Vec<String>) {
    let config = EngineConfig {
        executors: 0,
        ..EngineConfig::default()
    };
    let engine = Engine::new(Arc::new(mmtag_bench::scenarios::registry()), None, config);
    let mut buf = String::new();
    for line in lines_of(log, true) {
        buf.clear();
        engine.handle_line(line, &mut buf);
    }
    let expected = log
        .lines
        .iter()
        .map(|line| {
            buf.clear();
            engine.handle_line(line, &mut buf);
            buf.trim_end_matches(['\r', '\n']).to_string()
        })
        .collect();
    (engine, expected)
}

/// Fills a daemon's memory store: one `run` per spec in the pool.
pub fn warm(sock: &Path, log: &Log, out: &mut Outcome) {
    let mut client = Client::connect_unix(sock).expect("connecting to the daemon");
    let mut resp = String::new();
    for line in lines_of(log, true) {
        resp.clear();
        out.attempted += 1;
        match client.roundtrip_into(line, &mut resp) {
            Ok(()) if resp.contains("\"ok\":true") => {}
            Ok(()) => out.fail(format!("warm-up run refused: {resp}")),
            Err(e) => out.fail(format!("warm-up run: {e}")),
        }
    }
}

/// Sends the log in order, closed loop over one connection, and checks
/// every response byte for byte against `expected`. Returns each
/// request's latency in ns, from writing the request to holding the full
/// response line; stops early, at a block boundary, once the run is out
/// of time. While the trace records, every request gets a span; with
/// `alternate`, every second block of [`BLOCK`] requests goes unrecorded.
pub fn replay(
    ctx: &mut Ctx,
    sock: &Path,
    log: &Log,
    order: &[u32],
    expected: &[String],
    out: &mut Outcome,
    alternate: bool,
) -> Vec<f64> {
    let mut latency = Vec::with_capacity(order.len());
    let mut resp = String::new();
    let mut client: Option<Client> = None;
    for (i, &li) in order.iter().enumerate() {
        if i % BLOCK == 0 {
            if i > 0 && ctx.out_of_time() {
                break;
            }
            if alternate {
                ctx.trace.pause((i / BLOCK) % 2 == 1);
            }
        }
        if client.is_none() {
            match Client::connect_unix(sock) {
                Ok(c) => client = Some(c),
                Err(e) => {
                    out.fail(format!("connecting to the daemon: {e}"));
                    break;
                }
            }
        }
        let c = client.as_mut().expect("connected above");
        let li = li as usize;
        resp.clear();
        let t0 = Instant::now();
        let result = c.roundtrip_into(&log.lines[li], &mut resp);
        let t1 = Instant::now();
        let name = if log.is_run[li] {
            "serve.run"
        } else {
            "serve.query"
        };
        ctx.trace.span(name, "", t0, t1);
        latency.push((t1 - t0).as_nanos() as f64);
        out.attempted += 1;
        match result {
            Ok(()) if resp == expected[li] => {}
            Ok(()) => out.fail(format!(
                "response to log line {li} differs from Engine::handle_line"
            )),
            Err(e) => {
                out.fail(format!("request {i}: {e}"));
                client = None;
            }
        }
    }
    if alternate {
        ctx.trace.pause(false);
    }
    latency
}

pub fn run(ctx: &mut Ctx, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let log = log(ctx.seed, WARM_REQUESTS + plan.requests);
    let (_, expected) = oracle(&log);
    for (i, e) in expected.iter().enumerate() {
        if !e.contains("\"ok\":true") {
            out.fail(format!("Engine::handle_line refuses log line {i}: {e}"));
        }
    }
    // The load generator and the whole daemon share one CPU.
    let pin = Pin::first_cpu();
    let config = EngineConfig::default();
    let daemon = Daemon::start(&ctx.dir, "hot", config, None);
    warm(&daemon.sock, &log, &mut out);
    let (warm_order, timed_order) = log.order.split_at(WARM_REQUESTS);
    ctx.trace.pause(true);
    replay(
        ctx,
        &daemon.sock,
        &log,
        warm_order,
        &expected,
        &mut out,
        false,
    );
    ctx.trace.pause(false);
    let before = daemon.counts();
    let setup_s = ctx.start.elapsed().as_secs_f64();

    let window = Instant::now();
    let mut latency = replay(
        ctx,
        &daemon.sock,
        &log,
        timed_order,
        &expected,
        &mut out,
        true,
    );
    let window_s = window.elapsed().as_secs_f64();
    let counts = before.and_then(|before| Ok(daemon.counts()?.since(before)));
    let peak_rss_mb = daemon.peak_rss_mib();
    daemon.stop();
    let pinned_cpu = pin.cpu;
    drop(pin);
    match counts {
        Ok(counts) if counts.memory_hits == latency.len() as u64 => out.counts = Some(counts),
        Ok(counts) => out.fail(format!(
            "{} of {} timed requests were memory-store hits",
            counts.memory_hits,
            latency.len()
        )),
        Err(e) => out.fail(e),
    }

    let trace_overhead = ctx.trace.on().then(|| {
        let mut halves = [Vec::new(), Vec::new()];
        for (i, &l) in latency.iter().enumerate() {
            halves[(i / BLOCK) % 2].push(l);
        }
        stats::overhead(&halves[0], &halves[1])
    });
    let spread = stats::spread(&latency).unwrap_or(f64::NAN);
    latency.sort_by(f64::total_cmp);
    let sorted = latency;
    let n = sorted.len();
    let p50 = stats::quantile_sorted(&sorted, 0.5);
    let (tail_label, tail) = stats::tail(&sorted);
    out.metric("setup_s", setup_s, "s", 1);
    out.metric("peak_rss_mb", peak_rss_mb, "MiB", 1);
    out.metric("op_p50_ms", p50 / 1e6, "ms", n);
    out.metric("op_tail_ms", tail / 1e6, "ms", n);
    out.metric("op_iqr_frac", spread, "ratio", n);
    out.metric("throughput_per_s", n as f64 / window_s, "1/s", n);
    out.metric("hot_p50_us", p50 / 1e3, "us", n);
    out.metric(
        "hot_p99_us",
        stats::quantile_sorted(&sorted, 0.99) / 1e3,
        "us",
        n,
    );
    if let Some(overhead) = trace_overhead {
        out.metric("trace_overhead_frac", overhead, "ratio", n);
    }
    out.detail("op", "one request, write to full response line");
    out.detail("op_tail", tail_label);
    out.detail("throughput", "requests per second");
    out.detail("requests", n);
    out.detail(
        "mix",
        format!(
            "{RUN_PERCENT}% run / {}% query over {SPECS} {SCENARIO} specs \
             (trials {TRIALS}, points {POINTS}), closed loop",
            100 - RUN_PERCENT
        ),
    );
    out.detail(
        "pinned_cpu",
        pinned_cpu.map_or("none".to_string(), |c| c.to_string()),
    );
    out.detail("thread_budget", config.job_threads);
    out.detail("connections", 1);
    out.detail("executors", config.executors);
    out
}
