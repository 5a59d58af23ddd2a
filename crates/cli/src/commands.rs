//! The `mmtag` CLI subcommands.
//!
//! Each command is a pure function from parsed [`Args`] to an output
//! `String`, so the full command surface is unit-tested without spawning
//! processes; `main` only dispatches and prints. The one exception is
//! [`request`], which streams: it reads request lines and writes each
//! response as it lands, over any reader and writer.

use crate::args::{ArgError, Args};
use mmtag::baseline::comparison_rows;
use mmtag::energy::{advantage_over_active_radio, EnergyBudget, Harvester};
use mmtag::localization::{locate, position_error};
use mmtag::prelude::*;
use mmtag::scenario::{build_reader, build_scene, build_tag, offset_poses};
use mmtag::storage::{steady_state_cycle, StorageCap};
use mmtag_antenna::sparams::{ElementPort, SwitchState};
use mmtag_bench::scenarios::registry;
use mmtag_mac::city::{CityConfig, CityEngine};
use mmtag_rf::obs;
use mmtag_rf::rng::{SeedTree, Xoshiro256pp};
use mmtag_sim::experiment::linspace;
use mmtag_sim::json::{parse_json, Json};
use mmtag_sim::scenario::Runner;
use mmtag_sim::serve::Client;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::path::Path;

/// Top-level dispatch for every command but [`request`], with the run
/// cache in its default directory ([`mmtag_sim::cache::default_dir`]).
/// Unknown/missing commands return the help text.
pub fn run(args: &Args) -> Result<String, ArgError> {
    run_in(args, &mmtag_sim::cache::default_dir())
}

/// [`run`] with the run cache (`run`, `serve`) rooted at `cache_dir`.
///
/// `--trace <file>` (valid on every command but `serve`) turns the calling
/// thread's observability level up to [`obs::Level::Trace`] for the
/// duration of the command — the pool workers it fans out to record at
/// its level — and, when the command succeeds, writes the recorded spans
/// as Chrome tracing JSON (load the file at `chrome://tracing` or in
/// Perfetto). A failed command writes no file. Tracing never changes
/// command output — the engine merges observability events in
/// deterministic unit order, so traced and untraced runs print identical
/// bytes.
fn run_in(args: &Args, cache_dir: &Path) -> Result<String, ArgError> {
    let Some(trace_path) = args.value("trace") else {
        return dispatch(args, cache_dir);
    };
    obs::set_level(obs::Level::Trace);
    let result = dispatch(args, cache_dir);
    obs::set_level(obs::Level::Off);
    let report = obs::drain();
    let out = result?;
    std::fs::write(trace_path, report.to_chrome_json()).map_err(|e| ArgError::TraceWrite {
        path: trace_path.to_string(),
        message: e.to_string(),
    })?;
    Ok(out)
}

/// Routes a parsed command line to its command function. Every command
/// reads all of its flags first and refuses one it did not read
/// ([`Args::refuse_unread`]) before it does any work, so a misspelt flag
/// costs no run, writes no run-cache entry and starts no daemon.
fn dispatch(args: &Args, cache_dir: &Path) -> Result<String, ArgError> {
    if args.command.as_deref() != Some("run") {
        if let Some(op) = &args.operand {
            return Err(ArgError::UnexpectedPositional(op.clone()));
        }
    }
    match args.command.as_deref() {
        Some("link") => cmd_link(args),
        Some("sweep") => cmd_sweep(args),
        Some("inventory") => cmd_inventory(args),
        Some("city") => cmd_city(args),
        Some("locate") => cmd_locate(args),
        Some("energy") => cmd_energy(args),
        Some("run") => cmd_run(args, cache_dir),
        Some("serve") => cmd_serve(args, cache_dir),
        other => {
            // The rest take no flags.
            args.refuse_unread()?;
            Ok(match other {
                Some("s11") => cmd_s11(),
                Some("compare") => cmd_compare(),
                Some("scenarios") => cmd_scenarios(),
                _ => help(),
            })
        }
    }
}

/// `mmtag serve`: the simulation-as-a-service daemon. Blocks until some
/// client sends `{"op":"shutdown"}`, then returns a shutdown summary.
fn cmd_serve(args: &Args, cache_dir: &Path) -> Result<String, ArgError> {
    use mmtag_sim::serve::{EngineConfig, Server};
    if args.has("trace") {
        // The obs level and log are per thread: a trace captures the
        // thread that runs the command, and the daemon's jobs run on its
        // executor threads, so the file would hold none of their spans.
        return Err(ArgError::Serve {
            message: "--trace is not supported on serve (a trace records the calling thread; \
                      serve's jobs run on executor threads)"
                .into(),
        });
    }
    let config = EngineConfig {
        executors: args.positive_usize_or("executors", 2)?,
        job_threads: args.positive_usize_or("job-threads", 2)?,
        queue_capacity: args.positive_usize_or("queue-cap", 64)?,
        memory_capacity: args.positive_usize_or("memory-cap", 256)?,
    };
    let mut builder = Server::builder(registry()).config(config);
    // Lifecycle budgets: 0 (the default) means unbounded. Enforcement is
    // amortized on the store path; the hit path never scans.
    let max_bytes = args.u64_or("cache-max-bytes", 0)?;
    let max_age_secs = args.u64_or("cache-max-age", 0)?;
    if !args.has("no-cache") {
        let policy = mmtag_sim::cache::CachePolicy {
            max_bytes: (max_bytes > 0).then_some(max_bytes),
            max_age: (max_age_secs > 0).then(|| std::time::Duration::from_secs(max_age_secs)),
        };
        builder = builder.cache(mmtag_sim::cache::RunCache::at(cache_dir).with_policy(policy));
    }
    let socket = args.value("socket");
    let tcp = args.value("tcp");
    if socket.is_none() && tcp.is_none() {
        return Err(ArgError::Serve {
            message: "need a listener: --socket <path> and/or --tcp <host:port>".into(),
        });
    }
    // Every flag is read by now: refuse a stray one here, not after a
    // client has shut the daemon down.
    args.refuse_unread()?;
    #[cfg(unix)]
    if let Some(path) = socket {
        builder = builder.unix(path);
    }
    #[cfg(not(unix))]
    if socket.is_some() {
        return Err(ArgError::Serve {
            message: "--socket requires Unix-domain sockets; use --tcp on this platform".into(),
        });
    }
    if let Some(addr) = tcp {
        builder = builder.tcp(addr);
    }
    let server = builder.start().map_err(|e| ArgError::Serve {
        message: e.to_string(),
    })?;
    // The command's stdout only prints after shutdown, so announce the
    // listeners on stderr now — scripts wait on this (or on the socket
    // file appearing).
    if let Some(path) = socket {
        eprintln!("mmtag serve: listening on {path}");
    }
    if let Some(addr) = server.tcp_addr() {
        eprintln!("mmtag serve: listening on tcp {addr}");
    }
    let engine = mmtag_sim::serve::Server::engine(&server).clone();
    server.join();
    let s = engine.stats();
    Ok(format!(
        "serve: shut down cleanly — {} requests ({} runs, {} queries, \
         {} sweeps / {} points), {} memory hits, {} disk hits, {} simulated, \
         {} deduplicated, {} rejected, hit ratio {:.3}\n",
        s.requests,
        s.runs,
        s.queries,
        s.sweeps,
        s.sweep_points,
        s.memory_hits,
        s.disk_hits,
        s.sim_runs,
        s.dedup_joined,
        s.rejected,
        s.cache_hit_ratio(),
    ))
}

/// `mmtag request`: the client of a running `mmtag serve`. Sends each
/// line of `input` as one request over `--socket <path>` or `--tcp
/// <host:port>` and writes its response to `out` once it has landed, a
/// sweep's point lines and summary included. Blank lines are skipped, as
/// the daemon skips them. Fails right after writing the first response
/// whose last line is not `"ok":true`, quoting it; no later line is sent.
pub fn request(args: &Args, input: impl BufRead, mut out: impl Write) -> Result<(), ArgError> {
    if let Some(op) = &args.operand {
        return Err(ArgError::UnexpectedPositional(op.clone()));
    }
    let (socket, tcp) = (args.value("socket"), args.value("tcp"));
    args.refuse_unread()?;
    let serve_err = |message: String| ArgError::Serve { message };
    let mut client = match (socket, tcp) {
        #[cfg(unix)]
        (Some(path), None) => Client::connect_unix(path),
        #[cfg(not(unix))]
        (Some(_), None) => {
            return Err(serve_err(
                "--socket requires Unix-domain sockets; use --tcp on this platform".into(),
            ))
        }
        (None, Some(addr)) => Client::connect_tcp(addr),
        _ => {
            return Err(serve_err(
                "need one listener: --socket <path> or --tcp <host:port>".into(),
            ))
        }
    }
    .map_err(|e| serve_err(format!("cannot connect: {e}")))?;
    let mut response = String::new();
    for line in input.lines() {
        let line = line.map_err(|e| serve_err(format!("reading a request line: {e}")))?;
        if line.is_empty() {
            continue;
        }
        response.clear();
        client
            .roundtrip_into(&line, &mut response)
            .and_then(|()| writeln!(out, "{response}"))
            .and_then(|()| out.flush())
            .map_err(|e| serve_err(format!("request {line}: {e}")))?;
        let last = response.rsplit('\n').next().unwrap_or_default();
        if !parse_json(last).is_ok_and(|reply| reply.get("ok") == Some(&Json::Bool(true))) {
            return Err(serve_err(format!("request {line} failed: {response}")));
        }
    }
    Ok(())
}

/// The help text.
pub fn help() -> String {
    "\
mmtag — millimeter-wave backscatter link & network models (HotNets '20)

USAGE: mmtag <command> [--flag value]...

COMMANDS:
  link       evaluate one link        --range-ft 4 --rotation-deg 0
                                      --elements 6 --band-ghz 24
                                      --wiring vanatta|fixed|mirror
  sweep      power/rate vs range      --from-ft 2 --to-ft 12 --points 11
  s11        element S11, both switch states (Fig. 6 anchors)
  inventory  timed multi-tag read     --tags 48 --seed 1
  city       city-scale inventory     --tags 100000 --rounds 10 --seed 1
             (E27/E28)                --speed-mps 1.5 --blockers 4
  locate     scan-based positioning   --range-ft 6 --bearing-deg 20
  energy     batteryless budget       --rate-mbps 1000 --solar-cm2 10
                                      --cap-uf 100
  compare    the §1/§3 systems comparison table
  scenarios  list every registered experiment (E1–E31)
  run        run a scenario by name   run e02-link-budget
                                      --format table|csv|json
                                      --quick 1 --seed 7
                                      --no-cache  recompute even when the
                                      run cache (MMTAG_CACHE_DIR, default
                                      target/mmtag-run-cache) has the spec
  serve      simulation daemon        --socket /tmp/mmtag.sock
             (line-delimited JSON     --tcp 127.0.0.1:7117
             over unix/tcp sockets;   --executors 2 --job-threads 2
             stops on a shutdown op)  --queue-cap 64 --memory-cap 256
                                      --no-cache  run without the disk cache
                                      --cache-max-bytes N  evict LRU past N
                                      --cache-max-age SECS expire old entries
                                      (0 = unbounded; amortized on store)
  request    send each stdin line to  --socket /tmp/mmtag.sock
             a serve daemon, print    or --tcp 127.0.0.1:7117
             each response; exit 1
             after one not ok
  help       this text

Angles (--rotation-deg, --bearing-deg) lie within ±360°. A flag its
command does not take is an error.

GLOBAL FLAGS (not on serve or request):
  --trace <file>   record span timings and write Chrome tracing JSON
                   (open at chrome://tracing); output bytes are unchanged
                   (on `run`, implies --no-cache so the execution spans
                   actually happen)
"
    .to_string()
}

/// The tag described by `--elements/--band-ghz/--wiring`, via the
/// scenario spec layer.
fn tag_spec(args: &Args) -> Result<TagSpec, ArgError> {
    Ok(TagSpec {
        elements: args.positive_usize_or("elements", 6)?,
        band_ghz: band_ghz(args)?,
        wiring: WiringSpec::parse(&args.str_or("wiring", "vanatta"))
            .ok_or_else(|| args.out_of_range("wiring", "one of vanatta, fixed, mirror"))?,
    })
}

/// The reader retuned to `--band-ghz`, via the scenario spec layer.
fn reader_spec(args: &Args) -> Result<ReaderSpec, ArgError> {
    Ok(ReaderSpec::at_band(band_ghz(args)?))
}

/// `--band-ghz`: a carrier within the tag model's 1–300 GHz.
fn band_ghz(args: &Args) -> Result<f64, ArgError> {
    args.f64_where_or("band-ghz", 24.0, "a carrier within 1–300 GHz", |ghz| {
        (1.0..=300.0).contains(&ghz)
    })
}

fn cmd_link(args: &Args) -> Result<String, ArgError> {
    let range = args.positive_f64_or("range-ft", 4.0)?;
    let rotation = args.angle_deg_or("rotation-deg", 0.0)?;
    let (tag, reader) = (tag_spec(args)?, reader_spec(args)?);
    args.refuse_unread()?;
    let tag = build_tag(&tag);
    let reader = build_reader(&reader);
    let scene = build_scene(&SceneSpec::free_space());
    let (rp, tp) = offset_poses(range, rotation, 0.0);
    let report = evaluate_link(&reader, &tag, &scene, rp, tp);

    let mut out = String::new();
    let _ = writeln!(out, "link @ {range} ft, tag rotated {rotation}°:");
    match report.power {
        Some(p) => {
            let _ = writeln!(out, "  received power : {p}");
            if let Some(rung) = reader.adaptation().best_rung(p) {
                let snr = reader.noise().snr(p, rung.bandwidth);
                let _ = writeln!(out, "  bandwidth rung : {}", rung.bandwidth);
                let _ = writeln!(out, "  SNR            : {snr}");
            }
            let _ = writeln!(out, "  rate           : {}", report.rate);
        }
        None => {
            let _ = writeln!(out, "  (link blocked)");
        }
    }
    Ok(out)
}

fn cmd_sweep(args: &Args) -> Result<String, ArgError> {
    let from = args.positive_f64_or("from-ft", 2.0)?;
    let to = args.positive_f64_or("to-ft", 12.0)?;
    let points = args.usize_or("points", 11)?;
    let (tag, reader) = (tag_spec(args)?, reader_spec(args)?);
    args.refuse_unread()?;
    let tag = build_tag(&tag);
    let reader = build_reader(&reader);
    let scene = build_scene(&SceneSpec::free_space());

    let mut out = String::from("range_ft  power_dbm  rate\n");
    for feet in linspace(from, to, points) {
        let (rp, tp) = offset_poses(feet, 0.0, 0.0);
        let r = evaluate_link(&reader, &tag, &scene, rp, tp);
        let p = r
            .power
            .map(|p| format!("{:>8.2}", p.dbm()))
            .unwrap_or_else(|| " blocked".into());
        let _ = writeln!(out, "{feet:>8.2}  {p}  {}", r.rate);
    }
    Ok(out)
}

fn cmd_s11() -> String {
    let e = ElementPort::mmtag_default();
    let f0 = Frequency::from_ghz(24.0);
    let mut out = String::from("element S11 at the 24 GHz carrier:\n");
    let _ = writeln!(
        out,
        "  switch off (reflective): {:>6.1} dB   (paper: ≈ −15 dB)",
        e.s11_db(f0, SwitchState::Off)
    );
    let _ = writeln!(
        out,
        "  switch on  (absorbing) : {:>6.1} dB   (paper: ≈ −5 dB)",
        e.s11_db(f0, SwitchState::On)
    );
    let _ = writeln!(out, "  −10 dB bandwidth       : {}", e.matched_bandwidth());
    out
}

fn cmd_inventory(args: &Args) -> Result<String, ArgError> {
    let n = args.usize_or("tags", 48)?;
    let seed = args.u64_or("seed", 1)?;
    args.refuse_unread()?;
    let mut net = Network::new(
        build_scene(&SceneSpec::free_space()),
        build_reader(&ReaderSpec::mmtag_setup()),
        Pose::new(Vec2::ORIGIN, Angle::ZERO),
    );
    for i in 0..n {
        let deg = -55.0 + 110.0 * i as f64 / (n.max(2) - 1) as f64;
        let (_, tp) = offset_poses(6.0, 0.0, deg);
        net.add_tag(
            build_tag(&TagSpec::prototype()),
            mmtag_sim::mobility::Static(tp),
        );
    }
    let mut rng = Xoshiro256pp::seed_from(seed);
    let inv = net.inventory(&mut rng);
    let mut out = String::new();
    let _ = writeln!(out, "inventory of {n} tags (seed {seed}):");
    let _ = writeln!(out, "  tags read       : {}", inv.tags_read);
    let _ = writeln!(out, "  sectors visited : {}", inv.sectors_visited);
    let _ = writeln!(out, "  Aloha slots     : {}", inv.slots);
    let _ = writeln!(out, "  elapsed         : {}", inv.elapsed);
    Ok(out)
}

fn cmd_city(args: &Args) -> Result<String, ArgError> {
    let mut cfg = CityConfig::dense(
        args.positive_usize_or("tags", 100_000)?,
        args.usize_or("rounds", 10)?,
    );
    cfg.speed_mps = args.f64_where_or(
        "speed-mps",
        cfg.speed_mps,
        "a finite, non-negative speed",
        |v| v.is_finite() && v >= 0.0,
    )?;
    cfg.blockers = args.usize_or("blockers", cfg.blockers)?;
    let seed = args.u64_or("seed", 1)?;
    args.refuse_unread()?;
    let mut eng = CityEngine::new(cfg, SeedTree::new(seed));
    let stats = eng.run_rounds(mmtag_rf::par::thread_limit());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "city inventory: {} tags, {} readers (seed {seed}):",
        cfg.tags,
        cfg.n_readers()
    );
    let _ = writeln!(out, "  rounds          : {}", stats.rounds);
    let _ = writeln!(
        out,
        "  tags read       : {} ({:.1}%)",
        stats.tags_read,
        100.0 * stats.tags_read as f64 / cfg.tags as f64
    );
    let _ = writeln!(out, "  Aloha slots     : {}", stats.slots);
    let _ = writeln!(out, "  DES events      : {}", stats.events);
    let _ = writeln!(out, "  collisions      : {}", stats.collisions);
    let _ = writeln!(out, "  elapsed (sim)   : {}", stats.elapsed);
    Ok(out)
}

fn cmd_locate(args: &Args) -> Result<String, ArgError> {
    let range = args.positive_f64_or("range-ft", 6.0)?;
    let bearing = args.angle_deg_or("bearing-deg", 20.0)?;
    args.refuse_unread()?;
    let reader = build_reader(&ReaderSpec::mmtag_setup());
    let tag = build_tag(&TagSpec::prototype());
    let scene = build_scene(&SceneSpec::free_space());
    let (rp, tp) = offset_poses(range, 0.0, bearing);
    let mut out = String::new();
    match locate(&reader, &tag, &scene, rp, tp) {
        Some(est) => {
            let _ = writeln!(out, "truth    : {range:.2} ft @ {bearing:.1}°");
            let _ = writeln!(
                out,
                "estimate : {:.2} ft @ {:.1}°",
                est.range.feet(),
                est.bearing.degrees()
            );
            let _ = writeln!(out, "error    : {:.2} ft", position_error(&est, tp).feet());
        }
        None => {
            let _ = writeln!(out, "tag inaudible in every beam (out of sector?)");
        }
    }
    Ok(out)
}

fn cmd_energy(args: &Args) -> Result<String, ArgError> {
    let rate = DataRate::from_mbps(args.positive_f64_or("rate-mbps", 1000.0)?);
    let solar = Harvester::IndoorSolar {
        area_cm2: args.positive_f64_or("solar-cm2", 10.0)?,
    };
    let cap = StorageCap::new(args.positive_f64_or("cap-uf", 100.0)? * 1e-6, 1.8, 3.3);
    args.refuse_unread()?;
    let budget = EnergyBudget::for_tag(&build_tag(&TagSpec::prototype()), rate);

    let mut out = String::new();
    let _ = writeln!(out, "energy budget at {rate}:");
    let _ = writeln!(
        out,
        "  active power     : {:.1} µW  ({:.0}× under a 1 W active radio)",
        budget.active_w() * 1e6,
        advantage_over_active_radio(&budget)
    );
    match steady_state_cycle(&budget, solar, &cap) {
        Some(cycle) => {
            let _ = writeln!(
                out,
                "  sustainable duty : {:.1}% on {:.0} µW {}",
                cycle.duty_cycle * 100.0,
                solar.power_w() * 1e6,
                solar.name()
            );
            let _ = writeln!(out, "  burst length     : {}", cycle.burst);
            let _ = writeln!(
                out,
                "  sustained rate   : {}",
                DataRate::from_bps(rate.bps() * cycle.duty_cycle)
            );
        }
        None => {
            let _ = writeln!(out, "  harvester cannot sustain the logic: tag stays dark");
        }
    }
    Ok(out)
}

fn cmd_compare() -> String {
    let rows = comparison_rows(
        &build_reader(&ReaderSpec::mmtag_setup()),
        &build_tag(&TagSpec::prototype()),
    );
    let mut out = String::from("system                    rate@4ft      rate@10ft     mobility\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24}  {:>11}  {:>12}  {}",
            r.name,
            r.rate_short.to_string(),
            r.rate_10ft.to_string(),
            if r.supports_mobility { "yes" } else { "no" }
        );
    }
    out
}

fn cmd_scenarios() -> String {
    let mut out = String::new();
    for s in registry().iter() {
        let _ = writeln!(out, "{:18} {}", s.spec().name, s.spec().title);
    }
    out
}

fn cmd_run(args: &Args, cache_dir: &Path) -> Result<String, ArgError> {
    let Some(name) = args.operand.as_deref() else {
        return Err(ArgError::MissingValue("<scenario name>".into()));
    };
    let reg = registry();
    let Some(s) = reg.get(name) else {
        return Err(ArgError::UnknownName(name.to_string()));
    };
    let reseeded = args
        .value("seed")
        .map(|_| -> Result<_, ArgError> {
            let seed = args.u64_or("seed", 0)?;
            Ok(s.with_spec(s.spec().clone().with_seed(seed)))
        })
        .transpose()?;
    let s = reseeded.as_deref().unwrap_or(s);
    // Identical specs replay from the content-addressed run cache unless
    // the user opts out; --trace implies --no-cache because a cache hit
    // skips the execution spans the trace exists to record.
    let cached = !args.has("no-cache") && !args.has("trace");
    let quick = args.usize_or("quick", 0)? != 0;
    let format = args.str_or("format", "table");
    if !["table", "csv", "json"].contains(&format.as_str()) {
        return Err(args.out_of_range("format", "one of table, csv, json"));
    }
    args.refuse_unread()?;
    let runner = if cached {
        Runner::new().with_cache(mmtag_sim::cache::RunCache::at(cache_dir))
    } else {
        Runner::new()
    };
    let record = if quick {
        runner.run_minimized(s, 3, 200)
    } else {
        runner.run(s)
    };
    match format.as_str() {
        "csv" => Ok(record.to_csv()),
        "json" => Ok(record.to_json() + "\n"),
        _ => Ok(record.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run-cache directory owned by one test: unique, empty until a
    /// command stores into it, and removed on drop. The `run` goldens can
    /// therefore never be satisfied by stale entries a previous build left
    /// in `target/mmtag-run-cache` — a test proves the current code (first
    /// run) and, if it runs again in the same directory, the replay path.
    struct CacheDir(std::path::PathBuf);

    impl CacheDir {
        fn new() -> Self {
            static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let name = format!("mmtag-cli-test-cache-{}-{n}", std::process::id());
            CacheDir(std::env::temp_dir().join(name))
        }

        fn run(&self, line: &[&str]) -> String {
            run_in(&Args::parse(line.iter().copied()).unwrap(), &self.0).unwrap()
        }
    }

    impl Drop for CacheDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn run_line(line: &[&str]) -> String {
        CacheDir::new().run(line)
    }

    fn run_err(line: &[&str]) -> ArgError {
        match Args::parse(line.iter().copied()) {
            Err(e) => e,
            Ok(a) => run_in(&a, &CacheDir::new().0).unwrap_err(),
        }
    }

    // ---- seeded golden outputs: the exact bytes each command prints ----
    // The model stack is deterministic, so these pin the full command
    // surface; a diff here means user-visible output changed.
    //
    // Sampler note: checked against Gaussian sampler v2 (batch Box–Muller,
    // both branches — see `golden_noise_stream_sampler_v2` in mmtag_rf).
    // These commands survive v1→v2 unchanged because none consume the
    // Gaussian stream: link/sweep/s11/locate are closed-form, and
    // inventory draws only slot indices (`Rng::index`), whose stream the
    // batch kernels replay bit-identically. A future sampler bump that
    // touches uniform or index draws must re-record these bytes.

    #[test]
    fn golden_link() {
        assert_eq!(
            run_line(&["link"]),
            "link @ 4 ft, tag rotated 0°:\n\
             \x20 received power : -66.47 dBm\n\
             \x20 bandwidth rung : 2.0 GHz\n\
             \x20 SNR            : 9.34 dB\n\
             \x20 rate           : 1.00 Gbps\n"
        );
    }

    #[test]
    fn golden_sweep() {
        assert_eq!(
            run_line(&["sweep", "--points", "5"]),
            "range_ft  power_dbm  rate\n\
             \x20   2.00    -54.43  1.00 Gbps\n\
             \x20   4.50    -68.52  1.00 Gbps\n\
             \x20   7.00    -76.20  100.00 Mbps\n\
             \x20   9.50    -81.50  10.00 Mbps\n\
             \x20  12.00    -85.56  10.00 Mbps\n"
        );
    }

    #[test]
    fn golden_s11() {
        assert_eq!(
            run_line(&["s11"]),
            "element S11 at the 24 GHz carrier:\n\
             \x20 switch off (reflective):  -15.0 dB   (paper: ≈ −15 dB)\n\
             \x20 switch on  (absorbing) :   -5.2 dB   (paper: ≈ −5 dB)\n\
             \x20 −10 dB bandwidth       : 540.0 MHz\n"
        );
    }

    /// The elapsed time is the run's own accounting: 12 sectors × 10 µs
    /// of steering plus 192 slots × 3.28 µs.
    #[test]
    fn golden_inventory() {
        assert_eq!(
            run_line(&["inventory", "--tags", "12", "--seed", "7"]),
            "inventory of 12 tags (seed 7):\n\
             \x20 tags read       : 12\n\
             \x20 sectors visited : 12\n\
             \x20 Aloha slots     : 192\n\
             \x20 elapsed         : 749.760 µs\n"
        );
    }

    #[test]
    fn golden_locate() {
        assert_eq!(
            run_line(&["locate"]),
            "truth    : 6.00 ft @ 20.0°\n\
             estimate : 6.27 ft @ 19.9°\n\
             error    : 0.27 ft\n"
        );
    }

    // ---- error paths ----

    #[test]
    fn malformed_number_is_a_bad_value_error() {
        assert_eq!(
            run_err(&["link", "--range-ft", "abc"]),
            ArgError::BadValue {
                flag: "range-ft".into(),
                raw: "abc".into()
            }
        );
    }

    /// The argument error a distance flag's out-of-range value gets.
    fn not_a_distance(flag: &str, raw: &str) -> ArgError {
        ArgError::OutOfRange {
            flag: flag.into(),
            raw: raw.into(),
            want: "a positive, finite number",
        }
    }

    #[test]
    fn link_at_zero_range_is_an_argument_error() {
        assert_eq!(
            run_err(&["link", "--range-ft", "0"]),
            not_a_distance("range-ft", "0")
        );
    }

    #[test]
    fn link_at_negative_range_is_an_argument_error() {
        assert_eq!(
            run_err(&["link", "--range-ft", "-3"]),
            not_a_distance("range-ft", "-3")
        );
    }

    #[test]
    fn link_at_non_finite_range_is_an_argument_error() {
        for raw in ["inf", "NaN"] {
            assert_eq!(
                run_err(&["link", "--range-ft", raw]),
                not_a_distance("range-ft", raw)
            );
        }
    }

    #[test]
    fn locate_at_zero_range_is_an_argument_error() {
        assert_eq!(
            run_err(&["locate", "--range-ft", "0"]),
            not_a_distance("range-ft", "0")
        );
    }

    #[test]
    fn sweep_from_zero_range_is_an_argument_error() {
        assert_eq!(
            run_err(&["sweep", "--from-ft", "0"]),
            not_a_distance("from-ft", "0")
        );
        assert_eq!(
            run_err(&["sweep", "--to-ft", "0"]),
            not_a_distance("to-ft", "0")
        );
    }

    #[test]
    fn city_of_zero_tags_is_an_argument_error_and_writes_no_trace() {
        let path = std::env::temp_dir().join(format!(
            "mmtag-cli-zero-tags-trace-test-{}.json",
            std::process::id()
        ));
        let err = run_err(&["city", "--tags", "0", "--trace", path.to_str().unwrap()]);
        let written = path.exists();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            err,
            ArgError::OutOfRange {
                flag: "tags".into(),
                raw: "0".into(),
                want: "a positive integer"
            }
        );
        assert!(!written, "a refused command left a trace file behind");
    }

    /// Every number outside what its command models is refused with the
    /// argument error (exit 1, no `--trace` file), where each of these
    /// used to panic, print NaN, or run with a value the engine replaced.
    #[test]
    fn out_of_domain_numbers_are_argument_errors_and_write_no_trace() {
        const ANGLE: &str = "an angle within ±360°";
        const POSITIVE: &str = "a positive, finite number";
        const COUNT: &str = "a positive integer";
        const BAND: &str = "a carrier within 1–300 GHz";
        const SPEED: &str = "a finite, non-negative speed";
        let cases: &[(&str, &str, &str, &str)] = &[
            ("locate", "bearing-deg", "nan", ANGLE),
            ("locate", "bearing-deg", "inf", ANGLE),
            ("locate", "bearing-deg", "1e300", ANGLE),
            ("locate", "bearing-deg", "-360.5", ANGLE),
            ("link", "rotation-deg", "nan", ANGLE),
            ("link", "rotation-deg", "inf", ANGLE),
            ("link", "rotation-deg", "-inf", ANGLE),
            ("link", "rotation-deg", "1e20", ANGLE),
            ("link", "rotation-deg", "361", ANGLE),
            ("link", "band-ghz", "0", BAND),
            ("link", "band-ghz", "nan", BAND),
            ("link", "band-ghz", "-24", BAND),
            ("link", "band-ghz", "400", BAND),
            ("sweep", "band-ghz", "0", BAND),
            ("sweep", "band-ghz", "400", BAND),
            ("link", "elements", "0", COUNT),
            ("sweep", "elements", "0", COUNT),
            ("energy", "rate-mbps", "nan", POSITIVE),
            ("energy", "rate-mbps", "-1", POSITIVE),
            ("energy", "rate-mbps", "0", POSITIVE),
            ("energy", "cap-uf", "0", POSITIVE),
            ("energy", "cap-uf", "-100", POSITIVE),
            ("energy", "solar-cm2", "0", POSITIVE),
            ("energy", "solar-cm2", "-5", POSITIVE),
            ("city", "speed-mps", "nan", SPEED),
            ("city", "speed-mps", "inf", SPEED),
            ("city", "speed-mps", "-1", SPEED),
        ];
        let path = std::env::temp_dir().join(format!(
            "mmtag-cli-out-of-domain-trace-test-{}.json",
            std::process::id()
        ));
        let trace = path.to_str().unwrap();
        for &(command, flag, raw, want) in cases {
            let err = run_err(&[command, &format!("--{flag}"), raw, "--trace", trace]);
            let written = path.exists();
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                err,
                ArgError::OutOfRange {
                    flag: flag.into(),
                    raw: raw.into(),
                    want
                },
                "{command} --{flag} {raw}"
            );
            assert!(!written, "{command} --{flag} {raw} left a trace file");
        }
    }

    /// A flag its command does not read — misspelt, another command's,
    /// or removed — is an argument error that writes no `--trace` file,
    /// not a flag silently ignored, and it is refused before the command
    /// runs anything or stores into the run cache.
    #[test]
    fn flags_a_command_does_not_take_are_argument_errors_and_write_no_trace() {
        let cases: &[(&[&str], &str)] = &[
            (&["link", "--range", "10"], "range"),
            (&["sweep", "--point", "5"], "point"),
            (&["s11", "--band-ghz", "60"], "band-ghz"),
            (&["inventory", "--tag", "12"], "tag"),
            (&["city", "--tag", "100"], "tag"),
            (
                &["city", "--tags", "100", "--rounds", "1", "--shards", "4"],
                "shards",
            ),
            (&["locate", "--bearing", "20"], "bearing"),
            (&["energy", "--cap", "100"], "cap"),
            (&["compare", "--format", "csv"], "format"),
            (&["scenarios", "--quick", "1"], "quick"),
            (
                &["run", "e06-beamwidth", "--quick", "1", "--fromat", "csv"],
                "fromat",
            ),
            (&["run", "e05-ber", "--fromat", "csv"], "fromat"),
            (&["link", "--no-cache"], "no-cache"),
        ];
        for &(line, flag) in cases {
            let want = ArgError::UnknownFlag {
                command: line[0].into(),
                flag: flag.into(),
            };
            assert_refused_before_any_work(line, want, "unknown-flag");
        }
        // serve refuses `--trace` itself, and a stray flag before it binds
        // a listener.
        assert_eq!(
            run_err(&["serve", "--tcp", "127.0.0.1:0", "--memroy-cap", "5"]),
            ArgError::UnknownFlag {
                command: "serve".into(),
                flag: "memroy-cap".into()
            }
        );
    }

    /// A value an enum-valued flag does not name is refused like an
    /// out-of-domain number, not run as the flag's default.
    #[test]
    fn unknown_flag_values_are_argument_errors_and_write_no_trace() {
        const WIRING: &str = "one of vanatta, fixed, mirror";
        let cases: &[(&[&str], &str, &str, &str)] = &[
            (&["link", "--wiring", "banana"], "wiring", "banana", WIRING),
            (&["sweep", "--wiring", "Fixed"], "wiring", "Fixed", WIRING),
            (
                &["run", "e02-link-budget", "--format", "xml"],
                "format",
                "xml",
                "one of table, csv, json",
            ),
        ];
        for &(line, flag, raw, want) in cases {
            let want = ArgError::OutOfRange {
                flag: flag.into(),
                raw: raw.into(),
                want,
            };
            assert_refused_before_any_work(line, want, "unknown-value");
        }
    }

    /// Asserts `line` fails with `want` and writes no `--trace` file, and
    /// that it is refused before any work: no instrumented stage runs
    /// (the runner and the BER and city kernels all record events at
    /// `obs::Level::Trace`) and the run cache stays untouched.
    fn assert_refused_before_any_work(line: &[&str], want: ArgError, tag: &str) {
        let path = std::env::temp_dir().join(format!(
            "mmtag-cli-{tag}-trace-test-{}.json",
            std::process::id()
        ));
        let cache = CacheDir::new();
        let traced = Args::parse([line, &["--trace", path.to_str().unwrap()]].concat()).unwrap();
        let err = run_in(&traced, &cache.0).unwrap_err();
        let written = path.exists();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err, want, "{line:?}");
        assert!(!written, "{line:?} left a trace file");
        obs::set_level(obs::Level::Trace);
        let start = obs::mark();
        let err = dispatch(&Args::parse(line.iter().copied()).unwrap(), &cache.0);
        let events = obs::mark() - start;
        obs::set_level(obs::Level::Off);
        obs::drain();
        assert_eq!(err.unwrap_err(), want, "{line:?}");
        assert_eq!(events, 0, "{line:?} did work before refusing");
        assert!(!cache.0.exists(), "{line:?} wrote into the run cache");
    }

    #[test]
    fn dangling_flag_is_a_missing_value_error() {
        assert_eq!(
            run_err(&["sweep", "--points"]),
            ArgError::MissingValue("points".into())
        );
    }

    #[test]
    fn stray_operand_is_rejected_outside_run() {
        assert_eq!(
            run_err(&["link", "oops"]),
            ArgError::UnexpectedPositional("oops".into())
        );
    }

    #[test]
    fn run_requires_a_known_scenario() {
        assert_eq!(
            run_err(&["run", "nope"]),
            ArgError::UnknownName("nope".into())
        );
        assert!(matches!(run_err(&["run"]), ArgError::MissingValue(_)));
    }

    // ---- the scenario pipeline commands ----

    #[test]
    fn scenarios_lists_all_31() {
        let out = run_line(&["scenarios"]);
        assert_eq!(out.lines().count(), 31);
        assert!(out.starts_with("e01-s11"));
        assert!(out.contains("e26-cancellation"));
        assert!(out.contains("e27-city-density"));
        assert!(out.contains("e28-city-mobility"));
        assert!(out.contains("e29-rate-region"));
        assert!(out.contains("e30-rate-vs-tags"));
        assert!(out.contains("e31-rate-vs-states"));
    }

    #[test]
    fn city_inventory_runs_and_is_deterministic() {
        let line = [
            "city",
            "--tags",
            "400",
            "--rounds",
            "6",
            "--blockers",
            "0",
            "--seed",
            "9",
        ];
        let a = run_line(&line);
        let b = run_line(&line);
        assert_eq!(a, b, "city output must be deterministic per seed");
        assert!(a.starts_with("city inventory: 400 tags"));
        assert!(a.contains("tags read"));
        assert!(a.contains("DES events"));
    }

    #[test]
    fn run_matches_the_registry_record() {
        let out = run_line(&["run", "e06-beamwidth"]);
        let record = registry().run("e06-beamwidth", &Runner::new()).unwrap();
        assert_eq!(out, record.render());
    }

    #[test]
    fn run_quick_and_formats_work() {
        let csv = run_line(&["run", "e06-beamwidth", "--format", "csv", "--quick", "1"]);
        assert!(csv.starts_with("# scenario=e06-beamwidth"));
        assert_eq!(csv.lines().filter(|l| !l.starts_with('#')).count(), 4); // header + 3 rows
        let json = run_line(&["run", "e06-beamwidth", "--format", "json", "--quick", "1"]);
        assert!(json.contains("\"manifest\"") && json.contains("\"e06-beamwidth\""));
    }

    #[test]
    fn cached_and_uncached_runs_print_identical_bytes() {
        // First call populates the cache, second replays from it, and
        // --no-cache recomputes — all three must print the same bytes
        // (wall_ms lives in the manifest, which `render` omits).
        let cache = CacheDir::new();
        let first = cache.run(&["run", "e06-beamwidth", "--quick", "1"]);
        let replayed = cache.run(&["run", "e06-beamwidth", "--quick", "1"]);
        let recomputed = cache.run(&["run", "e06-beamwidth", "--quick", "1", "--no-cache"]);
        assert_eq!(first, replayed);
        assert_eq!(first, recomputed);
        // The JSON metrics block reports which path served the run.
        let json = cache.run(&["run", "e06-beamwidth", "--format", "json", "--quick", "1"]);
        assert!(json.contains("\"runner.cache.hit\": 1"), "{json}");
        let bypassed = cache.run(&[
            "run",
            "e06-beamwidth",
            "--format",
            "json",
            "--quick",
            "1",
            "--no-cache",
        ]);
        assert!(!bypassed.contains("runner.cache."), "{bypassed}");
    }

    #[test]
    fn run_seed_override_reaches_the_spec() {
        let a = run_line(&["run", "e21-capture", "--quick", "1"]);
        let b = run_line(&["run", "e21-capture", "--quick", "1", "--seed", "999"]);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_flag_writes_chrome_json_without_changing_output() {
        let path = std::env::temp_dir()
            .join("mmtag-cli-trace-test.json")
            .to_string_lossy()
            .to_string();
        let untraced = run_line(&["run", "e05-ber", "--quick", "1"]);
        let traced = run_line(&["run", "e05-ber", "--quick", "1", "--trace", &path]);
        // Tracing must never change command output.
        assert_eq!(untraced, traced);
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("runner.trials"), "{trace}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_refuses_trace() {
        let path = std::env::temp_dir().join("mmtag-cli-serve-trace-test.json");
        let err = run_err(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--trace",
            path.to_str().unwrap(),
        ]);
        match err {
            ArgError::Serve { message } => {
                assert!(message.contains("--trace"), "{message}");
                assert!(message.contains("executor threads"), "{message}");
            }
            other => panic!("expected a serve error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A zero serve count is refused like any other count flag, before
    /// the daemon binds anything. A regular file holds the `--socket`
    /// path, so a daemon that got as far as binding would refuse it (not
    /// a socket) instead of blocking the test; the file must be left as
    /// it was.
    #[test]
    fn serve_refuses_zero_counts_and_binds_nothing() {
        let path =
            std::env::temp_dir().join(format!("mmtag-cli-zero-count-test-{}", std::process::id()));
        std::fs::write(&path, "not a socket").unwrap();
        for flag in ["executors", "job-threads", "queue-cap", "memory-cap"] {
            let err = run_err(&[
                "serve",
                "--socket",
                path.to_str().unwrap(),
                &format!("--{flag}"),
                "0",
            ]);
            let want = ArgError::OutOfRange {
                flag: flag.into(),
                raw: "0".into(),
                want: "a positive integer",
            };
            assert_eq!(err, want, "serve --{flag} 0");
        }
        let kept = std::fs::read_to_string(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(kept.ok().as_deref(), Some("not a socket"));
    }

    /// Runs `mmtag request` on `line` over `input`; returns what it wrote
    /// and its result.
    fn request_out(line: &[&str], input: &str) -> (String, Result<(), ArgError>) {
        let mut out = Vec::new();
        let args = Args::parse(line.iter().copied()).unwrap();
        let result = request(&args, input.as_bytes(), &mut out);
        (String::from_utf8(out).unwrap(), result)
    }

    /// `request` takes exactly one of `--socket` and `--tcp` and nothing
    /// else, and refuses anything more before it connects. (The input is
    /// empty, so a request that did connect returns instead of waiting
    /// for a reply the unaccepted connection never gets.)
    #[test]
    fn request_refuses_bad_flags_before_connecting() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let tcp = listener.local_addr().unwrap().to_string();
        let tcp = tcp.as_str();
        let listeners = ArgError::Serve {
            message: "need one listener: --socket <path> or --tcp <host:port>".into(),
        };
        let unknown = |flag: &str| ArgError::UnknownFlag {
            command: "request".into(),
            flag: flag.into(),
        };
        let cases: &[(&[&str], ArgError)] = &[
            (&["request"], listeners.clone()),
            (&["request", "--tcp", tcp, "--socket", "x.sock"], listeners),
            (
                &["request", "--tcp", tcp, "--requests", "40"],
                unknown("requests"),
            ),
            (
                &["request", "--tcp", tcp, "--trace", "t.json"],
                unknown("trace"),
            ),
            (
                &["request", "--tcp", tcp, "log.txt"],
                ArgError::UnexpectedPositional("log.txt".into()),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(request_out(line, "").1.unwrap_err(), *want, "{line:?}");
        }
        let accepted = listener.accept().map(drop).map_err(|e| e.kind());
        assert_eq!(accepted, Err(std::io::ErrorKind::WouldBlock));
    }

    /// `request` prints each response and stops right after the first
    /// whose last line is not `"ok":true`, quoting it: the daemon never
    /// sees the line after it.
    #[test]
    fn request_stops_after_the_first_response_not_ok() {
        use mmtag_sim::serve::{EngineConfig, Server};
        let server = Server::builder(registry())
            .tcp("127.0.0.1:0")
            .config(EngineConfig::default())
            .start()
            .unwrap();
        let tcp = server.tcp_addr().unwrap().to_string();
        let run =
            r#"{"id":1,"op":"run","scenario":"e02-link-budget","seed":0,"trials":50,"points":6}"#;
        let out_of_range = r#"{"id":2,"op":"query","scenario":"e02-link-budget","seed":0,"trials":50,"points":6,"x":1000}"#;
        let input = format!("{run}\n{out_of_range}\n{run}\n");
        let (out, result) = request_out(&["request", "--tcp", &tcp], &input);
        let err = result.unwrap_err().to_string();
        assert!(err.contains(r#""error":"out_of_range""#), "{err}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(
            lines[0].starts_with(r#"{"id":1,"ok":true,"op":"run""#),
            "{out}"
        );
        assert!(lines[1].starts_with(r#"{"id":2,"ok":false,"#), "{out}");
        assert!(lines[1].contains(r#""error":"out_of_range""#), "{out}");
        assert_eq!(server.engine().stats().requests, 2, "a third line was sent");
        server.shutdown();
        server.join();
    }

    /// A `sweep` line's whole stream is printed in order: its point lines
    /// by index, then its summary. A blank line is skipped, not sent: sent
    /// after the shutdown, it would meet a closed connection.
    #[cfg(unix)]
    #[test]
    fn request_prints_a_sweep_stream_in_order() {
        use mmtag_sim::serve::{EngineConfig, Server};
        let sock = std::env::temp_dir().join(format!(
            "mmtag-cli-request-sweep-test-{}.sock",
            std::process::id()
        ));
        let server = Server::builder(registry())
            .unix(&sock)
            .config(EngineConfig::default())
            .start()
            .unwrap();
        let sweep = r#"{"id":7,"op":"sweep","scenario":"e02-link-budget","seeds":3,"seed":5,"trials":50,"points":6}"#;
        let input = format!("{sweep}\n{{\"id\":8,\"op\":\"shutdown\"}}\n\n");
        let (out, result) = request_out(&["request", "--socket", sock.to_str().unwrap()], &input);
        server.join();
        result.unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        for (p, line) in lines[..3].iter().enumerate() {
            let head = format!(r#"{{"id":7,"ok":true,"op":"sweep_point","point":{p},"#);
            assert!(line.starts_with(&head), "{out}");
        }
        assert!(
            lines[3].starts_with(r#"{"id":7,"ok":true,"op":"sweep","#),
            "{out}"
        );
        assert!(lines[3].ends_with(r#""points":3,"failed":0}"#), "{out}");
        assert_eq!(lines[4], r#"{"id":8,"ok":true,"op":"shutdown"}"#);
    }

    #[test]
    fn failed_command_writes_no_trace_file() {
        let path = std::env::temp_dir().join(format!(
            "mmtag-cli-failed-trace-test-{}.json",
            std::process::id()
        ));
        let err = run_err(&[
            "link",
            "--range-ft",
            "banana",
            "--trace",
            path.to_str().unwrap(),
        ]);
        assert_eq!(
            err,
            ArgError::BadValue {
                flag: "range-ft".into(),
                raw: "banana".into()
            }
        );
        let written = path.exists();
        let _ = std::fs::remove_file(&path);
        assert!(!written, "a failed command left a trace file behind");
    }

    #[test]
    fn unwritable_trace_path_is_a_trace_write_error() {
        let err = run_err(&[
            "s11",
            "--trace",
            "/nonexistent-dir-for-mmtag-test/trace.json",
        ]);
        assert!(matches!(err, ArgError::TraceWrite { .. }), "{err:?}");
    }

    #[test]
    fn sweep_with_one_point_emits_one_row() {
        let out = run_line(&["sweep", "--points", "1"]);
        assert_eq!(out.lines().count(), 2, "{out}"); // header + 1 row
        assert!(out.contains("2.00"), "{out}");
    }

    #[test]
    fn sweep_with_zero_points_is_header_only() {
        let out = run_line(&["sweep", "--points", "0"]);
        assert_eq!(out, "range_ft  power_dbm  rate\n");
    }

    #[test]
    fn link_defaults_hit_the_paper_anchor() {
        let out = run_line(&["link"]);
        assert!(out.contains("1.00 Gbps"), "{out}");
    }

    #[test]
    fn link_at_10ft_is_10mbps() {
        let out = run_line(&["link", "--range-ft", "10"]);
        assert!(out.contains("10.00 Mbps"), "{out}");
    }

    #[test]
    fn rotated_link_still_works() {
        let out = run_line(&["link", "--rotation-deg", "40"]);
        assert!(out.contains("Mbps") || out.contains("Gbps"), "{out}");
    }

    #[test]
    fn sweep_has_requested_points() {
        let out = run_line(&["sweep", "--from-ft", "2", "--to-ft", "12", "--points", "6"]);
        assert_eq!(out.lines().count(), 7, "{out}"); // header + 6 rows
        assert!(out.contains("1.00 Gbps") && out.contains("10.00 Mbps"));
    }

    #[test]
    fn s11_shows_both_states() {
        let out = run_line(&["s11"]);
        assert!(out.contains("switch off") && out.contains("switch on"));
        assert!(out.contains("-15.0") || out.contains("-14."), "{out}");
    }

    #[test]
    fn inventory_reads_everyone() {
        let out = run_line(&["inventory", "--tags", "12", "--seed", "7"]);
        assert!(out.contains("tags read       : 12"), "{out}");
    }

    #[test]
    fn locate_reports_small_error() {
        let out = run_line(&["locate", "--range-ft", "5", "--bearing-deg", "15"]);
        assert!(out.contains("error"), "{out}");
        let err_line = out.lines().find(|l| l.contains("error")).unwrap();
        let err: f64 = err_line
            .split(':')
            .nth(1)
            .unwrap()
            .trim()
            .trim_end_matches(" ft")
            .parse()
            .unwrap();
        assert!(err < 2.0, "{out}");
    }

    #[test]
    fn energy_shows_duty_cycle() {
        let out = run_line(&["energy"]);
        assert!(out.contains("sustainable duty"), "{out}");
        assert!(out.contains("µW"));
    }

    #[test]
    fn compare_lists_all_six_systems() {
        let out = run_line(&["compare"]);
        for name in ["RFID", "HitchHike", "BackFi", "mmTag"] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn unknown_command_prints_help() {
        let out = run_line(&["frobnicate"]);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn fixed_wiring_dies_off_axis() {
        let va = run_line(&["link", "--rotation-deg", "30"]);
        let fb = run_line(&["link", "--rotation-deg", "30", "--wiring", "fixed"]);
        assert!(va.contains("100.00 Mbps"), "{va}");
        assert!(!fb.contains("100.00 Mbps") && !fb.contains("Gbps"), "{fb}");
    }

    #[test]
    fn sixty_ghz_band_flag_works() {
        let out = run_line(&["link", "--band-ghz", "60", "--range-ft", "2"]);
        assert!(out.contains("Mbps") || out.contains("Gbps"), "{out}");
    }
}
