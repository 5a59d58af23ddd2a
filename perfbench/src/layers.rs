//! Per-layer metrics for `--trace 1`: each layer's public entry point
//! timed directly, on inputs drawn from the workload seed, with one span
//! per timed call. The same probes run after every workload, so a row
//! that moves names its layer; the daemon counters are the workload's own,
//! over its timed window.

use std::hint::black_box;
use std::time::Instant;

use mmtag_channel::cascade::{HopModel, MultiTagCascade};
use mmtag_channel::fading::{FadeScratch, RicianFading, OUTAGE_CHUNK_TRIALS};
use mmtag_mac::aloha::{inventory_until_drained_scratch, AlohaScratch, QAlgorithm};
use mmtag_mac::city::{CityConfig, CityEngine};
use mmtag_phy::constellation::TagConstellation;
use mmtag_phy::waveform::{
    ber_sweep_par_with, count_bit_errors_scratch, Awgn, OokModem, TrialScratch, MC_CHUNK_BITS,
};
use mmtag_rf::fft::FftPlan;
use mmtag_rf::rng::{Rng, SeedTree};
use mmtag_rf::units::Db;
use mmtag_rf::Complex;
use mmtag_sim::cache::{CachePolicy, RunCache};
use mmtag_sim::des::CalendarQueue;
use mmtag_sim::experiment::Table;
use mmtag_sim::rate_region::{sum_rate_chunk, RateRegionConfig, RateScratch, RATE_CHUNK_TRIALS};
use mmtag_sim::scenario::{Runner, ScenarioSpec};
use mmtag_sim::serve::EngineConfig;
use mmtag_sim::spatial::SpatialHash;
use mmtag_sim::time::{Duration as SimDuration, Instant as SimInstant};
use mmtag_sim::Vec2;

use crate::{hot, ms, repro, stats, sweep};
use crate::{Ctx, Daemon, Outcome, Pin};

/// Per-layer metrics in `BENCHMARK.json` order, printed by `--trace 1`.
pub const PER_LAYER: &[&str] = &[
    "rf.rng.fill_normal_ns",
    "rf.fft.fft1024_ns",
    "rf.pool.dispatch_us",
    "rf.pool.scaling_eff",
    "phy.waveform.ber_ns_per_bit",
    "channel.fading.outage_ns_per_trial",
    "sim.rate_region.ns_per_trial",
    "mac.city.ns_per_event",
    "mac.city.new_ms",
    "sim.des.ns_per_event",
    "sim.spatial.rebuild_ns_per_point",
    "mac.aloha.ns_per_slot",
    "runner.e05-ber_ms",
    "runner.e13-spectrum_ms",
    "runner.e15-fading_ms",
    "runner.e16-bpsk_ms",
    "runner.e19-acquisition_ms",
    "runner.e20-pulse_ms",
    "runner.e21-capture_ms",
    "runner.e24-gen2_ms",
    "runner.e26-cancellation_ms",
    "runner.e27-city-density_ms",
    "runner.e28-city-mobility_ms",
    "runner.e29-rate-region_ms",
    "runner.e30-rate-vs-tags_ms",
    "runner.e31-rate-vs-states_ms",
    "runner.rest_ms",
    "runner.point_ms",
    "sim.cache.store_us",
    "sim.cache.load_us",
    "sim.cache.enforce_ms",
    "sim.cache.entry_bytes",
    "serve.engine.query_hit_ns",
    "serve.engine.run_hit_ns",
    "serve.transport_us",
    "serve.sweep_fanout_eff",
    "serve.memory_hits",
    "serve.disk_hits",
    "serve.sim_runs",
    "serve.dedup_joined",
    "serve.rejected",
    "sim.cache.evicted",
    "serve.useful_ratio",
    "trace_overhead_frac",
];

/// Requests in the serving probes' log.
const PROBE_REQUESTS: usize = 30_000;
/// Cold sweeps in the fan-out probe.
const PROBE_SWEEPS: usize = 5;

/// Runs every probe and appends its metrics.
pub fn probe(ctx: &mut Ctx, out: &mut Outcome) {
    let tree = SeedTree::new(ctx.seed).subtree("layers");
    kernels(ctx, &tree, out);
    city(ctx, &tree, out);
    runner_pass(ctx, out);
    let (point_ms, spec, tables) = runner_point(ctx, out);
    cache(ctx, &spec, &tables, out);
    serving(ctx, point_ms, out);
    counts(out);
}

/// Calls `f` `reps` times, one span each; returns the median seconds per
/// unit of work (each call returns how many units it did) and the number
/// of calls.
fn per_unit(
    ctx: &mut Ctx,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> f64,
) -> (f64, usize) {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let units = f();
        let t1 = Instant::now();
        ctx.trace.span(name, "", t0, t1);
        samples.push((t1 - t0).as_secs_f64() / units);
    }
    (stats::median(&samples), reps)
}

/// The Monte-Carlo kernels and their substrate: RNG, FFT, pool, BER,
/// outage, rate region, event queue, spatial hash and Aloha.
fn kernels(ctx: &mut Ctx, tree: &SeedTree, out: &mut Outcome) {
    let threads = ctx.threads;

    let mut rng = tree.rng("fill-normal");
    let mut normals = vec![0.0f64; 1 << 16];
    let (s, n) = per_unit(ctx, "rf.rng.fill_normal", 41, || {
        rng.fill_normal(&mut normals);
        black_box(&normals);
        normals.len() as f64
    });
    out.metric("rf.rng.fill_normal_ns", s * 1e9, "ns", n);

    let plan = FftPlan::new(1024);
    let mut rng = tree.rng("fft");
    let input: Vec<Complex> = (0..1024)
        .map(|_| {
            let (re, im) = rng.normal_pair();
            Complex::new(re, im)
        })
        .collect();
    let mut buf = input.clone();
    let (s, n) = per_unit(ctx, "rf.fft.fft1024", 41, || {
        for _ in 0..64 {
            buf.copy_from_slice(&input);
            plan.fft(&mut buf);
            black_box(&buf);
        }
        64.0
    });
    out.metric("rf.fft.fft1024_ns", s * 1e9, "ns", n);

    let units = [0u8; 64];
    let (s, n) = per_unit(ctx, "rf.pool.dispatch", 201, || {
        black_box(mmtag_sim::par::par_map_with(threads, &units, |i, _| i));
        1.0
    });
    out.metric("rf.pool.dispatch_us", s * 1e6, "us", n);

    let modem = OokModem::new(4);
    let snrs: Vec<f64> = (0..8).map(|i| 2.0 * i as f64).collect();
    let sweep_tree = tree.subtree("ber-sweep");
    let bits = 16 * MC_CHUNK_BITS;
    let mut curves = Vec::new();
    let (serial, _) = per_unit(ctx, "phy.waveform.ber_sweep_serial", 5, || {
        curves.push(ber_sweep_par_with(
            1,
            &modem,
            &snrs,
            bits,
            true,
            &sweep_tree,
        ));
        1.0
    });
    let (parallel, n) = per_unit(ctx, "phy.waveform.ber_sweep_parallel", 5, || {
        curves.push(ber_sweep_par_with(
            threads,
            &modem,
            &snrs,
            bits,
            true,
            &sweep_tree,
        ));
        1.0
    });
    out.attempted += curves.len() as u64;
    if curves.windows(2).any(|w| w[0] != w[1]) {
        out.fail("ber_sweep_par_with differs between 1 thread and nproc threads");
    }
    out.metric(
        "rf.pool.scaling_eff",
        serial / (parallel * threads as f64),
        "ratio",
        n,
    );

    let awgn = Awgn::for_eb_n0(&modem, 6.0);
    let mut scratch = TrialScratch::new();
    let mut rng = tree.rng("ber");
    let (s, n) = per_unit(ctx, "phy.waveform.count_bit_errors", 15, || {
        let mut errors = 0;
        for _ in 0..32 {
            errors += count_bit_errors_scratch(
                &modem,
                &awgn,
                MC_CHUNK_BITS,
                true,
                &mut rng,
                &mut scratch,
            );
        }
        black_box(errors);
        (32 * MC_CHUNK_BITS) as f64
    });
    out.metric("phy.waveform.ber_ns_per_bit", s * 1e9, "ns", n);

    let fading = RicianFading::mmwave_los();
    let mut scratch = FadeScratch::new();
    let mut rng = tree.rng("outage");
    let (s, n) = per_unit(ctx, "channel.fading.count_outages", 15, || {
        let mut outages = 0;
        for _ in 0..8 {
            outages += fading.count_outages_scratch(
                Db::new(10.0),
                OUTAGE_CHUNK_TRIALS,
                &mut rng,
                &mut scratch,
            );
        }
        black_box(outages);
        (8 * OUTAGE_CHUNK_TRIALS) as f64
    });
    out.metric("channel.fading.outage_ns_per_trial", s * 1e9, "ns", n);

    // The E29 cell: two tags on the canonical ring, 4-PSK.
    let cfg = RateRegionConfig {
        cascade: MultiTagCascade::ring(
            2,
            10.0,
            2.0,
            HopModel::new(2.6, 5.0),
            HopModel::new(2.4, 5.0),
            HopModel::new(2.0, 5.0),
        ),
        constellation: TagConstellation::psk(4, 0.5),
        snr_db: 10.0,
        symbol_ratio: 10.0,
    };
    let rate_tree = tree.subtree("rate-region");
    let mut scratch = RateScratch::new();
    let mut chunk = 0u64;
    let (s, n) = per_unit(ctx, "sim.rate_region.sum_rate_chunk", 7, || {
        black_box(sum_rate_chunk(
            &cfg,
            &rate_tree,
            chunk,
            RATE_CHUNK_TRIALS,
            &mut scratch,
        ));
        chunk += 1;
        RATE_CHUNK_TRIALS as f64
    });
    out.metric("sim.rate_region.ns_per_trial", s * 1e9, "ns", n);

    // A steady calendar: 1024 pending events a few MAC slots apart; each
    // pop schedules one successor.
    let mut rng = tree.rng("des");
    let mut queue: CalendarQueue<u32> =
        CalendarQueue::with_layout(SimDuration::from_micros(3), 256);
    for e in 0..1024 {
        queue.schedule_at(SimInstant::from_nanos(rng.below(3_000_000)), e);
    }
    let (s, n) = per_unit(ctx, "sim.des.cycle", 9, || {
        for _ in 0..100_000 {
            let (at, e) = queue.pop().expect("the queue always holds 1024 events");
            queue.schedule_at(
                SimInstant::from_nanos(at.as_nanos() + 1 + rng.below(3_000_000)),
                e,
            );
        }
        100_000.0
    });
    out.metric("sim.des.ns_per_event", s * 1e9, "ns", n);

    // The dense city's world and coverage-sized cells.
    let mut rng = tree.rng("spatial");
    let points: Vec<Vec2> = (0..100_000)
        .map(|_| Vec2::new(rng.f64() * 200.0, rng.f64() * 200.0))
        .collect();
    let mut hash = SpatialHash::new(Vec2::ORIGIN, Vec2::new(200.0, 200.0), 37.5);
    let (s, n) = per_unit(ctx, "sim.spatial.rebuild", 21, || {
        hash.rebuild(&points);
        black_box(&hash);
        points.len() as f64
    });
    out.metric("sim.spatial.rebuild_ns_per_point", s * 1e9, "ns", n);

    let mut rng = tree.rng("aloha");
    let mut scratch = AlohaScratch::new();
    let (s, n) = per_unit(ctx, "mac.aloha.drain", 15, || {
        let mut slots = 0;
        for _ in 0..64 {
            slots += inventory_until_drained_scratch(
                128,
                QAlgorithm::new(),
                10_000,
                &mut rng,
                &mut scratch,
            )
            .total_slots;
        }
        slots as f64
    });
    out.metric("mac.aloha.ns_per_slot", s * 1e9, "ns", n);
}

/// `CityEngine::new` and `run_rounds(nproc)` on the E27 top density.
fn city(ctx: &mut Ctx, tree: &SeedTree, out: &mut Outcome) {
    let cfg = CityConfig::dense(100_000, 12);
    let mut new_ms = Vec::new();
    let mut ns_per_event = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut engine = CityEngine::new(cfg, tree.subtree("city"));
        let t1 = Instant::now();
        let stats = engine.run_rounds(ctx.threads);
        let t2 = Instant::now();
        ctx.trace.span("mac.city.new", "", t0, t1);
        ctx.trace.span("mac.city.run_rounds", "", t1, t2);
        new_ms.push(ms(t0, t1));
        ns_per_event.push((t2 - t1).as_secs_f64() * 1e9 / stats.events.max(1) as f64);
    }
    out.metric(
        "mac.city.new_ms",
        stats::median(&new_ms),
        "ms",
        new_ms.len(),
    );
    out.metric(
        "mac.city.ns_per_event",
        stats::median(&ns_per_event),
        "ns",
        ns_per_event.len(),
    );
}

/// `Runner::run` per scenario over one cold pass of the registry.
fn runner_pass(ctx: &mut Ctx, out: &mut Outcome) {
    let scenarios = repro::scenarios(ctx.seed, None);
    let pass = repro::pass(&scenarios, ctx.threads, &mut ctx.trace);
    repro::drain_obs();
    out.attempted += scenarios.len() as u64;
    for name in &pass.panicked {
        out.fail(format!("{name} panicked in the runner probe"));
    }
    let (mut rest_ms, mut rest_n) = (0.0, 0);
    for (s, &t) in scenarios.iter().zip(&pass.ms) {
        let name = s.spec().name.as_str();
        if repro::TIMED_SCENARIOS.contains(&name) {
            out.metric(format!("runner.{name}_ms"), t, "ms", 1);
        } else {
            rest_ms += t;
            rest_n += 1;
        }
    }
    out.metric("runner.rest_ms", rest_ms, "ms", rest_n);
}

/// `Runner::with_threads(1).run` of one serve-sweep point, no cache.
/// Returns its time (ms), spec and tables for the cache probes.
fn runner_point(ctx: &mut Ctx, out: &mut Outcome) -> (f64, ScenarioSpec, Vec<Table>) {
    let scenario = sweep::point_scenario(ctx.seed);
    let runner = Runner::with_threads(1);
    let mut tables = Vec::new();
    let (s, n) = per_unit(ctx, "runner.point", 9, || {
        tables = runner.run(&*scenario).tables;
        1.0
    });
    repro::drain_obs();
    out.metric("runner.point_ms", s * 1e3, "ms", n);
    (s * 1e3, scenario.spec().clone(), tables)
}

/// `RunCache` store, load and policy enforcement on serve-sweep points, at
/// the serve-sweep budget and its steady-state entry count.
fn cache(ctx: &mut Ctx, spec: &ScenarioSpec, tables: &[Table], out: &mut Outcome) {
    let dir = ctx.dir.join("probe-cache");
    let cache = RunCache::at(&dir);
    let entry = |k: u64| spec.clone().with_seed(spec.seed + 1 + k);
    let stored: Vec<ScenarioSpec> = (0..64).map(entry).collect();

    let mut store_us = Vec::with_capacity(stored.len());
    for s in &stored {
        let t0 = Instant::now();
        let result = cache.store(s, tables);
        let t1 = Instant::now();
        ctx.trace.span("sim.cache.store", "", t0, t1);
        store_us.push(ms(t0, t1) * 1e3);
        out.attempted += 1;
        if let Err(e) = result {
            out.fail(format!("RunCache::store: {e}"));
        }
    }
    let rendered: Vec<String> = tables.iter().map(Table::render).collect();
    let mut load_us = Vec::with_capacity(stored.len());
    for s in &stored {
        let t0 = Instant::now();
        let loaded = cache.load(s);
        let t1 = Instant::now();
        ctx.trace.span("sim.cache.load", "", t0, t1);
        load_us.push(ms(t0, t1) * 1e3);
        out.attempted += 1;
        let replayed =
            loaded.is_some_and(|l| l.iter().map(Table::render).eq(rendered.iter().cloned()));
        if !replayed {
            out.fail("RunCache::load did not replay the stored tables");
        }
    }
    out.metric(
        "sim.cache.store_us",
        stats::median(&store_us),
        "us",
        store_us.len(),
    );
    out.metric(
        "sim.cache.load_us",
        stats::median(&load_us),
        "us",
        load_us.len(),
    );
    let entry_bytes = std::fs::metadata(cache.entry_path(&stored[0])).map_or(0, |m| m.len());
    out.metric("sim.cache.entry_bytes", entry_bytes as f64, "bytes", 1);

    // Each round refills the directory to the serve-sweep steady state —
    // the budget plus one amortization period of entries — and times the
    // sweep that trims it back.
    let bounded = RunCache::at(&dir).with_policy(CachePolicy {
        max_bytes: Some(sweep::BUDGET),
        max_age: None,
    });
    let steady = sweep::BUDGET / entry_bytes.max(1) + sweep::CAMPAIGN_POINTS;
    let mut next = stored.len() as u64;
    let mut enforce_ms = Vec::new();
    for _ in 0..9 {
        if entry_bytes == 0 {
            out.fail("no cache entry to size the enforcement probe");
            break;
        }
        for _ in cache.stats().entries as u64..steady {
            if let Err(e) = cache.store(&entry(next), tables) {
                out.fail(format!("RunCache::store: {e}"));
            }
            next += 1;
        }
        let t0 = Instant::now();
        let result = bounded.enforce_policy();
        let t1 = Instant::now();
        ctx.trace.span("sim.cache.enforce_policy", "", t0, t1);
        out.attempted += 1;
        match result {
            Ok(_) => enforce_ms.push(ms(t0, t1)),
            Err(e) => out.fail(format!("RunCache::enforce_policy: {e}")),
        }
    }
    out.metric(
        "sim.cache.enforce_ms",
        stats::median(&enforce_ms),
        "ms",
        enforce_ms.len(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve layer: `Engine::handle_line` on warm lines, the socket's
/// share of a hot request, and the sweep fan-out's efficiency.
fn serving(ctx: &mut Ctx, point_ms: f64, out: &mut Outcome) {
    let log = hot::log(ctx.seed, PROBE_REQUESTS);
    let (engine, expected) = hot::oracle(&log);
    let queries = hot::lines_of(&log, false);
    let runs = hot::lines_of(&log, true);
    let mut buf = String::new();
    let (s, n) = per_unit(ctx, "serve.engine.query", 15, || {
        for line in &queries {
            buf.clear();
            engine.handle_line(line, &mut buf);
        }
        queries.len() as f64
    });
    out.metric("serve.engine.query_hit_ns", s * 1e9, "ns", n);
    let (s, n) = per_unit(ctx, "serve.engine.run", 15, || {
        for _ in 0..256 {
            for line in &runs {
                buf.clear();
                engine.handle_line(line, &mut buf);
            }
        }
        (256 * runs.len()) as f64
    });
    out.metric("serve.engine.run_hit_ns", s * 1e9, "ns", n);

    // Transport: the same log through a socket, pinned as serve-hot is,
    // less the engine's own median on it.
    let mut engine_ns = Vec::with_capacity(log.order.len());
    for &li in &log.order {
        buf.clear();
        let t0 = Instant::now();
        engine.handle_line(&log.lines[li as usize], &mut buf);
        engine_ns.push(t0.elapsed().as_nanos() as f64);
    }
    let pin = Pin::first_cpu();
    let daemon = Daemon::start(&ctx.dir, "probe-hot", EngineConfig::default(), None);
    hot::warm(&daemon.sock, &log, out);
    let socket_ns = hot::replay(ctx, &daemon.sock, &log, &log.order, &expected, out, false);
    daemon.stop();
    drop(pin);
    out.metric(
        "serve.transport_us",
        (stats::median(&socket_ns) - stats::median(&engine_ns)) / 1e3,
        "us",
        socket_ns.len(),
    );

    let wall = sweep::cold_sweeps(ctx, PROBE_SWEEPS, out);
    out.metric(
        "serve.sweep_fanout_eff",
        sweep::CAMPAIGN_POINTS as f64 * point_ms / (ctx.threads as f64 * stats::median(&wall)),
        "ratio",
        wall.len(),
    );
}

/// The daemon counters over the workload's timed window (all zero when
/// the workload runs no daemon).
fn counts(out: &mut Outcome) {
    let s = out.counts.unwrap_or_default();
    for (name, v) in [
        ("serve.memory_hits", s.memory_hits),
        ("serve.disk_hits", s.disk_hits),
        ("serve.sim_runs", s.sim_runs),
        ("serve.dedup_joined", s.dedup_joined),
        ("serve.rejected", s.rejected),
        ("sim.cache.evicted", s.evicted),
    ] {
        out.metric(name, v as f64, "count", 1);
    }
    let resolutions = s.memory_hits + s.disk_hits + s.sim_runs + s.dedup_joined;
    let useful = if resolutions == 0 {
        0.0
    } else {
        (resolutions - s.sim_runs) as f64 / resolutions as f64
    };
    out.metric("serve.useful_ratio", useful, "ratio", resolutions as usize);
}
