//! The perf-trajectory report for the Monte-Carlo engine.
//!
//! Rows, all asserted bit-identical where the determinism contract
//! applies, written to `BENCH_report.json` under the core-aware schema of
//! [`mmtag_bench::report`]:
//!
//! * **kernel costs** at one thread — the BER and outage lane kernels,
//!   the Gaussian fill, the 1024-point FFT, the Aloha drain loop and the
//!   city engine — as raw timings plus per-work-unit costs in
//!   `ns_per_bit`, whose named rows `--verify` requires. A kernel
//!   regression is judged against the previous run of the repository
//!   benchmark (`BENCHMARK.json`, `perfbench`), not against an older
//!   implementation kept for comparison;
//! * **serial → parallel** speedups of the engine hot paths (single-point
//!   BER, an 8-point BER sweep, an Aloha inventory ensemble, the city
//!   engine) at *pinned* thread counts (1 and 4). A pinned count the host
//!   cannot physically run in parallel (fewer cores than threads) is
//!   **skipped**: bit-identity is still asserted, but the timing row
//!   becomes `null` with a reason in `skipped` — a time-sliced "speedup"
//!   is a measurement of the scheduler, not the pool;
//! * the city engine's `throughput` block (`*_tags_per_sec`,
//!   `*_events_per_sec`), the serving rows and the rate-region rows
//!   `--verify` requires.
//!
//! Modes: no args = full-fidelity run; `--quick` = small timing rounds so
//! `scripts/check.sh` can regenerate and validate a report on every
//! check in seconds; `--verify` = don't benchmark at all, just require
//! that `BENCH_report.json` in the working directory exists, parses, and
//! passes the schema gate (exit 1 otherwise).

use mmtag_bench::report::{verify_report, Report};
use mmtag_bench::timing::{bench_with, format_result, BenchResult};
use mmtag_channel::fading::{FadeScratch, RicianFading};
use mmtag_mac::aloha::{
    inventory_ensemble_par_with, inventory_until_drained_scratch, AlohaScratch, QAlgorithm,
};
use mmtag_mac::city::{CityConfig, CityEngine};
use mmtag_phy::waveform::{
    ber_sweep_par_with, count_bit_errors_scratch, measure_ber_par_with, Awgn, OokModem,
    TrialScratch, MC_CHUNK_BITS,
};
use mmtag_rf::complex::Complex;
use mmtag_rf::fft::FftPlan;
use mmtag_rf::obs;
use mmtag_rf::rng::{Rng, SeedTree};
use mmtag_rf::units::Db;

const BER_BITS: usize = 100_000;
/// Pinned thread counts for the serial-vs-parallel rows: 1 (pool
/// bypassed, measures dispatch overhead) and 4 (the speedup headline).
const PAR_THREADS: [usize; 2] = [1, 4];
const BER_SNRS: [f64; 8] = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0];
const TAGS: usize = 128;
const REPS: usize = 16;
const OUTAGE_TRIALS: usize = 100_000;
const FILL_SAMPLES: usize = 65_536;
const FFT_N: usize = 1024;

const REPORT: &str = "BENCH_report.json";

fn verify() -> ! {
    match std::fs::read_to_string(REPORT) {
        Err(e) => {
            eprintln!("bench_report --verify: cannot read {REPORT}: {e}");
            std::process::exit(1);
        }
        Ok(text) => match verify_report(&text) {
            Err(e) => {
                eprintln!("bench_report --verify: {REPORT} fails the schema gate: {e}");
                std::process::exit(1);
            }
            Ok(()) => {
                println!("{REPORT}: schema gate passed ({} bytes)", text.len());
                std::process::exit(0);
            }
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--verify") {
        verify();
    }
    let quick = args.iter().any(|a| a == "--quick");
    // Quick mode: ~6 ms rounds, 2 rounds — noisy numbers, same pipeline.
    let (target, rounds) = if quick {
        (6_000_000, 2)
    } else {
        (80_000_000, 5)
    };
    let bench = |name: &str, f: &mut dyn FnMut() -> f64| -> BenchResult {
        bench_with(name, target, rounds, f)
    };

    let threads = mmtag_rf::par::thread_limit();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tree = SeedTree::new(0xBE9C);
    let modem = OokModem::new(4);
    let mut results: Vec<BenchResult> = Vec::new();
    let mut speedups: Vec<(String, Option<f64>)> = Vec::new();
    let mut skipped: Vec<(String, String)> = Vec::new();
    let mut scaling: Vec<(String, f64)> = Vec::new();
    let mut ns_per_bit: Vec<(String, f64)> = Vec::new();
    let mut throughput: Vec<(String, f64)> = Vec::new();

    // ---- kernel costs, all serial ----
    //
    // The BER lane kernel over the same chunk decomposition the parallel
    // estimators use.
    let mut chunk_errors_lanes = || {
        let awgn = Awgn::for_eb_n0(&modem, 7.0);
        let mut scratch = TrialScratch::new();
        let mut total = 0u64;
        let chunks = BER_BITS.div_ceil(MC_CHUNK_BITS);
        for ci in 0..chunks {
            let n = MC_CHUNK_BITS.min(BER_BITS - ci * MC_CHUNK_BITS);
            let mut rng = tree.rng_indexed("ber-chunk", ci as u64);
            total +=
                count_bit_errors_scratch(&modem, &awgn, n, true, &mut rng, &mut scratch) as u64;
        }
        total as f64 / BER_BITS as f64
    };
    let l = bench("ber_kernel_lanes_100kbit", &mut chunk_errors_lanes);
    let lanes_untraced = l.clone();
    ns_per_bit.push(("ber_kernel_lanes".into(), l.ns_per_iter / BER_BITS as f64));
    results.push(l);

    // Rician outage lane kernel.
    let fader = RicianFading::mmwave_los();
    let l = bench("outage_kernel_lanes_100k", &mut || {
        let mut rng = tree.rng_indexed("outage-chunk", 0);
        let mut scratch = FadeScratch::new();
        fader.count_outages_scratch(Db::new(7.0), OUTAGE_TRIALS, &mut rng, &mut scratch) as f64
            / OUTAGE_TRIALS as f64
    });
    ns_per_bit.push((
        "outage_kernel_lanes".into(),
        l.ns_per_iter / OUTAGE_TRIALS as f64,
    ));
    results.push(l);

    // Gaussian fill: the fused Box–Muller lane pipeline.
    let mut buf = vec![0.0f64; FILL_SAMPLES];
    let l = bench("fill_normal_lanes_64k", &mut || {
        let mut rng = tree.rng_indexed("fill-bench", 0);
        rng.fill_normal(&mut buf);
        buf[0]
    });
    ns_per_bit.push((
        "fill_normal_lanes".into(),
        l.ns_per_iter / FILL_SAMPLES as f64,
    ));
    results.push(l);

    // FFT: the radix-4 plan `FftPlan::new` picks for power-of-4 sizes
    // (1024 is every Welch/spectrum experiment's nfft); its `ns_per_bit`
    // row is the cost of one transform.
    let sig: Vec<Complex> = (0..FFT_N)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
        .collect();
    let plan4 = FftPlan::new(FFT_N);
    assert_eq!(plan4.radix(), 4, "1024 must take the radix-4 kernel");
    let mut buf = sig.clone();
    let l = bench("fft1024_radix4", &mut || {
        plan4.fft(&mut buf);
        buf[0].re
    });
    ns_per_bit.push(("fft1024".into(), l.ns_per_iter));
    results.push(l);

    // Aloha drain loop on the slot-count scratch kernel.
    results.push(bench("aloha_drain_scratch_128tags", &mut || {
        let mut rng = tree.rng_indexed("aloha-rep", 0);
        let mut scratch = AlohaScratch::new();
        inventory_until_drained_scratch(TAGS, QAlgorithm::new(), 100_000, &mut rng, &mut scratch)
            .total_slots as f64
    }));

    // ---- serial vs parallel at pinned thread counts (pool rows) ----
    //
    // `par1` runs the same serial code path through the parallel entry
    // point (threads ≤ 1 bypasses the pool), so its ratio near 1.0 is the
    // dispatch-overhead sanity row; `par4` is the speedup headline. Every
    // parallel result is asserted bit-identical to the serial one first —
    // the determinism contract the pool rewrite must preserve — even when
    // the *timing* is skipped because the host has fewer cores than the
    // pinned thread count (a time-sliced ratio measures the scheduler,
    // not the pool; the row becomes `null` with a reason in `skipped`).
    let mut par_row = |t: usize,
                       name: &str,
                       serial: &BenchResult,
                       speedups: &mut Vec<(String, Option<f64>)>,
                       results: &mut Vec<BenchResult>,
                       f: &mut dyn FnMut() -> f64| {
        let row = format!("{name}_par{t}_vs_serial");
        if t > cores {
            speedups.push((row.clone(), None));
            skipped.push((row, format!("cores={cores} < threads={t}")));
            return;
        }
        let p = bench(&format!("{name}_par{t}"), f);
        let ratio = p.speedup_over(serial);
        speedups.push((row, Some(ratio)));
        scaling.push((format!("{name}_par{t}"), ratio / t as f64));
        results.push(p);
    };

    // Single-point BER, chunk-parallel.
    let s = bench("ber_point_100kbit_serial", &mut || {
        measure_ber_par_with(1, &modem, 7.0, BER_BITS, true, &tree)
    });
    let a = measure_ber_par_with(1, &modem, 7.0, BER_BITS, true, &tree);
    results.push(s.clone());
    for t in PAR_THREADS {
        let b = measure_ber_par_with(t, &modem, 7.0, BER_BITS, true, &tree);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "parallel BER must be bit-identical at {t} threads"
        );
        par_row(
            t,
            "ber_point_100kbit",
            &s,
            &mut speedups,
            &mut results,
            &mut || measure_ber_par_with(t, &modem, 7.0, BER_BITS, true, &tree),
        );
    }

    // Full sweep, parallel over the flattened (SNR × chunk) grid.
    let s = bench("ber_sweep_8x100kbit_serial", &mut || {
        ber_sweep_par_with(1, &modem, &BER_SNRS, BER_BITS, true, &tree)[0]
    });
    let a = ber_sweep_par_with(1, &modem, &BER_SNRS, BER_BITS, true, &tree);
    results.push(s.clone());
    for t in PAR_THREADS {
        let b = ber_sweep_par_with(t, &modem, &BER_SNRS, BER_BITS, true, &tree);
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "parallel BER sweep must be bit-identical at {t} threads"
        );
        par_row(
            t,
            "ber_sweep_8x100kbit",
            &s,
            &mut speedups,
            &mut results,
            &mut || ber_sweep_par_with(t, &modem, &BER_SNRS, BER_BITS, true, &tree)[0],
        );
    }

    // Inventory ensemble, one repetition per work unit, scratch per worker.
    let s = bench("aloha_ensemble_128tags_x16_serial", &mut || {
        inventory_ensemble_par_with(1, TAGS, QAlgorithm::new(), 100_000, REPS, &tree)[0].total_slots
            as f64
    });
    let a = inventory_ensemble_par_with(1, TAGS, QAlgorithm::new(), 100_000, REPS, &tree);
    results.push(s.clone());
    for t in PAR_THREADS {
        let b = inventory_ensemble_par_with(t, TAGS, QAlgorithm::new(), 100_000, REPS, &tree);
        assert_eq!(
            a, b,
            "parallel ensemble must be bit-identical at {t} threads"
        );
        par_row(
            t,
            "aloha_ensemble_128tags_x16",
            &s,
            &mut speedups,
            &mut results,
            &mut || {
                inventory_ensemble_par_with(t, TAGS, QAlgorithm::new(), 100_000, REPS, &tree)[0]
                    .total_slots as f64
            },
        );
    }

    // ---- city engine: the sharded calendar-queue DES ----
    //
    // The city-scale rows: a dense reader grid inventorying 10⁵ (quick)
    // or 10⁶ (full) mobile tags. Bit-identity across thread counts is
    // asserted *before* any timing; `par{t}` rows follow the same
    // honest core-aware skip as every other pool row. `city_ns_per_event`
    // and the `throughput` rows (`tags_per_sec`, `events_per_sec`) are
    // what `--verify` pins: wall-clock engine rate of the production path
    // (tag-rounds and DES events per second).
    let city_tags: usize = if quick { 100_000 } else { 1_000_000 };
    let city_rounds = if quick { 3 } else { 6 };
    let city_label = format!("city_{}k", city_tags / 1_000);
    let city_cfg = CityConfig::dense(city_tags, city_rounds);
    let city_tree = tree.subtree("city-bench");
    let city_stats = {
        let want = CityEngine::new(city_cfg, city_tree).run_rounds(1);
        assert!(want.tags_read > 0, "city bench must actually read tags");
        for t in [2usize, 4] {
            let mut eng = CityEngine::new(city_cfg, city_tree);
            assert_eq!(
                eng.run_rounds(t),
                want,
                "sharded city engine must be bit-identical at {t} threads"
            );
        }
        want
    };
    let l = bench(&format!("{city_label}_calendar_serial"), &mut || {
        let mut eng = CityEngine::new(city_cfg, city_tree);
        eng.run_rounds(1).tags_read as f64
    });
    ns_per_bit.push((
        "city_ns_per_event".into(),
        l.ns_per_iter / city_stats.events as f64,
    ));
    // Throughput is engine rate, not MAC yield: every round streams the
    // whole population through mobility/harvest/assignment regardless of
    // how many tags the (still-adapting) Q-algorithm reads, so the
    // tags-per-second row is population × rounds over wall time.
    let city_secs = l.ns_per_iter / 1e9;
    throughput.push((
        format!("{city_label}_tags_per_sec"),
        (city_tags as u64 * city_stats.rounds) as f64 / city_secs,
    ));
    throughput.push((
        format!("{city_label}_events_per_sec"),
        city_stats.events as f64 / city_secs,
    ));
    for t in PAR_THREADS {
        par_row(t, &city_label, &l, &mut speedups, &mut results, &mut || {
            let mut eng = CityEngine::new(city_cfg, city_tree);
            eng.run_rounds(t).tags_read as f64
        });
    }
    results.push(l);

    // ---- serving: daemon + load generator ----
    //
    // Four passes, all fully shut down before the traced pass below
    // (executors drain the global obs log after every job, which would
    // swallow trace spans):
    //
    // 1. the *point mix* pass: an in-process daemon on an ephemeral TCP
    //    port, driven by the deterministic loadgen mix over ONE
    //    closed-loop connection so the expected hit/miss classification
    //    matches arrival order exactly. A fresh cache directory makes
    //    the first request per seed a true simulation; every repeat
    //    resolves from the in-memory store. `--verify` holds the report
    //    to `cache_hit_ratio > 0.5` and `miss_p50 ≥ 10 × hit_p99`;
    // 2. the *sweep-heavy* pass: the same daemon, driven by
    //    `Mix::sweep_heavy()` — this is where `sweep_jobs_per_sec` and
    //    `points_per_sec` come from (campaign seed bases sit beyond the
    //    point pool, so sweep points are genuinely cold);
    // 3. the *executors-scaling* pass (cores ≥ 2 only): the same point
    //    mix replayed against fresh daemons at 1 and 2 executors,
    //    `serving_scaling_efficiency` = (jobs/s ratio) ÷ 2. On fewer
    //    cores the row is null + skipped, like the par{t} rows;
    // 4. the *sweep-fanout* pass (cores ≥ 2 only): one cache-cold
    //    64-point sweep request vs the same 64 points as individual
    //    `run` requests, equal thread budget (sweep: 1 executor × 2
    //    job threads; pointwise: 2 executors × 1 thread over 2
    //    connections). Gated at ≥ 2× in `speedups`.
    let serving = {
        use mmtag_bench::loadgen::{self, Mix};
        use mmtag_sim::cache::RunCache;
        use mmtag_sim::serve::{Client, EngineConfig, Server};
        use std::time::Instant;

        let fresh_cache = |tag: &str| {
            let dir = std::path::Path::new("target").join(format!("mmtag-serve-bench-{tag}"));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let start_server = |cache_dir: &std::path::Path, executors: usize, job_threads: usize| {
            Server::builder(mmtag_bench::scenarios::registry())
                .tcp("127.0.0.1:0")
                .cache(RunCache::at(cache_dir))
                .config(EngineConfig {
                    executors,
                    job_threads,
                    queue_capacity: 64,
                    memory_capacity: 64,
                })
                .start()
                .expect("serve daemon failed to start")
        };
        let stop_server = |server: Server, addr: std::net::SocketAddr| {
            Client::connect_tcp(addr)
                .and_then(|mut c| c.roundtrip("{\"id\":0,\"op\":\"shutdown\"}"))
                .expect("daemon shutdown");
            server.join();
        };

        // Pass 1: point mix (hit/miss latency, jobs/s, hit ratio).
        let cache_dir = fresh_cache("mix");
        let mut mix = Mix::quick();
        let n_requests = if quick {
            mix.trials = 60_000;
            160
        } else {
            mix.trials = 150_000;
            480
        };
        let server = start_server(&cache_dir, 2, threads.clamp(1, 2));
        let addr = server.tcp_addr().expect("tcp listener");
        let requests = loadgen::generate(&mix, n_requests, 0x5EED);
        let summary = loadgen::closed_loop(&move || Client::connect_tcp(addr), 1, &requests)
            .expect("loadgen run failed");

        // Pass 2: sweep-heavy mix on the same (warm) daemon — sweep
        // campaigns use seed bases beyond the point pool, so their grid
        // points still exercise the cold fan-out path.
        let mut sweep_mix = Mix::sweep_heavy();
        sweep_mix.trials = mix.trials;
        let n_sweep = if quick { 48 } else { 144 };
        let sweep_requests = loadgen::generate(&sweep_mix, n_sweep, 0x5EED);
        let sweep_summary =
            loadgen::closed_loop(&move || Client::connect_tcp(addr), 1, &sweep_requests)
                .expect("sweep-heavy loadgen run failed");
        stop_server(server, addr);
        assert!(
            sweep_summary.sweep_jobs > 0,
            "sweep-heavy mix must retire sweep jobs"
        );
        println!(
            "serving: {} reqs ({} ok, {} rejected), hit p50/p99 {}/{} us, miss p50/p99 {}/{} us, {:.0} jobs/s, hit ratio {:.3}",
            summary.requests,
            summary.ok,
            summary.rejected,
            summary.hit_p50_us,
            summary.hit_p99_us,
            summary.miss_p50_us,
            summary.miss_p99_us,
            summary.jobs_per_sec,
            summary.cache_hit_ratio,
        );
        println!(
            "serving (sweep-heavy): {} sweeps ({} points), {:.1} sweep jobs/s, {:.1} points/s",
            sweep_summary.sweep_jobs,
            sweep_summary.sweep_points,
            sweep_summary.sweep_jobs_per_sec,
            sweep_summary.points_per_sec,
        );

        // Pass 3: executors scaling — honest null on a host that cannot
        // physically run two executors in parallel.
        let scaling_efficiency = if cores < 2 {
            skipped.push((
                "serving_scaling_efficiency".into(),
                format!("cores={cores} < 2"),
            ));
            None
        } else {
            let mut jobs = [0.0f64; 2];
            for (i, executors) in [1usize, 2].into_iter().enumerate() {
                let dir = fresh_cache(&format!("scale-e{executors}"));
                let server = start_server(&dir, executors, 1);
                let addr = server.tcp_addr().expect("tcp listener");
                let s = loadgen::closed_loop(&move || Client::connect_tcp(addr), 2, &requests)
                    .expect("scaling loadgen run failed");
                jobs[i] = s.jobs_per_sec;
                stop_server(server, addr);
                let _ = std::fs::remove_dir_all(&dir);
            }
            let eff = (jobs[1] / jobs[0]) / 2.0;
            println!(
                "serving scaling: 2 executors vs 1 -> {:.2}x jobs/s (efficiency {eff:.3})",
                jobs[1] / jobs[0]
            );
            Some(eff)
        };

        // Pass 4: one 64-point cache-cold sweep vs 64 pointwise runs.
        // Small trial counts keep each point under one Monte-Carlo
        // chunk, so the pointwise path cannot parallelize *inside* a
        // job — the grid is the only axis with parallelism to harvest,
        // which is precisely the sweep op's claim.
        const FANOUT_POINTS: u64 = 64;
        let fanout = if cores < 2 {
            skipped.push((
                "sweep_fanout_vs_pointwise".into(),
                format!("cores={cores} < 2"),
            ));
            None
        } else {
            let fanout_trials = 2_000;
            let dir = fresh_cache("fanout-sweep");
            let server = start_server(&dir, 1, 2);
            let addr = server.tcp_addr().expect("tcp listener");
            let mut client = Client::connect_tcp(addr).expect("fanout sweep connect");
            let req = format!(
                "{{\"id\":1,\"op\":\"sweep\",\"scenario\":\"e05-ber\",\"seeds\":{FANOUT_POINTS},\"seed\":0,\"trials\":{fanout_trials},\"points\":8}}"
            );
            let mut resp = String::new();
            let t0 = Instant::now();
            let n = client.sweep_into(&req, &mut resp).expect("fanout sweep");
            let sweep_secs = t0.elapsed().as_secs_f64();
            assert_eq!(
                n, FANOUT_POINTS as usize,
                "fanout sweep must stream every point"
            );
            drop(client);
            stop_server(server, addr);
            let _ = std::fs::remove_dir_all(&dir);

            let dir = fresh_cache("fanout-point");
            let server = start_server(&dir, 2, 1);
            let addr = server.tcp_addr().expect("tcp listener");
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for lane in 0..2u64 {
                    scope.spawn(move || {
                        let mut client = Client::connect_tcp(addr).expect("fanout run connect");
                        let mut resp = String::new();
                        for p in (lane..FANOUT_POINTS).step_by(2) {
                            let req = format!(
                                "{{\"id\":{p},\"op\":\"run\",\"scenario\":\"e05-ber\",\"seed\":{p},\"trials\":{fanout_trials},\"points\":8}}"
                            );
                            client.roundtrip_into(&req, &mut resp).expect("fanout run");
                            assert!(resp.contains("\"ok\":true"), "fanout run failed: {resp}");
                        }
                    });
                }
            });
            let point_secs = t0.elapsed().as_secs_f64();
            stop_server(server, addr);
            let _ = std::fs::remove_dir_all(&dir);
            let ratio = point_secs / sweep_secs;
            println!(
                "serving fanout: {FANOUT_POINTS}-point sweep {:.1} pts/s vs pointwise {:.1} pts/s -> {ratio:.2}x",
                FANOUT_POINTS as f64 / sweep_secs,
                FANOUT_POINTS as f64 / point_secs,
            );
            Some(ratio)
        };
        speedups.push(("sweep_fanout_vs_pointwise".into(), fanout));

        vec![
            ("hit_p50_us".to_string(), Some(summary.hit_p50_us as f64)),
            ("hit_p99_us".to_string(), Some(summary.hit_p99_us as f64)),
            ("miss_p50_us".to_string(), Some(summary.miss_p50_us as f64)),
            ("miss_p99_us".to_string(), Some(summary.miss_p99_us as f64)),
            ("jobs_per_sec".to_string(), Some(summary.jobs_per_sec)),
            ("cache_hit_ratio".to_string(), Some(summary.cache_hit_ratio)),
            (
                "sweep_jobs_per_sec".to_string(),
                Some(sweep_summary.sweep_jobs_per_sec),
            ),
            (
                "points_per_sec".to_string(),
                Some(sweep_summary.points_per_sec),
            ),
            ("serving_scaling_efficiency".to_string(), scaling_efficiency),
            (
                "cache_entries".to_string(),
                Some(summary.cache_entries as f64),
            ),
            ("cache_bytes".to_string(), Some(summary.cache_bytes as f64)),
            ("requests".to_string(), Some(summary.requests as f64)),
            ("rejected".to_string(), Some(summary.rejected as f64)),
        ]
    };

    // ---- rate region: E29 kernel cost + single-tag AWGN anchor ----
    //
    // Two rows with different jobs: the *anchor* proves the estimator is
    // still on its analytic pin (one tag, K = ∞ everywhere — no
    // randomness left, so the Monte-Carlo primary rate must equal
    // log2(1 + ρ|1 + a·ĉ|²) to fp accumulation error; `--verify` holds
    // the gap under RATE_ANCHOR_TOL), and `ns_per_trial` tracks what one
    // trial of the canonical two-tag 4-PSK E29 cell costs.
    let rate_region = {
        use mmtag_channel::cascade::{HopModel, MultiTagCascade};
        use mmtag_phy::constellation::TagConstellation;
        use mmtag_sim::rate_region::{
            awgn_primary_rate_anchor, rate_region_grid_par_with, sum_rate_chunk, RateRegionConfig,
            RateScratch, RATE_CHUNK_TRIALS,
        };

        let anchor_cfg = RateRegionConfig {
            cascade: MultiTagCascade::new(
                10.0,
                HopModel::new(2.6, f64::INFINITY),
                HopModel::new(2.4, f64::INFINITY),
                HopModel::new(2.0, f64::INFINITY),
            )
            .with_tag(9.0, 2.0),
            constellation: TagConstellation::psk(2, 0.5),
            snr_db: 10.0,
            symbol_ratio: 10.0,
        };
        let anchor_tree = tree.subtree("rate-anchor");
        let mc = rate_region_grid_par_with(threads, &anchor_cfg, &[1.0], 256, &anchor_tree)[0]
            .primary_rate;
        let closed = awgn_primary_rate_anchor(&anchor_cfg);
        let err = (mc - closed).abs();

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
        let rate_tree = tree.subtree("rate-bench");
        let mut scratch = RateScratch::new();
        let trials = if quick { 64 } else { RATE_CHUNK_TRIALS };
        let r = bench("rate_region_chunk", &mut || {
            let c = sum_rate_chunk(&cfg, &rate_tree, 0, trials, &mut scratch);
            c.primary.iter().sum::<f64>() + c.backscatter.iter().sum::<f64>()
        });
        let ns_per_trial = r.ns_per_iter / trials as f64;
        results.push(r);
        println!(
            "rate_region: {ns_per_trial:.0} ns/trial, anchor MC {mc:.9} vs closed form \
             {closed:.9} (err {err:.2e})"
        );
        vec![
            ("ns_per_trial".to_string(), ns_per_trial),
            ("single_tag_awgn_primary".to_string(), mc),
            ("single_tag_awgn_closed_form".to_string(), closed),
            ("single_tag_awgn_anchor_err".to_string(), err),
        ]
    };

    // ---- observability overhead: the BER lane kernel with tracing on ----
    //
    // The ISSUE-4 acceptance bar: full tracing (spans + counters) must cost
    // ≤ 5% on the hottest kernel. Instrumentation sits at chunk
    // granularity (8192 bits per span), so the ratio should sit near 1.0;
    // the traced/untraced pair below is the recorded evidence. The traced
    // run also populates the span table annotated onto the report.
    obs::reset();
    obs::set_level(obs::Level::Trace);
    let traced = bench("ber_kernel_lanes_100kbit_traced", &mut chunk_errors_lanes);
    // One traced pass over the other hot kernels so the report's span
    // breakdown covers the full taxonomy, not just the BER path.
    {
        let mut rng = tree.rng_indexed("outage-chunk", 0);
        let mut scratch = FadeScratch::new();
        let _ = std::hint::black_box(fader.count_outages_scratch(
            Db::new(7.0),
            OUTAGE_TRIALS,
            &mut rng,
            &mut scratch,
        ));
        let _ = std::hint::black_box(inventory_ensemble_par_with(
            threads,
            TAGS,
            QAlgorithm::new(),
            100_000,
            REPS,
            &tree,
        ));
    }
    obs::set_level(obs::Level::Off);
    let trace_report = obs::drain();
    speedups.push((
        "ber_kernel_traced_over_untraced".to_string(),
        Some(traced.speedup_over(&lanes_untraced)),
    ));
    results.push(traced);

    for r in &results {
        println!("{}", format_result(r));
    }
    println!("\n== speedups ({threads} threads, {cores} cores) ==");
    for (name, ratio) in &speedups {
        match ratio {
            Some(r) => println!("{name:<44} {r:>6.2}×"),
            None => println!("{name:<44}   skipped"),
        }
    }
    for (name, why) in &skipped {
        println!("  skipped {name}: {why}");
    }

    let report = Report {
        threads,
        available_cores: cores,
        benches: results,
        speedups,
        skipped,
        scaling_efficiency: scaling,
        ns_per_bit,
        throughput,
        serving,
        rate_region,
        spans: trace_report.spans,
    };
    let json = report.to_json();
    verify_report(&json).expect("bench_report produced a report its own gate rejects");
    std::fs::write(REPORT, &json).expect("write BENCH_report.json");
    println!(
        "\nwrote {REPORT}{}",
        if quick { " (quick mode)" } else { "" }
    );
}
