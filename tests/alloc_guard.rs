//! Debug-mode allocation guard for the Monte-Carlo hot loops.
//!
//! The batch kernels' contract (DESIGN.md §8) is that once a scratch
//! struct has grown to the largest chunk it will see, steady-state trial
//! loops perform **zero** heap allocation. This test enforces that with a
//! counting [`GlobalAlloc`]: warm the scratch once, snapshot the
//! *thread-local* allocation counter, run many more full trial chunks,
//! and require the counter not to move.
//!
//! The counter is thread-local so the libtest harness (which prints and
//! spawns from other threads) cannot pollute a measurement, and so the
//! guard tests can still run concurrently with each other. The obs
//! recording level is per thread as well: another test's `Runner::run`
//! raises only its own thread to `Counters`, so a loop measured beside it
//! records nothing and allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers all memory management to `System`; the bookkeeping is a
// const-initialized thread-local `Cell`, which never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is an allocation for the purpose of the guard.
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many times this thread hit the allocator.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.with(|c| c.get());
    let out = f();
    let after = ALLOC_CALLS.with(|c| c.get());
    (after - before, out)
}

#[test]
fn ber_trial_loop_is_allocation_free_in_steady_state() {
    use mmtag_phy::waveform::{
        count_bit_errors_scratch, Awgn, OokModem, TrialScratch, MC_CHUNK_BITS,
    };
    use mmtag_rf::rng::SeedTree;

    let tree = SeedTree::new(0xA110C);
    let modem = OokModem::new(4);
    let awgn = Awgn::for_eb_n0(&modem, 7.0);
    let mut scratch = TrialScratch::new();

    // Warm-up: the first chunk grows the bit buffer to full chunk size and
    // the sample buffers to one group of symbols.
    let warm = count_bit_errors_scratch(
        &modem,
        &awgn,
        MC_CHUNK_BITS,
        true,
        &mut tree.rng_indexed("alloc-ber", 0),
        &mut scratch,
    );

    let (allocs, errors) = allocations_during(|| {
        let mut total = 0usize;
        for ci in 0..16u64 {
            let mut rng = tree.rng_indexed("alloc-ber", ci);
            total += count_bit_errors_scratch(
                &modem,
                &awgn,
                MC_CHUNK_BITS,
                true,
                &mut rng,
                &mut scratch,
            );
        }
        total
    });
    assert_eq!(
        allocs, 0,
        "warm BER trial loop allocated {allocs} times over 16 chunks"
    );
    // The loop really ran: chunk 0 repeats the warm-up count, noise adds more.
    assert!(errors >= warm, "steady-state loop did no work");
}

#[test]
fn ber_lane_loop_is_allocation_free_in_steady_state() {
    use mmtag_phy::waveform::{count_bit_errors_lanes, Awgn, LaneScratch, OokModem, MC_CHUNK_BITS};
    use mmtag_rf::math::LANES;
    use mmtag_rf::rng::{SeedTree, Xoshiro256pp};

    let tree = SeedTree::new(0xA110C);
    let modem = OokModem::new(4);
    let awgns = [Awgn::for_eb_n0(&modem, 7.0); LANES];
    let streams = |group: usize| -> [Xoshiro256pp; LANES] {
        std::array::from_fn(|l| tree.rng_indexed("alloc-ber-lanes", (group * LANES + l) as u64))
    };
    let mut scratch = LaneScratch::new();

    // Warm-up: the first group of chunks grows the bit buffer to full
    // chunk size and the sample buffers to one group of symbol steps.
    let warm = count_bit_errors_lanes(&modem, &awgns, MC_CHUNK_BITS, &mut streams(0), &mut scratch);

    // All eight lanes and three (five idle).
    let (allocs, errors) = allocations_during(|| {
        let mut total = 0usize;
        for group in 0..8 {
            let k = [LANES, 3][group % 2];
            let counts = count_bit_errors_lanes(
                &modem,
                &awgns[..k],
                MC_CHUNK_BITS,
                &mut streams(group)[..k],
                &mut scratch,
            );
            total += counts.iter().sum::<usize>();
        }
        total
    });
    assert_eq!(
        allocs, 0,
        "warm lane BER loop allocated {allocs} times over 8 groups of chunks"
    );
    // The loop really ran: group 0 repeats the warm-up counts.
    assert!(
        errors >= warm.iter().sum::<usize>(),
        "steady-state loop did no work"
    );
}

#[test]
fn outage_trial_loop_is_allocation_free_in_steady_state() {
    use mmtag_channel::fading::{FadeScratch, RicianFading};
    use mmtag_rf::rng::SeedTree;
    use mmtag_rf::units::Db;

    const TRIALS: usize = 10_000;
    let tree = SeedTree::new(0xFADE);
    let fader = RicianFading::mmwave_los();
    let mut scratch = FadeScratch::new();

    // Warm-up grows the draw buffer to TRIALS.
    fader.count_outages_scratch(
        Db::new(3.0),
        TRIALS,
        &mut tree.rng_indexed("alloc-outage", 0),
        &mut scratch,
    );

    let (allocs, outages) = allocations_during(|| {
        let mut total = 0usize;
        for ci in 0..16u64 {
            let mut rng = tree.rng_indexed("alloc-outage", ci);
            total += fader.count_outages_scratch(Db::new(3.0), TRIALS, &mut rng, &mut scratch);
        }
        total
    });
    assert_eq!(
        allocs, 0,
        "warm outage trial loop allocated {allocs} times over 16 chunks"
    );
    assert!(
        outages > 0,
        "a 3 dB margin in mmwave LOS fading must outage"
    );
}

#[test]
fn rate_region_chunk_is_allocation_free_in_steady_state() {
    use mmtag_channel::cascade::{HopModel, MultiTagCascade};
    use mmtag_phy::constellation::TagConstellation;
    use mmtag_rf::rng::SeedTree;
    use mmtag_sim::rate_region::{
        rate_chunk, sum_rate_chunk, ChunkPass, RateRegionConfig, RateScratch, DEPTH_GRID,
    };

    const TRIALS: usize = 32;
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
    let tree = SeedTree::new(0x7A7E).subtree("alloc-rate");
    let mut scratch = RateScratch::new();

    // The grid's two passes: every row fast, then some rows exact.
    let mut some = [false; DEPTH_GRID];
    some[3] = true;
    some[8] = true;
    let passes = [ChunkPass::Fast, ChunkPass::Exact(some)];

    // Warm-up: first chunk grows the stream set, draw buffers and the
    // per-tuple equivalent-channel table.
    let warm = sum_rate_chunk(&cfg, &tree, 0, TRIALS, &mut scratch);

    let (allocs, trials) = allocations_during(|| {
        let mut total = 0u64;
        for ci in 0..16u64 {
            total += sum_rate_chunk(&cfg, &tree, ci, TRIALS, &mut scratch).trials;
            for pass in passes {
                total += rate_chunk(&cfg, &tree, ci, TRIALS, pass, &mut scratch)
                    .curves
                    .trials;
            }
        }
        total
    });
    assert_eq!(
        allocs, 0,
        "warm rate-region chunk loop allocated {allocs} times over 16 chunks"
    );
    assert_eq!(
        trials,
        3 * 16 * warm.trials,
        "steady-state loop did no work"
    );
}

#[test]
fn radix4_fft_and_welch_are_allocation_free_after_planning() {
    use mmtag_rf::complex::Complex;
    use mmtag_rf::fft::{FftPlan, WelchPlan};

    // 1024 = 4⁵, the size every entry point plans.
    let plan = FftPlan::new(1024);
    let welch = WelchPlan::new(1024);
    let sig: Vec<Complex> = (0..8192)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
        .collect();
    let mut buf: Vec<Complex> = sig[..1024].to_vec();
    let mut seg = vec![Complex::ZERO; 1024];
    let mut out = vec![0.0f64; 1024];

    // Warm-up (the plans are already fully built; this pins that the
    // transforms themselves never lazily allocate either).
    plan.fft(&mut buf);
    plan.ifft(&mut buf);
    welch.psd_into(&sig, &mut seg, &mut out);

    let (allocs, checksum) = allocations_during(|| {
        let mut acc = 0.0f64;
        for _ in 0..8 {
            plan.fft(&mut buf);
            plan.ifft(&mut buf);
            welch.psd_into(&sig, &mut seg, &mut out);
            acc += out[0] + buf[0].re;
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "planned FFT/Welch allocated {allocs} times over 8 rounds"
    );
    assert!(checksum.is_finite(), "transforms must produce real data");
}

#[test]
fn gaussian_fill_is_allocation_free_into_existing_buffers() {
    use mmtag_rf::rng::{box_muller_certified, uniform_pairs, Rng, SeedTree};

    // The fused Box–Muller pipeline (DESIGN.md §11) stages everything in
    // fixed-size stack blocks; filling caller-owned buffers must never
    // touch the heap, exact block and certified block alike.
    let tree = SeedTree::new(0xF111);
    let mut rng = tree.rng_indexed("alloc-fill", 0);
    let mut z = vec![0.0f64; 10_001]; // odd length exercises the tail
    let (mut u1, mut u2) = (vec![0.0f64; 4_099], vec![0.0f64; 4_099]);
    let (mut r, mut z0) = (vec![0.0f32; 4_099], vec![0.0f32; 4_099]);

    rng.fill_normal(&mut z);
    uniform_pairs(&mut rng, &mut u1, &mut u2);
    box_muller_certified(&u1, &u2, &mut r, &mut z0);

    let (allocs, sum) = allocations_during(|| {
        let mut acc = 0.0f64;
        for _ in 0..8 {
            rng.fill_normal(&mut z);
            uniform_pairs(&mut rng, &mut u1, &mut u2);
            box_muller_certified(&u1, &u2, &mut r, &mut z0);
            acc += z[0] + f64::from(z0[0]);
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "Gaussian fills allocated {allocs} times over 8 rounds"
    );
    assert!(sum.is_finite());
}

#[test]
fn aloha_drain_loop_is_allocation_free_in_steady_state() {
    use mmtag_mac::aloha::{inventory_until_drained_scratch, AlohaScratch, QAlgorithm};
    use mmtag_rf::rng::SeedTree;

    let tree = SeedTree::new(0xA10A);
    let mut scratch = AlohaScratch::new();

    // Warm-up with the same seed the measured loop replays, so the frame
    // sizes (and thus the largest slot-count buffer) match exactly.
    let warm = inventory_until_drained_scratch(
        128,
        QAlgorithm::new(),
        100_000,
        &mut tree.rng_indexed("alloc-aloha", 0),
        &mut scratch,
    );

    let (allocs, slots) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..8 {
            let mut rng = tree.rng_indexed("alloc-aloha", 0);
            let out = inventory_until_drained_scratch(
                128,
                QAlgorithm::new(),
                100_000,
                &mut rng,
                &mut scratch,
            );
            total += out.total_slots;
        }
        total
    });
    assert_eq!(
        allocs, 0,
        "warm inventory drain loop allocated {allocs} times over 8 inventories"
    );
    assert_eq!(slots, warm.total_slots * 8, "replayed drains must agree");
}

#[test]
fn pool_dispatch_is_allocation_free_in_steady_state() {
    use mmtag_rf::par::par_indexed_scratch_with;
    use std::sync::atomic::{AtomicU64, Ordering};

    // The guard covers the *caller's* side of `par_indexed_scratch_with`:
    // claim-batch dispatch, the result buffer and the shard merge. The
    // counter is thread-local, so pool workers (whose threads the pool
    // spawns once per process and reuses) are naturally outside the
    // measurement — exactly the "pool init excluded" carve-out. With a
    // zero-sized result type the output `Vec` never touches the heap, and
    // a plain-integer scratch makes the per-participant lazy init free,
    // so after warm-up a whole dispatch must not allocate at all.
    const UNITS: usize = 256;
    let sink = AtomicU64::new(0);
    let dispatch = || {
        par_indexed_scratch_with(
            4,
            UNITS,
            || 0u64,
            |scratch, i| {
                *scratch = scratch.wrapping_add(i as u64);
                sink.fetch_add(i as u64, Ordering::Relaxed);
            },
        )
    };

    // Warm-up: spawns the pool workers, grows the pool's job list and the
    // shard vector's (empty) state to steady shape.
    for _ in 0..3 {
        dispatch();
    }

    let before = sink.load(Ordering::Relaxed);
    let (allocs, _) = allocations_during(|| {
        for _ in 0..16 {
            dispatch();
        }
    });
    assert_eq!(
        allocs, 0,
        "warm pool dispatch allocated {allocs} times over 16 calls"
    );
    // Every unit of every call really ran: each dispatch adds 0+1+…+255.
    let per_call = (UNITS as u64 * (UNITS as u64 - 1)) / 2;
    assert_eq!(
        sink.load(Ordering::Relaxed) - before,
        16 * per_call,
        "steady-state dispatches must complete all units"
    );
}

#[test]
fn calendar_queue_event_cycle_is_allocation_free_in_steady_state() {
    use mmtag_sim::des::CalendarQueue;
    use mmtag_sim::time::Duration;

    // The calendar queue's contract: bucket vectors and the live set grow
    // to a high-water mark and are then reused — a steady-state
    // schedule/pop cycle never touches the heap. The batch is pinned to
    // exactly one ring period (4 buckets × 1 µs = 4000 ns, closed by the
    // marker event at 4000 ns) so every cycle maps onto the *same* buckets with
    // the same occupancy; un-warmed buckets would otherwise keep
    // appearing as `now` drifts around the ring.
    const BATCH: u64 = 12;
    let mut q: CalendarQueue<u64> = CalendarQueue::with_layout(Duration::from_micros(1), 4);
    let cycle = |q: &mut CalendarQueue<u64>| {
        for i in 0..BATCH {
            // Scattered offsets exercise every bucket and FIFO ties.
            q.schedule_in(Duration::from_nanos((i * 341) % 4000), i);
        }
        q.schedule_in(Duration::from_nanos(4000), BATCH); // period marker
        let mut sum = 0u64;
        while let Some((_, ev)) = q.pop() {
            sum += ev;
        }
        sum
    };

    // Warm-up: grows every bucket vector to its steady occupancy.
    for _ in 0..4 {
        cycle(&mut q);
    }

    let (allocs, sum) = allocations_during(|| {
        let mut acc = 0u64;
        for _ in 0..16 {
            acc += cycle(&mut q);
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "warm calendar-queue cycle allocated {allocs} times over 16 batches"
    );
    assert_eq!(
        sum,
        16 * (BATCH * (BATCH - 1) / 2 + BATCH),
        "every scheduled event must pop back out"
    );
}

#[test]
fn city_event_loop_is_allocation_free_in_steady_state() {
    use mmtag_mac::city::{CityConfig, CityEngine};
    use mmtag_sim::SeedTree;

    // The engine contract: a full city round through `run_rounds` — the
    // barrier's chunk kernel (mobility, energy gate, reader assignment,
    // wall tests) over the unread tags and its pending CSR, each reader
    // range's frames played slot by slot into its engine-owned output,
    // merge — performs zero steady-state allocation on the calling thread
    // once that scratch has reached its high-water marks at a fixed thread
    // budget. At 2 threads the pool runs one range (and barrier chunks) on
    // a worker, whose allocations this thread-local counter does not see;
    // the outputs it fills are the same engine-owned vectors. Beside the
    // default 4 blockers, 48 blockers at 6 m/s drive the kernel's wall
    // path (tags listed at walled readers, lane wall tests) hard.
    for (speed, blockers, threads) in [(0.5, 4, 1usize), (0.5, 4, 2), (6.0, 48, 1), (6.0, 48, 2)] {
        let mut cfg = CityConfig::dense(2_000, 1);
        cfg.readers_x = 3;
        cfg.readers_y = 2;
        cfg.speed_mps = speed;
        cfg.blockers = blockers;
        let mut eng = CityEngine::new(cfg, SeedTree::new(0xC17A));

        // Warm-up: lets the Q algorithms climb to their peak frame sizes
        // and every scratch vector (assignments, pending CSR, slot arrays,
        // range outputs) reach steady shape.
        let mut warm = Default::default();
        for _ in 0..8 {
            warm = eng.run_rounds(threads);
        }

        let (allocs, stats) = allocations_during(|| {
            let mut s = warm;
            for _ in 0..4 {
                s = eng.run_rounds(threads);
            }
            s
        });
        assert_eq!(
            allocs, 0,
            "warm city round allocated {allocs} times over 4 rounds at {threads} threads, {blockers} blockers"
        );
        assert!(
            stats.events > warm.events,
            "measured rounds must still be inventorying at {threads} threads (events {} -> {})",
            warm.events,
            stats.events
        );
    }
}

#[test]
fn serve_cache_hit_query_path_is_allocation_free_in_steady_state() {
    use mmtag_sim::cache::{CachePolicy, RunCache};
    use mmtag_sim::experiment::Table;
    use mmtag_sim::scenario::{AxisKind, Registry, RunContext, Scenario, ScenarioSpec};
    use mmtag_sim::serve::{Engine, EngineConfig};
    use std::sync::Arc;
    use std::time::Duration;

    // The serve contract (DESIGN.md §13): once a run is pinned in the
    // in-memory store, answering a point query touches no heap — the
    // line is read once by `json::parse_flat` into a fixed array that
    // borrows from it, the request-tuple index resolves without building
    // a spec (the empty leader list never allocates), the surface is
    // prebuilt, and
    // the response is written into a reused buffer. The disk cache runs
    // with a *bounded* lifecycle policy here: eviction bookkeeping is
    // store-side and amortized, so enabling it must not put the hit
    // path back on the heap.
    struct Line(ScenarioSpec);
    impl Scenario for Line {
        fn spec(&self) -> &ScenarioSpec {
            &self.0
        }
        fn run(&self, ctx: &RunContext) -> Vec<Table> {
            let mut t = Table::new("line", &["x", "y"]);
            for x in ctx.spec.values("x") {
                t.push_row(&[x, 2.0 * x]);
            }
            vec![t]
        }
        fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario> {
            Box::new(Line(spec))
        }
    }

    let spec = ScenarioSpec::paper_link("t99-line", "serve alloc-guard scenario").with_axis(
        "x",
        AxisKind::Linspace {
            start: 0.0,
            stop: 8.0,
            points: 9,
        },
    );
    let mut registry = Registry::new();
    registry.register(Box::new(Line(spec)));
    let cache_dir =
        std::env::temp_dir().join(format!("mmtag-alloc-guard-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = RunCache::at(&cache_dir).with_policy(CachePolicy {
        max_bytes: Some(1 << 20),
        max_age: Some(Duration::from_secs(3600)),
    });
    // Inline mode: the calling thread executes its own (warm-up) jobs,
    // so the whole measurement stays on this thread's counter.
    let engine = Engine::new(
        Arc::new(registry),
        Some(cache.clone()),
        EngineConfig {
            executors: 0,
            job_threads: 1,
            queue_capacity: 4,
            memory_capacity: 4,
        },
    );
    let mut out = String::new();
    // Warm-up, part 1: push 16 distinct-seed runs through the store so
    // the amortized evictor actually fires its enforcement scan (every
    // 16th store under a bounded policy) before the measurement.
    for seed in 1..=16u64 {
        out.clear();
        let run =
            format!("{{\"id\":{seed},\"op\":\"run\",\"scenario\":\"t99-line\",\"seed\":{seed}}}");
        engine.handle_line(&run, &mut out);
        assert!(out.contains("\"ok\":true"), "{out}");
    }
    let query = r#"{"id":7,"op":"query","scenario":"t99-line","x":3.25}"#;
    // Warm-up, part 2: the first query simulates, stores, and builds the
    // surface; a second hit settles the response buffer's capacity.
    out.clear();
    engine.handle_line(query, &mut out);
    out.clear();
    engine.handle_line(query, &mut out);
    let expected = out.clone();
    assert!(expected.contains("\"values\":[6.5]"), "{expected}");

    let (allocs, ()) = allocations_during(|| {
        for _ in 0..64 {
            out.clear();
            engine.handle_line(query, &mut out);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm cache-hit query path allocated {allocs} times over 64 requests"
    );
    assert_eq!(out, expected, "steady-state responses must not drift");
    assert_eq!(engine.stats().sim_runs, 17, "only the warm-ups simulated");
    assert_eq!(
        cache.evicted(),
        (0, 0),
        "the 1 MiB budget must not have evicted these small runs"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}
