//! Range-merge determinism at the registry level: the city scenarios'
//! rendered tables are bit-identical at any worker-thread count, and so
//! are the engine's stats, whose reader ranges follow the thread count. Mirrors the
//! thread-invariance harness of `tests/obs.rs` (this file never touches
//! the obs level, so it needs no serialization guard).

use mmtag_bench::scenarios::registry;
use mmtag_mac::city::{CityConfig, CityEngine};
use mmtag_sim::scenario::Runner;
use mmtag_sim::SeedTree;

#[test]
fn city_scenario_tables_are_bit_identical_at_any_thread_count() {
    let reg = registry();
    for name in ["e27-city-density", "e28-city-mobility"] {
        let s = reg.get(name).expect("city scenario is registered");
        let baseline = Runner::with_threads(1).run_minimized(s, 2, 50).render();
        for threads in [2usize, 8] {
            let rendered = Runner::with_threads(threads)
                .run_minimized(s, 2, 50)
                .render();
            assert_eq!(
                rendered, baseline,
                "{name}: threads={threads} perturbed the rendered tables"
            );
        }
    }
}

#[test]
fn stats_do_not_depend_on_the_thread_count() {
    let cfg = CityConfig::dense(1_500, 4);
    let tree = SeedTree::new(0x5AA4D);
    let mut one = CityEngine::new(cfg, tree);
    let want = one.run_rounds(1);
    // One reader range per thread: 16 threads give one per reader, and
    // 64 clamp to the same 16.
    for threads in [2usize, 5, 16, 64] {
        let mut eng = CityEngine::new(cfg, tree);
        assert_eq!(eng.run_rounds(threads), want, "threads={threads}");
        assert_eq!(eng.tags().read, one.tags().read, "threads={threads}");
    }
}
