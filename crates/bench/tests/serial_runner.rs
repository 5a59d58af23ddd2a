//! A 1-thread runner is serial all the way down: every registry scenario
//! runs at smoke size under `Runner::with_threads(1)` without the process
//! ever spawning a pool worker. A scenario body that reads the global
//! `MMTAG_THREADS` budget instead of its `RunContext::threads` would
//! dispatch to the pool and fail this on any host with two or more cores.
//!
//! This file is its own test binary, so the pool starts empty: no other
//! test shares the process.

use mmtag_bench::scenarios::registry;
use mmtag_sim::scenario::Runner;

#[test]
fn one_thread_runner_never_touches_the_pool() {
    let runner = Runner::with_threads(1);
    for s in registry().iter() {
        let record = runner.run_minimized(s, 3, 200);
        assert!(!record.tables.is_empty(), "{}: no tables", s.spec().name);
        assert_eq!(
            mmtag_rf::pool::worker_count(),
            0,
            "{}: a 1-thread run spawned a pool worker",
            s.spec().name
        );
    }
}
