//! Deterministic parallel Monte-Carlo: the simulation-facing face of the
//! [`mmtag_rf::par`] engine, plus the [`SeedTree`]-aware sweep helpers the
//! experiment harness uses.
//!
//! Everything follows one contract (see [`mmtag_rf::par`] for the fine
//! print): work is partitioned into indexed units, each unit derives its
//! own RNG stream from its index, and results merge in unit order —
//! so output is **bit-identical at any thread count**. Every helper takes
//! an explicit thread budget: scenario bodies pass their
//! `RunContext::threads`, and only entry points resolve `MMTAG_THREADS`
//! through [`thread_limit`].
//!
//! Layer map:
//!
//! * [`par_map_with`] / [`par_indexed_with`] / [`par_fill_chunks_with`]
//!   and their scratch-carrying forms — raw primitives (re-exported from
//!   `mmtag-rf` so lower layers can use them too),
//! * [`par_sweep_with`] — one [`SeedTree`] subtree per parameter point:
//!   the shape of every figure sweep in `mmtag-bench`,
//! * [`par_stream_cells_with`] — cells that read **one** sequential
//!   stream in turn, each started from a jump of the stream rather than a
//!   walk of it: the shape of E16, whose (SNR, modem) cells share one
//!   seeded generator.

pub use mmtag_rf::par::{
    par_fill_chunks_with, par_indexed_scratch_with, par_indexed_with, par_map_with,
    parse_thread_override, resolve_thread_limit, thread_limit,
};

use crate::obs;
use crate::rng::{Rng, SeedTree, Xoshiro256pp};

/// Evaluates `f` once per parameter point, each point under its own
/// [`SeedTree`] subtree (derived from `label` and the point's index), in
/// parallel at a `threads` budget. Results come back in parameter order,
/// and each point's randomness is independent of every other point's —
/// adding a point to a sweep never changes the existing points' results.
pub fn par_sweep_with<P, U, F>(
    threads: usize,
    tree: &SeedTree,
    label: &str,
    params: &[P],
    f: F,
) -> Vec<U>
where
    P: Sync,
    U: Send,
    F: Fn(SeedTree, &P) -> U + Sync,
{
    par_map_with(threads, params, |i, p| {
        f(tree.subtree_indexed(label, i as u64), p)
    })
}

/// Runs `cells` that read one sequential stream in turn — the first from
/// `start`, each later one where the one before left the generator — at a
/// `threads` budget, with the results in cell order: exactly what running
/// them one after another on one generator returns.
///
/// `raws(cell)` is the number of raw draws a cell nominally reads (for a
/// Box–Muller consumer, its count with no `u1` redrawn). Cell `i` starts
/// from `start` jumped past the nominal counts of cells `0..i`
/// ([`Rng::skip_raw`], O(log n) per jump), so no one walks the stream.
/// Each cell's end state is then checked against the next cell's start. A
/// cell that read another count (a redrawn `u1`, p = 2⁻⁵³ per draw)
/// breaks that chain, and every later cell reruns in turn from the true
/// state. Counts the cells started from a jump
/// (`sim.stream_cells.jumped`) and the cells rerun
/// (`sim.stream_cells.rerun`).
pub fn par_stream_cells_with<C, U, N, F>(
    threads: usize,
    start: &Xoshiro256pp,
    cells: &[C],
    raws: N,
    f: F,
) -> Vec<U>
where
    C: Sync,
    U: Send,
    N: Fn(&C) -> u64,
    F: Fn(&mut Xoshiro256pp, &C) -> U + Sync,
{
    let mut starts = vec![start.clone()];
    for cell in cells.iter().take(cells.len().saturating_sub(1)) {
        let mut next = starts[starts.len() - 1].clone();
        next.skip_raw(raws(cell));
        starts.push(next);
    }
    obs::counter_add("sim.stream_cells.jumped", starts.len() as u64 - 1);
    let mut runs = par_map_with(threads, cells, |i, cell| {
        let mut rng = starts[i].clone();
        (f(&mut rng, cell), rng)
    });
    if let Some(first) = (1..cells.len()).find(|&i| runs[i - 1].1 != starts[i]) {
        obs::counter_add("sim.stream_cells.rerun", (cells.len() - first) as u64);
        let mut rng = runs[first - 1].1.clone();
        for (run, cell) in runs[first..].iter_mut().zip(&cells[first..]) {
            run.0 = f(&mut rng, cell);
        }
    }
    runs.into_iter().map(|(out, _)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_are_independent_of_sweep_size() {
        let tree = SeedTree::new(99);
        let f = |t: SeedTree, &p: &f64| t.rng("mc").f64() + p;
        let short = par_sweep_with(4, &tree, "snr", &[1.0, 2.0], f);
        let long = par_sweep_with(4, &tree, "snr", &[1.0, 2.0, 3.0, 4.0], f);
        assert_eq!(&short[..], &long[..2]);
    }

    #[test]
    fn trials_are_thread_count_invariant() {
        // Monte-Carlo trials split over sweep points, each point on its own
        // subtree: the per-point counts, and so their fold, are the same
        // at any thread count.
        let tree = SeedTree::new(7);
        let chunks: Vec<usize> = (0..1000).step_by(64).map(|s| 64.min(1000 - s)).collect();
        let run = |threads| {
            par_sweep_with(threads, &tree, "outage", &chunks, |sub, &n| {
                let mut rng = sub.rng("mc");
                (0..n).filter(|_| rng.chance(0.1)).count()
            })
        };
        let serial = run(1);
        assert_eq!(serial.len(), 16);
        for threads in [2, 3, 8] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn stream_cells_match_the_in_turn_run_and_rerun_after_a_miscount() {
        // Cell `k` reads `k + 3` raws. A nominal count one short or one
        // long for cell 2 breaks the chain there: cells 3.. rerun, and the
        // results still equal the serial in-turn run.
        let start = Xoshiro256pp::seed_from(0x5EED);
        let cells: Vec<u64> = (0..7).collect();
        let cell = |rng: &mut Xoshiro256pp, &k: &u64| {
            (0..k + 3).fold(0u64, |h, _| h.rotate_left(7) ^ rng.next_u64())
        };
        let mut serial_rng = start.clone();
        let serial: Vec<u64> = cells.iter().map(|k| cell(&mut serial_rng, k)).collect();
        for (skew, rerun) in [(0i64, 0u64), (-1, 4), (1, 4)] {
            let raws = |&k: &u64| (k as i64 + 3 + if k == 2 { skew } else { 0 }) as u64;
            for threads in [1usize, 2, 4] {
                let window = obs::Window::open();
                let got = par_stream_cells_with(threads, &start, &cells, raws, cell);
                let report = window.close();
                assert_eq!(got, serial, "skew={skew} threads={threads}");
                assert_eq!(report.counter("sim.stream_cells.jumped"), 6);
                assert_eq!(
                    report.counter("sim.stream_cells.rerun"),
                    rerun,
                    "skew={skew}"
                );
            }
        }
        let none: Vec<u64> = par_stream_cells_with(2, &start, &[], |_: &u64| 1, cell);
        assert!(none.is_empty());
    }

    #[test]
    fn chunk_count_covers_all_trials() {
        // A fill over 10 trial slots in chunks of 4 runs three chunks,
        // 4 + 4 + 2, and touches every slot exactly once.
        use std::sync::Mutex;
        let sizes = Mutex::new(Vec::new());
        let mut hits = [0u8; 10];
        par_fill_chunks_with(2, &mut hits, 4, |start, c| {
            sizes.lock().unwrap().push((start, c.len()));
            c.iter_mut().for_each(|h| *h += 1);
        });
        let mut sizes = sizes.into_inner().unwrap();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![(0, 4), (4, 4), (8, 2)]);
        assert!(hits.iter().all(|&h| h == 1));
    }
}
