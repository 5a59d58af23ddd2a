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
//!   the shape of every figure sweep in `mmtag-bench`.

pub use mmtag_rf::par::{
    par_fill_chunks_with, par_indexed_scratch_with, par_indexed_with, par_map_with,
    parse_thread_override, resolve_thread_limit, thread_limit,
};

use crate::rng::SeedTree;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

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
