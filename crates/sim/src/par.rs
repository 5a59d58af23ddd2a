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
//! * [`par_map_with`] / [`par_chunks_with`] / [`par_indexed_with`] /
//!   [`par_fill_chunks_with`] — raw primitives (re-exported from
//!   `mmtag-rf` so lower layers can use them too),
//! * [`par_sweep_with`] — one [`SeedTree`] subtree per parameter point:
//!   the shape of every figure sweep in `mmtag-bench`,
//! * [`par_trials_with`] — chunked Monte-Carlo repetitions with per-chunk
//!   streams: the shape of BER, outage and inventory-ensemble loops,
//! * [`par_sweep_trials_with`] — the **sweep grid**: every (point × trial
//!   chunk) pair is one work unit in a single global grid, so a short
//!   sweep of long trial loops saturates the worker budget instead of
//!   parallelizing one point at a time. Streams are derived exactly as
//!   the nested `par_sweep_with`-of-`par_trials_with` shape would derive
//!   them, so flattening an existing sweep never changes its tables.

pub use mmtag_rf::par::{
    par_chunks_scratch_with, par_chunks_with, par_fill_chunks_with, par_indexed_scratch_with,
    par_indexed_with, par_map_with, parse_thread_override, resolve_thread_limit, thread_limit,
};

use crate::rng::{SeedTree, Xoshiro256pp};

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

/// Runs `trials` Monte-Carlo repetitions in fixed-size chunks at a
/// `threads` budget, each chunk on its own generator
/// `tree.rng_indexed(label, chunk_index)`. Returns one result per chunk,
/// in chunk order; the caller folds them (sum the error counts, average
/// the stats, …). Because the chunk decomposition depends only on
/// `(trials, chunk_size)` and each chunk's stream only on its index, the
/// fold input — and therefore the fold output — is bit-identical at any
/// thread count.
pub fn par_trials_with<U, F>(
    threads: usize,
    tree: &SeedTree,
    label: &str,
    trials: usize,
    chunk_size: usize,
    f: F,
) -> Vec<U>
where
    U: Send,
    F: Fn(&mut Xoshiro256pp, usize) -> U + Sync,
{
    par_chunks_with(threads, trials, chunk_size, |ci, range| {
        let mut rng = tree.rng_indexed(label, ci as u64);
        f(&mut rng, range.len())
    })
}

/// The sweep-grid scheduler: runs `trials` chunked Monte-Carlo
/// repetitions for **every** parameter point as one flat work grid at a
/// `threads` budget. Unit `(p, c)` derives its generator as
/// `tree.subtree_indexed(point_label, p).rng_indexed(chunk_label, c)` —
/// bit-for-bit the stream that nesting [`par_trials_with`] inside
/// [`par_sweep_with`] yields — and `f` receives `(rng, point_index, &point,
/// chunk_trials)`. Returns one `Vec<U>` per point, chunk results in
/// chunk order, ready for the same fold the per-point code used.
///
/// Prefer this over a serial loop of parallel trial runs: with `P`
/// points the grid exposes `P ×` as many units to the pool, which is
/// what lets an 8-point sweep with per-point work smaller than the
/// worker budget still run at full width.
///
/// # Panics
/// Panics when `chunk_size == 0`.
#[allow(clippy::too_many_arguments)] // mirrors par_sweep_with + par_trials_with combined
pub fn par_sweep_trials_with<P, U, F>(
    threads: usize,
    tree: &SeedTree,
    point_label: &str,
    chunk_label: &str,
    params: &[P],
    trials: usize,
    chunk_size: usize,
    f: F,
) -> Vec<Vec<U>>
where
    P: Sync,
    U: Send,
    F: Fn(&mut Xoshiro256pp, usize, &P, usize) -> U + Sync,
{
    assert!(chunk_size > 0, "chunk size must be ≥ 1");
    let chunks_per_point = trials.div_ceil(chunk_size);
    let flat = par_indexed_with(threads, params.len() * chunks_per_point, |u| {
        let p = u / chunks_per_point;
        let c = u % chunks_per_point;
        let start = c * chunk_size;
        let len = (start + chunk_size).min(trials) - start;
        let mut rng = tree
            .subtree_indexed(point_label, p as u64)
            .rng_indexed(chunk_label, c as u64);
        f(&mut rng, p, &params[p], len)
    });
    let mut flat = flat.into_iter();
    params
        .iter()
        .map(|_| flat.by_ref().take(chunks_per_point).collect())
        .collect()
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
        let tree = SeedTree::new(7);
        let run = |threads| {
            par_trials_with(threads, &tree, "outage", 1000, 64, |rng, n| {
                (0..n).filter(|_| rng.chance(0.1)).count()
            })
            .into_iter()
            .sum::<usize>()
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn sweep_grid_matches_nested_sweep_of_trials() {
        // The grid's defining property: flattening must not re-derive any
        // stream. Compare against the literal nested shape it replaces.
        let tree = SeedTree::new(31);
        let params = [0.05f64, 0.1, 0.2];
        let (trials, chunk) = (1000, 64);
        let body =
            |rng: &mut Xoshiro256pp, &p: &f64, n: usize| (0..n).filter(|_| rng.chance(p)).count();
        let nested: Vec<usize> = par_sweep_with(1, &tree, "pt", &params, |sub, p| {
            par_trials_with(1, &sub, "ck", trials, chunk, |rng, n| body(rng, p, n))
                .into_iter()
                .sum::<usize>()
        });
        for threads in [1usize, 2, 4, 8] {
            let grid: Vec<usize> = par_sweep_trials_with(
                threads,
                &tree,
                "pt",
                "ck",
                &params,
                trials,
                chunk,
                |rng, _pi, p, n| body(rng, p, n),
            )
            .into_iter()
            .map(|per_point| per_point.into_iter().sum())
            .collect();
            assert_eq!(nested, grid, "threads={threads}");
        }
    }

    #[test]
    fn sweep_grid_shape_is_points_by_chunks() {
        let tree = SeedTree::new(1);
        let out = par_sweep_trials_with(2, &tree, "pt", "ck", &[1.0, 2.0], 10, 4, |_, pi, _, n| {
            (pi, n)
        });
        assert_eq!(
            out,
            vec![vec![(0, 4), (0, 4), (0, 2)], vec![(1, 4), (1, 4), (1, 2)],]
        );
        // No points → no units, regardless of trials.
        let empty: Vec<Vec<usize>> =
            par_sweep_trials_with(2, &tree, "pt", "ck", &[] as &[f64], 10, 4, |_, _, _, n| n);
        assert!(empty.is_empty());
    }

    #[test]
    fn chunk_count_covers_all_trials() {
        let tree = SeedTree::new(1);
        let sizes = par_trials_with(2, &tree, "t", 10, 4, |_, n| n);
        assert_eq!(sizes, vec![4, 4, 2]);
    }
}
