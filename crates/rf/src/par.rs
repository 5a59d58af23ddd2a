//! Deterministic parallel execution on the process-wide persistent
//! worker pool ([`crate::pool`]) — no external crates, no per-call
//! thread spawns, no shared mutable state beyond one atomic work counter
//! per call.
//!
//! ## The determinism contract
//!
//! Every primitive here partitions work into *indexed units* (items or
//! fixed-size chunks), lets any number of worker threads race to claim
//! units, and then merges the results **in unit order**. Because the
//! closure receives only the unit index (plus the item it names), the
//! result of unit `i` cannot depend on which thread ran it or on how many
//! threads exist — so output is bit-identical at any thread count,
//! including the serial `threads == 1` escape hatch. Randomized workloads
//! keep the same property by deriving each unit's RNG stream from its
//! index via [`crate::rng::SeedTree`], never by sharing a sequential
//! stream across units.
//!
//! What the contract does *not* promise: results are invariant to the
//! *chunk size*. Changing the chunk decomposition re-partitions the random
//! streams, which is a different (equally valid) Monte-Carlo sample.
//! Callers that expose chunked APIs fix their chunk size as a constant.
//!
//! Units are *claimed* in auto-tuned batches (several consecutive unit
//! indices per counter increment) to keep contention on the shared
//! counter negligible when units are tiny. The batch size affects only
//! which participant runs which unit — never the unit→result mapping or
//! the merge order — so it is free to vary without breaking determinism.
//!
//! Observability follows the same rule. The [`crate::obs`] level is per
//! thread, so every participant records at the level of the thread that
//! submitted the work, each unit's events are captured on the thread that
//! ran it, and they are appended to the submitting thread's log in unit
//! order after the join: the log reads as a serial run's would.
//!
//! ## Thread-count selection
//!
//! Every primitive takes an explicit thread budget; `threads == 1` runs
//! fully serial on the calling thread and never touches the pool.
//! [`thread_limit`] reads the `MMTAG_THREADS` environment variable
//! (clamped to ≥ 1) and falls back to
//! [`std::thread::available_parallelism`]. Only entry points call it —
//! the scenario `Runner`'s default constructor, the CLI and the bench
//! binaries — and pass the result down, so a body run under a 1-thread
//! runner is serial all the way down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// The worker-thread budget: `MMTAG_THREADS` if set and ≥ 1, otherwise
/// the machine's available parallelism (1 if unknown).
///
/// An *unusable* `MMTAG_THREADS` value (`0`, `abc`, …) falls back to
/// auto-detection and emits a one-time warning on stderr — silently
/// ignoring an explicit override would leave the user running at a thread
/// count they never asked for with no signal at all.
pub fn thread_limit() -> usize {
    let raw = std::env::var("MMTAG_THREADS").ok();
    let (n, warning) = resolve_thread_limit(raw.as_deref());
    if let Some(msg) = warning {
        static WARN_ONCE: Once = Once::new();
        WARN_ONCE.call_once(|| crate::obs::warn(&msg));
    }
    n
}

/// The pure core of [`thread_limit`]: maps the raw `MMTAG_THREADS` value
/// (or `None` when unset) to the worker budget, plus the warning message
/// to emit when the value was present but unusable. Split out so the
/// warning path is unit-testable without touching process environment or
/// capturing stderr.
pub fn resolve_thread_limit(raw: Option<&str>) -> (usize, Option<String>) {
    match raw {
        None => (available_threads(), None),
        Some(v) => match parse_thread_override(v) {
            Some(n) => (n, None),
            None => (
                available_threads(),
                Some(format!(
                    "mmtag: ignoring unusable MMTAG_THREADS={v:?}; accepted \
                     values are integers ≥ 1 (1 = fully serial, larger = \
                     worker-thread budget); auto-detecting parallelism"
                )),
            ),
        },
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses an `MMTAG_THREADS` value: `Some(n)` for an integer ≥ 1, `None`
/// for anything unusable (which falls back to auto-detection).
pub fn parse_thread_override(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Evaluates `f(0..n)` with an explicit thread budget and returns the
/// results in index order. `threads <= 1` (or trivially small `n`) runs
/// serially on the calling thread — no spawns, the exact loop a
/// single-threaded caller would have written.
///
/// Worker panics are re-raised on the calling thread.
pub fn par_indexed_with<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // The scratch-free primitive is the unit-scratch special case of the
    // scratch-carrying one — one work loop to maintain and test.
    par_indexed_scratch_with(threads, n, || (), |(), i| f(i))
}

/// Maps `f` over `items` in parallel; results come back in item order.
/// `f` receives `(index, &item)` so randomized work can derive a
/// per-item stream from the index.
pub fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_indexed_with(threads, items.len(), |i| f(i, &items[i]))
}

/// [`par_indexed_with`] with a **lazily-initialized per-worker scratch**:
/// each worker calls `init()` at most once — on the first unit it claims —
/// and reuses that workspace for every further unit it processes, so a
/// trial loop's buffers are allocated `O(workers)` times per call instead
/// of `O(units)`.
///
/// The determinism contract is unchanged *provided the closure treats the
/// scratch as write-before-read storage*: unit `i`'s result must depend
/// only on `i` (and data reachable from `f` itself), never on scratch
/// contents left behind by whichever units the same worker ran earlier.
/// Every kernel in this workspace satisfies that by fully overwriting the
/// buffers it reads (see DESIGN.md §8 for the ownership rules).
pub fn par_indexed_scratch_with<S, U, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    if threads <= 1 || n <= 1 {
        // Serial path: one scratch for the whole loop, created lazily so
        // `n == 0` performs no setup work at all.
        let mut scratch: Option<S> = None;
        return (0..n)
            .map(|i| f(scratch.get_or_insert_with(&init), i))
            .collect();
    }
    let participants = threads.min(n);
    let batch = claim_batch(n, participants);
    let next = AtomicUsize::new(0);
    // Results are written straight into the output buffer: participant
    // batches are disjoint index ranges off one atomic counter, so every
    // slot is written exactly once and `set_len` is sound after the pool
    // barrier. In steady state (obs off, warm pool) the only allocation
    // in this function is this single `Vec`, and even that disappears
    // for zero-sized `U` — see `tests/alloc_guard.rs`.
    let mut out: Vec<U> = Vec::with_capacity(n);
    let base = SendPtr(out.as_mut_ptr());
    // Per-unit observability deltas, tagged with the unit index. Only
    // touched when recording is on; replayed in unit order below so the
    // event log matches a serial run exactly (see `crate::obs`).
    let shards: std::sync::Mutex<Vec<(usize, Vec<crate::obs::Event>)>> =
        std::sync::Mutex::new(Vec::new());
    // The obs level is per thread: every participant records at the
    // submitting thread's level, as a serial run on that thread would.
    // Pool workers record nothing outside a participation, so the level
    // one leaves behind is never read.
    let level = crate::obs::level();
    let work = || {
        crate::obs::set_level(level);
        // One activation per participant: scratch is lazily built on the
        // first claimed unit and reused for the rest of this call.
        let mut scratch: Option<S> = None;
        loop {
            let start = next.fetch_add(batch, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + batch).min(n);
            for i in start..end {
                let mark = crate::obs::mark();
                let u = f(scratch.get_or_insert_with(&init), i);
                let events = crate::obs::take_since(mark);
                // SAFETY: `i < n <= capacity`, and the batch claim gives
                // this participant exclusive ownership of slot `i`.
                #[allow(unsafe_code)]
                unsafe {
                    base.write(i, u);
                }
                if !events.is_empty() {
                    shards
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((i, events));
                }
            }
        }
    };
    // The caller is one participant; the pool contributes the rest. A
    // participant panic propagates out of `run`, skipping `set_len` —
    // already-written results are then leaked, never double-dropped.
    crate::pool::run(participants - 1, &work);
    // SAFETY: `run` returns normally only after every participant has
    // exited its claim loop, which requires the counter to have passed
    // `n` with all claimed units completed — all `n` slots are written.
    #[allow(unsafe_code)]
    unsafe {
        out.set_len(n);
    }
    let mut shards = shards.into_inner().unwrap_or_else(|e| e.into_inner());
    shards.sort_unstable_by_key(|&(i, _)| i);
    for (_, events) in shards {
        crate::obs::append_events(events);
    }
    out
}

/// How many consecutive unit indices one counter increment claims.
/// Small enough that the tail imbalance is at most one batch per
/// participant, large enough that tiny units don't serialize on the
/// counter's cache line.
fn claim_batch(n: usize, participants: usize) -> usize {
    (n / (participants * 8)).clamp(1, 64)
}

/// A raw result pointer that may cross into pool workers.
struct SendPtr<U>(*mut U);

impl<U> SendPtr<U> {
    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the buffer this pointer was taken from,
    /// and no other thread may touch slot `i`.
    #[allow(unsafe_code)]
    unsafe fn write(&self, i: usize, value: U) {
        // SAFETY: delegated to the caller's contract above.
        unsafe { self.0.add(i).write(value) }
    }

    /// The `len` slots starting at slot `start`, as a mutable slice.
    ///
    /// # Safety
    /// `start..start + len` must lie in bounds of the buffer this pointer
    /// was taken from, and no other thread may touch those slots while
    /// the slice lives.
    #[allow(unsafe_code)]
    unsafe fn slice_mut<'a>(&self, start: usize, len: usize) -> &'a mut [U] {
        // SAFETY: delegated to the caller's contract above.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

// SAFETY: the pointer targets a buffer owned (or mutably borrowed) by the
// submitting stack frame, which outlives the parallel region (the pool
// blocks until all participants finish); participants write disjoint
// slots, and `U: Send` makes moving the written values across threads
// sound.
#[allow(unsafe_code)]
unsafe impl<U: Send> Send for SendPtr<U> {}
#[allow(unsafe_code)]
unsafe impl<U: Send> Sync for SendPtr<U> {}

/// Fills `out` in place over fixed-size chunks (the last may be short):
/// `f(start, chunk)` receives the disjoint sub-slice
/// `out[start..start + chunk.len()]` and writes it. Chunks run in
/// parallel on the same claim loop as [`par_indexed_scratch_with`], so
/// when `f` writes each element as a pure function of its index the
/// filled slice is bit-identical at any thread count and any
/// `chunk_size`. Performs no allocation at any thread count (the result
/// vector of the underlying loop is zero-sized).
///
/// # Panics
/// Panics when `chunk_size == 0`.
pub fn par_fill_chunks_with<T, F>(threads: usize, out: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk size must be ≥ 1");
    let total = out.len();
    let base = SendPtr(out.as_mut_ptr());
    par_indexed_with(threads, total.div_ceil(chunk_size), |ci| {
        let start = ci * chunk_size;
        let len = chunk_size.min(total - start);
        // SAFETY: `start + len <= total`, and chunk `ci` is claimed by
        // exactly one participant, so the sub-slices never overlap.
        #[allow(unsafe_code)]
        let chunk = unsafe { base.slice_mut(start, len) };
        f(start, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedTree};

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_with(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| {
            let mut rng = SeedTree::new(7).rng_indexed("unit", i as u64);
            (0..100).map(|_| rng.f64()).sum::<f64>()
        };
        let serial = par_indexed_with(1, 64, f);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                serial,
                par_indexed_with(threads, 64, f),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn chunk_decomposition_is_exact() {
        // Each slot records its chunk's (start, len): chunk k covers
        // `k·size .. min((k+1)·size, total)`, only the last one short.
        let decompose = |total: usize, size: usize| {
            let mut out = vec![(0, 0); total];
            par_fill_chunks_with(4, &mut out, size, |start, c| {
                let len = c.len();
                c.fill((start, len));
            });
            out.dedup();
            out
        };
        assert_eq!(decompose(10, 3), vec![(0, 3), (3, 3), (6, 3), (9, 1)]);
        // total divisible by chunk: no runt chunk.
        assert_eq!(decompose(6, 3), vec![(0, 3), (3, 3)]);
        // empty input: no chunks at all.
        assert!(decompose(0, 3).is_empty());
    }

    #[test]
    fn more_threads_than_units_is_fine() {
        assert_eq!(par_indexed_with(32, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(par_indexed_with(32, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 16 "), Some(16));
        assert_eq!(parse_thread_override("1"), Some(1));
        assert_eq!(parse_thread_override("0"), None);
        assert_eq!(parse_thread_override("-3"), None);
        assert_eq!(parse_thread_override("auto"), None);
        assert!(thread_limit() >= 1);
    }

    #[test]
    fn unusable_thread_override_warns_and_falls_back() {
        // The warning path: a present-but-unusable value must (a) fall
        // back to auto-detection and (b) say so — never silently.
        for bad in ["0", "abc", "-3", "", " 1.5 "] {
            let (n, warning) = resolve_thread_limit(Some(bad));
            assert!(n >= 1, "{bad:?} must still yield a usable budget");
            let msg = warning.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(msg.contains("MMTAG_THREADS"), "{msg}");
            assert!(msg.contains(bad), "warning must quote the value: {msg}");
        }
        // Usable values and the unset case stay silent.
        assert_eq!(resolve_thread_limit(Some("8")), (8, None));
        assert_eq!(resolve_thread_limit(Some(" 2 ")), (2, None));
        let (auto, silent) = resolve_thread_limit(None);
        assert!(auto >= 1 && silent.is_none());
    }

    #[test]
    fn scratch_variant_matches_scratch_free_at_any_thread_count() {
        let f = |i: usize| {
            let mut rng = SeedTree::new(7).rng_indexed("unit", i as u64);
            (0..100).map(|_| rng.f64()).sum::<f64>()
        };
        let reference = par_indexed_with(1, 64, f);
        for threads in [1, 2, 3, 8, 64] {
            let scratched = par_indexed_scratch_with(
                threads,
                64,
                || vec![0.0f64; 100],
                |buf, i| {
                    // Write-before-read: fill the scratch from unit i's
                    // stream, then reduce it.
                    let mut rng = SeedTree::new(7).rng_indexed("unit", i as u64);
                    for slot in buf.iter_mut() {
                        *slot = rng.f64();
                    }
                    buf.iter().sum::<f64>()
                },
            );
            assert_eq!(reference, scratched, "threads={threads}");
        }
    }

    #[test]
    fn scratch_is_initialized_lazily_and_at_most_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        // Zero units → init never runs (serial and parallel paths).
        for threads in [1, 4] {
            let inits = AtomicUsize::new(0);
            let out = par_indexed_scratch_with(
                threads,
                0,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| i,
            );
            assert!(out.is_empty());
            assert_eq!(inits.load(Ordering::Relaxed), 0, "threads={threads}");
        }
        // Many units, few workers → at most `workers` inits, at least one.
        let inits = AtomicUsize::new(0);
        let _ = par_indexed_scratch_with(
            4,
            1000,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), i| i,
        );
        let count = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&count), "inits={count}");
    }

    #[test]
    fn scratch_worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_indexed_scratch_with(
                4,
                16,
                || (),
                |(), i| {
                    if i == 7 {
                        panic!("boom at {i}");
                    }
                    i
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn fill_chunks_writes_every_slot_at_any_thread_and_chunk_count() {
        let want: Vec<u64> = (0..1000u64).map(|i| i * i + 7).collect();
        for threads in [1usize, 2, 3, 8] {
            for chunk in [1usize, 7, 64, 1000, 4096] {
                let mut out = vec![0u64; 1000];
                par_fill_chunks_with(threads, &mut out, chunk, |start, c| {
                    assert!(c.len() <= chunk);
                    for (j, x) in c.iter_mut().enumerate() {
                        let i = (start + j) as u64;
                        *x = i * i + 7;
                    }
                });
                assert_eq!(out, want, "threads={threads} chunk={chunk}");
            }
        }
        // An empty slice claims no chunks.
        par_fill_chunks_with(4, &mut [] as &mut [u8], 3, |_, _| panic!("no chunks"));
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_is_a_bug() {
        par_fill_chunks_with(2, &mut [0u8; 10], 0, |_, _| {});
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_indexed_with(4, 16, |i| {
                if i == 7 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
