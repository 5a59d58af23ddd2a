//! A deterministic discrete-event scheduler.
//!
//! Deliberately minimal: a time-ordered priority queue of typed events with
//! FIFO tie-breaking. The *caller* owns the simulation state and drives the
//! loop (`while let Some(...) = sched.pop()`), which keeps borrow-checking
//! trivial and keeps a protocol simulation an ordinary, testable state
//! machine rather than a callback soup.
//!
//! Determinism guarantees:
//! * events at equal times pop in scheduling order (sequence numbers),
//! * no wall-clock, no threads, no interior mutability,
//! * time never moves backwards (scheduling into the past panics).
//!
//! No production path schedules events: the timelines the workspace
//! models are presorted — beam acquisition (`mmtag_mac::acquisition`) is
//! a closed form, the timed inventory and the city engine's frames are
//! loops over a clock — so none needs a queue. perfbench's
//! `sim.des.ns_per_event` row times [`CalendarQueue`]. Its test oracle is
//! a binary-heap scheduler over the same `(time, seq)` keys, kept in this
//! module's tests: differential tests drive both through randomized
//! schedules with ties, cancellations and `schedule_in` chains, and
//! require identical pop streams.

use crate::time::{Duration, Instant};

/// A handle to a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(u64);

struct Entry<E> {
    at: Instant,
    seq: u64,
    event: E,
}

/// A bucketed calendar-queue scheduler.
///
/// `(time, seq)` pop order with FIFO tie-breaking, lazy cancellation,
/// panic on scheduling into the past — with events in a ring of time
/// buckets (`bucket = (t / width) % n_buckets`). When the bucket width
/// matches the natural event spacing (a MAC slot duration, say),
/// schedule and pop are O(1) amortized and, after warm-up,
/// allocation-free: buckets are `Vec`s that keep their capacity across
/// laps. There is no default layout: a width far below the event
/// spacing makes every pop walk empty buckets, so each caller states
/// the width its events imply.
///
/// The pop order equals a binary heap's over `(time, seq)` by
/// construction: events with equal timestamps always land in the same
/// bucket (same `t / width`), and within a bucket the pop selects the
/// minimum `(time, seq)` among entries eligible in the current lap
/// window. The differential tests below pin this against a heap oracle.
///
/// Robustness: if a whole lap of buckets turns up empty (event times are
/// sparse relative to `width * n_buckets`), `pop` falls back to a direct
/// scan for the global minimum, so correctness never depends on tuning —
/// only the constant factor does.
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket width in nanoseconds (never zero).
    width_ns: u64,
    live: std::collections::HashSet<u64>,
    /// Lazy-deletion debt: cancelled entries still sitting in a bucket.
    /// Zero on the cancel-free hot path, letting `pop` skip the per-entry
    /// liveness probe entirely.
    cancelled: usize,
    now: Instant,
    next_seq: u64,
    processed: u64,
}

impl<E> CalendarQueue<E> {
    /// An empty queue at time zero with a bucket width and initial ring
    /// size (the ring grows as events pile in). Pick `bucket_width` near
    /// the typical inter-event gap (e.g. one MAC slot) so pops stay O(1).
    ///
    /// # Panics
    /// Panics on a zero-width bucket or an empty ring.
    pub fn with_layout(bucket_width: Duration, n_buckets: usize) -> Self {
        assert!(bucket_width.as_nanos() > 0, "bucket width must be positive");
        assert!(n_buckets > 0, "calendar needs at least one bucket");
        CalendarQueue {
            buckets: (0..n_buckets).map(|_| Vec::new()).collect(),
            width_ns: bucket_width.as_nanos(),
            live: std::collections::HashSet::new(),
            cancelled: 0,
            now: Instant::ZERO,
            next_seq: 0,
            processed: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    fn bucket_of(&self, at: Instant) -> usize {
        ((at.as_nanos() / self.width_ns) % self.buckets.len() as u64) as usize
    }

    /// Doubles the ring when occupancy gets dense, redistributing pending
    /// entries. Amortized over the schedules that triggered it; steady
    /// state (pending count plateaued) never resizes again.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.buckets);
        self.buckets = (0..old.len() * 2).map(|_| Vec::new()).collect();
        for bucket in old {
            for entry in bucket {
                if self.cancelled == 0 || self.live.contains(&entry.seq) {
                    let idx = self.bucket_of(entry.at);
                    self.buckets[idx].push(entry);
                } else {
                    self.cancelled -= 1;
                }
            }
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time.
    pub fn schedule_at(&mut self, at: Instant, event: E) -> EventHandle {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        if self.live.len() > self.buckets.len() * 4 {
            self.grow();
        }
        let idx = self.bucket_of(at);
        self.buckets[idx].push(Entry { at, seq, event });
        EventHandle(seq)
    }

    /// Schedules `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: Duration, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending. Cancelling twice, or cancelling an already-fired
    /// event, returns `false`.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        // A live seq is by definition still sitting in some bucket, so a
        // successful cancel adds one unit of lazy-deletion debt.
        let was_live = self.live.remove(&handle.0);
        if was_live {
            self.cancelled += 1;
        }
        was_live
    }

    /// Pops the next event, advancing simulation time to its timestamp.
    /// Returns `None` when the queue is exhausted.
    ///
    /// Every pending event has `at >= now` (pop always returns the global
    /// minimum, and scheduling into the past panics), so the candidates
    /// for the next pop within the current lap window all sit in the
    /// window's own bucket — scan it, take the min `(time, seq)`, and
    /// that is the global min. Empty window: advance to the next. A full
    /// empty lap falls back to a direct global scan.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        if self.live.is_empty() {
            // Nothing pending; drop any cancelled leftovers so they cannot
            // accumulate (Vec capacity is retained).
            for bucket in &mut self.buckets {
                bucket.clear();
            }
            self.cancelled = 0;
            return None;
        }
        let n = self.buckets.len() as u64;
        let start_window = self.now.as_nanos() / self.width_ns;
        for k in 0..n {
            let window = start_window + k;
            let cur = (window % n) as usize;
            let window_end = (window + 1).saturating_mul(self.width_ns);
            let bucket = &mut self.buckets[cur];
            // Purge lazily-cancelled entries, then select the minimum
            // (time, seq) among entries inside the current lap window. With
            // zero cancellation debt every entry is live and the per-entry
            // hash probe is skipped — the cancel-free hot path.
            if self.cancelled > 0 {
                let mut i = 0;
                while i < bucket.len() {
                    if self.live.contains(&bucket[i].seq) {
                        i += 1;
                    } else {
                        bucket.swap_remove(i);
                        self.cancelled -= 1;
                    }
                }
            }
            let mut best: Option<(u64, u64, usize)> = None;
            for (i, e) in bucket.iter().enumerate() {
                let at = e.at.as_nanos();
                if at < window_end && best.is_none_or(|(ba, bs, _)| (at, e.seq) < (ba, bs)) {
                    best = Some((at, e.seq, i));
                }
            }
            if let Some((_, _, i)) = best {
                return Some(self.take(cur, i));
            }
        }
        // Sparse queue: no event within a full lap of the cursor. Every
        // bucket was just purged, so a direct min scan over what remains
        // is exact.
        let mut best: Option<(u64, u64, usize, usize)> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                let key = (e.at.as_nanos(), e.seq);
                if best.is_none_or(|(ba, bs, _, _)| key < (ba, bs)) {
                    best = Some((key.0, key.1, bi, i));
                }
            }
        }
        let (_, _, bi, i) = best.expect("live is non-empty but no entry found");
        Some(self.take(bi, i))
    }

    fn take(&mut self, bucket: usize, idx: usize) -> (Instant, E) {
        let entry = self.buckets[bucket].swap_remove(idx);
        self.live.remove(&entry.seq);
        debug_assert!(entry.at >= self.now, "calendar returned a past event");
        self.now = entry.at;
        self.processed += 1;
        (entry.at, entry.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    /// Heap order over `(time, seq)`: `BinaryHeap` is a max-heap, so the
    /// key is reversed and the earliest `(time, seq)` pops first.
    struct HeapKey<E>(Entry<E>);

    impl<E> PartialEq for HeapKey<E> {
        fn eq(&self, other: &Self) -> bool {
            (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
        }
    }
    impl<E> Eq for HeapKey<E> {}
    impl<E> PartialOrd for HeapKey<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for HeapKey<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            Reverse((self.0.at, self.0.seq)).cmp(&Reverse((other.0.at, other.0.seq)))
        }
    }

    /// The [`CalendarQueue`] oracle: a binary-heap scheduler with the same
    /// sequence numbering and lazy cancellation.
    struct Scheduler<E> {
        heap: BinaryHeap<HeapKey<E>>,
        live: HashSet<u64>,
        now: Instant,
        next_seq: u64,
        processed: u64,
    }

    impl<E> Scheduler<E> {
        fn new() -> Self {
            Scheduler {
                heap: BinaryHeap::new(),
                live: HashSet::new(),
                now: Instant::ZERO,
                next_seq: 0,
                processed: 0,
            }
        }

        fn now(&self) -> Instant {
            self.now
        }

        fn processed(&self) -> u64 {
            self.processed
        }

        fn pending(&self) -> usize {
            self.live.len()
        }

        fn schedule_at(&mut self, at: Instant, event: E) -> EventHandle {
            assert!(at >= self.now, "cannot schedule into the past");
            let seq = self.next_seq;
            self.next_seq += 1;
            self.live.insert(seq);
            self.heap.push(HeapKey(Entry { at, seq, event }));
            EventHandle(seq)
        }

        fn cancel(&mut self, handle: EventHandle) -> bool {
            self.live.remove(&handle.0)
        }

        fn pop(&mut self) -> Option<(Instant, E)> {
            while let Some(HeapKey(entry)) = self.heap.pop() {
                if self.live.remove(&entry.seq) {
                    self.now = entry.at;
                    self.processed += 1;
                    return Some((entry.at, entry.event));
                }
            }
            None
        }
    }

    /// The layout the single-queue tests run on: 1 µs × 64 buckets.
    fn queue<E>() -> CalendarQueue<E> {
        CalendarQueue::with_layout(Duration::from_micros(1), 64)
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = queue();
        s.schedule_at(Instant::from_nanos(30), "c");
        s.schedule_at(Instant::from_nanos(10), "a");
        s.schedule_at(Instant::from_nanos(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut s = queue();
        let t = Instant::from_nanos(5);
        for name in ["first", "second", "third"] {
            s.schedule_at(t, name);
        }
        let order: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn now_tracks_popped_events() {
        let mut s = queue();
        s.schedule_in(Duration::from_micros(2), ());
        assert_eq!(s.now(), Instant::ZERO);
        s.pop();
        assert_eq!(s.now(), Instant::from_nanos(2000));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut s = queue();
        s.schedule_in(Duration::from_nanos(10), 1u32);
        s.pop();
        s.schedule_in(Duration::from_nanos(10), 2u32);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, Instant::from_nanos(20));
    }

    #[test]
    fn cancel_suppresses_event() {
        let mut s = queue();
        let h = s.schedule_at(Instant::from_nanos(10), "dead");
        s.schedule_at(Instant::from_nanos(20), "alive");
        assert!(s.cancel(h));
        assert_eq!(s.pending(), 1);
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "alive");
        assert!(s.pop().is_none());
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut s = queue();
        let h = s.schedule_at(Instant::from_nanos(10), ());
        assert!(s.cancel(h));
        assert!(!s.cancel(h));
    }

    #[test]
    fn cancel_unknown_handle_is_harmless() {
        let mut s: CalendarQueue<()> = queue();
        assert!(!s.cancel(EventHandle(99)));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_is_a_bug() {
        let mut s = queue();
        s.schedule_at(Instant::from_nanos(10), ());
        s.pop();
        s.schedule_at(Instant::from_nanos(5), ());
    }

    #[test]
    fn large_event_count_stays_ordered() {
        // Pseudo-random insertion order, verify global ordering.
        let mut s = queue();
        let mut x: u64 = 0x2545F4914F6CDD1D;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.schedule_at(Instant::from_nanos(x % 1_000_000), x);
        }
        let mut prev = Instant::ZERO;
        while let Some((t, _)) = s.pop() {
            assert!(t >= prev);
            prev = t;
        }
        assert_eq!(s.processed(), 10_000);
    }

    // ---- differential tests against the heap oracle ----

    /// xorshift64* — a self-contained stream for randomized schedules.
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    /// Drives the heap scheduler and a calendar queue through the same
    /// randomized script — interleaved schedules (with heavy equal-time
    /// ties), cancellations of random handles, and pops — asserting the
    /// popped `(time, event)` streams are identical step for step.
    fn differential_script(seed: u64, width: Duration, n_buckets: usize) {
        let mut heap = Scheduler::new();
        let mut cal = CalendarQueue::with_layout(width, n_buckets);
        let mut rng = TestRng(seed);
        let mut handles: Vec<(EventHandle, EventHandle)> = Vec::new();
        let mut id = 0u64;
        for _ in 0..4_000 {
            match rng.next() % 4 {
                0 | 1 => {
                    // Coarse time grid so equal-time FIFO ties are common.
                    let at = Instant::from_nanos((rng.next() % 64) * 1_000);
                    if at >= heap.now() {
                        assert_eq!(heap.now(), cal.now());
                        let hh = heap.schedule_at(at, id);
                        let hc = cal.schedule_at(at, id);
                        handles.push((hh, hc));
                        id += 1;
                    }
                }
                2 => {
                    if !handles.is_empty() {
                        let (hh, hc) = handles[(rng.next() % handles.len() as u64) as usize];
                        // Both must agree on whether the event was live
                        // (double-cancels and fired events return false).
                        assert_eq!(heap.cancel(hh), cal.cancel(hc));
                    }
                }
                _ => {
                    assert_eq!(heap.pop(), cal.pop());
                }
            }
            assert_eq!(heap.pending(), cal.pending());
        }
        // Drain: the tails must match exactly, including exhaustion.
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(heap.processed(), cal.processed());
    }

    #[test]
    fn calendar_matches_heap_on_randomized_schedules() {
        // Well-tuned, mistuned-narrow, mistuned-wide, and single-bucket
        // layouts all take the same pop order — tuning is a constant
        // factor, never a correctness knob.
        differential_script(0x9E3779B97F4A7C15, Duration::from_micros(1), 64);
        differential_script(0xD1B54A32D192ED03, Duration::from_nanos(1), 8);
        differential_script(0x8CB92BA72F3D8DD7, Duration::from_millis(10), 4);
        differential_script(0x2545F4914F6CDD1D, Duration::from_secs(1), 1);
    }

    #[test]
    fn calendar_matches_heap_on_schedule_in_chains() {
        // Self-rescheduling chains: event n reschedules n+1 a pseudo-random
        // delay ahead (often zero, to force same-time FIFO against the
        // sibling chain). Both engines must interleave the chains the same.
        let mut heap = Scheduler::new();
        let mut cal = CalendarQueue::with_layout(Duration::from_nanos(100), 16);
        for chain in 0..4u64 {
            heap.schedule_at(Instant::from_nanos(chain), chain * 1_000);
            cal.schedule_at(Instant::from_nanos(chain), chain * 1_000);
        }
        let mut seen_heap = Vec::new();
        let mut seen_cal = Vec::new();
        let step = |n: u64| (n % 1_000 < 200).then_some(((n * 31) % 7) * 50);
        while let Some((now, n)) = heap.pop() {
            seen_heap.push((now, n));
            if let Some(d) = step(n) {
                heap.schedule_at(now + Duration::from_nanos(d), n + 1);
            }
        }
        while let Some((_, n)) = cal.pop() {
            seen_cal.push((cal.now(), n));
            if let Some(d) = step(n) {
                cal.schedule_in(Duration::from_nanos(d), n + 1);
            }
        }
        assert_eq!(seen_heap.len(), 804);
        assert_eq!(seen_heap, seen_cal);
        assert!(heap.pending() == 0 && cal.pending() == 0);
    }

    #[test]
    fn calendar_sparse_times_fall_back_to_direct_scan() {
        // Event gaps far wider than width * n_buckets: every pop crosses
        // whole empty laps and exercises the direct-min fallback.
        let mut cal = CalendarQueue::with_layout(Duration::from_nanos(10), 4);
        let mut heap = Scheduler::new();
        for i in (0..50u64).rev() {
            let at = Instant::from_nanos(i * 1_000_000);
            cal.schedule_at(at, i);
            heap.schedule_at(at, i);
        }
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn calendar_grows_without_reordering() {
        // Push far past the initial ring capacity so grow() redistributes,
        // then verify full (time, seq) order against the heap.
        let mut cal = CalendarQueue::with_layout(Duration::from_nanos(500), 2);
        let mut heap = Scheduler::new();
        let mut rng = TestRng(42);
        for i in 0..5_000u64 {
            let at = Instant::from_nanos(rng.next() % 100_000);
            cal.schedule_at(at, i);
            heap.schedule_at(at, i);
        }
        while let Some(got) = cal.pop() {
            assert_eq!(Some(got), heap.pop());
        }
        assert!(heap.pop().is_none());
        assert_eq!(cal.processed(), 5_000);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn calendar_scheduling_into_the_past_is_a_bug() {
        // Past-time regression on a mistuned layout: the pop below crosses
        // whole empty laps into the direct-scan fallback, and `now` must
        // still advance so the past check holds.
        let mut s = CalendarQueue::with_layout(Duration::from_nanos(1), 2);
        s.schedule_at(Instant::from_nanos(10), ());
        s.pop();
        s.schedule_at(Instant::from_nanos(5), ());
    }
}
