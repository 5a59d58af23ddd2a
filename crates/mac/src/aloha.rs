//! Slotted and framed Aloha — the paper's suggested multi-tag MAC (§9).
//!
//! *Slotted Aloha theory*: with offered load `G` (mean transmission attempts
//! per slot) the per-slot success probability is `S = G·e^{−G}`, peaking at
//! `1/e ≈ 0.368` when `G = 1`. *Framed* Aloha (what RFID readers actually
//! run) gives each round a frame of `L` slots; each unread tag picks one
//! uniformly. The reader observes empty/success/collision slots and — in the
//! EPC Gen2 style — adapts the next frame size via the Q algorithm so that
//! `L` tracks the unread population.
//!
//! Rounds run on caller-owned [`AlohaScratch`] slot arrays:
//! [`FramedAloha::run_round_counts`] for drain loops that need only the
//! slot statistics, [`FramedAloha::fill_round`] for event engines that
//! also need each singleton slot's owner. Their test oracle is an
//! allocating round in this module's tests that materializes the read
//! list; both kernels match it draw for draw.

use mmtag_rf::obs;
use mmtag_rf::rng::Rng;

/// Closed-form slotted-Aloha throughput `S(G) = G·e^{−G}` (successes/slot)
/// for offered load `G` attempts/slot.
pub fn slotted_aloha_throughput(g: f64) -> f64 {
    assert!(g >= 0.0, "offered load must be ≥ 0");
    g * (-g).exp()
}

/// A framed-Aloha round executor.
#[derive(Clone, Copy, Debug, Default)]
pub struct FramedAloha;

impl FramedAloha {
    /// Expected fraction of tags read in one round of `L` slots with `n`
    /// tags: `(1 − 1/L)^{n−1}` per tag. A test reference: no scenario
    /// calls it; the round kernels' tests and the city engine's
    /// framed-Aloha anchor check production code against this closed form.
    pub fn expected_read_fraction(n_tags: usize, frame_size: usize) -> f64 {
        if n_tags == 0 {
            return 0.0;
        }
        (1.0 - 1.0 / frame_size as f64).powi(n_tags as i32 - 1)
    }

    /// Runs one frame of `frame_size` slots over `n_tags` contending tags
    /// (one [`Rng::index`] draw per tag) and returns the slot *counts* —
    /// no per-tag owner list, no materialized read list — using a
    /// caller-owned [`AlohaScratch`]. Drain loops that only need the
    /// aggregate statistics (E07's drain, the sectored inventory) run on
    /// this and allocate nothing in steady state.
    ///
    /// # Panics
    /// Panics on a zero frame size.
    pub fn run_round_counts<R: Rng + ?Sized>(
        &self,
        n_tags: usize,
        frame_size: usize,
        rng: &mut R,
        scratch: &mut AlohaScratch,
    ) -> RoundCounts {
        assert!(frame_size > 0, "frame must have at least one slot");
        // clear + resize = one memset over retained capacity: the
        // write-before-read rule with no realloc once the scratch has seen
        // the largest frame.
        scratch.slot_count.clear();
        scratch.slot_count.resize(frame_size, 0);
        for _ in 0..n_tags {
            scratch.slot_count[rng.index(frame_size)] += 1;
        }
        let mut counts = RoundCounts {
            successes: 0,
            empty_slots: 0,
            collision_slots: 0,
            frame_size,
        };
        for &c in &scratch.slot_count {
            match c {
                0 => counts.empty_slots += 1,
                1 => counts.successes += 1,
                _ => counts.collision_slots += 1,
            }
        }
        counts
    }

    /// The PHY half of a round: draws every tag's slot choice (one
    /// [`Rng::index`] per tag — the same stream as
    /// [`FramedAloha::run_round_counts`]) into the scratch's
    /// parallel slot arrays (occupancy histogram + last-writer owner)
    /// and nothing else. The city engine, which plays each frame slot by
    /// slot, runs on this and does its own accounting from
    /// [`AlohaScratch::slot_count`] / [`AlohaScratch::slot_owner`].
    ///
    /// # Panics
    /// Panics on a zero frame size.
    pub fn fill_round<R: Rng + ?Sized>(
        &self,
        n_tags: usize,
        frame_size: usize,
        rng: &mut R,
        scratch: &mut AlohaScratch,
    ) {
        assert!(frame_size > 0, "frame must have at least one slot");
        scratch.slot_count.clear();
        scratch.slot_count.resize(frame_size, 0);
        scratch.slot_owner.clear();
        scratch.slot_owner.resize(frame_size, 0);
        for tag in 0..n_tags {
            let slot = rng.index(frame_size);
            scratch.slot_count[slot] += 1;
            scratch.slot_owner[slot] = tag as u32;
        }
    }
}

/// Caller-owned workspace for the batch Aloha round kernel: the per-slot
/// occupancy histogram. Standard scratch ownership rules (DESIGN.md §8):
/// one worker at a time, fully overwritten before it is read, grown to the
/// largest frame ever seen and then reused allocation-free.
#[derive(Clone, Debug, Default)]
pub struct AlohaScratch {
    /// Tags-per-slot histogram for the current frame.
    slot_count: Vec<u32>,
    /// Last tag (local index) to pick each slot — the winner wherever the
    /// histogram says exactly one tag chose it. Parallel to `slot_count`;
    /// filled by [`FramedAloha::fill_round`] and its callers.
    slot_owner: Vec<u32>,
}

impl AlohaScratch {
    /// An empty workspace; sized lazily by the first round.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-slot occupancy histogram of the last round run on this
    /// scratch (empty before any round). Slot `s` saw `slot_count()[s]`
    /// tags: 0 = idle, 1 = a successful read, ≥ 2 = a collision. The city
    /// engine walks this slot by slot, one DES event per slot.
    pub fn slot_count(&self) -> &[u32] {
        &self.slot_count
    }

    /// The per-slot owner array of the last [`FramedAloha::fill_round`]
    /// (parallel to [`AlohaScratch::slot_count`]; meaningful only where
    /// the count is exactly 1).
    pub fn slot_owner(&self) -> &[u32] {
        &self.slot_owner
    }
}

/// Aggregate outcome of one framed-Aloha round, as
/// [`FramedAloha::run_round_counts`] produces it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundCounts {
    /// Slots chosen by exactly one tag (tags read this round).
    pub successes: usize,
    /// Number of empty slots.
    pub empty_slots: usize,
    /// Number of collision slots.
    pub collision_slots: usize,
    /// Frame size used.
    pub frame_size: usize,
}

/// The EPC-Gen2-style adaptive frame-size controller.
///
/// Maintains a floating-point `Q`; frame size is `2^round(Q)`. Collisions
/// push `Q` up (the frame was too small), empties pull it down (too large),
/// successes leave it unchanged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QAlgorithm {
    q_fp: f64,
    step: f64,
}

impl QAlgorithm {
    /// Standard starting point: `Q = 4` (16 slots), step 0.2.
    pub fn new() -> Self {
        QAlgorithm {
            q_fp: 4.0,
            step: 0.2,
        }
    }

    /// Starts from a specific `Q` (0–15). A test fixture: every production
    /// reader starts from [`QAlgorithm::new`]; the Q-adaptation tests here
    /// and in the property tests start from other values.
    pub fn with_q(q: f64) -> Self {
        assert!((0.0..=15.0).contains(&q), "Q must be within 0–15");
        QAlgorithm { q_fp: q, step: 0.2 }
    }

    /// The current frame size `2^round(Q)`.
    pub fn frame_size(&self) -> usize {
        1usize << (self.q_fp.round() as u32)
    }

    /// The current floating-point Q.
    pub fn q(&self) -> f64 {
        self.q_fp
    }

    /// Feeds back one round's observations.
    pub fn update_counts(&mut self, counts: &RoundCounts) {
        self.adjust(
            counts.collision_slots,
            counts.empty_slots,
            counts.frame_size,
        );
    }

    /// Net pressure: collisions raise Q, empties lower it. Using the
    /// totals (rather than per-slot stepping) keeps the update
    /// order-independent within a round.
    fn adjust(&mut self, collisions: usize, empties: usize, frame_size: usize) {
        let up = collisions as f64;
        let down = empties as f64;
        self.q_fp =
            (self.q_fp + self.step * (up - down) / frame_size as f64 * 16.0).clamp(0.0, 15.0);
    }
}

impl Default for QAlgorithm {
    fn default() -> Self {
        Self::new()
    }
}

/// Statistics of a complete inventory (reading every tag).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InventoryStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Total slots consumed (the time proxy).
    pub total_slots: usize,
    /// Tags read (equals the starting population on success).
    pub tags_read: usize,
}

impl InventoryStats {
    /// Overall slot efficiency: tags read per slot.
    pub fn efficiency(&self) -> f64 {
        if self.total_slots == 0 {
            0.0
        } else {
            self.tags_read as f64 / self.total_slots as f64
        }
    }
}

/// Runs framed-Aloha inventory with the Q algorithm until every tag is read
/// (or `max_rounds` is hit, which the caller should treat as pathology).
/// One-shot convenience over [`inventory_until_drained_scratch`] with a
/// fresh workspace.
pub fn inventory_until_drained<R: Rng + ?Sized>(
    n_tags: usize,
    q: QAlgorithm,
    max_rounds: usize,
    rng: &mut R,
) -> InventoryStats {
    inventory_until_drained_scratch(n_tags, q, max_rounds, rng, &mut AlohaScratch::new())
}

/// The zero-allocation drain loop: [`inventory_until_drained`] on the
/// [`FramedAloha::run_round_counts`] kernel over a caller-owned
/// [`AlohaScratch`] (one slot draw per unread tag per round).
pub fn inventory_until_drained_scratch<R: Rng + ?Sized>(
    n_tags: usize,
    mut q: QAlgorithm,
    max_rounds: usize,
    rng: &mut R,
    scratch: &mut AlohaScratch,
) -> InventoryStats {
    let _span = obs::span("mac.aloha.drain");
    let mut unread = n_tags;
    let mut stats = InventoryStats::default();
    let mac = FramedAloha;
    while unread > 0 && stats.rounds < max_rounds {
        let counts = mac.run_round_counts(unread, q.frame_size(), rng, scratch);
        unread -= counts.successes;
        stats.rounds += 1;
        stats.total_slots += counts.frame_size;
        stats.tags_read += counts.successes;
        q.update_counts(&counts);
    }
    obs::counter_add("mac.aloha.rounds", stats.rounds as u64);
    obs::counter_add("mac.aloha.slots", stats.total_slots as u64);
    obs::observe("mac.aloha.drain_rounds", stats.rounds as u64);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_rf::rng::Xoshiro256pp;

    /// Maximum slotted-Aloha throughput, `1/e` (the closed-form peak of
    /// [`slotted_aloha_throughput`] at `G = 1`).
    fn max_throughput() -> f64 {
        (-1.0f64).exp()
    }

    /// Outcome of one oracle round: the slot statistics plus the read list.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct RoundOutcome {
        /// Indices (into the caller's unread-tag list) of tags read.
        read: Vec<usize>,
        empty_slots: usize,
        collision_slots: usize,
        frame_size: usize,
    }

    impl RoundOutcome {
        fn success_slots(&self) -> usize {
            self.read.len()
        }
    }

    impl FramedAloha {
        /// The round oracle: one [`Rng::index`] draw per tag into
        /// allocating per-slot vectors, then the read list in slot order.
        fn run_round<R: Rng + ?Sized>(
            &self,
            n_tags: usize,
            frame_size: usize,
            rng: &mut R,
        ) -> RoundOutcome {
            assert!(frame_size > 0, "frame must have at least one slot");
            let mut slot_owner: Vec<Option<usize>> = vec![None; frame_size];
            let mut slot_count = vec![0u32; frame_size];
            for tag in 0..n_tags {
                let slot = rng.index(frame_size);
                slot_count[slot] += 1;
                slot_owner[slot] = Some(tag);
            }
            let mut read = Vec::new();
            let mut empty = 0;
            let mut collisions = 0;
            for (count, owner) in slot_count.iter().zip(&slot_owner) {
                match count {
                    0 => empty += 1,
                    1 => read.push(owner.expect("count 1 implies an owner")),
                    _ => collisions += 1,
                }
            }
            RoundOutcome {
                read,
                empty_slots: empty,
                collision_slots: collisions,
                frame_size,
            }
        }
    }

    impl QAlgorithm {
        /// The Q-update oracle: feeds an oracle round's observations.
        fn update(&mut self, outcome: &RoundOutcome) {
            self.adjust(
                outcome.collision_slots,
                outcome.empty_slots,
                outcome.frame_size,
            );
        }
    }

    /// The drain-loop oracle: oracle rounds until the population drains.
    fn oracle_drain<R: Rng + ?Sized>(
        n_tags: usize,
        mut q: QAlgorithm,
        max_rounds: usize,
        rng: &mut R,
    ) -> InventoryStats {
        let mut unread = n_tags;
        let mut stats = InventoryStats::default();
        while unread > 0 && stats.rounds < max_rounds {
            let outcome = FramedAloha.run_round(unread, q.frame_size(), rng);
            unread -= outcome.read.len();
            stats.rounds += 1;
            stats.total_slots += outcome.frame_size;
            stats.tags_read += outcome.read.len();
            q.update(&outcome);
        }
        stats
    }

    #[test]
    fn throughput_peaks_at_1_over_e() {
        assert!((slotted_aloha_throughput(1.0) - max_throughput()).abs() < 1e-12);
        assert!(slotted_aloha_throughput(0.5) < max_throughput());
        assert!(slotted_aloha_throughput(2.0) < max_throughput());
        assert_eq!(slotted_aloha_throughput(0.0), 0.0);
    }

    #[test]
    fn round_accounting_is_consistent() {
        let mut rng = Xoshiro256pp::seed_from(1);
        let out = FramedAloha.run_round(40, 64, &mut rng);
        assert_eq!(
            out.success_slots() + out.empty_slots + out.collision_slots,
            64
        );
        assert!(out.read.len() <= 40);
        // All read indices unique and in range.
        let mut sorted = out.read.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.read.len());
        assert!(sorted.iter().all(|&t| t < 40));
    }

    #[test]
    fn zero_tags_round_is_all_empty() {
        let mut rng = Xoshiro256pp::seed_from(2);
        let out = FramedAloha.run_round(0, 16, &mut rng);
        assert_eq!(out.empty_slots, 16);
        assert!(out.read.is_empty());
    }

    #[test]
    fn monte_carlo_matches_expected_read_fraction() {
        let mut rng = Xoshiro256pp::seed_from(3);
        let (n, l, trials) = (32, 32, 3000);
        let mut total = 0usize;
        for _ in 0..trials {
            total += FramedAloha.run_round(n, l, &mut rng).read.len();
        }
        let measured = total as f64 / (trials * n) as f64;
        let expected = FramedAloha::expected_read_fraction(n, l);
        assert!(
            (measured - expected).abs() < 0.01,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn ensemble_is_thread_invariant_and_rep_stable() {
        // Repetition i drains from its own stream on the pool, each worker
        // reusing one scratch across the repetitions it claims: a reused
        // scratch carries nothing from one drain into the next.
        let tree = mmtag_sim::SeedTree::new(0xA70A);
        let drains = |threads, reps| {
            mmtag_sim::par::par_indexed_scratch_with(threads, reps, AlohaScratch::new, |s, i| {
                let mut rng = tree.rng_indexed("aloha-rep", i as u64);
                inventory_until_drained_scratch(50, QAlgorithm::new(), 200, &mut rng, s)
            })
        };
        let serial = drains(1, 12);
        assert_eq!(serial.len(), 12);
        assert!(serial.iter().all(|s| s.tags_read == 50));
        for threads in [2, 4, 8] {
            assert_eq!(serial, drains(threads, 12), "threads={threads}");
        }
        // Repetition i's result doesn't depend on the ensemble size.
        assert_eq!(&serial[..5], &drains(4, 5)[..]);
    }

    #[test]
    fn matched_frame_size_is_most_efficient() {
        // Efficiency peaks when L ≈ n (the G = 1 condition).
        let mut rng = Xoshiro256pp::seed_from(4);
        let n = 64;
        let eff = |l: usize, rng: &mut Xoshiro256pp| {
            let trials = 2000;
            let mut successes = 0;
            for _ in 0..trials {
                successes += FramedAloha.run_round(n, l, rng).read.len();
            }
            successes as f64 / (trials * l) as f64
        };
        let matched = eff(64, &mut rng);
        let small = eff(8, &mut rng);
        let large = eff(512, &mut rng);
        assert!(matched > small, "matched {matched} vs small-frame {small}");
        assert!(matched > large, "matched {matched} vs large-frame {large}");
        // And the matched efficiency approaches 1/e.
        assert!(
            (matched - max_throughput()).abs() < 0.04,
            "matched = {matched}"
        );
    }

    #[test]
    fn q_algorithm_grows_under_collisions() {
        let mut q = QAlgorithm::with_q(2.0); // 4 slots
        let heavy = RoundCounts {
            successes: 0,
            empty_slots: 0,
            collision_slots: 4,
            frame_size: 4,
        };
        let before = q.frame_size();
        for _ in 0..10 {
            q.update_counts(&heavy);
        }
        assert!(q.frame_size() > before, "Q must grow under collisions");
    }

    #[test]
    fn q_algorithm_shrinks_when_empty() {
        let mut q = QAlgorithm::with_q(8.0);
        let idle = RoundCounts {
            successes: 0,
            empty_slots: 256,
            collision_slots: 0,
            frame_size: 256,
        };
        for _ in 0..10 {
            q.update_counts(&idle);
        }
        assert!(q.frame_size() < 256, "Q must shrink when idle");
        assert!(q.q() >= 0.0);
    }

    #[test]
    fn q_is_clamped() {
        let mut q = QAlgorithm::with_q(15.0);
        let collide = RoundCounts {
            successes: 0,
            empty_slots: 0,
            collision_slots: 10,
            frame_size: 10,
        };
        q.update_counts(&collide);
        assert!(q.q() <= 15.0);
    }

    #[test]
    fn inventory_drains_all_tags() {
        let mut rng = Xoshiro256pp::seed_from(7);
        for n in [1, 10, 100, 500] {
            let stats = inventory_until_drained(n, QAlgorithm::new(), 10_000, &mut rng);
            assert_eq!(stats.tags_read, n, "population {n}");
            assert!(stats.rounds < 10_000);
        }
    }

    #[test]
    fn inventory_efficiency_is_near_aloha_bound() {
        let mut rng = Xoshiro256pp::seed_from(8);
        let stats = inventory_until_drained(1000, QAlgorithm::new(), 100_000, &mut rng);
        let eff = stats.efficiency();
        // Adaptive framed Aloha settles near (but below) 1/e.
        assert!(
            (0.25..0.40).contains(&eff),
            "efficiency = {eff} (bound 1/e ≈ 0.368)"
        );
    }

    #[test]
    fn inventory_scales_roughly_linearly() {
        let mut rng = Xoshiro256pp::seed_from(9);
        let s100 = inventory_until_drained(100, QAlgorithm::new(), 100_000, &mut rng);
        let s400 = inventory_until_drained(400, QAlgorithm::new(), 100_000, &mut rng);
        let ratio = s400.total_slots as f64 / s100.total_slots as f64;
        assert!((2.5..6.5).contains(&ratio), "4× tags cost {ratio}× slots");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_frame_is_a_bug() {
        let mut rng = Xoshiro256pp::seed_from(0);
        let _ = FramedAloha.run_round_counts(5, 0, &mut rng, &mut AlohaScratch::new());
    }

    // ---- differential tests: kernels vs the allocating oracle ----

    #[test]
    fn round_counts_kernel_is_bit_identical_to_run_round() {
        let mut scratch = AlohaScratch::new();
        for (n_tags, frame) in [(0usize, 16usize), (1, 1), (7, 8), (40, 64), (200, 13)] {
            let mut a = Xoshiro256pp::seed_from(1000 + n_tags as u64);
            let mut b = Xoshiro256pp::seed_from(1000 + n_tags as u64);
            let full = FramedAloha.run_round(n_tags, frame, &mut a);
            let counts = FramedAloha.run_round_counts(n_tags, frame, &mut b, &mut scratch);
            assert_eq!(counts.successes, full.success_slots());
            assert_eq!(counts.empty_slots, full.empty_slots);
            assert_eq!(counts.collision_slots, full.collision_slots);
            assert_eq!(counts.frame_size, full.frame_size);
            // Identical stream consumption: the kernels stay interchangeable
            // mid-simulation.
            assert_eq!(a.next_u64(), b.next_u64(), "n={n_tags} L={frame}");
        }
    }

    #[test]
    fn round_reads_kernel_is_bit_identical_to_run_round() {
        let mut scratch = AlohaScratch::new();
        for (n_tags, frame) in [(0usize, 16usize), (1, 1), (7, 8), (40, 64), (200, 13)] {
            let mut a = Xoshiro256pp::seed_from(2000 + n_tags as u64);
            let mut b = Xoshiro256pp::seed_from(2000 + n_tags as u64);
            let full = FramedAloha.run_round(n_tags, frame, &mut a);
            FramedAloha.fill_round(n_tags, frame, &mut b, &mut scratch);
            // The singleton slots' owners, in slot order, are the oracle's
            // read list; the stream position afterwards matches.
            assert_eq!(scratch.slot_count().len(), frame);
            assert_eq!(scratch.slot_owner().len(), frame);
            let read: Vec<usize> = scratch
                .slot_count()
                .iter()
                .zip(scratch.slot_owner())
                .filter(|(&c, _)| c == 1)
                .map(|(_, &owner)| owner as usize)
                .collect();
            assert_eq!(read, full.read, "n={n_tags} L={frame}");
            assert_eq!(a.next_u64(), b.next_u64(), "n={n_tags} L={frame}");
            let empties = scratch.slot_count().iter().filter(|&&c| c == 0).count();
            assert_eq!(empties, full.empty_slots);
        }
    }

    #[test]
    fn update_counts_matches_update() {
        let outcome = RoundOutcome {
            read: vec![0, 1, 2],
            empty_slots: 5,
            collision_slots: 8,
            frame_size: 16,
        };
        let counts = RoundCounts {
            successes: 3,
            empty_slots: 5,
            collision_slots: 8,
            frame_size: 16,
        };
        let mut qa = QAlgorithm::new();
        let mut qb = QAlgorithm::new();
        qa.update(&outcome);
        qb.update_counts(&counts);
        assert_eq!(qa.q().to_bits(), qb.q().to_bits());
    }

    #[test]
    fn scratch_drain_loop_is_bit_identical_to_reference() {
        let mut scratch = AlohaScratch::new();
        for n in [0usize, 1, 10, 100, 500] {
            let mut a = Xoshiro256pp::seed_from(7 + n as u64);
            let mut b = Xoshiro256pp::seed_from(7 + n as u64);
            let want = oracle_drain(n, QAlgorithm::new(), 10_000, &mut a);
            let got =
                inventory_until_drained_scratch(n, QAlgorithm::new(), 10_000, &mut b, &mut scratch);
            assert_eq!(want, got, "population {n}");
        }
    }
}
