//! City-scale sharded inventory: many readers, dense mobile tag fields.
//!
//! §9's end state is *network-scale* operation — readers inventorying
//! dense tag deployments under mobility and blockage. This module is the
//! engine for that regime: a discrete-event inventory over 10⁵–10⁶ tags,
//! built from the workspace's determinism primitives so the result is
//! bit-identical at any thread count *and* any shard count.
//!
//! ## Structure
//!
//! Time is divided into global **rounds** (the barriers). Each round:
//!
//! 1. **Barrier (serial)** — advance every tag along its
//!    [`mmtag_sim::mobility::Linear`] trajectory, harvest energy, rebuild
//!    the [`SpatialHash`] over tag positions, and assign each unread,
//!    energized tag to its nearest covering reader (squared-distance
//!    compare, boundary inclusive, blockage via
//!    [`mmtag_sim::geom::line_of_sight`], exact ties to the lower reader
//!    index). Pending lists are a flat CSR over tag indices, ascending
//!    per reader.
//! 2. **Round (sharded)** — readers are partitioned into contiguous
//!    spatial shards. Per reader: draw the framed-Aloha slot choices
//!    ([`FramedAloha::fill_round`], one RNG draw per pending tag from the
//!    reader-and-round-indexed [`SeedTree`] stream), then play the frame
//!    as *per-slot DES events* on the shard's [`CalendarQueue`] — each
//!    event classifies its slot from the histogram (empty / read /
//!    collision) and marks the read tag. The Q algorithm adapts per
//!    reader exactly as in [`crate::aloha`].
//! 3. **Merge (serial, fixed shard order)** — shard outputs (reads, Q
//!    updates, per-reader elapsed, tallies) are applied in shard index
//!    order, the same unit-order merge argument the obs layer uses.
//!
//! ## Why the result is bit-identical everywhere
//!
//! Within a round, shards share no mutable state: every per-(reader,
//! round) RNG stream is derived from the seed tree, so shard work is a
//! pure function of the barrier snapshot. A tag is pending at exactly
//! one reader, so shard outputs are disjoint and the merge operations
//! (set a read flag, overwrite one reader's Q, add to one reader's
//! clock, integer sums) are grouping-invariant — regrouping readers into
//! different shard counts, or running shards on different thread counts,
//! produces identical tables. The tests pin this at the engine level
//! (stats and per-tag read flags across shard and thread counts) and at
//! the queue level ([`CalendarQueue`] against its heap oracle in
//! `mmtag_sim::des`).

use crate::aloha::{AlohaScratch, FramedAloha, QAlgorithm, RoundCounts};
use mmtag_rf::obs;
use mmtag_rf::rng::Rng;
use mmtag_rf::units::Angle;
use mmtag_sim::des::CalendarQueue;
use mmtag_sim::geom::{line_of_sight, Segment, Vec2};
use mmtag_sim::mobility::{Linear, Mobility, Pose};
use mmtag_sim::spatial::SpatialHash;
use mmtag_sim::time::{Duration, Instant};
use mmtag_sim::SeedTree;

/// Energy ceiling a tag's harvester can charge to (initial charge is
/// drawn from `[0.5, 1.0)`, so the ceiling is "a full capacitor").
const ENERGY_CAP: f64 = 1.0;

/// Sentinel for "not assigned to any reader this round".
const UNASSIGNED: u32 = u32::MAX;

/// Configuration of a city deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CityConfig {
    /// Tag population.
    pub tags: usize,
    /// Reader grid columns.
    pub readers_x: usize,
    /// Reader grid rows.
    pub readers_y: usize,
    /// Reader grid pitch, meters (readers sit at cell centers).
    pub reader_spacing_m: f64,
    /// Reader coverage radius, meters (boundary inclusive).
    pub coverage_m: f64,
    /// MAC slot duration.
    pub slot: Duration,
    /// Fixed per-round reader overhead (steering, settling).
    pub steer: Duration,
    /// Wall-clock period of one global round (mobility advances by this).
    pub round_period: Duration,
    /// Global rounds to run.
    pub rounds: usize,
    /// Tag speed, m/s (0 = static deployment; headings are random).
    pub speed_mps: f64,
    /// Number of random wall segments blocking line of sight.
    pub blockers: usize,
    /// Energy harvested by every unread tag per round.
    pub harvest_per_round: f64,
    /// Energy one backscatter response costs; tags below this stall
    /// (keep harvesting, skip the round).
    pub tx_cost: f64,
    /// Spatial shards the reader grid is partitioned into.
    pub shards: usize,
}

impl CityConfig {
    /// A dense default city: a 4×4 reader grid at 50 m pitch with full
    /// coverage overlap, walking-speed tags, light blockage, and an
    /// energy budget that occasionally stalls tags. `tags` and `rounds`
    /// are the knobs the scenarios sweep.
    pub fn dense(tags: usize, rounds: usize) -> Self {
        CityConfig {
            tags,
            readers_x: 4,
            readers_y: 4,
            reader_spacing_m: 50.0,
            // 0.75 · pitch > pitch·√2/2: every point of the world is
            // covered by at least one reader.
            coverage_m: 37.5,
            slot: Duration::from_micros(3),
            steer: Duration::from_micros(10),
            round_period: Duration::from_millis(100),
            rounds,
            speed_mps: 1.5,
            blockers: 4,
            harvest_per_round: 0.05,
            tx_cost: 0.1,
            shards: 4,
        }
    }

    /// Number of readers in the grid.
    pub fn n_readers(&self) -> usize {
        self.readers_x * self.readers_y
    }

    /// The world rectangle: `(min, max)` corners in meters.
    pub fn world(&self) -> (Vec2, Vec2) {
        (
            Vec2::ORIGIN,
            Vec2::new(
                self.readers_x as f64 * self.reader_spacing_m,
                self.readers_y as f64 * self.reader_spacing_m,
            ),
        )
    }
}

/// Struct-of-arrays tag state: one dense array per field instead of a
/// `Vec` of tag structs, so each pass of the round pipeline (mobility,
/// harvest, assignment, marking) streams through exactly the fields it
/// touches.
#[derive(Clone, Debug, Default)]
pub struct TagSoA {
    /// Start x position, meters (pose at t = 0; current positions are a
    /// pure function of round time via [`mmtag_sim::mobility::Linear`]).
    pub x0: Vec<f64>,
    /// Start y position, meters.
    pub y0: Vec<f64>,
    /// Velocity x component, m/s.
    pub vx: Vec<f64>,
    /// Velocity y component, m/s.
    pub vy: Vec<f64>,
    /// Stored harvested energy (arbitrary units; a response costs
    /// [`CityConfig::tx_cost`]).
    pub energy: Vec<f64>,
    /// Inventoried flag: set once the tag's EPC has been read.
    pub read: Vec<bool>,
}

impl TagSoA {
    /// Number of tags.
    pub fn len(&self) -> usize {
        self.x0.len()
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.x0.is_empty()
    }

    /// Tags read so far.
    pub fn read_count(&self) -> usize {
        self.read.iter().filter(|&&r| r).count()
    }

    /// A population scattered uniformly over the config's world with
    /// random headings at the config's speed and initial energy drawn
    /// from `[0.5, 1.0)` — all streams from `rng`.
    pub fn populate<R: Rng + ?Sized>(cfg: &CityConfig, rng: &mut R) -> Self {
        let (_, max) = cfg.world();
        let mut tags = TagSoA::default();
        for _ in 0..cfg.tags {
            tags.x0.push(rng.f64() * max.x);
            tags.y0.push(rng.f64() * max.y);
            let heading = rng.f64() * std::f64::consts::TAU;
            tags.vx.push(heading.cos() * cfg.speed_mps);
            tags.vy.push(heading.sin() * cfg.speed_mps);
            tags.energy.push(0.5 + 0.5 * rng.f64());
            tags.read.push(false);
        }
        tags
    }
}

/// Aggregate result of a city run. `PartialEq`/`Eq` are exact — the
/// determinism tests compare these across thread counts, shard counts
/// and engines bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CityStats {
    /// Global rounds executed.
    pub rounds: u64,
    /// Tags inventoried.
    pub tags_read: u64,
    /// Total MAC slots consumed across all readers.
    pub slots: u64,
    /// DES events processed (one per slot).
    pub events: u64,
    /// Empty slots.
    pub empties: u64,
    /// Collision slots.
    pub collisions: u64,
    /// Inventory duration: the slowest reader's clock (readers operate
    /// concurrently in deployment, so the field is the makespan).
    pub elapsed: Duration,
}

impl CityStats {
    /// Tags read per second of *simulated* time (0 when no time passed).
    pub fn tags_per_sim_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.tags_read as f64 / s
        } else {
            0.0
        }
    }
}

/// One slot of one reader's frame, as a DES event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SlotEvent(u32);

/// Per-worker scratch for the round phase: the shard's event queue and
/// the Aloha slot arrays. Standard scratch ownership rules (DESIGN.md
/// §8): one worker at a time, reused across shards and rounds, retained
/// capacity ⇒ allocation-free steady state.
struct ShardScratch {
    queue: CalendarQueue<SlotEvent>,
    aloha: AlohaScratch,
}

impl ShardScratch {
    /// Scratch whose calendar ring is laid out at slot width — the
    /// natural inter-event gap of a frame — so pops resolve in the
    /// cursor's own window instead of scanning adjacent empty buckets.
    /// Layout is a constant-factor knob only: pop order is identical for
    /// any width (see [`CalendarQueue`]).
    fn for_slots(slot: Duration) -> Self {
        ShardScratch {
            queue: CalendarQueue::with_layout(slot, 64),
            aloha: AlohaScratch::default(),
        }
    }
}

/// What one shard reports back for the serial merge.
#[derive(Clone, Debug, Default)]
struct ShardOut {
    /// `(reader, adapted Q, clock increment)` per active reader, in
    /// ascending reader order.
    updates: Vec<(u32, QAlgorithm, Duration)>,
    /// Global tag indices read this round, reader-major then slot order.
    reads: Vec<u32>,
    slots: u64,
    events: u64,
    empties: u64,
    collisions: u64,
}

impl ShardOut {
    fn clear(&mut self) {
        self.updates.clear();
        self.reads.clear();
        self.slots = 0;
        self.events = 0;
        self.empties = 0;
        self.collisions = 0;
    }
}

/// Runs round `k` for the contiguous reader range `lo..hi` — the pure
/// shard function. Reads only the barrier snapshot (`qs`, pending CSR),
/// draws from per-(reader, round) seed-tree streams, and reports every
/// mutation through `out`.
#[allow(clippy::too_many_arguments)]
fn shard_round(
    cfg: &CityConfig,
    tree: &SeedTree,
    k: u64,
    qs: &[QAlgorithm],
    pend_starts: &[u32],
    pend_entries: &[u32],
    lo: usize,
    hi: usize,
    queue: &mut CalendarQueue<SlotEvent>,
    aloha: &mut AlohaScratch,
    out: &mut ShardOut,
) {
    for r in lo..hi {
        let (p0, p1) = (pend_starts[r] as usize, pend_starts[r + 1] as usize);
        let n_pending = p1 - p0;
        if n_pending == 0 {
            continue; // reader idles; its clock does not advance
        }
        let mut rng = tree
            .subtree_indexed("city-reader", r as u64)
            .rng_indexed("round", k);
        let frame = qs[r].frame_size();
        FramedAloha.fill_round(n_pending, frame, &mut rng, aloha);
        // Play the frame as per-slot DES events. Queue time is a
        // shard-local event clock (each batch is scheduled relative to
        // `now` and drained fully), so one queue serves every reader.
        let base = queue.now();
        for s in 0..frame {
            queue.schedule_at(base + cfg.slot.times(s as u64), SlotEvent(s as u32));
        }
        let mut counts = RoundCounts {
            successes: 0,
            empty_slots: 0,
            collision_slots: 0,
            frame_size: frame,
        };
        while let Some((_, SlotEvent(s))) = queue.pop() {
            let s = s as usize;
            match aloha.slot_count()[s] {
                0 => counts.empty_slots += 1,
                1 => {
                    counts.successes += 1;
                    out.reads
                        .push(pend_entries[p0 + aloha.slot_owner()[s] as usize]);
                }
                _ => counts.collision_slots += 1,
            }
        }
        let mut q = qs[r];
        q.update_counts(&counts);
        out.updates
            .push((r as u32, q, cfg.steer + cfg.slot.times(frame as u64)));
        out.slots += frame as u64;
        out.events += frame as u64;
        out.empties += counts.empty_slots as u64;
        out.collisions += counts.collision_slots as u64;
    }
}

/// Applies one shard's output — called serially, in shard index order.
/// Every operation touches state no other shard touches (a tag pends at
/// exactly one reader), so the merge is grouping-invariant.
fn apply_out(
    tags: &mut TagSoA,
    qs: &mut [QAlgorithm],
    reader_elapsed: &mut [Duration],
    stats: &mut CityStats,
    out: &ShardOut,
) {
    for &(r, q, d) in &out.updates {
        qs[r as usize] = q;
        reader_elapsed[r as usize] = reader_elapsed[r as usize] + d;
    }
    for &t in &out.reads {
        debug_assert!(!tags.read[t as usize], "a tag pends at exactly one reader");
        tags.read[t as usize] = true;
        stats.tags_read += 1;
    }
    stats.slots += out.slots;
    stats.events += out.events;
    stats.empties += out.empties;
    stats.collisions += out.collisions;
}

/// The city inventory engine. Construct once per run; drive with
/// [`CityEngine::run_rounds`] (sharded calendar-queue engine, any thread
/// count) or [`CityEngine::step_round`] (one serial round on persistent
/// scratch — the allocation-free path the workspace alloc guard
/// measures).
pub struct CityEngine {
    cfg: CityConfig,
    tree: SeedTree,
    readers: Vec<Vec2>,
    walls: Vec<Segment>,
    tags: TagSoA,
    qs: Vec<QAlgorithm>,
    reader_elapsed: Vec<Duration>,
    round: u64,
    stats: CityStats,
    // Barrier scratch — flat, retained across rounds.
    positions: Vec<Vec2>,
    hash: SpatialHash,
    assigned: Vec<u32>,
    best_d2: Vec<f64>,
    pend_starts: Vec<u32>,
    pend_entries: Vec<u32>,
    cursor: Vec<u32>,
    // Serial round scratch (the `step_round` path).
    serial: ShardScratch,
    serial_out: ShardOut,
}

impl CityEngine {
    /// Builds the deployment: readers on their grid, `cfg.blockers`
    /// random wall segments, and a tag population — all randomness from
    /// labeled `tree` streams, so two engines built from the same
    /// `(cfg, tree)` are identical.
    pub fn new(cfg: CityConfig, tree: SeedTree) -> Self {
        assert!(cfg.tags > 0, "city needs at least one tag");
        assert!(cfg.n_readers() > 0, "city needs at least one reader");
        let mut readers = Vec::with_capacity(cfg.n_readers());
        for row in 0..cfg.readers_y {
            for col in 0..cfg.readers_x {
                readers.push(Vec2::new(
                    (col as f64 + 0.5) * cfg.reader_spacing_m,
                    (row as f64 + 0.5) * cfg.reader_spacing_m,
                ));
            }
        }
        let (min, max) = cfg.world();
        let mut wall_rng = tree.rng("city-walls");
        let mut walls = Vec::with_capacity(cfg.blockers);
        for _ in 0..cfg.blockers {
            let c = Vec2::new(wall_rng.f64() * max.x, wall_rng.f64() * max.y);
            let th = wall_rng.f64() * std::f64::consts::TAU;
            let half = Vec2::new(th.cos(), th.sin()).scale(cfg.reader_spacing_m * 0.4);
            walls.push(Segment::new(c.sub(half), c.add(half)));
        }
        let mut tag_rng = tree.rng("city-tags");
        let tags = TagSoA::populate(&cfg, &mut tag_rng);
        let n_readers = cfg.n_readers();
        CityEngine {
            cfg,
            tree,
            readers,
            walls,
            tags,
            qs: vec![QAlgorithm::new(); n_readers],
            reader_elapsed: vec![Duration::ZERO; n_readers],
            round: 0,
            stats: CityStats::default(),
            positions: Vec::new(),
            hash: SpatialHash::new(min, max, cfg.coverage_m),
            assigned: Vec::new(),
            best_d2: Vec::new(),
            pend_starts: Vec::new(),
            pend_entries: Vec::new(),
            cursor: Vec::new(),
            serial: ShardScratch::for_slots(cfg.slot),
            serial_out: ShardOut::default(),
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &CityConfig {
        &self.cfg
    }

    /// The tag population (read flags reflect progress so far).
    pub fn tags(&self) -> &TagSoA {
        &self.tags
    }

    /// Reader positions, grid row-major.
    pub fn readers(&self) -> &[Vec2] {
        &self.readers
    }

    /// The stats so far, with `elapsed` = the slowest reader's clock.
    pub fn stats(&self) -> CityStats {
        let mut s = self.stats;
        s.elapsed = self
            .reader_elapsed
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO);
        s
    }

    /// The round barrier: mobility, harvest, spatial-hash rebuild, and
    /// nearest-covering-reader assignment into the pending CSR. Serial;
    /// allocation-free once the scratch vectors have warmed up.
    fn barrier(&mut self, k: u64) {
        let _span = obs::span("mac.city.barrier");
        let cfg = &self.cfg;
        let n = self.tags.len();
        let t = Instant::ZERO + cfg.round_period.times(k);
        // Mobility: positions are a pure function of (start pose, t).
        self.positions.clear();
        for i in 0..n {
            let traj = Linear {
                start: Pose::new(
                    Vec2::new(self.tags.x0[i], self.tags.y0[i]),
                    Angle::from_radians(0.0),
                ),
                velocity: Vec2::new(self.tags.vx[i], self.tags.vy[i]),
            };
            self.positions.push(traj.pose_at(t).position);
        }
        self.hash.rebuild(&self.positions);
        // Harvest: every unread tag charges toward the cap.
        for i in 0..n {
            if !self.tags.read[i] {
                self.tags.energy[i] = (self.tags.energy[i] + cfg.harvest_per_round).min(ENERGY_CAP);
            }
        }
        // Assignment: nearest covering reader by squared distance
        // (boundary inclusive via the hash's `dist_sq <= r²` disc test),
        // LOS-gated, exact ties to the lower reader index (strict `<`
        // with ascending reader iteration).
        self.assigned.clear();
        self.assigned.resize(n, UNASSIGNED);
        self.best_d2.clear();
        self.best_d2.resize(n, f64::INFINITY);
        let hash = &self.hash;
        let positions = &self.positions;
        let tags = &self.tags;
        let walls = &self.walls;
        let assigned = &mut self.assigned;
        let best_d2 = &mut self.best_d2;
        for (r, &rp) in self.readers.iter().enumerate() {
            hash.for_each_in_disc(positions, rp, cfg.coverage_m, |i| {
                let i = i as usize;
                if tags.read[i] || tags.energy[i] < cfg.tx_cost {
                    return;
                }
                let d2 = positions[i].dist_sq(rp);
                if d2 < best_d2[i] && line_of_sight(positions[i], rp, walls) {
                    best_d2[i] = d2;
                    assigned[i] = r as u32;
                }
            });
        }
        // Pending CSR: stable counting sort by reader ⇒ ascending tag
        // index within each reader's slice.
        let nr = self.readers.len();
        self.pend_starts.clear();
        self.pend_starts.resize(nr + 1, 0);
        for i in 0..n {
            if self.assigned[i] != UNASSIGNED {
                self.pend_starts[self.assigned[i] as usize + 1] += 1;
            }
        }
        for r in 0..nr {
            self.pend_starts[r + 1] += self.pend_starts[r];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.pend_starts[..nr]);
        self.pend_entries.clear();
        self.pend_entries.resize(self.pend_starts[nr] as usize, 0);
        for i in 0..n {
            let a = self.assigned[i];
            if a != UNASSIGNED {
                self.pend_entries[self.cursor[a as usize] as usize] = i as u32;
                self.cursor[a as usize] += 1;
                // Responding costs energy whether or not the slot is clean.
                self.tags.energy[i] -= self.cfg.tx_cost;
            }
        }
    }

    /// One serial round on the engine-owned calendar queue and scratch —
    /// zero allocations in steady state (the alloc guard drives this).
    /// Returns the stats snapshot after the round.
    pub fn step_round(&mut self) -> CityStats {
        let k = self.round;
        self.barrier(k);
        let _span = obs::span("mac.city.round");
        self.serial_out.clear();
        let nr = self.readers.len();
        shard_round(
            &self.cfg,
            &self.tree,
            k,
            &self.qs,
            &self.pend_starts,
            &self.pend_entries,
            0,
            nr,
            &mut self.serial.queue,
            &mut self.serial.aloha,
            &mut self.serial_out,
        );
        apply_out(
            &mut self.tags,
            &mut self.qs,
            &mut self.reader_elapsed,
            &mut self.stats,
            &self.serial_out,
        );
        self.round += 1;
        self.stats.rounds += 1;
        self.stats()
    }

    /// Runs `cfg.rounds` rounds on the sharded calendar-queue engine
    /// with an explicit thread budget: shards execute via
    /// [`mmtag_sim::par`] (per-worker scratch, indexed work units) and
    /// merge in fixed shard order — bit-identical at any `threads` and
    /// any `cfg.shards`.
    pub fn run_rounds(&mut self, threads: usize) -> CityStats {
        let _span = obs::span("mac.city.run");
        let shards = self.cfg.shards.max(1);
        let nr = self.readers.len();
        let per = nr.div_ceil(shards);
        for _ in 0..self.cfg.rounds {
            let k = self.round;
            self.barrier(k);
            let cfg = &self.cfg;
            let tree = &self.tree;
            let qs = &self.qs;
            let pend_starts = &self.pend_starts;
            let pend_entries = &self.pend_entries;
            let slot = self.cfg.slot;
            let outs: Vec<ShardOut> = mmtag_sim::par::par_indexed_scratch_with(
                threads,
                shards,
                move || ShardScratch::for_slots(slot),
                |sc, s| {
                    let lo = (s * per).min(nr);
                    let hi = ((s + 1) * per).min(nr);
                    let mut out = ShardOut::default();
                    shard_round(
                        cfg,
                        tree,
                        k,
                        qs,
                        pend_starts,
                        pend_entries,
                        lo,
                        hi,
                        &mut sc.queue,
                        &mut sc.aloha,
                        &mut out,
                    );
                    out
                },
            );
            for out in &outs {
                apply_out(
                    &mut self.tags,
                    &mut self.qs,
                    &mut self.reader_elapsed,
                    &mut self.stats,
                    out,
                );
            }
            self.round += 1;
            self.stats.rounds += 1;
        }
        obs::counter_add("mac.city.events", self.stats.events);
        obs::counter_add("mac.city.reads", self.stats.tags_read);
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(tags: usize, rounds: usize) -> CityConfig {
        let mut cfg = CityConfig::dense(tags, rounds);
        cfg.readers_x = 3;
        cfg.readers_y = 2;
        cfg
    }

    #[test]
    fn stats_are_invariant_across_shard_counts() {
        let base = small(600, 5);
        let tree = SeedTree::new(0x5A4D);
        let mut one = CityEngine::new(CityConfig { shards: 1, ..base }, tree);
        let want = one.run_rounds(2);
        assert!(want.tags_read > 0, "a live city must read tags");
        assert_eq!(want.events, want.slots, "one DES event per slot");
        for shards in [2usize, 3, 6, 16] {
            let mut eng = CityEngine::new(CityConfig { shards, ..base }, tree);
            let got = eng.run_rounds(2);
            assert_eq!(want, got, "shards={shards}");
            assert_eq!(one.tags().read, eng.tags().read, "shards={shards}");
        }
    }

    #[test]
    fn step_round_matches_run_rounds() {
        let cfg = small(500, 4);
        let tree = SeedTree::new(0x57E9);
        let mut stepped = CityEngine::new(cfg, tree);
        let mut whole = CityEngine::new(cfg, tree);
        let mut last = CityStats::default();
        for _ in 0..cfg.rounds {
            last = stepped.step_round();
        }
        assert_eq!(last, whole.run_rounds(4));
        assert_eq!(stepped.tags().read, whole.tags().read);
    }

    #[test]
    fn static_full_coverage_city_drains_completely() {
        let mut cfg = small(400, 40);
        cfg.speed_mps = 0.0;
        cfg.blockers = 0;
        cfg.harvest_per_round = 0.2; // never energy-limited
        let mut eng = CityEngine::new(cfg, SeedTree::new(3));
        let stats = eng.run_rounds(1);
        assert_eq!(
            stats.tags_read as usize, cfg.tags,
            "full coverage + enough rounds must drain every tag"
        );
        assert_eq!(eng.tags().read_count(), cfg.tags);
        assert!(stats.elapsed > Duration::ZERO);
        assert!(stats.tags_per_sim_sec() > 0.0);
    }

    #[test]
    fn blockage_slows_the_inventory() {
        let mut open_cfg = small(500, 3);
        open_cfg.blockers = 0;
        let mut blocked_cfg = open_cfg;
        blocked_cfg.blockers = 40;
        let open = CityEngine::new(open_cfg, SeedTree::new(9)).run_rounds(1);
        let blocked = CityEngine::new(blocked_cfg, SeedTree::new(9)).run_rounds(1);
        assert!(
            blocked.tags_read < open.tags_read,
            "heavy blockage ({} read) must trail the open city ({} read)",
            blocked.tags_read,
            open.tags_read
        );
    }

    #[test]
    fn energy_starved_tags_never_respond() {
        let mut cfg = small(300, 5);
        cfg.tx_cost = 5.0; // unpayable: max charge is ENERGY_CAP = 1.0
        cfg.harvest_per_round = 0.0;
        let stats = CityEngine::new(cfg, SeedTree::new(4)).run_rounds(1);
        assert_eq!(stats.tags_read, 0);
        assert_eq!(stats.slots, 0, "no pending tags ⇒ readers idle");
        assert_eq!(stats.elapsed, Duration::ZERO);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = small(200, 3);
        let a = CityEngine::new(cfg, SeedTree::new(1)).run_rounds(2);
        let b = CityEngine::new(cfg, SeedTree::new(1)).run_rounds(2);
        let c = CityEngine::new(cfg, SeedTree::new(2)).run_rounds(2);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must differ somewhere");
    }

    #[test]
    fn population_is_inside_the_world() {
        let cfg = CityConfig::dense(1000, 1);
        let mut rng = SeedTree::new(7).rng("city-tags");
        let tags = TagSoA::populate(&cfg, &mut rng);
        assert_eq!(tags.len(), 1000);
        assert!(!tags.is_empty());
        let (_, max) = cfg.world();
        for i in 0..tags.len() {
            assert!(tags.x0[i] >= 0.0 && tags.x0[i] < max.x);
            assert!(tags.y0[i] >= 0.0 && tags.y0[i] < max.y);
            assert!((0.5..1.0).contains(&tags.energy[i]));
        }
        assert_eq!(tags.read_count(), 0);
    }
}
