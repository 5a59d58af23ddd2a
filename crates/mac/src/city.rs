//! City-scale inventory: many readers, dense mobile tag fields.
//!
//! §9's end state is *network-scale* operation — readers inventorying
//! dense tag deployments under mobility and blockage. This module is the
//! engine for that regime: a discrete-event inventory over 10⁵–10⁶ tags,
//! built from the workspace's determinism primitives so the result is
//! bit-identical at any thread count.
//!
//! ## Structure
//!
//! Time is divided into global **rounds** (the barriers). Each round:
//!
//! 1. **Barrier (parallel over chunks, then a short serial tail)** — the
//!    barrier walks the ascending list of unread tags in 1024-tag chunks.
//!    A chunk kernel places each tag on its
//!    [`mmtag_sim::mobility::Linear`] trajectory and, if it can pay for a
//!    response after the harvest, keeps the nearest covering reader in
//!    line of sight (squared-distance compare, boundary inclusive,
//!    blockage by that reader's own wall list, exact ties to the lower
//!    reader index). It walks the readers reader-major, eight tags at a
//!    time, and tests the tags that pass a walled reader's distance
//!    compares eight at a time against each of its walls
//!    ([`Segment::blocks_lanes`]). That pass writes one reader per listed
//!    tag over disjoint chunks of the list
//!    ([`mmtag_sim::par::par_fill_chunks_with`]), so it is bit-identical
//!    at any thread count. The serial tail applies the harvest and the
//!    response debit to the listed tags' energy and builds the pending
//!    lists: a flat CSR over tag indices, ascending per reader.
//! 2. **Round (one reader range per thread)** — the readers are split
//!    into contiguous ranges, one per thread of the budget (at most one
//!    per reader), each with its own output and Aloha scratch. Per
//!    reader: draw the framed-Aloha slot choices
//!    ([`FramedAloha::fill_round`], one RNG draw per pending tag from the
//!    reader-and-round-indexed [`SeedTree`] stream), then play the frame
//!    slot by slot — each slot one DES event, classified from the
//!    histogram (empty / read / collision), a read marking its tag. The
//!    Q algorithm adapts per reader exactly as in [`crate::aloha`].
//! 3. **Merge (serial, fixed range order)** — range outputs (reads, Q
//!    updates, per-reader elapsed, tallies) are applied in range order,
//!    the same unit-order merge argument the obs layer uses.
//!
//! ## Why the result is bit-identical everywhere
//!
//! Within a round, ranges share no mutable state: every per-(reader,
//! round) RNG stream is derived from the seed tree, so range work is a
//! pure function of the barrier snapshot. A tag is pending at exactly
//! one reader, so range outputs are disjoint and the merge operations
//! (set a read flag, overwrite one reader's Q, add to one reader's
//! clock, integer sums) are grouping-invariant — regrouping readers into
//! the ranges another thread budget gives produces identical tables.
//! The barrier's kernel gives each tag a reader that depends on that tag
//! alone, and chunks write disjoint slices, so its thread count cannot
//! matter either. The tests pin this at the engine level (stats and
//! per-tag read flags across thread counts) and at the barrier level
//! (the kernel against its single oracle, a reader-major spatial-hash
//! barrier over the full wall list and every tag, every round at 1, 2
//! and 4 threads).
//!
//! Why the kernel equals its oracle: the reader-major barrier in
//! this module's tests visits each reader's coverage disc through a
//! [`mmtag_sim::spatial::SpatialHash`] and offers every in-disc tag that
//! reader when it beats the tag's best so far. Seen from one tag, that is
//! the same walk over readers in ascending index with the same three
//! predicates (`d2 <= coverage²`, `d2 < best`, line of sight) — the
//! hash's cell range never misses an in-disc tag, because its `cell_of`
//! is monotone and clamped, which also covers tags that drift outside
//! the world. (Rounding can place a tag in the disc up to an ulp past
//! the disc's bounding box; the hash would miss it only if a cell edge
//! fell inside that sliver, which the reader grids here cannot produce —
//! their centres, radius and cell edges are multiples of 12.5 m.) The
//! kernel meets, for each tag, that same predicate sequence (next
//! paragraph) and skips work the oracle does; the two arguments after it
//! show each skip changes nothing, so `assigned` is identical without
//! rebuilding a hash each round. The slot loop's argument covers the
//! round.
//!
//! **The chunk kernel.** Per chunk of the unread list, stage 1 gathers
//! every tag's position, `x0 + vx·s` and `y0 + vy·s` — the operations of
//! [`mmtag_sim::mobility::Linear`]'s `pose_at` — and its energy gate
//! into fixed-size arrays on the stack: a tag that cannot pay after the
//! harvest starts at `best = −∞`, which no `d2` beats, and so do the
//! padding lanes past the chunk's end. Stage 2 walks the readers in
//! ascending index. At a reader with no walls, eight tags at a time take
//! it where `d2 <= coverage² && d2 < best`. At a reader with walls, the
//! tags that pass those compares are listed (branch-free, a lane block
//! at a time) and tested eight at a time against each wall of its list;
//! a tag no wall blocks takes the reader. So each tag meets the same predicates, on the same readers,
//! in the same order as a per-tag ascending walk, and the arithmetic is
//! the same too: `d2` is `dist_sq`'s two products and sum, and
//! [`Segment::blocks_lanes`] is the scalar crossing test's operations in
//! its order, with its `|denom|` and margin branches as masks. A
//! reader's verdict on a tag reads nothing another tag wrote, so the
//! order in which a reader visits its tags cannot matter.
//!
//! **Per-reader wall lists.** [`CityEngine::new`] keeps, for each reader,
//! the walls whose nearest point ([`Segment::dist_sq`]) lies within
//! `c + 1 m` of it, `c` = `coverage_m`, and a tag tests only its
//! candidate reader's list. No other wall can block a tag that reader
//! covers:
//!
//! - A tag pends only with `d2 <= c²`, so its path to the reader is at
//!   most `c` long and lies inside the reader's coverage disc (the disc
//!   is convex).
//! - A crossing [`Segment::blocks`] accepts lies within
//!   [`crossing_slack`]`(c, wall length, span)` of the path and the wall,
//!   summed, where `span` bounds the distance from the tag to the wall's
//!   endpoint: the farthest wall endpoint from any reader, plus `c`. So
//!   a blocking wall's nearest point is within `c + slack` of the reader
//!   (plus ulps of the coordinates and of the distance `new` rounds).
//! - In the 4 × 4 city (`c = 37.5 m`, walls 40 m long, endpoints within
//!   20 m of the 200 m-square world) the slack is at most 0.24 m, inside
//!   the 1 m margin. It grows with the world, past the margin at about
//!   20 × 20 readers at the 50 m pitch; there `new` keeps every wall for
//!   every reader, so the lists are exact at any size.
//!
//! **The unread list.** The barrier walks an ascending list of unread
//! tags instead of all `n`, and a tag read in a round leaves the list at
//! the next barrier. Skipping read tags changes nothing the round reads:
//! a read tag pends at no reader and no longer harvests, so a walk over
//! all `n` tags would leave it out of the pending CSR and its energy as
//! it is. The list stays ascending, so the stable counting sort still
//! gives each reader's CSR slice in ascending tag order.
//!
//! **The slot loop.** A reader's frame is a DES timeline with slot `s`
//! at `base + s · slot`. Those times are distinct and increase with `s`,
//! so a time-ordered event queue pops them in slot order; the loop
//! `for s in 0..frame` classifies the same slots in that same order and
//! counts one event per slot, without scheduling them.
//!
//! **Why a chunk kernel.** A per-tag function once walked the readers
//! for one tag at a time, and two variants of its walk were no faster:
//! that loop fused a five-array gather, a branchy walk over the readers
//! and scalar crossing tests into one body that never vectorized, so
//! reshaping the walk inside it changed little. Split
//! into passes, the walk runs eight tags per instruction and a wall
//! meets eight tags that share a reader at once. Vectorizing across one
//! tag's walls instead loses where the lists are short and gains far less
//! where they are long: a tag meets only the walls of the readers that
//! cover it, and still pays its own walk. The barrier counts the
//! unread tags it walks (`mac.city.barrier_tags`) and the tag–reader
//! pairs that reach a wall list (`mac.city.wall_tests`); the
//! published-size suite pins both for E27 and E28.

use crate::aloha::{AlohaScratch, FramedAloha, QAlgorithm, RoundCounts};
use mmtag_rf::math::LANES;
use mmtag_rf::obs;
use mmtag_rf::rng::Rng;
use mmtag_sim::geom::{crossing_slack, Segment, Vec2};
use mmtag_sim::par::par_fill_chunks_with;
use mmtag_sim::time::{Duration, Instant};
use mmtag_sim::SeedTree;
use std::sync::atomic::{AtomicU64, Ordering};

/// Energy ceiling a tag's harvester can charge to (initial charge is
/// drawn from `[0.5, 1.0)`, so the ceiling is "a full capacitor").
const ENERGY_CAP: f64 = 1.0;

/// Sentinel for "not assigned to any reader this round".
const UNASSIGNED: u32 = u32::MAX;

/// Tags per work unit of the barrier's chunk kernel ([`chunk_readers`]),
/// and the size of its stack arrays. Each tag's reader is a pure function
/// of the tag, so any chunk size yields the same `assigned`; this one
/// gives a 10⁵-tag city about a hundred units to balance across workers.
const BARRIER_CHUNK: usize = 1024;

/// How far past `coverage_m` a reader's wall list reaches, meters: the
/// headroom over [`crossing_slack`], by which a crossing
/// [`Segment::blocks`] accepts can sit off the wall and the tag–reader
/// path (module doc).
const WALL_MARGIN_M: f64 = 1.0;

/// Configuration of a city deployment. Any size gives the same result
/// as testing every wall on every path: where the wall lists' margin
/// would not cover the crossing test's rounding, every reader keeps every
/// wall (module doc).
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

    /// A population scattered uniformly over the config's world with
    /// random headings at the config's speed and initial energy drawn
    /// from `[0.5, 1.0)` — all streams from `rng`.
    pub fn populate<R: Rng + ?Sized>(cfg: &CityConfig, rng: &mut R) -> Self {
        let (_, max) = cfg.world();
        let n = cfg.tags;
        let mut tags = TagSoA {
            x0: Vec::with_capacity(n),
            y0: Vec::with_capacity(n),
            vx: Vec::with_capacity(n),
            vy: Vec::with_capacity(n),
            energy: Vec::with_capacity(n),
            read: Vec::with_capacity(n),
        };
        for _ in 0..n {
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
/// determinism tests compare these across thread counts and engines bit
/// for bit.
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

/// Each reader's wall list: the walls (in wall order) whose nearest point
/// lies within `coverage_m + WALL_MARGIN_M` of it, or every wall where
/// [`crossing_slack`] exceeds the margin. The module doc shows no other
/// wall can block a tag the reader covers.
fn reader_walls(cfg: &CityConfig, readers: &[Vec2], walls: &[Segment]) -> Vec<Vec<Segment>> {
    let c = cfg.coverage_m;
    let span = walls
        .iter()
        .flat_map(|w| [w.a, w.b])
        .flat_map(|e| readers.iter().map(move |&rp| e.sub(rp).norm()))
        .fold(0.0, f64::max)
        + c;
    let wall_len = walls
        .iter()
        .map(|w| w.length().meters())
        .fold(0.0, f64::max);
    let reach = if crossing_slack(c, wall_len, span) <= WALL_MARGIN_M {
        c + WALL_MARGIN_M
    } else {
        f64::INFINITY
    };
    readers
        .iter()
        .map(|&rp| {
            let near = walls.iter().filter(|w| w.dist_sq(rp) <= reach * reach);
            near.copied().collect()
        })
        .collect()
}

/// `cfg.blockers` random wall segments, each `0.8 · reader_spacing_m`
/// long and centred in the world, from `tree`'s `city-walls` stream.
fn random_walls(cfg: &CityConfig, tree: &SeedTree) -> Vec<Segment> {
    let (_, max) = cfg.world();
    let mut wall_rng = tree.rng("city-walls");
    let mut walls = Vec::with_capacity(cfg.blockers);
    for _ in 0..cfg.blockers {
        let c = Vec2::new(wall_rng.f64() * max.x, wall_rng.f64() * max.y);
        let th = wall_rng.f64() * std::f64::consts::TAU;
        let half = Vec2::new(th.cos(), th.sin()).scale(cfg.reader_spacing_m * 0.4);
        walls.push(Segment::new(c.sub(half), c.add(half)));
    }
    walls
}

/// What one reader range reports back for the serial merge, with the
/// Aloha scratch its frames are drawn into. The engine keeps one per
/// range across rounds.
#[derive(Clone, Debug, Default)]
struct ShardOut {
    aloha: AlohaScratch,
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
/// range function. Reads only the barrier snapshot (`qs`, pending CSR),
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
        FramedAloha.fill_round(n_pending, frame, &mut rng, &mut out.aloha);
        // Play the frame slot by slot, in the order its DES events would
        // pop (module doc).
        let mut counts = RoundCounts {
            successes: 0,
            empty_slots: 0,
            collision_slots: 0,
            frame_size: frame,
        };
        for (&n, &owner) in out.aloha.slot_count().iter().zip(out.aloha.slot_owner()) {
            match n {
                0 => counts.empty_slots += 1,
                1 => {
                    counts.successes += 1;
                    out.reads.push(pend_entries[p0 + owner as usize]);
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

/// An unread tag's stored energy after the round's harvest: it charges
/// toward the cap. A read tag no longer harvests.
fn harvested(cfg: &CityConfig, energy: f64) -> f64 {
    (energy + cfg.harvest_per_round).min(ENERGY_CAP)
}

/// For each lane mask, its set lanes in ascending order (the rest 0).
const SET_LANES: [[u8; LANES]; 1 << LANES] = {
    let mut table = [[0u8; LANES]; 1 << LANES];
    let mut mask = 0;
    while mask < 1 << LANES {
        let (mut l, mut k) = (0, 0);
        while l < LANES {
            if mask >> l & 1 == 1 {
                table[mask][k] = l as u8;
                k += 1;
            }
            l += 1;
        }
        mask += 1;
    }
    table
};

/// The barrier's chunk kernel: writes to `out` the reader each tag of
/// `unread` (one chunk of the unread list, at most [`BARRIER_CHUNK`]
/// tags) pends at in the round at time `t`, or [`UNASSIGNED`] when it
/// cannot pay for a response after the harvest or no reader covers it in
/// line of sight. A reader wins when `d2 <= coverage²` (boundary
/// inclusive), `d2 < best` (exact ties stay with the lower index) and no
/// wall on its list blocks the path. Stage 1 gathers positions and
/// energy gates into stack arrays; stage 2 walks the readers in
/// ascending index over [`LANES`] tags at a time (module doc, "The chunk
/// kernel"). Returns its wall tests: the tag–reader pairs that passed
/// both distance compares at a reader with walls.
fn chunk_readers(
    cfg: &CityConfig,
    readers: &[Vec2],
    walls: &[Vec<Segment>],
    tags: &TagSoA,
    t: Instant,
    unread: &[u32],
    out: &mut [u32],
) -> u64 {
    let n = unread.len();
    let padded = n.div_ceil(LANES) * LANES;
    let s = t.as_secs_f64();
    let mut px = [0.0f64; BARRIER_CHUNK];
    let mut py = [0.0f64; BARRIER_CHUNK];
    let mut best = [f64::NEG_INFINITY; BARRIER_CHUNK];
    let mut reader = [UNASSIGNED; BARRIER_CHUNK];
    for (j, &i) in unread.iter().enumerate() {
        let i = i as usize;
        px[j] = tags.x0[i] + tags.vx[i] * s;
        py[j] = tags.y0[i] + tags.vy[i] * s;
        best[j] = if harvested(cfg, tags.energy[i]) < cfg.tx_cost {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
    }
    let (px, py) = (&px[..padded], &py[..padded]);
    let (best, reader) = (&mut best[..padded], &mut reader[..padded]);
    let coverage_sq = cfg.coverage_m * cfg.coverage_m;
    // A walled reader's verdict on each tag's distance compares (0 or 1),
    // and the chunk positions of the tags that passed them.
    let mut pass = [0u8; BARRIER_CHUNK];
    let mut passed = [0u32; BARRIER_CHUNK];
    let mut wall_tests = 0;
    for (r, (&rp, walls)) in readers.iter().zip(walls).enumerate() {
        let r = r as u32;
        // `Vec2::dist_sq`'s operations, in its order.
        let d2 = |j: usize| {
            let (dx, dy) = (px[j] - rp.x, py[j] - rp.y);
            dx * dx + dy * dy
        };
        if walls.is_empty() {
            for j in 0..padded {
                let d2 = d2(j);
                let take = (d2 <= coverage_sq) & (d2 < best[j]);
                best[j] = if take { d2 } else { best[j] };
                reader[j] = if take { r } else { reader[j] };
            }
            continue;
        }
        for j in 0..padded {
            let d2 = d2(j);
            pass[j] = u8::from((d2 <= coverage_sq) & (d2 < best[j]));
        }
        // Each lane block appends its passing lanes without a branch: all
        // eight slots are written, and `m` advances past the set ones. The
        // multiply copies byte `l`'s verdict to bit `56 + l` and to bits
        // below 56 or past 63, every copy on a bit of its own, so nothing
        // carries and the top byte is the block's lane mask.
        let mut m = 0;
        for (b, lanes) in pass[..padded].chunks_exact(LANES).enumerate() {
            let word = u64::from_le_bytes(lanes.try_into().expect("a lane block is 8 bytes"));
            let mask = (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) as usize;
            for (slot, &l) in passed[m..m + LANES].iter_mut().zip(&SET_LANES[mask]) {
                *slot = (b * LANES) as u32 + u32::from(l);
            }
            m += mask.count_ones() as usize;
        }
        wall_tests += m as u64;
        for group in passed[..m].chunks(LANES) {
            let (mut gx, mut gy) = ([rp.x; LANES], [rp.y; LANES]);
            for (l, &j) in group.iter().enumerate() {
                (gx[l], gy[l]) = (px[j as usize], py[j as usize]);
            }
            let blocked = walls
                .iter()
                .fold(0u8, |acc, w| acc | w.blocks_lanes(&gx, &gy, rp));
            for (l, &j) in group.iter().enumerate() {
                if blocked >> l & 1 == 0 {
                    best[j as usize] = d2(j as usize);
                    reader[j as usize] = r;
                }
            }
        }
    }
    out.copy_from_slice(&reader[..n]);
    wall_tests
}

/// Applies one range's output — called serially, in range order. Every
/// operation touches state no other range touches (a tag pends at
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
/// [`CityEngine::run_rounds`] at any thread budget.
pub struct CityEngine {
    cfg: CityConfig,
    tree: SeedTree,
    readers: Vec<Vec2>,
    /// Each reader's wall list ([`reader_walls`]).
    walls: Vec<Vec<Segment>>,
    tags: TagSoA,
    qs: Vec<QAlgorithm>,
    reader_elapsed: Vec<Duration>,
    round: u64,
    stats: CityStats,
    // Barrier state and scratch — flat, retained across rounds.
    /// Unread tags, ascending; a tag read in a round leaves at the next
    /// barrier.
    unread: Vec<u32>,
    /// The reader each `unread` tag pends at this round, or
    /// [`UNASSIGNED`]; parallel to `unread`.
    assigned: Vec<u32>,
    pend_starts: Vec<u32>,
    pend_entries: Vec<u32>,
    cursor: Vec<u32>,
    /// One output per reader range of the round, kept across rounds.
    outs: Vec<ShardOut>,
}

impl CityEngine {
    /// Builds the deployment: readers on their grid, `cfg.blockers`
    /// random wall segments (kept as per-reader wall lists, exact at any
    /// world size: module doc), and a tag population — all randomness
    /// from labeled `tree` streams, so two engines built from the same
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
        let walls = reader_walls(&cfg, &readers, &random_walls(&cfg, &tree));
        let mut tag_rng = tree.rng("city-tags");
        let tags = TagSoA::populate(&cfg, &mut tag_rng);
        let n_readers = cfg.n_readers();
        CityEngine {
            cfg,
            tree,
            readers,
            walls,
            unread: (0..tags.len() as u32).collect(),
            tags,
            qs: vec![QAlgorithm::new(); n_readers],
            reader_elapsed: vec![Duration::ZERO; n_readers],
            round: 0,
            stats: CityStats::default(),
            assigned: Vec::new(),
            pend_starts: Vec::new(),
            pend_entries: Vec::new(),
            cursor: Vec::new(),
            outs: Vec::new(),
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

    /// The round barrier at a `threads` budget: tags read last round
    /// leave the unread list, the chunk kernel ([`chunk_readers`]) fills
    /// `assigned` over disjoint chunks of that list, then a serial tail
    /// applies harvest and response debit to the listed tags' energy and
    /// builds the pending CSR. Counts the listed tags
    /// (`mac.city.barrier_tags`) and the kernel's wall tests
    /// (`mac.city.wall_tests`). Bit-identical at any `threads`;
    /// allocation-free once the scratch vectors have warmed up.
    fn barrier(&mut self, k: u64, threads: usize) {
        let _span = obs::span("mac.city.barrier");
        let t = Instant::ZERO + self.cfg.round_period.times(k);
        let read = &self.tags.read;
        self.unread.retain(|&i| !read[i as usize]);
        self.assigned.resize(self.unread.len(), UNASSIGNED);
        let (cfg, readers, walls, tags, unread) = (
            &self.cfg,
            &self.readers[..],
            &self.walls[..],
            &self.tags,
            &self.unread[..],
        );
        let wall_tests = AtomicU64::new(0);
        par_fill_chunks_with(
            threads,
            &mut self.assigned,
            BARRIER_CHUNK,
            |start, chunk| {
                let listed = &unread[start..start + chunk.len()];
                let tests = chunk_readers(cfg, readers, walls, tags, t, listed, chunk);
                wall_tests.fetch_add(tests, Ordering::Relaxed);
            },
        );
        obs::counter_add("mac.city.barrier_tags", self.unread.len() as u64);
        obs::counter_add("mac.city.wall_tests", wall_tests.into_inner());
        // Serial tail. Harvest, and count each reader's pending tags.
        let nr = self.readers.len();
        self.pend_starts.clear();
        self.pend_starts.resize(nr + 1, 0);
        for (&i, &a) in self.unread.iter().zip(&self.assigned) {
            let e = &mut self.tags.energy[i as usize];
            *e = harvested(&self.cfg, *e);
            if a != UNASSIGNED {
                self.pend_starts[a as usize + 1] += 1;
            }
        }
        // Pending CSR: stable counting sort by reader over the ascending
        // list ⇒ ascending tag index within each reader's slice.
        for r in 0..nr {
            self.pend_starts[r + 1] += self.pend_starts[r];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.pend_starts[..nr]);
        self.pend_entries.clear();
        self.pend_entries.resize(self.pend_starts[nr] as usize, 0);
        for (&i, &a) in self.unread.iter().zip(&self.assigned) {
            if a != UNASSIGNED {
                self.pend_entries[self.cursor[a as usize] as usize] = i;
                self.cursor[a as usize] += 1;
                // Responding costs energy whether or not the slot is clean.
                self.tags.energy[i as usize] -= self.cfg.tx_cost;
            }
        }
    }

    /// The round after its barrier: the readers split into one contiguous
    /// range per thread (`threads.clamp(1, readers)`), each range's frames
    /// played into its own engine-owned [`ShardOut`] in parallel, the
    /// outputs merged in range order. Bit-identical at any `threads`;
    /// allocation-free once warm at a fixed `threads`.
    fn play_round(&mut self, threads: usize) {
        let _span = obs::span("mac.city.round");
        let k = self.round;
        let nr = self.readers.len();
        let ranges = threads.clamp(1, nr);
        self.outs.resize_with(ranges, ShardOut::default);
        let (cfg, tree, qs, pend_starts, pend_entries) = (
            &self.cfg,
            &self.tree,
            &self.qs[..],
            &self.pend_starts[..],
            &self.pend_entries[..],
        );
        par_fill_chunks_with(threads, &mut self.outs, 1, |range, out| {
            let out = &mut out[0];
            out.clear();
            let (lo, hi) = (range * nr / ranges, (range + 1) * nr / ranges);
            shard_round(cfg, tree, k, qs, pend_starts, pend_entries, lo, hi, out);
        });
        for out in &self.outs {
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

    /// Runs `cfg.rounds` rounds at a `threads` budget: each round's
    /// barrier runs its chunk kernel over tag chunks and the round its
    /// reader ranges, both via [`mmtag_sim::par`] — bit-identical at any
    /// `threads`.
    pub fn run_rounds(&mut self, threads: usize) -> CityStats {
        let _span = obs::span("mac.city.run");
        for _ in 0..self.cfg.rounds {
            self.barrier(self.round, threads);
            self.play_round(threads);
        }
        obs::counter_add("mac.city.events", self.stats.events);
        obs::counter_add("mac.city.reads", self.stats.tags_read);
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_rf::units::Angle;
    use mmtag_sim::mobility::{Linear, Mobility, Pose};
    use mmtag_sim::spatial::SpatialHash;

    /// Tag `i`'s position at time `t`, from its [`Linear`] trajectory.
    fn position_at(tags: &TagSoA, i: usize, t: Instant) -> Vec2 {
        let traj = Linear {
            start: Pose::new(Vec2::new(tags.x0[i], tags.y0[i]), Angle::from_radians(0.0)),
            velocity: Vec2::new(tags.vx[i], tags.vy[i]),
        };
        traj.pose_at(t).position
    }

    fn small(tags: usize, rounds: usize) -> CityConfig {
        let mut cfg = CityConfig::dense(tags, rounds);
        cfg.readers_x = 3;
        cfg.readers_y = 2;
        cfg
    }

    /// The barrier's single oracle: a reader-major barrier over every tag
    /// and the full wall list. It rebuilds a [`SpatialHash`] over every
    /// tag's position, harvests, then walks readers in ascending index and
    /// offers each in-disc, unread, energized tag that reader when it is
    /// strictly nearer than the tag's best so far and no wall in `walls`
    /// blocks the path; the pending CSR (stable counting sort) and the
    /// response debit follow. Writes the same engine state the production
    /// barrier's round reads.
    fn reader_major_barrier(eng: &mut CityEngine, walls: &[Segment], k: u64) {
        let cfg = eng.cfg;
        let n = eng.tags.len();
        let t = Instant::ZERO + cfg.round_period.times(k);
        let positions: Vec<Vec2> = (0..n).map(|i| position_at(&eng.tags, i, t)).collect();
        let (min, max) = cfg.world();
        let mut hash = SpatialHash::new(min, max, cfg.coverage_m);
        hash.rebuild(&positions);
        let tags = &mut eng.tags;
        for i in 0..n {
            if !tags.read[i] {
                tags.energy[i] = (tags.energy[i] + cfg.harvest_per_round).min(ENERGY_CAP);
            }
        }
        let mut assigned = vec![UNASSIGNED; n];
        let mut best_d2 = vec![f64::INFINITY; n];
        for (r, &rp) in eng.readers.iter().enumerate() {
            hash.for_each_in_disc(&positions, rp, cfg.coverage_m, |i| {
                let i = i as usize;
                if tags.read[i] || tags.energy[i] < cfg.tx_cost {
                    return;
                }
                let d2 = positions[i].dist_sq(rp);
                if d2 < best_d2[i] && walls.iter().all(|w| !w.blocks(positions[i], rp)) {
                    best_d2[i] = d2;
                    assigned[i] = r as u32;
                }
            });
        }
        let nr = eng.readers.len();
        let mut starts = vec![0u32; nr + 1];
        for &a in &assigned {
            if a != UNASSIGNED {
                starts[a as usize + 1] += 1;
            }
        }
        for r in 0..nr {
            starts[r + 1] += starts[r];
        }
        let mut cursor = starts[..nr].to_vec();
        let mut entries = vec![0u32; starts[nr] as usize];
        for (i, &a) in assigned.iter().enumerate() {
            if a != UNASSIGNED {
                entries[cursor[a as usize] as usize] = i as u32;
                cursor[a as usize] += 1;
                tags.energy[i] -= cfg.tx_cost;
            }
        }
        eng.pend_starts = starts;
        eng.pend_entries = entries;
    }

    /// Every tag's reader this round, read back from the pending CSR
    /// ([`UNASSIGNED`] for a tag pending nowhere).
    fn assignment(eng: &CityEngine) -> Vec<u32> {
        let mut assigned = vec![UNASSIGNED; eng.tags.len()];
        for r in 0..eng.readers.len() {
            let (p0, p1) = (eng.pend_starts[r] as usize, eng.pend_starts[r + 1] as usize);
            for &i in &eng.pend_entries[p0..p1] {
                assigned[i as usize] = r as u32;
            }
        }
        assigned
    }

    /// Tags `0..PLANTED` are placed by [`plant_edge_cases`].
    const PLANTED: usize = 11;

    /// Plants the barrier's edge cases over the first tags of a 3 × 2
    /// city (readers at x ∈ {25, 75, 125}, y ∈ {25, 75}; coverage 37.5 m)
    /// and returns the walls planted with them.
    fn plant_edge_cases(tags: &mut TagSoA) -> Vec<Segment> {
        let mut place = |i: usize, x: f64, y: f64, vx: f64, vy: f64| {
            tags.x0[i] = x;
            tags.y0[i] = y;
            tags.vx[i] = vx;
            tags.vy[i] = vy;
        };
        // Exactly on reader 0's coverage rim, outside the world, and no
        // other reader in range: only the inclusive boundary assigns it.
        place(0, -12.5, 25.0, 0.0, 0.0);
        // Equidistant from readers 0 and 1, and from all four of 0, 1, 3, 4.
        place(1, 50.0, 25.0, 0.0, 0.0);
        place(2, 50.0, 50.0, 0.0, 0.0);
        // Starting outside the world and moving further out.
        place(3, -5.0, 90.0, -6.0, 2.0);
        place(4, 150.5, -0.5, 3.0, -3.0);
        // 37.45 m below reader 0, near its rim; no other reader covers it.
        place(9, 25.0, -12.45, 0.0, 0.0);
        // 15 m from reader 1 and 35 m from reader 4.
        place(10, 75.0, 40.0, 0.0, 0.0);
        // Already read: never assigned, never harvests.
        tags.read[5] = true;
        tags.read[6] = true;
        // Energy-starved (needs two harvests), and exactly one harvest
        // short of the response cost (0.05 + 0.05 == 0.1 exactly).
        tags.energy[7] = 0.0;
        tags.energy[8] = 0.05;
        let tilt = 1e-10;
        vec![
            // Nearest point 37.4 m from reader 0, just inside coverage:
            // it cuts tag 9 off.
            Segment::new(Vec2::new(20.0, -12.4), Vec2::new(30.0, -12.4)),
            // Nearest point 38.6 m from reader 0, just past its list.
            Segment::new(Vec2::new(20.0, -13.6), Vec2::new(30.0, -13.6)),
            // Nearly collinear with tag 10's path to reader 1 (|denom| =
            // 3e-9, just above EPS), crossing it halfway: tag 10 falls
            // back to reader 4.
            Segment::new(Vec2::new(75.0 - tilt, 28.0), Vec2::new(75.0 + tilt, 37.0)),
        ]
    }

    #[test]
    fn per_tag_barrier_matches_reader_major_oracle_every_round() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (speed, blockers) in [(0.0, 0usize), (0.0, 48), (6.0, 0), (6.0, 48)] {
            let mut cfg = small(3_000, 6);
            cfg.speed_mps = speed;
            cfg.blockers = blockers;
            let tree = SeedTree::new(0xBA77);
            for threads in [1usize, 2, 4] {
                let mut oracle = CityEngine::new(cfg, tree);
                let mut fast = CityEngine::new(cfg, tree);
                let mut walls = random_walls(&cfg, &tree);
                walls.extend(plant_edge_cases(&mut oracle.tags));
                plant_edge_cases(&mut fast.tags);
                fast.walls = reader_walls(&cfg, &fast.readers, &walls);
                // Energy bits of each tag as of the round it was read.
                let mut frozen: Vec<Option<u64>> = vec![None; cfg.tags];
                let mut checked_read = 0usize;
                let mut left_world = false;
                for k in 0..cfg.rounds as u64 {
                    reader_major_barrier(&mut oracle, &walls, k);
                    fast.barrier(k, threads);
                    let at =
                        format!("speed={speed} blockers={blockers} threads={threads} round={k}");
                    let assigned = assignment(&fast);
                    assert_eq!(assignment(&oracle), assigned, "assigned, {at}");
                    assert_eq!(oracle.pend_starts, fast.pend_starts, "pend_starts, {at}");
                    assert_eq!(oracle.pend_entries, fast.pend_entries, "pend_entries, {at}");
                    assert_eq!(
                        bits(&oracle.tags.energy),
                        bits(&fast.tags.energy),
                        "energy, {at}"
                    );
                    if k == 0 && blockers == 0 {
                        assert_eq!(assigned[0], 0, "rim tag takes reader 0, {at}");
                        assert_eq!(assigned[1], 0, "tie goes to the lower index, {at}");
                        assert_eq!(assigned[2], 0, "four-way tie, {at}");
                        assert_ne!(assigned[8], UNASSIGNED, "cost-exact tag, {at}");
                        assert_eq!(assigned[10], 4, "collinear wall blocks reader 1, {at}");
                    }
                    if k == 0 {
                        assert_eq!(assigned[5], UNASSIGNED, "read tag, {at}");
                        assert_eq!(assigned[7], UNASSIGNED, "starved tag, {at}");
                        assert_eq!(assigned[9], UNASSIGNED, "rim wall blocks tag 9, {at}");
                    }
                    for (i, f) in frozen.iter().enumerate() {
                        if let Some(e) = *f {
                            assert_eq!(assigned[i], UNASSIGNED, "read tag {i} pends, {at}");
                            assert_eq!(fast.tags.energy[i].to_bits(), e, "tag {i} energy, {at}");
                            checked_read += 1;
                        }
                    }
                    let (min, max) = cfg.world();
                    let t = Instant::ZERO + cfg.round_period.times(k);
                    left_world |= (PLANTED..fast.tags.len()).any(|i| {
                        let p = position_at(&fast.tags, i, t);
                        p.x < min.x || p.y < min.y || p.x > max.x || p.y > max.y
                    });
                    oracle.play_round(threads);
                    fast.play_round(threads);
                    for (f, (&read, &e)) in frozen
                        .iter_mut()
                        .zip(fast.tags.read.iter().zip(&fast.tags.energy))
                    {
                        if read && f.is_none() {
                            *f = Some(e.to_bits());
                        }
                    }
                }
                assert_eq!(oracle.stats(), fast.stats());
                assert_eq!(oracle.tags.read, fast.tags.read);
                assert!(checked_read > 0, "no read tag was checked in a later round");
                assert_eq!(
                    left_world,
                    speed > 0.0,
                    "moving populations must drift out of the world, {speed}"
                );
            }
        }
    }

    /// Plants the chunk kernel's own edge cases over the first tags of a
    /// city on the 50 m grid (reader `(col, row)` at `(25 + 50·col,
    /// 25 + 50·row)`, index `col + row·readers_x`) and returns the walls
    /// planted with them:
    /// - tag 12 sits on reader 0, energy-starved, inside a lane block of
    ///   live tags: it pends nowhere in round 0 and at reader 0 in round 1;
    /// - tag 13, at (48, 51), is covered by readers (0, 1), (0, 0),
    ///   (1, 1) and (1, 0), nearest first, and the walls cut it off from
    ///   the two nearest, so the third, (1, 1), takes it.
    fn plant_kernel_cases(tags: &mut TagSoA) -> Vec<Segment> {
        for (i, x, y) in [(12, 25.0, 25.0), (13, 48.0, 51.0)] {
            (tags.x0[i], tags.y0[i], tags.vx[i], tags.vy[i]) = (x, y, 0.0, 0.0);
        }
        tags.energy[12] = 0.0;
        vec![
            // Across tag 13's path to reader (0, 1), mid-path and mid-wall.
            Segment::new(Vec2::new(34.1, 60.7), Vec2::new(38.9, 65.3)),
            // Across its path to reader (0, 0).
            Segment::new(Vec2::new(33.9, 40.3), Vec2::new(39.1, 35.7)),
        ]
    }

    #[test]
    fn chunk_kernel_matches_reader_major_oracle_at_its_edges() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // 2,053 and 5,003 tags are no multiple of 8 and end in a partial
        // 1024-tag chunk; 75 m of coverage is 1.5 pitches, so a tag of the
        // 9 × 8 grid can have nine covering readers.
        for (cols, rows, coverage, n) in [
            (3usize, 2usize, 75.0, 2_053usize),
            (9, 8, 37.5, 5_003),
            (9, 8, 75.0, 5_003),
        ] {
            let mut cfg = CityConfig::dense(n, 4);
            (cfg.readers_x, cfg.readers_y, cfg.coverage_m) = (cols, rows, coverage);
            (cfg.speed_mps, cfg.blockers) = (6.0, 48);
            let tree = SeedTree::new(0xC4E7);
            for threads in [1usize, 2, 4] {
                let mut oracle = CityEngine::new(cfg, tree);
                let mut fast = CityEngine::new(cfg, tree);
                let planted = plant_kernel_cases(&mut oracle.tags);
                plant_kernel_cases(&mut fast.tags);
                // No random wall may decide tag 13's case.
                let third = cols + 1;
                let (tag13, via) = (Vec2::new(48.0, 51.0), fast.readers[third]);
                let mut walls = random_walls(&cfg, &tree);
                walls.retain(|w| !w.blocks(tag13, via));
                walls.extend(planted);
                fast.walls = reader_walls(&cfg, &fast.readers, &walls);
                for k in 0..cfg.rounds as u64 {
                    reader_major_barrier(&mut oracle, &walls, k);
                    fast.barrier(k, threads);
                    let at = format!(
                        "{cols} × {rows}, coverage {coverage}, threads={threads} round={k}"
                    );
                    let assigned = assignment(&fast);
                    assert_eq!(assignment(&oracle), assigned, "assigned, {at}");
                    assert_eq!(oracle.pend_starts, fast.pend_starts, "pend_starts, {at}");
                    assert_eq!(oracle.pend_entries, fast.pend_entries, "pend_entries, {at}");
                    assert_eq!(
                        bits(&oracle.tags.energy),
                        bits(&fast.tags.energy),
                        "energy, {at}"
                    );
                    if k == 0 {
                        assert_eq!(assigned[12], UNASSIGNED, "starved tag, {at}");
                        assert_eq!(assigned[13], third as u32, "third reader, {at}");
                        let t = Instant::ZERO;
                        let covering = (0..n).map(|i| {
                            let p = position_at(&fast.tags, i, t);
                            let r2 = coverage * coverage;
                            fast.readers
                                .iter()
                                .filter(|&&rp| p.dist_sq(rp) <= r2)
                                .count()
                        });
                        if (cols, coverage) == (9, 75.0) {
                            assert_eq!(covering.max(), Some(9), "nine covering readers, {at}");
                        }
                    }
                    if k == 1 {
                        assert_eq!(assigned[12], 0, "tag 12 paid after two harvests, {at}");
                    }
                    oracle.play_round(threads);
                    fast.play_round(threads);
                }
                assert_eq!(oracle.stats(), fast.stats());
                assert_eq!(oracle.tags.read, fast.tags.read);
            }
        }
    }

    #[test]
    fn wall_lists_keep_every_wall_where_the_margin_falls_short() {
        let tree = SeedTree::new(0x3A11);
        let mut cfg = CityConfig::dense(1, 1);
        cfg.blockers = 12;
        let eng = CityEngine::new(cfg, tree);
        let walls = random_walls(&cfg, &tree);
        assert!(
            eng.walls.iter().all(|w| w.len() < walls.len()),
            "4 × 4 lists cull"
        );
        // A 60 × 60 grid puts a wall endpoint ≥ 2 km from some reader:
        // the slack passes the margin and every list is the full list.
        cfg.readers_x = 60;
        cfg.readers_y = 60;
        let eng = CityEngine::new(cfg, tree);
        let walls = random_walls(&cfg, &tree);
        assert!(eng.walls.iter().all(|w| *w == walls));
    }

    #[test]
    fn stats_are_invariant_across_thread_counts() {
        let base = small(600, 5);
        let tree = SeedTree::new(0x5A4D);
        let mut one = CityEngine::new(base, tree);
        let want = one.run_rounds(1);
        assert!(want.tags_read > 0, "a live city must read tags");
        assert_eq!(want.events, want.slots, "one DES event per slot");
        // 8 threads exceed the 6 readers: one range per reader.
        for threads in [2usize, 3, 4, 8] {
            let mut eng = CityEngine::new(base, tree);
            let got = eng.run_rounds(threads);
            assert_eq!(want, got, "threads={threads}");
            assert_eq!(one.tags().read, eng.tags().read, "threads={threads}");
        }
    }

    /// The engine against a model outside its own code: one reader over a
    /// wall-free world it fully covers, static tags, and the default
    /// energy (every tag starts at 0.5–1.0 against a 0.1 response cost,
    /// so none stalls). Round 1 is then one framed-Aloha frame of
    /// `QAlgorithm::new().frame_size()` slots, and the mean read count
    /// over seeds must match `n·(1 − 1/L)^(n−1)` within 4 standard
    /// errors computed from the runs themselves.
    #[test]
    fn first_round_of_one_reader_matches_framed_aloha() {
        const SEEDS: u64 = 400;
        let frame = QAlgorithm::new().frame_size();
        assert_eq!(frame, 16);
        for n in [5usize, 20, 40] {
            let mut cfg = CityConfig::dense(n, 1);
            cfg.readers_x = 1;
            cfg.readers_y = 1;
            cfg.blockers = 0;
            cfg.speed_mps = 0.0;
            let reads: Vec<f64> = (0..SEEDS)
                .map(|seed| {
                    let mut eng = CityEngine::new(cfg, SeedTree::new(seed));
                    let stats = eng.run_rounds(1);
                    assert_eq!(stats.slots, frame as u64, "n={n} seed={seed}");
                    stats.tags_read as f64
                })
                .collect();
            let mean = reads.iter().sum::<f64>() / SEEDS as f64;
            let var = reads.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (SEEDS - 1) as f64;
            let se = (var / SEEDS as f64).sqrt();
            let want = n as f64 * FramedAloha::expected_read_fraction(n, frame);
            let z = (mean - want) / se;
            assert!(
                z.abs() <= 4.0,
                "n={n}: mean reads {mean:.3} vs n·(1 − 1/L)^(n−1) = {want:.3} (z = {z:.2})"
            );
        }
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
        assert_eq!(eng.tags().read.iter().filter(|&&r| r).count(), cfg.tags);
        assert!(stats.elapsed > Duration::ZERO);
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
        assert!(tags.read.iter().all(|&r| !r));
    }
}
