//! Property-based tests for the MAC: conservation and bound invariants of
//! the Aloha machinery over arbitrary populations and frame sizes.
//!
//! Cases are drawn deterministically from the in-house [`mmtag_rf::rng`]
//! generator (no external property-testing framework — the workspace
//! builds offline); each assertion prints the inputs that produced it.

use mmtag_mac::aloha::{
    inventory_until_drained, slotted_aloha_throughput, AlohaScratch, FramedAloha, QAlgorithm,
    RoundCounts,
};
use mmtag_mac::scan::ScanSchedule;
use mmtag_mac::sdm::SectorScheduler;
use mmtag_rf::rng::{Rng, SeedTree, Xoshiro256pp};
use mmtag_rf::units::Angle;
use mmtag_sim::time::Duration;

const CASES: usize = 200;

fn cases(label: &'static str) -> impl Iterator<Item = Xoshiro256pp> {
    let tree = SeedTree::new(0x3AC_AC3);
    (0..CASES).map(move |i| tree.rng_indexed(label, i as u64))
}

/// Slot accounting always conserves the frame; reads never exceed the
/// population; the owners of singleton slots (the reads) are unique and
/// in range.
#[test]
fn round_conservation() {
    let mut scratch = AlohaScratch::new();
    for mut rng in cases("round") {
        let n = rng.index(300);
        let l = 1 + rng.index(511);
        let mut owners_rng = rng.clone();
        let out = FramedAloha.run_round_counts(n, l, &mut rng, &mut scratch);
        assert_eq!(
            out.successes + out.empty_slots + out.collision_slots,
            l,
            "n={n} l={l}"
        );
        assert!(out.successes <= n, "n={n} l={l}");
        FramedAloha.fill_round(n, l, &mut owners_rng, &mut scratch);
        let mut read: Vec<u32> = scratch
            .slot_count()
            .iter()
            .zip(scratch.slot_owner())
            .filter(|(&c, _)| c == 1)
            .map(|(_, &owner)| owner)
            .collect();
        assert_eq!(read.len(), out.successes, "n={n} l={l}");
        read.sort_unstable();
        read.dedup();
        assert_eq!(read.len(), out.successes, "n={n} l={l}");
        assert!(read.iter().all(|&t| (t as usize) < n), "n={n} l={l}");
    }
}

/// Throughput formula: S(G) ≤ 1/e everywhere, equality only at G = 1.
#[test]
fn aloha_bound() {
    for mut rng in cases("bound") {
        let g = rng.in_range(0.0, 20.0);
        let s = slotted_aloha_throughput(g);
        assert!(s <= (-1.0f64).exp() + 1e-12, "g={g}");
        if (g - 1.0).abs() > 0.2 {
            assert!(s < (-1.0f64).exp(), "g={g}");
        }
    }
}

/// Inventory always drains the full population and uses at least one
/// slot per tag.
#[test]
fn inventory_drains() {
    for mut rng in cases("drain").take(60) {
        let n = 1 + rng.index(399);
        let stats = inventory_until_drained(n, QAlgorithm::new(), 1_000_000, &mut rng);
        assert_eq!(stats.tags_read, n);
        assert!(stats.total_slots >= n);
        // Efficiency can spike for tiny populations (12 lucky tags in a
        // 16-slot first frame is 0.75); the 1/e-ish ceiling only binds
        // once the adaptive loop dominates.
        assert!(stats.efficiency() <= 1.0);
        if n >= 100 {
            assert!(
                stats.efficiency() <= 0.40,
                "n={n} eff {}",
                stats.efficiency()
            );
        }
    }
}

/// Q stays clamped to [0, 15] under any feedback sequence.
#[test]
fn q_stays_clamped() {
    for mut rng in cases("q-clamp") {
        let start = rng.in_range(0.0, 15.0);
        let rounds = 1 + rng.index(49);
        let mut q = QAlgorithm::with_q(start);
        for _ in 0..rounds {
            let collisions = rng.index(64);
            let empties = rng.index(64);
            let frame = (collisions + empties).max(1);
            q.update_counts(&RoundCounts {
                successes: 0,
                empty_slots: empties,
                collision_slots: collisions,
                frame_size: frame,
            });
            assert!((0.0..=15.0).contains(&q.q()), "start={start}");
            let fs = q.frame_size();
            assert!((1..=1 << 15).contains(&fs), "start={start}");
        }
    }
}

/// Scan schedules: every target angle inside the sector maps to a beam
/// position within half a beam step.
#[test]
fn scan_covers_all_angles() {
    for mut rng in cases("scan") {
        let sector_deg = rng.in_range(20.0, 180.0);
        let beam_deg = rng.in_range(2.0, 40.0);
        let target_frac = rng.in_range(-0.5, 0.5);
        let s = ScanSchedule::new(
            Angle::from_degrees(sector_deg),
            Angle::from_degrees(beam_deg),
            Duration::from_millis(1),
        );
        let target = Angle::from_degrees(sector_deg * target_frac);
        let idx = s.position_for(target);
        let beam = s.angle_of(idx);
        // Positions step by beam/2 across the sector; nearest beam center
        // is within ~beam/2 (+ slack for the ends of a coarse grid).
        assert!(
            beam.separation(target).degrees() <= beam_deg * 0.75 + 1e-9,
            "target {} → beam {} ({} positions)",
            target.degrees(),
            beam.degrees(),
            s.positions()
        );
    }
}

/// Sector partition conserves the population for any angle set.
#[test]
fn partition_conserves() {
    for mut rng in cases("partition") {
        let n = rng.index(200);
        let angles: Vec<Angle> = (0..n)
            .map(|_| Angle::from_degrees(rng.in_range(-58.0, 58.0)))
            .collect();
        let scan = ScanSchedule::new(
            Angle::from_degrees(120.0),
            Angle::from_degrees(20.0),
            Duration::from_millis(1),
        );
        let part = SectorScheduler::partition(scan, &angles);
        assert_eq!(part.sector_counts().iter().sum::<usize>(), angles.len());
    }
}

/// SDM and single-domain read the same population, always fully.
#[test]
fn sdm_reads_everything() {
    for mut rng in cases("sdm").take(60) {
        let n = 1 + rng.index(119);
        let angles: Vec<Angle> = (0..n)
            .map(|_| Angle::from_degrees(rng.in_range(-58.0, 58.0)))
            .collect();
        let scan = ScanSchedule::new(
            Angle::from_degrees(120.0),
            Angle::from_degrees(20.0),
            Duration::from_millis(1),
        );
        let part = SectorScheduler::partition(scan, &angles);
        let sdm = part.inventory_sdm(&mut rng);
        assert_eq!(sdm.tags_read, angles.len());
    }
}

/// Parallel inventory ensembles are bit-identical across thread counts for
/// random populations and ensemble sizes.
#[test]
fn ensembles_are_thread_invariant() {
    for mut rng in cases("ensemble").take(10) {
        let tree = SeedTree::new(rng.next_u64());
        let n = 1 + rng.index(120);
        let reps = 1 + rng.index(10);
        let serial = mmtag_mac::aloha::inventory_ensemble_par_with(
            1,
            n,
            QAlgorithm::new(),
            100_000,
            reps,
            &tree,
        );
        let threads = 2 + rng.index(7);
        let par = mmtag_mac::aloha::inventory_ensemble_par_with(
            threads,
            n,
            QAlgorithm::new(),
            100_000,
            reps,
            &tree,
        );
        assert_eq!(serial, par, "n={n} reps={reps} threads={threads}");
        assert!(serial.iter().all(|s| s.tags_read == n));
    }
}
