//! Timed inventory: wall-clock time to read a tag population.
//!
//! The slot-count statistics of [`crate::aloha`] become *time* once each
//! slot has a duration (set by the uplink data rate and the tag-ID frame
//! length) and the reader pays beam-steering time between sectors. This
//! module runs that full timeline — sector by sector, round by round, on
//! one clock — and is the engine behind the CLI `inventory` command and
//! the warehouse-inventory example.

use crate::aloha::{inventory_until_drained_scratch, AlohaScratch, QAlgorithm};
use crate::scan::ScanSchedule;
use crate::sdm::SectorScheduler;
use mmtag_rf::rng::Rng;
use mmtag_rf::units::{Angle, DataRate};
use mmtag_sim::time::Duration;

/// Timing parameters of one inventory slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlotTiming {
    /// Bits a tag sends per reply (ID + CRC + preamble).
    pub reply_bits: u64,
    /// Uplink data rate in the current sector.
    pub rate: DataRate,
    /// Fixed per-slot overhead (query, settling).
    pub overhead: Duration,
}

impl SlotTiming {
    /// Slot duration: reply airtime + overhead.
    pub fn slot_duration(&self) -> Duration {
        Duration::for_bits(self.reply_bits, self.rate.bps()) + self.overhead
    }
}

/// Result of a timed inventory run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimedInventory {
    /// Total elapsed simulation time: `steer_time` per sector visited plus
    /// one slot duration per Aloha slot.
    pub elapsed: Duration,
    /// Total tags read.
    pub tags_read: usize,
    /// Total Aloha slots consumed.
    pub slots: usize,
    /// Sectors visited (including empty ones — the reader cannot know a
    /// sector is empty until it probes it).
    pub sectors_visited: usize,
}

/// Runs a full SDM inventory: the reader raster-scans its sectors; in each
/// it pays `steer_time` to point the beam, then runs adaptive framed Aloha
/// until the sector drains and steers onward. An empty sector costs one
/// probe round of the minimum frame size (one slot).
pub fn run_timed_inventory<R: Rng + ?Sized>(
    scan: ScanSchedule,
    tag_angles: &[Angle],
    timing: SlotTiming,
    steer_time: Duration,
    rng: &mut R,
) -> TimedInventory {
    let partition = SectorScheduler::partition(scan, tag_angles);
    let mut result = TimedInventory::default();
    let mut scratch = AlohaScratch::new();
    for &in_sector in partition.sector_counts() {
        let drained = inventory_until_drained_scratch(
            in_sector,
            QAlgorithm::new(),
            usize::MAX,
            rng,
            &mut scratch,
        );
        result.sectors_visited += 1;
        result.tags_read += drained.tags_read;
        // An empty sector drains in no rounds but costs its probe slot.
        result.slots += drained.total_slots.max(1);
    }
    result.elapsed = steer_time.times(result.sectors_visited as u64)
        + timing.slot_duration().times(result.slots as u64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_rf::rng::Xoshiro256pp;

    fn scan() -> ScanSchedule {
        ScanSchedule::new(
            Angle::from_degrees(120.0),
            Angle::from_degrees(20.0),
            Duration::from_micros(1),
        )
    }

    fn timing(rate_mbps: f64) -> SlotTiming {
        SlotTiming {
            reply_bits: 128,
            rate: DataRate::from_mbps(rate_mbps),
            overhead: Duration::from_micros(2),
        }
    }

    #[test]
    fn slot_duration_combines_airtime_and_overhead() {
        // 128 bits at 128 Mbps = 1 µs, plus 2 µs overhead.
        let t = timing(128.0);
        assert_eq!(t.slot_duration(), Duration::from_micros(3));
    }

    #[test]
    fn inventory_reads_all_tags_and_takes_time() {
        let mut rng = Xoshiro256pp::seed_from(5);
        let tags: Vec<Angle> = (0..60)
            .map(|i| Angle::from_degrees(-50.0 + i as f64 * 1.7))
            .collect();
        let r = run_timed_inventory(
            scan(),
            &tags,
            timing(100.0),
            Duration::from_micros(10),
            &mut rng,
        );
        assert_eq!(r.tags_read, 60);
        assert_eq!(r.sectors_visited, scan().positions());
        assert!(r.elapsed > Duration::ZERO);
        assert!(r.slots >= 60);
    }

    #[test]
    fn empty_population_costs_only_probes_and_steering() {
        let mut rng = Xoshiro256pp::seed_from(6);
        let r = run_timed_inventory(
            scan(),
            &[],
            timing(100.0),
            Duration::from_micros(10),
            &mut rng,
        );
        assert_eq!(r.tags_read, 0);
        assert_eq!(r.slots, scan().positions()); // one probe per sector
    }

    /// The timeline's accounting, exactly: every sector visited costs one
    /// steer, every slot one slot duration — the last round and the last
    /// empty sector's probe included.
    #[test]
    fn elapsed_is_steering_plus_slots() {
        for (n, rate_mbps, steer_us, seed) in [
            (0usize, 100.0, 10, 1u64),
            (1, 100.0, 10, 2),
            (12, 39.0, 10, 7),
            (60, 1000.0, 0, 3),
            (200, 10.0, 25, 4),
        ] {
            // Clustered on the left half: the sweep ends on empty sectors.
            let tags: Vec<Angle> = (0..n)
                .map(|i| Angle::from_degrees(-58.0 + 50.0 * i as f64 / n.max(1) as f64))
                .collect();
            let t = timing(rate_mbps);
            let steer = Duration::from_micros(steer_us);
            let r =
                run_timed_inventory(scan(), &tags, t, steer, &mut Xoshiro256pp::seed_from(seed));
            assert_eq!(r.tags_read, n);
            assert_eq!(r.sectors_visited, scan().positions());
            assert_eq!(
                r.elapsed,
                steer.times(r.sectors_visited as u64) + t.slot_duration().times(r.slots as u64),
                "n={n} rate={rate_mbps} Mbps steer={steer}"
            );
        }
    }

    #[test]
    fn faster_uplink_finishes_sooner() {
        let tags: Vec<Angle> = (0..80)
            .map(|i| Angle::from_degrees(-55.0 + i as f64 * 1.3))
            .collect();
        let slow = run_timed_inventory(
            scan(),
            &tags,
            timing(10.0),
            Duration::from_micros(10),
            &mut Xoshiro256pp::seed_from(7),
        );
        let fast = run_timed_inventory(
            scan(),
            &tags,
            timing(1000.0),
            Duration::from_micros(10),
            &mut Xoshiro256pp::seed_from(7),
        );
        assert_eq!(slow.tags_read, fast.tags_read);
        assert!(
            fast.elapsed < slow.elapsed,
            "{} !< {}",
            fast.elapsed,
            slow.elapsed
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let tags: Vec<Angle> = (0..30)
            .map(|i| Angle::from_degrees(-40.0 + i as f64 * 2.5))
            .collect();
        let a = run_timed_inventory(
            scan(),
            &tags,
            timing(50.0),
            Duration::from_micros(5),
            &mut Xoshiro256pp::seed_from(42),
        );
        let b = run_timed_inventory(
            scan(),
            &tags,
            timing(50.0),
            Duration::from_micros(5),
            &mut Xoshiro256pp::seed_from(42),
        );
        assert_eq!(a, b);
    }
}
