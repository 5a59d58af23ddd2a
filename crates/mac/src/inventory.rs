//! Discrete-event inventory: wall-clock time to read a tag population.
//!
//! The slot-count statistics of [`crate::aloha`] become *time* once each
//! slot has a duration (set by the uplink data rate and the tag-ID frame
//! length) and the reader pays beam-steering time between sectors. This
//! module runs that full timeline on the `mmtag-sim` scheduler and is the
//! engine behind the warehouse-inventory example and experiment E7.

use crate::aloha::{AlohaScratch, FramedAloha, QAlgorithm};
use crate::scan::ScanSchedule;
use crate::sdm::SectorScheduler;
use mmtag_rf::rng::Rng;
use mmtag_rf::units::{Angle, DataRate};
use mmtag_sim::des::CalendarQueue;
use mmtag_sim::time::{Duration, Instant};

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

/// Events of the inventory state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// Steer to sector `idx` and start its inventory.
    EnterSector(usize),
    /// Run one Aloha round in sector `idx`.
    Round(usize),
}

/// Result of a timed inventory run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimedInventory {
    /// Total elapsed simulation time.
    pub elapsed: Duration,
    /// Total tags read.
    pub tags_read: usize,
    /// Total Aloha slots consumed.
    pub slots: usize,
    /// Sectors visited (including empty ones — the reader cannot know a
    /// sector is empty until it probes it).
    pub sectors_visited: usize,
}

/// Runs a full SDM inventory on the event scheduler: the reader raster-scans
/// its sectors; in each occupied sector it runs adaptive framed Aloha until
/// the sector drains, then steers onward. `steer_time` is the beam switch
/// cost between positions; an empty sector costs one probe round of the
/// minimum frame size.
pub fn run_timed_inventory<R: Rng + ?Sized>(
    scan: ScanSchedule,
    tag_angles: &[Angle],
    timing: SlotTiming,
    steer_time: Duration,
    rng: &mut R,
) -> TimedInventory {
    let partition = SectorScheduler::partition(scan, tag_angles);
    let mut unread: Vec<usize> = partition.sector_counts().to_vec();
    let mut qs: Vec<QAlgorithm> = vec![QAlgorithm::new(); unread.len()];
    let slot = timing.slot_duration();

    // Events land whole slots apart, so one bucket per slot (at least
    // 1 ns: a zero-length slot is a valid timing).
    let mut sched: CalendarQueue<Event> =
        CalendarQueue::with_layout(slot.max(Duration::from_nanos(1)), 64);
    let mut result = TimedInventory::default();
    let mut scratch = AlohaScratch::new();
    sched.schedule_at(Instant::ZERO, Event::EnterSector(0));

    while let Some((_, ev)) = sched.pop() {
        match ev {
            Event::EnterSector(idx) => {
                if idx >= unread.len() {
                    continue; // sweep complete
                }
                result.sectors_visited += 1;
                sched.schedule_in(steer_time, Event::Round(idx));
            }
            Event::Round(idx) => {
                if unread[idx] == 0 {
                    // One probe round of the minimum frame to discover
                    // emptiness, then move on.
                    result.slots += 1;
                    sched.schedule_in(slot, Event::EnterSector(idx + 1));
                    continue;
                }
                let frame = qs[idx].frame_size();
                // Counts kernel: one slot draw per unread tag, only the
                // histogram materialized — the event loop stays
                // allocation-free in steady state.
                let counts = FramedAloha.run_round_counts(unread[idx], frame, rng, &mut scratch);
                unread[idx] -= counts.successes;
                result.tags_read += counts.successes;
                result.slots += frame;
                qs[idx].update_counts(&counts);
                let round_time = slot.times(frame as u64);
                if unread[idx] == 0 {
                    sched.schedule_in(round_time, Event::EnterSector(idx + 1));
                } else {
                    sched.schedule_in(round_time, Event::Round(idx));
                }
            }
        }
        result.elapsed = sched.now().duration_since(Instant::ZERO);
    }
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
