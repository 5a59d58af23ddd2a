//! Beam-acquisition latency: one-sided vs two-sided search.
//!
//! §5 of the paper: conventional mmWave links need *both* endpoints to
//! search for the aligned beam pair; mmTag removes the tag side entirely —
//! the tag is always aligned, so the reader's sweep alone finds it. This
//! module simulates both procedures on the event scheduler and measures
//! time-to-acquisition, including re-acquisition of a tag that moves to a
//! new bearing mid-search (the §2.2 "when a node moves … it needs to search
//! again" cost).

use crate::scan::ScanSchedule;
use mmtag_rf::units::Angle;
use mmtag_sim::des::CalendarQueue;
use mmtag_sim::time::{Duration, Instant};

/// Which endpoints must search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// Only the reader sweeps; the tag is retrodirective (mmTag).
    OneSided,
    /// Reader and node sweep the product space (conventional mmWave pair).
    /// The node's schedule is the second field of the probe space.
    TwoSided {
        /// Number of beam positions the far node must try.
        node_positions: usize,
    },
}

/// Result of an acquisition run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Acquisition {
    /// Time until the link was found.
    pub latency: Duration,
    /// Probes (dwell slots) spent.
    pub probes: usize,
}

/// Event type for the acquisition scan.
#[derive(Clone, Copy, Debug)]
struct Probe {
    reader_pos: usize,
    node_pos: usize,
}

/// Simulates an acquisition: the reader sweeps `scan`'s positions (and the
/// far node its own, in [`SearchMode::TwoSided`]); a probe succeeds when
/// the reader's beam covers the tag bearing (and, two-sided, the node's
/// chosen position equals its aligned one, taken to be the last index
/// probed — worst case). `tag_bearing` is the tag's true direction.
///
/// Returns `None` if the tag is outside the scanned sector entirely.
pub fn acquire(scan: &ScanSchedule, mode: SearchMode, tag_bearing: Angle) -> Option<Acquisition> {
    let half_sector = 0.5 * scan.sector.radians();
    if tag_bearing.normalized().radians().abs() > half_sector + 0.5 * scan.beamwidth.radians() {
        return None;
    }
    let aligned_reader = scan.position_for(tag_bearing);
    let reader_n = scan.positions();

    let (node_n, aligned_node) = match mode {
        SearchMode::OneSided => (1usize, 0usize),
        // Worst case: the node's correct position is the last it tries.
        SearchMode::TwoSided { node_positions } => (node_positions, node_positions - 1),
    };

    // Probes sit one dwell apart, so one bucket per dwell (at least 1 ns:
    // a zero-dwell schedule is valid and stacks every probe at t = 0). The
    // ring regrows past four entries per bucket, so it is sized for the
    // whole burst of probes up front: with a fixed 64-bucket start, the
    // regrowth allocations made E19 ~10% slower than a binary heap.
    let mut sched: CalendarQueue<Probe> = CalendarQueue::with_layout(
        scan.dwell.max(Duration::from_nanos(1)),
        (node_n * reader_n).div_ceil(4).max(1),
    );
    // Exhaustive probe order: for each node position, sweep the reader.
    let mut t = Instant::ZERO;
    for np in 0..node_n {
        for rp in 0..reader_n {
            sched.schedule_at(
                t,
                Probe {
                    reader_pos: rp,
                    node_pos: np,
                },
            );
            t += scan.dwell;
        }
    }

    let mut probes = 0usize;
    while let Some((at, probe)) = sched.pop() {
        probes += 1;
        if probe.reader_pos == aligned_reader && probe.node_pos == aligned_node {
            return Some(Acquisition {
                latency: at.duration_since(Instant::ZERO) + scan.dwell,
                probes,
            });
        }
    }
    None
}

/// Worst-case acquisition latency over every bearing in the sector.
pub fn worst_case_latency(scan: &ScanSchedule, mode: SearchMode) -> Duration {
    let n = scan.positions();
    let mut worst = Duration::ZERO;
    for i in 0..n {
        let bearing = scan.angle_of(i);
        if let Some(a) = acquire(scan, mode, bearing) {
            worst = worst.max(a.latency);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan() -> ScanSchedule {
        ScanSchedule::new(
            Angle::from_degrees(120.0),
            Angle::from_degrees(20.0),
            Duration::from_millis(1),
        )
    }

    #[test]
    fn one_sided_worst_case_is_one_sweep() {
        let s = scan();
        let worst = worst_case_latency(&s, SearchMode::OneSided);
        assert_eq!(worst, s.sweep_time());
    }

    #[test]
    fn two_sided_worst_case_is_the_product() {
        let s = scan();
        let worst = worst_case_latency(&s, SearchMode::TwoSided { node_positions: 12 });
        assert_eq!(worst, s.two_sided_sweep_time(&s));
        // 12× the one-sided cost: the paper's quadratic-vs-linear argument.
        let one = worst_case_latency(&s, SearchMode::OneSided);
        assert_eq!(worst.as_nanos(), 12 * one.as_nanos());
    }

    #[test]
    fn acquisition_latency_depends_on_bearing() {
        let s = scan();
        let near_start = acquire(&s, SearchMode::OneSided, s.angle_of(0)).unwrap();
        let near_end = acquire(&s, SearchMode::OneSided, s.angle_of(11)).unwrap();
        assert!(near_start.latency < near_end.latency);
        assert_eq!(near_start.probes, 1);
        assert_eq!(near_end.probes, 12);
    }

    #[test]
    fn out_of_sector_tag_is_never_found() {
        let s = scan();
        assert!(acquire(&s, SearchMode::OneSided, Angle::from_degrees(90.0)).is_none());
    }

    #[test]
    fn latency_equals_probe_count_times_dwell() {
        let s = scan();
        for i in [0usize, 3, 7, 11] {
            let a = acquire(&s, SearchMode::OneSided, s.angle_of(i)).unwrap();
            assert_eq!(a.latency.as_nanos(), a.probes as u64 * 1_000_000);
        }
    }
}
