//! Beam-acquisition latency: one-sided vs two-sided search.
//!
//! §5 of the paper: conventional mmWave links need *both* endpoints to
//! search for the aligned beam pair; mmTag removes the tag side entirely —
//! the tag is always aligned, so the reader's sweep alone finds it. This
//! module prices both procedures as time-to-acquisition.
//!
//! The search is an exhaustive probe order — for each node position, the
//! reader's full sweep — with probes one dwell apart. The probe that finds
//! the tag is therefore number `aligned_node · reader_positions +
//! aligned_reader + 1`, and the latency is that number of dwells, exact in
//! integer nanoseconds; this module's tests hold the closed form to a walk
//! over every probe.

use crate::scan::ScanSchedule;
use mmtag_rf::units::Angle;
use mmtag_sim::time::Duration;

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

/// The acquisition of a tag at `tag_bearing`: the reader sweeps `scan`'s
/// positions (and, in [`SearchMode::TwoSided`], the far node its own, one
/// reader sweep per node position); a probe succeeds when the reader's
/// beam covers the tag bearing (and, two-sided, the node's position equals
/// its aligned one, taken to be the last it tries — worst case).
///
/// Returns `None` if the tag is outside the scanned sector entirely, or
/// when a two-sided node has no positions to try.
pub fn acquire(scan: &ScanSchedule, mode: SearchMode, tag_bearing: Angle) -> Option<Acquisition> {
    let half_sector = 0.5 * scan.sector.radians();
    if tag_bearing.normalized().radians().abs() > half_sector + 0.5 * scan.beamwidth.radians() {
        return None;
    }
    let aligned_node = match mode {
        SearchMode::OneSided => 0,
        SearchMode::TwoSided { node_positions } => node_positions.checked_sub(1)?,
    };
    let probes = aligned_node * scan.positions() + scan.position_for(tag_bearing) + 1;
    Some(Acquisition {
        latency: scan.dwell.times(probes as u64),
        probes,
    })
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

    /// The closed form's oracle: walk the probes in search order — for
    /// each node position, the reader's full sweep — one dwell apart, and
    /// stop at the first that covers both aligned positions (two-sided:
    /// the node's last position).
    fn probe_walk(
        scan: &ScanSchedule,
        mode: SearchMode,
        tag_bearing: Angle,
    ) -> Option<Acquisition> {
        let reach = 0.5 * (scan.sector.radians() + scan.beamwidth.radians());
        if tag_bearing.normalized().radians().abs() > reach {
            return None;
        }
        let node_n = match mode {
            SearchMode::OneSided => 1,
            SearchMode::TwoSided { node_positions } => node_positions,
        };
        let aligned_reader = scan.position_for(tag_bearing);
        let mut latency = Duration::ZERO;
        let mut probes = 0;
        for node in 0..node_n {
            for reader in 0..scan.positions() {
                latency = latency + scan.dwell;
                probes += 1;
                if reader == aligned_reader && node == node_n - 1 {
                    return Some(Acquisition { latency, probes });
                }
            }
        }
        None
    }

    #[test]
    fn acquire_matches_the_probe_walk_at_every_bearing() {
        let modes = [
            SearchMode::OneSided,
            SearchMode::TwoSided { node_positions: 0 },
            SearchMode::TwoSided { node_positions: 1 },
            SearchMode::TwoSided { node_positions: 3 },
            SearchMode::TwoSided { node_positions: 12 },
        ];
        let mut found = 0usize;
        let mut missed = 0usize;
        for (sector, beamwidth) in [(120.0, 5.0), (120.0, 20.0), (90.0, 45.0), (10.0, 40.0)] {
            for dwell in [
                Duration::from_millis(1),
                Duration::from_nanos(3),
                Duration::ZERO,
            ] {
                let s = ScanSchedule::new(
                    Angle::from_degrees(sector),
                    Angle::from_degrees(beamwidth),
                    dwell,
                );
                let centres = (0..s.positions()).map(|i| s.angle_of(i));
                let sweep = (-400..=400).map(|d| Angle::from_degrees(d as f64 * 0.25));
                for bearing in centres.chain(sweep) {
                    for mode in modes {
                        let want = probe_walk(&s, mode, bearing);
                        assert_eq!(
                            acquire(&s, mode, bearing),
                            want,
                            "sector {sector}°, beam {beamwidth}°, dwell {dwell}, {mode:?}, \
                             bearing {}°",
                            bearing.degrees()
                        );
                        if want.is_some() {
                            found += 1;
                        } else {
                            missed += 1;
                        }
                    }
                }
            }
        }
        assert!(found > 0 && missed > 0, "found {found}, missed {missed}");
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
