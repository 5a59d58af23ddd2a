//! Reader beam-scan schedules.
//!
//! §4: "the reader … steers these beams together while transmitting a query
//! signal." Because the mmTag tag is retrodirective, only the *reader* side
//! ever searches — a one-sided scan instead of the quadratic two-sided
//! search a conventional mmWave pair needs (§5). This module prices both.

use mmtag_rf::units::Angle;
use mmtag_sim::time::Duration;

/// An exhaustive raster scan of a sector with a given beamwidth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScanSchedule {
    /// Total sector to cover (centered on boresight).
    pub sector: Angle,
    /// Reader half-power beamwidth.
    pub beamwidth: Angle,
    /// Dwell time per beam position (query + response window).
    pub dwell: Duration,
}

impl ScanSchedule {
    /// A schedule over `sector` with `beamwidth` beams and `dwell` per
    /// position.
    ///
    /// # Panics
    /// Panics on non-positive sector or beamwidth.
    pub fn new(sector: Angle, beamwidth: Angle, dwell: Duration) -> Self {
        assert!(sector.radians() > 0.0, "sector must be positive");
        assert!(beamwidth.radians() > 0.0, "beamwidth must be positive");
        ScanSchedule {
            sector,
            beamwidth,
            dwell,
        }
    }

    /// Number of beam positions (half-beamwidth stepping for overlap, so no
    /// tag falls between −3 dB edges).
    pub fn positions(&self) -> usize {
        let step = 0.5 * self.beamwidth.radians();
        (self.sector.radians() / step).ceil().max(1.0) as usize
    }

    /// The center angle of position `idx`, spanning the sector.
    pub fn angle_of(&self, idx: usize) -> Angle {
        let n = self.positions();
        assert!(idx < n, "beam position out of range");
        let half = 0.5 * self.sector.radians();
        if n == 1 {
            return Angle::ZERO;
        }
        let frac = idx as f64 / (n - 1) as f64;
        Angle::from_radians(-half + frac * self.sector.radians())
    }

    /// The position index whose beam center is nearest to `target`.
    pub fn position_for(&self, target: Angle) -> usize {
        let n = self.positions();
        (0..n)
            .min_by(|&a, &b| {
                let da = self.angle_of(a).separation(target).radians();
                let db = self.angle_of(b).separation(target).radians();
                da.total_cmp(&db)
            })
            .expect("positions() >= 1")
    }

    /// Time for one full sweep. A test reference: the scenarios read
    /// acquisition latency from [`crate::acquisition`]; its tests and this
    /// module's check it against this closed form.
    pub fn sweep_time(&self) -> Duration {
        self.dwell.times(self.positions() as u64)
    }

    /// Cost of a *two-sided* search (both endpoints have to scan, the
    /// conventional mmWave situation the paper contrasts against): the
    /// product of both nodes' positions, times the dwell. A test reference,
    /// like [`ScanSchedule::sweep_time`].
    pub fn two_sided_sweep_time(&self, other: &ScanSchedule) -> Duration {
        self.dwell
            .times((self.positions() * other.positions()) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> ScanSchedule {
        // The paper's reader: 20 dBi horn ⇒ ~20° beam; 120° sector; 1 ms
        // dwell.
        ScanSchedule::new(
            Angle::from_degrees(120.0),
            Angle::from_degrees(20.0),
            Duration::from_millis(1),
        )
    }

    #[test]
    fn position_count_covers_sector_with_overlap() {
        // 120° at 10° steps ⇒ 12 positions.
        assert_eq!(sched().positions(), 12);
    }

    #[test]
    fn angles_span_sector_symmetrically() {
        let s = sched();
        let first = s.angle_of(0);
        let last = s.angle_of(s.positions() - 1);
        assert!((first.degrees() + 60.0).abs() < 1e-9);
        assert!((last.degrees() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn position_for_finds_nearest_beam() {
        let s = sched();
        let idx = s.position_for(Angle::from_degrees(33.0));
        let beam = s.angle_of(idx);
        assert!(beam.separation(Angle::from_degrees(33.0)).degrees() <= 5.5);
    }

    #[test]
    fn sweep_time_scales_with_positions() {
        let s = sched();
        assert_eq!(s.sweep_time(), Duration::from_millis(12));
    }

    #[test]
    fn one_sided_beats_two_sided_search() {
        // The retrodirective tag removes one factor of N: 12 positions vs
        // 12 × 12 for a conventional pair.
        let s = sched();
        let one = s.sweep_time();
        let two = s.two_sided_sweep_time(&s);
        assert_eq!(two, Duration::from_millis(144));
        assert!(two.as_nanos() / one.as_nanos() == 12);
    }

    #[test]
    fn narrow_beam_costs_more_positions() {
        let wide = sched();
        let narrow = ScanSchedule::new(
            Angle::from_degrees(120.0),
            Angle::from_degrees(5.0),
            Duration::from_millis(1),
        );
        assert!(narrow.positions() > wide.positions());
    }

    #[test]
    fn single_position_degenerate_sector() {
        let s = ScanSchedule::new(
            Angle::from_degrees(4.0),
            Angle::from_degrees(20.0),
            Duration::from_millis(1),
        );
        assert_eq!(s.positions(), 1);
        assert_eq!(s.angle_of(0).degrees(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_position_index_is_a_bug() {
        let s = sched();
        let _ = s.angle_of(99);
    }
}
