//! The mmWave reader: TX/RX chains, beam steering and self-interference.
//!
//! §7: "For the mmWave reader, we use a signal generator and a spectrum
//! analyzer, and connect them to directional antennas to transmit and
//! receive 24 GHz signal. The reader's peak transmission power is set to
//! 20 milliwatt." [`Reader`] bundles that testbed — the calibrated
//! [`BackscatterLink`] budget, the NF = 5 dB [`NoiseModel`], the horn
//! pattern, the rate-adaptation ladder and a beam-scan schedule — plus the
//! self-interference budget §9 raises as future work.

use mmtag_antenna::HornAntenna;
use mmtag_channel::{BackscatterLink, NoiseModel};
use mmtag_mac::ScanSchedule;
use mmtag_phy::RateAdaptation;
use mmtag_rf::units::{Angle, Bandwidth, Db, Dbm};
use mmtag_sim::time::Duration;

/// The reader's self-interference situation: its own transmit carrier leaks
/// into its receiver while it listens for the (much weaker) tag reflection.
///
/// §9: "the mmTag's reader needs to extract the reflected signal from its
/// own transmitted signal… exploring other approaches such as exploiting
/// the directionality property of mmWave to solve the self interference
/// problem is an interesting research direction." We model the two passive
/// isolation mechanisms the paper hints at (separate horns + directivity)
/// and an active cancellation stage, and compute what the sum must reach.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelfInterference {
    /// Passive TX→RX antenna isolation (separate horns, sidelobe-to-sidelobe
    /// coupling): positive dB.
    pub antenna_isolation: Db,
    /// Active analog/digital cancellation on top: positive dB.
    pub cancellation: Db,
}

impl SelfInterference {
    /// A plausible lab setup: two horns side by side give ~40 dB passive
    /// isolation at 24 GHz; no active canceller.
    pub fn passive_only() -> Self {
        SelfInterference {
            antenna_isolation: Db::new(40.0),
            cancellation: Db::ZERO,
        }
    }

    /// Total TX→RX suppression.
    pub fn total_isolation(&self) -> Db {
        self.antenna_isolation + self.cancellation
    }
}

/// The complete reader.
#[derive(Clone, Debug)]
pub struct Reader {
    link: BackscatterLink,
    noise: NoiseModel,
    horn: HornAntenna,
    adaptation: RateAdaptation,
    scan: ScanSchedule,
    si: SelfInterference,
}

impl Reader {
    /// The paper's testbed: calibrated link budget, NF = 5 dB, 20 dBi horns
    /// (~20° beams), the Fig. 7 bandwidth ladder, a 120° scan sector with
    /// 1 ms dwell, and passive-only self-interference isolation.
    pub fn mmtag_setup() -> Self {
        let horn = HornAntenna::standard_gain_20dbi();
        Reader {
            link: BackscatterLink::mmtag_setup(),
            noise: NoiseModel::mmtag_reader(),
            horn,
            adaptation: RateAdaptation::paper_ladder(),
            scan: ScanSchedule::new(
                Angle::from_degrees(120.0),
                horn.half_power_beamwidth(),
                Duration::from_millis(1),
            ),
            si: SelfInterference::passive_only(),
        }
    }

    /// The link budget.
    pub fn link(&self) -> &BackscatterLink {
        &self.link
    }

    /// Replaces the link budget (e.g. for a 60 GHz retune).
    pub fn with_link(mut self, link: BackscatterLink) -> Self {
        self.link = link;
        self
    }

    /// The noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The rate-adaptation ladder.
    pub fn adaptation(&self) -> &RateAdaptation {
        &self.adaptation
    }

    /// The horn antenna model.
    pub fn horn(&self) -> &HornAntenna {
        &self.horn
    }

    /// The beam-scan schedule.
    pub fn scan(&self) -> &ScanSchedule {
        &self.scan
    }

    /// The self-interference configuration.
    pub fn self_interference(&self) -> SelfInterference {
        self.si
    }

    /// Sets the self-interference configuration.
    pub fn with_self_interference(mut self, si: SelfInterference) -> Self {
        self.si = si;
        self
    }

    /// Pointing loss when the beam center misses the target by `off`:
    /// the horn pattern relative to its peak (≥ 0 dB of loss).
    pub fn pointing_loss(&self, off: Angle) -> Db {
        let peak = self.horn.gain.linear();
        let actual = self.horn.pattern_gain(off);
        Db::from_linear(peak / actual)
    }

    /// Residual self-interference power at the receiver input.
    pub fn residual_si(&self) -> Dbm {
        self.link.tx_power - self.si.total_isolation()
    }

    /// Effective interference-plus-noise floor over `bandwidth`: the noise
    /// floor plus the residual TX leakage, summed in linear power. (The
    /// leakage is an unmodulated carrier; treating it as wideband
    /// interference is conservative.)
    pub fn effective_floor(&self, bandwidth: Bandwidth) -> Dbm {
        let n = self.noise.floor(bandwidth).mw();
        let i = self.residual_si().mw();
        Dbm::from_mw(n + i)
    }

    /// The total TX→RX isolation needed so that residual SI sits at or
    /// below the thermal noise floor for `bandwidth` (the "SI-free" design
    /// point used by experiment E9).
    pub fn required_isolation(&self, bandwidth: Bandwidth) -> Db {
        self.link.tx_power - self.noise.floor(bandwidth)
    }
}

impl Default for Reader {
    fn default() -> Self {
        Self::mmtag_setup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SI degradation at `bandwidth`: how far the effective floor sits
    /// above the thermal floor.
    fn si_degradation(r: &Reader, bandwidth: Bandwidth) -> Db {
        r.effective_floor(bandwidth) - r.noise.floor(bandwidth)
    }

    #[test]
    fn setup_matches_paper() {
        let r = Reader::mmtag_setup();
        assert!((r.link().tx_power.mw() - 20.0).abs() < 1e-9);
        assert!((r.noise().noise_figure.db() - 5.0).abs() < 1e-12);
        assert!((r.horn().gain.dbi() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn pointing_loss_zero_on_boresight_grows_off_axis() {
        let r = Reader::mmtag_setup();
        assert!(r.pointing_loss(Angle::ZERO).db().abs() < 1e-9);
        let half_beam = r.horn().half_power_beamwidth() * 0.5;
        let l = r.pointing_loss(half_beam);
        assert!((l.db() - 3.0).abs() < 0.1, "half-beam loss {l}");
        assert!(r.pointing_loss(Angle::from_degrees(40.0)).db() > 10.0);
    }

    #[test]
    fn residual_si_with_passive_only_dominates_wide_floor() {
        // 13 dBm − 40 dB = −27 dBm residual: 49 dB above the 2 GHz thermal
        // floor (−75.8 dBm). This is §9's point: passive isolation alone is
        // nowhere near enough.
        let r = Reader::mmtag_setup();
        assert!((r.residual_si().dbm() + 27.0).abs() < 0.1);
        let deg = si_degradation(&r, Bandwidth::from_ghz(2.0));
        assert!(deg.db() > 45.0, "degradation {deg}");
    }

    #[test]
    fn required_isolation_for_thermal_floor() {
        // 13 dBm − (−75.8 dBm) ≈ 89 dB at 2 GHz; 10 dB more per decade of
        // narrower bandwidth.
        let r = Reader::mmtag_setup();
        let need2g = r.required_isolation(Bandwidth::from_ghz(2.0));
        assert!((need2g.db() - 88.8).abs() < 0.3, "need {need2g}");
        let need20m = r.required_isolation(Bandwidth::from_mhz(20.0));
        assert!((need20m.db() - 108.8).abs() < 0.3, "need {need20m}");
    }

    #[test]
    fn cancellation_restores_the_floor() {
        let r = Reader::mmtag_setup().with_self_interference(SelfInterference {
            antenna_isolation: Db::new(40.0),
            cancellation: Db::new(60.0),
        });
        let deg = si_degradation(&r, Bandwidth::from_ghz(2.0));
        // 100 dB total: residual −87 dBm, 11 dB under the floor ⇒ < 0.4 dB.
        assert!(deg.db() < 0.5, "degradation {deg}");
    }

    #[test]
    fn effective_floor_is_never_below_thermal() {
        let r = Reader::mmtag_setup();
        for bw in [
            Bandwidth::from_mhz(20.0),
            Bandwidth::from_mhz(200.0),
            Bandwidth::from_ghz(2.0),
        ] {
            assert!(r.effective_floor(bw) >= r.noise().floor(bw));
        }
    }

    #[test]
    fn scan_covers_sector_with_horn_beam() {
        let r = Reader::mmtag_setup();
        // 120° sector with ~20.3° beams at half-beam steps ⇒ 12 positions.
        assert_eq!(r.scan().positions(), 12);
    }
}
