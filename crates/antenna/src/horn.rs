//! The reader's directional horn antennas.
//!
//! §7: "For the mmWave reader, we use a signal generator and a spectrum
//! analyzer, and connect them to directional antennas." Lab setups at 24 GHz
//! use standard-gain horns; we model one with the usual Gaussian main-beam
//! approximation plus a sidelobe floor, and derive beamwidth from gain via
//! the Kraus aperture relation `G ≈ 41253 / (θ_E·θ_H)` (degrees²).

use mmtag_rf::units::{Angle, Dbi};

/// A directional horn with Gaussian main lobe and constant sidelobe floor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HornAntenna {
    /// Boresight gain.
    pub gain: Dbi,
    /// Sidelobe floor relative to the peak (linear power, ≤ 1).
    pub sidelobe_floor: f64,
}

impl HornAntenna {
    /// A typical 20 dBi standard-gain horn (WR-42 band), −25 dB sidelobes —
    /// the class of antenna a 24 GHz lab reader uses.
    pub fn standard_gain_20dbi() -> Self {
        HornAntenna {
            gain: Dbi::new(20.0),
            sidelobe_floor: 10f64.powf(-25.0 / 10.0),
        }
    }

    /// Half-power beamwidth implied by the gain, assuming a symmetric beam:
    /// `θ = √(41253 / G_lin)` degrees.
    pub fn half_power_beamwidth(&self) -> Angle {
        Angle::from_degrees((41253.0 / self.gain.linear()).sqrt())
    }

    /// Linear power gain toward an angle `off` boresight: Gaussian main lobe
    /// `G·exp(−4·ln2·(off/HPBW)²)` floored at the sidelobe level.
    pub fn pattern_gain(&self, off: Angle) -> f64 {
        let hpbw = self.half_power_beamwidth().radians();
        let x = off.normalized().radians() / hpbw;
        let main = self.gain.linear() * (-4.0 * std::f64::consts::LN_2 * x * x).exp();
        main.max(self.gain.linear() * self.sidelobe_floor)
    }
}

impl Default for HornAntenna {
    fn default() -> Self {
        Self::standard_gain_20dbi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beamwidth_from_gain_matches_kraus() {
        let h = HornAntenna::standard_gain_20dbi();
        // G = 100 ⇒ θ = √412.53 ≈ 20.3°.
        let bw = h.half_power_beamwidth();
        assert!((bw.degrees() - 20.31).abs() < 0.1, "HPBW = {bw}");
    }

    #[test]
    fn pattern_peaks_at_boresight_and_halves_at_half_beamwidth() {
        let h = HornAntenna::standard_gain_20dbi();
        assert!((h.pattern_gain(Angle::ZERO) - 100.0).abs() < 1e-9);
        let half = h.half_power_beamwidth() * 0.5;
        let g = h.pattern_gain(half);
        assert!((g - 50.0).abs() < 0.5, "gain at HPBW/2 = {g}");
    }

    #[test]
    fn sidelobe_floor_holds_far_out() {
        let h = HornAntenna::standard_gain_20dbi();
        let g = h.pattern_gain(Angle::from_degrees(90.0));
        assert!((10.0 * (g / 100.0).log10() + 25.0).abs() < 0.1);
    }

    #[test]
    fn higher_gain_means_narrower_beam() {
        let horn = |db| HornAntenna {
            gain: Dbi::new(db),
            ..HornAntenna::standard_gain_20dbi()
        };
        let (lo, hi) = (horn(15.0), horn(25.0));
        assert!(hi.half_power_beamwidth().degrees() < lo.half_power_beamwidth().degrees());
    }
}
