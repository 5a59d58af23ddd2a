//! Delay spread and coherence bandwidth: when does Gbps OOK need an
//! equalizer?
//!
//! A 2 GHz-wide OOK symbol lasts 1 ns — 30 cm of flight. If a room's wall
//! bounces arrive spread over more than a symbol, they smear into the next
//! one (ISI). The standard summary statistics are the power-weighted RMS
//! delay spread `στ` and the coherence bandwidth `Bc ≈ 1/(5στ)`; a link is
//! equalizer-free while its signal bandwidth stays below `Bc` — which the
//! E23 experiment checks for the paper's operating points.
//!
//! The inputs are the same [`RaySet`]s the link budget uses, so the ISI
//! verdict is consistent with the power verdict by construction.

use crate::multipath::{Ray, RaySet};
use mmtag_rf::constants::SPEED_OF_LIGHT;
use mmtag_rf::units::Bandwidth;

/// A power-delay profile: per-ray (delay seconds, linear power).
#[derive(Clone, Debug, Default)]
pub struct DelayProfile {
    taps: Vec<(f64, f64)>,
}

impl DelayProfile {
    /// Builds the profile from a ray set and a per-ray power evaluation
    /// (dBm or any consistent dB scale).
    pub fn from_rays<F: Fn(&Ray) -> f64>(rays: &RaySet, power_dbm: F) -> Self {
        let taps = rays
            .rays()
            .iter()
            .map(|r| {
                // One-way delay: backscatter pays the path twice, but both
                // directions add identically, so ISI statistics scale by 2.
                let tau = 2.0 * r.length.meters() / SPEED_OF_LIGHT;
                let p = 10f64.powf(power_dbm(r) / 10.0);
                (tau, p)
            })
            .collect();
        DelayProfile { taps }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True when no path exists.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Total power.
    pub fn total_power(&self) -> f64 {
        self.taps.iter().map(|&(_, p)| p).sum()
    }

    /// Power-weighted mean delay, seconds. `None` for an empty profile.
    pub fn mean_delay(&self) -> Option<f64> {
        let total = self.total_power();
        if total <= 0.0 {
            return None;
        }
        Some(self.taps.iter().map(|&(t, p)| t * p).sum::<f64>() / total)
    }

    /// RMS delay spread `στ`, seconds. `None` for an empty profile.
    pub fn rms_delay_spread(&self) -> Option<f64> {
        let total = self.total_power();
        if total <= 0.0 {
            return None;
        }
        let mean = self.mean_delay()?;
        let second: f64 = self.taps.iter().map(|&(t, p)| t * t * p).sum::<f64>() / total;
        Some((second - mean * mean).max(0.0).sqrt())
    }

    /// Coherence bandwidth by the `Bc = 1/(5στ)` rule of thumb (50%
    /// frequency-correlation definition). `None` when there is no spread
    /// (single path: infinite coherence).
    pub fn coherence_bandwidth(&self) -> Option<Bandwidth> {
        let s = self.rms_delay_spread()?;
        if s <= 0.0 {
            return None;
        }
        Some(Bandwidth::from_hz(1.0 / (5.0 * s)))
    }

    /// True if a signal of `bandwidth` fits inside the coherence bandwidth
    /// (flat fading, no equalizer needed). A single-path channel is flat at
    /// any bandwidth.
    pub fn is_flat_for(&self, bandwidth: Bandwidth) -> bool {
        match self.coherence_bandwidth() {
            None => true,
            Some(bc) => bandwidth.hz() <= bc.hz(),
        }
    }

    /// Power of the strongest *echo* relative to the strongest tap, linear
    /// (`None` with fewer than two taps). For a 2-level OOK decision this
    /// is the metric that matters: an echo `x` dB down perturbs the eye by
    /// `√x` in amplitude even when the conservative `Bc` rule already
    /// declares the channel frequency-selective.
    pub fn strongest_echo_ratio(&self) -> Option<f64> {
        if self.taps.len() < 2 {
            return None;
        }
        let mut powers: Vec<f64> = self.taps.iter().map(|&(_, p)| p).collect();
        powers.sort_by(|a, b| b.total_cmp(a));
        (powers[0] > 0.0).then(|| powers[1] / powers[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_rf::units::{Angle, Db, Distance};

    /// A profile built directly from (delay, power) taps.
    fn taps(taps: Vec<(f64, f64)>) -> DelayProfile {
        DelayProfile { taps }
    }

    #[test]
    fn single_path_has_zero_spread() {
        let p = taps(vec![(10e-9, 1.0)]);
        assert_eq!(p.rms_delay_spread().unwrap(), 0.0);
        assert!(p.coherence_bandwidth().is_none());
        assert!(p.is_flat_for(Bandwidth::from_ghz(100.0)));
    }

    #[test]
    fn two_equal_taps_spread_is_half_separation() {
        // στ of two equal-power taps Δτ apart is Δτ/2.
        let p = taps(vec![(0.0, 1.0), (8e-9, 1.0)]);
        assert!((p.rms_delay_spread().unwrap() - 4e-9).abs() < 1e-15);
        assert!((p.mean_delay().unwrap() - 4e-9).abs() < 1e-15);
    }

    #[test]
    fn weak_echo_barely_moves_spread() {
        let strong = taps(vec![(0.0, 1.0), (10e-9, 1.0)]);
        let weak = taps(vec![(0.0, 1.0), (10e-9, 0.01)]);
        assert!(weak.rms_delay_spread().unwrap() < strong.rms_delay_spread().unwrap() / 3.0);
    }

    #[test]
    fn coherence_bandwidth_rule_of_thumb() {
        // στ = 10 ns ⇒ Bc = 20 MHz.
        let p = taps(vec![(0.0, 1.0), (20e-9, 1.0)]);
        let bc = p.coherence_bandwidth().unwrap();
        assert!((bc.mhz() - 20.0).abs() < 1e-6, "Bc = {bc}");
        assert!(p.is_flat_for(Bandwidth::from_mhz(20.0)));
        assert!(!p.is_flat_for(Bandwidth::from_mhz(21.0)));
    }

    #[test]
    fn profile_from_rays_respects_power_weighting() {
        // LOS at 4 ft plus a 7 dB-loss bounce twice as long: the bounce's
        // weight must follow the evaluation function.
        let rays = RaySet::from_rays(vec![
            Ray::los(Distance::from_feet(4.0), Angle::ZERO, Angle::ZERO),
            Ray {
                length: Distance::from_feet(8.0),
                reflection_loss: Db::new(7.0),
                aod_reader: Angle::ZERO,
                aoa_tag: Angle::ZERO,
                bounces: 1,
            },
        ]);
        let eval = |r: &Ray| -40.0 * r.length.meters().log10() - 2.0 * r.reflection_loss.db();
        let p = DelayProfile::from_rays(&rays, eval);
        assert_eq!(p.len(), 2);
        let s = p.rms_delay_spread().unwrap();
        assert!(s > 0.0);
        // Round-trip extra delay of the bounce: 2·4 ft ≈ 2.44 m ⇒ 8.1 ns;
        // the weighted spread must be well under half of that (echo ≫
        // weaker: −12 dB spreading − 14 dB reflections).
        assert!(s < 4.0e-9, "στ = {s}");
    }

    #[test]
    fn paper_los_geometry_isi_verdict() {
        // The E23 finding in unit form. Fig. 7's LOS geometry (tag at 4 ft,
        // one wall bounce at 7 ft, 14 dB round-trip reflection loss):
        // the conservative Bc = 1/(5στ) rule lands near 0.5 GHz — *below*
        // the 2 GHz channel — yet the echo is ~24 dB under the LOS tap, so
        // OOK's 2-level eye barely moves (≈ 6% amplitude). Beam
        // directionality (not modeled here: the horn's pattern further
        // suppresses off-axis bounces) only helps. Verdict: no equalizer,
        // but the margin comes from echo weakness, not delay shortness.
        let rays = RaySet::from_rays(vec![
            Ray::los(Distance::from_feet(4.0), Angle::ZERO, Angle::ZERO),
            Ray {
                length: Distance::from_feet(7.0),
                reflection_loss: Db::new(7.0),
                aod_reader: Angle::ZERO,
                aoa_tag: Angle::ZERO,
                bounces: 1,
            },
        ]);
        let eval = |r: &Ray| -40.0 * r.length.meters().log10() - 2.0 * r.reflection_loss.db();
        let p = DelayProfile::from_rays(&rays, eval);
        let bc = p.coherence_bandwidth().unwrap();
        assert!(
            (0.2e9..1.0e9).contains(&bc.hz()),
            "conservative Bc = {bc} (expected ~0.5 GHz)"
        );
        let echo = p.strongest_echo_ratio().unwrap();
        assert!(
            10.0 * echo.log10() < -20.0,
            "echo at {} dB must be OOK-benign",
            10.0 * echo.log10()
        );
    }
}
