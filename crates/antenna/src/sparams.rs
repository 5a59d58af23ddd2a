//! One-port S-parameter model of a tag antenna element — reproduces Fig. 6.
//!
//! The paper validates the modulation mechanism in HFSS by plotting the S11
//! of a single element in the two switch states (Fig. 6): with the switch
//! **off** the element is tuned (S11 ≈ −15 dB at 24 GHz, "the antenna works
//! properly"); with the switch **on** the element is shorted to ground and
//! detuned (S11 ≈ −5 dB, "the antenna does not work").
//!
//! We replace the full-wave solver with the standard circuit abstraction: a
//! patch near resonance is a parallel RLC resonator
//! `Z(f) = R / (1 + jQ·(f/f₀ − f₀/f))`, and the conducting switch puts
//! `R_on + jωL` in parallel with it. Reflection follows from
//! `Γ = (Z − Z₀)/(Z + Z₀)`. The parameters below are calibrated so the model
//! lands on the paper's two anchor values and keeps the element matched
//! (S11 ≤ −10 dB) across the 24 GHz ISM band, as §7 claims.

use crate::switch::RfSwitch;
use mmtag_rf::constants::Z0_OHMS;
use mmtag_rf::units::{Bandwidth, Frequency};
use mmtag_rf::Complex;

/// RF switch state, named from the *switch's* perspective as in the paper:
/// `Off` = switch not conducting = antenna tuned = tag reflective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwitchState {
    /// Switch open: antenna resonates normally (reflective tag state, bit 0).
    Off,
    /// Switch conducting: antenna shorted to ground (absorbing state, bit 1).
    On,
}

/// One-port model of a patch element with its modulating switch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElementPort {
    /// Resonant frequency of the tuned patch.
    pub resonant_freq: Frequency,
    /// Input resistance at resonance, ohms. Slightly off 50 Ω on purpose:
    /// the paper's fabricated element shows −15 dB, not a perfect match.
    pub resistance_ohms: f64,
    /// Loaded quality factor of the patch resonance.
    pub quality_factor: f64,
    /// The modulating switch.
    pub switch: RfSwitch,
}

impl ElementPort {
    /// The calibrated mmTag element: resonant at 24.0 GHz, R and Q chosen so
    /// that S11(24 GHz, off) ≈ −15 dB and the −10 dB bandwidth covers the
    /// 24.0–24.25 GHz ISM band, matching Fig. 6 and §7.
    pub fn mmtag_default() -> Self {
        ElementPort {
            resonant_freq: Frequency::from_ghz(24.0),
            resistance_ohms: 71.6,
            quality_factor: 30.0,
            switch: RfSwitch::ce3520k3(),
        }
    }

    /// Input impedance of the tuned patch alone at `f` (parallel RLC).
    pub fn patch_impedance(&self, f: Frequency) -> Complex {
        let x = self.quality_factor
            * (f.hz() / self.resonant_freq.hz() - self.resonant_freq.hz() / f.hz());
        Complex::new(self.resistance_ohms, 0.0) / Complex::new(1.0, x)
    }

    /// Input impedance at the feed for a given switch state.
    ///
    /// In the **off** state the switch's small `C_off` is treated as part of
    /// the patch tuning (standard practice: the element is matched *with*
    /// the pinched-off FET attached, which is what HFSS co-simulation does),
    /// so the tuned impedance is the calibrated patch model itself. In the
    /// **on** state the conducting branch `R_on + jωL` appears in parallel
    /// and detunes the element.
    pub fn impedance(&self, f: Frequency, state: SwitchState) -> Complex {
        let zp = self.patch_impedance(f);
        match state {
            SwitchState::Off => zp,
            SwitchState::On => {
                let zs = self.switch.on_impedance(f);
                (zp * zs) / (zp + zs)
            }
        }
    }

    /// Complex reflection coefficient `Γ(f)` in the given state.
    pub fn gamma(&self, f: Frequency, state: SwitchState) -> Complex {
        let z = self.impedance(f, state);
        (z - Complex::from(Z0_OHMS)) / (z + Complex::from(Z0_OHMS))
    }

    /// `S11` in dB at `f` for the given switch state — the quantity Fig. 6
    /// plots over 23.5–24.5 GHz.
    pub fn s11_db(&self, f: Frequency, state: SwitchState) -> f64 {
        20.0 * self.gamma(f, state).abs().log10()
    }

    /// The −10 dB impedance bandwidth in the tuned (off) state, found by
    /// scanning outward from resonance.
    pub fn matched_bandwidth(&self) -> Bandwidth {
        let f0 = self.resonant_freq.hz();
        let step = f0 * 1e-4;
        let mut lo = f0;
        while self.s11_db(Frequency::from_hz(lo), SwitchState::Off) <= -10.0 && lo > 0.5 * f0 {
            lo -= step;
        }
        let mut hi = f0;
        while self.s11_db(Frequency::from_hz(hi), SwitchState::Off) <= -10.0 && hi < 1.5 * f0 {
            hi += step;
        }
        Bandwidth::from_hz(hi - lo)
    }
}

impl Default for ElementPort {
    fn default() -> Self {
        Self::mmtag_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem() -> ElementPort {
        ElementPort::mmtag_default()
    }

    const F0: Frequency = Frequency::from_hz(24.0e9);

    #[test]
    fn fig6_anchor_switch_off_is_about_minus_15db() {
        // Fig. 6: "When the switch is off, S11 is −15 dB at the 24 GHz
        // carrier frequency. This implies that antenna is tuned."
        let s = elem().s11_db(F0, SwitchState::Off);
        assert!((-16.5..=-13.5).contains(&s), "S11(off) = {s} dB");
    }

    #[test]
    fn fig6_anchor_switch_on_is_about_minus_5db() {
        // Fig. 6: "when the switch turns on… S11 is as high as −5 dB."
        let s = elem().s11_db(F0, SwitchState::On);
        assert!((-7.0..=-3.5).contains(&s), "S11(on) = {s} dB");
    }

    #[test]
    fn on_off_contrast_is_large_at_carrier() {
        let e = elem();
        let off = e.s11_db(F0, SwitchState::Off);
        let on = e.s11_db(F0, SwitchState::On);
        assert!(on - off >= 8.0, "contrast = {} dB", on - off);
    }

    #[test]
    fn tuned_state_covers_the_ism_band() {
        // §7: "Our design is tuned to cover the whole 24 GHz mmWave ISM
        // band" — 24.00–24.25 GHz.
        let e = elem();
        let bw = e.matched_bandwidth();
        assert!(bw.hz() >= 0.25e9, "−10 dB BW = {bw}");
        assert!(e.s11_db(Frequency::from_ghz(24.25), SwitchState::Off) <= -10.0);
    }

    #[test]
    fn off_state_s11_rises_toward_band_edges() {
        // The Fig. 6 curve shape: a resonant dip at 24 GHz climbing toward
        // 23.5 and 24.5 GHz.
        let e = elem();
        let center = e.s11_db(F0, SwitchState::Off);
        let lo = e.s11_db(Frequency::from_ghz(23.5), SwitchState::Off);
        let hi = e.s11_db(Frequency::from_ghz(24.5), SwitchState::Off);
        assert!(lo > center + 5.0, "edge {lo} vs center {center}");
        assert!(hi > center + 5.0, "edge {hi} vs center {center}");
    }

    #[test]
    fn on_state_is_flat_across_the_band() {
        // The shorted element has no sharp resonance left in-band.
        let e = elem();
        let vals: Vec<f64> = (0..21)
            .map(|i| e.s11_db(Frequency::from_ghz(23.5 + 0.05 * i as f64), SwitchState::On))
            .collect();
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min < 3.0, "on-state ripple = {} dB", max - min);
    }

    #[test]
    fn patch_impedance_is_real_at_resonance() {
        let z = elem().patch_impedance(F0);
        assert!((z.re - 71.6).abs() < 1e-9);
        assert!(z.im.abs() < 1e-9);
    }
}
