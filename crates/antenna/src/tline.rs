//! Microstrip transmission-line design for the Van Atta interconnect.
//!
//! §5.2, footnote 2: "transmission lines can be simply implemented by Copper
//! strips on a PCB board", and the retro condition requires "the transmission
//! lines to have the same phase shifts between antenna pairs". The lines of a
//! planar Van Atta array necessarily have *different physical lengths* (the
//! outer pair's line is longer than the inner pair's), so equal phase is
//! achieved by making the lengths differ by whole guided wavelengths.
//!
//! This module computes guided wavelength on the paper's substrate (Rogers
//! 4835, εᵣ = 3.48, h = 0.18 mm, §7) and produces pair line lengths that are
//! phase-equal modulo 2π, plus the loss and phase-error terms the Van Atta
//! model consumes.

use mmtag_rf::constants::SPEED_OF_LIGHT;
use mmtag_rf::units::{Db, Distance, Frequency};

/// A microstrip substrate/line geometry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Microstrip {
    /// Substrate relative permittivity εᵣ.
    pub epsilon_r: f64,
    /// Substrate height, meters.
    pub height: Distance,
    /// Trace width, meters.
    pub width: Distance,
    /// Conductor + dielectric loss at the design frequency, dB per meter.
    pub loss_db_per_m: f64,
}

impl Microstrip {
    /// A 50 Ω line on the paper's stack-up: Rogers 4835, εᵣ = 3.48,
    /// h = 0.18 mm (§7). Width ≈ 2.2·h for 50 Ω on this εᵣ; loss at 24 GHz
    /// on RO4835 is ≈ 20 dB/m (0.02 dB/mm), conductor-dominated.
    pub fn rogers4835() -> Self {
        Microstrip {
            epsilon_r: 3.48,
            height: Distance::from_mm(0.18),
            width: Distance::from_mm(0.40),
            loss_db_per_m: 20.0,
        }
    }

    /// Effective permittivity by the Hammerstad–Jensen quasi-static formula
    /// (accurate to ~1% for 0.1 < w/h < 10, ample for phase budgeting).
    pub fn effective_permittivity(&self) -> f64 {
        let u = self.width.meters() / self.height.meters();
        let er = self.epsilon_r;
        (er + 1.0) / 2.0 + (er - 1.0) / 2.0 * (1.0 + 12.0 / u).powf(-0.5)
    }

    /// Guided wavelength at `f`: `λ_g = c / (f·√ε_eff)`.
    pub fn guided_wavelength(&self, f: Frequency) -> Distance {
        Distance::from_meters(SPEED_OF_LIGHT / (f.hz() * self.effective_permittivity().sqrt()))
    }

    /// Phase accumulated over a physical `length` at `f`, radians.
    pub fn phase(&self, length: Distance, f: Frequency) -> f64 {
        std::f64::consts::TAU * length.meters() / self.guided_wavelength(f).meters()
    }

    /// Amplitude loss over `length` as a (negative) dB value.
    pub fn loss(&self, length: Distance) -> Db {
        Db::new(-self.loss_db_per_m * length.meters())
    }
}

impl Default for Microstrip {
    fn default() -> Self {
        Self::rogers4835()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms() -> Microstrip {
        Microstrip::rogers4835()
    }

    const F24: Frequency = Frequency::from_hz(24.0e9);

    #[test]
    fn effective_permittivity_between_one_and_er() {
        let e = ms().effective_permittivity();
        assert!(e > 1.0 && e < 3.48, "ε_eff = {e}");
        // For w/h ≈ 2.2 on εᵣ = 3.48, ε_eff ≈ 2.7–2.9.
        assert!((2.5..3.1).contains(&e), "ε_eff = {e}");
    }

    #[test]
    fn guided_wavelength_shorter_than_free_space() {
        let lam_g = ms().guided_wavelength(F24);
        let lam_0 = F24.wavelength();
        assert!(lam_g.meters() < lam_0.meters());
        // λ_g = λ₀/√ε_eff ≈ 12.5 mm / 1.66 ≈ 7.5 mm.
        assert!((7.0..8.0).contains(&lam_g.mm()), "λ_g = {} mm", lam_g.mm());
    }

    #[test]
    fn phase_of_one_guided_wavelength_is_two_pi() {
        let m = ms();
        let lam = m.guided_wavelength(F24);
        assert!((m.phase(lam, F24) - std::f64::consts::TAU).abs() < 1e-9);
    }

    #[test]
    fn loss_scales_with_length() {
        let m = ms();
        let l = m.loss(Distance::from_mm(30.0));
        // 20 dB/m · 0.03 m = 0.6 dB.
        assert!((l.db() + 0.6).abs() < 1e-9, "loss = {l}");
    }

    #[test]
    fn fabrication_tolerance_phase_error_is_small_but_nonzero() {
        // ±50 µm etch tolerance at 24 GHz on this stack: ~0.042·2π rad.
        let m = ms();
        let err = m.phase(Distance::from_mm(0.05), F24);
        assert!(err > 0.02 && err < 0.1, "err = {err} rad");
    }

    #[test]
    fn sixty_ghz_lines_shrink() {
        // §7 footnote 3: higher frequency ⇒ smaller structures.
        let m = ms();
        let l24 = m.guided_wavelength(F24);
        let l60 = m.guided_wavelength(Frequency::from_ghz(60.0));
        assert!(l60.meters() < l24.meters() / 2.0);
    }
}
