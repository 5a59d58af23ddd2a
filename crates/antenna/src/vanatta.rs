//! The Van Atta retrodirective reflector — the paper's core contribution.
//!
//! §5.2: "we design an antenna array using Van Atta technique... we use an
//! array of antennas where each antenna is connected to its mirrored antenna
//! using a transmission line." Element `n` re-radiates the signal received by
//! element `N−1−n`; if all interconnect lines impose the same phase `φ`, the
//! re-radiated aperture phases are exactly the transmit weights for the
//! arrival direction (Eqs. 4–5), so the reflected beam points back at the
//! reader for *any* incidence angle — beam alignment with zero active parts.
//!
//! This module implements that array at the phasor level, together with the
//! two wirings it must beat:
//!
//! * [`ReflectorWiring::Specular`] — no pair swap; each element re-radiates
//!   its own signal. Behaves like a flat mirror: the energy leaves at `−θ`
//!   and the monostatic return collapses off broadside.
//! * [`ReflectorWiring::FixedBeam`] — the corporate-feed tag of Kimionis et
//!   al. \[18\], which the paper's related-work section calls out: all elements
//!   are combined and re-radiated in a *fixed* broadside beam, so it "only
//!   works when the tag is exactly in front of the reader".
//!
//! Non-idealities are first-class: per-pair transmission-line phase errors,
//! line loss, element failures, and the finite on/off contrast of the RF
//! switches (§6) are all modeled, because the benchmark harness ablates them.

use crate::array::LinearArray;
use crate::element::{ElementPattern, PatchElement};
use mmtag_rf::units::{Angle, Db};
use mmtag_rf::Complex;

/// How the array's elements are interconnected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReflectorWiring {
    /// Van Atta pair swap: element `n` re-radiates element `N−1−n`'s signal.
    /// Retrodirective (the mmTag design).
    VanAtta,
    /// Each element re-radiates its own signal: a flat mirror. Specular.
    Specular,
    /// All received signals are combined and re-radiated through a fixed
    /// broadside beam (the fixed-beam mmWave tag of related work \[18\]).
    FixedBeam,
}

/// A passive modulated reflectarray: the mmTag tag's RF front end.
///
/// The struct owns the array geometry, the element pattern, the interconnect
/// state (per-pair phases and loss) and the per-element switch state, and
/// answers the one question every higher layer asks: *what complex amplitude
/// does this tag re-radiate toward `ψ` when illuminated from `θ`?*
#[derive(Clone, Debug)]
pub struct VanAttaArray<E: ElementPattern = PatchElement> {
    array: LinearArray,
    element: E,
    wiring: ReflectorWiring,
    /// Phase added by the interconnect line of each pair, radians.
    /// Pair `k` connects elements `k` and `N−1−k`; there are `ceil(N/2)`.
    line_phases: Vec<f64>,
    /// One-way amplitude factor of an interconnect traverse (≤ 1).
    line_amplitude: f64,
    /// Per-element switch state: `true` = antenna active (reflective mode).
    element_active: Vec<bool>,
    /// Residual coherent re-radiation amplitude of a shorted element
    /// relative to an active one (the switches are not ideal absorbers).
    off_state_leakage: f64,
}

impl VanAttaArray<PatchElement> {
    /// The prototype the paper fabricated (§7): 6 patch elements at λ/2,
    /// Van Atta wiring, equal-length lines, 0.5 dB line loss, −20 dB
    /// off-state leakage. A test fixture: production builds its tag
    /// through `mmtag::MmTag`; this module's and the radar model's tests
    /// check patterns on it.
    pub fn mmtag_prototype() -> Self {
        VanAttaArray::new(
            LinearArray::half_wavelength(6),
            PatchElement::mmtag_default(),
            ReflectorWiring::VanAtta,
        )
    }
}

impl<E: ElementPattern> VanAttaArray<E> {
    /// Creates a reflectarray over `array` with the given element pattern
    /// and wiring, ideal equal-phase lines, 0.5 dB line loss and −20 dB
    /// off-state leakage.
    pub fn new(array: LinearArray, element: E, wiring: ReflectorWiring) -> Self {
        let pairs = array.len().div_ceil(2);
        VanAttaArray {
            array,
            element,
            wiring,
            line_phases: vec![0.0; pairs],
            line_amplitude: Db::new(-0.5).linear().sqrt(),
            element_active: vec![true; array.len()],
            off_state_leakage: 0.1, // −20 dB in power
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// True if the array is a single element.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The underlying array geometry.
    pub fn array(&self) -> &LinearArray {
        &self.array
    }

    /// The wiring scheme in use.
    pub fn wiring(&self) -> ReflectorWiring {
        self.wiring
    }

    /// Sets the interconnect loss (one traverse), as a negative dB value.
    pub fn set_line_loss(&mut self, loss: Db) {
        assert!(loss.db() <= 0.0, "line loss must be ≤ 0 dB");
        self.line_amplitude = loss.linear().sqrt();
    }

    /// Sets per-pair interconnect phases (radians). A *common* phase on all
    /// pairs is harmless (Eq. 5's global `e^{jφ}`); unequal phases break the
    /// retro condition and this is exactly how fabrication tolerance enters.
    ///
    /// # Panics
    /// Panics if `phases.len()` differs from the pair count `ceil(N/2)`.
    pub fn set_line_phases(&mut self, phases: &[f64]) {
        assert_eq!(phases.len(), self.line_phases.len(), "pair count mismatch");
        self.line_phases.copy_from_slice(phases);
    }

    /// Sets the residual off-state (absorbing) coherent leakage, in dB of
    /// power relative to the on state. Must be ≤ 0 dB.
    pub fn set_off_state_leakage(&mut self, leakage: Db) {
        assert!(leakage.db() <= 0.0, "leakage must be ≤ 0 dB");
        self.off_state_leakage = leakage.linear().sqrt();
    }

    /// Drives every RF switch together, as the OOK modulator does (§6):
    /// `reflective = true` is the "switches off / antennas tuned" state.
    pub fn set_reflective(&mut self, reflective: bool) {
        for s in &mut self.element_active {
            *s = reflective;
        }
    }

    /// Disables one element permanently (models a failed switch/antenna).
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn fail_element(&mut self, idx: usize) {
        self.element_active[idx] = false;
    }

    /// Index of the element whose received signal element `n` re-radiates.
    fn partner(&self, n: usize) -> usize {
        match self.wiring {
            ReflectorWiring::VanAtta => self.array.len() - 1 - n,
            ReflectorWiring::Specular => n,
            // FixedBeam is handled separately (corporate combine).
            ReflectorWiring::FixedBeam => n,
        }
    }

    /// Pair index of element `n` (pairs are mirror pairs).
    fn pair_of(&self, n: usize) -> usize {
        n.min(self.array.len() - 1 - n)
    }

    /// Amplitude factor of element `idx` from its switch state.
    fn switch_amplitude(&self, idx: usize) -> f64 {
        if self.element_active[idx] {
            1.0
        } else {
            self.off_state_leakage
        }
    }

    /// Complex re-radiated far-field amplitude toward `psi_out` for a unit
    /// plane wave arriving from `theta_in`.
    ///
    /// The magnitude is normalized so that a lossless ideal `N`-element array
    /// with isotropic elements returns `N` at the retro angle; the square of
    /// this value is the round-trip aperture gain used by the link budget.
    pub fn bistatic_response(&self, theta_in: Angle, psi_out: Angle) -> Complex {
        let n = self.array.len();
        let rx_field = self.element.field(theta_in);
        let tx_field = self.element.field(psi_out);

        if self.wiring == ReflectorWiring::FixedBeam {
            // Corporate feed: combine all received signals (weights matched
            // to broadside), split equally, re-radiate broadside beam.
            // Power-conserving: combine gives Σxₙ/√N, split gives /√N each.
            let mut combined = Complex::ZERO;
            for k in 0..n {
                combined += self.array.receive_phasor(k, theta_in) * self.switch_amplitude(k);
            }
            combined = combined / (n as f64).sqrt();
            let mut field = Complex::ZERO;
            for k in 0..n {
                let feed = combined / (n as f64).sqrt() * self.switch_amplitude(k);
                field += feed * self.array.receive_phasor(k, psi_out);
            }
            return field * (rx_field * tx_field * self.line_amplitude);
        }

        let mut field = Complex::ZERO;
        for k in 0..n {
            let src = self.partner(k);
            // Received by the partner element…
            let received = self.array.receive_phasor(src, theta_in) * self.switch_amplitude(src);
            // …through the pair's line (phase + loss)…
            let line = Complex::from_phase(self.line_phases[self.pair_of(k)])
                * (self.line_amplitude * self.switch_amplitude(k));
            // …re-radiated by element k toward ψ (Eq. 3 by reciprocity).
            field += received * line * self.array.receive_phasor(k, psi_out);
        }
        field * (rx_field * tx_field)
    }

    /// Round-trip linear power gain toward `psi_out` for illumination from
    /// `theta_in`: `|bistatic_response|²`. This is the `G_rx·G_tx` product
    /// that enters the backscatter link budget twice-over.
    pub fn bistatic_gain(&self, theta_in: Angle, psi_out: Angle) -> f64 {
        self.bistatic_response(theta_in, psi_out).norm_sqr()
    }

    /// Monostatic round-trip gain: power sent back *toward the illuminator*.
    /// For Van Atta wiring this is nearly flat in `theta` (apart from the
    /// element-pattern rolloff); for the baselines it collapses off their
    /// design angle — which is the paper's whole point.
    pub fn monostatic_gain(&self, theta: Angle) -> f64 {
        self.bistatic_gain(theta, theta)
    }

    /// The angle at which the reflected beam peaks for illumination from
    /// `theta`, found by a fine scan. A Van Atta array returns ≈ `theta`;
    /// a specular array returns ≈ `−theta`. A test reference: no scenario
    /// calls it; this module's and the property tests check
    /// [`VanAttaArray::bistatic_gain`]'s retrodirectivity through it.
    pub fn reflection_peak_angle(&self, theta: Angle) -> Angle {
        let mut best = (f64::MIN, 0.0);
        let mut a = -90.0;
        while a <= 90.0 {
            let g = self.bistatic_gain(theta, Angle::from_degrees(a));
            if g > best.0 {
                best = (g, a);
            }
            a += 0.05;
        }
        Angle::from_degrees(best.1)
    }

    /// On/off modulation contrast at `theta`: the ratio (dB) between the
    /// reflective-state and absorbing-state monostatic returns. This is what
    /// the reader's OOK demodulator actually sees (§6).
    pub fn modulation_contrast(&mut self, theta: Angle) -> Db {
        let was = self.element_active.clone();
        self.set_reflective(true);
        let on = self.monostatic_gain(theta);
        self.set_reflective(false);
        let off = self.monostatic_gain(theta);
        self.element_active = was;
        Db::from_linear(on / off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Isotropic;

    fn ideal(n: usize, wiring: ReflectorWiring) -> VanAttaArray<Isotropic> {
        let mut v = VanAttaArray::new(LinearArray::half_wavelength(n), Isotropic, wiring);
        v.set_line_loss(Db::ZERO);
        v
    }

    #[test]
    fn parallel_sweep_matches_serial_bitwise() {
        // The gain kernels are pure: mapped over the pool at any thread
        // count they equal the serial map bit for bit.
        let v = VanAttaArray::mmtag_prototype();
        let angles: Vec<Angle> = (-60..=60).map(|d| Angle::from_degrees(d as f64)).collect();
        let serial: Vec<f64> = angles.iter().map(|&a| v.monostatic_gain(a)).collect();
        for threads in [1, 2, 4, 8] {
            let par = mmtag_rf::par::par_map_with(threads, &angles, |_, &a| v.monostatic_gain(a));
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(s, p)| s.to_bits() == p.to_bits()),
                "threads={threads}"
            );
        }
        let theta_in = Angle::from_degrees(20.0);
        let cut = mmtag_rf::par::par_map_with(4, &angles, |_, &psi| v.bistatic_gain(theta_in, psi));
        let cut_serial: Vec<f64> = angles
            .iter()
            .map(|&psi| v.bistatic_gain(theta_in, psi))
            .collect();
        assert_eq!(cut, cut_serial);
    }

    #[test]
    fn van_atta_retro_gain_is_n_squared_at_any_angle() {
        // Eq. 5: coherent recombination toward the arrival angle, any θ.
        let v = ideal(6, ReflectorWiring::VanAtta);
        for deg in [-60.0, -35.0, -10.0, 0.0, 12.5, 41.0, 60.0] {
            let g = v.monostatic_gain(Angle::from_degrees(deg));
            assert!((g - 36.0).abs() < 1e-6, "θ={deg}°: G={g}");
        }
    }

    #[test]
    fn van_atta_peak_is_at_arrival_angle() {
        let v = ideal(8, ReflectorWiring::VanAtta);
        for deg in [-50.0, -20.0, 15.0, 45.0] {
            let peak = v.reflection_peak_angle(Angle::from_degrees(deg));
            assert!(
                (peak.degrees() - deg).abs() < 0.5,
                "θ={deg}° → peak at {}°",
                peak.degrees()
            );
        }
    }

    #[test]
    fn specular_peak_is_at_mirror_angle() {
        let v = ideal(8, ReflectorWiring::Specular);
        for deg in [-40.0, -15.0, 25.0, 50.0] {
            let peak = v.reflection_peak_angle(Angle::from_degrees(deg));
            assert!(
                (peak.degrees() + deg).abs() < 0.5,
                "θ={deg}° → peak at {}° (want {}°)",
                peak.degrees(),
                -deg
            );
        }
    }

    #[test]
    fn specular_monostatic_collapses_off_broadside() {
        let v = ideal(6, ReflectorWiring::Specular);
        let at0 = v.monostatic_gain(Angle::ZERO);
        assert!((at0 - 36.0).abs() < 1e-6);
        // At 30° incidence a mirror sends energy to −30°; the monostatic
        // return drops by the full array factor.
        let at30 = v.monostatic_gain(Angle::from_degrees(30.0));
        assert!(at30 < at0 / 30.0, "specular at 30°: {at30}");
    }

    #[test]
    fn fixed_beam_matches_van_atta_at_broadside_only() {
        let fixed = ideal(6, ReflectorWiring::FixedBeam);
        let va = ideal(6, ReflectorWiring::VanAtta);
        let f0 = fixed.monostatic_gain(Angle::ZERO);
        let v0 = va.monostatic_gain(Angle::ZERO);
        assert!((f0 - v0).abs() / v0 < 1e-6, "fixed {f0} vs VA {v0}");
        // §3: the fixed-beam tag "only works when the tag is exactly in
        // front of the reader".
        let f25 = fixed.monostatic_gain(Angle::from_degrees(25.0));
        let v25 = va.monostatic_gain(Angle::from_degrees(25.0));
        assert!(f25 < v25 / 100.0, "fixed {f25} vs VA {v25} at 25°");
    }

    #[test]
    fn common_line_phase_is_harmless() {
        // Eq. 5: a global e^{jφ} does not affect |response|.
        let mut v = ideal(6, ReflectorWiring::VanAtta);
        let g_ref = v.monostatic_gain(Angle::from_degrees(33.0));
        v.set_line_phases(&[1.234; 3]);
        let g = v.monostatic_gain(Angle::from_degrees(33.0));
        assert!((g - g_ref).abs() < 1e-9);
    }

    #[test]
    fn unequal_line_phases_degrade_retro_gain() {
        let mut v = ideal(6, ReflectorWiring::VanAtta);
        let g_ideal = v.monostatic_gain(Angle::from_degrees(20.0));
        v.set_line_phases(&[0.0, 1.5, 3.0]); // severe pair-to-pair error
        let g = v.monostatic_gain(Angle::from_degrees(20.0));
        assert!(g < 0.7 * g_ideal, "degraded {g} vs ideal {g_ideal}");
    }

    #[test]
    fn line_loss_scales_gain() {
        let mut v = ideal(4, ReflectorWiring::VanAtta);
        v.set_line_loss(Db::new(-3.0));
        let g = v.monostatic_gain(Angle::ZERO);
        // One line traverse of −3 dB scales the power response by 10^(−0.3).
        assert!((g / 16.0 - Db::new(-3.0).linear()).abs() < 1e-3, "g={g}");
    }

    #[test]
    fn element_failure_reduces_gain_but_keeps_retro_direction() {
        let mut v = ideal(8, ReflectorWiring::VanAtta);
        v.set_off_state_leakage(Db::new(-60.0));
        let g_full = v.monostatic_gain(Angle::from_degrees(25.0));
        v.fail_element(3);
        let g_fail = v.monostatic_gain(Angle::from_degrees(25.0));
        assert!(g_fail < g_full);
        // Losing element 3 silences both directions of pair (3,4)'s line …
        // the peak should still land on the arrival angle.
        let peak = v.reflection_peak_angle(Angle::from_degrees(25.0));
        assert!((peak.degrees() - 25.0).abs() < 2.0);
    }

    #[test]
    fn modulation_contrast_tracks_leakage_setting() {
        let mut v = ideal(6, ReflectorWiring::VanAtta);
        v.set_off_state_leakage(Db::new(-20.0));
        let c = v.modulation_contrast(Angle::from_degrees(10.0));
        // Both the source element and the re-radiating element leak: the
        // round trip sees the leakage amplitude twice ⇒ 40 dB power contrast.
        assert!((c.db() - 40.0).abs() < 0.1, "contrast = {c}");
    }

    #[test]
    fn absorbing_state_preserves_switch_state_flags() {
        let mut v = ideal(4, ReflectorWiring::VanAtta);
        v.set_reflective(false);
        assert!(v.element_active.iter().all(|&s| !s));
        let _ = v.modulation_contrast(Angle::ZERO);
        assert!(
            v.element_active.iter().all(|&s| !s),
            "contrast probe must restore state"
        );
    }

    #[test]
    fn patch_elements_attenuate_wide_angles() {
        let v = VanAttaArray::mmtag_prototype();
        let g0 = v.monostatic_gain(Angle::ZERO);
        let g60 = v.monostatic_gain(Angle::from_degrees(60.0));
        // Element cos² rolloff: at 60°, each pass loses cos²60° = 1/4 in
        // power, squared over RX+TX ⇒ 1/16 beneath the flat array term.
        assert!(g60 < g0 / 10.0, "g0={g0} g60={g60}");
        // …but the direction is still retro (unlike the specular mirror).
        // The cos² element pattern skews the beam peak a few degrees toward
        // broadside at wide scan, so allow that pull.
        let peak = v.reflection_peak_angle(Angle::from_degrees(60.0));
        assert!(
            (peak.degrees() - 60.0).abs() < 8.0,
            "peak {}",
            peak.degrees()
        );
        assert!(peak.degrees() > 40.0);
    }

    #[test]
    fn odd_element_count_is_supported() {
        let v = ideal(5, ReflectorWiring::VanAtta);
        let g = v.monostatic_gain(Angle::from_degrees(18.0));
        assert!((g - 25.0).abs() < 1e-6, "N=5 retro gain = {g}");
    }
}
