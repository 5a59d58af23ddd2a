//! Linear antenna arrays: geometry, steering vectors and array factors.
//!
//! Implements §5.1 of the paper. A uniform linear array of `N` elements with
//! spacing `d` sees an incoming plane wave from angle `θ` with per-element
//! phases (Eq. 1):
//!
//! ```text
//! xₙ = x₀ · e^(−j·K₀·n·d·sin θ),   n ∈ [0, N−1]
//! ```
//!
//! With the conventional `d = λ/2` this is `e^(−jπ·n·sin θ)` (Eq. 2). The
//! same factors describe transmission by reciprocity (Eq. 3). Everything in
//! [`vanatta`](crate::vanatta) and [`phased`](crate::phased) is built from
//! the primitives here.

use mmtag_rf::units::Angle;
use mmtag_rf::Complex;

/// A uniform linear array: `n` elements separated by `spacing` wavelengths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearArray {
    n: usize,
    spacing_wavelengths: f64,
}

impl LinearArray {
    /// Creates an array of `n` elements at `spacing` (in wavelengths).
    ///
    /// # Panics
    /// Panics if `n == 0` or the spacing is not a positive finite number —
    /// both are construction bugs, not runtime conditions.
    pub fn new(n: usize, spacing_wavelengths: f64) -> Self {
        assert!(n >= 1, "array needs at least one element");
        assert!(
            spacing_wavelengths.is_finite() && spacing_wavelengths > 0.0,
            "element spacing must be positive and finite"
        );
        LinearArray {
            n,
            spacing_wavelengths,
        }
    }

    /// The standard `d = λ/2` array the paper assumes (§5.1).
    pub fn half_wavelength(n: usize) -> Self {
        Self::new(n, 0.5)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the array has a single element (no array gain).
    pub fn is_empty(&self) -> bool {
        false // constructor guarantees n >= 1
    }

    /// Element spacing in wavelengths.
    pub fn spacing(&self) -> f64 {
        self.spacing_wavelengths
    }

    /// Per-element phase of an incoming plane wave from `theta`:
    /// `−2π·d·n·sin θ` radians (Eq. 1 with `K₀ = 2π/λ`, `d` in wavelengths).
    #[inline]
    pub fn element_phase(&self, n: usize, theta: Angle) -> f64 {
        -std::f64::consts::TAU * self.spacing_wavelengths * n as f64 * theta.radians().sin()
    }

    /// The receive steering phasor of element `n` for arrival angle `theta`
    /// (Eq. 2): `e^(−j·2π·d·n·sin θ)`.
    #[inline]
    pub fn receive_phasor(&self, n: usize, theta: Angle) -> Complex {
        Complex::from_phase(self.element_phase(n, theta))
    }

    /// The conjugate-match weights that point a receive (or, by Eq. 3, a
    /// transmit) beam toward `theta`: `wₙ = e^(+j·2π·d·n·sin θ)`.
    pub fn beam_weights(&self, theta: Angle) -> Vec<Complex> {
        (0..self.n)
            .map(|k| self.receive_phasor(k, theta).conj())
            .collect()
    }

    /// Complex array response toward angle `theta` when the elements are fed
    /// (or weighted) with `excitation`: `Σₙ eₙ · e^(−j·2π·d·n·sin θ)`.
    ///
    /// For transmit, `excitation` holds the feed phasors and the result is
    /// the relative far-field toward `theta`; for receive, `excitation` holds
    /// combining weights and the result is the response to a unit wave from
    /// `theta`. The two views coincide by reciprocity.
    ///
    /// # Panics
    /// Panics if `excitation.len() != self.len()`.
    pub fn response(&self, excitation: &[Complex], theta: Angle) -> Complex {
        assert_eq!(excitation.len(), self.n, "excitation length mismatch");
        let step = -std::f64::consts::TAU * self.spacing_wavelengths * theta.radians().sin();
        // Incremental phasor rotation: one sin_cos for the whole array
        // instead of one per element. This is the hot loop of every pattern
        // sweep in the benchmark harness.
        let rot = Complex::from_phase(step);
        let mut ph = Complex::ONE;
        let mut acc = Complex::ZERO;
        for &e in excitation {
            acc += e * ph;
            ph *= rot;
        }
        acc
    }

    /// Normalized power array factor toward `theta` for a beam steered to
    /// `steer`: `|AF|²/N²`, equal to 1.0 exactly at `theta == steer`.
    pub fn array_factor_power(&self, steer: Angle, theta: Angle) -> f64 {
        let w = self.beam_weights(steer);
        let af = self.response(&w, theta);
        af.norm_sqr() / (self.n as f64 * self.n as f64)
    }

    /// Half-power beamwidth (degrees) of the broadside beam, found
    /// numerically on the normalized array-factor power pattern.
    ///
    /// For a uniform λ/2 array this tracks the classic `≈ 101.5°/N`
    /// approximation (e.g. ~17° at N = 6).
    pub fn half_power_beamwidth_deg(&self) -> f64 {
        if self.n == 1 {
            return 360.0; // an element alone has no array beam
        }
        // Scan outward from broadside until the pattern crosses −3 dB.
        let target = 0.5;
        let mut prev_angle = 0.0_f64;
        let mut prev_val = 1.0_f64;
        let step = 0.01_f64; // degrees
        let mut a = step;
        while a <= 90.0 {
            let v = self.array_factor_power(Angle::ZERO, Angle::from_degrees(a));
            if v <= target {
                // Linear interpolation between the straddling samples.
                let frac = (prev_val - target) / (prev_val - v);
                let half = prev_angle + frac * (a - prev_angle);
                return 2.0 * half;
            }
            prev_angle = a;
            prev_val = v;
            a += step;
        }
        180.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Angle of the first pattern null off broadside, degrees. For a
    /// uniform array: `sin θ = 1/(N·d)` with `d` in wavelengths.
    fn first_null_deg(arr: &LinearArray) -> f64 {
        let s = 1.0 / (arr.len() as f64 * arr.spacing());
        if s >= 1.0 {
            90.0
        } else {
            s.asin().to_degrees()
        }
    }

    /// Peak sidelobe level of the broadside pattern, in dB relative to the
    /// main lobe (a negative number; ≈ −13.26 dB for large uniform arrays).
    fn peak_sidelobe_db(arr: &LinearArray) -> f64 {
        let mut peak: f64 = 0.0;
        let mut a = first_null_deg(arr) + 0.05;
        while a <= 90.0 {
            peak = peak.max(arr.array_factor_power(Angle::ZERO, Angle::from_degrees(a)));
            a += 0.02;
        }
        10.0 * peak.log10()
    }

    /// Directivity of the broadside beam over the `[-90°, 90°]` cut, by
    /// numeric integration: `D = 2 / ∫ |AF(θ)|² cos θ dθ`.
    fn directivity(arr: &LinearArray) -> f64 {
        let steps = 2000;
        let dth = std::f64::consts::PI / steps as f64;
        let integral: f64 = (0..steps)
            .map(|i| {
                let th = -std::f64::consts::FRAC_PI_2 + (i as f64 + 0.5) * dth;
                arr.array_factor_power(Angle::ZERO, Angle::from_radians(th)) * th.cos() * dth
            })
            .sum();
        2.0 / integral
    }

    #[test]
    fn steering_vector_matches_paper_eq2() {
        // Eq. 2: xₙ = x₀·e^(−jπ n sin θ) for d = λ/2.
        let arr = LinearArray::half_wavelength(6);
        let theta = Angle::from_degrees(30.0); // sin = 0.5
        for n in 0..arr.len() {
            let x = arr.receive_phasor(n, theta);
            let expected = -std::f64::consts::PI * n as f64 * 0.5;
            let diff = (x.arg() - expected).rem_euclid(std::f64::consts::TAU);
            let diff = diff.min(std::f64::consts::TAU - diff);
            assert!(
                diff < 1e-9,
                "element {n}: got {} want {}",
                x.arg(),
                expected
            );
        }
    }

    #[test]
    fn beam_weights_give_coherent_gain_at_steer_angle() {
        for n in [1, 2, 4, 6, 16] {
            let arr = LinearArray::half_wavelength(n);
            let th = Angle::from_degrees(22.0);
            let w = arr.beam_weights(th);
            let af = arr.response(&w, th);
            assert!(
                (af.abs() - n as f64).abs() < 1e-9,
                "N={n}: |AF|={} ",
                af.abs()
            );
        }
    }

    #[test]
    fn normalized_af_is_one_at_steer_and_below_elsewhere() {
        let arr = LinearArray::half_wavelength(8);
        let steer = Angle::from_degrees(-15.0);
        assert!((arr.array_factor_power(steer, steer) - 1.0).abs() < 1e-12);
        for deg in [-60.0, -40.0, 0.0, 10.0, 45.0] {
            let v = arr.array_factor_power(steer, Angle::from_degrees(deg));
            assert!(v < 1.0, "AF at {deg}° = {v}");
        }
    }

    #[test]
    fn response_uses_incremental_rotation_correctly() {
        // Cross-check the optimized response() against the naive sum.
        let arr = LinearArray::new(7, 0.5);
        let exc: Vec<Complex> = (0..7)
            .map(|k| Complex::from_polar(1.0 + 0.1 * k as f64, 0.3 * k as f64))
            .collect();
        let th = Angle::from_degrees(37.0);
        let fast = arr.response(&exc, th);
        let mut slow = Complex::ZERO;
        for (k, &e) in exc.iter().enumerate() {
            slow += e * Complex::from_phase(arr.element_phase(k, th));
        }
        assert!((fast - slow).abs() < 1e-9);
    }

    #[test]
    fn six_element_beamwidth_matches_paper_order() {
        // §7: 6 elements create "a directional reflector with 20 degree beam
        // width". The pure array factor of a uniform 6-element λ/2 array has
        // HPBW ≈ 17°; with element rolloff and fabrication non-idealities the
        // paper rounds to 20°. Accept the 15–21° window.
        let arr = LinearArray::half_wavelength(6);
        let bw = arr.half_power_beamwidth_deg();
        assert!((15.0..21.0).contains(&bw), "HPBW = {bw}°");
    }

    #[test]
    fn beamwidth_shrinks_with_n() {
        let bw4 = LinearArray::half_wavelength(4).half_power_beamwidth_deg();
        let bw8 = LinearArray::half_wavelength(8).half_power_beamwidth_deg();
        let bw16 = LinearArray::half_wavelength(16).half_power_beamwidth_deg();
        assert!(bw4 > bw8 && bw8 > bw16);
        // Classic approximation: HPBW ≈ 101.5°/N for λ/2 uniform arrays.
        assert!((bw8 - 101.5 / 8.0).abs() < 1.5, "bw8 = {bw8}");
    }

    #[test]
    fn directivity_of_half_wave_array_is_n() {
        for n in [2, 4, 6, 12] {
            let d = directivity(&LinearArray::half_wavelength(n));
            assert!(
                (d - n as f64).abs() / (n as f64) < 0.05,
                "N={n}: D={d} (expect ≈ N)"
            );
        }
    }

    #[test]
    fn first_null_matches_closed_form() {
        let arr = LinearArray::half_wavelength(6);
        // sin θ = 1/(6·0.5) = 1/3 ⇒ θ ≈ 19.47°
        assert!((first_null_deg(&arr) - 19.471).abs() < 0.01);
    }

    #[test]
    fn peak_sidelobe_approaches_minus_13db() {
        let psl = peak_sidelobe_db(&LinearArray::half_wavelength(32));
        assert!((-14.0..-12.5).contains(&psl), "PSL = {psl} dB");
    }

    /// Peak of the normalized pattern of a beam steered to `steer`, outside
    /// its main lobe (`|sin θ − sin θ₀| ≤ 1/(N·d)`, out to the first nulls),
    /// on a fine grid of `sin θ` over the visible space.
    fn peak_outside_main_lobe(arr: &LinearArray, steer: Angle) -> f64 {
        let u0 = steer.radians().sin();
        let main_lobe = 1.0 / (arr.len() as f64 * arr.spacing());
        (0..=20_000)
            .map(|k| -1.0 + k as f64 / 10_000.0)
            .filter(|u| (u - u0).abs() > main_lobe)
            .map(|u| arr.array_factor_power(steer, Angle::from_radians(u.asin())))
            .fold(0.0, f64::max)
    }

    #[test]
    fn grating_lobe_condition() {
        // A second full-strength lobe enters visible space once
        // d(1 + |sin θ₀|) ≥ λ; short of that, only sidelobes and the edge
        // of a lobe beyond endfire are visible.
        let grating = |arr: &LinearArray, deg: f64| {
            peak_outside_main_lobe(arr, Angle::from_degrees(deg)) > 0.9
        };
        let half = LinearArray::half_wavelength(8);
        assert!(!grating(&half, 60.0));
        let wide = LinearArray::new(8, 1.0);
        assert!(grating(&wide, 0.0));
        let moderate = LinearArray::new(8, 0.6);
        assert!(!grating(&moderate, 0.0));
        assert!(grating(&moderate, 60.0));
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_elements_is_a_bug() {
        let _ = LinearArray::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "excitation length mismatch")]
    fn wrong_excitation_length_is_a_bug() {
        let arr = LinearArray::half_wavelength(4);
        let _ = arr.response(&[Complex::ONE; 3], Angle::ZERO);
    }
}
