//! Planar (2-D) Van Atta arrays: retrodirectivity in both planes.
//!
//! The paper's prototype is a single row of six elements — retrodirective
//! in azimuth, fixed in elevation. A production tag (and Fig. 5's board has
//! room for it) would use an `Nx × Ny` grid with *point-symmetric* pair
//! wiring: element `(i, j)` connects to `(Nx−1−i, Ny−1−j)`. The same Eq. 5
//! algebra then holds independently in both axes, so the tag answers the
//! reader from any direction in the hemisphere, not just any azimuth.
//!
//! Angles here are direction cosines `(u, v) = (sinθ·cosφ, sinθ·sinφ)`,
//! the natural coordinates for planar arrays: the per-element phase is
//! `−2π(d_x·i·u + d_y·j·v)` and the visible region is `u² + v² ≤ 1`.

use crate::element::{ElementPattern, PatchElement};
use mmtag_rf::units::{Angle, Db};
use mmtag_rf::Complex;

/// A direction expressed in direction cosines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Direction {
    /// `u = sinθ·cosφ`.
    pub u: f64,
    /// `v = sinθ·sinφ`.
    pub v: f64,
}

impl Direction {
    /// From spherical angles: polar `theta` off broadside, azimuth `phi`.
    pub fn from_spherical(theta: Angle, phi: Angle) -> Self {
        let st = theta.radians().sin();
        Direction {
            u: st * phi.radians().cos(),
            v: st * phi.radians().sin(),
        }
    }

    /// The polar angle off broadside this direction corresponds to.
    pub fn polar(&self) -> Angle {
        Angle::from_radians((self.u * self.u + self.v * self.v).sqrt().min(1.0).asin())
    }
}

/// A planar Van Atta reflectarray on a rectangular grid.
#[derive(Clone, Debug)]
pub struct PlanarVanAtta<E: ElementPattern = PatchElement> {
    nx: usize,
    ny: usize,
    /// Element spacings in wavelengths.
    dx: f64,
    dy: f64,
    element: E,
    /// Amplitude factor of one interconnect traverse.
    line_amplitude: f64,
    /// Reflective (true) or absorbing state — all switches together (§6).
    reflective: bool,
    /// Absorbing-state residual amplitude per element.
    off_state_leakage: f64,
}

impl<E: ElementPattern> PlanarVanAtta<E> {
    /// Creates an `nx × ny` grid with spacings `dx`, `dy` (wavelengths).
    ///
    /// # Panics
    /// Panics on zero dimensions or non-positive spacing.
    pub fn new(nx: usize, ny: usize, dx: f64, dy: f64, element: E) -> Self {
        assert!(nx >= 1 && ny >= 1, "grid needs at least one element");
        assert!(dx > 0.0 && dy > 0.0, "spacings must be positive");
        PlanarVanAtta {
            nx,
            ny,
            dx,
            dy,
            element,
            line_amplitude: Db::new(-0.5).linear().sqrt(),
            reflective: true,
            off_state_leakage: 0.1,
        }
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Always false (≥ 1 element by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Switches the modulation state (all switches together, §6).
    pub fn set_reflective(&mut self, reflective: bool) {
        self.reflective = reflective;
    }

    /// Per-element phase for a plane wave from `dir`.
    #[inline]
    fn element_phase(&self, i: usize, j: usize, dir: Direction) -> f64 {
        -std::f64::consts::TAU * (self.dx * i as f64 * dir.u + self.dy * j as f64 * dir.v)
    }

    /// Complex re-radiated amplitude toward `out` for a unit plane wave
    /// from `inc` — the 2-D analogue of the linear array's
    /// `bistatic_response`, with point-symmetric pair wiring.
    pub fn bistatic_response(&self, inc: Direction, out: Direction) -> Complex {
        let amp = if self.reflective {
            1.0
        } else {
            self.off_state_leakage * self.off_state_leakage
        };
        let mut field = Complex::ZERO;
        for i in 0..self.nx {
            for j in 0..self.ny {
                // Partner (point symmetry through the array center).
                let pi = self.nx - 1 - i;
                let pj = self.ny - 1 - j;
                let received = Complex::from_phase(self.element_phase(pi, pj, inc));
                let reradiated = Complex::from_phase(self.element_phase(i, j, out));
                field += received * reradiated;
            }
        }
        let e_in = self.element.field(inc.polar());
        let e_out = self.element.field(out.polar());
        field * (amp * self.line_amplitude * e_in * e_out)
    }

    /// Monostatic round-trip gain from direction `dir`.
    pub fn monostatic_gain(&self, dir: Direction) -> f64 {
        self.bistatic_response(dir, dir).norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Isotropic;

    fn ideal(nx: usize, ny: usize) -> PlanarVanAtta<Isotropic> {
        let mut p = PlanarVanAtta::new(nx, ny, 0.5, 0.5, Isotropic);
        p.line_amplitude = 1.0;
        p
    }

    #[test]
    fn retro_gain_is_total_element_count_squared() {
        // The 2-D Eq. 5: coherent recombination from any direction.
        let p = ideal(6, 4);
        for (th, ph) in [(0.0, 0.0), (30.0, 45.0), (50.0, -120.0), (60.0, 90.0)] {
            let d = Direction::from_spherical(Angle::from_degrees(th), Angle::from_degrees(ph));
            let g = p.monostatic_gain(d);
            let expect = (24 * 24) as f64;
            assert!((g - expect).abs() / expect < 1e-9, "θ={th} φ={ph}: {g}");
        }
    }

    #[test]
    fn linear_array_is_the_ny_1_special_case() {
        use crate::vanatta::{ReflectorWiring, VanAttaArray};
        use crate::LinearArray;
        let planar = ideal(6, 1);
        let mut linear = VanAttaArray::new(
            LinearArray::half_wavelength(6),
            Isotropic,
            ReflectorWiring::VanAtta,
        );
        linear.set_line_loss(Db::ZERO);
        for deg in [-40.0, 0.0, 25.0, 55.0] {
            let d = Direction::from_spherical(Angle::from_degrees(deg), Angle::ZERO);
            let gp = planar.monostatic_gain(d);
            let gl = linear.monostatic_gain(Angle::from_degrees(deg));
            assert!(
                (gp - gl).abs() / gl < 1e-9,
                "θ={deg}: planar {gp} linear {gl}"
            );
        }
    }

    #[test]
    fn elevation_offsets_do_not_break_a_planar_tag() {
        // The payoff over the paper's 1-D prototype: a linear array's
        // retro property only holds in its scan plane; the planar grid
        // holds it for combined azimuth+elevation offsets.
        let p = ideal(6, 4);
        let skew = Direction { u: 0.35, v: 0.45 };
        let g = p.monostatic_gain(skew);
        assert!((g - 576.0).abs() / 576.0 < 1e-9, "skew gain {g}");
    }

    #[test]
    fn bistatic_peak_is_retro() {
        let p = ideal(4, 4);
        let inc = Direction::from_spherical(Angle::from_degrees(35.0), Angle::from_degrees(60.0));
        let retro = p.bistatic_response(inc, inc).abs();
        // Probe a grid of other directions: none beats the retro one.
        for du in [-0.4, -0.2, 0.1, 0.3] {
            for dv in [-0.3, 0.15, 0.35] {
                let out = Direction {
                    u: (inc.u + du).clamp(-0.95, 0.95),
                    v: (inc.v + dv).clamp(-0.95, 0.95),
                };
                if (out.u - inc.u).abs() < 1e-9 && (out.v - inc.v).abs() < 1e-9 {
                    continue;
                }
                let other = p.bistatic_response(inc, out).abs();
                assert!(
                    other <= retro + 1e-9,
                    "out ({}, {}) beat retro",
                    out.u,
                    out.v
                );
            }
        }
    }

    #[test]
    fn absorbing_state_suppresses_reflection() {
        let mut p = ideal(4, 4);
        let d = Direction::from_spherical(Angle::from_degrees(20.0), Angle::ZERO);
        let on = p.monostatic_gain(d);
        p.set_reflective(false);
        let off = p.monostatic_gain(d);
        // The absorbing state scales the response amplitude by leakage²
        // (source and re-radiator both leak): power contrast = 40 dB.
        assert!((on / off - 1e4).abs() / 1e4 < 1e-6, "contrast {}", on / off);
    }

    #[test]
    fn patch_elements_roll_off_at_wide_polar_angles() {
        // A 6 × 4 grid at λ/2: the prototype's 60 × 45 mm board, populated.
        let p = PlanarVanAtta::new(6, 4, 0.5, 0.5, PatchElement::mmtag_default());
        let g0 = p.monostatic_gain(Direction { u: 0.0, v: 0.0 });
        let g60 = p.monostatic_gain(Direction::from_spherical(
            Angle::from_degrees(60.0),
            Angle::from_degrees(30.0),
        ));
        assert!(g60 < g0 / 10.0);
    }

    #[test]
    fn direction_cosine_helpers() {
        let d = Direction::from_spherical(Angle::from_degrees(90.0), Angle::ZERO);
        assert!((d.u - 1.0).abs() < 1e-12 && d.v.abs() < 1e-12);
        let back = Direction { u: 0.5, v: 0.0 }.polar();
        assert!((back.degrees() - 30.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_grid_is_a_bug() {
        let _ = PlanarVanAtta::new(0, 3, 0.5, 0.5, Isotropic);
    }
}
