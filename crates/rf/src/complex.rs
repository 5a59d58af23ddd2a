//! Minimal, fast complex arithmetic for phasor math.
//!
//! The antenna and PHY layers spend almost all their cycles multiplying and
//! accumulating complex phasors (array factors, IQ samples). We implement the
//! small set of operations they need rather than pulling in an external crate;
//! the type is `Copy`, 16 bytes, and every operation is branch-free.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// Used throughout the stack as a *phasor*: `re` and `im` carry the in-phase
/// and quadrature components of a narrowband signal.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates the unit phasor `e^{jθ}` for phase `theta` in radians.
    ///
    /// This is the workhorse of array-factor computation: each antenna
    /// element contributes `from_phase(-π·n·sinθ)`.
    #[inline]
    pub fn from_phase(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Creates a complex number from polar form `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex {
            re: r * c,
            im: r * s,
        }
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` — the *power* of a phasor, cheaper than
    /// [`abs`](Self::abs) because it avoids the square root.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Reciprocal `1/z`. Returns an all-infinite value for `z == 0`, matching
    /// IEEE-754 division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a·(1/b) is the definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const EPS: f64 = 1e-12;
    /// The imaginary unit `j`.
    const J: Complex = Complex { re: 0.0, im: 1.0 };

    #[test]
    fn construction_and_identities() {
        assert_eq!(Complex::ZERO + Complex::ONE, Complex::ONE);
        assert_eq!(Complex::ONE * J, J);
        assert_eq!(J * J, -Complex::ONE);
    }

    #[test]
    fn from_phase_is_unit_magnitude() {
        for k in -10..=10 {
            let z = Complex::from_phase(0.37 * k as f64);
            assert!((z.abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.5, 1.1);
        assert!((z.abs() - 2.5).abs() < EPS);
        assert!((z.arg() - 1.1).abs() < EPS);
    }

    #[test]
    fn mul_matches_polar_addition_of_phases() {
        let a = Complex::from_polar(2.0, 0.3);
        let b = Complex::from_polar(3.0, 0.9);
        let p = a * b;
        assert!((p.abs() - 6.0).abs() < 1e-10);
        assert!((p.arg() - 1.2).abs() < 1e-10);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.25, 4.0);
        let q = (a * b) / b;
        assert!((q - a).abs() < 1e-10);
    }

    #[test]
    fn conjugate_negates_phase() {
        let z = Complex::from_polar(1.0, 0.7);
        assert!((z.conj().arg() + 0.7).abs() < EPS);
        // z * conj(z) is |z|² on the real axis.
        let w = Complex::new(3.0, 4.0);
        let p = w * w.conj();
        assert!((p.re - 25.0).abs() < EPS);
        assert!(p.im.abs() < EPS);
    }

    #[test]
    fn norm_sqr_equals_abs_squared() {
        let z = Complex::new(-3.0, 4.0);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        assert!((z.abs() - 5.0).abs() < EPS);
    }

    #[test]
    fn exp_of_j_pi_is_minus_one() {
        let z = (J * PI).exp();
        assert!((z + Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn sum_accumulates() {
        let total: Complex = (0..4).map(|n| Complex::new(n as f64, 1.0)).sum();
        assert_eq!(total, Complex::new(6.0, 4.0));
    }

    #[test]
    fn phasor_sum_of_opposite_phases_cancels() {
        let a = Complex::from_phase(0.8);
        let b = Complex::from_phase(0.8 + PI);
        assert!((a + b).abs() < EPS);
    }

    #[test]
    fn recip_of_zero_is_non_finite() {
        let z = Complex::ZERO.recip();
        assert!(!z.re.is_finite());
    }
}
