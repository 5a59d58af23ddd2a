//! M-state tag reflection constellations.
//!
//! A backscatter tag modulates by switching its load among M reflection
//! states; electrically each state is a complex reflection coefficient.
//! Following the RIScatter template (SNIPPETS.md, DESIGN.md §14) we model
//! the state set as a standard PSK or square-QAM alphabet normalized by its
//! **peak** amplitude (norm-∞, `qammod ./ max(abs(·))` in the reference
//! configs) and scaled by an amplitude *scatter ratio* α ∈ (0, 1] — a
//! passive reflector can at best re-radiate what hits it, so every state
//! must fit inside the unit disc and α sets how much of it the tag uses.

use mmtag_rf::Complex;

/// An M-state tag reflection alphabet: unit-peak PSK or square-QAM points
/// scaled by the amplitude scatter ratio α, so `max_i |c_i| = α ≤ 1`.
///
/// ```
/// use mmtag_phy::constellation::TagConstellation;
///
/// // A 4-state PSK reflector using half the incident amplitude, the
/// // RIScatter default (scatterRatio = 0.5).
/// let c = TagConstellation::psk(4, 0.5);
/// assert_eq!(c.order(), 4);
/// assert!((c.points()[0].abs() - 0.5).abs() < 1e-12);
/// // Peak-normalized: every state fits in the α-disc.
/// assert!(c.points().iter().all(|p| p.abs() <= 0.5 + 1e-12));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TagConstellation {
    points: Vec<Complex>,
    scatter_ratio: f64,
}

impl TagConstellation {
    /// M-ary PSK states `α·exp(j2πk/M)`, k = 0..M.
    ///
    /// # Panics
    /// Panics if `m < 2` or `scatter_ratio` is outside `(0, 1]`.
    pub fn psk(m: usize, scatter_ratio: f64) -> Self {
        assert!(m >= 2, "a constellation needs at least 2 states");
        Self::check_ratio(scatter_ratio);
        let points = (0..m)
            .map(|k| {
                Complex::from_phase(2.0 * std::f64::consts::PI * (k as f64) / (m as f64))
                    .scale(scatter_ratio)
            })
            .collect();
        TagConstellation {
            points,
            scatter_ratio,
        }
    }

    fn check_ratio(scatter_ratio: f64) {
        assert!(
            scatter_ratio.is_finite() && scatter_ratio > 0.0 && scatter_ratio <= 1.0,
            "scatter ratio must lie in (0, 1]"
        );
    }

    /// Number of states M.
    pub fn order(&self) -> usize {
        self.points.len()
    }

    /// The amplitude scatter ratio α (the peak state magnitude).
    pub fn scatter_ratio(&self) -> f64 {
        self.scatter_ratio
    }

    /// The reflection states, in modulation-index order.
    pub fn points(&self) -> &[Complex] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psk_states_are_equispaced_on_the_alpha_circle() {
        let c = TagConstellation::psk(8, 0.7);
        assert_eq!(c.order(), 8);
        for (k, p) in c.points().iter().enumerate() {
            assert!((p.abs() - 0.7).abs() < 1e-12);
            let expect = 2.0 * std::f64::consts::PI * (k as f64) / 8.0;
            let mut diff = (p.arg() - expect).rem_euclid(2.0 * std::f64::consts::PI);
            if diff > std::f64::consts::PI {
                diff -= 2.0 * std::f64::consts::PI;
            }
            assert!(diff.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 states")]
    fn psk_needs_two_states() {
        let _ = TagConstellation::psk(1, 0.5);
    }

    #[test]
    #[should_panic(expected = "scatter ratio")]
    fn scatter_ratio_above_one_panics() {
        let _ = TagConstellation::psk(4, 1.5);
    }
}
