//! Special functions for BER theory.
//!
//! The PHY layer's closed-form bit-error-rate curves are all expressed in
//! terms of the Gaussian Q-function. `f64::erf` is not in std, so we carry a
//! high-accuracy rational approximation (abs error < 1.2e-7, which is far
//! below Monte-Carlo noise at any bit count we simulate) plus an exact-enough
//! inverse obtained by bisection, used to answer "what SNR do I need for BER
//! 10⁻³?" — the question Fig. 7's rate annotations hinge on.

/// Complementary error function `erfc(x)`.
///
/// Uses the Numerical-Recipes Chebyshev fit; absolute error below 1.2e-7 over
/// the full real line, and correct asymptotics as `x → ±∞`.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian Q-function: the probability that a standard normal exceeds `x`.
///
/// `Q(x) = 0.5·erfc(x/√2)`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse of the Q-function on `(0, 1)`, by bisection.
///
/// Accurate to ~1e-10 in the argument, far tighter than any link-budget use.
/// Returns `+inf` for `p <= 0` and `-inf` for `p >= 1`.
///
/// A test reference: no scenario calls it; this module's and the property
/// tests check it, and `phy::ber`'s tests check the BER-curve inversion
/// `required_eb_n0_db` against the closed form it gives.
pub fn q_inverse(p: f64) -> f64 {
    if p <= 0.0 {
        return f64::INFINITY;
    }
    if p >= 1.0 {
        return f64::NEG_INFINITY;
    }
    let (mut lo, mut hi) = (-40.0_f64, 40.0_f64);
    // Q is strictly decreasing; bisect until the interval collapses.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_function(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Normalized sinc `sin(πx)/(πx)`, with the removable singularity handled.
pub fn sinc(x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_anchor_values() {
        // Reference values from tables.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn erf_is_odd() {
        // erf = 1 − erfc is odd, so erfc(x) + erfc(−x) = 2.
        for x in [0.1, 0.5, 1.0, 2.0, 3.0] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-7);
        }
    }

    #[test]
    fn q_function_anchors() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        // Q(1.2816) ≈ 0.10, Q(3.0902) ≈ 1e-3
        assert!((q_function(1.2816) - 0.10).abs() < 1e-4);
        assert!((q_function(3.0902) - 1e-3).abs() < 2e-5);
    }

    #[test]
    fn q_inverse_roundtrip() {
        for p in [0.4, 0.1, 1e-2, 1e-3, 1e-6] {
            let x = q_inverse(p);
            assert!(
                (q_function(x) - p).abs() / p < 1e-5,
                "p={p} x={x} Q(x)={}",
                q_function(x)
            );
        }
    }

    #[test]
    fn q_inverse_edge_cases() {
        assert_eq!(q_inverse(0.0), f64::INFINITY);
        assert_eq!(q_inverse(1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn sinc_values() {
        assert_eq!(sinc(0.0), 1.0);
        assert!(sinc(1.0).abs() < 1e-12);
        assert!(sinc(2.0).abs() < 1e-12);
        assert!((sinc(0.5) - 2.0 / std::f64::consts::PI).abs() < 1e-12);
    }
}
