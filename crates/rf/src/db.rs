//! Decibel ↔ linear conversions.
//!
//! Link-budget code is dominated by dB arithmetic; getting a factor of 10/20
//! wrong is the classic RF bug. These four free functions are the only place
//! in the library where the conversion appears, and the typed wrappers in
//! [`crate::units`] build on them.

/// Converts a linear *power* ratio to decibels: `10·log10(x)`.
///
/// Returns `-inf` for `x == 0` (a perfectly valid "no signal" value in link
/// budgets) and NaN for negative input.
#[inline]
pub fn lin_to_db(x: f64) -> f64 {
    10.0 * x.log10()
}

/// Converts decibels to a linear *power* ratio: `10^(x/10)`.
#[inline]
pub fn db_to_lin(x: f64) -> f64 {
    10f64.powf(x / 10.0)
}

/// Converts power in milliwatts to dBm.
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    lin_to_db(mw)
}

/// Converts dBm to milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    db_to_lin(dbm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_anchors() {
        assert!((lin_to_db(1.0)).abs() < 1e-12);
        assert!((lin_to_db(10.0) - 10.0).abs() < 1e-12);
        assert!((lin_to_db(2.0) - 3.0103).abs() < 1e-4);
        assert!((lin_to_db(0.5) + 3.0103).abs() < 1e-4);
    }

    #[test]
    fn paper_tx_power_20mw_is_13dbm() {
        // §7: "The reader's peak transmission power is set to 20 milliwatt".
        assert!((mw_to_dbm(20.0) - 13.0103).abs() < 1e-4);
    }

    #[test]
    fn zero_power_is_negative_infinity() {
        assert_eq!(lin_to_db(0.0), f64::NEG_INFINITY);
        assert_eq!(db_to_lin(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn roundtrips() {
        for x in [1e-9, 1e-3, 1.0, 42.0, 1e6] {
            assert!((db_to_lin(lin_to_db(x)) - x).abs() / x < 1e-12);
        }
    }
}
