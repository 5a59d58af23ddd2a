//! Atmospheric gaseous absorption.
//!
//! §7, footnote 3: "our design can be easily tuned to higher frequency bands
//! (such as 60 GHz)". The question a designer asks before doing that is
//! whether the 60 GHz oxygen absorption line matters at backscatter ranges.
//! This module carries a piecewise-log-linear fit of the ITU-R P.676 sea-level
//! specific-attenuation curve (oxygen + standard water vapour), good to a few
//! tenths of dB/km in the windows and capturing the 60 GHz O₂ peak — more
//! than enough to answer "is it negligible at 12 ft?" (it is: see the E11
//! experiment).

use mmtag_rf::units::{Db, Distance, Frequency};

/// Anchor points (GHz, dB/km) from ITU-R P.676 at sea level, 7.5 g/m³ vapour.
const ANCHORS: &[(f64, f64)] = &[
    (1.0, 0.005),
    (10.0, 0.01),
    (22.2, 0.2),  // water-vapour line
    (24.0, 0.15), // the mmTag ISM band sits just past the 22 GHz line
    (39.0, 0.1),
    (50.0, 0.4),
    (60.0, 15.0), // the O₂ absorption peak
    (70.0, 1.0),
    (77.0, 0.4),
    (100.0, 0.5),
];

/// Specific atmospheric attenuation at `freq`, dB per kilometer.
///
/// Piecewise log-log interpolation between the ITU anchor points; clamped to
/// the end anchors outside 1–100 GHz.
pub fn specific_attenuation_db_per_km(freq: Frequency) -> f64 {
    let f = freq.ghz();
    if f <= ANCHORS[0].0 {
        return ANCHORS[0].1;
    }
    for w in ANCHORS.windows(2) {
        let (f0, a0) = w[0];
        let (f1, a1) = w[1];
        if f <= f1 {
            let t = (f.ln() - f0.ln()) / (f1.ln() - f0.ln());
            return (a0.ln() + t * (a1.ln() - a0.ln())).exp();
        }
    }
    ANCHORS[ANCHORS.len() - 1].1
}

/// Total gaseous absorption over a path.
pub fn path_absorption(freq: Frequency, distance: Distance) -> Db {
    Db::new(specific_attenuation_db_per_km(freq) * distance.meters() / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oxygen_peak_at_60ghz() {
        let a60 = specific_attenuation_db_per_km(Frequency::from_ghz(60.0));
        let a24 = specific_attenuation_db_per_km(Frequency::from_ghz(24.0));
        assert!((a60 - 15.0).abs() < 1e-9);
        assert!(a60 / a24 > 50.0, "60 GHz must dwarf 24 GHz: {a60} vs {a24}");
    }

    #[test]
    fn interpolation_is_monotone_into_the_peak() {
        let a50 = specific_attenuation_db_per_km(Frequency::from_ghz(50.0));
        let a55 = specific_attenuation_db_per_km(Frequency::from_ghz(55.0));
        let a60 = specific_attenuation_db_per_km(Frequency::from_ghz(60.0));
        assert!(a50 < a55 && a55 < a60);
    }

    #[test]
    fn absorption_at_backscatter_range_is_negligible_even_at_60ghz() {
        // The E11 design question: 15 dB/km over 12 ft (3.66 m) is 0.055 dB.
        let loss = path_absorption(Frequency::from_ghz(60.0), Distance::from_feet(12.0));
        assert!(loss.db() < 0.1, "60 GHz over 12 ft costs {loss}");
    }

    #[test]
    fn clamps_outside_fit_range() {
        assert_eq!(
            specific_attenuation_db_per_km(Frequency::from_mhz(500.0)),
            0.005
        );
        assert_eq!(
            specific_attenuation_db_per_km(Frequency::from_ghz(150.0)),
            0.5
        );
    }
}
