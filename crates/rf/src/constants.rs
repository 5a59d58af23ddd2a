//! Physical constants used across the stack.
//!
//! Values follow CODATA 2018. These are the only numbers in the library that
//! are not either calibrated model parameters or derived quantities.

/// Speed of light in vacuum, m/s (exact by SI definition).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Boltzmann constant, J/K (exact by SI definition).
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Reference "room" temperature used for noise calculations, kelvin.
///
/// The paper computes its noise floors at 300 K (§8 footnote 4); using the
/// conventional 290 K would shift every floor by only 0.15 dB, but we match
/// the paper.
pub const ROOM_TEMPERATURE_K: f64 = 300.0;

/// Characteristic impedance assumed for all one-port S-parameter work, ohms.
pub const Z0_OHMS: f64 = 50.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_noise_near_minus_174() {
        // kT at the room temperature, in dBm/Hz.
        let n = 10.0 * (BOLTZMANN * ROOM_TEMPERATURE_K / 1e-3).log10();
        // −173.98 dBm/Hz at 290 K; at 300 K it is −173.83.
        assert!((n - (-173.83)).abs() < 0.01, "got {n}");
    }
}
