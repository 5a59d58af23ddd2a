//! Conventional phased array — the baseline mmTag is designed to avoid.
//!
//! §5 of the paper: "a steerable directional antenna is typically implemented
//! using a phased array… phased arrays have high power consumption (a few
//! watts) and are costly (hundreds of dollars)". We model one anyway, for two
//! reasons: the *reader* is allowed to use one (it has wall power), and the
//! energy comparison tables need a concrete number for the alternative the
//! tag rejects: its DC power.

use crate::array::LinearArray;

/// A phased array's DC power model.
#[derive(Clone, Debug)]
pub struct PhasedArray {
    array: LinearArray,
    /// DC power drawn by one phase-shifter + driver chain, watts.
    per_element_power_w: f64,
}

impl PhasedArray {
    /// A typical commercial 24 GHz phased array: ~150 mW per element chain
    /// (4-bit shifter + LNA/PA share + splitter) — the "few watts" regime
    /// of [2, 22] once you reach 16–64 elements.
    pub fn typical(n: usize) -> Self {
        PhasedArray {
            array: LinearArray::half_wavelength(n),
            per_element_power_w: 0.150,
        }
    }

    /// Total DC power, watts. This is the number that rules phased arrays
    /// out for a backscatter tag.
    pub fn dc_power_w(&self) -> f64 {
        self.per_element_power_w * self.array.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_watts_scale_for_realistic_sizes() {
        // §5: "high power consumption (a few watts)". A 16–32 element array
        // at 150 mW/element lands at 2.4–4.8 W.
        assert!((PhasedArray::typical(16).dc_power_w() - 2.4).abs() < 1e-9);
        assert!(PhasedArray::typical(32).dc_power_w() > 4.0);
    }
}
