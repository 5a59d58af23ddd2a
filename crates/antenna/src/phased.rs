//! Conventional phased array — the baseline mmTag is designed to avoid.
//!
//! §5 of the paper: "a steerable directional antenna is typically implemented
//! using a phased array… phased arrays have high power consumption (a few
//! watts) and are costly (hundreds of dollars)". We model one anyway, for two
//! reasons: the *reader* is allowed to use one (it has wall power), and the
//! energy/cost comparison tables need concrete numbers for the alternative
//! the tag rejects: its DC power and component cost.

use crate::array::LinearArray;

/// A phased array with `B`-bit quantized phase shifters and a power model.
#[derive(Clone, Debug)]
pub struct PhasedArray {
    array: LinearArray,
    /// DC power drawn by one phase-shifter + driver chain, watts.
    per_element_power_w: f64,
    /// Component cost of one element chain, USD.
    per_element_cost_usd: f64,
}

impl PhasedArray {
    /// A typical commercial 24 GHz phased array: 4-bit shifters, ~150 mW and
    /// ~$15 per element chain (shifter + LNA/PA share + splitter) — the
    /// "few watts, hundreds of dollars" regime of [2, 22] once you reach
    /// 16–64 elements.
    pub fn typical(n: usize) -> Self {
        PhasedArray {
            array: LinearArray::half_wavelength(n),
            per_element_power_w: 0.150,
            per_element_cost_usd: 15.0,
        }
    }

    /// The underlying geometry.
    pub fn array(&self) -> &LinearArray {
        &self.array
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Always false; arrays have ≥ 1 element.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total DC power, watts. This is the number that rules phased arrays
    /// out for a backscatter tag.
    pub fn dc_power_w(&self) -> f64 {
        self.per_element_power_w * self.array.len() as f64
    }

    /// Total component cost, USD.
    pub fn cost_usd(&self) -> f64 {
        self.per_element_cost_usd * self.array.len() as f64
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

    #[test]
    fn cost_is_hundreds_of_dollars_for_realistic_sizes() {
        // §5: "costly (hundreds of dollars)".
        assert!(PhasedArray::typical(32).cost_usd() >= 400.0);
    }
}
