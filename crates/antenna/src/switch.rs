//! The RF switch that modulates the tag.
//!
//! §6–§7 of the paper: each antenna element is connected to ground through a
//! FET switch (CEL CE3520K3, "costs only 60 cents… the only mmWave component
//! used in our tag"). Driving the gate toggles the element between its tuned
//! (reflective) and shorted (non-reflective) states; the data stream on the
//! gate line is the OOK modulator.
//!
//! The switch matters to the rest of the stack through exactly two things:
//!
//! 1. the impedance it presents in each state (consumed by
//!    [`sparams`](crate::sparams) to produce Fig. 6),
//! 2. the energy it burns per transition (`C·V²` gate charging — the
//!    dominant term in the tag's power budget, see `mmtag::energy`).

use mmtag_rf::units::Frequency;
use mmtag_rf::Complex;

/// A two-state FET RF switch between an antenna element and ground.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RfSwitch {
    /// Channel resistance when conducting (switch "on"), ohms.
    pub on_resistance_ohms: f64,
    /// Drain-source capacitance when pinched off (switch "off"), farads.
    pub off_capacitance_f: f64,
    /// Parasitic series inductance of the via/bond path to ground, henries.
    pub series_inductance_h: f64,
    /// Effective gate capacitance seen by the driver, farads.
    pub gate_capacitance_f: f64,
    /// Gate drive voltage swing, volts.
    pub gate_swing_v: f64,
    /// Unit cost, USD.
    pub cost_usd: f64,
}

impl RfSwitch {
    /// Model of the CEL CE3520K3-class GaAs FET used by the prototype (§7):
    /// low on-resistance, fraction-of-a-pF parasitics, sub-volt-nanosecond
    /// gate, $0.60 unit cost.
    pub fn ce3520k3() -> Self {
        RfSwitch {
            on_resistance_ohms: 18.0,
            off_capacitance_f: 0.08e-12,
            series_inductance_h: 0.05e-9,
            gate_capacitance_f: 0.25e-12,
            gate_swing_v: 1.0,
            cost_usd: 0.60,
        }
    }

    /// Impedance of the shorting branch (switch conducting) at `f`:
    /// `R_on + jωL_series`.
    pub fn on_impedance(&self, f: Frequency) -> Complex {
        let w = std::f64::consts::TAU * f.hz();
        Complex::new(self.on_resistance_ohms, w * self.series_inductance_h)
    }

    /// Energy to charge/discharge the gate once: `C·V²` joules per
    /// transition (the driver dissipates CV² per full cycle; we book the
    /// per-transition half at each edge for rate-dependent accounting).
    pub fn energy_per_transition_j(&self) -> f64 {
        0.5 * self.gate_capacitance_f * self.gate_swing_v * self.gate_swing_v
    }

    /// Average modulation drive power at `toggle_rate` transitions/second.
    ///
    /// For random OOK data at symbol rate `R`, the expected transition rate
    /// is `R/2`; callers apply that factor.
    pub fn drive_power_w(&self, toggle_rate_hz: f64) -> f64 {
        self.energy_per_transition_j() * toggle_rate_hz
    }
}

impl Default for RfSwitch {
    fn default() -> Self {
        Self::ce3520k3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_impedance_is_inductive_short_at_24ghz() {
        let sw = RfSwitch::ce3520k3();
        let z = sw.on_impedance(Frequency::from_ghz(24.0));
        assert!((z.re - 18.0).abs() < 1e-9);
        // ωL = 2π·24 GHz·0.05 nH ≈ 7.54 Ω: a true short — the inductance
        // is kept low (short via under the patch) so the shorted element is
        // broadband-detuned, which is what makes Fig. 6's on-curve flat.
        assert!((z.im - 7.54).abs() < 0.05, "im = {}", z.im);
    }

    #[test]
    fn gate_energy_is_sub_picojoule() {
        let sw = RfSwitch::ce3520k3();
        let e = sw.energy_per_transition_j();
        // 0.5 · 0.25 pF · 1 V² = 0.125 pJ
        assert!((e - 0.125e-12).abs() < 1e-18);
    }

    #[test]
    fn gbps_modulation_costs_microwatts_not_milliwatts() {
        // The batteryless claim hinges on this: OOK at 1 Gbps means ~5·10⁸
        // expected transitions/s, so drive power ≈ 62 µW — orders below any
        // active mmWave radio.
        let sw = RfSwitch::ce3520k3();
        let p = sw.drive_power_w(0.5e9);
        assert!(p > 10e-6 && p < 200e-6, "drive power = {p} W");
    }
}
