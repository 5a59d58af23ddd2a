//! Energy-storage dynamics: capacitor-buffered burst operation.
//!
//! The steady-state duty-cycle math in [`crate::energy`] assumes an
//! infinitely deep buffer. A real batteryless tag stores harvested charge
//! on a capacitor and *bursts*: charge to `v_max`, transmit until `v_min`,
//! repeat. Burst length and period set the latency/throughput envelope an
//! application actually experiences (an AR stream needs long bursts; a
//! sensor beacon doesn't care). This module simulates that charge/discharge
//! cycle exactly (piecewise-constant power, quadratic-in-voltage energy)
//! and answers: with this capacitor and this harvester, how long can the
//! tag talk, how long must it sleep, and what does a frame's latency look
//! like?

use crate::energy::{EnergyBudget, Harvester};
use mmtag_sim::time::Duration;

/// A storage capacitor with usable voltage window `[v_min, v_max]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StorageCap {
    /// Capacitance, farads.
    pub capacitance_f: f64,
    /// Regulator drop-out voltage — below this the tag browns out.
    pub v_min: f64,
    /// Fully-charged voltage.
    pub v_max: f64,
}

impl StorageCap {
    /// Creates a capacitor, validating the voltage window.
    ///
    /// # Panics
    /// Panics unless `0 ≤ v_min < v_max` and capacitance is positive.
    pub fn new(capacitance_f: f64, v_min: f64, v_max: f64) -> Self {
        assert!(capacitance_f > 0.0, "capacitance must be positive");
        assert!(0.0 <= v_min && v_min < v_max, "need 0 ≤ v_min < v_max");
        StorageCap {
            capacitance_f,
            v_min,
            v_max,
        }
    }

    /// Usable energy between the window edges: `½C(v_max² − v_min²)`.
    pub fn usable_energy_j(&self) -> f64 {
        0.5 * self.capacitance_f * (self.v_max * self.v_max - self.v_min * self.v_min)
    }
}

/// The steady-state burst cycle of a harvester + capacitor + load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstCycle {
    /// Transmit (burst) time per cycle.
    pub burst: Duration,
    /// Recharge (sleep) time per cycle.
    pub recharge: Duration,
    /// Fraction of time transmitting.
    pub duty_cycle: f64,
}

impl BurstCycle {
    /// Total cycle period. A test reference: E18 reads the burst and the
    /// duty cycle; this module's and the core property tests check the
    /// cycle's energy balance over it.
    pub fn period(&self) -> Duration {
        self.burst + self.recharge
    }
}

/// Computes the steady-state burst cycle for a tag with `budget` powered by
/// `harvester` through `cap`.
///
/// During a burst the cap discharges at `P_active − P_harvest`; during
/// recharge it refills at `P_harvest − P_logic`. Returns `None` when the
/// harvester cannot even carry the logic (the tag never wakes), and a
/// degenerate all-burst cycle when the harvester covers the active load
/// outright (no sleep needed).
pub fn steady_state_cycle(
    budget: &EnergyBudget,
    harvester: Harvester,
    cap: &StorageCap,
) -> Option<BurstCycle> {
    let p_h = harvester.power_w();
    if p_h <= budget.logic_w {
        return None;
    }
    let p_active = budget.active_w();
    if p_h >= p_active {
        return Some(BurstCycle {
            burst: Duration::from_secs(1),
            recharge: Duration::ZERO,
            duty_cycle: 1.0,
        });
    }
    let e = cap.usable_energy_j();
    let burst_s = e / (p_active - p_h);
    let recharge_s = e / (p_h - budget.logic_w);
    let duty = burst_s / (burst_s + recharge_s);
    Some(BurstCycle {
        burst: Duration::from_secs_f64(burst_s),
        recharge: Duration::from_secs_f64(recharge_s),
        duty_cycle: duty,
    })
}

/// Bits deliverable per burst at `rate_bps`.
pub fn bits_per_burst(cycle: &BurstCycle, rate_bps: f64) -> f64 {
    assert!(rate_bps > 0.0, "rate must be positive");
    cycle.burst.as_secs_f64() * rate_bps
}

/// Long-run average throughput of the burst cycle at `rate_bps`.
pub fn average_throughput_bps(cycle: &BurstCycle, rate_bps: f64) -> f64 {
    rate_bps * cycle.duty_cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::MmTag;
    use mmtag_rf::units::DataRate;

    /// A typical 100 µF ceramic bank, 1.8–3.3 V window.
    fn ceramic_100uf() -> StorageCap {
        StorageCap::new(100e-6, 1.8, 3.3)
    }

    fn gbps_budget() -> EnergyBudget {
        EnergyBudget::for_tag(&MmTag::prototype(), DataRate::from_gbps(1.0))
    }

    #[test]
    fn usable_energy_quadratic_in_voltage() {
        let cap = ceramic_100uf();
        // ½·100µF·(3.3² − 1.8²) = 382.5 µJ.
        assert!((cap.usable_energy_j() - 382.5e-6).abs() < 1e-9);
    }

    #[test]
    fn burst_cycle_steady_state_balances_energy() {
        let b = gbps_budget();
        let solar = Harvester::IndoorSolar { area_cm2: 10.0 };
        let cap = ceramic_100uf();
        let cycle = steady_state_cycle(&b, solar, &cap).unwrap();
        // Energy balance: harvested over the period = consumed over it.
        let p_h = solar.power_w();
        let harvested = p_h * cycle.period().as_secs_f64();
        let consumed =
            b.active_w() * cycle.burst.as_secs_f64() + b.logic_w * cycle.recharge.as_secs_f64();
        assert!(
            (harvested - consumed).abs() / consumed < 1e-6,
            "harvest {harvested} vs consume {consumed}"
        );
        // And the duty cycle matches the steady-state formula of
        // `energy::sustainable_duty_cycle` (the cap only shapes the bursts,
        // not the long-run average).
        let duty_ref = b.sustainable_duty_cycle(solar);
        assert!(
            (cycle.duty_cycle - duty_ref).abs() < 0.01,
            "{} vs {duty_ref}",
            cycle.duty_cycle
        );
    }

    #[test]
    fn bigger_cap_means_longer_bursts_same_duty() {
        let b = gbps_budget();
        let solar = Harvester::IndoorSolar { area_cm2: 10.0 };
        let small = steady_state_cycle(&b, solar, &StorageCap::new(10e-6, 1.8, 3.3)).unwrap();
        let big = steady_state_cycle(&b, solar, &StorageCap::new(1e-3, 1.8, 3.3)).unwrap();
        assert!(big.burst > small.burst);
        assert!((big.duty_cycle - small.duty_cycle).abs() < 1e-9);
    }

    #[test]
    fn burst_carries_useful_payload_at_gbps() {
        // 100 µF, 10 cm² solar, 1 Gbps: the burst must carry at least a
        // megabit — enough for real frames, not just beacons.
        let b = gbps_budget();
        let cycle = steady_state_cycle(
            &b,
            Harvester::IndoorSolar { area_cm2: 10.0 },
            &ceramic_100uf(),
        )
        .unwrap();
        let bits = bits_per_burst(&cycle, 1e9);
        assert!(bits > 1e6, "bits per burst = {bits}");
    }

    #[test]
    fn starved_harvester_never_wakes() {
        let b = gbps_budget();
        let cycle = steady_state_cycle(
            &b,
            Harvester::RfRectenna { dc_power_w: 0.1e-6 },
            &ceramic_100uf(),
        );
        assert!(cycle.is_none());
    }

    #[test]
    fn surplus_harvester_runs_continuously() {
        let b = gbps_budget();
        let cycle = steady_state_cycle(
            &b,
            Harvester::RfRectenna { dc_power_w: 10e-3 },
            &ceramic_100uf(),
        )
        .unwrap();
        assert_eq!(cycle.duty_cycle, 1.0);
        assert_eq!(cycle.recharge, Duration::ZERO);
    }

    #[test]
    fn average_throughput_is_rate_times_duty() {
        let b = gbps_budget();
        let cycle = steady_state_cycle(&b, Harvester::Vibration, &ceramic_100uf()).unwrap();
        let avg = average_throughput_bps(&cycle, 1e9);
        assert!((avg - 1e9 * cycle.duty_cycle).abs() < 1.0);
        assert!(avg > 1e8, "vibration sustains {avg} bps on average");
    }

    #[test]
    #[should_panic(expected = "v_min < v_max")]
    fn inverted_window_is_a_bug() {
        let _ = StorageCap::new(1e-6, 3.3, 1.8);
    }
}
