//! Friis free-space path loss.
//!
//! §2.2 of the paper: mmWave signals "decay very quickly with distance" — not
//! because free space is different at 24 GHz, but because the λ² term in the
//! Friis equation shrinks. One-way loss:
//!
//! ```text
//! FSPL(d) = 20·log10(4πd / λ)  dB
//! ```

use mmtag_rf::units::{Db, Dbi, Dbm, Distance, Frequency};

/// One-way free-space path loss between isotropic antennas at `distance`.
///
/// # Panics
/// Panics if `distance` is not strictly positive — a zero-length path has no
/// meaningful far-field loss and indicates a scene bug.
pub fn free_space_path_loss(freq: Frequency, distance: Distance) -> Db {
    assert!(
        distance.meters() > 0.0,
        "path loss needs a positive distance"
    );
    let lambda = freq.wavelength().meters();
    let ratio = 4.0 * std::f64::consts::PI * distance.meters() / lambda;
    Db::new(20.0 * ratio.log10())
}

/// One-way Friis received power: `Pr = Pt + Gt + Gr − FSPL(d)`.
///
/// A test reference: no scenario calls it; this module's and the property
/// tests check it, and the radar model's tests check the bistatic
/// backscatter budget against two Friis legs composed through it.
pub fn friis_received_power(
    tx_power: Dbm,
    tx_gain: Dbi,
    rx_gain: Dbi,
    freq: Frequency,
    distance: Distance,
) -> Dbm {
    tx_power + tx_gain.as_db() + rx_gain.as_db() - free_space_path_loss(freq, distance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fspl_doubles_distance_adds_6db() {
        let f = Frequency::from_ghz(24.0);
        let l1 = free_space_path_loss(f, Distance::from_meters(1.0));
        let l2 = free_space_path_loss(f, Distance::from_meters(2.0));
        assert!((l2.db() - l1.db() - 6.0206).abs() < 1e-4);
    }

    #[test]
    fn fspl_at_24ghz_1m_is_60db() {
        // 20·log10(4π·1/0.01249) ≈ 60.06 dB — the "mmWave decays quickly"
        // number (2.4 GHz would be 40 dB).
        let l = free_space_path_loss(Frequency::from_ghz(24.0), Distance::from_meters(1.0));
        assert!((l.db() - 60.06).abs() < 0.05, "FSPL = {l}");
    }

    #[test]
    fn mmwave_penalty_over_wifi_is_20db() {
        let d = Distance::from_meters(3.0);
        let l24 = free_space_path_loss(Frequency::from_ghz(24.0), d);
        let l24g = free_space_path_loss(Frequency::from_ghz(2.4), d);
        assert!((l24.db() - l24g.db() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn friis_composes_gains() {
        let p = friis_received_power(
            Dbm::from_mw(20.0),
            Dbi::new(20.0),
            Dbi::new(20.0),
            Frequency::from_ghz(24.0),
            Distance::from_meters(1.0),
        );
        assert!((p.dbm() - (13.01 + 40.0 - 60.06)).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "positive distance")]
    fn zero_distance_is_a_bug() {
        let _ = free_space_path_loss(Frequency::from_ghz(24.0), Distance::from_meters(0.0));
    }
}
