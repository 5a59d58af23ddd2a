//! Modulation schemes and their link-level properties.
//!
//! §1 of the paper: "to achieve ultra-low-power communication, backscatter
//! systems have to use simple data modulation schemes such as on-off keying
//! (OOK) or binary phase-shift keying (BPSK). Unfortunately, these schemes
//! have very low spectral efficiencies." We model the simple schemes a
//! backscatter tag can realize plus the higher-order ones an *active* radio
//! would use, so the comparison tables can quantify that trade.

use crate::ber;
use mmtag_rf::units::{Bandwidth, DataRate, Db};

/// A digital modulation scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// On-off keying: reflect = mark, absorb = space (§6). What the mmTag
    /// switch hardware realizes directly. Demodulated coherently.
    Ook,
    /// Binary phase-shift keying: antipodal signaling. A backscatter tag can
    /// realize it with a 0°/180° reflection network; the paper's "ASK needs
    /// 7 dB for BER 10⁻³" figure corresponds to this antipodal curve.
    Bpsk,
    /// Quadrature PSK (active radios, or four-state reflection networks).
    Qpsk,
    /// 16-QAM (active radios only).
    Qam16,
    /// 64-QAM (active radios only).
    Qam64,
}

impl Modulation {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Ook | Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Theoretical bit error rate at mean SNR per bit (`Eb/N0`, linear).
    pub fn ber(self, eb_n0: f64) -> f64 {
        match self {
            Modulation::Ook => ber::ook_coherent_ber(eb_n0),
            Modulation::Bpsk => ber::bpsk_ber(eb_n0),
            Modulation::Qpsk => ber::bpsk_ber(eb_n0), // same per-bit curve
            Modulation::Qam16 => ber::mqam_ber(16, eb_n0),
            Modulation::Qam64 => ber::mqam_ber(64, eb_n0),
        }
    }

    /// `Eb/N0` (dB) required to hit `target_ber`, by numeric inversion. A
    /// test reference: E05 inverts the curves of [`crate::ber`] directly;
    /// this module's and the property tests check the per-scheme curves
    /// (§8's 7 dB for BER 10⁻³ among them) through it.
    pub fn required_eb_n0(self, target_ber: f64) -> Db {
        ber::required_eb_n0_db(|x| self.ber(x), target_ber)
    }

    /// Symbol rate that fits in `bandwidth` with the paper's conservative
    /// occupancy rule (symbol rate = B/2: main lobe within the channel).
    pub fn symbol_rate(self, bandwidth: Bandwidth) -> f64 {
        bandwidth.hz() / 2.0
    }

    /// Raw bit rate in `bandwidth` under the B/2 symbol-rate rule — the rule
    /// that turns the paper's 2 GHz / 200 MHz / 20 MHz bandwidths into the
    /// 1 Gbps / 100 Mbps / 10 Mbps annotations of Fig. 7.
    pub fn bit_rate(self, bandwidth: Bandwidth) -> DataRate {
        DataRate::from_bps(self.symbol_rate(bandwidth) * self.bits_per_symbol() as f64)
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Ook => "OOK",
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16-QAM",
            Modulation::Qam64 => "64-QAM",
        }
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rate_mapping_2ghz_is_1gbps() {
        // Fig. 7: 2 GHz bandwidth ⇔ 1 Gbps OOK.
        let r = Modulation::Ook.bit_rate(Bandwidth::from_ghz(2.0));
        assert!((r.gbps() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_rate_mapping_200mhz_is_100mbps() {
        let r = Modulation::Ook.bit_rate(Bandwidth::from_mhz(200.0));
        assert!((r.mbps() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn paper_rate_mapping_20mhz_is_10mbps() {
        let r = Modulation::Ook.bit_rate(Bandwidth::from_mhz(20.0));
        assert!((r.mbps() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn bpsk_needs_about_7db_for_1e3() {
        // §8: "ASK modulation requires SNR of 7 dB to achieve BER of 10⁻³"
        // — the antipodal binary curve: Q(√(2·Eb/N0)) = 10⁻³ at 6.8 dB.
        let snr = Modulation::Bpsk.required_eb_n0(1e-3);
        assert!((snr.db() - 6.8).abs() < 0.2, "BPSK needs {snr}");
    }

    #[test]
    fn ook_needs_3db_more_than_bpsk() {
        let ook = Modulation::Ook.required_eb_n0(1e-3);
        let bpsk = Modulation::Bpsk.required_eb_n0(1e-3);
        assert!((ook.db() - bpsk.db() - 3.0).abs() < 0.1);
    }

    #[test]
    fn higher_order_needs_more_snr() {
        let b = Modulation::Bpsk.required_eb_n0(1e-3).db();
        let q16 = Modulation::Qam16.required_eb_n0(1e-3).db();
        let q64 = Modulation::Qam64.required_eb_n0(1e-3).db();
        assert!(b < q16 && q16 < q64);
    }

    #[test]
    fn qam_rate_scales_with_bits_per_symbol() {
        let b = Bandwidth::from_mhz(100.0);
        assert_eq!(
            Modulation::Qam16.bit_rate(b).bps(),
            4.0 * Modulation::Ook.bit_rate(b).bps()
        );
    }
}
