//! The bandwidth → data-rate mapping of Fig. 7, and rate adaptation.
//!
//! §8: "The received powers are measured empirically and the corresponding
//! data rates are computed by substituting the power measurements into
//! standard data rate tables based on the ASK modulation and BER of 10⁻³."
//!
//! Concretely: the reader chooses a receive bandwidth `B`; its noise floor is
//! `kTB·NF`; if the tag's signal clears that floor by the 7 dB ASK threshold,
//! the link sustains OOK at `B/2` bits/s — the conservative occupancy rule
//! (symbol rate `B/2` keeps the main lobe within the channel) at one bit per
//! OOK symbol, which turns Fig. 7's 2 GHz / 200 MHz / 20 MHz into its
//! 1 Gbps / 100 Mbps / 10 Mbps annotations. [`RateAdaptation`] walks a ladder
//! of bandwidths from widest to narrowest and returns the fastest rung the
//! measured power supports — exactly how the paper reads 1 Gbps @ 4 ft and
//! 10 Mbps @ 10 ft off its own figure.

use crate::ber::PAPER_ASK_SNR_DB;
use mmtag_channel::NoiseModel;
use mmtag_rf::units::{Bandwidth, DataRate, Db, Dbm};

/// One rung of the adaptation ladder: a bandwidth and the rate it yields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateRung {
    /// Receiver bandwidth of this rung.
    pub bandwidth: Bandwidth,
    /// Data rate if this rung's SNR threshold is met.
    pub rate: DataRate,
}

/// Bandwidth-ladder rate adaptation for an OOK backscatter link.
#[derive(Clone, Debug)]
pub struct RateAdaptation {
    noise: NoiseModel,
    required_snr: Db,
    ladder: Vec<RateRung>,
}

impl RateAdaptation {
    /// The paper's configuration: NF = 5 dB receiver, OOK, 7 dB threshold,
    /// and the three bandwidths plotted in Fig. 7 (2 GHz, 200 MHz, 20 MHz)
    /// extended downward to 2 MHz and 200 kHz so the model degrades
    /// gracefully past 12 ft instead of cliffing to zero.
    pub fn paper_ladder() -> Self {
        Self::new(
            NoiseModel::mmtag_reader(),
            Db::new(PAPER_ASK_SNR_DB),
            &[
                Bandwidth::from_ghz(2.0),
                Bandwidth::from_mhz(200.0),
                Bandwidth::from_mhz(20.0),
                Bandwidth::from_mhz(2.0),
                Bandwidth::from_khz(200.0),
            ],
        )
    }

    /// Builds an OOK ladder from arbitrary bandwidths (sorted widest-first
    /// internally); each rung carries `B/2` bits/s.
    pub fn new(noise: NoiseModel, required_snr: Db, bandwidths: &[Bandwidth]) -> Self {
        assert!(!bandwidths.is_empty(), "ladder needs at least one rung");
        let mut ladder: Vec<RateRung> = bandwidths
            .iter()
            .map(|&b| RateRung {
                bandwidth: b,
                rate: DataRate::from_bps(b.hz() / 2.0),
            })
            .collect();
        ladder.sort_by(|a, b| b.bandwidth.hz().total_cmp(&a.bandwidth.hz()));
        RateAdaptation {
            noise,
            required_snr,
            ladder,
        }
    }

    /// The ladder, widest rung first.
    pub fn rungs(&self) -> &[RateRung] {
        &self.ladder
    }

    /// Minimum received power that sustains a given rung.
    pub fn sensitivity(&self, rung: &RateRung) -> Dbm {
        self.noise.floor(rung.bandwidth) + self.required_snr
    }

    /// The fastest rung the received power sustains, or `None` if even the
    /// narrowest rung's threshold is missed (link outage).
    pub fn best_rung(&self, received: Dbm) -> Option<&RateRung> {
        self.ladder
            .iter()
            .find(|rung| received >= self.sensitivity(rung))
    }

    /// The achievable data rate at `received` power (zero on outage) — the
    /// quantity annotated on Fig. 7.
    pub fn achievable_rate(&self, received: Dbm) -> DataRate {
        self.best_rung(received)
            .map(|r| r.rate)
            .unwrap_or(DataRate::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shannon capacity at `received` over the widest rung: the
    /// information-theoretic ceiling on every rung's rate.
    fn shannon_capacity(ra: &RateAdaptation, received: Dbm) -> DataRate {
        let widest = ra.ladder[0].bandwidth;
        let snr = ra.noise.snr(received, widest).linear();
        DataRate::from_bps(widest.hz() * (1.0 + snr).log2())
    }

    #[test]
    fn paper_ladder_thresholds() {
        // Sensitivities: floor + 7 dB = −68.8 / −78.8 / −88.8 dBm for the
        // three Fig. 7 bandwidths.
        let ra = RateAdaptation::paper_ladder();
        let s: Vec<f64> = ra.rungs().iter().map(|r| ra.sensitivity(r).dbm()).collect();
        assert!((s[0] - (-68.8)).abs() < 0.3, "2 GHz rung at {}", s[0]);
        assert!((s[1] - (-78.8)).abs() < 0.3, "200 MHz rung at {}", s[1]);
        assert!((s[2] - (-88.8)).abs() < 0.3, "20 MHz rung at {}", s[2]);
    }

    #[test]
    fn strong_signal_gets_1gbps() {
        let ra = RateAdaptation::paper_ladder();
        assert!((ra.achievable_rate(Dbm::new(-60.0)).gbps() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn medium_signal_gets_100mbps() {
        let ra = RateAdaptation::paper_ladder();
        assert!((ra.achievable_rate(Dbm::new(-75.0)).mbps() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn weak_signal_gets_10mbps() {
        let ra = RateAdaptation::paper_ladder();
        assert!((ra.achievable_rate(Dbm::new(-85.0)).mbps() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn outage_below_narrowest_rung() {
        let ra = RateAdaptation::paper_ladder();
        // Narrowest extension rung: 200 kHz ⇒ floor ≈ −115.8, +7 ⇒ −108.8.
        assert_eq!(ra.achievable_rate(Dbm::new(-115.0)), DataRate::ZERO);
        assert!(ra.best_rung(Dbm::new(-115.0)).is_none());
    }

    #[test]
    fn rate_is_monotone_in_power() {
        let ra = RateAdaptation::paper_ladder();
        let mut prev = -1.0;
        for p in (-110..-50).step_by(2) {
            let r = ra.achievable_rate(Dbm::new(p as f64)).bps();
            assert!(r >= prev, "rate dipped at {p} dBm");
            prev = r;
        }
    }

    #[test]
    fn exact_threshold_is_sufficient() {
        let ra = RateAdaptation::paper_ladder();
        let rung = &ra.rungs()[0];
        let s = ra.sensitivity(rung);
        assert_eq!(ra.best_rung(s).unwrap().bandwidth.hz(), rung.bandwidth.hz());
    }

    #[test]
    fn shannon_bound_exceeds_ook_rate() {
        let ra = RateAdaptation::paper_ladder();
        for p in [-60.0, -70.0, -80.0] {
            let ook = ra.achievable_rate(Dbm::new(p));
            let cap = shannon_capacity(&ra, Dbm::new(p));
            assert!(cap.bps() > ook.bps(), "at {p} dBm: cap {cap} vs {ook}");
        }
    }

    #[test]
    fn custom_ladder_sorts_widest_first() {
        let ra = RateAdaptation::new(
            NoiseModel::mmtag_reader(),
            Db::new(7.0),
            &[Bandwidth::from_mhz(20.0), Bandwidth::from_ghz(2.0)],
        );
        assert!(ra.rungs()[0].bandwidth.hz() > ra.rungs()[1].bandwidth.hz());
    }

    #[test]
    #[should_panic(expected = "at least one rung")]
    fn empty_ladder_is_a_bug() {
        let _ = RateAdaptation::new(NoiseModel::mmtag_reader(), Db::new(7.0), &[]);
    }
}
