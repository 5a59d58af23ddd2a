//! BPSK backscatter modem — the paper's other feasible scheme (§1).
//!
//! §1: backscatter systems "have to use simple data modulation schemes such
//! as on-off keying (OOK) or binary phase-shift keying (BPSK)". A tag
//! realizes BPSK by switching each element between *two reflective states
//! 180° apart* (e.g. toggling λ/4 of extra line, or swapping a pair's feed
//! polarity). Compared with OOK this keeps full reflection power in both
//! states — antipodal signaling — buying the textbook 3 dB at equal BER,
//! at the cost of needing a coherent reader.
//!
//! The modem mirrors [`crate::waveform::OokModem`]'s shape so experiments
//! swap between them trivially. Its Monte-Carlo BER is a row of a
//! [`crate::waveform::ber_table_par_with`] table ([`BpskModem::detector`],
//! E16): the counter draws each sample's noise as one
//! [`mmtag_rf::rng::Rng::normal_pair`] and reads its cosine branch, the pair layout the
//! OOK rows of the same table read, decides the sign of the matched
//! filter's real part under the certificate OOK decides under, and
//! replays a decision inside its margin through
//! [`mmtag_rf::rng::box_muller_exact`] (DESIGN.md §11). The allocating
//! chain — [`BpskModem::modulate`], `σ·normal_pair()` added per sample,
//! [`BpskModem::demodulate`] — is that row's oracle in this module's
//! tests.

use crate::waveform::{Awgn, Detector};
use mmtag_rf::Complex;

/// Rectangular-pulse BPSK modulator/demodulator (±A antipodal).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BpskModem {
    /// Samples per symbol.
    pub samples_per_symbol: usize,
    /// Symbol amplitude.
    pub amplitude: f64,
}

impl BpskModem {
    /// A modem at the given oversampling, unit amplitude.
    pub fn new(samples_per_symbol: usize) -> Self {
        assert!(samples_per_symbol >= 1, "need at least one sample/symbol");
        BpskModem {
            samples_per_symbol,
            amplitude: 1.0,
        }
    }

    /// The sample level `bit` is sent at: `true → +A`, `false → −A`.
    fn level(&self, bit: bool) -> f64 {
        if bit {
            self.amplitude
        } else {
            -self.amplitude
        }
    }

    /// Modulates bits: `true → +A`, `false → −A`.
    pub fn modulate(&self, bits: &[bool]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(bits.len() * self.samples_per_symbol);
        for &b in bits {
            let a = self.level(b);
            out.extend(std::iter::repeat_n(
                Complex::new(a, 0.0),
                self.samples_per_symbol,
            ));
        }
        out
    }

    /// Energy per bit: `A²·sps` (every symbol carries full energy — the
    /// 3 dB advantage over OOK at equal *peak* power).
    pub fn bit_energy(&self) -> f64 {
        self.amplitude * self.amplitude * self.samples_per_symbol as f64
    }

    /// Matched filter + sign decision.
    pub fn demodulate(&self, samples: &[Complex]) -> Vec<bool> {
        samples
            .chunks_exact(self.samples_per_symbol)
            .map(|chunk| chunk.iter().copied().sum::<Complex>().re > 0.0)
            .collect()
    }

    /// AWGN source calibrated to a mean `Eb/N0` for this waveform.
    pub fn awgn_for(&self, eb_n0_db: f64) -> Awgn {
        let n0 = self.bit_energy() / 10f64.powf(eb_n0_db / 10.0);
        Awgn {
            sigma: (n0 / 2.0).sqrt(),
        }
    }

    /// This modem's detector at a mean `Eb/N0` (dB): levels `∓A`, the
    /// sign of the matched filter's real part (bit `true` above 0), and
    /// the noise of [`BpskModem::awgn_for`].
    pub fn detector(&self, eb_n0_db: f64) -> Detector {
        Detector {
            samples_per_symbol: self.samples_per_symbol,
            levels: [self.level(false), self.level(true)],
            threshold: 0.0,
            above: true,
            sigma: self.awgn_for(eb_n0_db).sigma,
        }
    }
}

impl Default for BpskModem {
    fn default() -> Self {
        Self::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::bpsk_ber;
    use crate::waveform::tests::{
        assert_lanes_match, lane_streams, planted_lanes, recorded_replays, worst_lane_gap, Chain,
        CERT_SNRS_DB, LANE_PLANTS, PLANTED_BITS,
    };
    use crate::waveform::{
        ber_table_par_with, count_certified_lanes, exact_statistic, LaneScratch, OokModem,
        CERT_MARGIN,
    };
    use mmtag_rf::rng::{uniform_pairs, Rng, SeedTree, Xoshiro256pp};

    /// A table of BPSK rows at the certificate's SNR points.
    fn bpsk_rows(sps: usize) -> Vec<(Chain, f64)> {
        let chain = Chain::Bpsk(BpskModem::new(sps));
        CERT_SNRS_DB.iter().map(|&snr| (chain, snr)).collect()
    }

    #[test]
    fn kernel_matches_the_allocating_chain_forced_replay_or_not() {
        // The lane counter under BPSK detectors, lane by lane against the
        // allocating chain (±A, σ·normal_pair().0 per sample, matched
        // filter, sign): margin ∞ replays every decision through libm, K
        // decides almost all of them fast. Counts and stream positions
        // must both match, ragged chunks included.
        for sps in [1usize, 3, 4, 8] {
            for n in [1usize, 7, 9, 16, 17, 1000] {
                let streams = lane_streams(0xB95 ^ (n as u64) << 8 ^ (sps as u64) << 20);
                for margin in [f64::INFINITY, CERT_MARGIN] {
                    let case = format!("sps={sps} n={n} margin={margin}");
                    assert_lanes_match(&bpsk_rows(sps), n, &streams, margin, &case);
                }
            }
        }
        // Long enough to exercise many groups and real error counts.
        let rows = [(Chain::Bpsk(BpskModem::new(4)), 4.0)];
        assert_lanes_match(&rows, 50_003, &lane_streams(0xB16), CERT_MARGIN, "long");
    }

    #[test]
    fn certificate_margin_has_2_pow_8_headroom_over_a_million_symbols() {
        // Each BPSK decision's fast sum against its exact libm replay on
        // the lane counter's pair layout: the worst |S' − S| stays 2⁸
        // below the margin K·(sps + 15)·Σ Bⱼ (DESIGN.md §11).
        let (mut worst, mut decisions) = (0.0f64, 0usize);
        let cases = [(1usize, 8_000usize), (4, 12_000), (8, 3_000), (64, 300)];
        for (case, (sps, symbols)) in cases.into_iter().enumerate() {
            let chain = Chain::Bpsk(BpskModem::new(sps));
            let (w, d) = worst_lane_gap(chain, sps, symbols, 0xB4EAD ^ case as u64);
            worst = worst.max(w);
            decisions += d;
        }
        assert!(decisions >= 1_000_000, "only {decisions} decisions");
        assert!(
            worst <= 2f64.powi(-8),
            "worst |S' − S| is 2^{:.1} of the margin",
            worst.log2()
        );
    }

    #[test]
    fn exact_replay_reproduces_the_oracle_sum_bit_for_bit() {
        // The replay decides the symbols the certificate cannot, so its
        // sum must be the oracle's matched-filter real part, bit for bit.
        for sps in [1usize, 4, 8] {
            let modem = BpskModem::new(sps);
            let sigma = modem.detector(1.0).sigma;
            let n = 300;
            let mut a = Xoshiro256pp::seed_from(0xB2E9 ^ sps as u64);
            let mut b = a.clone();
            let bits: Vec<bool> = (0..n).map(|_| a.bit()).collect();
            let mut samples = modem.modulate(&bits);
            for s in &mut samples {
                let (ni, nq) = a.normal_pair();
                *s += Complex::new(sigma * ni, sigma * nq);
            }
            for _ in 0..n {
                b.next_u64();
            }
            let (mut u1, mut u2) = (vec![0.0; n * sps], vec![0.0; n * sps]);
            uniform_pairs(&mut b, &mut u1, &mut u2);
            for (k, (&bit, chunk)) in bits.iter().zip(samples.chunks_exact(sps)).enumerate() {
                let at = k * sps..(k + 1) * sps;
                let pairs = u1[at.clone()].iter().zip(&u2[at]);
                let pairs = pairs.map(|(&v1, &v2)| (v1, v2));
                let got = exact_statistic(pairs, modem.level(bit), sigma);
                let want = chunk.iter().copied().sum::<Complex>().re;
                assert_eq!(got.to_bits(), want.to_bits(), "sps={sps} symbol {k}");
            }
        }
    }

    #[test]
    fn rejection_inside_a_certified_block_matches_the_oracle() {
        // A u1 rejection planted in one lane's stream — in the first pair,
        // mid group, in a later group, past the first symbol at sps = 64,
        // in a symbol's second uniform block at sps = 100, and twice in a
        // row — compacts inside that lane, and every BPSK row still
        // matches its oracle on every lane.
        for (sps, pair, twice) in LANE_PLANTS {
            let streams = planted_lanes(sps, pair, twice);
            for margin in [f64::INFINITY, CERT_MARGIN] {
                let case = format!("sps={sps} pair {pair} twice={twice} margin={margin}");
                assert_lanes_match(&bpsk_rows(sps), PLANTED_BITS, &streams, margin, &case);
            }
        }
    }

    #[test]
    fn kernel_counts_its_replays_once_per_call() {
        // Margin ∞: one replay per decision; the production margin still
        // reports its (small) count; a NaN σ replays every decision.
        let modem = BpskModem::new(4);
        let n = 2_000;
        for (sigma, margin) in [
            (modem.detector(0.0).sigma, f64::INFINITY),
            (modem.detector(0.0).sigma, CERT_MARGIN),
            (f64::NAN, CERT_MARGIN),
        ] {
            let detector = Detector {
                sigma,
                ..modem.detector(0.0)
            };
            let (calls, replays) = recorded_replays(|| {
                let mut rngs = lane_streams(0xB9E);
                let mut scratch = LaneScratch::new();
                count_certified_lanes(&[detector], n, &mut rngs, &mut scratch, margin);
            });
            assert_eq!(calls, 1, "sigma={sigma} margin={margin}");
            if margin.is_infinite() || sigma.is_nan() {
                assert_eq!(replays, n as u64, "sigma={sigma} margin={margin}");
            } else {
                assert!(replays <= n as u64 / 100, "{replays}");
            }
        }
    }

    #[test]
    fn noiseless_roundtrip() {
        let modem = BpskModem::new(4);
        let bits: Vec<bool> = (0..100).map(|i| i % 7 < 3).collect();
        let samples = modem.modulate(&bits);
        assert_eq!(modem.demodulate(&samples), bits);
    }

    #[test]
    fn antipodal_symbols_are_opposite() {
        let modem = BpskModem::new(2);
        let s = modem.modulate(&[true, false]);
        assert!((s[0] + s[2]).abs() < 1e-12, "symbols must be antipodal");
        assert!(s[0].re > 0.0 && s[2].re < 0.0);
    }

    /// The measured BER of each row of one table of `detectors`.
    fn table_ber(detectors: &[Detector], bits: usize, seed: u64) -> Vec<f64> {
        let counts = ber_table_par_with(2, detectors, bits, &SeedTree::new(seed));
        counts.iter().map(|&e| e as f64 / bits as f64).collect()
    }

    #[test]
    fn monte_carlo_matches_bpsk_theory() {
        // The paper's 7 dB ⇒ BER 10⁻³ figure, verified at the waveform
        // level: at 6.8 dB the measured BER is ~1e-3.
        let n = 400_000;
        let measured = table_ber(&[BpskModem::new(4).detector(6.8)], n, 77)[0];
        let theory = bpsk_ber(10f64.powf(0.68));
        let sigma = (theory * (1.0 - theory) / n as f64).sqrt();
        assert!(
            (measured - theory).abs() < 4.0 * sigma + 1e-5,
            "measured {measured} vs theory {theory}"
        );
        assert!(
            (5e-4..2e-3).contains(&measured),
            "BER at 6.8 dB = {measured}"
        );
    }

    #[test]
    fn bpsk_beats_ook_by_3db_at_equal_eb_n0() {
        // Same Eb/N0, BPSK's antipodal distance wins: BER(BPSK, x) ≈
        // BER(OOK, 2x). One table, so the three rows share their draws.
        let ook = OokModem::new(4);
        let rows = [
            BpskModem::new(4).detector(7.0),
            ook.detector(7.0),
            ook.detector(10.0),
        ];
        let ber = table_ber(&rows, 200_000, 31);
        let (bpsk, ook, ook_plus3) = (ber[0], ber[1], ber[2]);
        assert!(bpsk < ook, "BPSK {bpsk} must beat OOK {ook}");
        // And roughly equal OOK at +3 dB.
        assert!(
            (bpsk - ook_plus3).abs() < 0.5 * (bpsk + ook_plus3) + 2e-4,
            "BPSK@7 {bpsk} vs OOK@10 {ook_plus3}"
        );
    }

    #[test]
    fn ber_monotone_in_snr() {
        let modem = BpskModem::new(4);
        let rows = [
            modem.detector(3.0),
            modem.detector(6.0),
            modem.detector(9.0),
        ];
        let b = table_ber(&rows, 100_000, 5);
        assert!(b[0] > b[1] && b[1] > b[2], "{b:?}");
    }
}
