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
//! swap between them trivially.

use crate::waveform::Awgn;
use mmtag_rf::rng::Rng;
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

    /// Modulates bits: `true → +A`, `false → −A`.
    pub fn modulate(&self, bits: &[bool]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(bits.len() * self.samples_per_symbol);
        for &b in bits {
            let a = if b { self.amplitude } else { -self.amplitude };
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
}

impl Default for BpskModem {
    fn default() -> Self {
        Self::new(8)
    }
}

/// Monte-Carlo BER of the BPSK chain at a mean `Eb/N0` over `n_bits`.
pub fn measure_bpsk_ber<R: Rng + ?Sized>(
    modem: &BpskModem,
    eb_n0_db: f64,
    n_bits: usize,
    rng: &mut R,
) -> f64 {
    assert!(n_bits > 0, "need at least one bit");
    let bits: Vec<bool> = (0..n_bits).map(|_| rng.bit()).collect();
    let mut samples = modem.modulate(&bits);
    modem.awgn_for(eb_n0_db).apply(&mut samples, rng);
    let decided = modem.demodulate(&samples);
    bits.iter().zip(&decided).filter(|(a, b)| a != b).count() as f64 / n_bits as f64
}

/// Advances `rng` exactly as far as one [`measure_bpsk_ber`] call over
/// `n_bits` bits does, without computing anything: one raw per bit
/// ([`Rng::bit`]), then two Box–Muller draws per sample — [`Awgn::apply`]
/// takes one scalar [`Rng::normal`] for I and one for Q, over
/// `n_bits · sps` samples. The BPSK twin of
/// [`crate::waveform::skip_measure_ber`].
pub fn skip_measure_bpsk_ber<R: Rng + ?Sized>(modem: &BpskModem, n_bits: usize, rng: &mut R) {
    rng.skip_raw(n_bits as u64);
    rng.skip_box_muller((2 * n_bits * modem.samples_per_symbol) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::bpsk_ber;
    use crate::waveform::{measure_ber, OokModem};
    use mmtag_rf::rng::Xoshiro256pp;

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

    #[test]
    fn monte_carlo_matches_bpsk_theory() {
        // The paper's 7 dB ⇒ BER 10⁻³ figure, verified at the waveform
        // level: at 6.8 dB the measured BER is ~1e-3.
        let modem = BpskModem::new(4);
        let mut rng = Xoshiro256pp::seed_from(77);
        let measured = measure_bpsk_ber(&modem, 6.8, 400_000, &mut rng);
        let theory = bpsk_ber(10f64.powf(0.68));
        let sigma = (theory * (1.0 - theory) / 400_000.0).sqrt();
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
        // BER(OOK, 2x).
        let mut rng = Xoshiro256pp::seed_from(31);
        let bpsk = measure_bpsk_ber(&BpskModem::new(4), 7.0, 200_000, &mut rng);
        let ook = measure_ber(&OokModem::new(4), 7.0, 200_000, true, &mut rng);
        let ook_plus3 = measure_ber(&OokModem::new(4), 10.0, 200_000, true, &mut rng);
        assert!(bpsk < ook, "BPSK {bpsk} must beat OOK {ook}");
        // And roughly equal OOK at +3 dB.
        assert!(
            (bpsk - ook_plus3).abs() < 0.5 * (bpsk + ook_plus3) + 2e-4,
            "BPSK@7 {bpsk} vs OOK@10 {ook_plus3}"
        );
    }

    #[test]
    fn measure_bpsk_ber_advances_the_stream_as_stated() {
        for sps in [1usize, 4] {
            let modem = BpskModem::new(sps);
            for n_bits in [1usize, 7, 9, 100, 1001] {
                let mut measured = Xoshiro256pp::seed_from(0xB95C ^ n_bits as u64);
                let mut skipped = measured.clone();
                measure_bpsk_ber(&modem, 5.0, n_bits, &mut measured);
                skip_measure_bpsk_ber(&modem, n_bits, &mut skipped);
                assert_eq!(measured, skipped, "sps={sps} n_bits={n_bits}");
            }
        }
    }

    #[test]
    fn ber_monotone_in_snr() {
        let modem = BpskModem::new(4);
        let mut rng = Xoshiro256pp::seed_from(5);
        let b3 = measure_bpsk_ber(&modem, 3.0, 100_000, &mut rng);
        let b6 = measure_bpsk_ber(&modem, 6.0, 100_000, &mut rng);
        let b9 = measure_bpsk_ber(&modem, 9.0, 100_000, &mut rng);
        assert!(b3 > b6 && b6 > b9);
    }
}
