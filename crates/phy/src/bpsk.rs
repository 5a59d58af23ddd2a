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
//!
//! [`measure_bpsk_ber`] is the Monte-Carlo BER of the allocating chain —
//! [`BpskModem::modulate`], [`Awgn::apply`] (one scalar [`Rng::normal`]
//! for I, then one for Q, per sample), [`BpskModem::demodulate`] — and
//! returns exactly that chain's count, leaving the stream exactly where it
//! would. It computes it the way the OOK counter does
//! ([`crate::waveform::count_bit_errors_scratch`], DESIGN.md §11): all
//! bits first, then groups of whole symbols whose uniforms come from the
//! shared uniform stage (the I pair, then the Q pair, per sample), only
//! the I noise through the certified Box–Muller math (`f32` after the
//! `ln`), the samples and the matched filter in `f32`, and each sign
//! decision accepted when the fast statistic clears zero by the
//! certificate's margin, else replayed exactly with libm `ln` and
//! `cos(2π·u2)` from the kept uniforms (counted in `phy.ber.replays`).
//! The certificate covers libm's cosine here as well as the turn-based
//! one the OOK chain uses: its cosine term is an absolute bound on the
//! fast cosine's gap to `cos 2πu2`, which both exact chains meet to
//! 10⁻¹⁴. The chain itself lives on as the kernel's oracle in this
//! module's tests.

use std::f64::consts::TAU;

use crate::waveform::{
    certified, fast_margin, group_symbols, Awgn, SymbolGroup, CERT_MARGIN, MAX_CERTIFIED_SPS,
};
use mmtag_rf::obs;
use mmtag_rf::rng::{box_muller_certified, uniform_pairs, Rng};
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
}

impl Default for BpskModem {
    fn default() -> Self {
        Self::new(8)
    }
}

/// Monte-Carlo BER of the BPSK chain at a mean `Eb/N0` over `n_bits` —
/// bit-identical to modulate → [`Awgn::apply`] → demodulate on `rng`,
/// stream position included (see the module docs for how).
///
/// # Panics
/// Panics if `n_bits` is zero or `samples_per_symbol` exceeds
/// [`MAX_CERTIFIED_SPS`].
pub fn measure_bpsk_ber<R: Rng + ?Sized>(
    modem: &BpskModem,
    eb_n0_db: f64,
    n_bits: usize,
    rng: &mut R,
) -> f64 {
    assert!(n_bits > 0, "need at least one bit");
    let awgn = modem.awgn_for(eb_n0_db);
    count_bpsk_errors(modem, &awgn, n_bits, rng, CERT_MARGIN) as f64 / n_bits as f64
}

/// The BPSK bit-error count at an explicit certificate margin factor
/// (production passes [`CERT_MARGIN`]; the tests pass `∞` to force every
/// decision through the exact replay).
fn count_bpsk_errors<R: Rng + ?Sized>(
    modem: &BpskModem,
    awgn: &Awgn,
    n_bits: usize,
    rng: &mut R,
    margin: f64,
) -> usize {
    let _span = obs::span("phy.ber.chunk");
    let sps = modem.samples_per_symbol;
    assert!(
        sps <= MAX_CERTIFIED_SPS,
        "the decision certificate covers at most {MAX_CERTIFIED_SPS} samples per symbol"
    );
    let mut bits = vec![false; n_bits];
    rng.fill_bits(&mut bits);
    let mut group = BpskGroup::new(sps);
    let margin = fast_margin(margin, modem.amplitude, awgn.sigma);
    let (mut errors, mut replays) = (0usize, 0u64);
    for group_bits in bits.chunks(group_symbols(sps)) {
        group.draw(rng, modem, awgn.sigma, group_bits);
        for (l, &bit) in group_bits.iter().enumerate() {
            let fast = f64::from(group.samples.stat[l]);
            let s = if certified(fast, 0.0, group.samples.bound[l], margin) {
                fast
            } else {
                replays += 1;
                let at = l * sps..(l + 1) * sps;
                let samples = &group.samples;
                let a = modem.level(bit);
                exact_bpsk_statistic(&samples.u1[at.clone()], &samples.u2[at], a, awgn.sigma)
            };
            errors += usize::from((s > 0.0) != bit);
        }
    }
    obs::counter_add("phy.ber.bits", n_bits as u64);
    obs::counter_add("phy.ber.replays", replays);
    obs::observe("phy.ber.chunk_errors", errors as u64);
    errors
}

/// One group's buffers: the shared [`SymbolGroup`] (holding the I pairs'
/// uniforms) plus every uniform pair the group draws — per sample the I
/// pair, then the Q pair.
struct BpskGroup {
    samples: SymbolGroup,
    pair_u1: Vec<f64>,
    pair_u2: Vec<f64>,
}

impl BpskGroup {
    fn new(sps: usize) -> Self {
        let mut samples = SymbolGroup::default();
        samples.reserve_for(sps);
        let pairs = 2 * samples.u1.len();
        BpskGroup {
            samples,
            pair_u1: vec![0.0; pairs],
            pair_u2: vec![0.0; pairs],
        }
    }

    /// Draws one group's `2·bits.len()·sps` pairs, runs the certified
    /// Box–Muller math on the I pairs only, and writes symbol `l`'s fast
    /// matched-filter sum `S'` to `stat[l]` and its certificate bound to
    /// `bound[l]` of the shared [`SymbolGroup`]
    /// ([`SymbolGroup::modulate_and_fold`]).
    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, modem: &BpskModem, sigma: f64, bits: &[bool]) {
        let sps = modem.samples_per_symbol;
        let ns = bits.len() * sps;
        let SymbolGroup { u1, u2, r, re, .. } = &mut self.samples;
        uniform_pairs(
            rng,
            &mut self.pair_u1[..2 * ns],
            &mut self.pair_u2[..2 * ns],
        );
        let pairs = self
            .pair_u1
            .chunks_exact(2)
            .zip(self.pair_u2.chunks_exact(2));
        for ((x1, x2), (p1, p2)) in u1[..ns].iter_mut().zip(&mut u2[..ns]).zip(pairs) {
            (*x1, *x2) = (p1[0], p2[0]);
        }
        box_muller_certified(&u1[..ns], &u2[..ns], &mut r[..ns], &mut re[..ns]);
        self.samples
            .modulate_and_fold(sps, sigma, bits, |bit| modem.level(bit));
    }
}

/// One symbol's exact matched-filter sum, replayed from its I pairs' kept
/// uniforms: each sample's noise as [`Rng::normal`] computes it,
/// `√(−2·ln u1)·cos(2π·u2)` through libm, then `a + σ·n`, summed first
/// to last from `0.0` — the allocating chain's arithmetic on the real
/// part, which is all the sign decision reads.
#[cold]
fn exact_bpsk_statistic(u1: &[f64], u2: &[f64], a: f64, sigma: f64) -> f64 {
    let mut sum = 0.0f64;
    for (&v1, &v2) in u1.iter().zip(u2) {
        let n = (-2.0 * v1.ln()).sqrt() * (TAU * v2).cos();
        sum += a + sigma * n;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::bpsk_ber;
    use crate::waveform::tests::{recorded_replays, ScriptedRng, CERT_SNRS_DB};
    use crate::waveform::{measure_ber, OokModem};
    use mmtag_rf::rng::Xoshiro256pp;

    /// The kernel's oracle, the allocating chain: one [`Rng::bit`] per
    /// bit, [`BpskModem::modulate`], [`Awgn::apply`], then
    /// [`BpskModem::demodulate`], errors counted against the sent bits.
    fn oracle_bpsk_errors<R: Rng + ?Sized>(
        modem: &BpskModem,
        awgn: &Awgn,
        n_bits: usize,
        rng: &mut R,
    ) -> usize {
        let bits: Vec<bool> = (0..n_bits).map(|_| rng.bit()).collect();
        let mut samples = modem.modulate(&bits);
        awgn.apply(&mut samples, rng);
        let decided = modem.demodulate(&samples);
        bits.iter().zip(&decided).filter(|(a, b)| a != b).count()
    }

    #[test]
    fn kernel_matches_the_allocating_chain_forced_replay_or_not() {
        // Margin ∞ replays every decision through libm; K decides almost
        // all of them fast. Counts and stream position must both match.
        for sps in [1usize, 3, 4, 8] {
            for n in [1usize, 7, 9, 16, 17, 1000] {
                for (si, &snr) in CERT_SNRS_DB.iter().enumerate() {
                    let modem = BpskModem::new(sps);
                    let awgn = modem.awgn_for(snr);
                    let seed = 0xB95 ^ (n as u64) << 8 ^ (sps as u64) << 20 ^ si as u64;
                    let mut oracle_rng = Xoshiro256pp::seed_from(seed);
                    let want = oracle_bpsk_errors(&modem, &awgn, n, &mut oracle_rng);
                    let next = oracle_rng.next_u64();
                    for margin in [f64::INFINITY, CERT_MARGIN] {
                        let mut rng = Xoshiro256pp::seed_from(seed);
                        let got = count_bpsk_errors(&modem, &awgn, n, &mut rng, margin);
                        let case = format!("sps={sps} n={n} snr={snr} margin={margin}");
                        assert_eq!(got, want, "{case}");
                        assert_eq!(rng.next_u64(), next, "{case}: stream position");
                    }
                }
            }
        }
        // Long enough to exercise many groups and real error counts.
        let modem = BpskModem::new(4);
        let awgn = modem.awgn_for(4.0);
        let mut a = Xoshiro256pp::seed_from(0xB16);
        let mut b = a.clone();
        let want = oracle_bpsk_errors(&modem, &awgn, 50_000, &mut b);
        assert!(want > 500, "{want}");
        assert_eq!(
            count_bpsk_errors(&modem, &awgn, 50_000, &mut a, CERT_MARGIN),
            want
        );
        assert_eq!(a, b);
    }

    #[test]
    fn certificate_margin_has_2_pow_8_headroom_over_a_million_symbols() {
        // Each symbol's fast sum against its exact libm replay: the worst
        // |S' − S| stays 2⁸ below the margin K·(sps + 15)·Σ Bⱼ
        // (DESIGN.md §11).
        let mut worst = 0.0f64;
        let mut symbols = 0usize;
        let cases = [
            (1usize, 300_000usize),
            (4, 550_000),
            (8, 130_000),
            (64, 20_000),
        ];
        for (case, (sps, per_case)) in cases.into_iter().enumerate() {
            let modem = BpskModem::new(sps);
            let mut rng = Xoshiro256pp::seed_from(0xB4EAD ^ case as u64);
            let mut group = BpskGroup::new(sps);
            let mut bits = vec![false; group_symbols(sps)];
            for g in 0..per_case.div_ceil(bits.len()) {
                let sigma = modem.awgn_for(CERT_SNRS_DB[g % CERT_SNRS_DB.len()]).sigma;
                rng.fill_bits(&mut bits);
                group.draw(&mut rng, &modem, sigma, &bits);
                for (l, &bit) in bits.iter().enumerate() {
                    let at = l * sps..(l + 1) * sps;
                    let samples = &group.samples;
                    let exact = exact_bpsk_statistic(
                        &samples.u1[at.clone()],
                        &samples.u2[at],
                        modem.level(bit),
                        sigma,
                    );
                    let gap = (f64::from(samples.stat[l]) - exact).abs();
                    worst = worst.max(gap / (CERT_MARGIN * samples.bound[l]));
                }
                symbols += bits.len();
            }
        }
        assert!(symbols >= 1_000_000, "only {symbols} symbols");
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
            let awgn = modem.awgn_for(1.0);
            let n = 300;
            let mut a = Xoshiro256pp::seed_from(0xB2E9 ^ sps as u64);
            let mut b = a.clone();
            let bits: Vec<bool> = (0..n).map(|_| a.bit()).collect();
            let mut samples = modem.modulate(&bits);
            awgn.apply(&mut samples, &mut a);
            for _ in 0..n {
                b.next_u64();
            }
            let (mut p1, mut p2) = (vec![0.0; 2 * n * sps], vec![0.0; 2 * n * sps]);
            uniform_pairs(&mut b, &mut p1, &mut p2);
            let u1: Vec<f64> = p1.iter().step_by(2).copied().collect();
            let u2: Vec<f64> = p2.iter().step_by(2).copied().collect();
            for (k, (&bit, chunk)) in bits.iter().zip(samples.chunks_exact(sps)).enumerate() {
                let at = k * sps..(k + 1) * sps;
                let got =
                    exact_bpsk_statistic(&u1[at.clone()], &u2[at], modem.level(bit), awgn.sigma);
                let want = chunk.iter().copied().sum::<Complex>().re;
                assert_eq!(got.to_bits(), want.to_bits(), "sps={sps} symbol {k}");
            }
        }
    }

    #[test]
    fn rejection_inside_a_certified_block_matches_the_oracle() {
        // u1 rejections planted on an I draw and on a Q draw inside a
        // group, twice in a row, and in a later group.
        let n = 40usize;
        for sps in [1usize, 4] {
            let first_pair = n; // the bits take the first n raws
            let plants: [&[usize]; 4] = [
                &[first_pair],
                &[first_pair + 2 * 7],
                &[first_pair + 2 * 4, first_pair + 2 * 4 + 1],
                &[first_pair + 2 * (2 * n * sps - 5)],
            ];
            for (pi, plant) in plants.iter().enumerate() {
                let modem = BpskModem::new(sps);
                let awgn = modem.awgn_for(1.0);
                let fresh = || ScriptedRng::planted(0xB0B ^ pi as u64, n + 4 * n * sps, plant);
                let mut oracle_rng = fresh();
                let want = oracle_bpsk_errors(&modem, &awgn, n, &mut oracle_rng);
                for margin in [f64::INFINITY, CERT_MARGIN] {
                    let mut rng = fresh();
                    let got = count_bpsk_errors(&modem, &awgn, n, &mut rng, margin);
                    let case = format!("sps={sps} plant {pi} margin={margin}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(rng.next_u64(), oracle_rng.clone().next_u64(), "{case}");
                }
            }
        }
    }

    #[test]
    fn kernel_counts_its_replays_once_per_call() {
        // Margin ∞: one replay per symbol; the production margin still
        // reports its (small) count; a NaN σ replays every decision.
        let modem = BpskModem::new(4);
        let n = 2_000;
        for (sigma, margin) in [
            (modem.awgn_for(0.0).sigma, f64::INFINITY),
            (modem.awgn_for(0.0).sigma, CERT_MARGIN),
            (f64::NAN, CERT_MARGIN),
        ] {
            let awgn = Awgn { sigma };
            let (calls, replays) = recorded_replays(|| {
                let mut rng = Xoshiro256pp::seed_from(0xB9E);
                count_bpsk_errors(&modem, &awgn, n, &mut rng, margin);
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
        let ook = measure_ber(&OokModem::new(4), 7.0, 200_000, &mut rng);
        let ook_plus3 = measure_ber(&OokModem::new(4), 10.0, 200_000, &mut rng);
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
        let mut rng = Xoshiro256pp::seed_from(5);
        let b3 = measure_bpsk_ber(&modem, 3.0, 100_000, &mut rng);
        let b6 = measure_bpsk_ber(&modem, 6.0, 100_000, &mut rng);
        let b9 = measure_bpsk_ber(&modem, 9.0, 100_000, &mut rng);
        assert!(b3 > b6 && b6 > b9);
    }
}
