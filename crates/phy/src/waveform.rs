//! Waveform-level OOK modem: IQ samples, AWGN, matched filtering.
//!
//! The closed forms in [`crate::ber`] are only trustworthy if an actual
//! modulator → channel → demodulator chain reproduces them. This module is
//! that chain, sample by sample:
//!
//! * [`OokModem::modulate`] — maps bits to rectangular OOK pulses at a
//!   configurable oversampling factor (the tag side: switch open = mark),
//! * [`Awgn`] — complex white Gaussian noise calibrated to a target `Eb/N0`,
//! * [`OokModem::demodulate_coherent`] / [`OokModem::demodulate_noncoherent`] — matched
//!   filter plus threshold (the reader side),
//! * [`measure_ber`] — the Monte-Carlo harness on one sequential stream
//!   ([`skip_measure_ber`] states how far one call advances it), and
//!   [`measure_ber_par_with`] / [`ber_sweep_par_with`] — the same harness
//!   chunked over the [`mmtag_rf::par`] engine at an explicit thread
//!   budget (one RNG stream per bit-chunk, so parallel estimates are
//!   bit-identical at any thread count) behind experiment E5.
//!
//! Bit convention: §6 of the paper maps data bit **0** to the reflective
//! state ("the switches are off and the amplitude of the reflected power is
//! high") and bit **1** to absorption. [`OokModem`] uses `mark_bit` to hold
//! that mapping so the same modem expresses either convention.
//!
//! ## The lane kernel and [`TrialScratch`]
//!
//! The Monte-Carlo trial loop is the stack's hottest path. Its one
//! production implementation is the **lane kernel**,
//! [`count_bit_errors_scratch`] (DESIGN.md §11): the trial expressed as
//! structure-of-arrays sweeps over flat `f64` buffers in a caller-owned
//! [`TrialScratch`] — blocked Gaussian fills via
//! [`Rng::fill_normal_soa`], a fused modulate+noise pass, and a matched
//! filter that carries [`mmtag_rf::math::LANES`] symbols in lane-local
//! accumulators reduced in a fixed order. The steady state of a trial
//! loop performs **zero heap allocations** (verified by the repo's
//! allocation-guard integration test). Its test oracle is the allocating
//! chain above, written out in this module's tests: one [`Rng::bit`] per
//! bit, [`OokModem::modulate`], one [`Rng::normal_pair`] added per
//! sample, then [`OokModem::demodulate_coherent`] /
//! [`OokModem::demodulate_noncoherent`]. The kernel matches it bit for
//! bit — same counts, same RNG stream position.
//!
//! Noise streams are **sampler v2**: AWGN consumes both Box–Muller
//! branches through [`Rng::normal_pair`] (one uniform pair per complex
//! sample), halving transcendental calls relative to the scalar
//! [`Rng::normal`] path ([`Awgn::apply`], sampler v1). Determinism across
//! thread counts is unaffected by the choice.

use mmtag_rf::math::LANES;
use mmtag_rf::obs;
use mmtag_rf::par;
use mmtag_rf::rng::{Rng, SeedTree};
use mmtag_rf::Complex;

/// Rectangular-pulse OOK modulator/demodulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OokModem {
    /// Samples per symbol (oversampling factor).
    pub samples_per_symbol: usize,
    /// Mark (high) amplitude.
    pub amplitude: f64,
    /// Which data bit is transmitted as the mark (reflective) state.
    /// The paper's convention (§6) is `0`.
    pub mark_bit: bool,
}

impl OokModem {
    /// The default modem: 8× oversampling, unit amplitude, paper bit
    /// convention (bit 0 = mark).
    pub fn new(samples_per_symbol: usize) -> Self {
        assert!(samples_per_symbol >= 1, "need at least one sample/symbol");
        OokModem {
            samples_per_symbol,
            amplitude: 1.0,
            mark_bit: false,
        }
    }

    /// True if `bit` is sent as the mark state.
    fn is_mark(&self, bit: bool) -> bool {
        bit == self.mark_bit
    }

    /// Modulates bits into baseband IQ samples.
    pub fn modulate(&self, bits: &[bool]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(bits.len() * self.samples_per_symbol);
        for &b in bits {
            let a = if self.is_mark(b) { self.amplitude } else { 0.0 };
            out.extend(std::iter::repeat_n(
                Complex::new(a, 0.0),
                self.samples_per_symbol,
            ));
        }
        out
    }

    /// Average energy per bit of this modem's waveform (half the bits are
    /// marks for random data): `A²·sps / 2`.
    pub fn average_bit_energy(&self) -> f64 {
        self.amplitude * self.amplitude * self.samples_per_symbol as f64 / 2.0
    }

    /// Matched-filter outputs: one complex statistic per symbol (the sum of
    /// that symbol's samples). Truncates a trailing partial symbol.
    pub fn matched_filter(&self, samples: &[Complex]) -> Vec<Complex> {
        samples
            .chunks_exact(self.samples_per_symbol)
            .map(|chunk| chunk.iter().copied().sum())
            .collect()
    }

    /// The decision threshold shared by both demodulators: half the
    /// integrated mark level.
    fn decision_threshold(&self) -> f64 {
        0.5 * self.amplitude * self.samples_per_symbol as f64
    }

    /// Coherent demodulation: real-part threshold at half the mark level.
    /// Assumes carrier phase is tracked (the reader generates the carrier
    /// itself, so backscatter is naturally phase-coherent).
    pub fn demodulate_coherent(&self, samples: &[Complex]) -> Vec<bool> {
        let threshold = self.decision_threshold();
        self.matched_filter(samples)
            .into_iter()
            .map(|s| {
                let mark = s.re > threshold;
                mark == self.mark_bit
            })
            .collect()
    }

    /// Zero-mean soft bit statistics oriented so that *positive = logical
    /// `true` bit*, regardless of which bit the mark state carries. This is
    /// what preamble correlation (`mmtag_phy::sync`) should be fed: with the
    /// paper's §6 mapping (bit 0 = mark = high amplitude) the raw matched-
    /// filter output has inverted polarity relative to the logical bits.
    pub fn soft_bits(&self, samples: &[Complex]) -> Vec<f64> {
        let matched = self.matched_filter(samples);
        if matched.is_empty() {
            return Vec::new();
        }
        let mean: f64 = matched.iter().map(|c| c.re).sum::<f64>() / matched.len() as f64;
        let sign = if self.mark_bit { 1.0 } else { -1.0 };
        matched.iter().map(|c| sign * (c.re - mean)).collect()
    }

    /// Non-coherent demodulation: envelope threshold. Works without phase
    /// tracking at a ~0.5–1 dB penalty (see [`crate::ber`]).
    pub fn demodulate_noncoherent(&self, samples: &[Complex]) -> Vec<bool> {
        let threshold = self.decision_threshold();
        self.matched_filter(samples)
            .into_iter()
            .map(|s| {
                let mark = s.abs() > threshold;
                mark == self.mark_bit
            })
            .collect()
    }
}

impl Default for OokModem {
    fn default() -> Self {
        Self::new(8)
    }
}

/// Complex AWGN source with per-sample standard deviation `sigma` in each
/// of I and Q.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Awgn {
    /// Per-component noise standard deviation.
    pub sigma: f64,
}

impl Awgn {
    /// Noise calibrated so the modem's waveform sees the given mean `Eb/N0`
    /// (dB): `N0 = Eb/ratio`, `σ² = N0/2` per component per sample.
    pub fn for_eb_n0(modem: &OokModem, eb_n0_db: f64) -> Self {
        let eb = modem.average_bit_energy();
        let n0 = eb / 10f64.powf(eb_n0_db / 10.0);
        Awgn {
            sigma: (n0 / 2.0).sqrt(),
        }
    }

    /// Adds noise to samples in place, one scalar [`Rng::normal`] per
    /// component (cosine branch only — **sampler v1**). The BER kernel
    /// ([`count_bit_errors_scratch`]) instead consumes one
    /// [`Rng::normal_pair`] per sample, a *different* (equally valid)
    /// noise stream from the same seed.
    pub fn apply<R: Rng + ?Sized>(&self, samples: &mut [Complex], rng: &mut R) {
        for s in samples {
            *s += Complex::new(self.sigma * rng.normal(), self.sigma * rng.normal());
        }
    }
}

/// Caller-owned workspace for the zero-allocation trial kernel
/// ([`count_bit_errors_scratch`]).
///
/// Ownership rules (DESIGN.md §8): the scratch belongs to exactly one
/// worker at a time; kernels **write every buffer before reading it**, so
/// a scratch carries no information between trials and reusing one across
/// work units cannot perturb results. Buffers grow to the largest chunk
/// ever processed and are never shrunk, so the steady state of a trial
/// loop performs zero heap allocations.
#[derive(Clone, Debug, Default)]
pub struct TrialScratch {
    /// The chunk's random data bits.
    bits: Vec<bool>,
    /// SoA I components of the noisy waveform.
    re: Vec<f64>,
    /// SoA Q components of the noisy waveform.
    im: Vec<f64>,
}

impl TrialScratch {
    /// An empty workspace; buffers are sized lazily by the first trial.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The zero-allocation trial kernel: draws `n_bits` random bits and the
/// AWGN from `rng`, runs modulate → noise → fused demodulate-and-count
/// entirely inside `scratch`, and returns the bit-error count.
///
/// This is the **lane kernel** (DESIGN.md §11): the waveform lives in two
/// flat `f64` arrays (structure-of-arrays) instead of a `Complex` slice,
/// the noise comes from the blocked [`Rng::fill_normal_soa`] pipeline, the
/// modulate+noise pass is a fused elementwise sweep, and the matched
/// filter accumulates [`LANES`] symbols side by side with the error count
/// folded through fixed-order lane-local counters. Every floating-point
/// value is produced by the same operation sequence as the allocating
/// chain (`a + σ·n` per component, symbol sums folded first-to-last from
/// zero, `hypot` envelopes), so the counts — and the RNG stream position —
/// are **bit-identical** to [`OokModem::modulate`] plus one
/// [`Rng::normal_pair`] per sample through the demodulators, which the
/// differential tests pin at odd and non-multiple-of-8 lengths.
///
/// [`count_bit_errors`] is a thin wrapper over this with a one-shot
/// workspace; the chunked Monte-Carlo loops instead thread one
/// [`TrialScratch`] per worker through the scratch-carrying parallel
/// engine, so buffer allocation amortizes across every chunk a worker
/// claims.
///
/// # Examples
///
/// One scratch serves any number of chunks; only the first sizes buffers:
///
/// ```
/// use mmtag_phy::waveform::{count_bit_errors_scratch, Awgn, OokModem, TrialScratch};
/// use mmtag_rf::rng::SeedTree;
///
/// let modem = OokModem::default();
/// let awgn = Awgn::for_eb_n0(&modem, 12.0);
/// let mut rng = SeedTree::new(7).rng("doctest");
/// let mut scratch = TrialScratch::new();
///
/// let errors: usize = (0..4)
///     .map(|_| count_bit_errors_scratch(&modem, &awgn, 1_000, true, &mut rng, &mut scratch))
///     .sum();
/// // At 12 dB Eb/N0, coherent OOK errors are rare but the count is exact
/// // and reproducible for this seed.
/// assert!(errors < 100);
/// ```
pub fn count_bit_errors_scratch<R: Rng + ?Sized>(
    modem: &OokModem,
    awgn: &Awgn,
    n_bits: usize,
    coherent: bool,
    rng: &mut R,
    scratch: &mut TrialScratch,
) -> usize {
    let _span = obs::span("phy.ber.chunk");
    let sps = modem.samples_per_symbol;
    scratch.bits.resize(n_bits, false);
    rng.fill_bits(&mut scratch.bits);
    let n_samples = n_bits * sps;
    scratch.re.resize(n_samples, 0.0);
    scratch.im.resize(n_samples, 0.0);
    rng.fill_normal_soa(&mut scratch.re, &mut scratch.im);
    // Fused modulate + AWGN sweep. Elementwise identical to modulating
    // and then adding `σ·(nᵢ, n_q)`: per sample that computes `a + σ·nᵢ`
    // on I and `0.0 + σ·n_q` on Q, and so does this — the explicit `0.0 +`
    // keeps the Q expression literally the same (it rewrites a σ·n_q of
    // −0.0 to +0.0 exactly as a complex `+=` does).
    let sigma = awgn.sigma;
    for ((chunk_re, chunk_im), &bit) in scratch
        .re
        .chunks_exact_mut(sps)
        .zip(scratch.im.chunks_exact_mut(sps))
        .zip(scratch.bits.iter())
    {
        let a = if modem.is_mark(bit) {
            modem.amplitude
        } else {
            0.0
        };
        for (r, i) in chunk_re.iter_mut().zip(chunk_im.iter_mut()) {
            *r = a + sigma * *r;
            *i = 0.0 + sigma * *i;
        }
    }
    // Matched filter + threshold + compare, LANES symbols at a time. The
    // per-symbol sums fold sample 0 → sample sps−1 onto 0.0, exactly the
    // order `Complex::sum` uses in the matched filter, so each
    // statistic carries the same rounding; only *independent* symbols run
    // side by side. Error counts land in lane-local integer accumulators
    // reduced in fixed lane order (integer addition is exact, so the order
    // is for the argument's sake, not the sum's).
    let threshold = modem.decision_threshold();
    let mark_bit = modem.mark_bit;
    let lane_syms = n_bits - n_bits % LANES;
    let mut lane_errors = [0u64; LANES];
    for base in (0..lane_syms).step_by(LANES) {
        let seg_re = &scratch.re[base * sps..(base + LANES) * sps];
        let seg_im = &scratch.im[base * sps..(base + LANES) * sps];
        let mut sum_re = [0.0f64; LANES];
        let mut sum_im = [0.0f64; LANES];
        for j in 0..sps {
            for l in 0..LANES {
                sum_re[l] += seg_re[l * sps + j];
                sum_im[l] += seg_im[l * sps + j];
            }
        }
        for l in 0..LANES {
            let stat = if coherent {
                sum_re[l]
            } else {
                sum_re[l].hypot(sum_im[l])
            };
            let decided = (stat > threshold) == mark_bit;
            lane_errors[l] += u64::from(decided != scratch.bits[base + l]);
        }
    }
    let mut errors: u64 = 0;
    for &e in &lane_errors {
        errors += e;
    }
    // Scalar tail: up to LANES−1 trailing symbols, same fold order.
    for (sym, &bit) in scratch.bits[lane_syms..n_bits].iter().enumerate() {
        let base = (lane_syms + sym) * sps;
        let mut sum_re = 0.0f64;
        let mut sum_im = 0.0f64;
        for j in 0..sps {
            sum_re += scratch.re[base + j];
            sum_im += scratch.im[base + j];
        }
        let stat = if coherent {
            sum_re
        } else {
            sum_re.hypot(sum_im)
        };
        let decided = (stat > threshold) == mark_bit;
        errors += u64::from(decided != bit);
    }
    let errors = errors as usize;
    obs::counter_add("phy.ber.bits", n_bits as u64);
    obs::observe("phy.ber.chunk_errors", errors as u64);
    errors
}

/// Bits per work unit for the parallel BER harness. Fixed (never derived
/// from the thread count) so the chunk decomposition — and therefore the
/// randomness each chunk consumes — is identical at any worker budget.
pub const MC_CHUNK_BITS: usize = 8_192;

/// Bit errors of the full modulate → AWGN → demodulate chain over `n_bits`
/// random bits drawn from `rng`. The core both the serial and the parallel
/// BER estimators share — a thin wrapper over
/// [`count_bit_errors_scratch`] with a one-shot workspace (**sampler v2**
/// noise).
pub fn count_bit_errors<R: Rng + ?Sized>(
    modem: &OokModem,
    eb_n0_db: f64,
    n_bits: usize,
    coherent: bool,
    rng: &mut R,
) -> usize {
    let awgn = Awgn::for_eb_n0(modem, eb_n0_db);
    let mut scratch = TrialScratch::new();
    count_bit_errors_scratch(modem, &awgn, n_bits, coherent, rng, &mut scratch)
}

/// Monte-Carlo BER of the full modulate → AWGN → demodulate chain at a mean
/// `Eb/N0`, over `n_bits` random bits. `coherent` picks the demodulator.
pub fn measure_ber<R: Rng + ?Sized>(
    modem: &OokModem,
    eb_n0_db: f64,
    n_bits: usize,
    coherent: bool,
    rng: &mut R,
) -> f64 {
    assert!(n_bits > 0, "need at least one bit");
    count_bit_errors(modem, eb_n0_db, n_bits, coherent, rng) as f64 / n_bits as f64
}

/// Advances `rng` exactly as far as one [`measure_ber`] call over
/// `n_bits` bits does, without computing anything. The kernel
/// ([`count_bit_errors_scratch`]) draws one raw per bit
/// ([`Rng::fill_bits`]), then one Box–Muller draw per sample
/// ([`Rng::fill_normal_soa`] over `n_bits · sps` pairs) — whatever the
/// SNR or demodulator. A generator cloned after this call is the one the
/// next call on the same stream starts from, which is how a sequence of
/// `measure_ber` calls on one stream can run concurrently.
pub fn skip_measure_ber<R: Rng + ?Sized>(modem: &OokModem, n_bits: usize, rng: &mut R) {
    rng.skip_raw(n_bits as u64);
    rng.skip_box_muller((n_bits * modem.samples_per_symbol) as u64);
}

/// Parallel Monte-Carlo BER at a `threads` budget: `n_bits` split into
/// [`MC_CHUNK_BITS`]-sized chunks over the [`mmtag_rf::par`] engine, chunk
/// `i` drawing its bits and noise from `tree.rng_indexed("ber-chunk", i)`.
/// The estimate is bit-identical at any thread count.
pub fn measure_ber_par_with(
    threads: usize,
    modem: &OokModem,
    eb_n0_db: f64,
    n_bits: usize,
    coherent: bool,
    tree: &SeedTree,
) -> f64 {
    assert!(n_bits > 0, "need at least one bit");
    let _span = obs::span("phy.ber.point");
    let awgn = Awgn::for_eb_n0(modem, eb_n0_db);
    let errors: u64 = par::par_chunks_scratch_with(
        threads,
        n_bits,
        MC_CHUNK_BITS,
        TrialScratch::new,
        |scratch, ci, range| {
            let mut rng = tree.rng_indexed("ber-chunk", ci as u64);
            count_bit_errors_scratch(modem, &awgn, range.len(), coherent, &mut rng, scratch) as u64
        },
    )
    .into_iter()
    .sum();
    errors as f64 / n_bits as f64
}

/// A full BER-vs-SNR sweep at a `threads` budget, parallelized over
/// *both* axes: every (SNR point, bit-chunk) pair is one independent work
/// unit, so a sweep with few points still saturates a many-core machine.
/// Point `si` chunk `ci` draws from
/// `tree.subtree_indexed("snr", si).rng_indexed("ber-chunk", ci)` — each
/// point's randomness is independent of the sweep length, and the whole
/// sweep is bit-identical at any thread count.
pub fn ber_sweep_par_with(
    threads: usize,
    modem: &OokModem,
    snrs_db: &[f64],
    bits_per_point: usize,
    coherent: bool,
    tree: &SeedTree,
) -> Vec<f64> {
    assert!(bits_per_point > 0, "need at least one bit per point");
    let _span = obs::span("phy.ber.sweep");
    let chunks_per_point = bits_per_point.div_ceil(MC_CHUNK_BITS);
    let units = snrs_db.len() * chunks_per_point;
    let awgns: Vec<Awgn> = snrs_db
        .iter()
        .map(|&snr| Awgn::for_eb_n0(modem, snr))
        .collect();
    let errors = par::par_indexed_scratch_with(threads, units, TrialScratch::new, |scratch, u| {
        let (si, ci) = (u / chunks_per_point, u % chunks_per_point);
        let lo = ci * MC_CHUNK_BITS;
        let n = MC_CHUNK_BITS.min(bits_per_point - lo);
        let mut rng = tree
            .subtree_indexed("snr", si as u64)
            .rng_indexed("ber-chunk", ci as u64);
        count_bit_errors_scratch(modem, &awgns[si], n, coherent, &mut rng, scratch) as u64
    });
    errors
        .chunks(chunks_per_point)
        .map(|point| point.iter().sum::<u64>() as f64 / bits_per_point as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::ook_coherent_ber;
    use mmtag_rf::rng::Xoshiro256pp;

    #[test]
    fn noiseless_roundtrip_is_error_free() {
        let modem = OokModem::new(4);
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let samples = modem.modulate(&bits);
        assert_eq!(samples.len(), 64 * 4);
        assert_eq!(modem.demodulate_coherent(&samples), bits);
        assert_eq!(modem.demodulate_noncoherent(&samples), bits);
    }

    #[test]
    fn paper_bit_convention_bit0_is_mark() {
        // §6: data bit '0' ⇒ switches off ⇒ high reflected amplitude.
        let modem = OokModem::new(2);
        let samples = modem.modulate(&[false, true]);
        assert!(samples[0].abs() > 0.9, "bit 0 must be the mark");
        assert!(samples[2].abs() < 1e-12, "bit 1 must be silence");
    }

    #[test]
    fn average_bit_energy_formula() {
        let modem = OokModem::new(8);
        assert!((modem.average_bit_energy() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn matched_filter_integrates_symbols() {
        let modem = OokModem::new(4);
        let samples = modem.modulate(&[false]); // one mark
        let mf = modem.matched_filter(&samples);
        assert_eq!(mf.len(), 1);
        assert!((mf[0].re - 4.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_matches_coherent_theory_at_10db() {
        // E5's core assertion: the sampled chain lands on Q(√(Eb/N0)).
        let modem = OokModem::new(4);
        let mut rng = Xoshiro256pp::seed_from(2024);
        let eb_n0_db = 10.0;
        let measured = measure_ber(&modem, eb_n0_db, 400_000, true, &mut rng);
        let theory = ook_coherent_ber(10f64.powf(eb_n0_db / 10.0));
        // theory ≈ 7.8e-4; allow 3σ of the binomial estimator.
        let sigma = (theory * (1.0 - theory) / 400_000.0).sqrt();
        assert!(
            (measured - theory).abs() < 4.0 * sigma + 1e-5,
            "measured {measured} vs theory {theory}"
        );
    }

    #[test]
    fn monte_carlo_matches_theory_at_6db() {
        let modem = OokModem::new(4);
        let mut rng = Xoshiro256pp::seed_from(7);
        let measured = measure_ber(&modem, 6.0, 200_000, true, &mut rng);
        let theory = ook_coherent_ber(10f64.powf(0.6));
        assert!(
            (measured - theory).abs() / theory < 0.1,
            "measured {measured} vs theory {theory}"
        );
    }

    #[test]
    fn noncoherent_is_worse_but_close() {
        let modem = OokModem::new(4);
        let mut rng = Xoshiro256pp::seed_from(99);
        let coh = measure_ber(&modem, 9.0, 300_000, true, &mut rng);
        let non = measure_ber(&modem, 9.0, 300_000, false, &mut rng);
        assert!(non > coh, "non-coherent {non} must exceed coherent {coh}");
        assert!(non < coh * 10.0, "but within an order of magnitude");
    }

    #[test]
    fn ber_decreases_with_snr() {
        let modem = OokModem::new(4);
        let mut rng = Xoshiro256pp::seed_from(5);
        let b4 = measure_ber(&modem, 4.0, 100_000, true, &mut rng);
        let b8 = measure_ber(&modem, 8.0, 100_000, true, &mut rng);
        let b12 = measure_ber(&modem, 12.0, 100_000, true, &mut rng);
        assert!(b4 > b8 && b8 > b12, "{b4} > {b8} > {b12} violated");
    }

    #[test]
    fn oversampling_does_not_change_ber() {
        // Matched filtering makes BER depend only on Eb/N0, not on sps.
        let mut rng = Xoshiro256pp::seed_from(31);
        let b2 = measure_ber(&OokModem::new(2), 8.0, 200_000, true, &mut rng);
        let b16 = measure_ber(&OokModem::new(16), 8.0, 200_000, true, &mut rng);
        assert!(
            (b2 - b16).abs() < 0.3 * (b2 + b16),
            "sps=2 {b2} vs sps=16 {b16}"
        );
    }

    #[test]
    fn soft_bits_polarity_follows_logical_bits() {
        // Paper mapping: bit 0 = mark. Logical `true` must still come out
        // positive in the soft domain.
        let modem = OokModem::new(4);
        let samples = modem.modulate(&[true, false, true, true, false]);
        let soft = modem.soft_bits(&samples);
        assert!(soft[0] > 0.0 && soft[1] < 0.0 && soft[2] > 0.0);
        // And with the inverted mapping too.
        let inv = OokModem {
            mark_bit: true,
            ..OokModem::new(4)
        };
        let soft = inv.soft_bits(&inv.modulate(&[true, false]));
        assert!(soft[0] > 0.0 && soft[1] < 0.0);
    }

    #[test]
    fn trailing_partial_symbol_is_dropped() {
        let modem = OokModem::new(4);
        let mut samples = modem.modulate(&[false, false]);
        samples.truncate(7); // cut mid-symbol
        assert_eq!(modem.matched_filter(&samples).len(), 1);
    }

    /// The lane kernel's oracle: the allocating chain, stage by stage —
    /// one [`Rng::bit`] per bit, [`OokModem::modulate`], one
    /// [`Rng::normal_pair`] added per sample, then the demodulator — with
    /// the errors counted against the sent bits.
    fn oracle_bit_errors<R: Rng + ?Sized>(
        modem: &OokModem,
        awgn: &Awgn,
        n_bits: usize,
        coherent: bool,
        rng: &mut R,
    ) -> usize {
        let bits: Vec<bool> = (0..n_bits).map(|_| rng.bit()).collect();
        let mut samples = modem.modulate(&bits);
        for s in &mut samples {
            let (ni, nq) = rng.normal_pair();
            *s += Complex::new(awgn.sigma * ni, awgn.sigma * nq);
        }
        let decided = if coherent {
            modem.demodulate_coherent(&samples)
        } else {
            modem.demodulate_noncoherent(&samples)
        };
        bits.iter().zip(&decided).filter(|(a, b)| a != b).count()
    }

    #[test]
    fn scratch_reuse_across_uneven_sizes_is_bit_identical_to_fresh() {
        // One scratch reused across shrinking/growing chunk sizes must give
        // the same counts as a fresh scratch per call — the write-before-
        // read ownership rule in action.
        let modem = OokModem::new(4);
        let awgn = Awgn::for_eb_n0(&modem, 6.0);
        let sizes = [100usize, 8192, 3, 1, 500];
        let mut reused = TrialScratch::new();
        let mut rng_a = Xoshiro256pp::seed_from(99);
        let mut rng_b = Xoshiro256pp::seed_from(99);
        for (i, &n) in sizes.iter().enumerate() {
            let a = count_bit_errors_scratch(&modem, &awgn, n, true, &mut rng_a, &mut reused);
            let mut fresh = TrialScratch::new();
            let b = count_bit_errors_scratch(&modem, &awgn, n, true, &mut rng_b, &mut fresh);
            assert_eq!(a, b, "call {i} (n={n})");
        }
    }

    #[test]
    fn lane_kernel_is_bit_identical_to_batch_kernel() {
        // The kernel contract: the SoA lane kernel returns the same count
        // AND leaves the RNG at the same stream position as the allocating
        // oracle chain, at every length class — empty, sub-lane, the
        // 8-lane boundary and its neighbours, and long chunks that
        // exercise many full lane blocks plus a tail — in both modes and
        // under both mark conventions.
        let combos = |n: usize| -> &'static [(bool, bool)] {
            if n <= 1_000 {
                &[(true, false), (true, true), (false, false), (false, true)]
            } else {
                &[(true, false), (false, true)]
            }
        };
        for &n in &[0usize, 1, 7, 8, 9, 1000, 100_000] {
            for &(coherent, mark_bit) in combos(n) {
                for sps in [1usize, 4] {
                    let modem = OokModem {
                        mark_bit,
                        ..OokModem::new(sps)
                    };
                    let awgn = Awgn::for_eb_n0(&modem, 4.0);
                    let mut rng_a = Xoshiro256pp::seed_from(0xB17 ^ n as u64);
                    let mut rng_b = Xoshiro256pp::seed_from(0xB17 ^ n as u64);
                    let mut scratch = TrialScratch::new();
                    let lanes = count_bit_errors_scratch(
                        &modem,
                        &awgn,
                        n,
                        coherent,
                        &mut rng_a,
                        &mut scratch,
                    );
                    let oracle = oracle_bit_errors(&modem, &awgn, n, coherent, &mut rng_b);
                    assert_eq!(
                        lanes, oracle,
                        "count diverged at n={n} coherent={coherent} mark_bit={mark_bit} sps={sps}"
                    );
                    assert_eq!(
                        rng_a.next_u64(),
                        rng_b.next_u64(),
                        "stream position diverged at n={n} sps={sps}"
                    );
                }
            }
        }
    }

    #[test]
    fn measure_ber_advances_the_stream_as_stated() {
        for sps in [1usize, 4] {
            let modem = OokModem::new(sps);
            for n_bits in [1usize, 7, 9, 100, 1001] {
                for coherent in [true, false] {
                    let mut measured = Xoshiro256pp::seed_from(0x5C1F ^ n_bits as u64);
                    let mut skipped = measured.clone();
                    measure_ber(&modem, 5.0, n_bits, coherent, &mut measured);
                    skip_measure_ber(&modem, n_bits, &mut skipped);
                    assert_eq!(
                        measured, skipped,
                        "sps={sps} n_bits={n_bits} coherent={coherent}"
                    );
                }
            }
        }
    }
}
