//! Waveform-level OOK modem: IQ samples, AWGN, matched filtering.
//!
//! The closed forms in [`crate::ber`] are only trustworthy if an actual
//! modulator → channel → demodulator chain reproduces them. This module is
//! that chain, sample by sample:
//!
//! * [`OokModem::modulate`] — maps bits to rectangular OOK pulses at a
//!   configurable oversampling factor (the tag side: switch open = mark),
//! * [`Awgn`] — complex white Gaussian noise calibrated to a target `Eb/N0`,
//! * [`OokModem::demodulate_coherent`] — matched filter plus a threshold
//!   on the real part (the reader side: the reader generates the carrier,
//!   so the backscatter it hears is phase-coherent),
//! * [`measure_ber`] — the Monte-Carlo harness on one sequential stream,
//!   and [`ber_sweep_par_with`] — the same harness chunked over the
//!   [`mmtag_rf::par`] engine at an explicit thread budget (one RNG stream
//!   per (point, bit-chunk), so parallel estimates are bit-identical at
//!   any thread count) behind experiment E5 and serve's sweeps; its work
//!   unit is a group of up to [`LANES`] equal-length chunks counted side
//!   by side.
//!
//! Bit convention: §6 of the paper maps data bit **0** to the reflective
//! state ("the switches are off and the amplitude of the reflected power is
//! high") and bit **1** to absorption. [`OokModem`] uses `mark_bit` to hold
//! that mapping so the same modem expresses either convention.
//!
//! ## The certified kernels, [`TrialScratch`] and [`LaneScratch`]
//!
//! The Monte-Carlo trial loop is the stack's hottest path. It has two
//! production shapes sharing one certificate, one exact replay and one
//! set of math lanes (DESIGN.md §11). [`count_bit_errors_scratch`] counts
//! one stream of any [`Rng`] (E16's OOK cells, perfbench's probe):
//! all bits drawn first, then the waveform streamed through groups of
//! whole symbols held in a caller-owned, group-sized [`TrialScratch`] —
//! noise from the certified Box–Muller block ([`uniform_pairs`] +
//! [`box_muller_certified`], `ln` through the vectorized
//! [`mmtag_rf::math::ln_lanes`] in `f64` and everything after it in `f32`
//! lanes, the in-phase noise only), a fused modulate+noise pass, and a
//! matched filter that carries [`LANES`] symbols side by side, both in
//! `f32`.
//! [`count_bit_errors_lanes`] counts up to [`LANES`] independent xoshiro
//! streams at once (E5's and serve's sweeps): the same stages laid out
//! across streams in a [`LaneScratch`], so one [`XoshiroLanes`] step draws
//! for every stream. Each threshold decision stands when the fast
//! statistic, compared in `f64`, clears the threshold by a margin a
//! rounding analysis at `f32`'s `u = 2⁻²⁴` proves larger than any gap to
//! the exact statistic; a symbol inside the margin is replayed through
//! the exact libm chain from its kept uniforms, and each call adds its
//! replays to the `phy.ber.replays` counter. The
//! steady state of either trial loop performs **zero heap allocations**
//! (verified by the repo's allocation-guard integration test). Their test
//! oracle is the allocating chain above, written out in this module's
//! tests: one [`Rng::bit`] per bit, [`OokModem::modulate`], one
//! [`Rng::normal_pair`] added per sample, then
//! [`OokModem::demodulate_coherent`]. Both kernels match it bit for bit —
//! same counts, same RNG stream position, lane by lane — at the
//! production margin and with every decision forced through the replay.
//! The kernels decide coherently only: the non-coherent (envelope) model
//! is the closed form [`crate::ber::ook_noncoherent_ber`].
//!
//! Noise streams are **sampler v2**: AWGN consumes both Box–Muller
//! branches through [`Rng::normal_pair`] (one uniform pair per complex
//! sample), halving transcendental calls relative to the scalar
//! [`Rng::normal`] path ([`Awgn::apply`], sampler v1). Determinism across
//! thread counts is unaffected by the choice.

use mmtag_rf::math::LANES;
use mmtag_rf::obs;
use mmtag_rf::par;
use mmtag_rf::rng::{
    box_muller_certified, box_muller_exact, uniform_pairs, uniform_pairs_lanes, Rng, SeedTree,
    Xoshiro256pp, XoshiroLanes, BM_BLOCK,
};
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

    /// The sample level `bit` is sent at: the amplitude for a mark, else 0.
    pub(crate) fn level(&self, bit: bool) -> f64 {
        if self.is_mark(bit) {
            self.amplitude
        } else {
            0.0
        }
    }

    /// Modulates bits into baseband IQ samples.
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

    /// The decision threshold of the demodulator and the bit-error
    /// counters: half the integrated mark level.
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
    /// `true` bit*, regardless of which bit the mark state carries: with the
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
    /// component (cosine branch only — **sampler v1**). A test reference:
    /// no production path calls it. The BPSK counter
    /// ([`crate::bpsk::measure_bpsk_ber`], E16) and E26's receive chain
    /// ([`crate::cancellation::ReceiveChain::bit_errors`]) read this
    /// stream: both reproduce this noise bit for bit while computing only
    /// the in-phase draws no decision can do without, and keep the
    /// allocating chain through this method as their test oracle. The OOK
    /// BER kernel ([`count_bit_errors_scratch`]) instead consumes one
    /// [`Rng::normal_pair`] per sample, a *different* (equally valid)
    /// noise stream from the same seed.
    pub fn apply<R: Rng + ?Sized>(&self, samples: &mut [Complex], rng: &mut R) {
        for s in samples {
            *s += Complex::new(self.sigma * rng.normal(), self.sigma * rng.normal());
        }
    }
}

/// The certificate's margin factor `K = 2⁻¹⁶ = 2⁸·u` (`u = 2⁻²⁴`, the
/// `f32` unit roundoff): a fast decision stands when its statistic clears
/// the threshold by more than `K·(sps + 15)·Σⱼ Bⱼ` (DESIGN.md §11,
/// "Certified decisions", derives `|S' − S| ≤ (sps + 15)·u·Σⱼ Bⱼ` for
/// every `sps ≤` [`MAX_CERTIFIED_SPS`], so `K` leaves a factor of 2⁸ over
/// the worst case).
pub(crate) const CERT_MARGIN: f64 = 1.0 / (1u64 << 16) as f64;

/// One symbol's certificate bound `(sps + 15)·Σⱼ Bⱼ`, with `Σⱼ Bⱼ`
/// evaluated as `sps·|a| + |σ|·Σⱼ r'ⱼ` for level `a`. `sps + 15` counts
/// the `u·Σⱼ Bⱼ` steps the fast statistic can err by: the fold's
/// `sps − 1` `f32` additions, and 16 that hold the sample's roundings
/// (10.8) with the fold's excess over `sps − 1` (DESIGN.md §11).
#[inline]
fn cert_bound(sps: usize, a: f64, sigma: f64, sum_r: f32) -> f64 {
    (sps + 15) as f64 * (sps as f64 * a.abs() + sigma.abs() * f64::from(sum_r))
}

/// True when the fast statistic decides `S > θ` for certain: it clears
/// the threshold by more than `margin·bound`. The comparison runs in
/// `f64`, where the `f32` statistic is exact, so `θ` is never rounded. A
/// NaN statistic or bound never clears it.
#[inline]
pub(crate) fn certified(fast: f64, threshold: f64, bound: f64, margin: f64) -> bool {
    (fast - threshold).abs() > margin * bound
}

/// The margin a call at level `amplitude` and noise `sigma` decides at:
/// `margin` when both are zero or of a magnitude in `[2⁻⁶⁰, 2⁶⁰]` — then
/// every product and sum the `f32` fast path forms from them is a normal
/// `f32` or exact, as the certificate assumes — and `∞` otherwise, which
/// sends every decision of the call through the exact replay. A NaN is
/// never in range.
pub(crate) fn fast_margin(margin: f64, amplitude: f64, sigma: f64) -> f64 {
    let in_range = |x: f64| x == 0.0 || (2f64.powi(-60)..=2f64.powi(60)).contains(&x.abs());
    if in_range(amplitude) && in_range(sigma) {
        margin
    } else {
        f64::INFINITY
    }
}

/// The largest oversampling factor the certificate covers: its fold-error
/// term grows with the number of samples summed per symbol, and the
/// derivation bounds it for `sps ≤ 2¹²`.
pub const MAX_CERTIFIED_SPS: usize = 1 << 12;

/// Symbols per group of the streamed kernels: a multiple of [`LANES`],
/// and as many as fit in one [`BM_BLOCK`] of samples where `sps` allows
/// (`sps ≤ 8`); otherwise one lane's worth.
pub(crate) fn group_symbols(sps: usize) -> usize {
    (BM_BLOCK / sps / LANES).max(1) * LANES
}

/// Sums each symbol's `sps` consecutive samples of `x`, first to last
/// from `0.0` in `f32`, [`LANES`] independent symbols side by side.
/// `out.len()` symbols, a multiple of [`LANES`].
fn fold_symbols(x: &[f32], sps: usize, out: &mut [f32]) {
    for (seg, sums) in x.chunks_exact(LANES * sps).zip(out.chunks_exact_mut(LANES)) {
        let mut acc = [0.0f32; LANES];
        for j in 0..sps {
            for l in 0..LANES {
                acc[l] += seg[l * sps + j];
            }
        }
        sums.copy_from_slice(&acc);
    }
}

/// One group of symbols' buffers, shared by the streamed OOK and BPSK
/// kernels: the kept uniforms, the fast radii, and the noisy waveform's
/// in-phase component, each `group_symbols(sps)·sps` long, plus each
/// symbol's fast statistic and certificate bound. Every value a kernel
/// reads is written first in the same group (a partial last lane folds
/// stale samples into sums nobody reads).
#[derive(Clone, Debug, Default)]
pub(crate) struct SymbolGroup {
    /// Kept `u1` uniforms, for exact replay.
    pub(crate) u1: Vec<f64>,
    /// Kept `u2` uniforms, for exact replay.
    pub(crate) u2: Vec<f64>,
    /// Fast Box–Muller radii `r'`.
    pub(crate) r: Vec<f32>,
    /// I components: the cosine-branch noise, then the noisy samples.
    pub(crate) re: Vec<f32>,
    /// Per symbol: the fast statistic `S'`.
    pub(crate) stat: Vec<f32>,
    /// Per symbol: the certificate bound, [`cert_bound`].
    pub(crate) bound: Vec<f64>,
}

impl SymbolGroup {
    /// Sizes every buffer for groups at `sps` (capacity never shrinks, so
    /// a warm scratch resizes without allocating).
    pub(crate) fn reserve_for(&mut self, sps: usize) {
        let symbols = group_symbols(sps);
        for buf in [&mut self.u1, &mut self.u2] {
            buf.resize(symbols * sps, 0.0);
        }
        for buf in [&mut self.r, &mut self.re] {
            buf.resize(symbols * sps, 0.0);
        }
        self.stat.resize(symbols, 0.0);
        self.bound.resize(symbols, 0.0);
    }

    /// One OOK group: draws `bits.len() · sps` pairs through the certified
    /// block and hands the I noise to [`SymbolGroup::modulate_and_fold`].
    fn ook<R: Rng + ?Sized>(&mut self, rng: &mut R, modem: &OokModem, sigma: f64, bits: &[bool]) {
        let sps = modem.samples_per_symbol;
        let ns = bits.len() * sps;
        let SymbolGroup { u1, u2, r, re, .. } = self;
        uniform_pairs(rng, &mut u1[..ns], &mut u2[..ns]);
        box_muller_certified(&u1[..ns], &u2[..ns], &mut r[..ns], &mut re[..ns]);
        self.modulate_and_fold(sps, sigma, bits, |bit| modem.level(bit));
    }

    /// With `re` holding the group's cosine-branch noise: the fused
    /// modulate + AWGN pass in `f32` (`a + σ·nᵢ` on I, `a = level(bit)`),
    /// then symbol `l`'s fast statistic `S'` to `stat[l]` and its
    /// [`cert_bound`] to `bound[l]`.
    pub(crate) fn modulate_and_fold(
        &mut self,
        sps: usize,
        sigma: f64,
        bits: &[bool],
        level: impl Fn(bool) -> f64,
    ) {
        let ns = bits.len() * sps;
        let sigma32 = sigma as f32;
        for (x, &bit) in self.re[..ns].chunks_exact_mut(sps).zip(bits) {
            let a = level(bit) as f32;
            for v in x {
                *v = a + sigma32 * *v;
            }
        }
        let lanes = bits.len().div_ceil(LANES) * LANES;
        let mut sum_r = [0.0f32; BM_BLOCK];
        fold_symbols(&self.re[..lanes * sps], sps, &mut self.stat[..lanes]);
        fold_symbols(&self.r[..lanes * sps], sps, &mut sum_r[..lanes]);
        for ((b, &sr), &bit) in self.bound.iter_mut().zip(&sum_r).zip(bits) {
            *b = cert_bound(sps, level(bit), sigma, sr);
        }
    }
}

/// Caller-owned workspace for the zero-allocation trial kernel
/// ([`count_bit_errors_scratch`]).
///
/// Ownership rules (DESIGN.md §8): the scratch belongs to exactly one
/// worker at a time, and a kernel **writes every value it uses before
/// reading it**, so a scratch carries no information between trials and
/// reusing one across work units cannot perturb results. The bit buffer
/// grows to the largest chunk ever processed; the sample buffers hold one
/// group of symbols (at least [`BM_BLOCK`] samples, `LANES·sps` above
/// `sps = 8`), whatever the chunk length. Nothing shrinks, so the steady
/// state of a trial loop performs zero heap allocations.
#[derive(Clone, Debug, Default)]
pub struct TrialScratch {
    /// The chunk's random data bits.
    bits: Vec<bool>,
    /// The current group's samples.
    group: SymbolGroup,
}

impl TrialScratch {
    /// An empty workspace; buffers are sized lazily by the first trial.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The zero-allocation trial kernel: draws `n_bits` random bits and the
/// AWGN from `rng`, runs modulate → noise → demodulate-and-count inside
/// `scratch`, and returns the bit-error count.
///
/// The count and the RNG stream position are **bit-identical** to the
/// allocating chain — [`OokModem::modulate`], one [`Rng::normal_pair`]
/// added per sample, the demodulators — which the differential tests pin.
/// How it gets there (DESIGN.md §11):
///
/// * all bits are drawn first ([`Rng::fill_bits`]); the waveform then
///   streams through groups of whole symbols (a multiple of [`LANES`],
///   one [`BM_BLOCK`] of samples where `sps` allows), so the buffers stay
///   group-sized whatever `n_bits` is;
/// * each group's noise comes from the **certified** Box–Muller block
///   ([`uniform_pairs`] + [`box_muller_certified`]): the same draws as the
///   exact chain, but `ln` through the vectorized
///   [`mmtag_rf::math::ln_lanes`] instead of libm, everything after it in
///   `f32`, and the uniforms kept;
/// * a fused modulate+noise sweep and a lane matched filter, both in
///   `f32`, give each symbol its fast statistic `S'` (the real part)
///   together with `Σⱼ Bⱼ`, `Bⱼ = |a| + |σ|·r'ⱼ`;
/// * the decision `S' > θ` stands when `|S' − θ| > K·(sps + 15)·Σⱼ Bⱼ`
///   (compared in `f64`), a margin the rounding analysis proves larger
///   than any gap to the exact statistic; otherwise that one symbol is
///   replayed through the exact libm chain from its kept uniforms
///   ([`box_muller_exact`]), and so is every symbol of a call whose `σ`
///   or amplitude lies outside the range `f32` covers. At published size
///   E05 replays 555 of its 3 000 000 decisions and E16, OOK and BPSK
///   together, 181 of 2 000 000 (their manifests' `phy.ber.replays`).
///
/// [`measure_ber`] runs this kernel with a one-shot workspace; a caller
/// counting many chunks threads one [`TrialScratch`] through all of them,
/// so buffer allocation amortizes across every chunk it counts.
///
/// `coherent` must be `true`: the kernel decides on the real part only.
///
/// # Panics
/// Panics if `coherent` is `false` or `samples_per_symbol` exceeds
/// [`MAX_CERTIFIED_SPS`].
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
    assert!(coherent, "{COHERENT_ONLY}");
    count_certified(modem, awgn, n_bits, rng, scratch, CERT_MARGIN)
}

/// Why `coherent = false` panics: the certified counters implement one
/// detector. `coherent` stays on [`count_bit_errors_scratch`] and
/// [`ber_sweep_par_with`] only because perfbench passes it positionally.
const COHERENT_ONLY: &str = "the certified BER counters decide coherently only; \
                             ber::ook_noncoherent_ber is the non-coherent (envelope) model";

/// [`count_bit_errors_scratch`] at an explicit certificate margin factor
/// (production passes [`CERT_MARGIN`]; the tests pass `∞` to force every
/// decision through the exact replay).
fn count_certified<R: Rng + ?Sized>(
    modem: &OokModem,
    awgn: &Awgn,
    n_bits: usize,
    rng: &mut R,
    scratch: &mut TrialScratch,
    margin: f64,
) -> usize {
    let _span = obs::span("phy.ber.chunk");
    let sps = modem.samples_per_symbol;
    assert!(
        sps <= MAX_CERTIFIED_SPS,
        "the decision certificate covers at most {MAX_CERTIFIED_SPS} samples per symbol"
    );
    let TrialScratch { bits, group } = scratch;
    bits.resize(n_bits, false);
    rng.fill_bits(bits);
    group.reserve_for(sps);
    let sigma = awgn.sigma;
    let margin = fast_margin(margin, modem.amplitude, sigma);
    let threshold = modem.decision_threshold();
    let (mut errors, mut replays) = (0u64, 0u64);
    for group_bits in bits.chunks(group_symbols(sps)) {
        group.ook(rng, modem, sigma, group_bits);
        for (l, &bit) in group_bits.iter().enumerate() {
            let fast = f64::from(group.stat[l]);
            let s = if certified(fast, threshold, group.bound[l], margin) {
                fast
            } else {
                replays += 1;
                let at = l * sps..(l + 1) * sps;
                let pairs = group.u1[at.clone()].iter().zip(&group.u2[at]);
                let a = modem.level(bit);
                exact_ook_statistic(pairs.map(|(&v1, &v2)| (v1, v2)), a, sigma)
            };
            let decided = (s > threshold) == modem.mark_bit;
            errors += u64::from(decided != bit);
        }
    }
    let errors = errors as usize;
    obs::counter_add("phy.ber.bits", n_bits as u64);
    obs::counter_add("phy.ber.replays", replays);
    obs::observe("phy.ber.chunk_errors", errors as u64);
    errors
}

/// One symbol's exact matched-filter statistic, replayed from its kept
/// uniform pairs `(u1, u2)`, first sample first: each pair's cosine
/// branch through [`box_muller_exact`] (libm `ln`), `a + σ·nᵢ`, summed
/// first to last from `0.0` — the allocating chain's real part,
/// operation for operation.
#[cold]
fn exact_ook_statistic(pairs: impl Iterator<Item = (f64, f64)>, a: f64, sigma: f64) -> f64 {
    let mut sum = 0.0f64;
    for (v1, v2) in pairs {
        sum += a + sigma * box_muller_exact(v1, v2).0;
    }
    sum
}

/// Caller-owned workspace for the lane counter
/// ([`count_bit_errors_lanes`]), under [`TrialScratch`]'s ownership rules:
/// one worker at a time, every value written before it is read. It holds
/// one byte per symbol step for the lanes' bits and one group of sample
/// steps laid out across streams (`[k][l]` is sample `k` of lane `l`):
/// as many whole symbols as fit in [`BM_BLOCK`] steps (4 KiB per `f64`
/// buffer, 2 KiB per `f32` one) where `sps ≤ 64`, one symbol's `sps`
/// steps above. Nothing shrinks, so a warm scratch never allocates.
#[derive(Clone, Debug, Default)]
pub struct LaneScratch {
    /// Per symbol step, bit `l` is lane `l`'s data bit.
    bits: Vec<u8>,
    /// Kept `u1` uniforms, for exact replay.
    u1: Vec<[f64; LANES]>,
    /// Kept `u2` uniforms, for exact replay.
    u2: Vec<[f64; LANES]>,
    /// Fast Box–Muller radii `r'`.
    r: Vec<[f32; LANES]>,
    /// Cosine-branch noise.
    re: Vec<[f32; LANES]>,
}

impl LaneScratch {
    /// An empty workspace; buffers are sized lazily by the first call.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`count_bit_errors_scratch`] on up to [`LANES`] equal-length streams at
/// once: stream `l` draws from `rngs[l]` at noise `awgns[l]`, and count
/// `l` is exactly what [`count_bit_errors_scratch`] returns on that stream
/// — the same decisions, and each generator left where that call leaves
/// it. Counts past `rngs.len()` are zero.
///
/// The streams run side by side in vector lanes, laid out across streams
/// (sample `k` of lane `l` at `[k][l]`), so the serial xoshiro draws of
/// one stream become one [`XoshiroLanes`] step for all of them:
///
/// * each lane's bits are drawn first, as the single-stream kernel draws
///   them, one byte per symbol step holding every lane's bit;
/// * then groups of whole symbols: [`uniform_pairs_lanes`] (a rejected
///   `u1` is compacted inside its own lane's stream), the certified
///   Box–Muller math over the group ([`box_muller_certified`], `f32`
///   after the `ln`), and per-lane running `f32` matched-filter and
///   radius sums folded in the single-stream kernel's order;
/// * every lane decides branch-free under the same certificate
///   (`|S' − θ| > K·(sps + 15)·Σⱼ Bⱼ`), with one test per symbol step
///   for any lane inside the margin; such a lane's symbol replays
///   through the same exact libm chain from its kept uniforms.
///
/// Idle lanes (past `rngs.len()`) run a noise-free copy of lane 0's
/// stream that is never counted, replayed or written back.
///
/// # Panics
/// Panics if `rngs` and `awgns` differ in length or exceed [`LANES`], or
/// if `samples_per_symbol` exceeds [`MAX_CERTIFIED_SPS`].
pub fn count_bit_errors_lanes(
    modem: &OokModem,
    awgns: &[Awgn],
    n_bits: usize,
    rngs: &mut [Xoshiro256pp],
    scratch: &mut LaneScratch,
) -> [usize; LANES] {
    count_certified_lanes(modem, awgns, n_bits, rngs, scratch, CERT_MARGIN)
}

/// [`count_bit_errors_lanes`] at an explicit certificate margin factor
/// (production passes [`CERT_MARGIN`]; the tests pass `∞` to force every
/// decision through the exact replay).
fn count_certified_lanes(
    modem: &OokModem,
    awgns: &[Awgn],
    n_bits: usize,
    rngs: &mut [Xoshiro256pp],
    scratch: &mut LaneScratch,
    margin: f64,
) -> [usize; LANES] {
    let streams = rngs.len();
    assert!(
        streams <= LANES && awgns.len() == streams,
        "one noise level per stream, at most {LANES} streams"
    );
    let sps = modem.samples_per_symbol;
    assert!(
        sps <= MAX_CERTIFIED_SPS,
        "the decision certificate covers at most {MAX_CERTIFIED_SPS} samples per symbol"
    );
    let mut errors = [0usize; LANES];
    let Some(first) = rngs.first() else {
        return errors;
    };
    let _span = obs::span("phy.ber.lanes");
    let mut lanes = XoshiroLanes::new(&std::array::from_fn(|l| {
        rngs.get(l).unwrap_or(first).clone()
    }));
    let active: [bool; LANES] = std::array::from_fn(|l| l < streams);
    let sigma: [f64; LANES] = std::array::from_fn(|l| awgns.get(l).map_or(0.0, |a| a.sigma));
    let sigma32 = sigma.map(|s| s as f32);
    let margins = sigma.map(|s| fast_margin(margin, modem.amplitude, s));
    let LaneScratch {
        bits,
        u1,
        u2,
        r,
        re,
    } = scratch;
    bits.resize(n_bits, 0);
    for b in bits.iter_mut() {
        let raw = lanes.next_u64s();
        *b = (0..LANES).fold(0, |m, l| m | ((raw[l] >> 63) as u8) << l);
    }
    let symbols = (BM_BLOCK / sps).max(1);
    for buf in [&mut *u1, &mut *u2] {
        buf.resize(symbols * sps, [0.0; LANES]);
    }
    for buf in [&mut *r, &mut *re] {
        buf.resize(symbols * sps, [0.0; LANES]);
    }
    let threshold = modem.decision_threshold();
    let decided = |s: f64| (s > threshold) == modem.mark_bit;
    let mut replays = 0u64;
    for group_bits in bits.chunks(symbols) {
        let ns = group_bits.len() * sps;
        uniform_pairs_lanes(&mut lanes, &mut u1[..ns], &mut u2[..ns]);
        box_muller_certified(
            u1[..ns].as_flattened(),
            u2[..ns].as_flattened(),
            r[..ns].as_flattened_mut(),
            re[..ns].as_flattened_mut(),
        );
        for (at, &mask) in (0..ns).step_by(sps).zip(group_bits) {
            let at = at..at + sps;
            let bit: [bool; LANES] = std::array::from_fn(|l| mask >> l & 1 == 1);
            let a = bit.map(|b| modem.level(b));
            let a32 = a.map(|v| v as f32);
            // Fused modulate + AWGN + matched filter in `f32`, per lane
            // the single-stream kernel's `a + σ·nᵢ` folded from `0.0`.
            let mut stat = [0.0f32; LANES];
            let mut sum_r = [0.0f32; LANES];
            for (x, rk) in re[at.clone()].iter().zip(&r[at.clone()]) {
                for l in 0..LANES {
                    stat[l] += a32[l] + sigma32[l] * x[l];
                    sum_r[l] += rk[l];
                }
            }
            let stat = stat.map(f64::from);
            let mut inside = [false; LANES];
            for l in 0..LANES {
                let bound = cert_bound(sps, a[l], sigma[l], sum_r[l]);
                inside[l] = active[l] & !certified(stat[l], threshold, bound, margins[l]);
                errors[l] += usize::from(decided(stat[l]) != bit[l]);
            }
            // One test for the whole step keeps the lanes branch-free;
            // a lane inside the margin is rare (DESIGN.md §11).
            if inside.contains(&true) {
                for l in (0..LANES).filter(|&l| inside[l]) {
                    replays += 1;
                    let pairs = u1[at.clone()].iter().zip(&u2[at.clone()]);
                    let pairs = pairs.map(|(v1, v2)| (v1[l], v2[l]));
                    let exact = exact_ook_statistic(pairs, a[l], sigma[l]);
                    errors[l] -= usize::from(decided(stat[l]) != bit[l]);
                    errors[l] += usize::from(decided(exact) != bit[l]);
                }
            }
        }
    }
    for (l, rng) in rngs.iter_mut().enumerate() {
        *rng = lanes.lane(l);
    }
    obs::counter_add("phy.ber.bits", (n_bits * streams) as u64);
    obs::counter_add("phy.ber.replays", replays);
    for &e in &errors[..streams] {
        obs::observe("phy.ber.chunk_errors", e as u64);
    }
    errors
}

/// Bits per work unit for the parallel BER harness. Fixed (never derived
/// from the thread count) so the chunk decomposition — and therefore the
/// randomness each chunk consumes — is identical at any worker budget.
pub const MC_CHUNK_BITS: usize = 8_192;

/// Monte-Carlo BER of the full modulate → AWGN → coherent demodulate
/// chain at a mean `Eb/N0`, over `n_bits` random bits drawn from `rng`:
/// [`count_bit_errors_scratch`]'s count with a one-shot workspace
/// (**sampler v2** noise).
pub fn measure_ber<R: Rng + ?Sized>(
    modem: &OokModem,
    eb_n0_db: f64,
    n_bits: usize,
    rng: &mut R,
) -> f64 {
    assert!(n_bits > 0, "need at least one bit");
    let awgn = Awgn::for_eb_n0(modem, eb_n0_db);
    let mut scratch = TrialScratch::new();
    count_certified(modem, &awgn, n_bits, rng, &mut scratch, CERT_MARGIN) as f64 / n_bits as f64
}

/// A full BER-vs-SNR sweep at a `threads` budget, parallelized over
/// *both* axes: every (SNR point, bit-chunk) pair is an independent
/// stream, so a sweep with few points still saturates a many-core machine.
/// Point `si` chunk `ci` draws from
/// `tree.subtree_indexed("snr", si).rng_indexed("ber-chunk", ci)` — each
/// point's randomness is independent of the sweep length, and the whole
/// sweep is bit-identical at any thread count.
///
/// The pool's work unit is a group of up to [`LANES`] chunks of equal
/// length, counted side by side by [`count_bit_errors_lanes`]: every
/// point's full [`MC_CHUNK_BITS`] chunks first, then each point's partial
/// chunk. The grouping depends only on the point count and
/// `bits_per_point`, and each point's integer counts are summed before
/// the one division, so every estimate is what counting each chunk alone
/// gives.
///
/// # Panics
/// Panics if `coherent` is `false` (the counters decide coherently only)
/// or `bits_per_point` is zero.
pub fn ber_sweep_par_with(
    threads: usize,
    modem: &OokModem,
    snrs_db: &[f64],
    bits_per_point: usize,
    coherent: bool,
    tree: &SeedTree,
) -> Vec<f64> {
    assert!(coherent, "{COHERENT_ONLY}");
    assert!(bits_per_point > 0, "need at least one bit per point");
    let _span = obs::span("phy.ber.sweep");
    let (full, tail) = (
        bits_per_point / MC_CHUNK_BITS,
        bits_per_point % MC_CHUNK_BITS,
    );
    // (point, chunk) pairs: the full chunks, then the partial ones.
    let mut chunks: Vec<(usize, usize)> = (0..snrs_db.len())
        .flat_map(|si| (0..full).map(move |ci| (si, ci)))
        .collect();
    let split = chunks.len();
    if tail > 0 {
        chunks.extend((0..snrs_db.len()).map(|si| (si, full)));
    }
    let groups: Vec<(&[(usize, usize)], usize)> = chunks[..split]
        .chunks(LANES)
        .map(|g| (g, MC_CHUNK_BITS))
        .chain(chunks[split..].chunks(LANES).map(|g| (g, tail)))
        .collect();
    let awgns: Vec<Awgn> = snrs_db
        .iter()
        .map(|&snr| Awgn::for_eb_n0(modem, snr))
        .collect();
    let count_group = |scratch: &mut LaneScratch, g: usize| {
        let (group, n) = groups[g];
        let chunk = |l: usize| group[l.min(group.len() - 1)];
        let mut rngs: [Xoshiro256pp; LANES] = std::array::from_fn(|l| {
            let (si, ci) = chunk(l);
            tree.subtree_indexed("snr", si as u64)
                .rng_indexed("ber-chunk", ci as u64)
        });
        let noise: [Awgn; LANES] = std::array::from_fn(|l| awgns[chunk(l).0]);
        let k = group.len();
        count_bit_errors_lanes(modem, &noise[..k], n, &mut rngs[..k], scratch)
    };
    let errors =
        par::par_indexed_scratch_with(threads, groups.len(), LaneScratch::new, count_group);
    let mut point_errors = vec![0u64; snrs_db.len()];
    for ((group, _), counts) in groups.iter().zip(&errors) {
        for (&(si, _), &e) in group.iter().zip(counts) {
            point_errors[si] += e as u64;
        }
    }
    point_errors
        .iter()
        .map(|&e| e as f64 / bits_per_point as f64)
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ber::ook_coherent_ber;
    use mmtag_rf::rng::Xoshiro256pp;

    /// A raw `u64` whose top 53 bits are zero: as a `u1` draw it is the
    /// 2⁻⁵³ Box–Muller rejection.
    pub(crate) const REJECTED_U1: u64 = 0x7FF;

    /// Replays a canned prefix of raws, then falls through to xoshiro —
    /// the way to land a `u1` rejection at a chosen stream position.
    #[derive(Clone)]
    pub(crate) struct ScriptedRng {
        script: Vec<u64>,
        at: usize,
        tail: Xoshiro256pp,
    }

    impl ScriptedRng {
        /// `seed`'s first `len` raws with `REJECTED_U1` planted at each of
        /// `rejections` (stream positions), then the rest of that stream.
        pub(crate) fn planted(seed: u64, len: usize, rejections: &[usize]) -> Self {
            let mut tail = Xoshiro256pp::seed_from(seed);
            let mut script: Vec<u64> = (0..len).map(|_| tail.next_u64()).collect();
            for &p in rejections {
                script[p] = REJECTED_U1;
            }
            ScriptedRng {
                script,
                at: 0,
                tail,
            }
        }
    }

    impl Rng for ScriptedRng {
        fn next_u64(&mut self) -> u64 {
            match self.script.get(self.at) {
                Some(&raw) => {
                    self.at += 1;
                    raw
                }
                None => self.tail.next_u64(),
            }
        }
    }

    #[test]
    fn noiseless_roundtrip_is_error_free() {
        let modem = OokModem::new(4);
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let samples = modem.modulate(&bits);
        assert_eq!(samples.len(), 64 * 4);
        assert_eq!(modem.demodulate_coherent(&samples), bits);
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
        let measured = measure_ber(&modem, eb_n0_db, 400_000, &mut rng);
        let theory = ook_coherent_ber(10f64.powf(eb_n0_db / 10.0));
        // theory ≈ 7.8e-4; allow 4σ of the binomial estimator plus an
        // absolute 1e-5.
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
        let measured = measure_ber(&modem, 6.0, 200_000, &mut rng);
        let theory = ook_coherent_ber(10f64.powf(0.6));
        assert!(
            (measured - theory).abs() / theory < 0.1,
            "measured {measured} vs theory {theory}"
        );
    }

    #[test]
    fn ber_decreases_with_snr() {
        let modem = OokModem::new(4);
        let mut rng = Xoshiro256pp::seed_from(5);
        let b4 = measure_ber(&modem, 4.0, 100_000, &mut rng);
        let b8 = measure_ber(&modem, 8.0, 100_000, &mut rng);
        let b12 = measure_ber(&modem, 12.0, 100_000, &mut rng);
        assert!(b4 > b8 && b8 > b12, "{b4} > {b8} > {b12} violated");
    }

    #[test]
    fn oversampling_does_not_change_ber() {
        // Matched filtering makes BER depend only on Eb/N0, not on sps.
        let mut rng = Xoshiro256pp::seed_from(31);
        let b2 = measure_ber(&OokModem::new(2), 8.0, 200_000, &mut rng);
        let b16 = measure_ber(&OokModem::new(16), 8.0, 200_000, &mut rng);
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

    /// Both kernels' oracle: the allocating chain, stage by stage —
    /// one [`Rng::bit`] per bit, [`OokModem::modulate`], one
    /// [`Rng::normal_pair`] added per sample, then the demodulator — with
    /// the errors counted against the sent bits.
    fn oracle_bit_errors<R: Rng + ?Sized>(
        modem: &OokModem,
        awgn: &Awgn,
        n_bits: usize,
        rng: &mut R,
    ) -> usize {
        let bits: Vec<bool> = (0..n_bits).map(|_| rng.bit()).collect();
        let mut samples = modem.modulate(&bits);
        for s in &mut samples {
            let (ni, nq) = rng.normal_pair();
            *s += Complex::new(awgn.sigma * ni, awgn.sigma * nq);
        }
        let decided = modem.demodulate_coherent(&samples);
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
        // The kernel contract: the single-stream kernel (its matched
        // filter carries LANES symbols side by side) returns the same count
        // AND leaves the RNG at the same stream position as the allocating
        // oracle chain, at every length class — empty, sub-lane, the
        // 8-lane boundary and its neighbours, and long chunks that
        // exercise many full lane blocks plus a tail — under both mark
        // conventions.
        for &n in &[0usize, 1, 7, 8, 9, 1000, 100_000] {
            for mark_bit in [false, true] {
                for sps in [1usize, 4] {
                    let modem = OokModem {
                        mark_bit,
                        ..OokModem::new(sps)
                    };
                    let awgn = Awgn::for_eb_n0(&modem, 4.0);
                    let mut rng_a = Xoshiro256pp::seed_from(0xB17 ^ n as u64);
                    let mut rng_b = Xoshiro256pp::seed_from(0xB17 ^ n as u64);
                    let mut scratch = TrialScratch::new();
                    let lanes =
                        count_bit_errors_scratch(&modem, &awgn, n, true, &mut rng_a, &mut scratch);
                    let oracle = oracle_bit_errors(&modem, &awgn, n, &mut rng_b);
                    assert_eq!(
                        lanes, oracle,
                        "count diverged at n={n} mark_bit={mark_bit} sps={sps}"
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

    /// SNRs from deep noise to near-noiseless, for the certificate tests.
    pub(crate) const CERT_SNRS_DB: [f64; 6] = [-5.0, 0.0, 4.0, 9.5, 17.0, 30.0];

    #[test]
    fn forced_replay_and_production_margin_both_match_the_oracle() {
        // With the margin at ∞ every decision replays the exact chain; at
        // K the fast path decides almost all of them. Both must give the
        // oracle's count and leave the stream where it does.
        for sps in [1usize, 3, 4, 8] {
            for n in [1usize, 7, 9, 16, 17, 1000] {
                for (si, &snr) in CERT_SNRS_DB.iter().enumerate() {
                    let modem = OokModem {
                        mark_bit: si % 2 == 1,
                        ..OokModem::new(sps)
                    };
                    let awgn = Awgn::for_eb_n0(&modem, snr);
                    let seed = 0xCE27 ^ (n as u64) << 8 ^ (sps as u64) << 20 ^ si as u64;
                    let mut oracle_rng = Xoshiro256pp::seed_from(seed);
                    let want = oracle_bit_errors(&modem, &awgn, n, &mut oracle_rng);
                    let next = oracle_rng.next_u64();
                    for margin in [f64::INFINITY, CERT_MARGIN] {
                        let mut rng = Xoshiro256pp::seed_from(seed);
                        let mut scratch = TrialScratch::new();
                        let got = count_certified(&modem, &awgn, n, &mut rng, &mut scratch, margin);
                        let case = format!("sps={sps} n={n} snr={snr} margin={margin}");
                        assert_eq!(got, want, "{case}");
                        assert_eq!(rng.next_u64(), next, "{case}: stream position");
                    }
                }
            }
        }
    }

    #[test]
    fn certificate_margin_has_2_pow_8_headroom_over_a_million_symbols() {
        // The fast statistic of every symbol against its exact replay:
        // the worst |S' − S| must stay 2⁸ below the margin
        // K·(sps + 15)·Σ Bⱼ the kernel accepts decisions at (DESIGN.md §11
        // derives ≤ u·(sps + 15)·Σ Bⱼ with u = 2⁻²⁴, and K = 2⁸·u).
        let mut worst = 0.0f64;
        let mut symbols = 0usize;
        let cases = [
            (1usize, 300_000usize),
            (4, 550_000),
            (8, 130_000),
            (64, 20_000),
        ];
        for (case, (sps, per_case)) in cases.into_iter().enumerate() {
            let modem = OokModem::new(sps);
            let mut rng = Xoshiro256pp::seed_from(0x4EAD ^ case as u64);
            let mut group = SymbolGroup::default();
            group.reserve_for(sps);
            let mut bits = vec![false; group_symbols(sps)];
            for g in 0..per_case.div_ceil(bits.len()) {
                let snr = CERT_SNRS_DB[g % CERT_SNRS_DB.len()];
                let sigma = Awgn::for_eb_n0(&modem, snr).sigma;
                rng.fill_bits(&mut bits);
                group.ook(&mut rng, &modem, sigma, &bits);
                for (l, &bit) in bits.iter().enumerate() {
                    let at = l * sps..(l + 1) * sps;
                    let pairs = group.u1[at.clone()].iter().zip(&group.u2[at]);
                    let pairs = pairs.map(|(&v1, &v2)| (v1, v2));
                    let exact = exact_ook_statistic(pairs, modem.level(bit), sigma);
                    let gap = (f64::from(group.stat[l]) - exact).abs();
                    worst = worst.max(gap / (CERT_MARGIN * group.bound[l]));
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
    fn exact_replay_reproduces_the_oracle_statistic_bit_for_bit() {
        // The replay path decides the symbols the certificate cannot, so
        // its statistic must be the oracle's matched-filter output itself,
        // bit for bit, not merely decide the same way.
        for sps in [1usize, 4, 8] {
            let modem = OokModem::new(sps);
            let sigma = Awgn::for_eb_n0(&modem, 2.0).sigma;
            let n = 300;
            let mut a = Xoshiro256pp::seed_from(0x2E91 ^ sps as u64);
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
            for (k, (&bit, z)) in bits.iter().zip(modem.matched_filter(&samples)).enumerate() {
                let at = k * sps..(k + 1) * sps;
                let pairs = u1[at.clone()].iter().zip(&u2[at]);
                let pairs = pairs.map(|(&v1, &v2)| (v1, v2));
                let got = exact_ook_statistic(pairs, modem.level(bit), sigma);
                assert_eq!(got.to_bits(), z.re.to_bits(), "sps={sps} symbol {k}");
            }
        }
    }

    #[test]
    fn rejection_inside_a_certified_block_matches_the_oracle() {
        // u1 rejections planted inside a group's block — the group's first
        // pair, mid-block, twice in a row, in a later group — must leave
        // the count and the stream position exactly as in the oracle.
        let n = 40usize;
        for sps in [1usize, 4] {
            let first_pair = n; // the bits take the first n raws
            let plants: [&[usize]; 4] = [
                &[first_pair],
                &[first_pair + 2 * 5],
                &[first_pair + 2 * 5, first_pair + 2 * 5 + 1],
                &[first_pair + 2 * (n * sps - 3)],
            ];
            for (pi, plant) in plants.iter().enumerate() {
                let modem = OokModem::new(sps);
                let awgn = Awgn::for_eb_n0(&modem, 3.0);
                let fresh = || ScriptedRng::planted(0xBAD ^ pi as u64, n + 2 * n * sps, plant);
                let mut oracle_rng = fresh();
                let want = oracle_bit_errors(&modem, &awgn, n, &mut oracle_rng);
                for margin in [f64::INFINITY, CERT_MARGIN] {
                    let mut rng = fresh();
                    let mut scratch = TrialScratch::new();
                    let got = count_certified(&modem, &awgn, n, &mut rng, &mut scratch, margin);
                    let case = format!("sps={sps} plant {pi} margin={margin}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(rng.next_u64(), oracle_rng.clone().next_u64(), "{case}");
                }
            }
        }
    }

    /// Runs the lane counter at `margin` on `streams` (one noise level
    /// each) and holds every lane to the allocating oracle and to
    /// [`count_bit_errors_scratch`] on a clone of its stream: the same
    /// count, and each generator left where both of them leave theirs.
    fn assert_lanes_match(
        modem: &OokModem,
        awgns: &[Awgn],
        n: usize,
        streams: &[Xoshiro256pp],
        margin: f64,
        case: &str,
    ) {
        let mut rngs = streams.to_vec();
        let mut scratch = LaneScratch::new();
        let got = count_certified_lanes(modem, awgns, n, &mut rngs, &mut scratch, margin);
        for (l, (start, awgn)) in streams.iter().zip(awgns).enumerate() {
            let mut oracle_rng = start.clone();
            let want = oracle_bit_errors(modem, awgn, n, &mut oracle_rng);
            let mut scalar_rng = start.clone();
            let scalar = count_bit_errors_scratch(
                modem,
                awgn,
                n,
                true,
                &mut scalar_rng,
                &mut TrialScratch::new(),
            );
            assert_eq!(got[l], want, "{case}: lane {l} against the oracle");
            assert_eq!(scalar, want, "{case}: lane {l}, single-stream kernel");
            assert_eq!(rngs[l], oracle_rng, "{case}: lane {l} stream position");
            assert_eq!(scalar_rng, oracle_rng, "{case}: lane {l} scalar position");
        }
        assert!(
            got[streams.len()..].iter().all(|&e| e == 0),
            "{case}: idle lanes"
        );
    }

    #[test]
    fn lane_counter_matches_the_oracle_and_the_single_stream_kernel_on_every_lane() {
        // Every length class (empty, sub-group, the 8-symbol boundary and
        // its neighbours, a full chunk plus a tail), every sps class (one
        // sample, odd, the production 4, a full lane, 64 samples per
        // symbol — one symbol per group — and 100, whose symbol spans two
        // blocks of the uniform stage), both mark conventions, a
        // different σ per lane, idle lanes, and both margins.
        let cases: &[(usize, &[usize])] = &[
            (0, &[1, 4, 64]),
            (1, &[1, 3, 4, 8, 64, 100]),
            (7, &[1, 3, 4, 8, 64]),
            (8, &[1, 3, 4, 8, 64]),
            (9, &[1, 3, 4, 8, 64, 100]),
            (17, &[1, 3, 4, 8, 64, 100]),
            (1000, &[1, 3, 4, 8]),
            (MC_CHUNK_BITS + 13, &[1, 4]),
        ];
        for (ci, &(n, spss)) in cases.iter().enumerate() {
            for (si, &sps) in spss.iter().enumerate() {
                let big = n * sps > 8_000;
                for (mi, mark_bit) in [false, true].into_iter().enumerate() {
                    let modem = OokModem {
                        mark_bit,
                        ..OokModem::new(sps)
                    };
                    // All eight lanes, then five with three idle, then one.
                    let k = [LANES, 5, 1][(ci + si + mi) % 3];
                    let awgns: Vec<Awgn> = (0..k)
                        .map(|l| Awgn::for_eb_n0(&modem, CERT_SNRS_DB[l % 6] + l as f64))
                        .collect();
                    let seed = 0x1A4E ^ (n as u64) << 12 ^ (sps as u64) << 32 ^ mi as u64;
                    let streams: Vec<Xoshiro256pp> = (0..k)
                        .map(|l| Xoshiro256pp::seed_from(seed ^ (l as u64) << 40))
                        .collect();
                    let margins: &[f64] = if big {
                        &[CERT_MARGIN]
                    } else {
                        &[f64::INFINITY, CERT_MARGIN]
                    };
                    for &margin in margins {
                        let case = format!(
                            "n={n} sps={sps} mark_bit={mark_bit} streams={k} margin={margin}"
                        );
                        assert_lanes_match(&modem, &awgns, n, &streams, margin, &case);
                    }
                }
            }
        }
    }

    /// xoshiro256's state one step back: the inverse of the step in
    /// [`Xoshiro256pp::next_u64`], in the state layout of
    /// [`Xoshiro256pp::from_state`].
    fn step_back([s0, s1, s2, s3]: [u64; 4]) -> [u64; 4] {
        let s3_s1 = s3.rotate_right(45);
        let old0 = s0 ^ s3_s1;
        // s1 ^ s2 = old1 ^ (old1 << 17); the shift-XOR inverts in three more.
        let y = s1 ^ s2;
        let old1 = y ^ y << 17 ^ y << 34 ^ y << 51;
        [old0, old1, s1 ^ old1 ^ old0, s3_s1 ^ old1]
    }

    /// A generator whose raw draw number `at` (from 0) is
    /// [`REJECTED_U1`]: the state that emits it (`s0 = 0`,
    /// `s3 = 0x7FF.rotate_right(23)`) stepped back `at` times.
    fn planted_stream(seed: u64, at: usize) -> Xoshiro256pp {
        let mut words = Xoshiro256pp::seed_from(seed);
        let mut state = [
            0,
            words.next_u64(),
            words.next_u64(),
            REJECTED_U1.rotate_right(23),
        ];
        for _ in 0..at {
            state = step_back(state);
        }
        let planted = Xoshiro256pp::from_state(state);
        let mut probe = planted.clone();
        for _ in 0..at {
            probe.next_u64();
        }
        assert_eq!(
            probe.next_u64(),
            REJECTED_U1,
            "the plant lands at draw {at}"
        );
        planted
    }

    #[test]
    fn lane_counter_compacts_a_rejection_inside_its_own_lane() {
        // One lane's u1 raw is the 2⁻⁵³ rejection: in the first pair, mid
        // group, in a later group, at sps = 64 past the first symbol, and
        // at sps = 100 in the second uniform block of a symbol. That lane
        // redraws from its own stream only; every lane must still match
        // the oracle and the single-stream kernel, counts and end
        // positions.
        let n = 40usize;
        let plants = [
            (1usize, 0usize),
            (4, 5),
            (4, 130),
            (3, 100),
            (64, 70),
            (100, 170),
        ];
        for (sps, pair) in plants {
            let modem = OokModem::new(sps);
            let planted_lane = (sps + pair) % LANES;
            let streams: Vec<Xoshiro256pp> = (0..LANES)
                .map(|l| {
                    let seed = 0xBAD ^ (sps as u64) << 8 ^ l as u64;
                    if l == planted_lane {
                        planted_stream(seed, n + 2 * pair)
                    } else {
                        Xoshiro256pp::seed_from(seed)
                    }
                })
                .collect();
            let awgns: Vec<Awgn> = (0..LANES)
                .map(|l| Awgn::for_eb_n0(&modem, 3.0 + l as f64))
                .collect();
            for margin in [f64::INFINITY, CERT_MARGIN] {
                let case = format!("sps={sps} pair {pair} margin={margin}");
                assert_lanes_match(&modem, &awgns, n, &streams, margin, &case);
            }
        }
    }

    #[test]
    #[ignore = "release-only: 2 × 10⁶ symbols; run by scripts/check.sh"]
    fn lane_counter_matches_the_single_stream_kernel_over_a_million_symbols_per_mark_convention() {
        // Production margin, the certificate's SNR points across the lanes
        // (and two lanes past them), chunk-sized streams as the BER sweep
        // runs them.
        let mut lanes = LaneScratch::new();
        let mut single = TrialScratch::new();
        for mark_bit in [false, true] {
            let modem = OokModem {
                mark_bit,
                ..OokModem::new(4)
            };
            let awgns: Vec<Awgn> = (0..LANES)
                .map(|l| Awgn::for_eb_n0(&modem, CERT_SNRS_DB[l % 6] - 2.0 * (l / 6) as f64))
                .collect();
            let mut symbols = 0usize;
            for call in 0..16u64 {
                let streams: Vec<Xoshiro256pp> = (0..LANES as u64)
                    .map(|l| Xoshiro256pp::seed_from(0x3E6 ^ call << 8 ^ l))
                    .collect();
                let mut rngs = streams.clone();
                let got =
                    count_bit_errors_lanes(&modem, &awgns, MC_CHUNK_BITS, &mut rngs, &mut lanes);
                for (l, mut rng) in streams.into_iter().enumerate() {
                    let want = count_bit_errors_scratch(
                        &modem,
                        &awgns[l],
                        MC_CHUNK_BITS,
                        true,
                        &mut rng,
                        &mut single,
                    );
                    assert_eq!(got[l], want, "mark_bit={mark_bit} call {call} lane {l}");
                    assert_eq!(rngs[l], rng, "mark_bit={mark_bit} call {call} lane {l}");
                }
                symbols += LANES * MC_CHUNK_BITS;
            }
            assert!(symbols >= 1_000_000, "only {symbols} symbols");
        }
    }

    /// The `phy.ber.replays` count events `run` records: one per counter
    /// call, whatever the margin, and their total.
    pub(crate) fn recorded_replays(run: impl FnOnce()) -> (usize, u64) {
        obs::set_level(obs::Level::Counters);
        obs::drain();
        run();
        let report = obs::drain();
        obs::set_level(obs::Level::Off);
        let calls = report
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    obs::Event::Count {
                        name: "phy.ber.replays",
                        ..
                    }
                )
            })
            .count();
        (calls, report.counter("phy.ber.replays"))
    }

    #[test]
    fn both_kernels_count_their_replays_once_per_call() {
        // Margin ∞ replays every decision: one per symbol, and one per
        // symbol of each active lane. At the production margin the count
        // is still reported, and is a sliver of the decisions.
        let modem = OokModem::new(4);
        let awgn = Awgn::for_eb_n0(&modem, 0.0);
        let n = 2_000;
        for margin in [f64::INFINITY, CERT_MARGIN] {
            let (calls, single) = recorded_replays(|| {
                let mut rng = Xoshiro256pp::seed_from(0x4E9);
                count_certified(&modem, &awgn, n, &mut rng, &mut TrialScratch::new(), margin);
            });
            assert_eq!(calls, 1, "margin={margin}");
            let (calls, lanes) = recorded_replays(|| {
                let mut rngs: Vec<Xoshiro256pp> =
                    (0..3).map(|l| Xoshiro256pp::seed_from(0x4E9 ^ l)).collect();
                let mut scratch = LaneScratch::new();
                count_certified_lanes(&modem, &[awgn; 3], n, &mut rngs, &mut scratch, margin);
            });
            assert_eq!(calls, 1, "margin={margin}");
            if margin.is_infinite() {
                assert_eq!((single, lanes), (n as u64, 3 * n as u64));
            } else {
                assert!(single <= n as u64 / 100 && lanes <= 3 * n as u64 / 100);
            }
        }
    }

    #[test]
    fn out_of_range_noise_replays_every_decision() {
        // σ outside [2⁻⁶⁰, 2⁶⁰] (or NaN) leaves the range the f32 fast
        // path's certificate covers: every decision takes the exact chain
        // and still matches the oracle.
        let modem = OokModem::new(4);
        let n = 40;
        for sigma in [1e-30, 1e30, f64::NAN] {
            let awgn = Awgn { sigma };
            let mut oracle_rng = Xoshiro256pp::seed_from(0x516);
            let want = oracle_bit_errors(&modem, &awgn, n, &mut oracle_rng);
            let mut got = 0;
            let (_, replays) = recorded_replays(|| {
                let mut rng = Xoshiro256pp::seed_from(0x516);
                got = count_bit_errors_scratch(
                    &modem,
                    &awgn,
                    n,
                    true,
                    &mut rng,
                    &mut TrialScratch::new(),
                );
            });
            assert_eq!((got, replays), (want, n as u64), "sigma={sigma}");
            let mut rngs = [Xoshiro256pp::seed_from(0x516)];
            let (_, replays) = recorded_replays(|| {
                got =
                    count_bit_errors_lanes(&modem, &[awgn], n, &mut rngs, &mut LaneScratch::new())
                        [0];
            });
            assert_eq!((got, replays), (want, n as u64), "sigma={sigma} lanes");
        }
    }

    #[test]
    #[should_panic(expected = "certificate covers at most")]
    fn kernel_refuses_an_sps_the_certificate_does_not_cover() {
        let modem = OokModem::new(MAX_CERTIFIED_SPS + 1);
        let awgn = Awgn::for_eb_n0(&modem, 10.0);
        let mut rng = Xoshiro256pp::seed_from(1);
        count_bit_errors_scratch(&modem, &awgn, 1, true, &mut rng, &mut TrialScratch::new());
    }

    #[test]
    #[should_panic(expected = "ber::ook_noncoherent_ber")]
    fn kernel_refuses_the_envelope_detector() {
        let modem = OokModem::new(4);
        let awgn = Awgn::for_eb_n0(&modem, 10.0);
        let mut rng = Xoshiro256pp::seed_from(1);
        count_bit_errors_scratch(&modem, &awgn, 1, false, &mut rng, &mut TrialScratch::new());
    }

    #[test]
    #[should_panic(expected = "ber::ook_noncoherent_ber")]
    fn sweep_refuses_the_envelope_detector() {
        ber_sweep_par_with(1, &OokModem::new(4), &[6.0], 1, false, &SeedTree::new(1));
    }
}
