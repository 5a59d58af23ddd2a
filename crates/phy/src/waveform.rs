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
//! * [`ber_table_par_with`] — the Monte-Carlo harness behind E5, E16 and
//!   serve's sweeps: a BER table, one row per [`Detector`] (a modem's
//!   levels, threshold and noise at one `Eb/N0`), chunked over the
//!   [`mmtag_rf::par`] engine at an explicit thread budget. Every row
//!   decides the same draws: each chunk's bits and noise are drawn once,
//!   on [`LANES`] streams of its own, and decided under every detector, so
//!   the table is bit-identical at any thread count.
//!   [`ber_sweep_par_with`] is its OOK sweep.
//!
//! Bit convention: §6 of the paper maps data bit **0** to the reflective
//! state ("the switches are off and the amplitude of the reflected power is
//! high") and bit **1** to absorption. [`OokModem`] uses `mark_bit` to hold
//! that mapping so the same modem expresses either convention.
//!
//! ## The certified counter and [`LaneScratch`]
//!
//! The Monte-Carlo trial loop is the stack's hottest path, and
//! [`count_bit_errors_lanes`] is its one certified bit-error counter
//! (DESIGN.md §11). It counts one chunk of a table: bit `i` sits at lane
//! `i mod LANES` of [`LANES`] xoshiro streams stepped at once
//! ([`XoshiroLanes`]); each lane's bits are drawn first, then its noise
//! through the certified Box–Muller block ([`uniform_pairs_lanes`] +
//! [`box_muller_certified`], `ln` through the vectorized
//! [`mmtag_rf::math::ln_lanes`] in `f64` and everything after it in `f32`,
//! the in-phase noise only), and every detector folds its own `f32`
//! matched filter over that shared noise. Each threshold decision stands
//! when the fast statistic, compared in `f64`, clears the threshold by a
//! margin a rounding analysis at `f32`'s `u = 2⁻²⁴` proves larger than any
//! gap to the exact statistic; a symbol inside the margin is replayed
//! through the exact libm chain from its kept uniforms, and each call adds
//! its replays to the `phy.ber.replays` counter. The steady state performs
//! **zero heap allocations** (verified by the repo's allocation-guard
//! integration test). The test oracle is the allocating chain, written out
//! in this module's tests: one [`Rng::bit`] per bit, the modem's
//! `modulate`, one [`Rng::normal_pair`] added per sample, then the matched
//! filter and the detector's decision. The counter matches it bit for bit
//! — same counts, same RNG stream position, lane by lane and detector by
//! detector — at the production margin and with every decision forced
//! through the replay. [`count_bit_errors_scratch`] is the counter under
//! one OOK detector, on lane streams seeded from any [`Rng`]. The counter
//! decides coherently only: the non-coherent (envelope) model is the
//! closed form [`crate::ber::ook_noncoherent_ber`].
//!
//! Noise streams are **sampler v2**: each complex sample's noise is one
//! [`Rng::normal_pair`] (one uniform pair for both components, OOK and
//! BPSK alike), where the scalar [`Rng::normal`] path ([`Awgn::apply`],
//! sampler v1) spends a pair per component. Determinism across thread
//! counts is unaffected by the choice.

use std::sync::atomic::{AtomicU64, Ordering};

use mmtag_rf::math::LANES;
use mmtag_rf::obs;
use mmtag_rf::par;
use mmtag_rf::rng::{
    box_muller_certified, box_muller_exact, uniform_pairs_lanes, Rng, SeedTree, Xoshiro256pp,
    XoshiroLanes, BM_BLOCK,
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

    /// This modem's coherent detector at a mean `Eb/N0` (dB): its levels
    /// and threshold, the mark bit decided above the threshold, and the
    /// noise of [`Awgn::for_eb_n0`].
    pub fn detector(&self, eb_n0_db: f64) -> Detector {
        self.detector_with_sigma(Awgn::for_eb_n0(self, eb_n0_db).sigma)
    }

    /// [`OokModem::detector`] at per-component noise `sigma`.
    fn detector_with_sigma(&self, sigma: f64) -> Detector {
        Detector {
            samples_per_symbol: self.samples_per_symbol,
            levels: [self.level(false), self.level(true)],
            threshold: self.decision_threshold(),
            above: self.mark_bit,
            sigma,
        }
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
    /// no production path calls it. E26's receive chain
    /// ([`crate::cancellation::ReceiveChain::bit_errors`]) reads this
    /// stream: it reproduces this noise bit for bit while computing only
    /// the in-phase draws no decision can do without, and keeps the
    /// allocating chain through this method as its test oracle. The
    /// bit-error counter ([`count_bit_errors_lanes`], for OOK and BPSK
    /// detectors alike) instead consumes one [`Rng::normal_pair`] per
    /// sample, a *different* (equally valid) noise stream from the same
    /// seed.
    pub fn apply<R: Rng + ?Sized>(&self, samples: &mut [Complex], rng: &mut R) {
        for s in samples {
            *s += Complex::new(self.sigma * rng.normal(), self.sigma * rng.normal());
        }
    }
}

/// One row of a BER table: how a coherent modem's matched-filter real part
/// is decided at one noise level. It holds the modem's two sample levels,
/// its threshold, the bit decided above the threshold and the noise `σ` at
/// one `Eb/N0` ([`OokModem::detector`],
/// [`crate::bpsk::BpskModem::detector`]). The counters decide every row of
/// a table off the same draws ([`ber_table_par_with`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detector {
    /// Samples per symbol.
    pub(crate) samples_per_symbol: usize,
    /// The sample level of data bit `false`, then of bit `true`.
    pub(crate) levels: [f64; 2],
    /// The threshold the matched-filter real part is compared with.
    pub(crate) threshold: f64,
    /// The bit decided when the statistic exceeds the threshold.
    pub(crate) above: bool,
    /// Per-component noise standard deviation.
    pub(crate) sigma: f64,
}

impl Detector {
    /// The sample level `bit` is sent at.
    #[inline]
    fn level(&self, bit: bool) -> f64 {
        let [low, high] = self.levels;
        if bit {
            high
        } else {
            low
        }
    }

    /// True when statistic `s` decides against the sent `bit`.
    #[inline]
    fn wrong(&self, s: f64, bit: bool) -> bool {
        ((s > self.threshold) == self.above) != bit
    }

    /// The margin this detector decides at: `margin` when its levels and
    /// `σ` are each zero or of a magnitude in `[2⁻⁶⁰, 2⁶⁰]` — then every
    /// product and sum the `f32` fast path forms from them is a normal
    /// `f32` or exact, as the certificate assumes — and `∞` otherwise,
    /// which sends every decision through the exact replay. A NaN is never
    /// in range.
    fn fast_margin(&self, margin: f64) -> f64 {
        let in_range = |x: f64| x == 0.0 || (2f64.powi(-60)..=2f64.powi(60)).contains(&x.abs());
        if self.levels.into_iter().all(in_range) && in_range(self.sigma) {
            margin
        } else {
            f64::INFINITY
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
fn certified(fast: f64, threshold: f64, bound: f64, margin: f64) -> bool {
    (fast - threshold).abs() > margin * bound
}

/// The largest oversampling factor the certificate covers: its fold-error
/// term grows with the number of samples summed per symbol, and the
/// derivation bounds it for `sps ≤ 2¹²`.
pub const MAX_CERTIFIED_SPS: usize = 1 << 12;

/// Panics unless `sps` is one the certificate covers.
fn assert_certified_sps(sps: usize) {
    assert!(
        sps <= MAX_CERTIFIED_SPS,
        "the decision certificate covers at most {MAX_CERTIFIED_SPS} samples per symbol"
    );
}

/// One symbol's exact matched-filter statistic, replayed from its kept
/// uniform pairs `(u1, u2)`, first sample first: each pair's cosine
/// branch through [`box_muller_exact`] (libm `ln`), `a + σ·nᵢ`, summed
/// first to last from `0.0` — the allocating chain's real part,
/// operation for operation, for OOK's levels and BPSK's alike.
#[cold]
pub(crate) fn exact_statistic(pairs: impl Iterator<Item = (f64, f64)>, a: f64, sigma: f64) -> f64 {
    let mut sum = 0.0f64;
    for (v1, v2) in pairs {
        sum += a + sigma * box_muller_exact(v1, v2).0;
    }
    sum
}

/// Caller-owned workspace for the lane counter
/// ([`count_bit_errors_lanes`]).
///
/// Ownership rules (DESIGN.md §8): the scratch belongs to exactly one
/// worker at a time, and the counter **writes every value it uses before
/// reading it**, so a scratch carries no information between calls and
/// reusing one across work units cannot perturb results. It holds
/// one byte per symbol step for the lanes' bits, one group of sample
/// steps laid out across streams (`[k][l]` is sample `k` of lane `l`): as
/// many whole symbols as fit in [`BM_BLOCK`] steps (4 KiB per `f64`
/// buffer, 2 KiB per `f32` one) where `sps ≤ 64`, one symbol's `sps`
/// steps above — and each detector's margin and per-lane counts. Nothing
/// shrinks, so a warm scratch never allocates.
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
    /// Per detector: the margin it decides at ([`Detector::fast_margin`]).
    margins: Vec<f64>,
    /// Per detector: each lane's error count.
    errors: Vec<[u64; LANES]>,
}

impl LaneScratch {
    /// An empty workspace; buffers are sized lazily by the first call.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Counts one chunk of `n_bits` bits under every detector of a table, the
/// chunk's bits and noise drawn once: bit `i` sits at lane `i mod LANES`,
/// step `i div LANES`, and lane `l` draws from `rngs[l]` — its step bits
/// first (one [`Rng::bit`] each, the top bit of a raw), then one uniform
/// pair per sample, the draws of one [`Rng::normal_pair`]. Every lane draws
/// `⌈n_bits / LANES⌉` steps; a step past a lane's final bit is drawn and
/// not counted. Returns each detector's per-lane error counts; on each
/// lane's stream, detector `d`'s count is the allocating chain's for that
/// detector, and each generator is left where that chain leaves it.
///
/// The streams run side by side in vector lanes, laid out across streams
/// (sample `k` of lane `l` at `[k][l]`), so the serial xoshiro draws of
/// one stream become one [`XoshiroLanes`] step for all of them:
///
/// * the bits first, one byte per symbol step holding every lane's bit;
/// * then groups of whole symbols: [`uniform_pairs_lanes`] (a rejected
///   `u1` is compacted inside its own lane's stream), the certified
///   Box–Muller math over the group ([`box_muller_certified`], `f32`
///   after the `ln`), and per step the lanes' running `f32` radius sums,
///   shared by every detector;
/// * each detector then folds its own `f32` matched filter, `a + σ·nᵢ`
///   at its levels and `σ`, first sample first from `0.0`, and
///   decides every lane branch-free under the same certificate
///   (`|S' − θ| > K·(sps + 15)·Σⱼ Bⱼ` at its level and `σ`), with one
///   test per step for any lane inside the margin; such a lane's symbol
///   replays through the same exact libm chain from its kept uniforms.
///
/// Each call records the decisions (`n_bits` per detector) in
/// `phy.ber.bits`, its replays in `phy.ber.replays`, and one
/// `phy.ber.chunk_errors` observation per detector.
///
/// # Panics
/// Panics if `detectors` is empty, if their samples per symbol differ, or
/// if that count exceeds [`MAX_CERTIFIED_SPS`].
pub fn count_bit_errors_lanes<'s>(
    detectors: &[Detector],
    n_bits: usize,
    rngs: &mut [Xoshiro256pp; LANES],
    scratch: &'s mut LaneScratch,
) -> &'s [[u64; LANES]] {
    count_certified_lanes(detectors, n_bits, rngs, scratch, CERT_MARGIN)
}

/// The workspace of [`count_bit_errors_scratch`]: the lane counter's.
pub type TrialScratch = LaneScratch;

/// Counts the bit errors of `n_bits` random bits under `modem`'s coherent
/// detector at `awgn`'s noise: [`count_bit_errors_lanes`] under that one
/// detector, on the [`LANES`] streams `Xoshiro256pp::seed_from(rng.next_u64())`
/// drawn in lane order, its lane counts summed. `rng` ends exactly
/// [`LANES`] raws on. No table runs it: it is perfbench's
/// `phy.waveform.ber_ns_per_bit` probe.
///
/// `coherent` must be `true`: the counter decides on the real part only.
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
    let detector = modem.detector_with_sigma(awgn.sigma);
    let mut rngs = std::array::from_fn(|_| Xoshiro256pp::seed_from(rng.next_u64()));
    let counts = count_bit_errors_lanes(&[detector], n_bits, &mut rngs, scratch);
    counts[0].iter().sum::<u64>() as usize
}

/// Why `coherent = false` panics: the certified counter implements one
/// detector. `coherent` stays on [`count_bit_errors_scratch`] and
/// [`ber_sweep_par_with`] only because perfbench passes it positionally.
const COHERENT_ONLY: &str = "the certified BER counters decide coherently only; \
                             ber::ook_noncoherent_ber is the non-coherent (envelope) model";

/// The samples per symbol every detector of a table shares.
fn table_sps(detectors: &[Detector]) -> usize {
    let sps = detectors
        .first()
        .expect("a BER table needs a detector")
        .samples_per_symbol;
    assert!(
        detectors.iter().all(|d| d.samples_per_symbol == sps),
        "a BER table's detectors share one samples-per-symbol"
    );
    assert_certified_sps(sps);
    sps
}

/// Draws one group's `u1.len()` sample steps on every lane through the
/// certified block: the kept uniforms, the fast radii `r'` and the
/// cosine-branch noise.
fn draw_lane_group(
    lanes: &mut XoshiroLanes,
    u1: &mut [[f64; LANES]],
    u2: &mut [[f64; LANES]],
    r: &mut [[f32; LANES]],
    re: &mut [[f32; LANES]],
) {
    uniform_pairs_lanes(lanes, u1, u2);
    box_muller_certified(
        u1.as_flattened(),
        u2.as_flattened(),
        r.as_flattened_mut(),
        re.as_flattened_mut(),
    );
}

/// One symbol step under one detector: each lane's fast statistic `S'`
/// (the fused modulate + AWGN + matched filter in `f32`, `a + σ·nᵢ`
/// folded from `0.0`, widened to `f64`) and its [`cert_bound`], for the
/// step's noise `xs` (`sps` sample steps), radius sums `sum_r` and bits.
#[inline(always)]
fn fast_step(
    det: &Detector,
    xs: &[[f32; LANES]],
    sum_r: &[f32; LANES],
    bit: &[bool; LANES],
) -> ([f64; LANES], [f64; LANES]) {
    let a = bit.map(|b| det.level(b));
    let a32 = a.map(|v| v as f32);
    let sigma32 = det.sigma as f32;
    let mut stat = [0.0f32; LANES];
    for x in xs {
        for l in 0..LANES {
            stat[l] += a32[l] + sigma32 * x[l];
        }
    }
    let bound = std::array::from_fn(|l| cert_bound(xs.len(), a[l], det.sigma, sum_r[l]));
    (stat.map(f64::from), bound)
}

/// [`count_bit_errors_lanes`] at an explicit certificate margin factor
/// (production passes [`CERT_MARGIN`]; the tests pass `∞` to force every
/// decision through the exact replay).
pub(crate) fn count_certified_lanes<'s>(
    detectors: &[Detector],
    n_bits: usize,
    rngs: &mut [Xoshiro256pp; LANES],
    scratch: &'s mut LaneScratch,
    margin: f64,
) -> &'s [[u64; LANES]] {
    let sps = table_sps(detectors);
    let _span = obs::span("phy.ber.lanes");
    let LaneScratch {
        bits,
        u1,
        u2,
        r,
        re,
        margins,
        errors,
    } = scratch;
    margins.clear();
    margins.extend(detectors.iter().map(|d| d.fast_margin(margin)));
    errors.clear();
    errors.resize(detectors.len(), [0; LANES]);
    let mut lanes = XoshiroLanes::new(rngs);
    bits.resize(n_bits.div_ceil(LANES), 0);
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
    let mut replays = 0u64;
    for (g, group_bits) in bits.chunks(symbols).enumerate() {
        let ns = group_bits.len() * sps;
        draw_lane_group(
            &mut lanes,
            &mut u1[..ns],
            &mut u2[..ns],
            &mut r[..ns],
            &mut re[..ns],
        );
        for (k, &mask) in group_bits.iter().enumerate() {
            let first = (g * symbols + k) * LANES;
            let live: [bool; LANES] = std::array::from_fn(|l| first + l < n_bits);
            let bit: [bool; LANES] = std::array::from_fn(|l| mask >> l & 1 == 1);
            let at = k * sps..(k + 1) * sps;
            let mut sum_r = [0.0f32; LANES];
            for rk in &r[at.clone()] {
                for l in 0..LANES {
                    sum_r[l] += rk[l];
                }
            }
            for ((det, &m), errs) in detectors.iter().zip(&*margins).zip(errors.iter_mut()) {
                let (stat, bound) = fast_step(det, &re[at.clone()], &sum_r, &bit);
                let mut inside = [false; LANES];
                for l in 0..LANES {
                    let wrong = live[l] & det.wrong(stat[l], bit[l]);
                    inside[l] = live[l] & !certified(stat[l], det.threshold, bound[l], m);
                    errs[l] += u64::from(wrong);
                }
                // One test for the whole step keeps the lanes branch-free;
                // a lane inside the margin is rare (DESIGN.md §11).
                if inside.contains(&true) {
                    for l in (0..LANES).filter(|&l| inside[l]) {
                        replays += 1;
                        let pairs = u1[at.clone()].iter().zip(&u2[at.clone()]);
                        let pairs = pairs.map(|(v1, v2)| (v1[l], v2[l]));
                        let exact = exact_statistic(pairs, det.level(bit[l]), det.sigma);
                        errs[l] -= u64::from(det.wrong(stat[l], bit[l]));
                        errs[l] += u64::from(det.wrong(exact, bit[l]));
                    }
                }
            }
        }
    }
    for (l, rng) in rngs.iter_mut().enumerate() {
        *rng = lanes.lane(l);
    }
    obs::counter_add("phy.ber.bits", (n_bits * detectors.len()) as u64);
    obs::counter_add("phy.ber.replays", replays);
    for lanes in errors.iter() {
        obs::observe("phy.ber.chunk_errors", lanes.iter().sum());
    }
    errors
}

/// Bits per work unit for the parallel BER harness. Fixed (never derived
/// from the thread count) so the chunk decomposition — and therefore the
/// randomness each chunk consumes — is identical at any worker budget.
pub const MC_CHUNK_BITS: usize = 8_192;

/// The bit-error counts of a BER table at a `threads` budget: row `d`
/// counts the errors of `bits_per_row` random bits under `detectors[d]`,
/// and every row decides the same draws.
///
/// The bits come in chunks of [`MC_CHUNK_BITS`] (the last holds the
/// remainder), and chunk `c` is one pool unit:
/// [`count_bit_errors_lanes`] on the [`LANES`] streams
/// `tree.subtree_indexed("ber-chunk", c).rng_indexed("lane", l)`, so the
/// chunk's bits and noise are drawn once whatever the number of rows.
/// Each unit adds its integer counts to per-row totals, so the table is
/// bit-identical at any thread count, and a row's count depends only on
/// its own detector, `bits_per_row` and `tree`: never on the other rows or
/// on its position among them.
///
/// Each row still decides `bits_per_row` fresh bits with fresh noise, so
/// its count is distributed exactly as an estimate on streams of its own
/// would be; the rows of a table are correlated. For the exact statistic
/// they are nested: a bit in error under one detector is in error under
/// every detector of the same modem at a larger `σ`.
///
/// # Panics
/// Panics if `bits_per_row` is zero, if the detectors' samples per symbol
/// differ, or if that count exceeds [`MAX_CERTIFIED_SPS`].
pub fn ber_table_par_with(
    threads: usize,
    detectors: &[Detector],
    bits_per_row: usize,
    tree: &SeedTree,
) -> Vec<u64> {
    assert!(bits_per_row > 0, "need at least one bit per row");
    if detectors.is_empty() {
        return Vec::new();
    }
    let _span = obs::span("phy.ber.sweep");
    let totals: Vec<AtomicU64> = detectors.iter().map(|_| AtomicU64::new(0)).collect();
    let count_chunk = |scratch: &mut LaneScratch, c: usize| {
        let n = MC_CHUNK_BITS.min(bits_per_row - c * MC_CHUNK_BITS);
        let chunk = tree.subtree_indexed("ber-chunk", c as u64);
        let mut rngs = std::array::from_fn(|l| chunk.rng_indexed("lane", l as u64));
        let counts = count_bit_errors_lanes(detectors, n, &mut rngs, scratch);
        // Relaxed: each total is a plain integer sum that publishes no
        // other data, read only after the pool's join below.
        for (total, lanes) in totals.iter().zip(counts) {
            total.fetch_add(lanes.iter().sum(), Ordering::Relaxed);
        }
    };
    let chunks = bits_per_row.div_ceil(MC_CHUNK_BITS);
    par::par_indexed_scratch_with(threads, chunks, LaneScratch::new, count_chunk);
    totals.into_iter().map(AtomicU64::into_inner).collect()
}

/// A BER-vs-SNR sweep of `modem` at a `threads` budget:
/// [`ber_table_par_with`] over one [`OokModem::detector`] per SNR, each
/// count divided by `bits_per_point`. Every point reads the same chunk
/// grid, so a point's estimate depends only on its SNR, `bits_per_point`
/// and `tree` — a one-point sweep gives what that SNR gives inside any
/// longer one — and the sweep is bit-identical at any thread count.
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
    let detectors: Vec<Detector> = snrs_db.iter().map(|&snr| modem.detector(snr)).collect();
    ber_table_par_with(threads, &detectors, bits_per_point, tree)
        .iter()
        .map(|&e| e as f64 / bits_per_point as f64)
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ber::ook_coherent_ber;
    use crate::bpsk::BpskModem;
    use mmtag_rf::rng::{uniform_pairs, Xoshiro256pp};

    /// A raw `u64` whose top 53 bits are zero: as a `u1` draw it is the
    /// 2⁻⁵³ Box–Muller rejection.
    const REJECTED_U1: u64 = 0x7FF;

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
        let eb_n0_db = 10.0;
        let tree = SeedTree::new(2024);
        let measured = ber_sweep_par_with(1, &modem, &[eb_n0_db], 400_000, true, &tree)[0];
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
        let measured = ber_sweep_par_with(1, &modem, &[6.0], 200_000, true, &SeedTree::new(7))[0];
        let theory = ook_coherent_ber(10f64.powf(0.6));
        assert!(
            (measured - theory).abs() / theory < 0.1,
            "measured {measured} vs theory {theory}"
        );
    }

    #[test]
    fn ber_decreases_with_snr() {
        let modem = OokModem::new(4);
        let tree = SeedTree::new(5);
        let b = ber_sweep_par_with(1, &modem, &[4.0, 8.0, 12.0], 100_000, true, &tree);
        assert!(b[0] > b[1] && b[1] > b[2], "{b:?} not decreasing");
    }

    #[test]
    fn oversampling_does_not_change_ber() {
        // Matched filtering makes BER depend only on Eb/N0, not on sps.
        let tree = SeedTree::new(31);
        let b2 = ber_sweep_par_with(1, &OokModem::new(2), &[8.0], 200_000, true, &tree)[0];
        let b16 = ber_sweep_par_with(1, &OokModem::new(16), &[8.0], 200_000, true, &tree)[0];
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

    /// A detector's allocating chain, the counter's oracle: the modem that
    /// modulates the bits and decides the matched filter's real part.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Chain {
        /// Coherent OOK ([`OokModem::demodulate_coherent`]).
        Ook(OokModem),
        /// BPSK ([`BpskModem::demodulate`]).
        Bpsk(BpskModem),
    }

    impl Chain {
        /// The chain's detector at a mean `Eb/N0`.
        pub(crate) fn detector(&self, eb_n0_db: f64) -> Detector {
            match self {
                Chain::Ook(m) => m.detector(eb_n0_db),
                Chain::Bpsk(m) => m.detector(eb_n0_db),
            }
        }

        /// The allocating chain on `rng`: `steps` bits by one [`Rng::bit`]
        /// each, the modem's `modulate`, one [`Rng::normal_pair`] (times
        /// `sigma`) added per sample, then its demodulator, with the
        /// errors counted over the first `counted` symbols.
        pub(crate) fn oracle_errors<R: Rng + ?Sized>(
            &self,
            sigma: f64,
            steps: usize,
            counted: usize,
            rng: &mut R,
        ) -> usize {
            let bits: Vec<bool> = (0..steps).map(|_| rng.bit()).collect();
            let mut samples = match self {
                Chain::Ook(m) => m.modulate(&bits),
                Chain::Bpsk(m) => m.modulate(&bits),
            };
            for s in &mut samples {
                let (ni, nq) = rng.normal_pair();
                *s += Complex::new(sigma * ni, sigma * nq);
            }
            let decided = match self {
                Chain::Ook(m) => m.demodulate_coherent(&samples),
                Chain::Bpsk(m) => m.demodulate(&samples),
            };
            let pairs = bits.iter().zip(&decided).take(counted);
            pairs.filter(|(a, b)| a != b).count()
        }
    }

    /// The bits lane `l` of a chunk of `n_bits` counts: the chunk's bits
    /// `l, l + LANES, …`.
    fn lane_bits(n_bits: usize, l: usize) -> usize {
        (n_bits + LANES - 1 - l) / LANES
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
        // The one-detector entry's contract: `count_bit_errors_scratch`
        // returns the sum over the LANES streams seeded from the caller's
        // next LANES raws, in lane order, of the allocating chain's count
        // on each, every lane counting its own bits; and it leaves the
        // caller's generator exactly LANES raws on. At every length class
        // — empty, sub-lane, the 8-lane boundary and its neighbours, and
        // long chunks that exercise many full lane blocks plus a tail —
        // under both mark conventions.
        for &n in &[0usize, 1, 7, 8, 9, 1000, 100_000] {
            for mark_bit in [false, true] {
                for sps in [1usize, 4] {
                    let modem = OokModem {
                        mark_bit,
                        ..OokModem::new(sps)
                    };
                    let awgn = Awgn::for_eb_n0(&modem, 4.0);
                    let mut rng = Xoshiro256pp::seed_from(0xB17 ^ n as u64);
                    let mut caller = rng.clone();
                    let mut scratch = TrialScratch::new();
                    let got =
                        count_bit_errors_scratch(&modem, &awgn, n, true, &mut rng, &mut scratch);
                    let want: usize = (0..LANES)
                        .map(|l| {
                            let mut lane = Xoshiro256pp::seed_from(caller.next_u64());
                            let (steps, counted) = (n.div_ceil(LANES), lane_bits(n, l));
                            Chain::Ook(modem).oracle_errors(awgn.sigma, steps, counted, &mut lane)
                        })
                        .sum();
                    let case = format!("n={n} mark_bit={mark_bit} sps={sps}");
                    assert_eq!(got, want, "count diverged at {case}");
                    assert_eq!(rng, caller, "stream position diverged at {case}");
                }
            }
        }
    }

    /// SNRs from deep noise to near-noiseless, for the certificate tests.
    pub(crate) const CERT_SNRS_DB: [f64; 6] = [-5.0, 0.0, 4.0, 9.5, 17.0, 30.0];

    #[test]
    fn certificate_margin_has_2_pow_8_headroom_over_a_million_symbols() {
        // The lane decide pass under OOK detectors of both mark
        // conventions: every fast statistic against its exact replay, the
        // worst |S' − S| 2⁸ below the margin K·(sps + 15)·Σ Bⱼ the counter
        // accepts decisions at (DESIGN.md §11 derives ≤ u·(sps + 15)·Σ Bⱼ
        // with u = 2⁻²⁴, and K = 2⁸·u).
        let (mut worst, mut decisions) = (0.0f64, 0usize);
        let cases = [(1usize, 4_000usize), (4, 6_000), (8, 2_000), (64, 200)];
        for (case, (sps, symbols)) in cases.into_iter().enumerate() {
            for mark_bit in [false, true] {
                let modem = OokModem {
                    mark_bit,
                    ..OokModem::new(sps)
                };
                let (w, d) =
                    worst_lane_gap(Chain::Ook(modem), sps, symbols, 0x1A4EAD ^ case as u64);
                worst = worst.max(w);
                decisions += d;
            }
        }
        assert!(decisions >= 1_000_000, "only {decisions} decisions");
        assert!(
            worst <= 2f64.powi(-8),
            "worst |S' − S| is 2^{:.1} of the margin",
            worst.log2()
        );
    }

    /// The worst `|S' − S|` of the lane counter's decide pass, as a
    /// fraction of the margin `K·(sps + 15)·Σ Bⱼ`, over `symbols` symbol
    /// steps of eight lanes at `sps`, each step decided under every
    /// detector of `chain` at the certificate's SNR points. Returns the
    /// worst fraction and the decisions it covers.
    pub(crate) fn worst_lane_gap(
        chain: Chain,
        sps: usize,
        symbols: usize,
        seed: u64,
    ) -> (f64, usize) {
        let detectors: Vec<Detector> = CERT_SNRS_DB.iter().map(|&s| chain.detector(s)).collect();
        let mut lanes = XoshiroLanes::new(&std::array::from_fn(|l| {
            Xoshiro256pp::seed_from(seed ^ (l as u64) << 32)
        }));
        let group = (BM_BLOCK / sps).max(1);
        let ns = group * sps;
        let (mut u1, mut u2) = (vec![[0.0; LANES]; ns], vec![[0.0; LANES]; ns]);
        let (mut r, mut re) = (vec![[0.0; LANES]; ns], vec![[0.0; LANES]; ns]);
        let (mut worst, mut decisions) = (0.0f64, 0usize);
        for _ in 0..symbols.div_ceil(group) {
            let masks: Vec<u8> = (0..group)
                .map(|_| {
                    let raw = lanes.next_u64s();
                    (0..LANES).fold(0, |m, l| m | ((raw[l] >> 63) as u8) << l)
                })
                .collect();
            draw_lane_group(&mut lanes, &mut u1, &mut u2, &mut r, &mut re);
            for (k, &mask) in masks.iter().enumerate() {
                let at = k * sps..(k + 1) * sps;
                let bit: [bool; LANES] = std::array::from_fn(|l| mask >> l & 1 == 1);
                let mut sum_r = [0.0f32; LANES];
                for rk in &r[at.clone()] {
                    for l in 0..LANES {
                        sum_r[l] += rk[l];
                    }
                }
                for det in &detectors {
                    let (stat, bound) = fast_step(det, &re[at.clone()], &sum_r, &bit);
                    for l in 0..LANES {
                        let pairs = u1[at.clone()].iter().zip(&u2[at.clone()]);
                        let pairs = pairs.map(|(v1, v2)| (v1[l], v2[l]));
                        let exact = exact_statistic(pairs, det.level(bit[l]), det.sigma);
                        worst = worst.max((stat[l] - exact).abs() / (CERT_MARGIN * bound[l]));
                    }
                    decisions += LANES;
                }
            }
        }
        (worst, decisions)
    }

    #[test]
    fn lane_counter_certificate_margin_has_2_pow_8_headroom() {
        // The lane decide pass at the sps classes the million-decision
        // test above leaves out — odd (3), 16, a symbol over two uniform
        // blocks (100) and the cap the certificate is derived for — under
        // OOK detectors of both mark conventions: every fast statistic 2⁸
        // inside the margin of its exact replay, case by case.
        let cases = [
            (3usize, 3_000usize),
            (16, 600),
            (100, 60),
            (MAX_CERTIFIED_SPS, 2),
        ];
        for (case, (sps, symbols)) in cases.into_iter().enumerate() {
            for mark_bit in [false, true] {
                let modem = OokModem {
                    mark_bit,
                    ..OokModem::new(sps)
                };
                let (worst, _) =
                    worst_lane_gap(Chain::Ook(modem), sps, symbols, 0x2A4EAD ^ case as u64);
                assert!(
                    worst <= 2f64.powi(-8),
                    "sps={sps} mark_bit={mark_bit}: worst |S' − S| is 2^{:.1} of the margin",
                    worst.log2()
                );
            }
        }
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
                let got = exact_statistic(pairs, modem.level(bit), sigma);
                assert_eq!(got.to_bits(), z.re.to_bits(), "sps={sps} symbol {k}");
            }
        }
    }

    /// Runs the lane counter at `margin` on `streams` over one chunk of
    /// `n_bits` bits, one detector per `(chain, Eb/N0)` row, and holds
    /// every (row, lane) count to the per-lane oracle on that lane's
    /// stream — [`Chain::oracle_errors`] over the lane's steps, counting
    /// its own bits (a lane one bit short of the others in a ragged chunk
    /// draws its last step and does not count it) — and each generator to
    /// where the oracle leaves its own. Returns the counts.
    pub(crate) fn assert_lanes_match(
        rows: &[(Chain, f64)],
        n_bits: usize,
        streams: &[Xoshiro256pp; LANES],
        margin: f64,
        case: &str,
    ) -> Vec<[u64; LANES]> {
        let detectors: Vec<Detector> = rows.iter().map(|(c, snr)| c.detector(*snr)).collect();
        let mut rngs = streams.clone();
        let mut scratch = LaneScratch::new();
        let got = count_certified_lanes(&detectors, n_bits, &mut rngs, &mut scratch, margin);
        assert_eq!(got.len(), rows.len(), "{case}: one count row per detector");
        let steps = n_bits.div_ceil(LANES);
        for (l, start) in streams.iter().enumerate() {
            for (d, ((chain, _), det)) in rows.iter().zip(&detectors).enumerate() {
                let mut oracle_rng = start.clone();
                let counted = lane_bits(n_bits, l);
                let want = chain.oracle_errors(det.sigma, steps, counted, &mut oracle_rng);
                assert_eq!(got[d][l], want as u64, "{case}: row {d} lane {l}");
                assert_eq!(rngs[l], oracle_rng, "{case}: lane {l} stream position");
            }
        }
        got.to_vec()
    }

    /// Eight streams from `seed`, one per lane.
    pub(crate) fn lane_streams(seed: u64) -> [Xoshiro256pp; LANES] {
        std::array::from_fn(|l| Xoshiro256pp::seed_from(seed ^ (l as u64) << 40))
    }

    #[test]
    fn forced_replay_and_production_margin_both_match_the_oracle() {
        // With the margin at ∞ every decision replays the exact chain; at
        // K the fast path decides almost all of them. Both must give every
        // lane's oracle count under a table of OOK rows, one at each
        // certificate SNR with the mark convention alternating, and leave
        // each stream where the oracle does.
        for sps in [1usize, 3, 4, 8] {
            for n in [1usize, 7, 9, 16, 17, 1000] {
                let rows: Vec<(Chain, f64)> = (CERT_SNRS_DB.iter().enumerate())
                    .map(|(k, &snr)| {
                        let modem = OokModem {
                            mark_bit: k % 2 == 1,
                            ..OokModem::new(sps)
                        };
                        (Chain::Ook(modem), snr)
                    })
                    .collect();
                let streams = lane_streams(0xCE27 ^ (n as u64) << 8 ^ (sps as u64) << 20);
                for margin in [f64::INFINITY, CERT_MARGIN] {
                    let case = format!("sps={sps} n={n} margin={margin}");
                    assert_lanes_match(&rows, n, &streams, margin, &case);
                }
            }
        }
    }

    #[test]
    fn lane_counter_matches_the_oracle_and_the_single_stream_kernel_on_every_lane() {
        // Every length class — empty, under one step, one step, a step
        // and a bit (lanes 1–7 one bit short of lane 0), a ragged chunk
        // plus a tail, a full chunk — every sps class (one sample, odd,
        // the production 4, a full lane, 64 samples per symbol — one
        // symbol per group — and 100, whose symbol spans two blocks of the
        // uniform stage), both mark conventions and a BPSK row in one
        // table, a σ per row, and both margins. Each OOK row's lane counts
        // also sum to what the single-stream entry
        // `count_bit_errors_scratch` counts under that row's detector alone
        // from the generator the lane streams were seeded from, which it
        // leaves where seeding them did.
        let cases: &[(usize, &[usize])] = &[
            (0, &[1, 4, 64]),
            (1, &[1, 3, 4, 8, 64, 100]),
            (7, &[1, 3, 4, 8, 64]),
            (8, &[1, 3, 4, 8, 64, 100]),
            (9, &[1, 3, 4, 8, 64, 100]),
            (17, &[1, 3, 4, 8, 64, 100]),
            (1003, &[1, 3, 4, 8]),
            (MC_CHUNK_BITS, &[1, 4]),
        ];
        let mut scratch = TrialScratch::new();
        for (ci, &(n, spss)) in cases.iter().enumerate() {
            for (si, &sps) in spss.iter().enumerate() {
                let ook = |mark_bit| {
                    Chain::Ook(OokModem {
                        mark_bit,
                        ..OokModem::new(sps)
                    })
                };
                let rows = [
                    (ook(false), CERT_SNRS_DB[(ci + si) % 6]),
                    (ook(true), CERT_SNRS_DB[(ci + si + 2) % 6] + 1.0),
                    (
                        Chain::Bpsk(BpskModem::new(sps)),
                        CERT_SNRS_DB[(ci + si + 4) % 6],
                    ),
                ];
                let caller =
                    Xoshiro256pp::seed_from(0x1A4E ^ (n as u64) << 12 ^ (sps as u64) << 32);
                let mut seeded = caller.clone();
                let streams = std::array::from_fn(|_| Xoshiro256pp::seed_from(seeded.next_u64()));
                let margins: &[f64] = if n * sps > 8_000 {
                    &[CERT_MARGIN]
                } else {
                    &[f64::INFINITY, CERT_MARGIN]
                };
                let mut got = Vec::new();
                for &margin in margins {
                    let case = format!("n={n} sps={sps} margin={margin}");
                    got = assert_lanes_match(&rows, n, &streams, margin, &case);
                }
                for (d, (chain, snr)) in rows.iter().enumerate() {
                    let Chain::Ook(modem) = chain else { continue };
                    let awgn = Awgn::for_eb_n0(modem, *snr);
                    let mut rng = caller.clone();
                    let single =
                        count_bit_errors_scratch(modem, &awgn, n, true, &mut rng, &mut scratch);
                    let case = format!("n={n} sps={sps} row {d}");
                    let lanes: u64 = got[d].iter().sum();
                    assert_eq!(single as u64, lanes, "{case}: single-stream entry");
                    assert_eq!(rng, seeded, "{case}: caller position");
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
    /// [`REJECTED_U1`], and draw `at + 1` too when `twice`: a state that
    /// emits it (twice in a row when asked) stepped back `at` times.
    pub(crate) fn planted_stream(seed: u64, at: usize, twice: bool) -> Xoshiro256pp {
        // State [s0, s1, s2, s3] emits rotl(s0 + s3, 23) + s0, so for any
        // s0 one s3 emits the plant.
        let s3_for = |s0: u64| {
            REJECTED_U1
                .wrapping_sub(s0)
                .rotate_right(23)
                .wrapping_sub(s0)
        };
        let mut words = Xoshiro256pp::seed_from(seed);
        let mut state = if twice {
            // A step sends s0 to s0 ^ y and s3 to rotl(y, 45), y = s3 ^ s1:
            // pick the next s0, solve for y, then for this s0 and s3.
            let next_s0 = words.next_u64();
            let y = s3_for(next_s0).rotate_right(45);
            let s0 = next_s0 ^ y;
            let s3 = s3_for(s0);
            [s0, s3 ^ y, words.next_u64(), s3]
        } else {
            [0, words.next_u64(), words.next_u64(), s3_for(0)]
        };
        for _ in 0..at {
            state = step_back(state);
        }
        let planted = Xoshiro256pp::from_state(state);
        let mut probe = planted.clone();
        for _ in 0..at {
            probe.next_u64();
        }
        for k in 0..1 + usize::from(twice) {
            let draw = at + k;
            assert_eq!(
                probe.next_u64(),
                REJECTED_U1,
                "the plant lands at draw {draw}"
            );
        }
        planted
    }

    /// `(sps, pair, twice)` plants for the rejection tests: a lane's `u1`
    /// raw of sample step `pair` is the 2⁻⁵³ rejection — in the first
    /// pair, mid group, in a later group, at sps = 64 past the first
    /// symbol, at sps = 100 in the second uniform block of a symbol — and,
    /// where `twice`, so is the raw after it, which the compaction reads as
    /// the next `u1`.
    pub(crate) const LANE_PLANTS: [(usize, usize, bool); 8] = [
        (1, 0, false),
        (4, 5, false),
        (4, 130, false),
        (3, 100, false),
        (64, 70, false),
        (100, 170, false),
        (1, 3, true),
        (4, 9, true),
    ];

    /// Eight lane streams for a 41-bit chunk (6 steps; lanes 1–7 one bit
    /// short) with lane `(sps + pair) % LANES`'s `u1` raw at sample step
    /// `pair` planted as a rejection, and the raw after it too when
    /// `twice`.
    pub(crate) fn planted_lanes(sps: usize, pair: usize, twice: bool) -> [Xoshiro256pp; LANES] {
        let planted_lane = (sps + pair) % LANES;
        std::array::from_fn(|l| {
            let seed = 0xBAD ^ (sps as u64) << 8 ^ l as u64;
            if l == planted_lane {
                planted_stream(seed, PLANTED_BITS.div_ceil(LANES) + 2 * pair, twice)
            } else {
                Xoshiro256pp::seed_from(seed)
            }
        })
    }

    /// The chunk length [`planted_lanes`] plants for.
    pub(crate) const PLANTED_BITS: usize = 41;

    #[test]
    fn lane_counter_compacts_a_rejection_inside_its_own_lane() {
        // The planted lane redraws from its own stream only; every lane
        // must still match its oracles, counts and end positions, under
        // OOK detectors of both conventions, at both margins.
        for (sps, pair, twice) in LANE_PLANTS {
            let rows: Vec<(Chain, f64)> = (0..4)
                .map(|d| {
                    let modem = OokModem {
                        mark_bit: d % 2 == 1,
                        ..OokModem::new(sps)
                    };
                    (Chain::Ook(modem), 3.0 + d as f64)
                })
                .collect();
            let streams = planted_lanes(sps, pair, twice);
            for margin in [f64::INFINITY, CERT_MARGIN] {
                let case = format!("sps={sps} pair {pair} twice={twice} margin={margin}");
                assert_lanes_match(&rows, PLANTED_BITS, &streams, margin, &case);
            }
        }
    }

    #[test]
    #[ignore = "release-only: 3 × 10⁶ decisions per mark convention; run by scripts/check.sh"]
    fn lane_counter_matches_its_oracles_over_a_million_symbols_per_mark_convention() {
        // Production margin, OOK and BPSK detectors at the certificate's
        // SNR points, chunk-sized calls as the BER table runs them: every
        // count against the allocating chain on each lane's stream.
        for mark_bit in [false, true] {
            let ook = Chain::Ook(OokModem {
                mark_bit,
                ..OokModem::new(4)
            });
            let bpsk = Chain::Bpsk(BpskModem::new(4));
            let rows: Vec<(Chain, f64)> = [ook, bpsk]
                .into_iter()
                .flat_map(|chain| CERT_SNRS_DB.map(|snr| (chain, snr)))
                .collect();
            let mut decisions = 0usize;
            for call in 0..32u64 {
                let streams = lane_streams(0x3E6 ^ call << 8);
                let case = format!("mark_bit={mark_bit} call {call}");
                assert_lanes_match(&rows, MC_CHUNK_BITS, &streams, CERT_MARGIN, &case);
                decisions += rows.len() * MC_CHUNK_BITS;
            }
            assert!(decisions >= 3_000_000, "only {decisions} decisions");
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
        // The lane counter at margin ∞ replays every decision: one per
        // counted bit of each detector. At the production margin the count
        // is still reported, and is a sliver of the decisions — for a
        // table and through `count_bit_errors_scratch`, its one-detector
        // entry, alike.
        let modem = OokModem::new(4);
        let n = 2_001;
        let detectors = [
            modem.detector(0.0),
            modem.detector(3.0),
            modem.detector(6.0),
        ];
        for margin in [f64::INFINITY, CERT_MARGIN] {
            let (calls, lanes) = recorded_replays(|| {
                let mut rngs = lane_streams(0x4E9);
                let mut scratch = LaneScratch::new();
                count_certified_lanes(&detectors, n, &mut rngs, &mut scratch, margin);
            });
            assert_eq!(calls, 1, "margin={margin}");
            if margin.is_infinite() {
                assert_eq!(lanes, 3 * n as u64);
            } else {
                assert!(lanes <= 3 * n as u64 / 100, "{lanes}");
            }
        }
        let (calls, single) = recorded_replays(|| {
            let awgn = Awgn::for_eb_n0(&modem, 0.0);
            let mut rng = Xoshiro256pp::seed_from(0x4E9);
            count_bit_errors_scratch(&modem, &awgn, n, true, &mut rng, &mut TrialScratch::new());
        });
        assert_eq!(calls, 1);
        assert!(single <= n as u64 / 100, "{single}");
    }

    #[test]
    fn out_of_range_noise_replays_every_decision() {
        // σ outside [2⁻⁶⁰, 2⁶⁰] (or NaN) leaves the range the f32 fast
        // path's certificate covers: every decision takes the exact chain
        // and each lane of a detector at that σ still matches the oracle.
        let modem = OokModem::new(4);
        let n = 40;
        for sigma in [1e-30, 1e30, f64::NAN] {
            let det = modem.detector_with_sigma(sigma);
            let streams = lane_streams(0x516);
            let mut rngs = streams.clone();
            let mut lane_counts = [0u64; LANES];
            let (_, replays) = recorded_replays(|| {
                let mut scratch = LaneScratch::new();
                lane_counts = count_bit_errors_lanes(&[det], LANES * n, &mut rngs, &mut scratch)[0];
            });
            assert_eq!(replays, (LANES * n) as u64, "sigma={sigma}");
            for (l, start) in streams.iter().enumerate() {
                let mut oracle_rng = start.clone();
                let want = Chain::Ook(modem).oracle_errors(sigma, n, n, &mut oracle_rng);
                assert_eq!(lane_counts[l], want as u64, "sigma={sigma} lane {l}");
                assert_eq!(
                    rngs[l], oracle_rng,
                    "sigma={sigma} lane {l} stream position"
                );
            }
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
    #[should_panic(expected = "share one samples-per-symbol")]
    fn table_refuses_detectors_of_different_sps() {
        let detectors = [
            OokModem::new(4).detector(3.0),
            OokModem::new(8).detector(3.0),
        ];
        ber_table_par_with(1, &detectors, 16, &SeedTree::new(1));
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
