//! Multi-tag rate-region sweep — the weighted primary-vs-backscatter
//! sum-rate Monte-Carlo behind experiments E29–E31 (DESIGN.md §14).
//!
//! The model couples the [`mmtag_channel::cascade::MultiTagCascade`]
//! channel with per-tag M-state reflection alphabets
//! ([`mmtag_phy::constellation::TagConstellation`]): with tag `i` in state
//! `e_i` the receiver sees the *equivalent channel*
//!
//! ```text
//! h(s) = h_d + Σ_i v_i · e_i(s_i)
//! ```
//!
//! where `h_d` is the direct fade and `v_i` the composite cascade
//! coefficient. Each tag splits its air time semantically by a *modulation
//! depth* μ: it transmits `(1−μ)·ĉ_i + μ·c_m`, where `ĉ_i` is the
//! beamforming state (the reflection state best aligned with the direct
//! path this coherence block) and `c_m` the uniformly random information
//! state. μ = 0 is a pure reflect-array boosting the primary link; μ = 1 is
//! a pure information tag. The sweep estimates the primary rate `R_p(μ)`
//! and the backscatter sum rate `R_b(μ)` once on a fixed μ grid; each
//! weight `w` then picks the depth maximizing `w·R_p + (1−w)·R_b` from
//! that one estimate — sweeping `w` from 0 to 1 traces the rate-region
//! boundary.
//!
//! The estimate is **one trial-chunk grid** on the persistent worker pool,
//! the same decomposition as every other sweep in the stack: chunk `c`
//! draws from `tree/"rate-weight"[0]/…/"rate-chunk"[c]`, the chunks fold in
//! chunk order, and the per-weight μ selection is a deterministic argmax
//! over the folded curves — so tables are bit-identical at any thread
//! count, and the chunk kernel ([`rate_chunk`]) is allocation-free once
//! its scratch is warm (enforced by `tests/alloc_guard.rs`). Because every
//! weight maximizes over the same nine points, the boundary is monotone by
//! construction: `R_p` never falls and `R_b` never rises as `w` grows, and
//! weights that select the same depth report equal rows (DESIGN.md §14.4).
//!
//! The grid runs in **two passes** (DESIGN.md §14.5). The first sums every
//! depth's primary rate exactly and its backscatter mutual information
//! through a single-precision estimator, with a bound on each row's
//! distance from the exact sum. A weight then compares exactly only the
//! depths the bounds cannot rule out, and the second pass runs the exact
//! estimator on those rows alone — every printed value keeps its bits.

use mmtag_channel::cascade::{CascadeDraw, CascadeStreams, MultiTagCascade};
use mmtag_phy::constellation::TagConstellation;
use mmtag_rf::math::{
    exp_lanes, exp_lanes_f32, log2_lanes_f32, EXP_F32_REL_BOUND, LANES, LOG2_F32_REL_BOUND,
};
use mmtag_rf::obs;
use mmtag_rf::par;
use mmtag_rf::rng::{Rng, SeedTree, Xoshiro256pp};
use mmtag_rf::Complex;

/// Trials per work unit of the rate-region grid. Fixed (never derived from
/// the thread count) so the chunk decomposition — and therefore the
/// sampled randomness — is identical no matter how many workers run it.
/// Smaller than the outage chunk because one rate trial costs hundreds of
/// transcendental calls, not one.
pub const RATE_CHUNK_TRIALS: usize = 256;

/// Points on the modulation-depth grid μ ∈ {0, 1/8, …, 1}. A fixed grid
/// keeps the per-weight argmax deterministic and the scratch fixed-size.
pub const DEPTH_GRID: usize = 9;

/// Noise realizations per trial in the mutual-information estimator.
pub const NOISE_DRAWS: usize = 4;

/// Largest supported joint alphabet `M^N`; the estimator is quadratic in
/// this, so the cap keeps a single trial bounded.
pub const MAX_TUPLES: usize = 4096;

/// The certificate's margin `K = 2⁴`: a depth row drops out of a weight's
/// exact comparison only when its fast objective trails by more than this
/// many times the derived worst-case bound (DESIGN.md §14.5). The measured
/// worst gap sits 2⁻⁵·⁴⁵ of that bound, so the certificate accepts at more
/// than 2⁸ times it (the release headroom test), while every E29–E31
/// weight still compares a single depth exactly.
const MI_MARGIN: f64 = 16.0;

/// `f32` unit roundoff.
const U32: f64 = 1.0 / (1u64 << 24) as f64;
/// `f64` unit roundoff.
const U64: f64 = f64::EPSILON / 2.0;

/// Largest noise power `|n|²` a fast row is bounded at: every argument of
/// the fast `exp` then stays below [`mmtag_rf::math::EXP_F32_HI`]. A draw
/// above it (probability e⁻⁶⁴) sends the trial's rows to the exact pass.
const FAST_NOISE_POW_MAX: f64 = 64.0;

/// One rate-region sweep problem: the cascade scene, the per-tag
/// reflection alphabet (shared by all tags), the direct-link SNR and the
/// backscatter/primary symbol-duration ratio.
#[derive(Clone, Debug)]
pub struct RateRegionConfig {
    /// The multi-tag cascade channel.
    pub cascade: MultiTagCascade,
    /// Reflection alphabet used by every tag.
    pub constellation: TagConstellation,
    /// Direct-link SNR ρ in dB (large-scale gains are relative to the
    /// direct path, so this anchors the whole scene).
    pub snr_db: f64,
    /// Primary symbols per backscatter symbol (≥ 1): the tag switches
    /// slowly, so its detector integrates coherently over `symbol_ratio`
    /// primary symbols; backscatter rates are reported per primary symbol.
    pub symbol_ratio: f64,
}

impl RateRegionConfig {
    /// Joint alphabet size `M^N`.
    ///
    /// # Panics
    /// Panics if the scene has no tags, `symbol_ratio < 1`, `snr_db` is
    /// not finite, or `M^N` exceeds [`MAX_TUPLES`].
    pub fn tuple_count(&self) -> usize {
        let n = self.cascade.n_tags();
        assert!(n > 0, "rate region needs at least one tag");
        assert!(self.snr_db.is_finite(), "SNR must be finite");
        assert!(self.symbol_ratio >= 1.0, "symbol ratio must be ≥ 1");
        let m = self.constellation.order();
        let mut t: usize = 1;
        for _ in 0..n {
            t = t.checked_mul(m).filter(|&t| t <= MAX_TUPLES).expect(
                "joint alphabet M^N exceeds MAX_TUPLES — the MI estimator is quadratic in it",
            );
        }
        t
    }

    fn rho(&self) -> f64 {
        10f64.powf(self.snr_db / 10.0)
    }
}

/// Per-chunk accumulator: un-normalized sums of the primary and
/// backscatter rates at every depth-grid point, plus the trial count.
/// Folded across chunks in chunk order (deterministic f64 addition order).
#[derive(Clone, Copy, Debug)]
pub struct RateCurves {
    /// Σ over trials of the per-trial primary rate, per depth point.
    pub primary: [f64; DEPTH_GRID],
    /// Σ over trials of the per-trial backscatter sum rate, per depth point.
    pub backscatter: [f64; DEPTH_GRID],
    /// Trials accumulated.
    pub trials: u64,
}

impl RateCurves {
    /// The all-zero accumulator.
    pub fn zero() -> Self {
        RateCurves {
            primary: [0.0; DEPTH_GRID],
            backscatter: [0.0; DEPTH_GRID],
            trials: 0,
        }
    }

    /// Folds `other` into `self` (order matters for bit-identity; callers
    /// fold in chunk order).
    pub fn accumulate(&mut self, other: &RateCurves) {
        for j in 0..DEPTH_GRID {
            self.primary[j] += other.primary[j];
            self.backscatter[j] += other.backscatter[j];
        }
        self.trials += other.trials;
    }
}

/// Which estimator one pass of [`rate_chunk`] runs on each depth row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkPass {
    /// Every row: the primary rate exactly, the backscatter MI through the
    /// single-precision estimator with a bound on its distance from the
    /// exact one (the grid's first pass).
    Fast,
    /// The rows marked `true`: primary rate and backscatter MI exactly,
    /// bit-identical to [`sum_rate_chunk`]'s; the other rows stay 0 (the
    /// grid's second pass).
    Exact([bool; DEPTH_GRID]),
}

/// What one [`rate_chunk`] pass sums. Folded across chunks in chunk order,
/// like [`RateCurves`].
#[derive(Clone, Copy, Debug)]
pub struct ChunkSums {
    /// The rate sums. In a [`ChunkPass::Fast`] pass the backscatter sums
    /// are the fast estimator's, except on trial-rows whose tuple points
    /// coincide, which add the exact coincident sum.
    pub curves: RateCurves,
    /// Per row, Σ over its fast trial-rows of the derived bound on
    /// `|fast − exact|` of that trial's backscatter term (DESIGN.md §14.5);
    /// 0 in an exact pass and on rows where every trial-row coincided.
    pub bound: [f64; DEPTH_GRID],
    /// Per row, Σ over trial-rows of `|fast backscatter term|`, which the
    /// bound on the folds' `f64` rounding scales with; 0 in an exact pass.
    pub magnitude: [f64; DEPTH_GRID],
}

impl ChunkSums {
    fn zero() -> Self {
        ChunkSums {
            curves: RateCurves::zero(),
            bound: [0.0; DEPTH_GRID],
            magnitude: [0.0; DEPTH_GRID],
        }
    }

    /// Folds `other` into `self` (callers fold in chunk order).
    fn accumulate(&mut self, other: &ChunkSums) {
        self.curves.accumulate(&other.curves);
        for j in 0..DEPTH_GRID {
            self.bound[j] += other.bound[j];
            self.magnitude[j] += other.magnitude[j];
        }
    }
}

/// Caller-owned workspace for [`rate_chunk`]: fading streams, the channel
/// draw, per-tag beam states, the per-(tag, state) contribution table, the
/// per-tuple equivalent channel and its scaled tuple points in `f64` and
/// `f32`. Grown on first use, then reused allocation-free (DESIGN.md §8
/// scratch discipline).
#[derive(Clone, Debug)]
pub struct RateScratch {
    streams: CascadeStreams,
    noise: Xoshiro256pp,
    draw: CascadeDraw,
    beam: Vec<Complex>,
    contrib: Vec<Complex>,
    equiv: Vec<Complex>,
    /// Tuple points `√(ρ·symbolRatio)·h(s)` split into real and imaginary
    /// parts, padded with zeros to a whole number of [`LANES`] blocks.
    x_re: Vec<f64>,
    x_im: Vec<f64>,
    /// The same points rounded to `f32`, for the fast estimator.
    xf_re: Vec<f32>,
    xf_im: Vec<f32>,
}

impl RateScratch {
    /// An empty workspace; sized lazily by the first chunk.
    pub fn new() -> Self {
        RateScratch {
            streams: CascadeStreams::new(),
            noise: Xoshiro256pp::seed_from(0),
            draw: CascadeDraw::new(),
            beam: Vec::new(),
            contrib: Vec::new(),
            equiv: Vec::new(),
            x_re: Vec::new(),
            x_im: Vec::new(),
            xf_re: Vec::new(),
            xf_im: Vec::new(),
        }
    }
}

impl Default for RateScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// One selected operating point on the rate-region boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatePoint {
    /// The primary-rate weight `w` this point optimizes.
    pub weight: f64,
    /// The selected modulation depth μ* ∈ [0, 1].
    pub depth: f64,
    /// Primary rate `R_p(μ*)` in bit/s/Hz.
    pub primary_rate: f64,
    /// Backscatter sum rate `R_b(μ*)` in bit per primary symbol.
    pub backscatter_rate: f64,
    /// The optimized objective `w·R_p + (1−w)·R_b`.
    pub weighted_sum: f64,
}

/// Runs one trial chunk with every depth row exact: `trials` joint channel
/// draws under the streams of work chunk `chunk` below `tree`,
/// accumulating the primary-rate and backscatter-MI sums at every
/// modulation depth — [`rate_chunk`] with every row in an exact pass.
///
/// # Determinism
/// The same `(tree, chunk, trials)` triple always reproduces the same sums
/// bit-for-bit, on any thread (see [`rate_chunk`]).
///
/// # Panics
/// Panics on an invalid config (see [`RateRegionConfig::tuple_count`]).
pub fn sum_rate_chunk(
    cfg: &RateRegionConfig,
    tree: &SeedTree,
    chunk: u64,
    trials: usize,
    scratch: &mut RateScratch,
) -> RateCurves {
    let all = ChunkPass::Exact([true; DEPTH_GRID]);
    rate_chunk(cfg, tree, chunk, trials, all, scratch).curves
}

/// Runs one pass over a trial chunk: `trials` joint channel draws under
/// the streams of work chunk `chunk` below `tree`, summing, at each depth
/// row `pass` selects, the primary rate and the backscatter MI through the
/// estimator `pass` names. Both passes draw and use the same channel, beam
/// states and noise, and the exact rows of either are the same
/// computation, so a row's exact sums never depend on which other rows run.
///
/// A depth row whose tuple points all coincide by value — μ = 0 holds
/// every tag in its beam state — takes the MI log sum without an `exp`
/// pass in either estimator: each difference `x_t − x_u` is zero, so each
/// argument is `|n|² − |n|²` = 0 exactly and each term `exp(0)` = 1, every
/// inner sum is `T` and the log sum is `NOISE_DRAWS · T` copies of
/// `log₂ T`, added in turn as the `exp` pass would add them. Counts those
/// rows (`sim.rate_region.coincident_rows`) and the others, as
/// `sim.rate_region.fast_rows` or `sim.rate_region.exact_rows`.
///
/// # Determinism
/// All randomness comes from `tree`: per-tag cascade streams via
/// [`CascadeStreams::reseed`] and one `"rate-noise"` stream for the MI
/// estimator's noise draws. The same `(tree, chunk, trials, pass)`
/// reproduces the same sums bit-for-bit, on any thread.
///
/// # Panics
/// Panics on an invalid config (see [`RateRegionConfig::tuple_count`]).
pub fn rate_chunk(
    cfg: &RateRegionConfig,
    tree: &SeedTree,
    chunk: u64,
    trials: usize,
    pass: ChunkPass,
    scratch: &mut RateScratch,
) -> ChunkSums {
    let n_tags = cfg.cascade.n_tags();
    let tuples = cfg.tuple_count();
    let states = cfg.constellation.points();
    let m = states.len();
    let rho = cfg.rho();
    // Coherent integration over symbol_ratio primary symbols boosts the
    // backscatter detection SNR by the same factor.
    let rho_b_sqrt = (rho * cfg.symbol_ratio).sqrt();
    let (rows, fast) = match pass {
        ChunkPass::Fast => ([true; DEPTH_GRID], true),
        ChunkPass::Exact(rows) => (rows, false),
    };

    scratch.streams.reseed(tree, chunk, n_tags);
    scratch.noise = tree.rng_indexed("rate-noise", chunk);
    scratch.beam.resize(n_tags, Complex::ZERO);
    scratch.contrib.resize(n_tags * m, Complex::ZERO);
    scratch.equiv.resize(tuples, Complex::ZERO);
    // Zero padding up to whole lane blocks: the pad lanes are computed
    // (finite, never NaN) and then discarded.
    let padded = tuples.div_ceil(LANES) * LANES;
    for buf in [&mut scratch.x_re, &mut scratch.x_im] {
        buf.clear();
        buf.resize(padded, 0.0);
    }
    for buf in [&mut scratch.xf_re, &mut scratch.xf_im] {
        buf.clear();
        buf.resize(padded, 0.0);
    }

    let log2_t = (tuples as f64).log2();
    let coincident_sum = (0..NOISE_DRAWS * tuples).fold(0.0, |sum, _| sum + log2_t);
    let (mut coincident_rows, mut mi_rows) = (0, 0);

    let mut out = ChunkSums::zero();
    for _ in 0..trials {
        cfg.cascade
            .sample_into(&mut scratch.streams, &mut scratch.draw);
        let h_d = scratch.draw.direct;

        // Beamforming state per tag: the reflection state whose cascade
        // contribution best aligns with the direct path. Strict `>` keeps
        // the first maximizer — a deterministic tie-break.
        for i in 0..n_tags {
            let v = scratch.draw.tags[i];
            let mut best = 0;
            let mut best_gain = f64::NEG_INFINITY;
            for (s, c) in states.iter().enumerate() {
                let gain = (h_d.conj() * v * *c).re;
                if gain > best_gain {
                    best_gain = gain;
                    best = s;
                }
            }
            scratch.beam[i] = states[best];
        }

        // One shared set of noise draws per trial, reused across the depth
        // grid: CN(0, 1) components at √0.5 per axis.
        let mut noise = [Complex::ZERO; NOISE_DRAWS];
        for slot in &mut noise {
            let (z0, z1) = scratch.noise.normal_pair();
            *slot = Complex::new(
                z0 * std::f64::consts::FRAC_1_SQRT_2,
                z1 * std::f64::consts::FRAC_1_SQRT_2,
            );
        }

        for j in (0..DEPTH_GRID).filter(|&j| rows[j]) {
            let mu = j as f64 / (DEPTH_GRID - 1) as f64;

            // Per-(tag, state) cascade contribution at this depth.
            for i in 0..n_tags {
                let v = scratch.draw.tags[i];
                let hold = scratch.beam[i].scale(1.0 - mu);
                for (s, c) in states.iter().enumerate() {
                    scratch.contrib[i * m + s] = v * (hold + c.scale(mu));
                }
            }

            // Equivalent channel per joint tuple (mixed-radix digits of t).
            for t in 0..tuples {
                let mut h = h_d;
                let mut rest = t;
                for i in 0..n_tags {
                    h += scratch.contrib[i * m + rest % m];
                    rest /= m;
                }
                scratch.equiv[t] = h;
            }

            // Primary rate: uniform average over tuples (backscatter is
            // decoded first and subtracted, so each tuple is an AWGN
            // channel at its own equivalent gain).
            let mut rp = 0.0;
            for h in &scratch.equiv {
                rp += (1.0 + rho * h.norm_sqr()).log2();
            }
            out.curves.primary[j] += rp / tuples as f64;

            // Backscatter mutual information of the discrete tuple
            // alphabet in AWGN (Gauss-Hermite-free Monte-Carlo form):
            //   I ≈ log2 T − avg_{s,n} log2 Σ_{s'} e^{−|x_s−x_{s'}+n|²+|n|²}
            for (t, h) in scratch.equiv.iter().enumerate() {
                scratch.x_re[t] = h.re * rho_b_sqrt;
                scratch.x_im[t] = h.im * rho_b_sqrt;
            }
            let (x_re, x_im) = (&scratch.x_re[..tuples], &scratch.x_im[..tuples]);
            let mut bound = 0.0;
            let mi_sum = if x_re.iter().all(|&r| r == x_re[0]) && x_im.iter().all(|&i| i == x_im[0])
            {
                coincident_rows += 1;
                coincident_sum
            } else if fast {
                mi_rows += 1;
                let (sum, delta) = fast_log_sum(scratch, tuples, &noise);
                bound = delta;
                sum
            } else {
                mi_rows += 1;
                backscatter_log_sum(&scratch.x_re, &scratch.x_im, tuples, &noise)
            };
            let mi = log2_t - mi_sum / (tuples * NOISE_DRAWS) as f64;
            let term = mi / cfg.symbol_ratio;
            out.curves.backscatter[j] += term;
            if fast {
                out.bound[j] += bound / cfg.symbol_ratio;
                out.magnitude[j] += term.abs();
            }
        }
        out.curves.trials += 1;
    }
    obs::counter_add("sim.rate_region.coincident_rows", coincident_rows);
    let mi_counter = if fast {
        "sim.rate_region.fast_rows"
    } else {
        "sim.rate_region.exact_rows"
    };
    obs::counter_add(mi_counter, mi_rows);
    out
}

/// `Σ_n Σ_t log2 Σ_u exp(|n|² − |x_t − x_u + n|²)` over the `tuples`
/// points `(x_re[i], x_im[i])`: the MI estimator's inner sums, [`LANES`]
/// tuples `t` per pass through [`exp_lanes`].
///
/// Each lane forms its argument with the same `Complex` operations as the
/// scalar loop it replaced — `d = (x_t − x_u) + n`, then `|n|² − |d|²` —
/// in plain `-`/`+`/`*`, folds its `u` terms in order from `0.0`, and
/// `exp_lanes` is bit-identical to libm `exp`, so every sum keeps its
/// bits; the `log2` terms then fold in the scalar loop's `(n, t)` order.
/// `x_re`/`x_im` are zero-padded to a whole number of blocks, and the pad
/// lanes' sums are dropped.
fn backscatter_log_sum(x_re: &[f64], x_im: &[f64], tuples: usize, noise: &[Complex]) -> f64 {
    let mut mi_sum = 0.0;
    for n in noise {
        let n_pow = n.norm_sqr();
        let blocks = x_re.chunks_exact(LANES).zip(x_im.chunks_exact(LANES));
        for (b, (bre, bim)) in blocks.enumerate() {
            let mut inner = [0.0f64; LANES];
            for (&ur, &ui) in x_re[..tuples].iter().zip(&x_im[..tuples]) {
                let mut arg = [0.0f64; LANES];
                for l in 0..LANES {
                    let dr = (bre[l] - ur) + n.re;
                    let di = (bim[l] - ui) + n.im;
                    arg[l] = n_pow - (dr * dr + di * di);
                }
                let terms = exp_lanes(&arg);
                for l in 0..LANES {
                    inner[l] += terms[l];
                }
            }
            for s in &inner[..LANES.min(tuples - b * LANES)] {
                mi_sum += s.log2();
            }
        }
    }
    mi_sum
}

/// The fast estimator on one row: centres and rounds the row's points to
/// `f32`, runs [`backscatter_log_sum_f32`] and returns its log sum with the
/// row's [`fast_row_bound`] `δ` (DESIGN.md §14.5).
fn fast_log_sum(
    scratch: &mut RateScratch,
    tuples: usize,
    noise: &[Complex; NOISE_DRAWS],
) -> (f64, f64) {
    // The estimator reads only differences x_t − x_u, so the points are
    // centred on x_0 before rounding: R is then the spread of the
    // alphabet, not its distance from the origin. Largest |x_t − x_0|²,
    // kept NaN once a NaN point is seen.
    let (c_re, c_im) = (scratch.x_re[0], scratch.x_im[0]);
    let mut r2 = 0.0f64;
    for t in 0..tuples {
        let (re, im) = (scratch.x_re[t] - c_re, scratch.x_im[t] - c_im);
        scratch.xf_re[t] = re as f32;
        scratch.xf_im[t] = im as f32;
        let m2 = re * re + im * im;
        if m2 > r2 || m2.is_nan() {
            r2 = m2;
        }
    }
    let sum = backscatter_log_sum_f32(&scratch.xf_re, &scratch.xf_im, tuples, noise);
    (sum, fast_row_bound(noise, tuples, r2.sqrt()))
}

/// [`backscatter_log_sum`] in single precision: the tuple points, the noise,
/// every argument, [`exp_lanes_f32`], the inner sums and
/// [`log2_lanes_f32`] in `f32` on [`LANES`] lanes (one 256-bit register),
/// and only the `log2` terms folded in `f64`. Each lane adds its noise to
/// its own point once per block, `d = (x_t + n) − x_u`, and takes `|n|²` as
/// its own `u = t` difference's `|d|²` (one fused multiply-add each, like
/// every `|d|²`), so that term is exactly `exp(0)` = 1, as in the exact
/// loop, and every inner sum is at least 1.
fn backscatter_log_sum_f32(x_re: &[f32], x_im: &[f32], tuples: usize, noise: &[Complex]) -> f64 {
    let mut mi_sum = 0.0;
    for n in noise {
        let (nr, ni) = (n.re as f32, n.im as f32);
        let blocks = x_re.chunks_exact(LANES).zip(x_im.chunks_exact(LANES));
        for (b, (bre, bim)) in blocks.enumerate() {
            let mut sr = [0.0f32; LANES];
            let mut si = [0.0f32; LANES];
            let mut n_pow = [0.0f32; LANES];
            for l in 0..LANES {
                sr[l] = bre[l] + nr;
                si[l] = bim[l] + ni;
                let (dr, di) = (sr[l] - bre[l], si[l] - bim[l]);
                n_pow[l] = dr.mul_add(dr, di * di);
            }
            let mut inner = [0.0f32; LANES];
            for (&ur, &ui) in x_re[..tuples].iter().zip(&x_im[..tuples]) {
                let mut arg = [0.0f32; LANES];
                for l in 0..LANES {
                    let dr = sr[l] - ur;
                    let di = si[l] - ui;
                    arg[l] = n_pow[l] - dr.mul_add(dr, di * di);
                }
                let terms = exp_lanes_f32(&arg);
                for l in 0..LANES {
                    inner[l] += terms[l];
                }
            }
            let logs = log2_lanes_f32(&inner);
            for s in &logs[..LANES.min(tuples - b * LANES)] {
                mi_sum += f64::from(*s);
            }
        }
    }
    mi_sum
}

/// `δ`: the bound on `|MI_fast − MI_exact|` for one trial-row of `tuples`
/// points whose largest centred magnitude is `r`, under the trial's
/// `noise` (DESIGN.md §14.5), or `∞` where the first-order derivation does
/// not cover the row: a noise draw above [`FAST_NOISE_POW_MAX`], a relative
/// error past 2⁻¹², or a non-finite `r`.
fn fast_row_bound(noise: &[Complex; NOISE_DRAWS], tuples: usize, r: f64) -> f64 {
    let t = tuples as f64;
    let folds = (t - 1.0) * U32;
    let gamma = folds / (1.0 - folds);
    let mut sum = 0.0;
    let mut nu_max = 0.0f64;
    for n in noise {
        let nu = n.norm_sqr();
        nu_max = nu_max.max(nu);
        // Relative error of one inner sum: the exp lane, the argument
        // roundings weighted by their terms (split at s² = K), then the
        // f32 fold.
        let k = nu + t.ln() + 2.0;
        let phi = 11.0 * nu + 7.0 * k + 6.0 * r * (nu.sqrt() + k.sqrt());
        let terms = EXP_F32_REL_BOUND + 1.136 * U32 * phi + 2f64.powi(-100);
        let rel = gamma * (1.0 + terms) + terms;
        if rel.is_nan() || rel > 2f64.powi(-12) || nu > FAST_NOISE_POW_MAX {
            return f64::INFINITY;
        }
        let log2_inner = t.log2() + std::f64::consts::LOG2_E * nu + rel;
        sum += rel / ((1.0 - rel) * std::f64::consts::LN_2) + LOG2_F32_REL_BOUND * log2_inner;
    }
    // The f64 roundings of both estimators after the inner sums.
    let tail = (1.0 + t.log2() + 2.0 * nu_max) / (1u64 << 36) as f64;
    (1.0 + 2f64.powi(-10)) * sum / NOISE_DRAWS as f64 + tail
}

/// The objective `w·R_p + (1−w)·R_b` from un-normalized sums over `n`
/// trials.
fn objective(weight: f64, primary: f64, backscatter: f64, n: f64) -> f64 {
    weight * primary / n + (1.0 - weight) * backscatter / n
}

/// The depth rows weight `weight` must compare exactly (DESIGN.md §14.5):
/// every row whose fast objective plus its slack still reaches the largest
/// fast objective minus slack, and every row whose fast objective or slack
/// is not finite. `beta[j]` bounds `|fast − exact|` of row `j`'s
/// backscatter sum (0: the fast sum is exact).
fn candidate_rows(
    weight: f64,
    primary: &[f64; DEPTH_GRID],
    fast: &[f64; DEPTH_GRID],
    beta: &[f64; DEPTH_GRID],
    n: f64,
) -> [bool; DEPTH_GRID] {
    let obj: [f64; DEPTH_GRID] = std::array::from_fn(|j| objective(weight, primary[j], fast[j], n));
    let slack: [f64; DEPTH_GRID] = std::array::from_fn(|j| {
        if beta[j] == 0.0 {
            return 0.0;
        }
        // β through the objective, plus its `f64` roundings and the
        // comparison's.
        let c = 1.0 - weight;
        let magnitude = (weight * primary[j] / n).abs() + c * (fast[j].abs() + beta[j]) / n;
        c * beta[j] / n + 8.0 * U64 * magnitude
    });
    let lower = (0..DEPTH_GRID)
        .map(|j| obj[j] - slack[j])
        .filter(|v| v.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    std::array::from_fn(|j| {
        let upper = obj[j] + slack[j];
        upper >= lower || upper.is_nan()
    })
}

/// Traces the rate-region boundary: for every weight in `weights`, the
/// operating point `(R_p, R_b)` at the depth maximizing
/// `w·R_p + (1−w)·R_b`. All weights share one `trials`-trial estimate of
/// the depth curves, dispatched as one chunk grid over `threads` workers:
/// a fast pass over every row, then an exact pass over the rows the fast
/// pass's bounds leave in some weight's comparison (DESIGN.md §14.5).
///
/// # Determinism
/// Chunk `c` draws from `tree/"rate-weight"[0]` / chunk `c` streams in
/// both passes; the chunks fold in chunk order and the depth argmax over
/// exact sums breaks ties toward smaller μ — the returned table is
/// bit-identical at any `threads`, and to an all-exact estimate, and each
/// row is bit-identical to the single-weight call `[w]`.
///
/// # Panics
/// Panics if `weights` is empty, `trials == 0`, any weight is outside
/// `[0, 1]`, or the config is invalid.
pub fn rate_region_grid_par_with(
    threads: usize,
    cfg: &RateRegionConfig,
    weights: &[f64],
    trials: usize,
    tree: &SeedTree,
) -> Vec<RatePoint> {
    rate_region_grid(threads, cfg, weights, trials, tree, MI_MARGIN)
}

/// [`rate_region_grid_par_with`] at certificate margin `margin`; `∞` sends
/// every row with a fast trial-row through the exact pass.
fn rate_region_grid(
    threads: usize,
    cfg: &RateRegionConfig,
    weights: &[f64],
    trials: usize,
    tree: &SeedTree,
    margin: f64,
) -> Vec<RatePoint> {
    assert!(!weights.is_empty(), "need at least one weight");
    assert!(trials > 0, "need at least one trial");
    assert!(
        weights.iter().all(|w| (0.0..=1.0).contains(w)),
        "weights must lie in [0, 1]"
    );
    let _ = cfg.tuple_count(); // validate eagerly, before any dispatch

    // Index 0 is the stream single-weight callers (E30, E31) and E29's
    // w = 0 row always drew from, so their tables stay bit-identical.
    let subtree = tree.subtree_indexed("rate-weight", 0);
    let chunks = trials.div_ceil(RATE_CHUNK_TRIALS);
    let run = |pass: ChunkPass| {
        let sums: Vec<ChunkSums> =
            par::par_indexed_scratch_with(threads, chunks, RateScratch::new, |scratch, c| {
                let done = c * RATE_CHUNK_TRIALS;
                let chunk_trials = RATE_CHUNK_TRIALS.min(trials - done);
                rate_chunk(cfg, &subtree, c as u64, chunk_trials, pass, scratch)
            });
        let mut total = ChunkSums::zero();
        for chunk in &sums {
            total.accumulate(chunk);
        }
        total
    };

    let fast = run(ChunkPass::Fast);
    let n = fast.curves.trials as f64;
    let primary = fast.curves.primary;
    // β per row: the trial-rows' bounds plus the roundings of the two
    // estimators' `f64` folds; 0 on a row whose every trial-row took the
    // coincident sum, whose fast sum is then the exact one.
    let folds = 3.0 * (trials + chunks + 1) as f64 * U64;
    let beta: [f64; DEPTH_GRID] = std::array::from_fn(|j| {
        let b = fast.bound[j];
        if b == 0.0 {
            0.0
        } else {
            margin * (b * (1.0 + 2f64.powi(-10)) + folds * (fast.magnitude[j] + b))
        }
    });
    let candidates: Vec<[bool; DEPTH_GRID]> = weights
        .iter()
        .map(|&w| candidate_rows(w, &primary, &fast.curves.backscatter, &beta, n))
        .collect();
    let exact_rows: [bool; DEPTH_GRID] =
        std::array::from_fn(|j| beta[j] != 0.0 && candidates.iter().any(|rows| rows[j]));
    let mut backscatter = fast.curves.backscatter;
    if exact_rows.contains(&true) {
        let exact = run(ChunkPass::Exact(exact_rows));
        for j in (0..DEPTH_GRID).filter(|&j| exact_rows[j]) {
            backscatter[j] = exact.curves.backscatter[j];
        }
    }

    weights
        .iter()
        .zip(&candidates)
        .map(|(&weight, rows)| {
            let mut best = 0;
            let mut best_obj = f64::NEG_INFINITY;
            for j in (0..DEPTH_GRID).filter(|&j| rows[j]) {
                let obj = objective(weight, primary[j], backscatter[j], n);
                if obj > best_obj {
                    best_obj = obj;
                    best = j;
                }
            }
            RatePoint {
                weight,
                depth: best as f64 / (DEPTH_GRID - 1) as f64,
                primary_rate: primary[best] / n,
                backscatter_rate: backscatter[best] / n,
                weighted_sum: best_obj,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_channel::cascade::HopModel;

    /// Closed-form primary-rate anchor for the degenerate single-tag AWGN
    /// scene (one tag, every K-factor infinite): with no fading the beam state
    /// is the reflection state maximizing `Re(c)`, and the depth-0 primary
    /// rate is exactly `log2(1 + ρ·|1 + a·ĉ|²)` — the number
    /// `single_tag_awgn_matches_closed_form` pins the Monte-Carlo estimate
    /// against.
    ///
    /// The caller builds all three hops with K = ∞.
    ///
    /// # Panics
    /// Panics unless the scene has exactly one tag.
    fn awgn_primary_rate_anchor(cfg: &RateRegionConfig) -> f64 {
        assert_eq!(cfg.cascade.n_tags(), 1, "anchor is single-tag");
        let a = cfg.cascade.relative_amplitude(0);
        let beam = cfg
            .constellation
            .points()
            .iter()
            .copied()
            .fold(None::<Complex>, |best, c| match best {
                Some(b) if b.re >= c.re => Some(b),
                _ => Some(c),
            })
            .expect("constellation is non-empty");
        let h = Complex::new(1.0, 0.0) + beam.scale(a);
        (1.0 + cfg.rho() * h.norm_sqr()).log2()
    }

    fn small_cfg() -> RateRegionConfig {
        RateRegionConfig {
            cascade: MultiTagCascade::ring(
                2,
                10.0,
                2.0,
                HopModel::new(2.6, 5.0),
                HopModel::new(2.4, 5.0),
                HopModel::new(2.0, 5.0),
            ),
            constellation: TagConstellation::psk(2, 0.5),
            snr_db: 10.0,
            symbol_ratio: 10.0,
        }
    }

    fn bits(points: &[RatePoint]) -> Vec<u64> {
        points
            .iter()
            .flat_map(|p| {
                [
                    p.weight.to_bits(),
                    p.depth.to_bits(),
                    p.primary_rate.to_bits(),
                    p.backscatter_rate.to_bits(),
                    p.weighted_sum.to_bits(),
                ]
            })
            .collect()
    }

    /// The chunk kernel as it was before the MI loop ran on lanes, kept as
    /// its one bit-exact oracle (DESIGN.md §8): the same draws, beam
    /// states and rates, with one scalar libm `exp` per `(n, t, u)` term
    /// and the tuple points rescaled in the innermost loop.
    fn oracle_chunk(
        cfg: &RateRegionConfig,
        tree: &SeedTree,
        chunk: u64,
        trials: usize,
    ) -> RateCurves {
        let n_tags = cfg.cascade.n_tags();
        let tuples = cfg.tuple_count();
        let states = cfg.constellation.points();
        let m = states.len();
        let rho = cfg.rho();
        let rho_b_sqrt = (rho * cfg.symbol_ratio).sqrt();
        let mut streams = CascadeStreams::new();
        streams.reseed(tree, chunk, n_tags);
        let mut noise_rng = tree.rng_indexed("rate-noise", chunk);
        let mut draw = CascadeDraw::new();
        let mut beam = vec![Complex::ZERO; n_tags];
        let mut contrib = vec![Complex::ZERO; n_tags * m];
        let mut equiv = vec![Complex::ZERO; tuples];
        let mut out = RateCurves::zero();
        for _ in 0..trials {
            cfg.cascade.sample_into(&mut streams, &mut draw);
            let h_d = draw.direct;
            for (slot, &v) in beam.iter_mut().zip(&draw.tags) {
                let mut best = 0;
                let mut best_gain = f64::NEG_INFINITY;
                for (s, c) in states.iter().enumerate() {
                    let gain = (h_d.conj() * v * *c).re;
                    if gain > best_gain {
                        best_gain = gain;
                        best = s;
                    }
                }
                *slot = states[best];
            }
            let mut noise = [Complex::ZERO; NOISE_DRAWS];
            for slot in &mut noise {
                let (z0, z1) = noise_rng.normal_pair();
                *slot = Complex::new(
                    z0 * std::f64::consts::FRAC_1_SQRT_2,
                    z1 * std::f64::consts::FRAC_1_SQRT_2,
                );
            }
            for j in 0..DEPTH_GRID {
                let mu = j as f64 / (DEPTH_GRID - 1) as f64;
                for i in 0..n_tags {
                    let v = draw.tags[i];
                    let hold = beam[i].scale(1.0 - mu);
                    for (s, c) in states.iter().enumerate() {
                        contrib[i * m + s] = v * (hold + c.scale(mu));
                    }
                }
                for (t, slot) in equiv.iter_mut().enumerate() {
                    let mut h = h_d;
                    let mut rest = t;
                    for i in 0..n_tags {
                        h += contrib[i * m + rest % m];
                        rest /= m;
                    }
                    *slot = h;
                }
                let mut rp = 0.0;
                for h in &equiv {
                    rp += (1.0 + rho * h.norm_sqr()).log2();
                }
                out.primary[j] += rp / tuples as f64;
                let mut mi_sum = 0.0;
                for n in &noise {
                    let n_pow = n.norm_sqr();
                    for x in &equiv {
                        let x_t = x.scale(rho_b_sqrt);
                        let mut inner = 0.0;
                        for x_u in &equiv {
                            let d = x_t - x_u.scale(rho_b_sqrt) + *n;
                            inner += (n_pow - d.norm_sqr()).exp();
                        }
                        mi_sum += inner.log2();
                    }
                }
                let mi = (tuples as f64).log2() - mi_sum / (tuples * NOISE_DRAWS) as f64;
                out.backscatter[j] += mi / cfg.symbol_ratio;
            }
            out.trials += 1;
        }
        out
    }

    fn assert_curves_bit_equal(got: &RateCurves, want: &RateCurves, what: &str) {
        assert_eq!(got.trials, want.trials, "{what}");
        for j in 0..DEPTH_GRID {
            assert_eq!(
                got.primary[j].to_bits(),
                want.primary[j].to_bits(),
                "{what}: primary at depth {j}"
            );
            assert_eq!(
                got.backscatter[j].to_bits(),
                want.backscatter[j].to_bits(),
                "{what}: backscatter at depth {j}"
            );
        }
    }

    #[test]
    fn lane_mi_loop_matches_the_scalar_oracle() {
        // (tags, PSK order) on the E29–E31 ring scene: E29's cell (also
        // E31's 4-PSK), E30's 1–4 tags (2 tags is also E31's 2-PSK), E31's
        // 8-PSK, and a 3-PSK pair whose T = 9 ends in a ragged lane block.
        // E30's T = 2 and T = 4 cells are single partial blocks.
        let cells = [(2, 4), (1, 2), (2, 2), (3, 2), (4, 2), (2, 8), (2, 3)];
        let tree = SeedTree::new(19).subtree("rate-oracle");
        // One scratch across every cell, so it also regrows and shrinks.
        let mut scratch = RateScratch::new();
        for (n_tags, order) in cells {
            let cfg = RateRegionConfig {
                constellation: TagConstellation::psk(order, 0.5),
                cascade: MultiTagCascade::ring(
                    n_tags,
                    10.0,
                    2.0,
                    HopModel::new(2.6, 5.0),
                    HopModel::new(2.4, 5.0),
                    HopModel::new(2.0, 5.0),
                ),
                ..small_cfg()
            };
            // Several chunk indices; small cells also run a ragged
            // 37-trial chunk.
            let trials = if cfg.tuple_count() <= 16 { 37 } else { 2 };
            for chunk in [0, 1, 7] {
                let got = sum_rate_chunk(&cfg, &tree, chunk, trials, &mut scratch);
                let want = oracle_chunk(&cfg, &tree, chunk, trials);
                let what = format!("{n_tags} tags, {order}-PSK, chunk {chunk}");
                assert_curves_bit_equal(&got, &want, &what);
            }
        }
    }

    #[test]
    fn grid_is_bit_identical_at_1_2_8_threads() {
        let cfg = small_cfg();
        let tree = SeedTree::new(11).subtree("rate-invariance");
        let weights = [0.0, 0.5, 1.0];
        // 600 trials: exercises a ragged tail chunk (600 = 2×256 + 88).
        let t1 = rate_region_grid_par_with(1, &cfg, &weights, 600, &tree);
        let t2 = rate_region_grid_par_with(2, &cfg, &weights, 600, &tree);
        let t8 = rate_region_grid_par_with(8, &cfg, &weights, 600, &tree);
        assert_eq!(bits(&t1), bits(&t2));
        assert_eq!(bits(&t1), bits(&t8));
    }

    #[test]
    fn boundary_rows_come_from_one_estimate() {
        let cfg = small_cfg();
        let tree = SeedTree::new(13).subtree("rate-boundary");
        // RIScatter's weightSet 0:0.05:1; 600 trials end in a ragged chunk.
        let weights: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        let pts = rate_region_grid_par_with(2, &cfg, &weights, 600, &tree);
        for (p, &w) in pts.iter().zip(&weights) {
            let single = rate_region_grid_par_with(2, &cfg, &[w], 600, &tree);
            assert_eq!(bits(std::slice::from_ref(p)), bits(&single), "w = {w}");
        }
        let mut shared_depth = false;
        for pair in pts.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                b.primary_rate >= a.primary_rate,
                "R_p falls at w = {}",
                b.weight
            );
            assert!(
                b.backscatter_rate <= a.backscatter_rate,
                "R_b rises at w = {}",
                b.weight
            );
            if a.depth == b.depth {
                shared_depth = true;
                assert_eq!(a.primary_rate.to_bits(), b.primary_rate.to_bits());
                assert_eq!(a.backscatter_rate.to_bits(), b.backscatter_rate.to_bits());
            }
        }
        // Neither check is vacuous: the boundary moves, and some weights share a depth.
        assert!(shared_depth);
        assert!(pts[0].depth > pts[20].depth);
    }

    #[test]
    fn weight_endpoints_behave() {
        let cfg = small_cfg();
        let tree = SeedTree::new(5).subtree("rate-endpoints");
        let pts = rate_region_grid_par_with(2, &cfg, &[0.0, 1.0], 512, &tree);
        let (rb_only, rp_only) = (&pts[0], &pts[1]);
        // w = 1: the objective is R_p alone, and depth 0 (pure beamforming)
        // maximizes |h| for every tuple of every trial, so it wins exactly
        // and leaves the backscatter alphabet degenerate.
        assert_eq!(rp_only.depth, 0.0);
        assert_eq!(rp_only.backscatter_rate, 0.0);
        // w = 0: information mode — deep modulation, positive backscatter
        // rate, and no more primary rate than the beamforming endpoint.
        assert!(rb_only.depth >= 0.5, "depth {}", rb_only.depth);
        assert!(rb_only.backscatter_rate > 0.0);
        assert!(rb_only.primary_rate <= rp_only.primary_rate);
    }

    #[test]
    fn single_tag_awgn_matches_closed_form() {
        let cfg = RateRegionConfig {
            cascade: MultiTagCascade::new(
                10.0,
                HopModel::new(2.6, f64::INFINITY),
                HopModel::new(2.4, f64::INFINITY),
                HopModel::new(2.0, f64::INFINITY),
            )
            .with_tag(9.0, 2.0),
            constellation: TagConstellation::psk(2, 0.5),
            snr_db: 10.0,
            symbol_ratio: 10.0,
        };
        let tree = SeedTree::new(1).subtree("rate-anchor");
        let pts = rate_region_grid_par_with(2, &cfg, &[1.0], 300, &tree);
        let anchor = awgn_primary_rate_anchor(&cfg);
        assert!(
            (pts[0].primary_rate - anchor).abs() < 1e-9,
            "MC {} vs closed form {anchor}",
            pts[0].primary_rate
        );
    }

    #[test]
    fn backscatter_mi_saturates_at_log2_m_per_symbol_ratio() {
        // Huge SNR, K = ∞, full depth: the 2-state alphabet is perfectly
        // distinguishable, so MI → 1 bit per backscatter symbol.
        let cfg = RateRegionConfig {
            cascade: MultiTagCascade::new(
                10.0,
                HopModel::new(2.0, f64::INFINITY),
                HopModel::new(2.0, f64::INFINITY),
                HopModel::new(2.0, f64::INFINITY),
            )
            .with_tag(10.0, 10.0),
            constellation: TagConstellation::psk(2, 1.0),
            snr_db: 40.0,
            symbol_ratio: 1.0,
        };
        let tree = SeedTree::new(2).subtree("rate-saturation");
        let pts = rate_region_grid_par_with(1, &cfg, &[0.0], 64, &tree);
        assert!(
            (pts[0].backscatter_rate - 1.0).abs() < 1e-3,
            "MI {}",
            pts[0].backscatter_rate
        );
    }

    #[test]
    fn chunk_kernel_replays_bit_identically() {
        let cfg = small_cfg();
        let tree = SeedTree::new(7).subtree("rate-replay");
        let mut s1 = RateScratch::new();
        let mut s2 = RateScratch::new();
        let a = sum_rate_chunk(&cfg, &tree, 3, 64, &mut s1);
        let _ = sum_rate_chunk(&cfg, &tree, 4, 64, &mut s1); // advance scratch
        let b = sum_rate_chunk(&cfg, &tree, 3, 64, &mut s2);
        let c = sum_rate_chunk(&cfg, &tree, 3, 64, &mut s1); // warm scratch
        for j in 0..DEPTH_GRID {
            assert_eq!(a.primary[j].to_bits(), b.primary[j].to_bits());
            assert_eq!(a.primary[j].to_bits(), c.primary[j].to_bits());
            assert_eq!(a.backscatter[j].to_bits(), b.backscatter[j].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "MAX_TUPLES")]
    fn oversized_joint_alphabet_panics() {
        let cfg = RateRegionConfig {
            cascade: MultiTagCascade::ring(
                8,
                10.0,
                2.0,
                HopModel::new(2.0, 5.0),
                HopModel::new(2.0, 5.0),
                HopModel::new(2.0, 5.0),
            ),
            constellation: TagConstellation::psk(8, 0.5),
            snr_db: 10.0,
            symbol_ratio: 10.0,
        };
        let _ = cfg.tuple_count();
    }

    #[test]
    #[should_panic(expected = "weights must lie")]
    fn out_of_range_weight_panics() {
        let tree = SeedTree::new(0).subtree("rate-bad-weight");
        let _ = rate_region_grid_par_with(1, &small_cfg(), &[1.5], 10, &tree);
    }

    /// The E29–E31 ring scene with `n_tags` tags switching `order`-PSK.
    fn ring_cfg(n_tags: usize, order: usize) -> RateRegionConfig {
        RateRegionConfig {
            constellation: TagConstellation::psk(order, 0.5),
            cascade: MultiTagCascade::ring(
                n_tags,
                10.0,
                2.0,
                HopModel::new(2.6, 5.0),
                HopModel::new(2.4, 5.0),
                HopModel::new(2.0, 5.0),
            ),
            ..small_cfg()
        }
    }

    /// `(tags, PSK order)` of every E29–E31 cell: E29's (also E31's
    /// 4-PSK), E30's 1–4 tags (2 tags is also E31's 2-PSK) and E31's 8-PSK.
    const CELLS: [(usize, usize); 6] = [(2, 4), (1, 2), (2, 2), (3, 2), (4, 2), (2, 8)];

    /// The grid as it was before the fast pass, kept as its oracle: every
    /// chunk through [`sum_rate_chunk`], folded in chunk order, and each
    /// weight's strict-`>` argmax over all nine exact depths.
    fn all_exact_grid(
        cfg: &RateRegionConfig,
        weights: &[f64],
        trials: usize,
        tree: &SeedTree,
    ) -> Vec<RatePoint> {
        let subtree = tree.subtree_indexed("rate-weight", 0);
        let mut scratch = RateScratch::new();
        let mut total = RateCurves::zero();
        for (c, done) in (0..trials).step_by(RATE_CHUNK_TRIALS).enumerate() {
            let chunk_trials = RATE_CHUNK_TRIALS.min(trials - done);
            total.accumulate(&sum_rate_chunk(
                cfg,
                &subtree,
                c as u64,
                chunk_trials,
                &mut scratch,
            ));
        }
        let n = total.trials as f64;
        weights
            .iter()
            .map(|&weight| {
                let (mut best, mut best_obj) = (0, f64::NEG_INFINITY);
                for j in 0..DEPTH_GRID {
                    let obj =
                        weight * total.primary[j] / n + (1.0 - weight) * total.backscatter[j] / n;
                    if obj > best_obj {
                        (best, best_obj) = (j, obj);
                    }
                }
                RatePoint {
                    weight,
                    depth: best as f64 / (DEPTH_GRID - 1) as f64,
                    primary_rate: total.primary[best] / n,
                    backscatter_rate: total.backscatter[best] / n,
                    weighted_sum: best_obj,
                }
            })
            .collect()
    }

    #[test]
    fn certified_rows_match_the_all_exact_estimate_at_1_2_8_threads() {
        // Every E29–E31 cell plus the 3-PSK pair (T = 9, a ragged lane
        // block), at E29's eleven weights: the production certificate and
        // margin ∞, which sends every row with a fast trial-row through the
        // exact pass, against the all-exact grid. T ≤ 4 cells run 260
        // trials (a 4-trial last chunk), T = 9 and 16 sixty, T = 64 four.
        let weights: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let tree = SeedTree::new(23).subtree("rate-certified");
        for (n_tags, order) in CELLS.into_iter().chain([(2, 3)]) {
            let cfg = ring_cfg(n_tags, order);
            let trials = match cfg.tuple_count() {
                t if t <= 4 => 260,
                t if t <= 16 => 60,
                _ => 4,
            };
            let what = format!("{n_tags} tags, {order}-PSK");
            let all_exact = all_exact_grid(&cfg, &weights, trials, &tree);
            let forced = rate_region_grid(2, &cfg, &weights, trials, &tree, f64::INFINITY);
            assert_eq!(bits(&forced), bits(&all_exact), "{what}, margin ∞");
            for threads in [1, 2, 8] {
                let window = obs::Window::open();
                let got = rate_region_grid_par_with(threads, &cfg, &weights, trials, &tree);
                let report = window.close();
                assert_eq!(bits(&got), bits(&all_exact), "{what}, {threads} threads");
                // Not vacuous: the certificate kept some rows out.
                let rows = |name| report.counter(name);
                let (exact, fast) = (
                    rows("sim.rate_region.exact_rows"),
                    rows("sim.rate_region.fast_rows"),
                );
                assert_eq!(fast, 8 * trials as u64, "{what}");
                assert!(exact < fast, "{what}: {exact} exact rows of {fast}");
            }
            for (p, &w) in all_exact.iter().zip(&weights) {
                let single = rate_region_grid_par_with(2, &cfg, &[w], trials, &tree);
                assert_eq!(
                    bits(std::slice::from_ref(p)),
                    bits(&single),
                    "{what}, w = {w}"
                );
            }
        }
    }

    #[test]
    fn exact_pass_rows_match_the_all_rows_kernel() {
        // The second pass's rows are the all-exact kernel's rows, bit for
        // bit, whichever other rows run; its unselected rows stay 0.
        let cfg = ring_cfg(2, 4);
        let tree = SeedTree::new(29).subtree("rate-exact-rows");
        let mut scratch = RateScratch::new();
        let all = sum_rate_chunk(&cfg, &tree, 3, 37, &mut scratch);
        let rows = [false, true, false, false, true, true, false, false, true];
        let some = rate_chunk(&cfg, &tree, 3, 37, ChunkPass::Exact(rows), &mut scratch);
        for (j, &row) in rows.iter().enumerate() {
            let want = if row {
                (all.primary[j], all.backscatter[j])
            } else {
                (0.0, 0.0)
            };
            assert_eq!(
                some.curves.primary[j].to_bits(),
                want.0.to_bits(),
                "row {j}"
            );
            assert_eq!(
                some.curves.backscatter[j].to_bits(),
                want.1.to_bits(),
                "row {j}"
            );
            assert_eq!((some.bound[j], some.magnitude[j]), (0.0, 0.0));
        }
        // The fast pass's primary sums and coincident rows are exact.
        let fast = rate_chunk(&cfg, &tree, 3, 37, ChunkPass::Fast, &mut scratch);
        assert_eq!(fast.curves.trials, all.trials);
        for j in 0..DEPTH_GRID {
            assert_eq!(fast.curves.primary[j].to_bits(), all.primary[j].to_bits());
        }
        assert_eq!(fast.bound[0], 0.0, "μ = 0 rows coincide");
        assert_eq!(
            fast.curves.backscatter[0].to_bits(),
            all.backscatter[0].to_bits()
        );
        assert!(fast.bound[1..].iter().all(|&b| b > 0.0));
    }

    /// The largest `|fast − exact| / (MI_MARGIN·δ)` over one-trial chunks
    /// `0..trials` of every E29–E31 cell, where `δ` is the fast pass's
    /// derived bound on that trial-row and `MI_MARGIN·δ` what the
    /// certificate accepts, with the number of fast trial-rows compared.
    fn worst_fast_gap(trials: u64) -> (f64, usize) {
        let tree = SeedTree::new(31).subtree("rate-headroom");
        let mut scratch = RateScratch::new();
        let (mut worst, mut rows) = (0.0f64, 0);
        let all = ChunkPass::Exact([true; DEPTH_GRID]);
        for (n_tags, order) in CELLS {
            let cfg = ring_cfg(n_tags, order);
            for chunk in 0..trials {
                let fast = rate_chunk(&cfg, &tree, chunk, 1, ChunkPass::Fast, &mut scratch);
                let exact = rate_chunk(&cfg, &tree, chunk, 1, all, &mut scratch);
                for j in (0..DEPTH_GRID).filter(|&j| fast.bound[j] > 0.0) {
                    let gap = (fast.curves.backscatter[j] - exact.curves.backscatter[j]).abs();
                    let ratio = gap / (MI_MARGIN * fast.bound[j]);
                    worst = if ratio.is_nan() {
                        f64::INFINITY
                    } else {
                        worst.max(ratio)
                    };
                    rows += 1;
                }
            }
        }
        (worst, rows)
    }

    #[test]
    fn fast_rows_sit_2_pow_8_inside_the_certificate_margin() {
        let (worst, rows) = worst_fast_gap(6);
        assert!(rows >= 6 * 6 * 8, "only {rows} fast trial-rows");
        assert!(
            worst <= 2f64.powi(-8),
            "worst gap is 2^{:.1} of the margin",
            worst.log2()
        );
    }

    #[test]
    #[ignore = "10^5 trial-rows; run in release: cargo test --release -p mmtag-sim --lib -- --ignored"]
    fn certificate_margin_has_2_pow_8_headroom_over_1e5_trial_rows() {
        // DESIGN.md §14.5 derives δ as a worst case and the certificate
        // accepts at MI_MARGIN·δ; the measured gap of every fast trial-row
        // must stay 2⁸ below that.
        let (worst, rows) = worst_fast_gap(2_100);
        assert!(rows >= 100_000, "only {rows} fast trial-rows");
        assert!(
            worst <= 2f64.powi(-8),
            "worst gap is 2^{:.1} of the margin",
            worst.log2()
        );
    }

    #[test]
    fn non_finite_fast_values_and_bounds_stay_in_the_exact_set() {
        let primary = [4.0; DEPTH_GRID];
        let mut fast = [0.1; DEPTH_GRID];
        fast[2] = 0.5; // the clear winner
        let mut beta = [1e-6; DEPTH_GRID];
        let n = 1.0;
        let clear = candidate_rows(0.1, &primary, &fast, &beta, n);
        assert_eq!(clear.iter().filter(|&&r| r).count(), 1);
        assert!(clear[2]);
        fast[4] = f64::NAN;
        beta[6] = f64::INFINITY;
        beta[7] = f64::NAN;
        let rows = candidate_rows(0.1, &primary, &fast, &beta, n);
        let kept: Vec<usize> = (0..DEPTH_GRID).filter(|&j| rows[j]).collect();
        assert_eq!(kept, [2, 4, 6, 7]);
        // A non-finite winner certifies nothing against it.
        beta[2] = f64::INFINITY;
        let rows = candidate_rows(0.1, &primary, &fast, &beta, n);
        assert!(rows[2] && rows[4] && rows[6] && rows[7]);
        // Out-of-range noise, a NaN point and an infinite point have no
        // bound.
        let calm = [Complex::new(0.5, -0.5); NOISE_DRAWS];
        assert!(fast_row_bound(&calm, 16, 30.0).is_finite());
        assert_eq!(fast_row_bound(&calm, 16, f64::NAN), f64::INFINITY);
        assert_eq!(fast_row_bound(&calm, 16, f64::INFINITY), f64::INFINITY);
        let mut loud = calm;
        loud[3] = Complex::new(8.0, 1.0);
        assert_eq!(fast_row_bound(&loud, 16, 1.0), f64::INFINITY);
    }

    /// Gauss–Hermite nodes and weights for `∫ e^{−x²} f(x) dx`: Newton's
    /// method on the orthonormal Hermite recurrence from Numerical Recipes'
    /// starting guesses (`gauher`).
    fn gauss_hermite(n: usize) -> Vec<(f64, f64)> {
        const PI_M4: f64 = 0.751_125_544_464_942_5; // π^(−1/4)
        let nf = n as f64;
        let mut nodes = vec![(0.0, 0.0); n];
        let mut z = 0.0f64;
        for i in 0..n.div_ceil(2) {
            z = match i {
                0 => (2.0 * nf + 1.0).sqrt() - 1.855_75 * (2.0 * nf + 1.0).powf(-1.0 / 6.0),
                1 => z - 1.14 * nf.powf(0.426) / z,
                2 => 1.86 * z - 0.86 * nodes[0].0,
                3 => 1.91 * z - 0.91 * nodes[1].0,
                _ => 2.0 * z - nodes[i - 2].0,
            };
            let mut pp = 0.0;
            for _ in 0..100 {
                let (mut p1, mut p2) = (PI_M4, 0.0);
                for j in 1..=n {
                    let p3 = p2;
                    p2 = p1;
                    let jf = j as f64;
                    p1 = z * (2.0 / jf).sqrt() * p2 - ((jf - 1.0) / jf).sqrt() * p3;
                }
                pp = (2.0 * nf).sqrt() * p2;
                let step = p1 / pp;
                z -= step;
                if step.abs() <= 1e-15 {
                    break;
                }
            }
            let w = 2.0 / (pp * pp);
            nodes[i] = (z, w);
            nodes[n - 1 - i] = (-z, w);
        }
        nodes
    }

    /// The mutual information `log₂ T − E_n[avg_t log₂ Σ_u e^{|n|² − |x_t − x_u + n|²}]`
    /// of the points `x` in CN(0, 1) noise, by a 2-D `nodes`-point
    /// Gauss–Hermite quadrature (`n`'s components are N(0, ½), density
    /// `e^{−x²}/√π` each).
    fn mixture_mi_quadrature(x: &[Complex], nodes: usize) -> f64 {
        let gh = gauss_hermite(nodes);
        let t = x.len() as f64;
        let mut expect = 0.0;
        for &(zr, wr) in &gh {
            for &(zi, wi) in &gh {
                let n = Complex::new(zr, zi);
                let mut avg = 0.0;
                for &xt in x {
                    let inner: f64 = x
                        .iter()
                        .map(|&xu| (n.norm_sqr() - (xt - xu + n).norm_sqr()).exp())
                        .sum();
                    avg += inner.log2() / t;
                }
                expect += wr * wi * avg;
            }
        }
        t.log2() - expect / std::f64::consts::PI
    }

    #[test]
    fn gauss_hermite_rule_integrates_the_gaussian_moments() {
        let gh = gauss_hermite(48);
        let sqrt_pi = std::f64::consts::PI.sqrt();
        let moment = |k: i32| gh.iter().map(|&(x, w)| w * x.powi(k)).sum::<f64>();
        assert!((moment(0) - sqrt_pi).abs() < 1e-13);
        assert!((moment(2) - sqrt_pi / 2.0).abs() < 1e-13);
        assert!((moment(4) - 3.0 * sqrt_pi / 4.0).abs() < 1e-12);
    }

    #[test]
    fn backscatter_mi_matches_gauss_hermite_at_finite_snr() {
        // One tag with every K infinite: the channel is fixed (h_d = 1,
        // v = a), so at μ = 1 the tuple points are √ρ·(1 + a·c_s) and the
        // noise is the only randomness. The MI is then a fixed integral.
        // Both estimators' chunk means must hold it within 4 batch-means
        // standard errors over sixteen 256-trial chunks.
        const CHUNKS: u64 = 16;
        let mu_one = {
            let mut rows = [false; DEPTH_GRID];
            rows[DEPTH_GRID - 1] = true;
            ChunkPass::Exact(rows)
        };
        let tree = SeedTree::new(37).subtree("rate-gauss-hermite");
        let mut scratch = RateScratch::new();
        let mut informative = 0;
        for order in [2, 4] {
            for snr_db in [-5.0, 0.0, 5.0] {
                let cfg = RateRegionConfig {
                    cascade: MultiTagCascade::new(
                        10.0,
                        HopModel::new(2.6, f64::INFINITY),
                        HopModel::new(2.4, f64::INFINITY),
                        HopModel::new(2.0, f64::INFINITY),
                    )
                    .with_tag(9.0, 2.0),
                    constellation: TagConstellation::psk(order, 0.5),
                    snr_db,
                    symbol_ratio: 1.0,
                };
                let a = cfg.cascade.relative_amplitude(0);
                let scale = cfg.rho().sqrt();
                let points: Vec<Complex> = cfg
                    .constellation
                    .points()
                    .iter()
                    .map(|c| (Complex::new(1.0, 0.0) + c.scale(a)).scale(scale))
                    .collect();
                let want = mixture_mi_quadrature(&points, 48);
                let finer = mixture_mi_quadrature(&points, 64);
                assert!((want - finer).abs() < 1e-9, "quadrature {want} vs {finer}");
                if want > 0.05 && want < 0.95 * (order as f64).log2() {
                    informative += 1;
                }
                for pass in [mu_one, ChunkPass::Fast] {
                    let means: Vec<f64> = (0..CHUNKS)
                        .map(|c| {
                            let sums =
                                rate_chunk(&cfg, &tree, c, RATE_CHUNK_TRIALS, pass, &mut scratch);
                            sums.curves.backscatter[DEPTH_GRID - 1] / RATE_CHUNK_TRIALS as f64
                        })
                        .collect();
                    let k = CHUNKS as f64;
                    let mean = means.iter().sum::<f64>() / k;
                    let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (k - 1.0);
                    let se = (var / k).sqrt();
                    assert!(
                        (mean - want).abs() <= 4.0 * se,
                        "{order}-PSK at {snr_db} dB, {pass:?}: MC {mean} ± {se}, quadrature {want}"
                    );
                }
            }
        }
        // The SNRs span the curve, not its floor or its ceiling.
        assert!(informative >= 4, "only {informative} informative cases");
    }
}
