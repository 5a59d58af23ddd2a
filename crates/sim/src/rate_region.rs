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
//! count, and the chunk kernel ([`sum_rate_chunk`]) is allocation-free
//! once its scratch is warm (enforced by `tests/alloc_guard.rs`). Because
//! every weight maximizes over the same nine points, the boundary is
//! monotone by construction: `R_p` never falls and `R_b` never rises as
//! `w` grows, and weights that select the same depth report equal rows
//! (DESIGN.md §14.4).

use mmtag_channel::cascade::{CascadeDraw, CascadeStreams, MultiTagCascade};
use mmtag_phy::constellation::TagConstellation;
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

/// Caller-owned workspace for [`sum_rate_chunk`]: fading streams, the
/// channel draw, per-tag beam states, the per-(tag, state) contribution
/// table and the per-tuple equivalent channel. Grown on first use, then
/// reused allocation-free (DESIGN.md §8 scratch discipline).
#[derive(Clone, Debug)]
pub struct RateScratch {
    streams: CascadeStreams,
    noise: Xoshiro256pp,
    draw: CascadeDraw,
    beam: Vec<Complex>,
    contrib: Vec<Complex>,
    equiv: Vec<Complex>,
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

/// Runs one trial chunk: `trials` joint channel draws under the streams of
/// work chunk `chunk` below `tree`, accumulating the primary-rate and
/// backscatter-MI sums at every modulation depth.
///
/// # Determinism
/// All randomness comes from `tree`: per-tag cascade streams via
/// [`CascadeStreams::reseed`] and one `"rate-noise"` stream for the MI
/// estimator's noise draws. The same `(tree, chunk, trials)` triple always
/// reproduces the same sums bit-for-bit, on any thread.
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
    let n_tags = cfg.cascade.n_tags();
    let tuples = cfg.tuple_count();
    let states = cfg.constellation.points();
    let m = states.len();
    let rho = cfg.rho();
    // Coherent integration over symbol_ratio primary symbols boosts the
    // backscatter detection SNR by the same factor.
    let rho_b_sqrt = (rho * cfg.symbol_ratio).sqrt();

    scratch.streams.reseed(tree, chunk, n_tags);
    scratch.noise = tree.rng_indexed("rate-noise", chunk);
    scratch.beam.resize(n_tags, Complex::ZERO);
    scratch.contrib.resize(n_tags * m, Complex::ZERO);
    scratch.equiv.resize(tuples, Complex::ZERO);

    let mut out = RateCurves::zero();
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

        for j in 0..DEPTH_GRID {
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
            out.primary[j] += rp / tuples as f64;

            // Backscatter mutual information of the discrete tuple
            // alphabet in AWGN (Gauss-Hermite-free Monte-Carlo form):
            //   I ≈ log2 T − avg_{s,n} log2 Σ_{s'} e^{−|x_s−x_{s'}+n|²+|n|²}
            let mut mi_sum = 0.0;
            for n in &noise {
                let n_pow = n.norm_sqr();
                for t in 0..tuples {
                    let x_t = scratch.equiv[t].scale(rho_b_sqrt);
                    let mut inner = 0.0;
                    for x_u in &scratch.equiv {
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

/// Traces the rate-region boundary: for every weight in `weights`, the
/// operating point `(R_p, R_b)` at the depth maximizing
/// `w·R_p + (1−w)·R_b`. All weights share one `trials`-trial estimate of
/// the depth curves, dispatched as one chunk grid over `threads` workers.
///
/// # Determinism
/// Chunk `c` draws from `tree/"rate-weight"[0]` / chunk `c` streams; the
/// chunks fold in chunk order and the depth argmax breaks ties toward
/// smaller μ — the returned table is bit-identical at any `threads`, and
/// each row is bit-identical to the single-weight call `[w]`.
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
    let curves: Vec<RateCurves> =
        par::par_indexed_scratch_with(threads, chunks, RateScratch::new, |scratch, c| {
            let done = c * RATE_CHUNK_TRIALS;
            let chunk_trials = RATE_CHUNK_TRIALS.min(trials - done);
            sum_rate_chunk(cfg, &subtree, c as u64, chunk_trials, scratch)
        });
    let mut total = RateCurves::zero();
    for chunk in &curves {
        total.accumulate(chunk);
    }
    let n = total.trials as f64;

    weights
        .iter()
        .map(|&weight| {
            let mut best = 0;
            let mut best_obj = f64::NEG_INFINITY;
            for j in 0..DEPTH_GRID {
                let obj = weight * total.primary[j] / n + (1.0 - weight) * total.backscatter[j] / n;
                if obj > best_obj {
                    best_obj = obj;
                    best = j;
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

/// Closed-form primary-rate anchor for the degenerate single-tag AWGN
/// scene (one tag, every K-factor infinite): with no fading the beam state
/// is the reflection state maximizing `Re(c)`, and the depth-0 primary
/// rate is exactly `log2(1 + ρ·|1 + a·ĉ|²)` — the number
/// `tests::single_tag_awgn_matches_closed_form` pins the Monte-Carlo
/// estimate against.
///
/// # Panics
/// Panics unless the scene has exactly one tag and all three K-factors
/// are infinite.
pub fn awgn_primary_rate_anchor(cfg: &RateRegionConfig) -> f64 {
    assert_eq!(cfg.cascade.n_tags(), 1, "anchor is single-tag");
    assert!(
        cfg.cascade.direct_hop().k().is_infinite()
            && cfg.cascade.forward_hop().k().is_infinite()
            && cfg.cascade.backward_hop().k().is_infinite(),
        "anchor needs K = ∞ on every path"
    );
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

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_channel::cascade::HopModel;

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
}
