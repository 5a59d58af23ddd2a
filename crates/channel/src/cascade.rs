//! Multi-tag Ricean cascade channel — N backscatter tags sharing one reader.
//!
//! The paper's §9 names multi-tag coexistence as the open frontier past the
//! single-link budget of [`crate::radar`]. This module models the channel
//! side of that frontier in the RIScatter style (see DESIGN.md §14): a
//! direct reader→receiver path plus, per tag, a *cascade* of a forward hop
//! (reader→tag) and a backward hop (tag→receiver). Each of the three path
//! classes carries its own path-loss exponent and Rician K-factor, because
//! they genuinely differ — the direct path is long and wall-bounced
//! (γ ≈ 2.6), the tag hops are short and largely line-of-sight
//! (γ ≈ 2.4 / 2.0, higher K).
//!
//! Amplitudes are *relative to the direct link*: the direct path has unit
//! large-scale gain by construction and the SNR ρ of a rate sweep is
//! defined at that reference. A tag at forward/backward distances
//! `(d_f, d_b)` therefore contributes amplitude
//! `d_f^(−γ_f/2) · d_b^(−γ_b/2) / d_0^(−γ_d/2)` before fading — its
//! absolute cascade gain (1 m reference) divided by the direct path's own.
//! With γ_f = γ_b = 2 the cascade term reproduces the two-way `d⁻⁴` law of
//! [`crate::radar::BackscatterLink`] exactly (pinned by a differential
//! test against [`crate::fspl`]).
//!
//! Fading is per-hop Rician with unit mean power, the same normalization as
//! [`crate::fading::RicianFading`]; `K = ∞` is accepted and collapses a hop
//! to its deterministic LOS coefficient, which is what the closed-form
//! primary-rate anchor in `mmtag_sim::rate_region`'s tests and the
//! differential tests key on.

use mmtag_rf::rng::{Rng, SeedTree, Xoshiro256pp};
use mmtag_rf::Complex;

/// Large-scale + small-scale model for one class of path: a path-loss
/// exponent γ and a linear Rician K-factor.
///
/// `K = ∞` (i.e. [`f64::INFINITY`]) is allowed and means "no fading": the
/// hop coefficient is deterministically 1 before the distance term. The
/// RNG still consumes the same two normal draws per hop so that seeded
/// streams stay aligned across K sweeps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HopModel {
    exponent: f64,
    k: f64,
}

impl HopModel {
    /// A hop with path-loss exponent `exponent` and linear K-factor `k`.
    ///
    /// # Panics
    /// Panics if `exponent` is not finite and ≥ 0, or if `k` is negative
    /// or NaN (`+∞` is valid and means a deterministic LOS hop).
    pub fn new(exponent: f64, k: f64) -> Self {
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "path-loss exponent must be finite and ≥ 0"
        );
        assert!(!k.is_nan() && k >= 0.0, "K-factor must be ≥ 0 (∞ allowed)");
        HopModel { exponent, k }
    }

    /// The path-loss exponent γ.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The linear Rician K-factor.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// LOS amplitude and per-component scatter deviation of the unit-power
    /// Rician fade: `√(K/(K+1))` and `√(0.5/(K+1))`, with the `K = ∞`
    /// limit `(1, 0)` handled exactly.
    fn los_sigma(&self) -> (f64, f64) {
        if self.k.is_finite() {
            (
                (self.k / (self.k + 1.0)).sqrt(),
                (0.5 / (self.k + 1.0)).sqrt(),
            )
        } else {
            (1.0, 0.0)
        }
    }

    /// One unit-mean-power Rician fade. Always consumes exactly two normal
    /// draws, even at `K = ∞`.
    fn sample_fade<R: Rng + ?Sized>(&self, rng: &mut R) -> Complex {
        let (los, sigma) = self.los_sigma();
        let g = Complex::new(rng.normal() * sigma, rng.normal() * sigma);
        Complex::new(los, 0.0) + g
    }
}

/// N backscatter tags sharing one reader: a direct path plus one
/// forward×backward cascade per tag, each path class with its own
/// [`HopModel`]. Distances are in meters; all large-scale gains are
/// relative to the direct link (see the module docs).
///
/// # Determinism
/// Fading is drawn through [`CascadeStreams`]: one seeded stream for the
/// direct path and one *per tag*, derived from a [`SeedTree`] by tag index.
/// Adding tag `N` therefore never perturbs the draws of tags `0..N`, and a
/// grid of chunks replays bit-identically at any thread count.
///
/// ```
/// use mmtag_channel::cascade::{CascadeDraw, CascadeStreams, HopModel, MultiTagCascade};
/// use mmtag_rf::rng::SeedTree;
///
/// // Two tags on a 2 m ring around the receiver, 10 m from the reader,
/// // with the RIScatter-style exponents (direct 2.6, forward 2.4,
/// // backward 2.0) and K = 5 on every path.
/// let cascade = MultiTagCascade::ring(
///     2,
///     10.0,
///     2.0,
///     HopModel::new(2.6, 5.0),
///     HopModel::new(2.4, 5.0),
///     HopModel::new(2.0, 5.0),
/// );
/// assert_eq!(cascade.n_tags(), 2);
///
/// let tree = SeedTree::new(7).subtree("doc");
/// let mut streams = CascadeStreams::new();
/// streams.reseed(&tree, 0, cascade.n_tags());
/// let mut draw = CascadeDraw::new();
/// cascade.sample_into(&mut streams, &mut draw);
/// // Short cascades still sit well below the unit-gain direct path.
/// assert!(draw.tags[0].abs() < 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MultiTagCascade {
    direct_distance_m: f64,
    direct: HopModel,
    forward: HopModel,
    backward: HopModel,
    /// Per-tag (forward, backward) distances in meters.
    tag_distances_m: Vec<(f64, f64)>,
}

impl MultiTagCascade {
    /// A cascade scene with no tags yet; `direct_distance_m` is the
    /// reader→receiver reference distance that every relative gain is
    /// normalized against.
    ///
    /// # Panics
    /// Panics if `direct_distance_m` is not strictly positive and finite.
    pub fn new(
        direct_distance_m: f64,
        direct: HopModel,
        forward: HopModel,
        backward: HopModel,
    ) -> Self {
        assert!(
            direct_distance_m.is_finite() && direct_distance_m > 0.0,
            "direct distance must be positive"
        );
        MultiTagCascade {
            direct_distance_m,
            direct,
            forward,
            backward,
            tag_distances_m: Vec::new(),
        }
    }

    /// Adds one tag at the given forward (reader→tag) and backward
    /// (tag→receiver) distances, returning `self` for chaining.
    ///
    /// # Panics
    /// Panics if either distance is not strictly positive and finite.
    pub fn with_tag(mut self, forward_m: f64, backward_m: f64) -> Self {
        assert!(
            forward_m.is_finite() && forward_m > 0.0 && backward_m.is_finite() && backward_m > 0.0,
            "tag distances must be positive"
        );
        self.tag_distances_m.push((forward_m, backward_m));
        self
    }

    /// Deterministic N-tag layout: tags evenly spaced on a circle of radius
    /// `ring_m` centered on the receiver, with the reader `direct_m` away
    /// along the x-axis. Tag `i` sits at angle `2πi/n`, so its backward
    /// distance is `ring_m` and its forward distance follows the law of
    /// cosines. This is the canonical geometry of the E29–E31 experiments.
    ///
    /// # Panics
    /// Panics if `n == 0` or any distance is not strictly positive/finite.
    pub fn ring(
        n: usize,
        direct_m: f64,
        ring_m: f64,
        direct: HopModel,
        forward: HopModel,
        backward: HopModel,
    ) -> Self {
        assert!(n > 0, "a ring layout needs at least one tag");
        let mut cascade = Self::new(direct_m, direct, forward, backward);
        for i in 0..n {
            let theta = 2.0 * std::f64::consts::PI * (i as f64) / (n as f64);
            let fwd = (direct_m * direct_m + ring_m * ring_m
                - 2.0 * direct_m * ring_m * theta.cos())
            .sqrt();
            cascade = cascade.with_tag(fwd, ring_m);
        }
        cascade
    }

    /// Number of tags in the scene.
    pub fn n_tags(&self) -> usize {
        self.tag_distances_m.len()
    }

    /// The (forward, backward) distances of tag `i` in meters.
    ///
    /// # Panics
    /// Panics if `i ≥ n_tags()`.
    pub fn tag_distances_m(&self, i: usize) -> (f64, f64) {
        self.tag_distances_m[i]
    }

    /// Large-scale cascade amplitude of tag `i` relative to the direct
    /// link: `d_f^(−γ_f/2) · d_b^(−γ_b/2) / d_0^(−γ_d/2)` (distances in
    /// meters, 1 m reference gain).
    ///
    /// # Panics
    /// Panics if `i ≥ n_tags()`.
    pub fn relative_amplitude(&self, i: usize) -> f64 {
        let (fwd, bwd) = self.tag_distances_m[i];
        fwd.powf(-self.forward.exponent() / 2.0) * bwd.powf(-self.backward.exponent() / 2.0)
            / self.direct_distance_m.powf(-self.direct.exponent() / 2.0)
    }

    /// Draws one joint channel realization into `out`: the (unit
    /// large-scale gain) direct coefficient and, per tag, the composite
    /// cascade coefficient `a_i · g_f,i · g_b,i` — relative amplitude times
    /// the forward and backward Rician fades.
    ///
    /// # Determinism
    /// Consumes exactly two normals from the direct stream and four from
    /// each tag stream (forward fade then backward fade), in tag order,
    /// regardless of K-factors — streams never drift across parameter
    /// sweeps. `out` is resized on first use and reused allocation-free
    /// afterwards.
    ///
    /// # Panics
    /// Panics if `streams` was last reseeded for a different tag count.
    pub fn sample_into(&self, streams: &mut CascadeStreams, out: &mut CascadeDraw) {
        assert_eq!(
            streams.tags.len(),
            self.n_tags(),
            "streams reseeded for a different tag count"
        );
        out.tags.resize(self.n_tags(), Complex::ZERO);
        out.direct = self.direct.sample_fade(&mut streams.direct);
        for (i, (slot, rng)) in out.tags.iter_mut().zip(streams.tags.iter_mut()).enumerate() {
            let g_f = self.forward.sample_fade(rng);
            let g_b = self.backward.sample_fade(rng);
            *slot = (g_f * g_b).scale(self.relative_amplitude(i));
        }
    }
}

/// Seeded per-tag fading streams for [`MultiTagCascade::sample_into`]: one
/// stream for the direct path, one per tag.
///
/// Reseed once per work chunk ([`CascadeStreams::reseed`]); the stream
/// vector is grown once and reused, so steady-state chunk loops stay
/// allocation-free.
#[derive(Clone, Debug)]
pub struct CascadeStreams {
    direct: Xoshiro256pp,
    tags: Vec<Xoshiro256pp>,
}

impl CascadeStreams {
    /// An empty stream set; call [`CascadeStreams::reseed`] before use.
    pub fn new() -> Self {
        CascadeStreams {
            direct: Xoshiro256pp::seed_from(0),
            tags: Vec::new(),
        }
    }

    /// Re-derives all streams for work chunk `chunk`: the direct stream
    /// from `tree/"cascade-direct"[chunk]` and tag `i`'s stream from
    /// `tree/"cascade-tag"[i]/"cascade-chunk"[chunk]`.
    ///
    /// # Determinism
    /// Tag streams are keyed by tag index *before* chunk index, so the
    /// draws of tags `0..N` are bit-identical whether the scene holds `N`
    /// or `N+1` tags — sum-rate-vs-N sweeps share their randomness across
    /// the axis by construction.
    pub fn reseed(&mut self, tree: &SeedTree, chunk: u64, n_tags: usize) {
        self.direct = tree.rng_indexed("cascade-direct", chunk);
        self.tags.clear();
        for i in 0..n_tags as u64 {
            self.tags.push(
                tree.subtree_indexed("cascade-tag", i)
                    .rng_indexed("cascade-chunk", chunk),
            );
        }
    }
}

impl Default for CascadeStreams {
    fn default() -> Self {
        Self::new()
    }
}

/// One joint channel realization: the direct coefficient and the composite
/// per-tag cascade coefficients. Owned by the caller and reused across
/// trials (same scratch discipline as DESIGN.md §8).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CascadeDraw {
    /// Direct-path fade (unit large-scale gain).
    pub direct: Complex,
    /// Per-tag composite cascade coefficient `a_i · g_f,i · g_b,i`.
    pub tags: Vec<Complex>,
}

impl CascadeDraw {
    /// An empty draw; sized lazily by the first [`MultiTagCascade::sample_into`].
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fspl::free_space_path_loss;
    use mmtag_rf::units::{Distance, Frequency};

    fn los_hop(exponent: f64) -> HopModel {
        HopModel::new(exponent, f64::INFINITY)
    }

    fn draw_with(cascade: &MultiTagCascade, seed: u64, chunk: u64) -> CascadeDraw {
        let tree = SeedTree::new(seed).subtree("cascade-test");
        let mut streams = CascadeStreams::new();
        streams.reseed(&tree, chunk, cascade.n_tags());
        let mut out = CascadeDraw::new();
        cascade.sample_into(&mut streams, &mut out);
        out
    }

    #[test]
    fn infinite_k_is_deterministic_los() {
        let cascade =
            MultiTagCascade::new(10.0, los_hop(2.6), los_hop(2.4), los_hop(2.0)).with_tag(9.0, 2.0);
        let d = draw_with(&cascade, 1, 0);
        assert_eq!(d.direct, Complex::new(1.0, 0.0));
        assert_eq!(d.tags[0], Complex::new(cascade.relative_amplitude(0), 0.0));
    }

    #[test]
    fn equal_exponents_reproduce_the_two_way_d4_law_of_fspl() {
        // γ_f = γ_b = 2 ⇒ cascade power slope = two one-way Friis slopes.
        // Differential pin against the existing closed form: doubling both
        // hop distances must cost exactly 2 × (FSPL(2d) − FSPL(d)).
        let cascade = MultiTagCascade::new(10.0, los_hop(2.0), los_hop(2.0), los_hop(2.0))
            .with_tag(3.0, 3.0)
            .with_tag(6.0, 6.0);
        let p_near = cascade.relative_amplitude(0).powi(2);
        let p_far = cascade.relative_amplitude(1).powi(2);
        let cascade_db = 10.0 * (p_near / p_far).log10();

        let f = Frequency::from_ghz(24.0);
        let friis_db = 2.0
            * (free_space_path_loss(f, Distance::from_meters(6.0)).db()
                - free_space_path_loss(f, Distance::from_meters(3.0)).db());
        assert!(
            (cascade_db - friis_db).abs() < 1e-9,
            "cascade {cascade_db} dB vs 2×Friis {friis_db} dB"
        );
        // And the absolute number is the d⁻⁴ law: 2^4 = 12.04 dB.
        assert!((cascade_db - 40.0 * 2.0_f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn fades_have_unit_mean_power() {
        let cascade = MultiTagCascade::new(
            10.0,
            HopModel::new(2.6, 5.0),
            HopModel::new(2.4, 5.0),
            HopModel::new(2.0, 8.0),
        )
        .with_tag(5.0, 2.0);
        let a = cascade.relative_amplitude(0);

        let tree = SeedTree::new(42).subtree("stats");
        let mut streams = CascadeStreams::new();
        let mut out = CascadeDraw::new();
        let (mut p_direct, mut p_tag) = (0.0, 0.0);
        let trials = 40_000;
        for chunk in 0..4 {
            streams.reseed(&tree, chunk, 1);
            for _ in 0..trials / 4 {
                cascade.sample_into(&mut streams, &mut out);
                p_direct += out.direct.norm_sqr();
                p_tag += out.tags[0].norm_sqr();
            }
        }
        let n = trials as f64;
        // E[|g_f·g_b|²] = 1 for independent unit-power hops, so the mean
        // cascade power is exactly a² — fading adds no average gain.
        assert!((p_direct / n - 1.0).abs() < 0.05, "direct {}", p_direct / n);
        let ratio = p_tag / n / (a * a);
        assert!((ratio - 1.0).abs() < 0.05, "cascade power ratio {ratio}");
    }

    /// The Ricean moments pin one hop's fade: E|g|² = 1 and E|g|⁴ =
    /// (K² + 4K + 2)/(K + 1)², which is 2 at K = 0 (Rayleigh), each within
    /// 4 of the sample's own standard errors; K = 5 is RIScatter's value.
    /// At K = ∞ every fade is the unit LOS phasor, |g| = 1 exactly.
    #[test]
    fn hop_fades_match_the_ricean_moments() {
        let mut rng = SeedTree::new(31).rng("ricean-moments");
        let n = 200_000;
        for k in [0.0, 5.0, 10.0] {
            let hop = HopModel::new(2.0, k);
            let (mut s2, mut s4, mut s8) = (0.0, 0.0, 0.0);
            for _ in 0..n {
                let p = hop.sample_fade(&mut rng).norm_sqr();
                s2 += p;
                s4 += p * p;
                s8 += p.powi(4);
            }
            let (m2, m4, m8) = (s2 / n as f64, s4 / n as f64, s8 / n as f64);
            let se2 = ((m4 - m2 * m2) / n as f64).sqrt();
            let se4 = ((m8 - m4 * m4) / n as f64).sqrt();
            let want4 = (k * k + 4.0 * k + 2.0) / ((k + 1.0) * (k + 1.0));
            assert!((m2 - 1.0).abs() <= 4.0 * se2, "K={k}: E|g|² {m2} ± {se2}");
            assert!(
                (m4 - want4).abs() <= 4.0 * se4,
                "K={k}: E|g|⁴ {m4} ± {se4} vs {want4}"
            );
        }
        let los = HopModel::new(2.0, f64::INFINITY);
        for _ in 0..1000 {
            assert_eq!(los.sample_fade(&mut rng).norm_sqr(), 1.0);
        }
    }

    #[test]
    fn adding_a_tag_never_perturbs_earlier_tags() {
        let base = MultiTagCascade::new(
            10.0,
            HopModel::new(2.6, 5.0),
            HopModel::new(2.4, 5.0),
            HopModel::new(2.0, 5.0),
        );
        let two = base.clone().with_tag(9.0, 2.0).with_tag(8.0, 3.0);
        let three = base
            .with_tag(9.0, 2.0)
            .with_tag(8.0, 3.0)
            .with_tag(7.0, 4.0);
        for chunk in 0..3 {
            let d2 = draw_with(&two, 9, chunk);
            let d3 = draw_with(&three, 9, chunk);
            assert_eq!(d2.direct, d3.direct);
            assert_eq!(d2.tags[..], d3.tags[..2]);
        }
    }

    #[test]
    fn ring_layout_geometry() {
        let c = MultiTagCascade::ring(4, 10.0, 2.0, los_hop(2.0), los_hop(2.0), los_hop(2.0));
        assert_eq!(c.n_tags(), 4);
        // Tag 0 sits on the reader side of the ring: forward = 10 − 2.
        let (f0, b0) = c.tag_distances_m(0);
        assert!((f0 - 8.0).abs() < 1e-12 && (b0 - 2.0).abs() < 1e-12);
        // Tag 2 is diametrically opposite: forward = 10 + 2.
        let (f2, _) = c.tag_distances_m(2);
        assert!((f2 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn stream_draws_are_k_invariant_in_count() {
        // Same tree, different K: the *number* of draws per trial is fixed,
        // so a second trial starts from the same stream offset.
        let faded = MultiTagCascade::new(
            10.0,
            HopModel::new(2.6, 0.0),
            HopModel::new(2.4, 0.0),
            HopModel::new(2.0, 0.0),
        )
        .with_tag(9.0, 2.0);
        let los =
            MultiTagCascade::new(10.0, los_hop(2.6), los_hop(2.4), los_hop(2.0)).with_tag(9.0, 2.0);
        let tree = SeedTree::new(3).subtree("k-invariant");
        for cascade in [&faded, &los] {
            let mut streams = CascadeStreams::new();
            streams.reseed(&tree, 0, 1);
            let mut out = CascadeDraw::new();
            cascade.sample_into(&mut streams, &mut out);
            let first = out.clone();
            streams.reseed(&tree, 0, 1);
            cascade.sample_into(&mut streams, &mut out);
            assert_eq!(first, out, "reseed must replay the draw");
        }
    }

    #[test]
    #[should_panic(expected = "K-factor")]
    fn negative_k_panics() {
        let _ = HopModel::new(2.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "direct distance")]
    fn zero_direct_distance_panics() {
        let _ = MultiTagCascade::new(0.0, los_hop(2.0), los_hop(2.0), los_hop(2.0));
    }

    #[test]
    #[should_panic(expected = "tag distances")]
    fn zero_tag_distance_panics() {
        let _ =
            MultiTagCascade::new(10.0, los_hop(2.0), los_hop(2.0), los_hop(2.0)).with_tag(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "different tag count")]
    fn mismatched_streams_panic() {
        let cascade =
            MultiTagCascade::new(10.0, los_hop(2.0), los_hop(2.0), los_hop(2.0)).with_tag(9.0, 2.0);
        let tree = SeedTree::new(0).subtree("mismatch");
        let mut streams = CascadeStreams::new();
        streams.reseed(&tree, 0, 2);
        cascade.sample_into(&mut streams, &mut CascadeDraw::new());
    }
}
