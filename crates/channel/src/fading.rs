//! Small-scale fading.
//!
//! A beam-aligned mmWave backscatter link is strongly Rician: the aligned
//! beam carries one dominant component and the narrow beamwidths suppress
//! most scatter. We provide a Rician power-envelope sampler (Rayleigh as the
//! `K = 0` special case) for robustness experiments — e.g. how much fade
//! margin the Fig. 7 rate thresholds need in a real room.
//!
//! Outage estimation is Monte-Carlo over many independent fades, so it is
//! also one of the stack's parallel hot paths: [`RicianFading::outage_probability_par`]
//! runs the trial loop chunked over the [`mmtag_rf::par`] engine with one
//! [`SeedTree`] stream per chunk, bit-identical at any thread count.
//!
//! The chunk kernel is the lane [`RicianFading::count_outages_scratch`]
//! (DESIGN.md §11): it streams one Box–Muller pair per fade out of the
//! fused block pipeline ([`normal_pair_block`] — **sampler v2**, half the
//! transcendental calls of the scalar [`RicianFading::sample`], which
//! burns two cosine-branch draws) and counts threshold crossings on each
//! L1-resident block, [`mmtag_rf::math::LANES`] trials per pass with
//! lane-local counters reduced in a fixed order. Its test oracle, in
//! this module's tests, draws one [`Rng::normal_pair`] per trial and
//! compares each fade's power to the threshold in turn; the kernel
//! matches it bit for bit (counts and RNG stream position).

use mmtag_rf::math::LANES;
use mmtag_rf::obs;
use mmtag_rf::par;
use mmtag_rf::rng::{normal_pair_block, Rng, SeedTree, BM_BLOCK};
use mmtag_rf::units::Db;
use mmtag_rf::Complex;

/// Trials per work unit for parallel outage estimation. Fixed (not derived
/// from the thread count) so the chunk decomposition — and therefore the
/// sampled randomness — is identical no matter how many workers run it.
pub const OUTAGE_CHUNK_TRIALS: usize = 16_384;

/// Caller-owned workspace parameter of
/// [`RicianFading::count_outages_scratch`], threaded one per worker
/// through the scratch-carrying parallel engine like every scratch in
/// this stack (DESIGN.md §8). The lane kernel works entirely in stack
/// blocks, so the workspace currently holds nothing.
#[derive(Clone, Debug, Default)]
pub struct FadeScratch;

impl FadeScratch {
    /// An empty workspace; sized lazily by the first chunk.
    pub fn new() -> Self {
        Self
    }
}

/// A Rician fading channel with linear K-factor `k` (dominant/scattered
/// power ratio). The mean power gain is normalized to 1 (0 dB).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RicianFading {
    k: f64,
}

impl RicianFading {
    /// Creates a Rician fader from a linear K-factor (≥ 0).
    ///
    /// # Panics
    /// Panics on negative or non-finite `k`.
    pub fn new(k: f64) -> Self {
        assert!(k.is_finite() && k >= 0.0, "K-factor must be ≥ 0");
        RicianFading { k }
    }

    /// From a K-factor in dB.
    pub fn from_k_db(k: Db) -> Self {
        Self::new(k.linear())
    }

    /// Rayleigh fading (no dominant component).
    pub fn rayleigh() -> Self {
        Self::new(0.0)
    }

    /// Beam-aligned mmWave LOS: K ≈ 10 dB is typical of measured indoor
    /// mmWave links with aligned horns.
    pub fn mmwave_los() -> Self {
        Self::from_k_db(Db::new(10.0))
    }

    /// The linear K-factor.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Samples one complex channel coefficient `h` with `E[|h|²] = 1`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Complex {
        // h = √(K/(K+1)) + √(1/(K+1))·CN(0,1)
        let los = (self.k / (self.k + 1.0)).sqrt();
        let sigma = (0.5 / (self.k + 1.0)).sqrt();
        let g = Complex::new(rng.normal() * sigma, rng.normal() * sigma);
        Complex::new(los, 0.0) + g
    }

    /// Samples the power gain `|h|²` (linear, mean 1).
    pub fn sample_power<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample(rng).norm_sqr()
    }

    /// The lane outage kernel (DESIGN.md §11): streams Gaussian pairs
    /// through the fused Box–Muller **block pipeline**
    /// ([`mmtag_rf::rng::normal_pair_block`], one pair per trial) and
    /// counts fades whose power `|los + σ·z|²` falls below the `margin`
    /// threshold directly on each L1-resident block —
    /// [`mmtag_rf::math::LANES`] trials per pass into lane-local integer
    /// counters reduced in fixed lane order. The trial draws never touch
    /// the heap at all (see [`FadeScratch`]). Trial `i` consumes exactly
    /// the `i`-th [`Rng::normal_pair`] of the stream and the lanes never
    /// interact, so counts — and the RNG stream position — are
    /// **bit-identical** to one pair per trial compared in turn, including
    /// non-finite thresholds (a NaN margin compares false in every lane).
    pub fn count_outages_scratch<R: Rng + ?Sized>(
        &self,
        margin: Db,
        trials: usize,
        rng: &mut R,
        scratch: &mut FadeScratch,
    ) -> usize {
        let _ = &scratch;
        let _span = obs::span("channel.outage.chunk");
        let threshold = outage_threshold(margin);
        let los = (self.k / (self.k + 1.0)).sqrt();
        let sigma = (0.5 / (self.k + 1.0)).sqrt();
        let mut z0 = [0.0f64; BM_BLOCK];
        let mut z1 = [0.0f64; BM_BLOCK];
        let mut lane_outages = [0u64; LANES];
        // Tail trials (the < LANES remainder of a partial block) keep
        // their own exact integer counter; the fixed lane/tail split is
        // for the bit-identity argument, not the sum (integer adds are
        // exact in any order).
        let mut tail_outages = 0u64;
        let mut done = 0usize;
        while done < trials {
            let n = BM_BLOCK.min(trials - done);
            normal_pair_block(rng, &mut z0, &mut z1, n);
            let full = n - n % LANES;
            for base in (0..full).step_by(LANES) {
                for l in 0..LANES {
                    let v = los + sigma * z0[base + l];
                    let w = sigma * z1[base + l];
                    lane_outages[l] += u64::from(v * v + w * w < threshold);
                }
            }
            for i in full..n {
                let v = los + sigma * z0[i];
                let w = sigma * z1[i];
                tail_outages += u64::from(v * v + w * w < threshold);
            }
            done += n;
        }
        let mut outages: u64 = 0;
        for &o in &lane_outages {
            outages += o;
        }
        outages += tail_outages;
        let outages = outages as usize;
        obs::counter_add("channel.outage.trials", trials as u64);
        obs::observe("channel.outage.chunk_outages", outages as u64);
        outages
    }

    /// Parallel Monte-Carlo outage probability, chunked over the
    /// [`mmtag_rf::par`] engine: chunk `i` draws its fades from
    /// `tree.rng_indexed("outage-chunk", i)`, so the estimate is
    /// bit-identical at any thread count (including `MMTAG_THREADS=1`).
    pub fn outage_probability_par(&self, margin: Db, trials: usize, tree: &SeedTree) -> f64 {
        self.outage_probability_par_with(par::thread_limit(), margin, trials, tree)
    }

    /// [`RicianFading::outage_probability_par`] with an explicit thread
    /// budget (what the determinism tests and serial-vs-parallel benches
    /// call). The single-cell special case of [`outage_grid_par_with`].
    pub fn outage_probability_par_with(
        &self,
        threads: usize,
        margin: Db,
        trials: usize,
        tree: &SeedTree,
    ) -> f64 {
        let _span = obs::span("channel.outage.point");
        let cell = OutageCell {
            fader: *self,
            margin,
            tree: *tree,
        };
        outage_grid_par_with(threads, std::slice::from_ref(&cell), trials)[0]
    }
}

/// Linear power threshold for a fade `margin` dB below the (unit) mean.
fn outage_threshold(margin: Db) -> f64 {
    10f64.powf(-margin.db() / 10.0)
}

/// One cell of an outage sweep grid: a fader, a fade margin, and the
/// [`SeedTree`] that owns the cell's random streams.
#[derive(Clone, Copy, Debug)]
pub struct OutageCell {
    /// The fading channel for this cell.
    pub fader: RicianFading,
    /// Fade margin below the unit mean.
    pub margin: Db,
    /// Stream root: chunk `i` of this cell draws from
    /// `tree.rng_indexed("outage-chunk", i)`.
    pub tree: SeedTree,
}

/// Estimates every cell of an outage sweep over **one global work grid**:
/// each (cell × trial chunk) pair is a single work unit, so the whole
/// sweep saturates the worker budget instead of parallelizing one cell
/// at a time (which strands workers whenever `trials` is small relative
/// to `OUTAGE_CHUNK_TRIALS × threads`).
///
/// Per-cell results are **bit-identical** to calling
/// [`RicianFading::outage_probability_par`] cell by cell at any thread
/// count: unit `(c, i)` draws from `cells[c].tree.rng_indexed
/// ("outage-chunk", i)` — exactly the stream the per-cell path uses —
/// and chunk counts are folded in chunk order per cell.
///
/// # Panics
/// Panics when `trials == 0`.
pub fn outage_grid_par_with(threads: usize, cells: &[OutageCell], trials: usize) -> Vec<f64> {
    assert!(trials > 0, "need at least one trial");
    let _span = obs::span("channel.outage.grid");
    let chunks_per_cell = trials.div_ceil(OUTAGE_CHUNK_TRIALS);
    let counts: Vec<u64> = par::par_indexed_scratch_with(
        threads,
        cells.len() * chunks_per_cell,
        FadeScratch::new,
        |scratch, u| {
            let cell = &cells[u / chunks_per_cell];
            let ci = u % chunks_per_cell;
            let start = ci * OUTAGE_CHUNK_TRIALS;
            let len = (start + OUTAGE_CHUNK_TRIALS).min(trials) - start;
            let mut rng = cell.tree.rng_indexed("outage-chunk", ci as u64);
            cell.fader
                .count_outages_scratch(cell.margin, len, &mut rng, scratch) as u64
        },
    );
    counts
        .chunks(chunks_per_cell)
        .map(|per_cell| per_cell.iter().sum::<u64>() as f64 / trials as f64)
        .collect()
}

/// [`outage_grid_par_with`] at the default [`par::thread_limit`].
pub fn outage_grid_par(cells: &[OutageCell], trials: usize) -> Vec<f64> {
    outage_grid_par_with(par::thread_limit(), cells, trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_rf::rng::Xoshiro256pp;

    #[test]
    fn mean_power_is_unity() {
        let mut rng = Xoshiro256pp::seed_from(7);
        for fader in [
            RicianFading::rayleigh(),
            RicianFading::mmwave_los(),
            RicianFading::new(100.0),
        ] {
            let n = 200_000;
            let mean: f64 = (0..n).map(|_| fader.sample_power(&mut rng)).sum::<f64>() / n as f64;
            assert!((mean - 1.0).abs() < 0.02, "K={}: mean={mean}", fader.k());
        }
    }

    #[test]
    fn rayleigh_outage_matches_closed_form() {
        // Rayleigh power is exponential: P(|h|² < t) = 1 − e^(−t).
        let fader = RicianFading::rayleigh();
        let p = fader.outage_probability_par_with(1, Db::new(10.0), 200_000, &SeedTree::new(42));
        let expected = 1.0 - (-0.1f64).exp(); // t = 10^(−1)
        assert!((p - expected).abs() < 0.005, "got {p}, want {expected}");
    }

    #[test]
    fn parallel_outage_matches_closed_form_and_is_thread_invariant() {
        let tree = SeedTree::new(2024);
        let fader = RicianFading::rayleigh();
        let serial = fader.outage_probability_par_with(1, Db::new(10.0), 200_000, &tree);
        let expected = 1.0 - (-0.1f64).exp();
        assert!((serial - expected).abs() < 0.005, "got {serial}");
        for threads in [2, 4, 8] {
            let par = fader.outage_probability_par_with(threads, Db::new(10.0), 200_000, &tree);
            assert_eq!(serial.to_bits(), par.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn higher_k_means_fewer_deep_fades() {
        let tree = SeedTree::new(3);
        let deep = Db::new(10.0);
        let ray = RicianFading::rayleigh().outage_probability_par_with(1, deep, 100_000, &tree);
        let rice = RicianFading::mmwave_los().outage_probability_par_with(1, deep, 100_000, &tree);
        assert!(
            rice < ray / 10.0,
            "K=10 dB outage {rice} must be ≪ Rayleigh {ray}"
        );
    }

    #[test]
    fn strong_k_concentrates_near_unity() {
        let mut rng = Xoshiro256pp::seed_from(11);
        let fader = RicianFading::new(1000.0);
        for _ in 0..1000 {
            let p = fader.sample_power(&mut rng);
            assert!((0.8..1.25).contains(&p), "K=1000 sample {p}");
        }
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let a: Vec<f64> = {
            let mut rng = Xoshiro256pp::seed_from(5);
            (0..10)
                .map(|_| RicianFading::mmwave_los().sample_power(&mut rng))
                .collect()
        };
        let b: Vec<f64> = {
            let mut rng = Xoshiro256pp::seed_from(5);
            (0..10)
                .map(|_| RicianFading::mmwave_los().sample_power(&mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "K-factor")]
    fn negative_k_is_a_bug() {
        let _ = RicianFading::new(-1.0);
    }

    /// The lane kernel's oracle: trial `i` consumes exactly the `i`-th
    /// [`Rng::normal_pair`] of the stream and compares `|los + σ·z|²` to
    /// the threshold, one trial at a time.
    fn oracle_outages<R: Rng + ?Sized>(
        fader: &RicianFading,
        margin: Db,
        trials: usize,
        rng: &mut R,
    ) -> usize {
        let threshold = outage_threshold(margin);
        let los = (fader.k() / (fader.k() + 1.0)).sqrt();
        let sigma = (0.5 / (fader.k() + 1.0)).sqrt();
        (0..trials)
            .filter(|_| {
                let (z0, z1) = rng.normal_pair();
                let re = los + sigma * z0;
                let im = sigma * z1;
                re * re + im * im < threshold
            })
            .count()
    }

    #[test]
    fn batch_outage_kernel_is_bit_identical_to_pair_draws() {
        // Odd / zero / block-uneven trial counts against the oracle.
        let fader = RicianFading::mmwave_los();
        let margin = Db::new(6.0);
        for trials in [0usize, 1, 7, 256, 1001] {
            let mut scratch = FadeScratch::new();
            let mut a = Xoshiro256pp::seed_from(42 + trials as u64);
            let got = fader.count_outages_scratch(margin, trials, &mut a, &mut scratch);
            let mut b = Xoshiro256pp::seed_from(42 + trials as u64);
            let want = oracle_outages(&fader, margin, trials, &mut b);
            assert_eq!(got, want, "trials={trials}");
            // Both sides consumed the same amount of stream.
            assert_eq!(a.next_u64(), b.next_u64(), "trials={trials}");
        }
    }

    #[test]
    fn lane_kernel_is_bit_identical_to_batch_kernel() {
        // Kernel contract: the SoA lane kernel and the pair-draw oracle
        // consume the same stream and return the same count at every
        // length class — empty, sub-lane, the lane boundary and its
        // neighbours, and long chunks with a tail.
        for fader in [RicianFading::mmwave_los(), RicianFading::rayleigh()] {
            for &trials in &[0usize, 1, 7, 8, 9, 1000, 100_000] {
                let margin = Db::new(6.0);
                let mut a = Xoshiro256pp::seed_from(0xFA0E ^ trials as u64);
                let mut b = Xoshiro256pp::seed_from(0xFA0E ^ trials as u64);
                let mut scratch = FadeScratch::new();
                let lanes = fader.count_outages_scratch(margin, trials, &mut a, &mut scratch);
                let oracle = oracle_outages(&fader, margin, trials, &mut b);
                assert_eq!(lanes, oracle, "K={} trials={trials}", fader.k());
                assert_eq!(a.next_u64(), b.next_u64(), "stream at trials={trials}");
            }
        }
    }

    #[test]
    fn lane_kernel_matches_batch_on_degenerate_margins() {
        // Non-finite and sign-of-zero edge cases must degrade identically
        // in the kernel and the oracle:
        //  * margin = +∞ → threshold 0.0: `power < 0.0` is false for every
        //    fade, including exact (+/−)0.0 powers — zero outages;
        //  * margin = −∞ → threshold +∞: every finite power outages;
        //  * margin = NaN → threshold NaN: every comparison is false;
        //  * Rayleigh (K = 0, los = 0.0) keeps σ·z's sign, so negative
        //    draws put −0.0-signed products through v·v + w·w.
        let margins = [
            Db::new(f64::INFINITY),
            Db::new(f64::NEG_INFINITY),
            Db::new(f64::NAN),
            Db::new(-300.0),
        ];
        for fader in [RicianFading::rayleigh(), RicianFading::mmwave_los()] {
            for (mi, &margin) in margins.iter().enumerate() {
                for &trials in &[1usize, 9, 1000] {
                    let seed = 0xED6E ^ (mi as u64) << 32 ^ trials as u64;
                    let mut a = Xoshiro256pp::seed_from(seed);
                    let mut b = Xoshiro256pp::seed_from(seed);
                    let mut scratch = FadeScratch::new();
                    let lanes = fader.count_outages_scratch(margin, trials, &mut a, &mut scratch);
                    let oracle = oracle_outages(&fader, margin, trials, &mut b);
                    assert_eq!(
                        lanes,
                        oracle,
                        "K={} margin={} trials={trials}",
                        fader.k(),
                        margin.db()
                    );
                    // And the degenerate counts themselves are pinned.
                    if margin.db() == f64::INFINITY || margin.db().is_nan() {
                        assert_eq!(lanes, 0, "threshold {} must never fire", margin.db());
                    } else {
                        assert_eq!(lanes, trials, "threshold {} must always fire", margin.db());
                    }
                }
            }
        }
    }

    #[test]
    fn batch_and_scalar_outage_agree_statistically() {
        // The lane kernel (sampler v2) draws a different stream than the
        // scalar sampler-v1 `sample_power`, but both must estimate the
        // same outage within Monte-Carlo error.
        let fader = RicianFading::rayleigh();
        let n = 200_000;
        let mut rng = Xoshiro256pp::seed_from(8);
        let threshold = outage_threshold(Db::new(10.0));
        let scalar = (0..n)
            .filter(|_| fader.sample_power(&mut rng) < threshold)
            .count() as f64
            / n as f64;
        let mut rng = Xoshiro256pp::seed_from(8);
        let mut scratch = FadeScratch::new();
        let batch =
            fader.count_outages_scratch(Db::new(10.0), n, &mut rng, &mut scratch) as f64 / n as f64;
        let sigma = (scalar * (1.0 - scalar) / n as f64).sqrt();
        assert!(
            (batch - scalar).abs() < 5.0 * sigma,
            "batch {batch} vs scalar {scalar}"
        );
    }

    #[test]
    fn outage_grid_is_bit_identical_to_per_cell_calls() {
        // The flattened (cell × chunk) grid must reproduce the per-cell
        // parallel path exactly — same streams, same fold order — at any
        // thread count, including chunk-uneven trial totals.
        let root = SeedTree::new(77);
        let cells: Vec<OutageCell> = [0.0, 5.0, 10.0]
            .iter()
            .enumerate()
            .flat_map(|(i, &k_db)| {
                [Db::new(3.0), Db::new(7.0)].map(|margin| OutageCell {
                    fader: RicianFading::from_k_db(Db::new(k_db)),
                    margin,
                    tree: root.subtree_indexed("cell", i as u64 * 2 + margin.db() as u64),
                })
            })
            .collect();
        for trials in [1000usize, OUTAGE_CHUNK_TRIALS + 1, 40_000] {
            let per_cell: Vec<f64> = cells
                .iter()
                .map(|c| {
                    c.fader
                        .outage_probability_par_with(1, c.margin, trials, &c.tree)
                })
                .collect();
            for threads in [1usize, 2, 4, 8] {
                let grid = outage_grid_par_with(threads, &cells, trials);
                assert_eq!(
                    per_cell.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    grid.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    "threads={threads} trials={trials}"
                );
            }
        }
    }

    #[test]
    fn fade_scratch_reuse_across_sizes_matches_fresh() {
        let fader = RicianFading::mmwave_los();
        let mut reused = FadeScratch::new();
        let mut a = Xoshiro256pp::seed_from(5);
        let mut b = Xoshiro256pp::seed_from(5);
        for trials in [2000usize, 3, 16_384, 100] {
            let x = fader.count_outages_scratch(Db::new(3.0), trials, &mut a, &mut reused);
            let mut fresh = FadeScratch::new();
            let y = fader.count_outages_scratch(Db::new(3.0), trials, &mut b, &mut fresh);
            assert_eq!(x, y, "trials={trials}");
        }
    }
}
