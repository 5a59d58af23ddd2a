//! In-house deterministic random numbers: no external crates, no OS entropy.
//!
//! The whole stack is a *simulation*, so randomness has exactly two jobs:
//! be fast (Monte-Carlo BER burns one generator call per noise sample) and
//! be reproducible (every figure regenerates bit-identically from a seed).
//! Cryptographic quality is explicitly a non-goal, which is why the
//! generator is xoshiro256++ — a 256-bit-state shift/rotate generator that
//! passes BigCrush and costs a handful of ALU ops per draw, several times
//! cheaper than the ChaCha-based `StdRng` the stack previously pulled in
//! from the `rand` crate.
//!
//! Four pieces live here:
//!
//! * [`Rng`] — the sampler trait the whole workspace writes against:
//!   uniform `u64`/`f64`, bounded integers, Bernoulli, the standard
//!   normal (Box–Muller) that AWGN and Rician fading consume, and a
//!   stream skip ([`Rng::skip_box_muller`]) that advances a generator
//!   exactly as far as those samplers would without computing a sample,
//! * [`Xoshiro256pp`] — the concrete generator, seeded from a single `u64`
//!   through SplitMix64 (the seeding recipe xoshiro's authors recommend),
//! * [`XoshiroLanes`] — [`crate::math::LANES`] of those generators stepped
//!   in lockstep, one vector of state words each, lane `l` bit-identical
//!   to the generator it was built from: independent equal-length streams
//!   (the BER sweep's chunks) draw side by side without changing one of
//!   them, which lifts the serial-draw ceiling of one stream,
//! * [`SeedTree`] — deterministic derivation of *independent named
//!   streams* from one experiment seed, the substrate that makes chunked
//!   parallel Monte-Carlo (see [`crate::par`]) bit-identical at any thread
//!   count: every chunk's stream depends only on `(root, label, index)`,
//!   never on which thread runs it or how many chunks exist.
//!
//! The batch Gaussian samplers run a fused Box–Muller block with one
//! uniform stage ([`uniform_pairs`]: the serial raw draws and the `u1`
//! rejection) and two `ln` stages. The **exact block**
//! ([`normal_pair_block`], behind [`Rng::fill_normal`]) uses libm `ln`
//! and is bit-identical to the scalar [`Rng::normal_pair`] chain. The
//! **certified block** ([`uniform_pairs`] + [`box_muller_certified`])
//! takes `ln` through the vectorized [`crate::math::ln_lanes`] and runs
//! everything after it in `f32` lanes, so its values are only within
//! ~2⁻²¹ of the exact ones; it computes only the cosine branch (the one
//! value per pair the bit-error counters read), and hands its uniforms
//! back so a consumer can replay any pair exactly ([`box_muller_exact`])
//! — which is what the counters do whenever a threshold decision is too
//! close to call.
//! [`uniform_pairs_lanes`] is the uniform stage across the streams of an
//! [`XoshiroLanes`], laid out across streams and compacting a rejected
//! `u1` inside its own lane, so the certified block runs on its output
//! unchanged.

use crate::math::LANES;
use std::f64::consts::TAU;

/// A deterministic random sampler.
///
/// Implementors provide [`Rng::next_u64`]; every sampler is derived from it
/// so all implementations agree on the mapping from raw stream to samples
/// (swapping generators never changes *how* bits become floats).
pub trait Rng {
    /// The next raw 64-bit draw from the stream.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53-bit resolution.
    fn f64(&mut self) -> f64 {
        // Top 53 bits → [0,1): the standard 2⁻⁵³ ladder.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u16` (e.g. a Gen2 RN16 handle).
    fn u16(&mut self) -> u16 {
        (self.next_u64() >> 48) as u16
    }

    /// A fair coin.
    fn bit(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform integer in `[0, n)` via the 128-bit multiply-shift reduction.
    ///
    /// The reduction carries a bias of at most `n / 2⁶⁴` — immeasurable for
    /// the slot counts and frame sizes simulated here — in exchange for
    /// being division-free and branch-free.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform index in `[0, n)` (convenience for slot/array picks).
    fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Log-uniform `f64` in `[lo, hi)`: each decade equally likely.
    /// Both bounds must be positive.
    fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && hi > lo, "log_range needs 0 < lo < hi");
        (self.in_range(lo.ln(), hi.ln())).exp()
    }

    /// Standard normal via Box–Muller (cosine branch).
    ///
    /// Consumes exactly two uniforms per sample (the `u1 = 0` rejection
    /// re-draws, at probability 2⁻⁵³), which keeps AWGN streams aligned
    /// with the previous `rand`-era implementation sample-for-sample.
    fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.f64();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = self.f64();
            return (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos();
        }
    }

    /// Both Box–Muller branches from one `(u1, u2)` uniform pair:
    /// `(r·cos(2πu2), r·sin(2πu2))` with `r = √(−2·ln u1)`.
    ///
    /// The sine/cosine pair comes from the in-house turn-based
    /// [`crate::math::sincos_2pi`] (~1 ulp), so the first component agrees
    /// with what [`Rng::normal`] returns from the same stream position to
    /// a couple of ulps but is *not* bit-identical to it; the second is
    /// the sine branch the scalar sampler throws away. Consuming both —
    /// and paying the polynomial rather than the libm price for them —
    /// cuts the transcendental cost per sample to well under half, which
    /// is why every batch fill below is built on this pair. **Sampler
    /// v2**: batch consumers draw pairs, so a stream read through
    /// [`Rng::fill_normal`] diverges from one read through repeated
    /// [`Rng::normal`] calls.
    fn normal_pair(&mut self) -> (f64, f64) {
        loop {
            let u1 = self.f64();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            return box_muller_exact(u1, self.f64());
        }
    }

    /// Fills `out` with standard normals, two per [`Rng::normal_pair`] —
    /// half the transcendental calls of the scalar path. An odd tail takes
    /// the cosine branch of one final pair and discards the sine, so
    /// `fill_normal` over any split of a buffer consumes the same stream
    /// as one call over the whole buffer only when splits are even-sized
    /// (batch callers use even chunk sizes for exactly this reason).
    ///
    /// This runs the fused Box–Muller **block pipeline**
    /// ([`normal_pair_block`]'s fixed-width SoA sweeps) rather than a
    /// per-pair scalar chain, but every value and the stream position
    /// afterwards are bit-identical to one [`Rng::normal_pair`] per two
    /// outputs — the scalar chain the differential tests hold this
    /// against.
    fn fill_normal(&mut self, out: &mut [f64]) {
        let mut z0 = [0.0f64; BM_BLOCK];
        let mut z1 = [0.0f64; BM_BLOCK];
        let mut blocks = out.chunks_exact_mut(2 * BM_BLOCK);
        for block in &mut blocks {
            normal_pair_block(self, &mut z0, &mut z1, BM_BLOCK);
            for ((pair, a), b) in block.chunks_exact_mut(2).zip(&z0).zip(&z1) {
                pair[0] = *a;
                pair[1] = *b;
            }
        }
        let rem = blocks.into_remainder();
        let pairs = rem.len() / 2;
        normal_pair_block(self, &mut z0, &mut z1, pairs);
        for ((pair, a), b) in rem.chunks_exact_mut(2).zip(&z0).zip(&z1) {
            pair[0] = *a;
            pair[1] = *b;
        }
        if let Some(last) = rem.get_mut(pairs * 2) {
            *last = self.normal_pair().0;
        }
    }

    /// Fills `out` with fair coin flips; element `i` is bit-identical to
    /// the `i`-th scalar [`Rng::bit`] draw (one raw `u64` per bit), so
    /// batch bit generation never perturbs an existing seeded stream.
    fn fill_bits(&mut self, out: &mut [bool]) {
        for b in out {
            *b = self.bit();
        }
    }

    /// Advances the stream past `n` Box–Muller draws without computing a
    /// sample. One draw is a `u1` raw, redrawn while its top 53 bits are
    /// zero (the `u1 = 0` rejection every Gaussian sampler here applies),
    /// plus one `u2` raw — exactly what one [`Rng::normal`] or
    /// [`Rng::normal_pair`] call, one [`uniform_pairs`] pair, or two
    /// [`Rng::fill_normal`] outputs consume.
    fn skip_box_muller(&mut self, n: u64) {
        for _ in 0..n {
            while self.next_u64() >> 11 == 0 {}
            self.next_u64();
        }
    }

    /// Rayleigh sample with scale `sigma` (envelope of two i.i.d. normals).
    fn rayleigh(&mut self, sigma: f64) -> f64 {
        loop {
            let u = self.f64();
            if u <= f64::MIN_POSITIVE {
                continue;
            }
            return sigma * (-2.0 * u.ln()).sqrt();
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Pairs per block of the fused Box–Muller pipeline: 64 pairs keep the
/// whole working set (one raw-draw buffer plus five `f64` work arrays,
/// ~3.5 KiB) on the stack and inside L1, while giving the fixed-width
/// inner sweeps enough trip count to fill vector registers.
pub const BM_BLOCK: usize = 64;

/// The 53-bit uniform ladder scale, 2⁻⁵³ (matches [`Rng::f64`]).
const F64_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// One block of the fused Box–Muller pipeline: computes the first `n`
/// (≤ [`BM_BLOCK`]) pairs of the stream into `z0` (cosine branches) and
/// `z1` (sine branches), **bit-identical** to `n` scalar
/// [`Rng::normal_pair`] calls — same values, same stream consumption.
///
/// This is the **exact block**: flat fixed-width sweeps over stack arrays
/// (structure-of-arrays, no per-pair control flow), which is what lets
/// the compiler autovectorize it:
///
/// 1. the uniform stage, [`uniform_pairs`] — the serial raw draws, the
///    `u1` rejection and the 2⁻⁵³ ladder (shared with the certified
///    block, [`box_muller_certified`]),
/// 2. `ln u1` — libm's, one scalar call per pair,
/// 3. one lane pass for the radius `√(−2·ln u1)`,
///    [`crate::math::sincos_2pi_lanes`] ([`crate::math::LANES`]
///    polynomial lanes at a time) and both output products.
///
/// Bit-identity holds because each pair undergoes exactly the scalar
/// chain's operation sequence — elementwise reordering across independent
/// pairs never changes any pair's own rounding (Rust does not contract
/// floating-point expressions, so vectorizing cannot introduce FMAs).
pub fn normal_pair_block<R: Rng + ?Sized>(
    rng: &mut R,
    z0: &mut [f64; BM_BLOCK],
    z1: &mut [f64; BM_BLOCK],
    n: usize,
) {
    assert!(n <= BM_BLOCK, "block kernel serves at most BM_BLOCK pairs");
    let mut u1 = [0.0f64; BM_BLOCK];
    let mut u2 = [0.0f64; BM_BLOCK];
    uniform_pairs(rng, &mut u1[..n], &mut u2[..n]);
    let mut r = [0.0f64; BM_BLOCK];
    for (ri, a) in r[..n].iter_mut().zip(&u1[..n]) {
        *ri = a.ln();
    }
    box_muller_tail(&mut r[..n], &u2[..n], &mut z0[..n], &mut z1[..n]);
}

/// The uniform stage both Box–Muller blocks share: fills `u1`/`u2` with
/// the next `u1.len()` accepted `(u1, u2)` pairs of the stream — pair `i`
/// is exactly the `i`-th pair [`Rng::normal_pair`] (or [`Rng::normal`])
/// would draw, `u1` after its rejection loop, and the stream ends where
/// that many scalar draws leave it.
///
/// Raws are drawn [`BM_BLOCK`] pairs at a time, already deinterleaved,
/// with the rejection check (`u1 ≤ f64::MIN_POSITIVE`, i.e. a raw whose
/// top 53 bits are all zero, probability 2⁻⁵³ per pair) folded into that
/// one serially-dependent loop as an OR. On a hit — essentially never —
/// the block's raws are compacted in stream order into accepted pairs,
/// drawing extras only where the rejections demand them.
///
/// # Panics
/// Panics if the two halves differ in length.
pub fn uniform_pairs<R: Rng + ?Sized>(rng: &mut R, u1: &mut [f64], u2: &mut [f64]) {
    assert_eq!(u1.len(), u2.len(), "uniform halves must have equal length");
    let mut raw1 = [0u64; BM_BLOCK];
    let mut raw2 = [0u64; BM_BLOCK];
    for (b1, b2) in u1.chunks_mut(BM_BLOCK).zip(u2.chunks_mut(BM_BLOCK)) {
        let n = b1.len();
        let mut any_rejected = false;
        for (a, b) in raw1[..n].iter_mut().zip(&mut raw2[..n]) {
            *a = rng.next_u64();
            *b = rng.next_u64();
            any_rejected |= *a >> 11 == 0;
        }
        if any_rejected {
            compact_rejected_pairs(rng, &mut raw1, &mut raw2, n);
        }
        for ((x1, x2), (a, b)) in b1.iter_mut().zip(b2.iter_mut()).zip(raw1.iter().zip(&raw2)) {
            *x1 = (a >> 11) as f64 * F64_SCALE;
            *x2 = (b >> 11) as f64 * F64_SCALE;
        }
    }
}

/// [`uniform_pairs`] across the [`LANES`] streams of `rng`, laid out
/// across streams: `u1[k][l]`/`u2[k][l]` is lane `l`'s `k`-th accepted
/// pair, exactly the one [`uniform_pairs`] on that lane's own
/// [`Xoshiro256pp`] would write to slot `k`, and every lane's stream ends
/// where that call leaves it.
///
/// All lanes draw in lockstep, [`BM_BLOCK`] pair steps at a time, with
/// one OR-folded rejection flag per lane. A lane that drew a rejected
/// `u1` in the block (p = 2⁻⁵³ per draw) is compacted inside its own
/// stream by [`uniform_pairs`]' own compaction, pulling extras from that
/// lane alone; the other lanes keep their raws.
///
/// # Panics
/// Panics if the two halves differ in length.
pub fn uniform_pairs_lanes(
    rng: &mut XoshiroLanes,
    u1: &mut [[f64; LANES]],
    u2: &mut [[f64; LANES]],
) {
    assert_eq!(u1.len(), u2.len(), "uniform halves must have equal length");
    let mut raw1 = [[0u64; LANES]; BM_BLOCK];
    let mut raw2 = [[0u64; LANES]; BM_BLOCK];
    for (b1, b2) in u1.chunks_mut(BM_BLOCK).zip(u2.chunks_mut(BM_BLOCK)) {
        let n = b1.len();
        let mut rejected = [false; LANES];
        for (a, b) in raw1[..n].iter_mut().zip(&mut raw2[..n]) {
            *a = rng.next_u64s();
            *b = rng.next_u64s();
            for l in 0..LANES {
                rejected[l] |= a[l] >> 11 == 0;
            }
        }
        if rejected.contains(&true) {
            compact_rejected_lanes(rng, &mut raw1, &mut raw2, n, rejected);
        }
        for ((x1, x2), (a, b)) in b1.iter_mut().zip(b2.iter_mut()).zip(raw1.iter().zip(&raw2)) {
            for l in 0..LANES {
                x1[l] = (a[l] >> 11) as f64 * F64_SCALE;
                x2[l] = (b[l] >> 11) as f64 * F64_SCALE;
            }
        }
    }
}

/// The rejection path of [`uniform_pairs_lanes`]: each lane flagged in
/// `rejected` is gathered, compacted by [`compact_rejected_pairs`] with
/// its own stream supplying the extras, and scattered back.
#[cold]
fn compact_rejected_lanes(
    rng: &mut XoshiroLanes,
    raw1: &mut [[u64; LANES]; BM_BLOCK],
    raw2: &mut [[u64; LANES]; BM_BLOCK],
    n: usize,
    rejected: [bool; LANES],
) {
    for l in (0..LANES).filter(|&l| rejected[l]) {
        let mut lane1: [u64; BM_BLOCK] = std::array::from_fn(|k| raw1[k][l]);
        let mut lane2: [u64; BM_BLOCK] = std::array::from_fn(|k| raw2[k][l]);
        let mut stream = rng.lane(l);
        compact_rejected_pairs(&mut stream, &mut lane1, &mut lane2, n);
        rng.set_lane(l, &stream);
        for k in 0..n {
            raw1[k][l] = lane1[k];
            raw2[k][l] = lane2[k];
        }
    }
}

/// The rejection path of [`uniform_pairs`]: re-reads the first `n` raw
/// pairs in stream order (`raw1[0], raw2[0], raw1[1], …`), skips every
/// `u1` raw the scalar chain rejects, pulls fresh raws once the buffer is
/// spent, and writes accepted pair `i` back to slot `i`. Pair `i` reads
/// only stream positions ≥ `2i`, so writing slot `i` in place never
/// overwrites a raw still to be read.
#[cold]
fn compact_rejected_pairs<R: Rng + ?Sized>(
    rng: &mut R,
    raw1: &mut [u64; BM_BLOCK],
    raw2: &mut [u64; BM_BLOCK],
    n: usize,
) {
    let mut pos = 0usize;
    let mut next = |raw1: &[u64; BM_BLOCK], raw2: &[u64; BM_BLOCK], rng: &mut R| -> u64 {
        let p = pos;
        pos += 1;
        if p >= 2 * n {
            rng.next_u64()
        } else if p % 2 == 0 {
            raw1[p / 2]
        } else {
            raw2[p / 2]
        }
    };
    for i in 0..n {
        let a = loop {
            let a = next(raw1, raw2, rng);
            if a >> 11 != 0 {
                break a;
            }
        };
        let b = next(raw1, raw2, rng);
        raw1[i] = a;
        raw2[i] = b;
    }
}

/// Stage 3 of the exact block: `r` holds `ln u1` on entry and the radius
/// `√(−2·ln u1)` on exit; `z0` receives the cosine branch `r·cos 2πu2` and
/// `z1` the sine branch `r·sin 2πu2`, from
/// [`crate::math::sincos_2pi_lanes`] (scalar [`crate::math::sincos_2pi`]
/// for a sub-lane tail — bit-identical).
fn box_muller_tail(r: &mut [f64], u2: &[f64], z0: &mut [f64], z1: &mut [f64]) {
    use crate::math::{sincos_2pi, sincos_2pi_lanes};
    let full = r.len() - r.len() % LANES;
    for at in (0..full).step_by(LANES) {
        let lanes = at..at + LANES;
        let (s, c) = sincos_2pi_lanes(u2[lanes.clone()].try_into().expect("LANES uniforms"));
        let rl = &mut r[lanes.clone()];
        for (rv, (c_out, c)) in rl.iter_mut().zip(z0[lanes.clone()].iter_mut().zip(c)) {
            *rv = (-2.0 * *rv).sqrt();
            *c_out = *rv * c;
        }
        for (s_out, (rv, s)) in z1[lanes].iter_mut().zip(rl.iter().zip(s)) {
            *s_out = rv * s;
        }
    }
    for i in full..r.len() {
        r[i] = (-2.0 * r[i]).sqrt();
        let (s, c) = sincos_2pi(u2[i]);
        z0[i] = r[i] * c;
        z1[i] = r[i] * s;
    }
}

/// The certified block's math, in single precision after the `ln`: for
/// uniforms from [`uniform_pairs`] it writes the fast radius
/// `r' = √(f32(−2·ln_lanes(u1)))` to `r` and the cosine branch
/// `r'·cos(2π·f32(u2))` to `z0`, both `f32`, [`LANES`] pairs per pass.
/// `ln` stays in `f64` ([`crate::math::ln_lanes`]); the square root, the
/// cosine ([`crate::math::cos_2pi_lanes_f32`]) and the product run on
/// eight `f32` lanes, one 256-bit register each. It computes no sine
/// branch: the bit-error counters read only the in-phase noise of a draw
/// (coherent OOK's real part; BPSK's I pair).
///
/// These values are **not** the exact ones: `r'` is within 1.51·2⁻²⁴
/// relative of the exact radius (two `f32` roundings and `ln_lanes`'
/// 2⁻⁵⁰), and the cosine within 2⁻²³ + π·2⁻²⁴ absolute of the exact one
/// (the kernel's bound plus `f32(u2)` moving the angle by up to
/// 2π·2⁻²⁵), so each value is within 2⁻²¹·`r'` of the cosine branch
/// [`Rng::normal_pair`] returns for the same draw. A consumer that
/// needs an exact value — the bit-error counters, when a decision falls
/// inside their rounding certificate's margin — replays that pair from
/// the uniforms it kept with [`box_muller_exact`] (DESIGN.md §11,
/// "Certified decisions").
///
/// # Panics
/// Panics if the four slices differ in length.
pub fn box_muller_certified(u1: &[f64], u2: &[f64], r: &mut [f32], z0: &mut [f32]) {
    let n = u1.len();
    assert!(
        u2.len() == n && r.len() == n && z0.len() == n,
        "certified block slices must have equal length"
    );
    let full = n - n % LANES;
    for at in (0..full).step_by(LANES) {
        let lanes = at..at + LANES;
        let (rl, zl) = certified_lanes(
            u1[lanes.clone()].try_into().expect("LANES uniforms"),
            u2[lanes.clone()].try_into().expect("LANES uniforms"),
        );
        r[lanes.clone()].copy_from_slice(&rl);
        z0[lanes].copy_from_slice(&zl);
    }
    if full < n {
        let (mut p1, mut p2) = ([1.0f64; LANES], [0.0f64; LANES]);
        p1[..n - full].copy_from_slice(&u1[full..]);
        p2[..n - full].copy_from_slice(&u2[full..]);
        let (rl, zl) = certified_lanes(&p1, &p2);
        r[full..].copy_from_slice(&rl[..n - full]);
        z0[full..].copy_from_slice(&zl[..n - full]);
    }
}

/// [`box_muller_certified`] on one lane group: `(r', r'·c')` in `f32`.
#[inline]
fn certified_lanes(u1: &[f64; LANES], u2: &[f64; LANES]) -> ([f32; LANES], [f32; LANES]) {
    use crate::math::{cos_2pi_lanes_f32, ln_lanes};
    let ln = ln_lanes(u1);
    let c = cos_2pi_lanes_f32(&u2.map(|v| v as f32));
    let mut r = [0.0f32; LANES];
    let mut z0 = [0.0f32; LANES];
    for l in 0..LANES {
        r[l] = ((-2.0 * ln[l]) as f32).sqrt();
        z0[l] = r[l] * c[l];
    }
    (r, z0)
}

/// One **exact** Box–Muller pair from its kept uniforms: `(r·cos 2πu2,
/// r·sin 2πu2)` with `r = √(−2·ln u1)` through libm `ln` — bit-identical
/// to what [`Rng::normal_pair`] returns for the draw that produced
/// `(u1, u2)` (it is that method's arithmetic).
#[inline]
pub fn box_muller_exact(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let (s, c) = crate::math::sincos_2pi(u2);
    (r * c, r * s)
}

/// xoshiro256++ by Blackman & Vigna: 256-bit state, `rotl(s0+s3,23)+s0`
/// output scrambler. The workhorse generator for every Monte-Carlo loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the full 256-bit state from one `u64` by iterating SplitMix64,
    /// the initialization the xoshiro authors specify. The state cannot end
    /// up all-zero (SplitMix64 visits each 64-bit value exactly once per
    /// period, so four consecutive outputs are never all zero).
    pub fn seed_from(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(x);
        }
        Xoshiro256pp { s }
    }

    /// The generator at raw state `s`, as the reference implementation
    /// stores it. Tests build generators at chosen states with it (the
    /// lane counter's tests plant a `u1` rejection one step-inverse walk
    /// before it is drawn).
    ///
    /// # Panics
    /// Panics on the all-zero state, the one xoshiro never leaves.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "xoshiro256 has no all-zero state");
        Xoshiro256pp { s }
    }
}

/// One xoshiro256++ step: the output of state `[s0, s1, s2, s3]` and the
/// state after it. [`Xoshiro256pp`] and every lane of [`XoshiroLanes`]
/// step through this one function.
#[inline(always)]
fn xoshiro_step([s0, s1, s2, s3]: [u64; 4]) -> (u64, [u64; 4]) {
    let out = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
    let t = s1 << 17;
    let mut s2 = s2 ^ s0;
    let mut s3 = s3 ^ s1;
    let s1 = s1 ^ s2;
    let s0 = s0 ^ s3;
    s2 ^= t;
    s3 = s3.rotate_left(45);
    (out, [s0, s1, s2, s3])
}

impl Rng for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let (out, s) = xoshiro_step(self.s);
        self.s = s;
        out
    }
}

/// [`LANES`] xoshiro256++ generators stepped in lockstep: each state word
/// is a `[u64; LANES]`, so one step is the scalar step's shifts, XORs and
/// rotates on whole vectors (the same `xoshiro_step` per lane, which the
/// compiler vectorizes across lanes), and lane `l` of every draw is
/// bit-identical to what the [`Xoshiro256pp`] it was built from would
/// draw. Consumers
/// that own independent equal-length streams (the BER sweep's chunks) run
/// them side by side without changing one of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XoshiroLanes {
    s: [[u64; LANES]; 4],
}

impl XoshiroLanes {
    /// Lane `l` starts where `gens[l]` stands.
    pub fn new(gens: &[Xoshiro256pp; LANES]) -> Self {
        XoshiroLanes {
            s: std::array::from_fn(|w| std::array::from_fn(|l| gens[l].s[w])),
        }
    }

    /// The next raw draw of every lane.
    #[inline]
    pub fn next_u64s(&mut self) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0u64; LANES];
        for l in 0..LANES {
            let next;
            (out[l], next) = xoshiro_step([s0[l], s1[l], s2[l], s3[l]]);
            [s0[l], s1[l], s2[l], s3[l]] = next;
        }
        out
    }

    /// Lane `l` as a scalar generator at its current position.
    pub fn lane(&self, l: usize) -> Xoshiro256pp {
        Xoshiro256pp {
            s: std::array::from_fn(|w| self.s[w][l]),
        }
    }

    /// Moves lane `l` to `gen`'s position; the other lanes stay put.
    fn set_lane(&mut self, l: usize, gen: &Xoshiro256pp) {
        for (w, &word) in self.s.iter_mut().zip(&gen.s) {
            w[l] = word;
        }
    }
}

/// SplitMix64 finalizer: the standard 64-bit mixing function, used both to
/// expand seeds into generator state and to derive [`SeedTree`] streams.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A root seed from which independent named streams are derived.
///
/// Reproducibility discipline for multi-entity simulations: every tag,
/// every round, every Monte-Carlo chunk gets its *own* stream derived from
/// (experiment seed, label, index). Adding a tag, reordering who samples
/// first, or splitting work across threads never perturbs anyone else's
/// randomness — the property that makes A/B comparisons noise-free and
/// parallel execution bit-identical to serial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedTree {
    root: u64,
}

impl SeedTree {
    /// A tree rooted at `seed`.
    pub const fn new(seed: u64) -> Self {
        SeedTree { root: seed }
    }

    /// The derived seed for a labeled stream.
    pub fn seed_for(&self, label: &str) -> u64 {
        let mut h = self.root ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = splitmix64(h);
        }
        splitmix64(h)
    }

    /// The derived seed for an indexed entity (e.g. tag #7, chunk #12).
    ///
    /// Stability contract: the result depends only on `(root, label,
    /// index)` — never on how many indices are in use — so growing a
    /// population or adding Monte-Carlo chunks leaves every existing
    /// stream untouched.
    pub fn seed_for_indexed(&self, label: &str, index: u64) -> u64 {
        splitmix64(self.seed_for(label) ^ splitmix64(index.wrapping_add(1)))
    }

    /// A ready-to-use generator for a labeled stream.
    pub fn rng(&self, label: &str) -> Xoshiro256pp {
        Xoshiro256pp::seed_from(self.seed_for(label))
    }

    /// A ready-to-use generator for an indexed entity.
    pub fn rng_indexed(&self, label: &str, index: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from(self.seed_for_indexed(label, index))
    }

    /// A sub-tree for a nested scope (e.g. one repetition of a sweep).
    pub fn subtree(&self, label: &str) -> SeedTree {
        SeedTree {
            root: self.seed_for(label),
        }
    }

    /// A sub-tree for an indexed scope (e.g. sweep point #3).
    pub fn subtree_indexed(&self, label: &str, index: u64) -> SeedTree {
        SeedTree {
            root: self.seed_for_indexed(label, index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs for the all-SplitMix64(1..4) state seeded from 0,
        // locked down so the stream can never silently change.
        let mut a = Xoshiro256pp::seed_from(0);
        let mut b = Xoshiro256pp::seed_from(0);
        let first: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let again: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(first, again);
        // Distinct seeds produce distinct streams.
        let mut c = Xoshiro256pp::seed_from(1);
        assert_ne!(first[0], c.next_u64());
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = Xoshiro256pp::seed_from(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = Xoshiro256pp::seed_from(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Xoshiro256pp::seed_from(17);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_000..11_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = Xoshiro256pp::seed_from(23);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        assert!((29_000..31_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Xoshiro256pp::seed_from(31);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_pair_cosine_branch_tracks_scalar_normal() {
        // The pair's first component is the scalar sampler's value at the
        // same stream position up to the sincos_2pi-vs-libm difference
        // (~a couple of ulps; see mmtag_rf::math). Both consume one
        // (u1, u2) uniform pair per call, so the two streams stay aligned
        // draw for draw — verified by the exact post-loop stream check.
        let mut a = Xoshiro256pp::seed_from(77);
        let mut b = Xoshiro256pp::seed_from(77);
        for _ in 0..1000 {
            let scalar = a.normal();
            let pair = b.normal_pair().0;
            assert!(
                (scalar - pair).abs() <= 1e-12 * scalar.abs().max(1.0),
                "{scalar} vs {pair}"
            );
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// The scalar oracle for the block pipeline: `pairs` consecutive
    /// [`Rng::normal_pair`] draws, flattened `(cos, sin)`. `fill_normal`
    /// over `n` outputs must equal the first `n` values of
    /// `normal_pairs(rng, n.div_ceil(2))` (an odd tail keeps the cosine
    /// branch).
    fn normal_pairs<R: Rng + ?Sized>(rng: &mut R, pairs: usize) -> Vec<f64> {
        (0..pairs)
            .flat_map(|_| {
                let (z0, z1) = rng.normal_pair();
                [z0, z1]
            })
            .collect()
    }

    #[test]
    fn fill_normal_matches_pair_draws_and_handles_odd_tails() {
        for n in [0usize, 1, 2, 3, 7, 64, 1001] {
            let mut a = Xoshiro256pp::seed_from(123);
            let mut b = Xoshiro256pp::seed_from(123);
            let mut out = vec![0.0f64; n];
            a.fill_normal(&mut out);
            let mut want = normal_pairs(&mut b, n.div_ceil(2));
            want.truncate(n);
            assert_eq!(
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "n={n}"
            );
            // Both consumed the same amount of stream.
            assert_eq!(a.next_u64(), b.next_u64(), "n={n}");
        }
    }

    #[test]
    fn fill_normal_moments() {
        let mut r = Xoshiro256pp::seed_from(31);
        let n = 200_000;
        let mut samples = vec![0.0f64; n];
        r.fill_normal(&mut samples);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        // The sine branch must be as Gaussian as the cosine branch: check
        // odd-index (sine) moments alone.
        let sines: Vec<f64> = samples.iter().skip(1).step_by(2).copied().collect();
        let sm = sines.iter().sum::<f64>() / sines.len() as f64;
        let sv = sines.iter().map(|x| (x - sm) * (x - sm)).sum::<f64>() / sines.len() as f64;
        assert!(
            sm.abs() < 0.02 && (sv - 1.0).abs() < 0.03,
            "sine branch {sm}/{sv}"
        );
    }

    #[test]
    fn golden_noise_stream_sampler_v2() {
        // Seeded golden for the Gaussian stream, recorded under sampler v2
        // (batch Box–Muller consuming BOTH branches per (u1, u2) draw,
        // sine/cosine from the polynomial `mmtag_rf::math::sincos_2pi`).
        // PR 3 moved the hot paths from the cosine-only libm v1 sampler to
        // v2, which reorders every noise stream; these bits pin the v2
        // layout so the next sampler change is a deliberate re-record, not
        // an accident. Even indices are the cosine branch and agree with
        // scalar `normal()` at the same stream position to a few ulps.
        let tree = SeedTree::new(0x601D);
        let mut rng = tree.rng("noise-golden");
        let mut buf = [0.0f64; 6];
        rng.fill_normal(&mut buf);
        let want = [
            0x3fe3a0d83b823fe5u64, // +0.61338435766992616
            0x3ff488d33ea4887eu64, // +1.28340458364303300
            0x3ff8d833e8d97411u64, // +1.55278387982184918
            0xbfd932d8724db045u64, // -0.39372836267898875
            0xbfb6ad0f3e45ffddu64, // -0.08857817907664818
            0x3ff6b5d0be1ebf12u64, // +1.41938852563538775
        ];
        let got: Vec<u64> = buf.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "sampler v2 noise stream changed — re-record");
        // Cross-check the cosine branch against the scalar sampler.
        let mut scalar = tree.rng("noise-golden");
        let v1 = scalar.normal();
        assert!((v1 - buf[0]).abs() <= 1e-12 * v1.abs().max(1.0));
    }

    /// Emits a canned prefix of raws, then falls through to xoshiro —
    /// the only way to deterministically land a `raw >> 11 == 0` draw on
    /// the Box–Muller rejection check.
    struct ScriptedRng {
        script: Vec<u64>,
        at: usize,
        tail: Xoshiro256pp,
    }

    impl ScriptedRng {
        fn new(script: Vec<u64>, seed: u64) -> Self {
            ScriptedRng {
                script,
                at: 0,
                tail: Xoshiro256pp::seed_from(seed),
            }
        }
    }

    impl Rng for ScriptedRng {
        fn next_u64(&mut self) -> u64 {
            if self.at < self.script.len() {
                self.at += 1;
                self.script[self.at - 1]
            } else {
                self.tail.next_u64()
            }
        }
    }

    #[test]
    fn lane_pipeline_fill_normal_is_bit_identical_to_reference() {
        // The ISSUE-6 differential ladder: zero, sub-lane, exact-lane,
        // lane+1, block-straddling, and bulk lengths. Values AND stream
        // position must match the scalar pair chain exactly.
        for n in [0usize, 1, 7, 8, 9, 127, 128, 129, 1000, 100_000] {
            let mut a = Xoshiro256pp::seed_from(0xD1FF ^ n as u64);
            let mut b = a.clone();
            let mut lanes = vec![0.0f64; n];
            a.fill_normal(&mut lanes);
            let reference = normal_pairs(&mut b, n.div_ceil(2));
            for (i, (x, y)) in lanes.iter().zip(&reference).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n} sample {i}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "n={n} stream position");
        }
    }

    /// Draws `n` pairs through the certified block — [`uniform_pairs`]
    /// then [`box_muller_certified`] — returning `(u1, u2, r, z0)`.
    #[allow(clippy::type_complexity)]
    fn certified_pairs<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<f32>, Vec<f32>) {
        let (mut u1, mut u2) = (vec![0.0f64; n], vec![0.0f64; n]);
        let (mut r, mut z0) = (vec![0.0f32; n], vec![0.0f32; n]);
        uniform_pairs(rng, &mut u1, &mut u2);
        box_muller_certified(&u1, &u2, &mut r, &mut z0);
        (u1, u2, r, z0)
    }

    #[test]
    fn certified_block_hands_back_the_exact_draws() {
        // Every kept (u1, u2) replays to the exact pair the scalar chain
        // draws at that position, bit for bit, and the stream ends where
        // n scalar draws leave it; the fast radius sits within 1.51·2⁻²⁴
        // relative of the exact one and the cosine branch within 2⁻²¹ of
        // the radius (the block's documented single-precision bounds).
        // Lengths straddle lanes and blocks.
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 130, 1000] {
            let mut a = Xoshiro256pp::seed_from(0xCE27 ^ n as u64);
            let mut b = a.clone();
            let (u1, u2, r, z0) = certified_pairs(&mut a, n);
            for i in 0..n {
                let (e0, e1) = b.normal_pair();
                let (x0, x1) = box_muller_exact(u1[i], u2[i]);
                assert_eq!(
                    (x0.to_bits(), x1.to_bits()),
                    (e0.to_bits(), e1.to_bits()),
                    "n={n} {i}"
                );
                let exact_r = (-2.0 * u1[i].ln()).sqrt();
                let (r, z0) = (f64::from(r[i]), f64::from(z0[i]));
                assert!(
                    (r - exact_r).abs() <= exact_r * 1.51 * 2f64.powi(-24),
                    "n={n} {i}"
                );
                assert!((z0 - e0).abs() <= exact_r * 2f64.powi(-21), "n={n} {i}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "n={n} stream position");
        }
    }

    #[test]
    fn certified_block_compacts_rejections_like_the_scalar_chain() {
        // u1 rejections planted at a block's start, twice in a row
        // mid-block, as a block's last u1 and past the first block: the
        // kept uniforms are exactly the pairs the scalar chain accepts.
        let ok = 0xABCD_EF01_2345_6789u64;
        let zero = 0x7FFu64; // raw >> 11 == 0
        let scripts: Vec<Vec<u64>> = vec![
            vec![zero],
            vec![ok, ok, zero, zero, ok],
            [vec![ok; 126], vec![zero]].concat(),
            [vec![ok; 128], vec![zero, ok, zero]].concat(),
        ];
        for (si, script) in scripts.iter().enumerate() {
            for n in [1usize, 9, 64, 100] {
                let mut a = ScriptedRng::new(script.clone(), 0xC0 ^ n as u64);
                let mut b = ScriptedRng::new(script.clone(), 0xC0 ^ n as u64);
                let (u1, u2, ..) = certified_pairs(&mut a, n);
                for i in 0..n {
                    let u = loop {
                        let u = b.f64();
                        if u > f64::MIN_POSITIVE {
                            break u;
                        }
                    };
                    assert_eq!(u1[i].to_bits(), u.to_bits(), "script {si} n={n} u1[{i}]");
                    assert_eq!(
                        u2[i].to_bits(),
                        b.f64().to_bits(),
                        "script {si} n={n} u2[{i}]"
                    );
                }
                assert_eq!(a.next_u64(), b.next_u64(), "script {si} n={n} stream");
            }
        }
    }

    #[test]
    fn rejection_fallback_replays_the_scalar_chain_exactly() {
        // Plant `raw >> 11 == 0` draws (the 2⁻⁵³ Box–Muller rejection) at
        // the start of a block, mid-block, and as the very last pair's u1
        // — including one script that forces TWO consecutive rejections —
        // and require the block pipeline to match the scalar chain bit for
        // bit, stream position included.
        let ok = 0xABCD_EF01_2345_6789u64; // any raw with top 53 bits set
        let zero = 0x7FFu64; // raw >> 11 == 0 but nonzero low bits
        let scripts: Vec<Vec<u64>> = vec![
            vec![zero],                                     // first pair's u1 rejected
            vec![ok, ok, zero, zero, ok],                   // double rejection mid-block
            [vec![ok; 126], vec![zero]].concat(),           // last pair of block 0
            [vec![ok; 128], vec![zero, ok, zero]].concat(), // block 1 + tail
        ];
        for (si, script) in scripts.iter().enumerate() {
            for n in [1usize, 9, 128, 200] {
                let mut a = ScriptedRng::new(script.clone(), 77);
                let mut b = ScriptedRng::new(script.clone(), 77);
                let mut lanes = vec![0.0f64; n];
                a.fill_normal(&mut lanes);
                let reference = normal_pairs(&mut b, n.div_ceil(2));
                for (i, (x, y)) in lanes.iter().zip(&reference).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "script {si} n={n} sample {i}");
                }
                assert_eq!(a.next_u64(), b.next_u64(), "script {si} n={n} stream");
            }
        }
    }

    #[test]
    fn lanes_draw_each_stream_as_its_own_generator() {
        // Raw draws, then the uniform stage over two full blocks and a
        // partial one: lane `l` must see exactly what its scalar
        // generator gives, and end where that generator ends.
        let gens: [Xoshiro256pp; LANES] =
            std::array::from_fn(|l| Xoshiro256pp::seed_from(0x1A7E ^ l as u64));
        let mut lanes = XoshiroLanes::new(&gens);
        let mut scalar = gens.clone();
        for _ in 0..100 {
            let draw = lanes.next_u64s();
            for (l, g) in scalar.iter_mut().enumerate() {
                assert_eq!(draw[l], g.next_u64(), "lane {l}");
            }
        }
        let steps = 2 * BM_BLOCK + 11;
        let (mut u1, mut u2) = (vec![[0.0; LANES]; steps], vec![[0.0; LANES]; steps]);
        uniform_pairs_lanes(&mut lanes, &mut u1, &mut u2);
        for (l, g) in scalar.iter_mut().enumerate() {
            let (mut w1, mut w2) = (vec![0.0; steps], vec![0.0; steps]);
            uniform_pairs(g, &mut w1, &mut w2);
            for k in 0..steps {
                assert_eq!(u1[k][l].to_bits(), w1[k].to_bits(), "lane {l} u1[{k}]");
                assert_eq!(u2[k][l].to_bits(), w2[k].to_bits(), "lane {l} u2[{k}]");
            }
            assert_eq!(lanes.lane(l), *g, "lane {l} end position");
        }
    }

    #[test]
    fn skip_box_muller_lands_where_every_gaussian_sampler_does() {
        // Scripted prefixes force the u1 rejection — first draw, twice in
        // a row mid-stream, and past the first 64-pair block — ahead of
        // the xoshiro tail.
        let ok = 0xABCD_EF01_2345_6789u64;
        let zero = 0x7FFu64; // raw >> 11 == 0
        let scripts: Vec<Vec<u64>> = vec![
            vec![],
            vec![zero],
            vec![ok, ok, zero, zero, ok],
            [vec![ok; 128], vec![zero]].concat(),
        ];
        for (si, script) in scripts.iter().enumerate() {
            for n in [0usize, 1, 7, 9, 64, 65, 200] {
                let fresh = || ScriptedRng::new(script.clone(), 0xB0 ^ n as u64);
                let mut skipped = fresh();
                skipped.skip_box_muller(n as u64);
                let want = skipped.next_u64();
                let mut r = fresh();
                for _ in 0..n {
                    r.normal();
                }
                assert_eq!(r.next_u64(), want, "script {si} n={n} normal");
                let mut r = fresh();
                for _ in 0..n {
                    r.normal_pair();
                }
                assert_eq!(r.next_u64(), want, "script {si} n={n} normal_pair");
                let mut r = fresh();
                let (mut u1, mut u2) = (vec![0.0; n], vec![0.0; n]);
                uniform_pairs(&mut r, &mut u1, &mut u2);
                assert_eq!(r.next_u64(), want, "script {si} n={n} uniform_pairs");
                let mut r = fresh();
                r.fill_normal(&mut vec![0.0; 2 * n]);
                assert_eq!(r.next_u64(), want, "script {si} n={n} fill_normal");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn soa_halves_must_match_in_length() {
        let mut rng = Xoshiro256pp::seed_from(1);
        let mut u1 = vec![0.0f64; 4];
        let mut u2 = vec![0.0f64; 5];
        uniform_pairs(&mut rng, &mut u1, &mut u2);
    }

    #[test]
    fn fill_bits_matches_scalar_draws() {
        let mut a = Xoshiro256pp::seed_from(55);
        let mut b = Xoshiro256pp::seed_from(55);
        let mut bits = vec![false; 129];
        a.fill_bits(&mut bits);
        for bit in &bits {
            assert_eq!(*bit, b.bit());
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bit_is_fair() {
        let mut r = Xoshiro256pp::seed_from(41);
        let ones = (0..100_000).filter(|_| r.bit()).count();
        assert!((49_000..51_000).contains(&ones), "ones {ones}");
    }

    #[test]
    fn log_range_covers_decades() {
        let mut r = Xoshiro256pp::seed_from(43);
        let low = (0..10_000)
            .filter(|_| r.log_range(1e-6, 1.0) < 1e-3)
            .count();
        // Half the decades sit below 1e-3, so about half the mass does too.
        assert!((4_500..5_500).contains(&low), "low {low}");
    }

    #[test]
    fn trait_is_object_and_reborrow_safe() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.f64()
        }
        let mut r = Xoshiro256pp::seed_from(5);
        let via_reborrow = draw(&mut r);
        let dynamic: &mut dyn Rng = &mut r;
        let via_dyn = draw(dynamic);
        assert_ne!(via_reborrow, via_dyn); // stream advanced, not reset
    }

    #[test]
    fn seed_tree_streams_are_deterministic() {
        let t = SeedTree::new(42);
        assert_eq!(t.seed_for("tags"), SeedTree::new(42).seed_for("tags"));
        let a = t.rng("x").f64();
        let b = t.rng("x").f64();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_tree_labels_and_roots_differ() {
        let t = SeedTree::new(7);
        assert_ne!(t.seed_for("alpha"), t.seed_for("beta"));
        assert_ne!(t.seed_for("a"), t.seed_for("aa"));
        assert_ne!(t.seed_for(""), t.seed_for("x"));
        assert_ne!(
            SeedTree::new(1).seed_for("same"),
            SeedTree::new(2).seed_for("same")
        );
    }

    #[test]
    fn indexed_streams_are_stable_under_growth() {
        // The parallel-determinism keystone: chunk #3's stream is identical
        // whether the run has 4 chunks or 4000.
        let t = SeedTree::new(5);
        let before: Vec<u64> = (0..4).map(|i| t.seed_for_indexed("chunk", i)).collect();
        let after: Vec<u64> = (0..4000).map(|i| t.seed_for_indexed("chunk", i)).collect();
        assert_eq!(&before[..], &after[..4]);
        assert_ne!(before[0], t.seed_for("chunk"));
    }

    #[test]
    fn subtrees_namespace_cleanly() {
        let t = SeedTree::new(11);
        assert_ne!(
            t.subtree("rep0").seed_for("tags"),
            t.subtree("rep1").seed_for("tags")
        );
        assert_eq!(
            t.subtree("rep0").seed_for("tags"),
            t.subtree("rep0").seed_for("tags")
        );
        assert_ne!(
            t.subtree_indexed("snr", 0).seed_for("chunk"),
            t.subtree_indexed("snr", 1).seed_for("chunk")
        );
    }

    #[test]
    fn derived_seeds_look_uniform() {
        let t = SeedTree::new(2024);
        let ones: u32 = (0..10_000u64)
            .map(|i| (t.seed_for_indexed("u", i) >> 63) as u32)
            .sum();
        assert!((4500..5500).contains(&ones), "high-bit count {ones}");
    }
}
