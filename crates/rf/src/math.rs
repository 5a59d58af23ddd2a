//! In-house elementary math kernels for the batch samplers.
//!
//! The Monte-Carlo hot loops burn one sine+cosine pair per complex noise
//! sample. libm's `sin_cos` pays for argument reduction over the whole
//! real line and sub-ulp accuracy — neither of which a simulation sampler
//! needs, since its arguments are always `2π·u` with `u ∈ [0, 1)` and the
//! samples feed statistics, not math identities. [`sincos_2pi`] exploits
//! the bounded argument: an exact quadrant reduction (multiplying by 4 is
//! exact, so is the subtraction that follows) and short minimax
//! polynomials on `[-π/4, π/4]`, for roughly a third of the latency at
//! ~1 ulp of error.
//!
//! [`ln_lanes`] is the other half of a Box–Muller pair: an fdlibm-style
//! natural log over [`LANES`] arguments, in plain `*`/`+`/`/` so it
//! vectorizes. It is *not* bit-identical to libm `ln` (it stays within
//! 2⁻⁵⁰ relative of it), so nothing that must reproduce a libm value
//! consumes it directly: the bit-error counters use it only to decide
//! which side of a threshold a statistic falls on, under a rounding
//! certificate that replays the exact libm chain whenever the margin is
//! too thin to be sure (DESIGN.md §11, "Certified decisions").

use std::f64::consts::FRAC_PI_2;

/// Lane width of the fixed-width SIMD-shaped kernels (8 × f64 = one
/// AVX-512 register, two AVX2 registers). Every SoA hot loop in the stack
/// — the Box–Muller pipeline, the BER/outage counters — processes this
/// many independent elements per pass so the compiler can autovectorize
/// without any explicit intrinsics (the `rf` crate stays `deny(unsafe)`).
pub const LANES: usize = 8;

/// Degree-13 odd minimax polynomial for `sin(x)` on `[-π/4, π/4]`
/// (Cephes `sincof` coefficients, highest order first), evaluated as
/// `x + x·z·P(z)` with `z = x²`.
const SIN_COEF: [f64; 6] = [
    1.589_623_015_765_465_6e-10,
    -2.505_074_776_285_780_7e-8,
    2.755_731_362_138_572_2e-6,
    -1.984_126_982_958_954e-4,
    8.333_333_333_322_118e-3,
    -1.666_666_666_666_663e-1,
];

/// Degree-14 even minimax polynomial for `cos(x)` on `[-π/4, π/4]`
/// (Cephes `coscof`), evaluated as `1 − z/2 + z²·P(z)` with `z = x²`.
const COS_COEF: [f64; 6] = [
    -1.135_853_652_138_768_2e-11,
    2.087_570_084_197_473e-9,
    -2.755_731_417_929_674e-7,
    2.480_158_728_885_171_7e-5,
    -1.388_888_888_887_305_6e-3,
    4.166_666_666_666_659_5e-2,
];

#[inline]
fn poly(z: f64, coef: &[f64; 6]) -> f64 {
    let mut p = coef[0];
    for &c in &coef[1..] {
        p = p * z + c;
    }
    p
}

/// `(sin(2πu), cos(2πu))` for `u ∈ [0, 1)`, accurate to ~1 ulp.
///
/// The turn-based argument makes the range reduction *exact*: `4u` and
/// `4u − round(4u)` round to nothing, so unlike radian reduction there is
/// no cancellation near quadrant boundaries. Out-of-range `u` still
/// produces the periodic extension (the reduction is modular), just with
/// precision decaying as `|u|` grows; the samplers never leave `[0, 1)`.
///
/// This is the transcendental core of the **sampler v2** batch Gaussian
/// fills (`Rng::normal_pair` and everything built on it): both Box–Muller
/// branches for less than the cost libm charges for one.
#[inline]
pub fn sincos_2pi(u: f64) -> (f64, f64) {
    // u = (k + f)/4 with k integral and f ≈∈ [-1/2, 1/2]; the subtraction
    // is exact (k is an integer of comparable magnitude), and `floor` is a
    // single instruction where `round`'s ties-away semantics are not. The
    // `+ 0.5` can itself round, pushing |f| a hair past 1/2 — harmless,
    // the polynomials extrapolate by ~1 ulp of argument there.
    let scaled = 4.0 * u;
    let k = (scaled + 0.5).floor();
    let f = scaled - k;
    // 2πu = k·π/2 + x with x = f·π/2 ∈ [-π/4, π/4].
    let x = f * FRAC_PI_2;
    let z = x * x;
    let s = x + x * z * poly(z, &SIN_COEF);
    let c = 1.0 - 0.5 * z + z * z * poly(z, &COS_COEF);
    // Rotate by k quadrants — (s, c) → (c, −s) per step — with bit tricks
    // instead of a 4-way match: the quadrant of a random sample is random,
    // so a branch here would mispredict ~75% of the time and cost more
    // than the polynomials themselves.
    let q = k as i64 as u64;
    // Odd quadrants swap the pair …
    let swap = (q & 1).wrapping_neg();
    let (sb, cb) = (s.to_bits(), c.to_bits());
    let sm = f64::from_bits((sb & !swap) | (cb & swap));
    let cm = f64::from_bits((cb & !swap) | (sb & swap));
    // … and quadrants 2,3 negate the sine, 1,2 the cosine.
    let s_out = f64::from_bits(sm.to_bits() ^ ((q & 2) << 62));
    let c_out = f64::from_bits(cm.to_bits() ^ ((q.wrapping_add(1) & 2) << 62));
    (s_out, c_out)
}

/// `2⁵² + 2⁵¹`: adding this to an integer-valued `f64` with magnitude
/// below `2⁵¹` is exact and lands the sum in `[2⁵², 2⁵³)`, where the ulp
/// is 1 — so the addend's two's-complement integer bits appear directly
/// in the low mantissa bits. The lane kernels use this to read a
/// quadrant index without an `f64 → i64` cast (and, run backwards, to
/// turn [`ln_lanes`]'s binade index into an `f64`), because Rust's saturating
/// cast lowers to `fptosi.sat`, which LLVM's loop vectorizer refuses —
/// one scalar cast per lane was the single instruction keeping the whole
/// sin/cos pipeline out of vector registers.
const QUADRANT_MAGIC: f64 = 6_755_399_441_055_744.0;

/// [`sincos_2pi`] over [`LANES`] independent arguments at once: lane `l`
/// of the outputs is **bit-identical** to `sincos_2pi(u[l])`.
///
/// The scalar kernel is already branch-free (the quadrant rotation is a
/// bit-select, not a match), so evaluating it across a fixed-width array
/// is a pure data-parallel loop the compiler turns into vector code: the
/// polynomial Horner chains run [`LANES`] lanes per instruction instead
/// of one. Every floating-point operation that *produces* an output runs
/// in the scalar kernel's exact sequence — no FMA contraction, no
/// reassociation — so the results carry the same rounding bit for bit,
/// which is what lets the batch Gaussian pipeline
/// ([`crate::rng::Rng::fill_normal`]) keep the seeded golden streams
/// unchanged while vectorizing.
///
/// The one deviation is how the integer quadrant index `q` is read out
/// of `k`: a magic-constant add (`QUADRANT_MAGIC`, 2⁵²+2⁵¹) instead of
/// the scalar path's `as i64`
/// cast. The rotation consumes only `q & 1`, `q & 2` and `(q + 1) & 2`,
/// and both extractions yield `k`'s exact low two bits for every `|k| <
/// 2⁵¹` (the samplers stay below `|k| ≤ 5`), so the selected/negated
/// outputs are identical — pinned lane-by-lane by this module's tests.
#[inline]
pub fn sincos_2pi_lanes(u: &[f64; LANES]) -> ([f64; LANES], [f64; LANES]) {
    let mut s = [0.0f64; LANES];
    let mut c = [0.0f64; LANES];
    for l in 0..LANES {
        let scaled = 4.0 * u[l];
        let k = (scaled + 0.5).floor();
        let f = scaled - k;
        let x = f * FRAC_PI_2;
        let z = x * x;
        let sv = x + x * z * poly(z, &SIN_COEF);
        let cv = 1.0 - 0.5 * z + z * z * poly(z, &COS_COEF);
        let q = (k + QUADRANT_MAGIC).to_bits();
        let swap = (q & 1).wrapping_neg();
        let (sb, cb) = (sv.to_bits(), cv.to_bits());
        let sm = f64::from_bits((sb & !swap) | (cb & swap));
        let cm = f64::from_bits((cb & !swap) | (sb & swap));
        s[l] = f64::from_bits(sm.to_bits() ^ ((q & 2) << 62));
        c[l] = f64::from_bits(cm.to_bits() ^ ((q.wrapping_add(1) & 2) << 62));
    }
    (s, c)
}

/// `ln 2` split in two: [`LN2_HI`] carries only its top 32 significant
/// bits, so `k·LN2_HI` is exact for every binade index `k` a normal `f64`
/// can have, and [`LN2_LO`] is the remainder (fdlibm `ln2_hi`/`ln2_lo`).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// fdlibm's `Lg1`–`Lg7`: the minimax polynomial in `z = s²` for
/// `(ln((1+s)/(1−s)) − 2s)/s` on `|s| ≤ 3 − 2√2 ≈ 0.1716`.
const LG: [f64; 7] = [
    6.666_666_666_666_735e-1,
    3.999_999_999_940_942e-1,
    2.857_142_874_366_239e-1,
    2.222_219_843_214_978_4e-1,
    1.818_357_216_161_805e-1,
    1.531_383_769_920_937_3e-1,
    1.479_819_860_511_658_6e-1,
];

/// Bit pattern of `√½` (`0x3fe6a09e667f3bcd`): [`ln_lanes`] splits every
/// binade here so its mantissa lands in `[√½, √2)`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;

/// Natural log of [`LANES`] positive normal arguments at once — within
/// **2⁻⁵⁰ relative** of libm's `ln` on the uniform ladder `u = j·2⁻⁵³`,
/// `1 ≤ j < 2⁵³` (fdlibm's own bound is under one ulp; the tests measure
/// at most a couple of ulps against libm over every binade of the ladder).
///
/// The fdlibm `log` algorithm, branch-free so it is one data-parallel
/// loop:
///
/// 1. write `x = 2ᵏ·m` with `m ∈ [√½, √2)`: subtracting `√½`'s bit
///    pattern leaves `k` in the exponent field (an arithmetic shift reads
///    it, negative `k` included), and subtracting `k` from `x`'s exponent
///    field gives `m`; `k` becomes an `f64` through the same magic-number
///    add the sin/cos lanes use, never an `as` cast;
/// 2. `f = m − 1` (exact) and `s = f/(2+f)`, so `ln m = ln((1+s)/(1−s))
///    = 2s + s·R(s²)` with `R` fdlibm's `Lg1`–`Lg7` polynomial;
/// 3. recombine as `k·ln2_hi − ((f²/2 − (s·(f²/2 + R) + k·ln2_lo)) − f)`.
///
/// Only plain `*`, `+`, `−` and `/` — no `mul_add`, which without a
/// hardware FMA target lowers to a libm call and would make a lane's
/// rounding depend on the CPU. Rust never contracts `a*b + c`, so every
/// lane rounds identically on every target.
///
/// Zero, negative, subnormal and non-finite inputs are outside the domain
/// and return unspecified finite or non-finite values (never a panic).
#[inline]
pub fn ln_lanes(x: &[f64; LANES]) -> [f64; LANES] {
    let [lg1, lg2, lg3, lg4, lg5, lg6, lg7] = LG;
    let mut out = [0.0f64; LANES];
    for l in 0..LANES {
        let bits = x[l].to_bits();
        let k = (bits.wrapping_sub(SQRT_HALF_BITS) as i64) >> 52;
        let m = f64::from_bits(bits.wrapping_sub((k as u64) << 52));
        let dk = f64::from_bits(QUADRANT_MAGIC.to_bits().wrapping_add(k as u64)) - QUADRANT_MAGIC;
        let f = m - 1.0;
        let s = f / (2.0 + f);
        let z = s * s;
        let w = z * z;
        let t1 = w * (lg2 + w * (lg4 + w * lg6));
        let t2 = z * (lg1 + w * (lg3 + w * (lg5 + w * lg7)));
        let r = t2 + t1;
        let hfsq = 0.5 * f * f;
        out[l] = dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::f64::consts::TAU;

    #[test]
    fn matches_libm_over_the_unit_turn() {
        // Dense grid plus the quadrant boundaries themselves. libm's own
        // computation of sin(TAU*u) carries the rounding of TAU*u (~1e-16
        // relative on the argument), so agreement beyond ~4e-16·2π is not
        // even well-defined; 1e-14 absolute is the honest bound.
        for i in 0..=40_000u32 {
            let u = f64::from(i) / 40_000.0 * (1.0 - f64::EPSILON);
            let (s, c) = sincos_2pi(u);
            let a = TAU * u;
            assert!(
                (s - a.sin()).abs() < 1e-14,
                "sin(2π·{u}) = {s} vs {}",
                a.sin()
            );
            assert!(
                (c - a.cos()).abs() < 1e-14,
                "cos(2π·{u}) = {c} vs {}",
                a.cos()
            );
        }
    }

    #[test]
    fn exact_quadrant_points() {
        // The reduction is exact, so the cardinal points are exact too.
        assert_eq!(sincos_2pi(0.0), (0.0, 1.0));
        let (s, c) = sincos_2pi(0.25);
        assert_eq!((s, c.abs()), (1.0, 0.0));
        let (s, c) = sincos_2pi(0.5);
        assert_eq!((s.abs(), c), (0.0, -1.0));
        let (s, c) = sincos_2pi(0.75);
        assert_eq!((s, c.abs()), (-1.0, 0.0));
    }

    #[test]
    fn lanes_kernel_is_bit_identical_to_scalar() {
        // Dense grid spanning all quadrants — including negative and
        // multi-turn arguments, so the magic-number quadrant extraction
        // is pinned against the scalar `as i64` path for negative k too —
        // plus the exact quadrant boundaries.
        for base in -5_000i32..5_000 {
            let mut u = [0.0f64; LANES];
            for (l, slot) in u.iter_mut().enumerate() {
                *slot = (f64::from(base) * LANES as f64 + l as f64) / 4_000.0;
            }
            let (s, c) = sincos_2pi_lanes(&u);
            for l in 0..LANES {
                let (ss, cs) = sincos_2pi(u[l]);
                assert_eq!(s[l].to_bits(), ss.to_bits(), "sin lane {l} at u={}", u[l]);
                assert_eq!(c[l].to_bits(), cs.to_bits(), "cos lane {l} at u={}", u[l]);
            }
        }
        let boundaries = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875];
        let (s, c) = sincos_2pi_lanes(&boundaries);
        for l in 0..LANES {
            let (ss, cs) = sincos_2pi(boundaries[l]);
            assert_eq!(
                (s[l].to_bits(), c[l].to_bits()),
                (ss.to_bits(), cs.to_bits())
            );
        }
    }

    /// The documented bound of [`ln_lanes`] against libm `ln`.
    const LN_REL_BOUND: f64 = 1.0 / (1u64 << 50) as f64;

    /// Runs `xs` through [`ln_lanes`], [`LANES`] at a time, and returns
    /// the largest `|ln_lanes(x) − ln(x)| / |ln(x)|` with its argument.
    fn worst_ln_gap(xs: &[f64]) -> (f64, f64) {
        let mut worst = (0.0f64, 1.0f64);
        for chunk in xs.chunks(LANES) {
            let mut lanes = [0.5f64; LANES];
            lanes[..chunk.len()].copy_from_slice(chunk);
            let fast = ln_lanes(&lanes);
            for (&x, &got) in chunk.iter().zip(&fast) {
                let want = x.ln();
                let gap = (got - want).abs() / want.abs();
                if gap > worst.0 {
                    worst = (gap, x);
                }
            }
        }
        worst
    }

    /// The ladder value `j·2⁻⁵³` the samplers produce from raw `j << 11`.
    fn ladder(j: u64) -> f64 {
        j as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[test]
    fn ln_lanes_tracks_libm_over_every_ladder_binade() {
        // Every binade [2^e, 2^(e+1)) of the 2⁻⁵³ ladder from e = −53 up
        // to [½, 1): all its ladder points where there are at most 28 000,
        // else its first and last 64 plus pseudo-random points in between.
        // Then, per binade, the √½·2^(e+1) split point of the mantissa
        // normalization with its 32 f64 neighbours either side and its 32
        // nearest ladder points either side, and the ladder's two ends.
        let per_binade = 28_000u64;
        let mut rng = crate::rng::Xoshiro256pp::seed_from(0x1A);
        let mut xs = Vec::new();
        for e in 0..53u32 {
            let (lo, width) = (1u64 << e, 1u64 << e); // j ∈ [2^e, 2^(e+1))
            if width <= per_binade {
                xs.extend((lo..lo + width).map(ladder));
            } else {
                xs.extend((lo..lo + 64).map(ladder));
                xs.extend((lo + width - 64..lo + width).map(ladder));
                xs.extend((0..per_binade).map(|_| ladder(lo + rng.below(width))));
            }
            let split = std::f64::consts::FRAC_1_SQRT_2 * 2f64.powi(e as i32 + 1 - 53);
            let bits = split.to_bits();
            xs.extend((bits - 32..=bits + 32).map(f64::from_bits));
            let j = (split * (1u64 << 53) as f64) as u64;
            xs.extend((j.saturating_sub(32).max(1)..=j + 32).map(ladder));
        }
        xs.push(ladder(1));
        xs.push(ladder((1u64 << 53) - 1)); // 1 − 2⁻⁵³
        assert!(xs.len() >= 1 << 20, "only {} inputs", xs.len());
        let (gap, at) = worst_ln_gap(&xs);
        assert!(
            gap <= LN_REL_BOUND,
            "ln_lanes off libm by 2^{:.2} relative at x = {at:e}",
            gap.log2()
        );
    }

    #[test]
    #[ignore = "2^28 libm calls; run in release: cargo test --release -p mmtag-rf --lib -- --ignored"]
    fn ln_lanes_tracks_libm_over_2_pow_28_ladder_draws() {
        // Three in four draws are the sampler's own uniforms; every fourth
        // is shifted down a pseudo-random 0–52 binades, so the tiny-u tail
        // that uniform draws almost never reach is swept as densely.
        let mut rng = crate::rng::Xoshiro256pp::seed_from(0x1A28);
        let mut xs = vec![0.0f64; 1 << 16];
        let mut worst = (0.0f64, 1.0f64);
        for _ in 0..(1 << 12) {
            for (i, x) in xs.iter_mut().enumerate() {
                let raw = rng.next_u64();
                let shift = if i % 4 == 3 { (raw & 63) % 53 } else { 0 };
                *x = ladder(((raw >> 11) >> shift).max(1));
            }
            let w = worst_ln_gap(&xs);
            if w.0 > worst.0 {
                worst = w;
            }
        }
        assert!(
            worst.0 <= LN_REL_BOUND,
            "ln_lanes off libm by 2^{:.2} relative at x = {:e}",
            worst.0.log2(),
            worst.1
        );
    }

    #[test]
    fn pythagoras_holds_to_roundoff() {
        for i in 0..10_000u32 {
            let u = f64::from(i) / 10_000.0;
            let (s, c) = sincos_2pi(u);
            assert!((s * s + c * c - 1.0).abs() < 4e-16, "at u = {u}");
        }
    }
}
