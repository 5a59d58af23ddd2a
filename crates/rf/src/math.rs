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
//! [`cos_2pi_lanes_f32`] is the same certificate's cosine: the turn-based
//! kernel in `f32`, eight lanes per 256-bit register, within 2⁻²³
//! absolute of `cos 2πu`.
//!
//! [`exp_lanes`] is the opposite case: a lane port of the main path of
//! glibc's FMA `exp` (from ARM's optimized-routines), bit-identical to
//! `f64::exp` on the reference host, so the rate-region mutual-information
//! estimator runs [`LANES`] terms per pass and every sum it feeds keeps
//! its bits. [`exp_lanes_f32`] and [`log2_lanes_f32`] are that
//! estimator's single-precision twins, eight lanes per 256-bit register:
//! within 2⁻²³ and 2⁻²² relative of `e^x` and `log₂ x`, they feed only a
//! fast pass whose certificate sends every row it cannot rule out to the
//! exact estimator (DESIGN.md §14.5).
//!
//! **Fused multiply-add.** The kernels use plain `*` and `+` by default
//! (Rust never contracts `a*b + c` on its own) and call `mul_add` only
//! where a kernel must reproduce a fused reference, as [`exp_lanes`] does,
//! or, in [`exp_lanes_f32`], whose bound is measured over every argument
//! rather than pinned to a reference, where it saves instructions in the
//! estimator's innermost loop. `mul_add` rounds once on every target —
//! where the CPU has no FMA unit it calls the correctly rounded software
//! `fma` — so it fixes the result and only its speed depends on the CPU;
//! `.cargo/config.toml`'s `target-cpu=native` makes each one a single
//! `vfmadd` on an FMA-capable x86-64 host.

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

/// Degree-7 odd minimax polynomial for `sin(x)` on `[-π/4, π/4]` in
/// single precision (Cephes `sinf`), evaluated as `x + x·z·P(z)`.
const SIN_COEF_F32: [f32; 3] = [-0.000_195_152_96, 0.008_332_161, -0.166_666_55];

/// Degree-8 even minimax polynomial for `cos(x)` on `[-π/4, π/4]` in
/// single precision (Cephes `cosf`), evaluated as `1 − z/2 + z²·P(z)`.
const COS_COEF_F32: [f32; 3] = [2.443_315_7e-5, -0.001_388_731_6, 0.041_666_646];

/// `2²³ + 2²²`: [`QUADRANT_MAGIC`] for `f32`, exact for `|k| < 2²²`.
const QUADRANT_MAGIC_F32: f32 = 12_582_912.0;

/// `cos(2πu)` for [`LANES`] single-precision arguments `u ∈ [0, 1]` —
/// the certified Box–Muller block's cosine ([`crate::rng::box_muller_certified`]),
/// within **2⁻²³ absolute** of the true `cos(2πu)`, and never above 1 in
/// magnitude (measured 2⁻²³·¹⁵ over every `f32` in `[0, 1]` by this
/// module's tests).
///
/// [`sincos_2pi_lanes`]' turn-based reduction and bit-select quadrant
/// rotation in `f32`, with Cephes' single-precision polynomials: `4u` is
/// exact, and so is `f = 4u − k` (Sterbenz), so the only rounding before
/// the polynomials is `x = f·π/2`. Eight lanes fill one 256-bit register
/// where the `f64` kernel fills two. Nothing needs it bit-identical to a
/// reference: the bit-error counters decide with it only under a
/// certificate that replays the exact chain near the threshold
/// (DESIGN.md §11). E15's outage counter and the exact block keep the
/// `f64` kernel.
#[inline]
pub fn cos_2pi_lanes_f32(u: &[f32; LANES]) -> [f32; LANES] {
    let [s0, s1, s2] = SIN_COEF_F32;
    let [c0, c1, c2] = COS_COEF_F32;
    let mut c = [0.0f32; LANES];
    for l in 0..LANES {
        let scaled = 4.0 * u[l];
        let k = (scaled + 0.5).floor();
        let f = scaled - k;
        let x = f * std::f32::consts::FRAC_PI_2;
        let z = x * x;
        let sv = x + x * z * ((s0 * z + s1) * z + s2);
        let cv = 1.0 - 0.5 * z + z * z * ((c0 * z + c1) * z + c2);
        // cos(kπ/2 + x): quadrants 1 and 3 take the sine, 1 and 2 negate.
        let q = (k + QUADRANT_MAGIC_F32).to_bits();
        let swap = (q & 1).wrapping_neg();
        let cm = (cv.to_bits() & !swap) | (sv.to_bits() & swap);
        c[l] = f32::from_bits(cm ^ ((q.wrapping_add(1) & 2) << 30));
    }
    c
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
/// Only plain `*`, `+`, `−` and `/`, in fdlibm's unfused order: there is
/// no fused reference to reproduce here, so the module's default holds
/// (no `mul_add`). Rust never contracts `a*b + c`, so every lane rounds
/// identically on every target.
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

/// `N/ln 2` with `N = 128` table entries per octave: glibc's `InvLn2N`.
const EXP_INV_LN2_N: u64 = 0x4067_1547_652b_82fe;
/// `−ln 2/N` split in two: the high part has its low 17 bits clear, so
/// `kd·hi` is exact for every `|kd| < 2¹⁷` (glibc's `NegLn2hiN`,
/// `NegLn2loN`).
const EXP_NEG_LN2_HI_N: u64 = 0xbf76_2e42_fefa_0000;
const EXP_NEG_LN2_LO_N: u64 = 0xbd0c_f79a_bc9e_3b3a;
/// `1.5·2⁵²`: adding it rounds `x·N/ln 2` to an integer `k` whose low bits
/// sit in the sum's mantissa (glibc's `Shift`).
const EXP_SHIFT: u64 = 0x4338_0000_0000_0000;
/// glibc's `C2`–`C5`: the polynomial for `exp(r) − 1 − r` on
/// `|r| ≤ ln 2/256`.
const EXP_C2: u64 = 0x3fdf_ffff_ffff_fdbd;
const EXP_C3: u64 = 0x3fc5_5555_5555_543c;
const EXP_C4: u64 = 0x3fa5_5555_cf17_2b91;
const EXP_C5: u64 = 0x3f81_1111_67a4_d017;
/// Biased exponent below which `|x| < 2⁻⁵⁴`, where glibc returns
/// `1.0 + x`.
const EXP_TINY_TOP: u64 = 0x3c9;
/// Biased exponent from which `|x| ≥ 512` (or `x` is not finite), where
/// glibc leaves the main path: overflow, underflow, subnormal results.
const EXP_BIG_TOP: u64 = 0x408;

/// `2^(j/128)` for `j = 0‥127` as glibc's `__exp_data.tab` stores it:
/// word `2j` holds the tail (the bits of `2^(j/128)` below the double
/// `scale`, divided by it), word `2j + 1` the bits of `scale` minus
/// `j << 45`, so adding `k << 45` to it rebuilds `2^(k/128)`'s exponent.
///
/// The words are copied from glibc 2.36's `libm.so.6`, which takes them
/// from ARM's optimized-routines (`exp_data.c`, Copyright (c) 2018, Arm
/// Limited; MIT OR Apache-2.0 WITH LLVM-exception). Do not regenerate
/// them: a double-double recomputation reproduces every scale but only 23
/// of the 128 tails bit for bit.
#[rustfmt::skip]
const EXP_TABLE: [u64; 256] = [
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

/// `e^x` for [`LANES`] arguments at once — every lane **bit-identical**
/// to `f64::exp` on the reference host, whose libm is glibc 2.36's FMA
/// variant of `exp` (ARM's optimized-routines algorithm).
///
/// The lane port of that libm's main path, with its constants, its
/// 128-entry `(tail, scale)` table and its operation order:
///
/// 1. `k = round(x·128/ln 2)` by the `Shift` add, read from the sum's bits
///    as glibc does (an `as` cast would keep the loop out of vector code;
///    DESIGN.md §11), and `r = x − k·ln 2/128` in two fused steps;
/// 2. `scale = 2^(k/128)` from table entry `k mod 128` with `k div 128`
///    added to its exponent, and its `tail`;
/// 3. `tmp = tail + r + r²·(C2 + r·C3) + r⁴·(C4 + r·C5)` and
///    `e^x = scale + scale·tmp`.
///
/// `f64::mul_add` sits at exactly the eight points where glibc's build
/// fuses: the `Shift` add, both reduction steps, the two inner polynomial
/// terms, the two outer ones and the final `scale + scale·tmp`. `r²`,
/// `r⁴` and `tail + r` stay plain. A fused step rounds once on every
/// target (module doc), so each lane rounds exactly where that libm does.
///
/// For `|x| < 2⁻⁵⁴` a lane returns `1.0 + x`, as glibc does. Lanes with
/// `|x| ≥ 512` or a non-finite `x` (overflow, underflow, subnormal
/// results) leave glibc's main path; they are replayed through `f64::exp`
/// behind one branch per call, which the rate-region estimator's
/// arguments rarely take.
///
/// The three loops are one computation split where the table is read:
/// so split, the compiler vectorizes the arithmetic around the table
/// gathers, where one fused loop stays scalar. It relies on being
/// inlined into its caller's loop: out of line, its lane arrays pass
/// through memory and the MI estimator's loop runs at about half speed.
#[inline]
pub fn exp_lanes(x: &[f64; LANES]) -> [f64; LANES] {
    let inv_ln2_n = f64::from_bits(EXP_INV_LN2_N);
    let neg_ln2_hi_n = f64::from_bits(EXP_NEG_LN2_HI_N);
    let neg_ln2_lo_n = f64::from_bits(EXP_NEG_LN2_LO_N);
    let shift = f64::from_bits(EXP_SHIFT);
    let [c2, c3, c4, c5] = [EXP_C2, EXP_C3, EXP_C4, EXP_C5].map(f64::from_bits);
    let top = |x: f64| (x.to_bits() >> 52) & 0x7ff;
    let mut ki = [0u64; LANES];
    let mut r = [0.0f64; LANES];
    let mut replay = false;
    for l in 0..LANES {
        replay |= top(x[l]) >= EXP_BIG_TOP;
        let z = x[l].mul_add(inv_ln2_n, shift);
        ki[l] = z.to_bits();
        let kd = z - shift;
        r[l] = kd.mul_add(neg_ln2_lo_n, kd.mul_add(neg_ln2_hi_n, x[l]));
    }
    let mut tail = [0.0f64; LANES];
    let mut scale_bits = [0u64; LANES];
    for l in 0..LANES {
        let i = 2 * (ki[l] & 127) as usize;
        tail[l] = f64::from_bits(EXP_TABLE[i]);
        scale_bits[l] = EXP_TABLE[i + 1].wrapping_add(ki[l] << 45);
    }
    let mut out = [0.0f64; LANES];
    for l in 0..LANES {
        let (r, scale) = (r[l], f64::from_bits(scale_bits[l]));
        let r2 = r * r;
        let tmp = (r2 * r2).mul_add(
            r.mul_add(c5, c4),
            r.mul_add(c3, c2).mul_add(r2, tail[l] + r),
        );
        let y = scale.mul_add(tmp, scale);
        out[l] = if top(x[l]) < EXP_TINY_TOP {
            1.0 + x[l]
        } else {
            y
        };
    }
    if replay {
        for (slot, &xl) in out.iter_mut().zip(x) {
            if top(xl) >= EXP_BIG_TOP {
                *slot = xl.exp();
            }
        }
    }
    out
}

/// Lower end of [`exp_lanes_f32`]'s domain: `e^−87` is still a normal
/// `f32`, so no lane result is subnormal.
pub const EXP_F32_LO: f32 = -87.0;
/// Upper end of [`exp_lanes_f32`]'s domain: `e^88` is below `f32::MAX`.
pub const EXP_F32_HI: f32 = 88.0;
/// Relative bound of [`exp_lanes_f32`] against `e^x` on its domain
/// (measured 2⁻²³·³⁹ over every `f32` in it).
pub const EXP_F32_REL_BOUND: f64 = 1.0 / (1u64 << 23) as f64;

/// `ln 2` split for the `f32` reduction (Cephes `expf`'s `C1`, `C2`): the
/// high part has nine significant bits, so `k·C1` is exact for every `k`
/// the domain yields.
const EXP_F32_C1: f32 = 0.693_359_4;
const EXP_F32_C2: f32 = -2.121_944_4e-4;
/// A degree-6 polynomial for `e^r` on `|r| ≤ ln 2/2`, evaluated as
/// `1 + r + r²·P(r)` (`P` highest order first): a Chebyshev fit of
/// `(e^r − 1 − r)/r²`, within 2⁻²⁶ relative of `e^r` before rounding —
/// one degree below Cephes `expf`'s, at about the same measured bound.
const EXP_F32_COEF: [f32; 5] = [
    0.001_392_625,
    0.008_363_233,
    0.041_666_552,
    0.166_665_76,
    0.5,
];

/// `e^x` for [`LANES`] single-precision arguments — within
/// [`EXP_F32_REL_BOUND`] (2⁻²³) relative of `e^x` at every `f32` in
/// [`EXP_F32_LO`], [`EXP_F32_HI`] (measured over all of them by this
/// module's tests). An argument below that range is raised to its lower
/// end, so the lane returns `e^−87` ≈ 1.6·10⁻³⁸ rather than a smaller
/// value; a NaN argument returns NaN. Arguments above it are outside the
/// domain and return unspecified values (never a panic).
///
/// Cephes `expf`'s reduction on eight lanes: `k = round(x·log₂e)` by the
/// `2²³ + 2²²` magic add, which also leaves `k` in the sum's low bits
/// for building `2^k` in the exponent field (no `as` cast, which would
/// keep the loop scalar; DESIGN.md §11), then `r = x − k·ln 2` in two
/// steps and the polynomial, every multiply-add fused (module doc: nothing
/// needs it bit-identical to a reference, and its bound is measured with
/// the fusion). It is the fast estimator's `exp` in the rate-region sweep,
/// whose certificate bounds its error (DESIGN.md §14.5), and must be
/// inlined into that loop.
#[inline]
pub fn exp_lanes_f32(x: &[f32; LANES]) -> [f32; LANES] {
    let [p0, p1, p2, p3, p4] = EXP_F32_COEF;
    let bias = QUADRANT_MAGIC_F32.to_bits().wrapping_sub(127);
    let mut out = [0.0f32; LANES];
    for l in 0..LANES {
        // `<` keeps a NaN, where `f32::max` would drop it.
        let x = if x[l] < EXP_F32_LO { EXP_F32_LO } else { x[l] };
        let shifted = x.mul_add(std::f32::consts::LOG2_E, QUADRANT_MAGIC_F32);
        let k = shifted - QUADRANT_MAGIC_F32;
        let r = (-k).mul_add(EXP_F32_C2, (-k).mul_add(EXP_F32_C1, x));
        let p = p0
            .mul_add(r, p1)
            .mul_add(r, p2)
            .mul_add(r, p3)
            .mul_add(r, p4)
            .mul_add(r * r, r)
            + 1.0;
        let scale = f32::from_bits(shifted.to_bits().wrapping_sub(bias) << 23);
        out[l] = p * scale;
    }
    out
}

/// Relative bound of [`log2_lanes_f32`] against `log₂ x` for `x ≥ 1`
/// (measured 2⁻²²·⁸⁶ over every finite `f32` from 1 up).
pub const LOG2_F32_REL_BOUND: f64 = 1.0 / (1u64 << 22) as f64;

/// Bit pattern of `√½` in `f32`: [`log2_lanes_f32`] splits every binade
/// here so its mantissa lands in `[√½, √2)`.
const SQRT_HALF_BITS_F32: u32 = 0x3f35_04f3;
/// Cephes `logf`'s polynomial: `ln(1 + f) = f − f²/2 + f³·P(f)` for
/// `1 + f ∈ [√½, √2)`, highest order first.
const LOG_F32_COEF: [f32; 9] = [
    7.037_683_6e-2,
    -1.151_461e-1,
    1.167_699_9e-1,
    -1.242_014_1e-1,
    1.424_932_3e-1,
    -1.666_805_8e-1,
    2.000_071_4e-1,
    -2.499_999_4e-1,
    3.333_333e-1,
];
/// `log₂e − 1`: `log₂ m = ln m + ln m·(log₂e − 1)` keeps the leading term
/// unrounded.
const LOG2_E_M1_F32: f32 = 0.442_695_04;

/// `log₂ x` for [`LANES`] single-precision arguments `x ≥ 1` — within
/// [`LOG2_F32_REL_BOUND`] (2⁻²²) relative of `log₂ x` at every finite
/// `f32` `x ≥ 1` (measured over all of them by this module's tests), and
/// exactly 0 at 1. Other positive normal arguments return a finite value
/// the bound does not cover; zero, negative, subnormal and non-finite ones
/// are outside the domain (unspecified results, never a panic).
///
/// Cephes `logf` on eight lanes, branch-free like [`ln_lanes`]: write
/// `x = 2ᵉ·m` with `m ∈ [√½, √2)` by subtracting `√½`'s bit pattern, take
/// `ln m` from the polynomial in `f = m − 1` (exact), and return
/// `e + ln m·log₂e`, the `e` read back through the `2²³ + 2²²` magic add. It is
/// the fast estimator's `log2` in the rate-region sweep (DESIGN.md §14.5).
#[inline]
pub fn log2_lanes_f32(x: &[f32; LANES]) -> [f32; LANES] {
    let [c0, c1, c2, c3, c4, c5, c6, c7, c8] = LOG_F32_COEF;
    let mut out = [0.0f32; LANES];
    for l in 0..LANES {
        let bits = x[l].to_bits();
        let k = (bits.wrapping_sub(SQRT_HALF_BITS_F32) as i32) >> 23;
        let m = f32::from_bits(bits.wrapping_sub((k as u32) << 23));
        let e = f32::from_bits(QUADRANT_MAGIC_F32.to_bits().wrapping_add(k as u32))
            - QUADRANT_MAGIC_F32;
        let f = m - 1.0;
        let z = f * f;
        let p = ((((((((c0 * f + c1) * f + c2) * f + c3) * f + c4) * f + c5) * f + c6) * f + c7)
            * f
            + c8)
            * f
            * z;
        let ln_m = f + (p - 0.5 * z);
        out[l] = e + (ln_m + ln_m * LOG2_E_M1_F32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::f64::consts::{FRAC_1_SQRT_2, TAU};

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

    /// The documented absolute bound of [`cos_2pi_lanes_f32`] against
    /// `cos(2πu)`.
    const COS_F32_BOUND: f64 = 1.0 / (1u64 << 23) as f64;

    /// Runs every `step`-th `f32` whose bits lie in `bits` through
    /// [`cos_2pi_lanes_f32`] and returns the largest gap to `cos(2πu)` —
    /// [`sincos_2pi_lanes`] on the widened argument, within 10⁻¹⁴ of it —
    /// with its argument, asserting on the way that no lane exceeds 1 in
    /// magnitude.
    fn worst_cos_f32_gap(bits: std::ops::RangeInclusive<u32>, step: u32) -> (f64, f32) {
        let mut worst = (0.0f64, 0.0f32);
        let (first, last) = bits.into_inner();
        for base in (first..=last).step_by((step * LANES as u32) as usize) {
            let u: [f32; LANES] = std::array::from_fn(|l| {
                f32::from_bits(base.saturating_add(l as u32 * step).min(last))
            });
            let got = cos_2pi_lanes_f32(&u);
            let (_, want) = sincos_2pi_lanes(&u.map(f64::from));
            let gap: [f64; LANES] = std::array::from_fn(|l| (f64::from(got[l]) - want[l]).abs());
            assert!(
                got.iter().all(|c| c.abs() <= 1.0),
                "|cos| > 1 near u = {:e}",
                u[0]
            );
            if gap.iter().any(|&g| g > worst.0) {
                for l in 0..LANES {
                    if gap[l] > worst.0 {
                        worst = (gap[l], u[l]);
                    }
                }
            }
        }
        worst
    }

    #[test]
    fn cos_2pi_lanes_f32_tracks_cos_over_the_unit_turn() {
        // Every 64th f32 in [0, 1], then the 2¹⁰ f32 neighbours of every
        // eighth of a turn (the quadrant boundaries and the sin/cos
        // switch points) and of 1.
        let one = 1.0f32.to_bits();
        let mut worst = worst_cos_f32_gap(0..=one, 64);
        for eighth in 1..=8u32 {
            let at = (eighth as f32 / 8.0).to_bits();
            let w = worst_cos_f32_gap(at - 512..=(at + 512).min(one), 1);
            if w.0 > worst.0 {
                worst = w;
            }
        }
        assert!(
            worst.0 <= COS_F32_BOUND,
            "cos_2pi_lanes_f32 off by 2^{:.2} at u = {:e}",
            worst.0.log2(),
            worst.1
        );
    }

    #[test]
    #[ignore = "every f32 in [0, 1]; run in release: cargo test --release -p mmtag-rf --lib -- --ignored"]
    fn cos_2pi_lanes_f32_tracks_cos_at_every_f32_in_the_unit_turn() {
        let (gap, at) = worst_cos_f32_gap(0..=1.0f32.to_bits(), 1);
        assert!(
            gap <= COS_F32_BOUND,
            "cos_2pi_lanes_f32 off by 2^{:.2} at u = {at:e}",
            gap.log2()
        );
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

    // The `exp_lanes` tests below pin glibc's FMA `exp`, the reference
    // host's libm: `f64::exp` is their oracle, so on another libm (or with
    // glibc's FMA variants masked off) the oracle itself moves and they
    // fail by design.

    /// Runs `xs` through [`exp_lanes`], [`LANES`] at a time, and asserts
    /// that every lane carries `f64::exp`'s bits.
    fn assert_exp_lanes_is_libm(xs: &[f64]) {
        for chunk in xs.chunks(LANES) {
            let mut lanes = [0.0f64; LANES];
            lanes[..chunk.len()].copy_from_slice(chunk);
            let fast = exp_lanes(&lanes);
            for (&x, &got) in chunk.iter().zip(&fast) {
                let want = x.exp();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "exp_lanes({x:e} = {:#018x}) = {got:e}, libm {want:e}",
                    x.to_bits()
                );
            }
        }
    }

    /// `x` and its `n` nearest `f64` neighbours on either side.
    fn neighbours(x: f64, n: u64) -> impl Iterator<Item = f64> {
        let bits = x.to_bits();
        (bits - n..=bits + n).map(f64::from_bits)
    }

    /// One argument the way the MI estimator forms it, `|n|² − |Δ + n|²`
    /// with `n ~ CN(0, 1)` and a tuple gap `Δ` whose scale is log-uniform
    /// on [10⁻³, 10]; every 16th draw has `Δ = 0`, the exact-zero diagonal.
    fn estimator_arg(rng: &mut crate::rng::Xoshiro256pp, i: usize) -> f64 {
        let (n_re, n_im) = rng.normal_pair();
        let (n_re, n_im) = (n_re * FRAC_1_SQRT_2, n_im * FRAC_1_SQRT_2);
        let (g_re, g_im) = rng.normal_pair();
        let s = if i % 16 == 0 {
            0.0
        } else {
            rng.log_range(1e-3, 10.0)
        };
        let (dr, di) = ((g_re * s) + n_re, (g_im * s) + n_im);
        (n_re * n_re + n_im * n_im) - (dr * dr + di * di)
    }

    /// Draw `i` of the `exp_lanes` sweeps: three in four estimator-shaped
    /// (nearly all in [−40, 20]), one in eight uniform over [−760, 720]
    /// (both replay edges and the overflow to ∞), one in eight raw bits
    /// (tiny, subnormal, huge and non-finite arguments).
    fn exp_sweep_arg(rng: &mut crate::rng::Xoshiro256pp, i: usize) -> f64 {
        match i % 8 {
            6 => rng.in_range(-760.0, 720.0),
            7 => f64::from_bits(rng.next_u64()),
            _ => estimator_arg(rng, i),
        }
    }

    #[test]
    fn exp_lanes_is_libm_at_every_table_index() {
        // x = (k + f)·ln2/128 lands in table entry k mod 128 with r at
        // offset f of its half-width; k over ±6 octaves visits every entry
        // twelve times, from both signs. f = ½ is where the `Shift` add
        // rounds k, so its 8 neighbours either side are swept too.
        let step = std::f64::consts::LN_2 / 128.0;
        let offsets = [-0.5, -0.375, -0.25, -0.125, 0.0, 0.125, 0.25, 0.375, 0.5];
        let mut xs = Vec::new();
        for k in -768i32..768 {
            for f in offsets {
                xs.push((f64::from(k) + f) * step);
            }
            xs.extend(neighbours((f64::from(k) + 0.5) * step, 8));
        }
        assert_exp_lanes_is_libm(&xs);
    }

    /// Arguments at which computing one of [`exp_lanes`]' inner fused
    /// steps unfused changes the result: `C2 + r·C3` for the first three,
    /// `(C2 + r·C3)·r² + (tail + r)` for the other four. Found by a search
    /// over 2³² random arguments; they are rarer than 1 in 2²⁰, so the
    /// random sweep below would miss them.
    const FUSION_WITNESSES: [u64; 7] = [
        0xc07d_f626_c6fa_ea4d,
        0x4072_e301_af72_805a,
        0xc00e_a682_e187_a620,
        0x4033_72ed_10ed_04a0,
        0xc076_2cea_3a43_b510,
        0x4010_a520_cd18_b628,
        0xc033_9425_3c3a_7dee,
    ];

    #[test]
    fn exp_lanes_is_libm_at_the_path_edges() {
        let tiny = 2f64.powi(-54);
        let mut xs = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        // Subnormals: the smallest, the largest and one between, both signs.
        for bits in [1u64, 0x0008_0000_0000_0000, 0x000f_ffff_ffff_ffff] {
            xs.extend([f64::from_bits(bits), -f64::from_bits(bits)]);
        }
        // Both sides of the 1 + x path (2⁻⁵⁴), of the replay edge (512),
        // of 1024, of the overflow to ∞ (709.78) and of the underflow
        // through the subnormals to 0 (−708.40, −745.13).
        let edges = [tiny, -tiny, 512.0, -512.0, 1024.0, -1024.0];
        let xflow = [
            709.782_712_893_384,
            -708.396_418_532_264_1,
            -745.133_219_101_941_1,
        ];
        for edge in edges.into_iter().chain(xflow) {
            xs.extend(neighbours(edge, 16));
        }
        xs.extend(FUSION_WITNESSES.map(f64::from_bits));
        assert_exp_lanes_is_libm(&xs);
    }

    #[test]
    fn exp_lanes_is_libm_over_2_pow_20_estimator_draws() {
        let mut rng = crate::rng::Xoshiro256pp::seed_from(0xE1);
        let xs: Vec<f64> = (0..1 << 20).map(|i| exp_sweep_arg(&mut rng, i)).collect();
        let core = xs.iter().filter(|x| (-40.0..=20.0).contains(*x)).count();
        assert!(core * 2 > xs.len(), "only {core} draws in [−40, 20]");
        assert_exp_lanes_is_libm(&xs);
    }

    #[test]
    #[ignore = "2^28 libm calls; run in release: cargo test --release -p mmtag-rf --lib -- --ignored"]
    fn exp_lanes_is_libm_over_2_pow_28_draws() {
        let mut rng = crate::rng::Xoshiro256pp::seed_from(0xE28);
        let mut xs = vec![0.0f64; 1 << 16];
        for _ in 0..(1 << 12) {
            for (i, x) in xs.iter_mut().enumerate() {
                *x = exp_sweep_arg(&mut rng, i);
            }
            assert_exp_lanes_is_libm(&xs);
        }
    }

    /// Runs every `step`-th `f32` whose bits lie in `bits` through `kernel`
    /// and returns the largest `gap(got, x)` with its argument.
    fn worst_f32_gap(
        bits: std::ops::RangeInclusive<u32>,
        step: u32,
        kernel: fn(&[f32; LANES]) -> [f32; LANES],
        gap: impl Fn(&[f32; LANES], &[f32; LANES]) -> [f64; LANES],
    ) -> (f64, f32) {
        let mut worst = (0.0f64, 0.0f32);
        let (first, last) = bits.into_inner();
        for base in (first..=last).step_by((step * LANES as u32) as usize) {
            let x: [f32; LANES] = std::array::from_fn(|l| {
                f32::from_bits(base.saturating_add(l as u32 * step).min(last))
            });
            let g = gap(&kernel(&x), &x);
            for l in 0..LANES {
                // A NaN gap counts as the worst there is.
                let g = if g[l].is_nan() { f64::INFINITY } else { g[l] };
                if g > worst.0 {
                    worst = (g, x[l]);
                }
            }
        }
        worst
    }

    /// `|exp_lanes_f32(x) − e^x| / e^x` per lane, against [`exp_lanes`] on
    /// the widened arguments (within one `f64` ulp of `e^x`).
    fn exp_f32_gap(got: &[f32; LANES], x: &[f32; LANES]) -> [f64; LANES] {
        let want = exp_lanes(&x.map(f64::from));
        std::array::from_fn(|l| (f64::from(got[l]) - want[l]).abs() / want[l])
    }

    /// `|log2_lanes_f32(x) − log₂ x| / log₂ x` per lane (0 at `x = 1`, where
    /// the kernel must return exactly 0).
    fn log2_f32_gap(got: &[f32; LANES], x: &[f32; LANES]) -> [f64; LANES] {
        std::array::from_fn(|l| {
            let want = f64::from(x[l]).log2();
            let err = (f64::from(got[l]) - want).abs();
            if want == 0.0 {
                err
            } else {
                err / want
            }
        })
    }

    /// The bits of every `f32` in [`EXP_F32_LO`], [`EXP_F32_HI`], as the
    /// negative half (−0 through −87) and the positive half (0 through 88).
    fn exp_f32_domain() -> [std::ops::RangeInclusive<u32>; 2] {
        [
            (-0.0f32).to_bits()..=EXP_F32_LO.to_bits(),
            0..=EXP_F32_HI.to_bits(),
        ]
    }

    /// The worst relative gap of `exp_lanes_f32` over its domain at `step`,
    /// plus the 2¹⁰ `f32` neighbours of every reduction boundary
    /// `(k + ½)·ln 2` in the domain and of both domain ends.
    fn worst_exp_f32(step: u32) -> (f64, f32) {
        let mut worst = (0.0f64, 0.0f32);
        let mut probe = |bits: std::ops::RangeInclusive<u32>, step: u32| {
            let w = worst_f32_gap(bits, step, exp_lanes_f32, exp_f32_gap);
            if w.0 > worst.0 {
                worst = w;
            }
        };
        for half in exp_f32_domain() {
            probe(half, step);
        }
        let ln2 = std::f64::consts::LN_2;
        let edges = (-126..=127).map(|k| ((f64::from(k) + 0.5) * ln2) as f32);
        for edge in edges.chain([EXP_F32_LO, EXP_F32_HI]) {
            if (EXP_F32_LO..=EXP_F32_HI).contains(&edge) {
                // Magnitude grows with the bits on either side of zero.
                let b = edge.to_bits();
                let end = edge == EXP_F32_LO || edge == EXP_F32_HI;
                probe(b - 512..=if end { b } else { b + 512 }, 1);
            }
        }
        worst
    }

    #[test]
    fn exp_lanes_f32_tracks_exp_over_its_domain() {
        let (gap, at) = worst_exp_f32(256);
        assert!(
            gap <= EXP_F32_REL_BOUND,
            "exp_lanes_f32 off by 2^{:.2} relative at x = {at:e}",
            gap.log2()
        );
    }

    #[test]
    #[ignore = "every f32 in [−87, 88]; run in release: cargo test --release -p mmtag-rf --lib -- --ignored"]
    fn exp_lanes_f32_tracks_exp_at_every_f32_in_its_domain() {
        let (gap, at) = worst_exp_f32(1);
        assert!(
            gap <= EXP_F32_REL_BOUND,
            "exp_lanes_f32 off by 2^{:.2} relative at x = {at:e}",
            gap.log2()
        );
    }

    #[test]
    fn exp_lanes_f32_is_one_at_zero_and_raises_arguments_below_its_domain() {
        let x = [
            0.0,
            -0.0,
            -87.0,
            -1e3,
            f32::NEG_INFINITY,
            88.0,
            f32::NAN,
            1.0,
        ];
        let got = exp_lanes_f32(&x);
        assert_eq!(got[0], 1.0);
        assert_eq!(got[1], 1.0);
        assert_eq!(got[3], got[2]);
        assert_eq!(got[4], got[2]);
        assert!(got[2].is_normal() && got[2] > 0.0);
        assert!(got[5].is_finite());
        assert!(got[6].is_nan());
    }

    /// The worst relative gap of `log2_lanes_f32` over every finite `f32`
    /// from 1 at `step`, plus the 2¹⁰ `f32` neighbours of every binade's
    /// `√½·2ᵉ` split and power of two.
    fn worst_log2_f32(step: u32) -> (f64, f32) {
        let mut worst = worst_f32_gap(
            1.0f32.to_bits()..=f32::MAX.to_bits(),
            step,
            log2_lanes_f32,
            log2_f32_gap,
        );
        for e in 0..128 {
            let pow = 2f32.powi(e);
            for at in [pow, pow * std::f32::consts::SQRT_2] {
                let b = at.to_bits().max(1.0f32.to_bits() + 512);
                let hi = (b + 512).min(f32::MAX.to_bits());
                let w = worst_f32_gap(b - 512..=hi, 1, log2_lanes_f32, log2_f32_gap);
                if w.0 > worst.0 {
                    worst = w;
                }
            }
        }
        worst
    }

    #[test]
    fn log2_lanes_f32_tracks_log2_from_one_up() {
        let (gap, at) = worst_log2_f32(128);
        assert!(
            gap <= LOG2_F32_REL_BOUND,
            "log2_lanes_f32 off by 2^{:.2} relative at x = {at:e}",
            gap.log2()
        );
        assert_eq!(log2_lanes_f32(&[1.0; LANES]), [0.0; LANES]);
    }

    #[test]
    #[ignore = "every f32 from 1 up; run in release: cargo test --release -p mmtag-rf --lib -- --ignored"]
    fn log2_lanes_f32_tracks_log2_at_every_f32_from_one_up() {
        let (gap, at) = worst_log2_f32(1);
        assert!(
            gap <= LOG2_F32_REL_BOUND,
            "log2_lanes_f32 off by 2^{:.2} relative at x = {at:e}",
            gap.log2()
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
