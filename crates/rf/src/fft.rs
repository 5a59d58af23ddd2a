//! Planned radix-4 decimation-in-time FFT and Welch PSD.
//!
//! The PHY layer's spectrum analysis (occupied bandwidth of the OOK
//! waveform, the justification for the paper's `symbol rate = B/2` rule)
//! needs a Fourier transform: in-place, `O(N log N)`, no external
//! dependency.
//!
//! [`FftPlan`] caches the input permutation and the per-stage twiddle
//! tables for power-of-4 sizes (every entry point plans 1024 = 4⁵);
//! [`WelchPlan`] adds the Hann window. The test oracle is the classic
//! plan-free radix-2 loop in this module's tests, which plans agree with
//! within a relative bound.

use crate::complex::Complex;

/// A cached radix-4 FFT plan: the input permutation plus every stage's
/// twiddle factors, computed once. Radix-4 DIT does half the stages of
/// radix-2, 8 complex additions and 3 multiplies per 4 outputs (vs 8 and
/// 4 for two radix-2 stages), with the `×(−j)` rotations free (a swap and
/// a sign flip) (DESIGN.md §11).
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// Base-4 digit-reversed index of each position, an involution (u32:
    /// a 2³²-point FFT is far beyond any buffer this stack transforms).
    rev: Vec<u32>,
    /// Per-stage twiddles, concatenated smallest stage first: stages from
    /// length 16 up hold `(W_len^k, W_len^{2k}, W_len^{3k})` triplets for
    /// `k < len/4` (the length-4 first stage is twiddle-free and stores
    /// nothing).
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for `n`-point transforms.
    ///
    /// # Panics
    /// Panics unless `n` is a power of four, at least 4 (4, 16, 64, 256,
    /// 1024, 4096, …).
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two() && n.trailing_zeros() % 2 == 0,
            "FFT length must be a power of four (at least 4)"
        );
        let digits = n.trailing_zeros() / 2;
        let rev: Vec<u32> = (0..n)
            .map(|i| {
                let mut r = 0usize;
                let mut x = i;
                for _ in 0..digits {
                    r = (r << 2) | (x & 3);
                    x >>= 2;
                }
                r as u32
            })
            .collect();
        // Twiddles straight from the unit circle (`from_phase` per
        // factor, ~1 ulp each) rather than a multiplicative recurrence:
        // the kernel has no textbook twin whose rounding it must replay,
        // so the table takes the accuracy instead.
        let mut twiddles = Vec::new();
        let mut len = 16;
        while len <= n {
            let ang = -std::f64::consts::TAU / len as f64;
            for k in 0..len / 4 {
                let kf = k as f64;
                twiddles.push(Complex::from_phase(ang * kf));
                twiddles.push(Complex::from_phase(ang * 2.0 * kf));
                twiddles.push(Complex::from_phase(ang * 3.0 * kf));
            }
            len <<= 2;
        }
        FftPlan { n, rev, twiddles }
    }

    /// The transform size this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate zero-point plan (never constructible — a
    /// plan is always ≥ 4 points — but clippy convention pairs this with
    /// [`FftPlan::len`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT through the cached tables: `e^{-j2πkn/N}`
    /// kernel, no normalization (apply `1/N` on the inverse, as
    /// [`FftPlan::ifft`] does). Radix-4 DIT butterflies over a base-4
    /// digit-reversed buffer; per group of 4 outputs, with
    /// `W = e^{−j2π/len}`:
    ///
    /// ```text
    /// a = x[k],  b = x[k+q]·W^k,  c = x[k+2q]·W^2k,  d = x[k+3q]·W^3k
    /// t1 = a + c   t2 = a − c   t3 = b + d   t4 = −j·(b − d)
    /// X[k] = t1 + t3,  X[k+q] = t2 + t4,  X[k+2q] = t1 − t3,  X[k+3q] = t2 − t4
    /// ```
    ///
    /// where `q = len/4` and `−j·z` is the free rotation
    /// `(re, im) → (im, −re)`. The first stage (`len = 4`) is the same
    /// butterfly with all twiddles exactly 1, so it skips the multiplies.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan size.
    pub fn fft(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length must match the plan");
        crate::obs::counter_add("rf.fft.transforms", 1);
        let n = self.n;
        for i in 0..n {
            let j = self.rev[i] as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
        let neg_j = |z: Complex| Complex::new(z.im, -z.re);
        for start in (0..n).step_by(4) {
            let (a, b, c, d) = (buf[start], buf[start + 1], buf[start + 2], buf[start + 3]);
            let t1 = a + c;
            let t2 = a - c;
            let t3 = b + d;
            let t4 = neg_j(b - d);
            buf[start] = t1 + t3;
            buf[start + 1] = t2 + t4;
            buf[start + 2] = t1 - t3;
            buf[start + 3] = t2 - t4;
        }
        let mut len = 16;
        let mut base = 0;
        while len <= n {
            let quarter = len / 4;
            let stage = &self.twiddles[base..base + 3 * quarter];
            for start in (0..n).step_by(len) {
                for k in 0..quarter {
                    let (w1, w2, w3) = (stage[3 * k], stage[3 * k + 1], stage[3 * k + 2]);
                    let a = buf[start + k];
                    let b = buf[start + k + quarter] * w1;
                    let c = buf[start + k + 2 * quarter] * w2;
                    let d = buf[start + k + 3 * quarter] * w3;
                    let t1 = a + c;
                    let t2 = a - c;
                    let t3 = b + d;
                    let t4 = neg_j(b - d);
                    buf[start + k] = t1 + t3;
                    buf[start + k + quarter] = t2 + t4;
                    buf[start + k + 2 * quarter] = t1 - t3;
                    buf[start + k + 3 * quarter] = t2 - t4;
                }
            }
            base += 3 * quarter;
            len <<= 2;
        }
    }

    /// In-place inverse FFT through the cached tables (normalized by
    /// `1/N`). A test reference: no scenario inverts a spectrum; this
    /// module's and the allocation guard's tests check [`FftPlan::fft`]
    /// by round trip through it.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan size.
    pub fn ifft(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length must match the plan");
        for x in buf.iter_mut() {
            *x = x.conj();
        }
        self.fft(buf);
        let scale = 1.0 / self.n as f64;
        for x in buf.iter_mut() {
            *x = x.conj().scale(scale);
        }
    }
}

/// A cached Welch-PSD plan: an [`FftPlan`] plus the Hann window and its
/// power normalization, computed once. [`WelchPlan::psd_into`] runs the
/// whole estimate without allocating, into caller-owned buffers.
#[derive(Clone, Debug)]
pub struct WelchPlan {
    fft: FftPlan,
    window: Vec<f64>,
    win_power: f64,
}

impl WelchPlan {
    /// Builds an `nfft`-point Welch plan (Hann window, half-overlap).
    ///
    /// # Panics
    /// Panics unless `nfft` is a power of four, at least 4
    /// ([`FftPlan::new`]).
    pub fn new(nfft: usize) -> Self {
        let window: Vec<f64> = (0..nfft)
            .map(|i| {
                let x = std::f64::consts::TAU * i as f64 / nfft as f64;
                0.5 * (1.0 - x.cos())
            })
            .collect();
        let win_power: f64 = window.iter().map(|w| w * w).sum::<f64>() / nfft as f64;
        WelchPlan {
            fft: FftPlan::new(nfft),
            window,
            win_power,
        }
    }

    /// The FFT size of this plan.
    pub fn nfft(&self) -> usize {
        self.fft.len()
    }

    /// Welch PSD into caller-owned storage: the mean of `|FFT|²` over
    /// half-overlapping Hann-windowed segments. `out` receives the `nfft`
    /// bins of *linear* power, DC first (use [`fft_shift`] for a centered
    /// view); the window's coherent gain is compensated so a
    /// unit-amplitude tone reads ~1·N/4 per its two bins regardless of
    /// windowing. `buf` is the segment workspace. Both must be exactly
    /// `nfft` long. Allocation-free.
    ///
    /// # Panics
    /// Panics if the signal is shorter than one segment or either buffer
    /// has the wrong length.
    pub fn psd_into(&self, signal: &[Complex], buf: &mut [Complex], out: &mut [f64]) {
        let _span = crate::obs::span("rf.welch.psd");
        let nfft = self.fft.len();
        assert!(signal.len() >= nfft, "signal shorter than one FFT segment");
        assert_eq!(buf.len(), nfft, "segment buffer must be nfft long");
        assert_eq!(out.len(), nfft, "output must be nfft long");
        let hop = nfft / 2;
        out.fill(0.0);
        let mut segments = 0usize;
        let mut start = 0;
        while start + nfft <= signal.len() {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = signal[start + i] * self.window[i];
            }
            self.fft.fft(buf);
            for (a, b) in out.iter_mut().zip(buf.iter()) {
                *a += b.norm_sqr();
            }
            segments += 1;
            start += hop;
        }
        let norm = 1.0 / (segments as f64 * nfft as f64 * self.win_power);
        for a in out.iter_mut() {
            *a *= norm;
        }
    }

    /// Allocating convenience wrapper over [`WelchPlan::psd_into`].
    pub fn psd(&self, signal: &[Complex]) -> Vec<f64> {
        let nfft = self.fft.len();
        let mut buf = vec![Complex::ZERO; nfft];
        let mut out = vec![0.0f64; nfft];
        self.psd_into(signal, &mut buf, &mut out);
        out
    }
}

/// Reorders an FFT output so the zero-frequency bin sits at the center
/// (index `n/2`), for symmetric spectrum plots.
pub fn fft_shift<T: Copy>(bins: &[T]) -> Vec<T> {
    let n = bins.len();
    let half = n / 2;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&bins[half..]);
    out.extend_from_slice(&bins[..half]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test oracle: the classic plan-free radix-2 DIT loop, which
    /// recomputes the twiddle recurrence on every call. Plans agree with
    /// it within a relative bound
    /// (`radix4_matches_radix2_within_relative_bound`).
    fn fft(buf: &mut [Complex]) {
        let n = buf.len();
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if j > i {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = -std::f64::consts::TAU / len as f64;
            let wlen = Complex::from_phase(ang);
            for start in (0..n).step_by(len) {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let u = buf[start + k];
                    let v = buf[start + k + len / 2] * w;
                    buf[start + k] = u + v;
                    buf[start + k + len / 2] = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    /// Inverse of the oracle [`fft`] (normalized by `1/N`).
    fn ifft(buf: &mut [Complex]) {
        let n = buf.len();
        for x in buf.iter_mut() {
            *x = x.conj();
        }
        fft(buf);
        let scale = 1.0 / n as f64;
        for x in buf.iter_mut() {
            *x = x.conj().scale(scale);
        }
    }

    /// Plan-free Welch PSD over the oracle [`fft`]: the reference for
    /// [`WelchPlan::psd_into`].
    fn welch_psd(signal: &[Complex], nfft: usize) -> Vec<f64> {
        let window: Vec<f64> = (0..nfft)
            .map(|i| {
                let x = std::f64::consts::TAU * i as f64 / nfft as f64;
                0.5 * (1.0 - x.cos())
            })
            .collect();
        let win_power: f64 = window.iter().map(|w| w * w).sum::<f64>() / nfft as f64;
        let mut acc = vec![0.0f64; nfft];
        let mut segments = 0usize;
        let mut buf = vec![Complex::ZERO; nfft];
        let mut start = 0;
        while start + nfft <= signal.len() {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = signal[start + i] * window[i];
            }
            fft(&mut buf);
            for (a, b) in acc.iter_mut().zip(&buf) {
                *a += b.norm_sqr();
            }
            segments += 1;
            start += nfft / 2;
        }
        let norm = 1.0 / (segments as f64 * nfft as f64 * win_power);
        for a in &mut acc {
            *a *= norm;
        }
        acc
    }

    fn tone(n: usize, bin: usize, amp: f64) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                Complex::from_phase(std::f64::consts::TAU * bin as f64 * i as f64 / n as f64)
                    .scale(amp)
            })
            .collect()
    }

    /// `‖a − b‖∞ ≤ 1e-13 · ‖b‖₂`: the plans' accuracy contract against
    /// the oracle (`radix4_matches_radix2_within_relative_bound`).
    fn assert_within_relative_bound(a: &[Complex], b: &[Complex], what: &str) {
        let scale: f64 = b.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() <= 1e-13 * scale,
                "{what} bin {i}: plan {x:?} vs oracle {y:?}"
            );
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        for n in [16usize, 64] {
            let mut buf = vec![Complex::ZERO; n];
            buf[0] = Complex::ONE;
            FftPlan::new(n).fft(&mut buf);
            for b in &buf {
                assert!((b.abs() - 1.0).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn fft_of_tone_is_single_bin() {
        for n in [64usize, 256] {
            let mut buf = tone(n, 5, 1.0);
            FftPlan::new(n).fft(&mut buf);
            for (k, b) in buf.iter().enumerate() {
                if k == 5 {
                    assert!(
                        (b.abs() - n as f64).abs() < 1e-9,
                        "n={n} bin 5 = {}",
                        b.abs()
                    );
                } else {
                    assert!(b.abs() < 1e-9, "n={n} bin {k} = {}", b.abs());
                }
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let orig: Vec<Complex> = (0..256)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let plan = FftPlan::new(256);
        let mut buf = orig.clone();
        plan.fft(&mut buf);
        plan.ifft(&mut buf);
        for (a, b) in orig.iter().zip(&buf) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        for n in [256usize, 1024] {
            let sig: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 1.3).sin(), (i as f64 * 0.7).cos() * 0.5))
                .collect();
            let time_energy: f64 = sig.iter().map(|s| s.norm_sqr()).sum();
            let mut buf = sig.clone();
            FftPlan::new(n).fft(&mut buf);
            let freq_energy: f64 = buf.iter().map(|s| s.norm_sqr()).sum::<f64>() / n as f64;
            assert!(
                (time_energy - freq_energy).abs() / time_energy < 1e-10,
                "n={n}"
            );
        }
    }

    #[test]
    fn welch_finds_tone_bin() {
        // Tone at normalized frequency 256/4096 = bin 64 of a 1024 FFT.
        let sig = tone(4096, 256, 1.0);
        let psd = WelchPlan::new(1024).psd(&sig);
        let peak_bin = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak_bin, 64);
    }

    #[test]
    fn welch_of_white_noise_is_flat() {
        // Deterministic pseudo-noise.
        let mut x: u64 = 0x12345678;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as f64 / u64::MAX as f64) - 0.5
        };
        let sig: Vec<Complex> = (0..16384).map(|_| Complex::new(next(), next())).collect();
        let psd = WelchPlan::new(256).psd(&sig);
        let mean: f64 = psd.iter().sum::<f64>() / psd.len() as f64;
        let max = psd.iter().cloned().fold(0.0, f64::max);
        assert!(max / mean < 3.0, "white PSD peak/mean = {}", max / mean);
    }

    #[test]
    fn fft_shift_centers_dc() {
        let shifted = fft_shift(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(shifted, vec![4, 5, 6, 7, 0, 1, 2, 3]);
        // DC (old index 0) is now at n/2.
        assert_eq!(shifted[4], 0);
    }

    #[test]
    #[should_panic(expected = "power of four")]
    fn non_power_of_two_is_a_bug() {
        FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "power of four")]
    fn power_of_two_that_is_not_a_power_of_four_is_a_bug() {
        FftPlan::new(512);
    }

    fn noisy_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect()
    }

    #[test]
    fn plan_ifft_matches_plan_free_within_relative_bound() {
        for n in [4usize, 16, 256, 1024] {
            let plan = FftPlan::new(n);
            let mut a = noisy_signal(n);
            let mut b = a.clone();
            plan.ifft(&mut a);
            ifft(&mut b);
            assert_within_relative_bound(&a, &b, &format!("n={n}"));
        }
    }

    /// The radix-4 kernel has no plan-free twin, so its accuracy contract
    /// is a *relative* bound against the radix-2 oracle:
    /// both kernels round ~log n times per output, so they agree to a few
    /// ulp of the output magnitude. 1e-13 relative (to the spectrum's
    /// L2 norm, which bounds every |bin|) is ~450 ulp of headroom at
    /// n = 4096 — loose enough to be hardware-independent, tight enough
    /// that a wrong twiddle or butterfly sign fails by ten orders.
    #[test]
    fn radix4_matches_radix2_within_relative_bound() {
        for n in [4usize, 16, 64, 256, 1024, 4096] {
            let mut a = noisy_signal(n);
            let mut b = a.clone();
            FftPlan::new(n).fft(&mut a);
            fft(&mut b);
            assert_within_relative_bound(&a, &b, &format!("n={n}"));
        }
    }

    #[test]
    fn radix4_round_trip_recovers_input() {
        for n in [4usize, 16, 64, 256, 1024, 4096] {
            let plan = FftPlan::new(n);
            let orig = noisy_signal(n);
            let mut buf = orig.clone();
            plan.fft(&mut buf);
            plan.ifft(&mut buf);
            for (i, (x, y)) in orig.iter().zip(&buf).enumerate() {
                assert!((*x - *y).abs() < 1e-12, "n={n} sample {i}");
            }
        }
    }

    #[test]
    fn radix4_resolves_impulse_and_tone() {
        let plan = FftPlan::new(256);
        let mut buf = vec![Complex::ZERO; 256];
        buf[0] = Complex::ONE;
        plan.fft(&mut buf);
        for b in &buf {
            assert!((b.abs() - 1.0).abs() < 1e-12);
        }
        let mut buf = tone(256, 7, 1.0);
        plan.fft(&mut buf);
        for (k, b) in buf.iter().enumerate() {
            if k == 7 {
                assert!((b.abs() - 256.0).abs() < 1e-8, "bin 7 = {}", b.abs());
            } else {
                assert!(b.abs() < 1e-8, "bin {k} = {}", b.abs());
            }
        }
    }

    #[test]
    fn plan_is_reusable_without_state_leak() {
        let plan = FftPlan::new(64);
        let mut first = noisy_signal(64);
        plan.fft(&mut first);
        // A second, different transform through the same plan...
        let mut other: Vec<Complex> = (0..64).map(|i| Complex::new(i as f64, -1.0)).collect();
        plan.fft(&mut other);
        // ...then the original input again must reproduce the first result.
        let mut again = noisy_signal(64);
        plan.fft(&mut again);
        for (x, y) in first.iter().zip(&again) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    /// Each bin is a mean of `|X|²` over segments whose `X` the plan
    /// computes within 1e-13 of the segment's L2 norm, so a bin can move
    /// by at most about 2e-13 of the estimate's total power; 1e-13 of it
    /// still leaves orders of magnitude over the few ulp the kernels
    /// differ by.
    #[test]
    fn welch_plan_matches_plan_free_welch() {
        let sig = noisy_signal(4096);
        let free = welch_psd(&sig, 1024);
        let plan = WelchPlan::new(1024);
        let cached = plan.psd(&sig);
        assert_eq!(free.len(), cached.len());
        let total: f64 = free.iter().sum();
        for (i, (a, b)) in free.iter().zip(&cached).enumerate() {
            assert!((a - b).abs() <= 1e-13 * total, "bin {i}: {a} vs {b}");
        }
        // And psd_into reuses buffers without residue from a prior signal.
        let mut buf = vec![Complex::new(9.0, 9.0); 1024];
        let mut out = vec![123.0f64; 1024];
        plan.psd_into(&sig, &mut buf, &mut out);
        for (a, b) in cached.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "match the plan")]
    fn plan_length_mismatch_is_a_bug() {
        let mut buf = vec![Complex::ZERO; 32];
        FftPlan::new(64).fft(&mut buf);
    }
}
