//! Waveform-level self-interference cancellation.
//!
//! §9: "the mmTag's reader needs to extract the reflected signal from its
//! own transmitted signal." In baseband terms the leaked carrier is a huge
//! quasi-static complex offset on top of the tiny OOK waveform (the reader
//! transmits a pure tone, so after downconversion by its own LO the leak is
//! ~DC, drifting slowly with temperature and mechanical flex). The classic
//! fix is a two-stage canceller:
//!
//! 1. **train** on a quiet window (before the tag is acknowledged, or
//!    while the tag absorbs) to estimate the leak,
//! 2. **track** a slow residual with a one-pole DC tracker whose bandwidth
//!    sits far below the symbol rate (so the OOK modulation itself is not
//!    cancelled away).
//!
//! [`ReceiveChain::bit_errors`] runs the whole receive chain as
//! experiment E26 does — leak, noise, the canceller or none, the clipping
//! [`AdcClip`], soft decisions — at several leak levels off one stream.
//! Every stage is componentwise and [`OokModem::soft_bits`] reads only the
//! in-phase rail, so no decision reads the quadrature noise: the kernel
//! draws each sample's in-phase normal and skips the quadrature draw. Its
//! oracle is the allocating complex chain — the leak added sample by
//! sample, the complex canceller, a clipping pass over both rails — which
//! lives only in this module's tests; the counts and the stream position
//! match it bit for bit. The tests also close the loop with
//! `mmtag::reader`'s budget-level SI model: an uncancelled leak at the
//! budget's −27 dBm residual buries the tag signal; after training +
//! tracking the measured BER returns to the clean-channel value.

use crate::waveform::{Awgn, OokModem};
use mmtag_rf::obs;
use mmtag_rf::rng::Rng;

/// A TX→RX leakage channel: a large complex offset with slow phase drift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeakageChannel {
    /// Leak amplitude relative to the tag signal's mark amplitude.
    pub amplitude: f64,
    /// Initial leak phase, radians.
    pub phase: f64,
    /// Phase drift per sample, radians (thermal/mechanical, ≪ symbol rate).
    pub drift_per_sample: f64,
}

/// An ADC front end with a finite full scale: components clip at ±fs
/// ([`f64::clamp`]).
///
/// This is *why* §9's self-interference problem cannot be solved in
/// digital alone: the leaked carrier is ~40 dB above the tag signal, so an
/// ADC ranged for the composite leaves the tag signal in the bottom bits —
/// and an ADC ranged for the tag signal clips on the leak. Analog
/// cancellation *before* the ADC restores the dynamic range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdcClip {
    /// Full-scale amplitude per I/Q component.
    pub full_scale: f64,
}

/// Symbols per block of [`ReceiveChain::bit_errors`]: the shared noise
/// and leak-phase buffers hold one block's samples.
const BLOCK_SYMBOLS: usize = 256;

/// The reader's receive chain behind E26, fixed except for the leak: the
/// tag's OOK signal plus leak plus AWGN, the analog canceller trained on
/// a quiet window (or none), the clipping ADC, then sign decisions on
/// [`OokModem::soft_bits`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReceiveChain {
    /// The tag's modem.
    pub modem: OokModem,
    /// The receiver noise.
    pub awgn: Awgn,
    /// The converter the chain digitizes with.
    pub adc: AdcClip,
    /// Samples in the quiet window (leak and noise, no tag signal) drawn
    /// before the frame.
    pub quiet: usize,
    /// The canceller's tracker coefficient `α`, or `None` for a reader
    /// that digitizes the leak uncancelled. The canceller starts from the
    /// quiet window's mean and tracks the residual per sample as
    /// `est += α·(x − est)`; `α` must be ≪ 1/samples-per-symbol so the
    /// modulation survives.
    pub cancel_alpha: Option<f64>,
}

impl ReceiveChain {
    /// Bit errors over `n_bits` random bits at each leak of `leaks`, every
    /// leak reading the same stream from `rng`'s position. Entry `l` is the
    /// count of the allocating complex chain run on that stream with
    /// `leaks[l]`:
    ///
    /// 1. `n_bits` bits, one [`Rng::bit`] each;
    /// 2. the quiet window: `quiet` zero samples, the leak
    ///    `amplitude·e^{iφₖ}` added to sample `k` (`φ₀ = phase`, then
    ///    `φₖ₊₁ = φₖ + drift_per_sample` accumulated in turn),
    ///    [`Awgn::apply`];
    /// 3. the frame: [`OokModem::modulate`], the leak added the same way
    ///    (from its initial phase again), [`Awgn::apply`];
    /// 4. with a canceller, its estimate trained on the quiet window's mean
    ///    and subtracted and tracked over the frame, sample by sample;
    /// 5. both rails clipped at the ADC's full scale, then bit `i` is
    ///    decided `true` where [`OokModem::soft_bits`] is positive, and
    ///    counted against the sent bit.
    ///
    /// `rng` ends where that chain leaves it. The leaks share the bits, the
    /// noise and the phase trajectory and differ in amplitude, so the
    /// kernel draws each sample's in-phase noise once ([`Rng::normal`]),
    /// skips its quadrature draw ([`Rng::skip_box_muller`]) — the whole
    /// quiet window's without a canceller — and runs each leak's
    /// componentwise in-phase chain on it. The frame streams through
    /// blocks of whole symbols; what is kept is one matched-filter sum per
    /// symbol per leak, because `soft_bits` centres every decision on the
    /// mean of them all. Counts the Box–Muller draws computed
    /// (`phy.cancel.normals`) and skipped (`phy.cancel.skipped`).
    ///
    /// # Panics
    /// Panics if `leaks` is empty or its entries differ in phase or drift,
    /// if the ADC's full scale is not positive, or, with a canceller, if
    /// the quiet window is empty or the tracker coefficient lies outside
    /// `[0, 1)`.
    pub fn bit_errors<R: Rng + ?Sized>(
        &self,
        leaks: &[LeakageChannel],
        n_bits: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        let first = leaks.first().expect("need at least one leak level");
        assert!(
            leaks
                .iter()
                .all(|l| l.phase == first.phase && l.drift_per_sample == first.drift_per_sample),
            "leak levels must share one phase trajectory"
        );
        let fs = self.adc.full_scale;
        assert!(fs > 0.0, "full scale must be positive");
        let (sps, sigma) = (self.modem.samples_per_symbol, self.awgn.sigma);
        let mut bits = vec![false; n_bits];
        rng.fill_bits(&mut bits);

        // The quiet window: each leak's trained estimate (the window's mean
        // in-phase sample), or nothing anyone reads.
        let mut estimate = vec![0.0f64; leaks.len()];
        let frame_samples = (n_bits * sps) as u64;
        let quiet = self.quiet as u64;
        match self.cancel_alpha {
            Some(alpha) => {
                assert!(self.quiet > 0, "training window must be non-empty");
                assert!((0.0..1.0).contains(&alpha), "tracker alpha in [0, 1)");
                let mut phase = first.phase;
                for _ in 0..self.quiet {
                    let noise = sigma * rng.normal();
                    rng.skip_box_muller(1);
                    let carrier = phase.cos();
                    phase += first.drift_per_sample;
                    for (sum, leak) in estimate.iter_mut().zip(leaks) {
                        *sum += (0.0 + leak.amplitude * carrier) + noise;
                    }
                }
                for e in &mut estimate {
                    *e *= 1.0 / self.quiet as f64;
                }
                obs::counter_add("phy.cancel.normals", quiet + frame_samples);
                obs::counter_add("phy.cancel.skipped", quiet + frame_samples);
            }
            None => {
                rng.skip_box_muller(2 * quiet);
                obs::counter_add("phy.cancel.normals", frame_samples);
                obs::counter_add("phy.cancel.skipped", 2 * quiet + frame_samples);
            }
        }

        // The frame, block by block: the shared in-phase noise and leak
        // carrier, then each leak's chain down to its matched-filter sums.
        let mut matched = vec![0.0f64; leaks.len() * n_bits];
        let mut noise = vec![0.0f64; BLOCK_SYMBOLS * sps];
        let mut carrier = vec![0.0f64; BLOCK_SYMBOLS * sps];
        let mut phase = first.phase;
        for (b, block) in bits.chunks(BLOCK_SYMBOLS).enumerate() {
            let samples = block.len() * sps;
            for (z, c) in noise[..samples].iter_mut().zip(&mut carrier[..samples]) {
                *z = sigma * rng.normal();
                rng.skip_box_muller(1);
                *c = phase.cos();
                phase += first.drift_per_sample;
            }
            for (l, leak) in leaks.iter().enumerate() {
                let sums = &mut matched[l * n_bits + b * BLOCK_SYMBOLS..][..block.len()];
                let symbols = noise.chunks_exact(sps).zip(carrier.chunks_exact(sps));
                for ((sum, &bit), (z, c)) in sums.iter_mut().zip(block).zip(symbols) {
                    let level = self.modem.level(bit);
                    let mut acc = 0.0;
                    for (&z, &c) in z.iter().zip(c) {
                        let mut x = (level + leak.amplitude * c) + z;
                        if let Some(alpha) = self.cancel_alpha {
                            x -= estimate[l];
                            estimate[l] += x * alpha;
                        }
                        acc += x.clamp(-fs, fs);
                    }
                    *sum = acc;
                }
            }
        }

        // `soft_bits`' decisions: each sum against the mean of them all.
        let sign = if self.modem.mark_bit { 1.0 } else { -1.0 };
        (0..leaks.len())
            .map(|l| {
                let sums = &matched[l * n_bits..(l + 1) * n_bits];
                let mean = sums.iter().copied().sum::<f64>() / sums.len() as f64;
                bits.iter()
                    .zip(sums)
                    .filter(|&(&bit, &s)| bit != (sign * (s - mean) > 0.0))
                    .count()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::ber_sweep_par_with;
    use mmtag_rf::rng::{SeedTree, Xoshiro256pp};
    use mmtag_rf::Complex;

    // The allocating complex chain's pieces: the kernel's oracle and the
    // physics checks below run on them.

    impl LeakageChannel {
        /// Adds the leak onto `samples` in place.
        fn apply(&self, samples: &mut [Complex]) {
            let mut phase = self.phase;
            for s in samples {
                *s += Complex::from_polar(self.amplitude, phase);
                phase += self.drift_per_sample;
            }
        }
    }

    /// The two-stage canceller: trained offset + slow DC tracker.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Canceller {
        estimate: Complex,
        /// Tracker coefficient `α` (per sample): the residual DC is tracked as
        /// `est += α·(x − est)`. Must be ≪ 1/samples-per-symbol so modulation
        /// survives.
        alpha: f64,
    }

    impl Canceller {
        /// Trains on a quiet window (leak + noise, no tag signal): the mean is
        /// the leak estimate.
        ///
        /// # Panics
        /// Panics on an empty training window.
        fn train(quiet: &[Complex], alpha: f64) -> Self {
            assert!(!quiet.is_empty(), "training window must be non-empty");
            assert!((0.0..1.0).contains(&alpha), "tracker alpha in [0, 1)");
            let mean = quiet.iter().copied().sum::<Complex>() / quiet.len() as f64;
            Canceller {
                estimate: mean,
                alpha,
            }
        }

        /// The current leak estimate.
        fn estimate(&self) -> Complex {
            self.estimate
        }

        /// Cancels the leak from `samples` in place, tracking slow drift.
        fn cancel(&mut self, samples: &mut [Complex]) {
            for s in samples {
                *s -= self.estimate;
                // Track what remains: over many samples the OOK modulation
                // averages to a small constant which the tracker absorbs
                // together with the drift (the demodulator re-centers anyway).
                self.estimate += (*s).scale(self.alpha);
            }
        }
    }

    impl AdcClip {
        /// Clips samples to the converter's rails, in place.
        fn apply(&self, samples: &mut [Complex]) {
            assert!(self.full_scale > 0.0, "full scale must be positive");
            let fs = self.full_scale;
            for s in samples {
                s.re = s.re.clamp(-fs, fs);
                s.im = s.im.clamp(-fs, fs);
            }
        }
    }

    /// Residual-to-signal power ratio after cancellation (diagnostic): mean
    /// power of `samples` against the given signal power.
    fn residual_ratio(samples: &[Complex], signal_power: f64) -> f64 {
        assert!(signal_power > 0.0, "signal power must be positive");
        let mean_p: f64 =
            samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / samples.len().max(1) as f64;
        mean_p / signal_power
    }

    /// Leak 40 dB above the tag's mark amplitude — the budget-level
    /// situation (−27 dBm leak vs −67 dBm tag signal). Drift: thermal
    /// phase wander is kHz-scale against GHz sample rates ⇒ ~1e-8
    /// rad/sample, which still accumulates milliradians per frame.
    fn leak() -> LeakageChannel {
        LeakageChannel {
            amplitude: 100.0,
            phase: 0.7,
            drift_per_sample: 1e-8,
        }
    }

    /// Decide bits from (possibly DC-shifted) samples the way the real
    /// reader does: re-centered soft statistics. The canceller's tracker
    /// absorbs the OOK waveform's own DC together with the leak residual,
    /// so a fixed absolute threshold would be wrong by construction —
    /// `soft_bits` keeps the decision baseline-free.
    fn decide(modem: &OokModem, samples: &[Complex]) -> Vec<bool> {
        modem.soft_bits(samples).iter().map(|&s| s > 0.0).collect()
    }

    /// The receive chain with an ADC ranged a little above the tag signal
    /// (±4 for unit marks — a sensible AGC setting for the wanted signal).
    /// `cancel` applies the canceller in "analog" (before the ADC).
    fn chain_ber(cancel: bool, eb_n0_db: f64, n_bits: usize, seed: u64) -> f64 {
        let modem = OokModem::new(4);
        let adc = AdcClip { full_scale: 4.0 };
        let mut rng = Xoshiro256pp::seed_from(seed);
        let bits: Vec<bool> = (0..n_bits).map(|_| rng.bit()).collect();

        // Quiet training window: leak + noise only.
        let mut quiet = vec![Complex::ZERO; 2048];
        let awgn = Awgn::for_eb_n0(&modem, eb_n0_db);
        leak().apply(&mut quiet);
        awgn.apply(&mut quiet, &mut rng);

        // The frame: tag signal + leak (continuing the drift) + noise.
        let mut samples = modem.modulate(&bits);
        let mut continued = leak();
        continued.phase += continued.drift_per_sample * 2048.0;
        continued.apply(&mut samples);
        awgn.apply(&mut samples, &mut rng);

        if cancel {
            let mut c = Canceller::train(&quiet, 1e-3);
            c.cancel(&mut samples);
        }
        adc.apply(&mut samples);
        let decided = decide(&modem, &samples);
        bits.iter().zip(&decided).filter(|(a, b)| a != b).count() as f64 / n_bits as f64
    }

    #[test]
    fn uncancelled_leak_destroys_the_link() {
        // The 100× leak pins the ADC at its rail: the tag's ±1 modulation
        // vanishes into the clipped composite.
        let ber = chain_ber(false, 12.0, 20_000, 1);
        assert!(ber > 0.2, "uncancelled BER {ber} must be catastrophic");
    }

    #[test]
    fn cancellation_restores_clean_ber() {
        let ber = chain_ber(true, 12.0, 100_000, 2);
        // Clean-channel OOK at 12 dB: ~3.4e-5.
        let tree = SeedTree::new(3);
        let clean = ber_sweep_par_with(1, &OokModem::new(4), &[12.0], 100_000, true, &tree)[0];
        assert!(
            ber <= clean * 5.0 + 2e-4,
            "cancelled BER {ber} vs clean {clean}"
        );
    }

    #[test]
    fn training_estimates_the_leak() {
        let mut quiet = vec![Complex::ZERO; 4096];
        leak().apply(&mut quiet);
        let c = Canceller::train(&quiet, 1e-3);
        let true_leak = Complex::from_polar(100.0, 0.7 + 1e-8 * 2048.0);
        // Mean over the window lands mid-drift; error well under 1%.
        assert!(
            (c.estimate() - true_leak).abs() / 100.0 < 0.01,
            "estimate {} vs {}",
            c.estimate(),
            true_leak
        );
    }

    #[test]
    fn tracker_follows_drift() {
        // Long run with drift: residual after cancellation must stay small
        // relative to the leak, demonstrating tracking (not just the
        // one-shot training).
        let mut samples = vec![Complex::ZERO; 100_000];
        let drifting = LeakageChannel {
            amplitude: 100.0,
            phase: 0.0,
            drift_per_sample: 1e-6, // 0.1 rad over the run: beyond training
        };
        drifting.apply(&mut samples);
        let mut c = Canceller::train(&samples[..1024], 2e-3);
        c.cancel(&mut samples);
        // Tail residual (after the tracker converges) ≪ leak power.
        let tail = &samples[50_000..];
        let ratio = residual_ratio(tail, 100.0 * 100.0);
        assert!(ratio < 1e-3, "tail residual ratio {ratio}");
    }

    #[test]
    fn tracker_alpha_must_be_slow_enough() {
        // A pathologically fast tracker eats the modulation itself: BER
        // degrades versus the slow tracker. (Guards the design constraint
        // documented on `Canceller::alpha`.)
        let modem = OokModem::new(4);
        let mut rng = Xoshiro256pp::seed_from(9);
        let bits: Vec<bool> = (0..40_000).map(|_| rng.bit()).collect();
        let run = |alpha: f64, rng: &mut Xoshiro256pp| {
            let mut samples = modem.modulate(&bits);
            leak().apply(&mut samples);
            Awgn::for_eb_n0(&modem, 12.0).apply(&mut samples, rng);
            let mut quiet = vec![Complex::ZERO; 2048];
            leak().apply(&mut quiet);
            let mut c = Canceller::train(&quiet, alpha);
            c.cancel(&mut samples);
            let d = decide(&modem, &samples);
            bits.iter().zip(&d).filter(|(a, b)| a != b).count() as f64 / bits.len() as f64
        };
        let slow = run(1e-3, &mut rng);
        let fast = run(0.5, &mut rng);
        assert!(fast > slow, "fast tracker {fast} must be worse than {slow}");
    }

    /// The streamed kernel's oracle: E26's allocating complex chain at one
    /// leak, step by step as [`ReceiveChain::bit_errors`] states it.
    fn oracle_errors(
        chain: &ReceiveChain,
        leak: &LeakageChannel,
        n_bits: usize,
        rng: &mut Xoshiro256pp,
    ) -> usize {
        let bits: Vec<bool> = (0..n_bits).map(|_| rng.bit()).collect();
        let mut quiet = vec![Complex::ZERO; chain.quiet];
        leak.apply(&mut quiet);
        chain.awgn.apply(&mut quiet, rng);
        let mut samples = chain.modem.modulate(&bits);
        leak.apply(&mut samples);
        chain.awgn.apply(&mut samples, rng);
        if let Some(alpha) = chain.cancel_alpha {
            Canceller::train(&quiet, alpha).cancel(&mut samples);
        }
        chain.adc.apply(&mut samples);
        let decided = decide(&chain.modem, &samples);
        bits.iter().zip(&decided).filter(|(a, b)| a != b).count()
    }

    #[test]
    fn receive_chain_kernel_matches_the_allocating_chain() {
        // E26's chain at its three leak levels plus 16 dB, whose in-phase
        // leak (≈ 3.92) sits just under the ADC rail: marks clip, spaces
        // clip only with the noise's help. 549 bits end in a partial
        // block; 3 bits are one partial block.
        let modem = OokModem::new(4);
        let leaks: Vec<LeakageChannel> = [16.0, 20.0, 30.0, 40.0]
            .iter()
            .map(|&db: &f64| LeakageChannel {
                amplitude: 10f64.powf(db / 20.0),
                phase: 0.9,
                drift_per_sample: 1e-8,
            })
            .collect();
        let partial = leaks[0].amplitude * leaks[0].phase.cos();
        assert!(partial < 4.0 && partial + 1.0 > 4.0, "{partial}");
        for cancel_alpha in [None, Some(1e-3)] {
            let chain = ReceiveChain {
                modem,
                awgn: Awgn::for_eb_n0(&modem, 12.0),
                adc: AdcClip { full_scale: 4.0 },
                quiet: 2048,
                cancel_alpha,
            };
            for seed in [1u64, 7, 8, 0xE26, u64::MAX] {
                for n_bits in [3usize, 549, 2000] {
                    let mut rng = Xoshiro256pp::seed_from(seed);
                    let got = chain.bit_errors(&leaks, n_bits, &mut rng);
                    for (leak, &got) in leaks.iter().zip(&got) {
                        let mut oracle = Xoshiro256pp::seed_from(seed);
                        let want = oracle_errors(&chain, leak, n_bits, &mut oracle);
                        let what = format!(
                            "cancel={cancel_alpha:?} seed={seed} bits={n_bits} leak={}",
                            leak.amplitude
                        );
                        assert_eq!(got, want, "{what}");
                        assert_eq!(rng, oracle, "{what}: stream position");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_is_a_bug() {
        let _ = Canceller::train(&[], 1e-3);
    }
}
