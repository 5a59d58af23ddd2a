//! Pulse shaping: raised-cosine filtering of the OOK waveform.
//!
//! The paper's rule of thumb (`symbol rate = B/2`) exists because hard
//! rectangular switching splatters sinc² sidelobes across the band. A tag
//! cannot run a DAC, but it *can* slew its switch gate (an RC on the gate
//! line), which rounds the transitions — well modeled by convolving the
//! rectangular stream with a raised-cosine pulse. The payoff: the same
//! channel admits a higher symbol rate (`R = B/(1+β)` instead of `B/2`),
//! up to 2 Gbps in the paper's 2 GHz band at β = 0 … 1.33 Gbps at β = 0.5.
//!
//! This module implements the raised-cosine impulse response, FIR
//! convolution, and the shaped-OOK spectrum comparison (experiment E20).

use crate::waveform::OokModem;
use mmtag_rf::special::sinc;
use mmtag_rf::Complex;

/// Raised-cosine impulse response `h(t)` at normalized time `t` (in symbol
/// periods) with roll-off `beta ∈ [0, 1]`.
///
/// `h(0) = 1`; zero crossings at every nonzero integer `t` (Nyquist ISI-free
/// property); the `beta`-dependent singularity at `t = ±1/(2β)` is handled
/// by its limit `(π/4)·sinc(1/(2β))`.
pub fn raised_cosine(t: f64, beta: f64) -> f64 {
    assert!((0.0..=1.0).contains(&beta), "roll-off must be in [0, 1]");
    if beta > 0.0 {
        let edge = 1.0 / (2.0 * beta);
        if (t.abs() - edge).abs() < 1e-9 {
            return std::f64::consts::FRAC_PI_4 * sinc(edge);
        }
    }
    let denom = 1.0 - (2.0 * beta * t) * (2.0 * beta * t);
    sinc(t) * (std::f64::consts::PI * beta * t).cos() / denom
}

/// A raised-cosine pulse-shaping filter at a given oversampling.
#[derive(Clone, Debug)]
pub struct PulseShaper {
    taps: Vec<f64>,
    samples_per_symbol: usize,
}

impl PulseShaper {
    /// Builds a shaper with roll-off `beta`, truncated to `span` symbol
    /// periods each side, at `samples_per_symbol` oversampling.
    ///
    /// # Panics
    /// Panics for zero oversampling or zero span.
    pub fn new(beta: f64, span: usize, samples_per_symbol: usize) -> Self {
        assert!(samples_per_symbol >= 1, "need at least one sample/symbol");
        assert!(span >= 1, "span must cover at least one symbol");
        let half = span * samples_per_symbol;
        let taps: Vec<f64> = (-(half as i64)..=half as i64)
            .map(|k| raised_cosine(k as f64 / samples_per_symbol as f64, beta))
            .collect();
        PulseShaper {
            taps,
            samples_per_symbol,
        }
    }

    /// Filter length in samples.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Always false (the constructor guarantees taps).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Group delay in samples (symmetric FIR: half the length).
    pub fn delay(&self) -> usize {
        self.taps.len() / 2
    }

    /// Shapes a symbol sequence (one amplitude per symbol) into samples:
    /// impulse-train upsampling followed by FIR convolution. Output length
    /// is `symbols·sps + taps − 1` (full convolution).
    pub fn shape(&self, symbol_amplitudes: &[f64]) -> Vec<Complex> {
        let n_out = symbol_amplitudes.len() * self.samples_per_symbol + self.taps.len() - 1;
        let mut out = vec![Complex::ZERO; n_out];
        for (s, &a) in symbol_amplitudes.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let base = s * self.samples_per_symbol;
            for (k, &h) in self.taps.iter().enumerate() {
                out[base + k].re += a * h;
            }
        }
        out
    }

    /// Shapes OOK bits using the modem's mark mapping and amplitude.
    pub fn shape_ook(&self, modem: &OokModem, bits: &[bool]) -> Vec<Complex> {
        let amps: Vec<f64> = bits
            .iter()
            .map(|&b| {
                if b == modem.mark_bit {
                    modem.amplitude
                } else {
                    0.0
                }
            })
            .collect();
        self.shape(&amps)
    }

    /// Samples the shaped waveform back at symbol centers (compensating the
    /// filter delay). A test reference: this module's and the property
    /// tests verify [`PulseShaper::shape`]'s ISI-free property through it.
    pub fn symbol_samples(&self, shaped: &[Complex], n_symbols: usize) -> Vec<f64> {
        (0..n_symbols)
            .map(|s| {
                let idx = s * self.samples_per_symbol + self.delay();
                shaped.get(idx).map(|c| c.re).unwrap_or(0.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::Spectrum;
    use mmtag_rf::rng::{Rng, Xoshiro256pp};

    #[test]
    fn impulse_response_properties() {
        for beta in [0.0, 0.25, 0.5, 1.0] {
            assert!((raised_cosine(0.0, beta) - 1.0).abs() < 1e-12, "h(0)=1");
            // Nyquist zero crossings at nonzero integers.
            for k in 1..=5 {
                assert!(
                    raised_cosine(k as f64, beta).abs() < 1e-9,
                    "β={beta}: h({k}) must be 0"
                );
            }
        }
    }

    #[test]
    fn singularity_is_finite() {
        // t = 1/(2β) hits the 0/0 point; must be finite and continuous.
        let at = raised_cosine(1.0, 0.5);
        let near = raised_cosine(1.0 + 1e-7, 0.5);
        assert!(at.is_finite());
        assert!((at - near).abs() < 1e-4);
    }

    #[test]
    fn shaping_preserves_symbol_values_no_isi() {
        // The Nyquist property: at symbol centers the neighbors contribute
        // nothing, so the sampled values equal the transmitted amplitudes.
        let shaper = PulseShaper::new(0.35, 6, 8);
        let mut rng = Xoshiro256pp::seed_from(4);
        let amps: Vec<f64> = (0..64).map(|_| if rng.bit() { 1.0 } else { 0.0 }).collect();
        let shaped = shaper.shape(&amps);
        let sampled = shaper.symbol_samples(&shaped, amps.len());
        for (i, (&a, &s)) in amps.iter().zip(&sampled).enumerate() {
            assert!((a - s).abs() < 0.02, "symbol {i}: sent {a}, sampled {s}");
        }
    }

    #[test]
    fn shaped_spectrum_is_narrower_than_rect() {
        let sps = 8;
        let mut rng = Xoshiro256pp::seed_from(9);
        let bits: Vec<bool> = (0..4096).map(|_| rng.bit()).collect();
        let modem = OokModem::new(sps);

        let rect = modem.modulate(&bits);
        let rect_spec = Spectrum::of_samples(&rect, sps, 1024);

        let shaper = PulseShaper::new(0.35, 6, sps);
        let shaped = shaper.shape_ook(&modem, &bits);
        let shaped_spec = Spectrum::of_samples(&shaped, sps, 1024);

        // The raised cosine confines the spectrum to ±(1+β)/2 symbol rates;
        // rect OOK leaks well beyond.
        let band = (1.0 + 0.35) / 2.0;
        let rect_in = rect_spec.power_within(band);
        let shaped_in = shaped_spec.power_within(band);
        assert!(
            shaped_in > 0.99,
            "shaped confinement {shaped_in} within ±{band}"
        );
        assert!(shaped_in > rect_in, "shaped {shaped_in} vs rect {rect_in}");
    }

    #[test]
    fn smaller_beta_is_tighter() {
        let sps = 8;
        let mut rng = Xoshiro256pp::seed_from(10);
        let bits: Vec<bool> = (0..4096).map(|_| rng.bit()).collect();
        let modem = OokModem::new(sps);
        let occupied = |beta: f64, rng_bits: &[bool]| {
            let shaped = PulseShaper::new(beta, 8, sps).shape_ook(&modem, rng_bits);
            Spectrum::of_samples(&shaped, sps, 1024).occupied_bandwidth(0.99)
        };
        let tight = occupied(0.1, &bits);
        let loose = occupied(0.9, &bits);
        assert!(tight < loose, "β=0.1: {tight} vs β=0.9: {loose}");
    }

    #[test]
    fn rate_advantage_over_b_over_2() {
        // The design payoff: in a fixed channel B, rect OOK runs at B/2;
        // shaped OOK at β = 0.35 runs at B/1.35 — 1.48× more throughput.
        let beta: f64 = 0.35;
        let advantage = 2.0 / (1.0 + beta);
        assert!((advantage - 1.48).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "roll-off")]
    fn silly_beta_is_a_bug() {
        let _ = raised_cosine(0.5, 1.5);
    }
}
