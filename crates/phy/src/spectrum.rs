//! Spectrum analysis of the backscatter waveform.
//!
//! The paper converts bandwidth to data rate with the conservative rule
//! *symbol rate = B/2* (Fig. 7: 2 GHz ⇒ 1 Gbps OOK). This module puts
//! measurement behind that rule: generate the actual OOK waveform, estimate
//! its PSD (Welch), and compute the occupied bandwidth — the band holding
//! 99% of the power. Rectangular OOK pulses have sinc² skirts, so the 99%
//! band is noticeably wider than the symbol rate; the B/2 rule keeps the
//! main lobe *and* the first sidelobes inside the channel.

use crate::waveform::OokModem;
use mmtag_rf::fft::{fft_shift, WelchPlan};
use mmtag_rf::rng::Rng;
use mmtag_rf::Complex;

/// A power spectral density estimate of a modulated waveform, with the
/// frequency axis normalized to the *symbol rate* (so "1.0" means an offset
/// of one symbol rate from the carrier).
#[derive(Clone, Debug)]
pub struct Spectrum {
    /// Centered PSD bins (linear power).
    psd: Vec<f64>,
    /// Frequency of each bin in symbol-rate units.
    freqs: Vec<f64>,
}

impl Spectrum {
    /// Estimates the spectrum of random-data OOK at the modem's
    /// oversampling, using `n_bits` bits and an `nfft`-point Welch PSD.
    ///
    /// # Panics
    /// Panics unless `nfft` is a power of four, at least 4 (the one FFT
    /// kernel's sizes; every caller uses 1024 = 4⁵), or if the waveform
    /// is shorter than one segment.
    pub fn of_ook<R: Rng + ?Sized>(
        modem: &OokModem,
        n_bits: usize,
        nfft: usize,
        rng: &mut R,
    ) -> Self {
        let mut bits = vec![false; n_bits];
        rng.fill_bits(&mut bits);
        let samples = modem.modulate(&bits);
        Self::of_samples(&samples, modem.samples_per_symbol, nfft)
    }

    /// Estimates the spectrum of arbitrary samples, given the oversampling
    /// factor that defines the symbol-rate axis. Builds a one-shot
    /// [`WelchPlan`]; sweeps estimating many spectra at one FFT size
    /// should build the plan once and call
    /// [`Spectrum::of_samples_with_plan`].
    pub fn of_samples(samples: &[Complex], samples_per_symbol: usize, nfft: usize) -> Self {
        Self::of_samples_with_plan(&WelchPlan::new(nfft), samples, samples_per_symbol)
    }

    /// [`Spectrum::of_samples`] through a caller-owned [`WelchPlan`], so
    /// repeated estimates at the same FFT size pay for the twiddle and
    /// bit-reversal tables exactly once.
    pub fn of_samples_with_plan(
        plan: &WelchPlan,
        samples: &[Complex],
        samples_per_symbol: usize,
    ) -> Self {
        let nfft = plan.nfft();
        // Remove the DC component: OOK's carrier line would otherwise
        // dominate the occupied-bandwidth integral, and the reader's
        // carrier is accounted separately (it IS the illumination).
        let mean: Complex = samples.iter().copied().sum::<Complex>() / samples.len() as f64;
        let centered: Vec<Complex> = samples.iter().map(|&s| s - mean).collect();
        let psd = fft_shift(&plan.psd(&centered));
        let fs_per_symbol = samples_per_symbol as f64; // sample rate / symbol rate
        let freqs: Vec<f64> = (0..nfft)
            .map(|i| {
                let norm = (i as f64 - nfft as f64 / 2.0) / nfft as f64; // −0.5..0.5 of fs
                norm * fs_per_symbol
            })
            .collect();
        Spectrum { psd, freqs }
    }

    /// The PSD bins (centered).
    pub fn psd(&self) -> &[f64] {
        &self.psd
    }

    /// Bin frequencies in symbol-rate units (centered).
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Total power in the estimate.
    pub fn total_power(&self) -> f64 {
        self.psd.iter().sum()
    }

    /// The two-sided occupied bandwidth holding `fraction` of the total
    /// power, in symbol-rate units: grows a symmetric window outward from
    /// the center until the fraction is captured. A test reference: E20
    /// and E13 read [`Spectrum::power_within`]; this module's and the pulse
    /// tests check the Welch PSD's shape through it.
    ///
    /// # Panics
    /// Panics unless `fraction` is in (0, 1).
    pub fn occupied_bandwidth(&self, fraction: f64) -> f64 {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        let total = self.total_power();
        let n = self.psd.len();
        let center = n / 2;
        let mut acc = self.psd[center];
        let mut k = 0usize;
        while acc < fraction * total && (center + k + 1 < n || center > k) {
            k += 1;
            if center + k < n {
                acc += self.psd[center + k];
            }
            if center >= k {
                acc += self.psd[center - k];
            }
        }
        // Window spans 2k+1 bins; convert to symbol-rate units.
        let bin_width = self.freqs[1] - self.freqs[0];
        (2 * k + 1) as f64 * bin_width
    }

    /// Fraction of total power inside `±half_band` symbol rates of center.
    pub fn power_within(&self, half_band: f64) -> f64 {
        let total = self.total_power();
        let inside: f64 = self
            .psd
            .iter()
            .zip(&self.freqs)
            .filter(|(_, f)| f.abs() <= half_band)
            .map(|(p, _)| p)
            .sum();
        inside / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_rf::rng::Xoshiro256pp;

    fn ook_spectrum() -> Spectrum {
        let modem = OokModem::new(8);
        let mut rng = Xoshiro256pp::seed_from(7);
        Spectrum::of_ook(&modem, 8192, 1024, &mut rng)
    }

    #[test]
    fn spectrum_is_centered_and_symmetricish() {
        let s = ook_spectrum();
        assert_eq!(s.psd().len(), 1024);
        // Peak within a few bins of center (random-data OOK is a low-pass
        // sinc² around the carrier).
        let peak = s
            .psd()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(
            (peak as i64 - 512).unsigned_abs() < 16,
            "peak at bin {peak}"
        );
        // A real-valued baseband gives a symmetric PSD.
        let left = s.power_within(0.5);
        assert!(left > 0.0);
    }

    #[test]
    fn main_lobe_width_is_symbol_rate() {
        // Rect pulses: first PSD null at ±1 symbol rate. Power inside
        // ±1 Rs must dominate (≈ 90% of sinc² energy is in the main lobe).
        let s = ook_spectrum();
        let main = s.power_within(1.0);
        assert!(main > 0.85, "main lobe holds {main}");
    }

    #[test]
    fn paper_b_over_2_rule_captures_main_lobe() {
        // The paper's rule: symbol rate = B/2, i.e. the channel spans
        // ±1 symbol rate around the carrier. That must capture ≥ 85% of
        // the modulation power (and it does — the rule is conservative).
        let s = ook_spectrum();
        assert!(s.power_within(1.0) >= 0.85);
        // Halving the channel (symbol rate = B) would clip the main lobe:
        let tight = s.power_within(0.5);
        assert!(tight < s.power_within(1.0));
    }

    #[test]
    fn occupied_bandwidth_monotone_in_fraction() {
        let s = ook_spectrum();
        let b90 = s.occupied_bandwidth(0.90);
        let b99 = s.occupied_bandwidth(0.99);
        assert!(b99 > b90, "99% {b99} vs 90% {b90}");
        // 90% of a sinc² fits within roughly the main lobe.
        assert!(b90 < 3.0, "90% OBW = {b90} symbol rates");
    }

    #[test]
    fn narrower_pulses_widen_spectrum() {
        // Same bit count, fewer samples per symbol = faster symbol rate
        // relative to sample rate ⇒ in symbol-rate units the OBW must stay
        // put, which is exactly the normalization working.
        // Use the 90% OBW: the 95%+ tail integral depends on how much of
        // the sinc² skirt the sample rate captures (±sps/2 symbol rates),
        // which differs between the two modems by construction.
        let mut rng = Xoshiro256pp::seed_from(7);
        let s4 = Spectrum::of_ook(&OokModem::new(4), 8192, 1024, &mut rng);
        let s16 = Spectrum::of_ook(&OokModem::new(16), 8192, 1024, &mut rng);
        let b4 = s4.occupied_bandwidth(0.90);
        let b16 = s16.occupied_bandwidth(0.90);
        assert!(
            (b4 - b16).abs() < 0.4,
            "OBW in symbol units must be invariant: {b4} vs {b16}"
        );
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn silly_fraction_is_a_bug() {
        ook_spectrum().occupied_bandwidth(1.5);
    }

    #[test]
    fn shared_plan_is_bit_identical_to_plan_free() {
        let modem = OokModem::new(8);
        let mut rng = Xoshiro256pp::seed_from(13);
        let mut bits = vec![false; 4096];
        rng.fill_bits(&mut bits);
        let samples = modem.modulate(&bits);
        let free = Spectrum::of_samples(&samples, 8, 1024);
        let plan = WelchPlan::new(1024);
        let planned = Spectrum::of_samples_with_plan(&plan, &samples, 8);
        for (a, b) in free.psd().iter().zip(planned.psd()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And the plan survives reuse across different signals.
        let again = Spectrum::of_samples_with_plan(&plan, &samples, 8);
        for (a, b) in free.psd().iter().zip(again.psd()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
