//! Property-based tests for the PHY: the modems must be bit-exact in the
//! noiseless limit, pulse shaping ISI-free, and the parallel BER estimator
//! thread-invariant.
//!
//! Cases are drawn deterministically from the in-house [`mmtag_rf::rng`]
//! generator (no external property-testing framework — the workspace
//! builds offline); each assertion prints the inputs that produced it.

use mmtag_channel::NoiseModel;
use mmtag_phy::ber::{bpsk_ber, ook_coherent_ber, ook_noncoherent_ber, required_eb_n0_db};
use mmtag_phy::bpsk::BpskModem;
use mmtag_phy::pulse::{raised_cosine, PulseShaper};
use mmtag_phy::rate::RateAdaptation;
use mmtag_phy::waveform::OokModem;
use mmtag_rf::rng::{Rng, SeedTree, Xoshiro256pp};
use mmtag_rf::units::{Bandwidth, Db};

const CASES: usize = 256;

fn cases(label: &'static str) -> impl Iterator<Item = Xoshiro256pp> {
    let tree = SeedTree::new(0x0DEC_0DE5);
    (0..CASES).map(move |i| tree.rng_indexed(label, i as u64))
}

fn random_bits<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.bit()).collect()
}

/// The noiseless modem chain is bit-exact for any data and any
/// oversampling, under both bit conventions.
#[test]
fn modem_noiseless_exact() {
    for mut rng in cases("modem-exact") {
        let len = 1 + rng.index(255);
        let bits = random_bits(&mut rng, len);
        let sps = 1 + rng.index(15);
        let mark_bit = rng.bit();
        let modem = OokModem {
            samples_per_symbol: sps,
            amplitude: 1.0,
            mark_bit,
        };
        let samples = modem.modulate(&bits);
        assert_eq!(modem.demodulate_coherent(&samples), bits);
    }
}

/// soft_bits polarity always matches the logical bits in the noiseless
/// limit (as long as both levels are present to define the mean).
#[test]
fn soft_bits_polarity() {
    for mut rng in cases("soft-bits") {
        let len = 2 + rng.index(126);
        let bits = random_bits(&mut rng, len);
        if !(bits.iter().any(|&b| b) && bits.iter().any(|&b| !b)) {
            continue;
        }
        let mark_bit = rng.bit();
        let modem = OokModem {
            samples_per_symbol: 4,
            amplitude: 1.0,
            mark_bit,
        };
        let soft = modem.soft_bits(&modem.modulate(&bits));
        for (s, &b) in soft.iter().zip(&bits) {
            assert!((*s > 0.0) == b, "bit {b} soft {s}");
        }
    }
}

/// The paper's rate mapping is linear in bandwidth: a ladder's rungs
/// carry B/2 bits/s, so doubling every rung doubles every rate.
#[test]
fn rate_linear_in_bandwidth() {
    for mut rng in cases("rate-linear") {
        let mhz = rng.log_range(0.1, 3000.0);
        let ladder = |mhz: f64| {
            let bandwidths = [Bandwidth::from_mhz(mhz), Bandwidth::from_mhz(mhz / 10.0)];
            RateAdaptation::new(NoiseModel::mmtag_reader(), Db::new(7.0), &bandwidths)
        };
        let (single, double) = (ladder(mhz), ladder(2.0 * mhz));
        for (r1, r2) in single.rungs().iter().zip(double.rungs()) {
            let (r1, r2) = (r1.rate.bps(), r2.rate.bps());
            assert!((r2 - 2.0 * r1).abs() < 1e-6 * r2.max(1.0), "mhz={mhz}");
        }
    }
}

/// BPSK modem roundtrips exactly with no noise, at any oversampling.
#[test]
fn bpsk_noiseless_exact() {
    for mut rng in cases("bpsk-exact") {
        let len = 1 + rng.index(255);
        let bits = random_bits(&mut rng, len);
        let sps = 1 + rng.index(15);
        let modem = BpskModem::new(sps);
        assert_eq!(modem.demodulate(&modem.modulate(&bits)), bits, "sps={sps}");
    }
}

/// The raised-cosine pulse is Nyquist for any roll-off: unity at 0,
/// zero at every other integer, bounded by 1 everywhere.
#[test]
fn raised_cosine_is_nyquist() {
    for mut rng in cases("rcos") {
        let beta = rng.in_range(0.0, 1.0);
        let t = rng.in_range(-8.0, 8.0);
        let h0 = raised_cosine(0.0, beta);
        assert!((h0 - 1.0).abs() < 1e-12, "β={beta}");
        let k = t.round();
        if k != 0.0 && (t - k).abs() < 1e-12 {
            assert!(raised_cosine(k, beta).abs() < 1e-9, "β={beta} k={k}");
        }
        assert!(raised_cosine(t, beta).abs() <= 1.0 + 1e-9, "β={beta} t={t}");
    }
}

/// Pulse shaping preserves symbol values at the sampling instants
/// (no ISI) for any data and roll-off.
#[test]
fn shaping_is_isi_free() {
    for mut rng in cases("isi-free") {
        let len = 8 + rng.index(56);
        let bits = random_bits(&mut rng, len);
        let beta = rng.in_range(0.1, 0.9);
        let sps = 8;
        let shaper = PulseShaper::new(beta, 6, sps);
        let amps: Vec<f64> = bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let shaped = shaper.shape(&amps);
        let sampled = shaper.symbol_samples(&shaped, amps.len());
        for (a, s) in amps.iter().zip(&sampled) {
            assert!((a - s).abs() < 0.03, "β={beta}: sent {a}, sampled {s}");
        }
    }
}

/// Required Eb/N0 is monotone decreasing in the BER target for every
/// closed-form curve (easier targets need less SNR).
#[test]
fn required_snr_monotone() {
    for mut rng in cases("req-snr") {
        let exp = rng.in_range(2.0, 6.0);
        let easier = 10f64.powf(-exp);
        let harder = 10f64.powf(-exp - 1.0);
        for (name, curve) in [
            ("coherent OOK", ook_coherent_ber as fn(f64) -> f64),
            ("non-coherent OOK", ook_noncoherent_ber),
            ("BPSK", bpsk_ber),
        ] {
            let lo = required_eb_n0_db(curve, easier).db();
            let hi = required_eb_n0_db(curve, harder).db();
            assert!(hi > lo, "{name}: {hi} !> {lo} (exp={exp})");
        }
    }
}

/// The parallel BER estimator is bit-identical to its single-thread run
/// for random modem/SNR configurations and thread counts, and the sweep
/// points are independent of sweep length.
#[test]
fn parallel_ber_is_thread_invariant() {
    use mmtag_phy::waveform::ber_sweep_par_with;
    for mut rng in cases("par-ber").take(8) {
        let tree = SeedTree::new(rng.next_u64());
        let modem = OokModem::new(1 + rng.index(4));
        let snr = rng.in_range(2.0, 8.0);
        let n_bits = 20_000 + rng.index(20_000);
        let serial = ber_sweep_par_with(1, &modem, &[snr], n_bits, true, &tree);
        let threads = 2 + rng.index(7);
        let par = ber_sweep_par_with(threads, &modem, &[snr], n_bits, true, &tree);
        assert_eq!(serial[0].to_bits(), par[0].to_bits(), "threads={threads}");

        let snrs = [snr, snr + 2.0, snr + 4.0];
        let sweep = ber_sweep_par_with(threads, &modem, &snrs, n_bits, true, &tree);
        let shorter = ber_sweep_par_with(1, &modem, &snrs[..2], n_bits, true, &tree);
        assert_eq!(
            &sweep[..2],
            &shorter[..],
            "sweep points must be independent"
        );
    }
}
