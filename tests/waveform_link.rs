//! Waveform-level end-to-end test: drive the sampled OOK modem at the
//! Eb/N0 the *link budget* predicts for a real geometry, and verify the
//! measured BER meets the design target — the closed loop between the
//! channel math (Fig. 7) and the PHY (the "standard data rate tables" of
//! §8).

use mmtag::link::{evaluate_link, expected_eb_n0};
use mmtag::prelude::*;
use mmtag_phy::ber::ook_coherent_ber;
use mmtag_phy::waveform::{ber_sweep_par_with, OokModem};
use mmtag_rf::rng::SeedTree;

fn link_at(feet: f64) -> (Reader, mmtag::link::LinkReport) {
    let reader = Reader::mmtag_setup();
    let tag = MmTag::prototype();
    let rp = Pose::new(Vec2::ORIGIN, Angle::ZERO);
    let tp = Pose::new(Vec2::from_feet(feet, 0.0), Angle::from_degrees(180.0));
    let report = evaluate_link(&reader, &tag, &Scene::free_space(), rp, tp);
    (reader, report)
}

/// At 4 ft the link budget grants ≥ 7 dB SNR on the 2 GHz rung ⇒ ≥ 10 dB
/// Eb/N0 for OOK at B/2. Measured BER at that operating point must beat the
/// paper's 10⁻³ design target (with the antipodal→unipolar 3 dB bridged by
/// the Eb/N0 bonus).
#[test]
fn measured_ber_at_4ft_meets_design_target() {
    let (reader, report) = link_at(4.0);
    let eb_n0 = expected_eb_n0(&reader, &report).expect("link is up").db();
    assert!(eb_n0 >= 9.7, "Eb/N0 at 4 ft = {eb_n0} dB");
    let modem = OokModem::new(4);
    let ber = ber_sweep_par_with(1, &modem, &[eb_n0], 300_000, true, &SeedTree::new(4242))[0];
    assert!(ber <= 1.5e-3, "BER at the 4 ft operating point: {ber}");
}

/// E5 smoke test on the parallel engine: the chunked Monte-Carlo BER at
/// the paper's 7 dB operating point (a one-point sweep, E05's path) must
/// agree with the closed-form coherent-OOK curve `Q(√(Eb/N0))` within
/// Monte-Carlo statistical error.
/// With 400 k bits at p ≈ 1.3 %, one standard deviation of the estimator
/// is `√(p(1−p)/n)` ≈ 1.8·10⁻⁴; we allow 4σ.
#[test]
fn parallel_mc_ber_matches_closed_form_at_7db() {
    let eb_n0_db = 7.0;
    let n_bits = 400_000;
    let p = ook_coherent_ber(10f64.powf(eb_n0_db / 10.0));
    let modem = OokModem::new(4);
    let tree = SeedTree::new(0xE5);
    let measured = ber_sweep_par_with(4, &modem, &[eb_n0_db], n_bits, true, &tree)[0];
    let sigma = (p * (1.0 - p) / n_bits as f64).sqrt();
    assert!(
        (measured - p).abs() <= 4.0 * sigma,
        "measured {measured:.5} vs theory {p:.5} (4σ = {:.5})",
        4.0 * sigma
    );
}

/// The Eb/N0 ladder is consistent: every rung of the paper's bandwidth
/// ladder gives the same Eb/N0 at its own sensitivity threshold (7 dB SNR
/// plus the 3 dB OOK bonus), so BER performance is range-invariant at the
/// rate the adaptation picks.
#[test]
fn ladder_thresholds_give_uniform_eb_n0() {
    let reader = Reader::mmtag_setup();
    for feet in [3.0, 5.0, 7.0, 9.0, 11.0] {
        let (_, report) = link_at(feet);
        if !report.is_up() {
            continue;
        }
        let eb = expected_eb_n0(&reader, &report).unwrap().db();
        assert!(
            eb >= 9.9,
            "at {feet} ft the chosen rung gives Eb/N0 {eb} < threshold+3"
        );
    }
}
