//! Property-based tests for the antenna layer — the paper's Eq. 1–5 claims
//! quantified over *random* geometries, not just the prototype's.
//!
//! Cases are drawn deterministically from the in-house [`mmtag_rf::rng`]
//! generator (no external property-testing framework — the workspace
//! builds offline); each assertion prints the inputs that produced it.

use mmtag_antenna::element::Isotropic;
use mmtag_antenna::sparams::{ElementPort, SwitchState};
use mmtag_antenna::{LinearArray, ReflectorWiring, VanAttaArray};
use mmtag_rf::rng::{Rng, SeedTree, Xoshiro256pp};
use mmtag_rf::units::{Angle, Db, Frequency};
use mmtag_rf::Complex;

const CASES: usize = 256;

fn cases(label: &'static str) -> impl Iterator<Item = Xoshiro256pp> {
    let tree = SeedTree::new(0xA7E_77A5);
    (0..CASES).map(move |i| tree.rng_indexed(label, i as u64))
}

fn ideal_va(n: usize) -> VanAttaArray<Isotropic> {
    let mut v = VanAttaArray::new(
        LinearArray::half_wavelength(n),
        Isotropic,
        ReflectorWiring::VanAtta,
    );
    v.set_line_loss(Db::ZERO);
    v
}

/// **The paper's Eq. 5, as a property**: for any element count and any
/// incidence angle, an ideal Van Atta array's monostatic gain is
/// exactly N² — beam alignment holds with no search, ever.
#[test]
fn van_atta_retro_gain_is_n_squared() {
    for mut rng in cases("retro-n2") {
        let n = 2 + rng.index(22);
        let deg = rng.in_range(-70.0, 70.0);
        let v = ideal_va(n);
        let g = v.monostatic_gain(Angle::from_degrees(deg));
        let expect = (n * n) as f64;
        assert!((g - expect).abs() / expect < 1e-9, "N={n} θ={deg}: {g}");
    }
}

/// The reflected beam's peak lands on the arrival angle (within the
/// scan resolution) for any geometry.
#[test]
fn van_atta_peak_at_arrival() {
    // The peak scan is a fine 3600-point sweep, so fewer cases suffice.
    for mut rng in cases("retro-peak").take(24) {
        let n = 3 + rng.index(13);
        let deg = rng.in_range(-55.0, 55.0);
        let v = ideal_va(n);
        let peak = v.reflection_peak_angle(Angle::from_degrees(deg));
        // Beamwidth shrinks with N; allow half the null-to-null width.
        let tolerance = (120.0 / n as f64).min(20.0);
        assert!(
            (peak.degrees() - deg).abs() < tolerance,
            "N={n} θ={deg}° → {}",
            peak.degrees()
        );
    }
}

/// A *specular* array's peak is at the mirror angle −θ instead.
#[test]
fn mirror_peak_at_specular_angle() {
    for mut rng in cases("specular-peak").take(24) {
        let n = 3 + rng.index(9);
        let deg = rng.in_range(-50.0, 50.0);
        let mut v = VanAttaArray::new(
            LinearArray::half_wavelength(n),
            Isotropic,
            ReflectorWiring::Specular,
        );
        v.set_line_loss(Db::ZERO);
        let peak = v.reflection_peak_angle(Angle::from_degrees(deg));
        let tolerance = (120.0 / n as f64).min(20.0);
        assert!(
            (peak.degrees() + deg).abs() < tolerance,
            "N={n} θ={deg}° → {}",
            peak.degrees()
        );
    }
}

/// A common line phase never changes any |response| (global phase).
#[test]
fn common_line_phase_invariance() {
    for mut rng in cases("common-phase") {
        let n = 2 + rng.index(10);
        let phi = rng.in_range(-3.0, 3.0);
        let tin = rng.in_range(-60.0, 60.0);
        let tout = rng.in_range(-60.0, 60.0);
        let mut v = ideal_va(n);
        let before = v.bistatic_gain(Angle::from_degrees(tin), Angle::from_degrees(tout));
        let phases = vec![phi; n.div_ceil(2)];
        v.set_line_phases(&phases);
        let after = v.bistatic_gain(Angle::from_degrees(tin), Angle::from_degrees(tout));
        assert!(
            (before - after).abs() < 1e-9 * (1.0 + before),
            "n={n} φ={phi}"
        );
    }
}

/// Random per-pair phase errors can only lose retro gain, never gain.
#[test]
fn phase_errors_never_help() {
    for mut rng in cases("phase-err") {
        let n = 2 + rng.index(10);
        let deg = rng.in_range(-50.0, 50.0);
        let mut v = ideal_va(n);
        let ideal = v.monostatic_gain(Angle::from_degrees(deg));
        let pairs = n.div_ceil(2);
        let errs: Vec<f64> = (0..pairs).map(|_| rng.in_range(-1.0, 1.0)).collect();
        v.set_line_phases(&errs);
        let degraded = v.monostatic_gain(Angle::from_degrees(deg));
        assert!(
            degraded <= ideal + 1e-9,
            "n={n} θ={deg}: ideal {ideal} degraded {degraded}"
        );
    }
}

/// Energy sanity: the bistatic response magnitude never exceeds the
/// coherent bound N (no free energy from the passive network).
#[test]
fn response_bounded_by_coherent_sum() {
    for mut rng in cases("energy-bound") {
        let n = 1 + rng.index(15);
        let tin = rng.in_range(-90.0, 90.0);
        let tout = rng.in_range(-90.0, 90.0);
        let v = ideal_va(n);
        let r = v.bistatic_response(Angle::from_degrees(tin), Angle::from_degrees(tout));
        assert!(r.abs() <= n as f64 + 1e-9, "n={n} tin={tin} tout={tout}");
    }
}

/// Beam weights always give exactly coherent gain at the steer angle —
/// and never more anywhere else.
#[test]
fn array_factor_peak_is_at_steer() {
    for mut rng in cases("af-peak") {
        let n = 1 + rng.index(31);
        let steer = rng.in_range(-60.0, 60.0);
        let probe = rng.in_range(-90.0, 90.0);
        let arr = LinearArray::half_wavelength(n);
        let s = Angle::from_degrees(steer);
        let at_steer = arr.array_factor_power(s, s);
        assert!((at_steer - 1.0).abs() < 1e-12, "n={n} steer={steer}");
        let elsewhere = arr.array_factor_power(s, Angle::from_degrees(probe));
        assert!(
            elsewhere <= 1.0 + 1e-12,
            "n={n} steer={steer} probe={probe}"
        );
    }
}

/// The steering vector of Eq. 2 always has unit-magnitude entries.
#[test]
fn steering_vector_unit_entries() {
    for mut rng in cases("steer-unit") {
        let n = 1 + rng.index(63);
        let deg = rng.in_range(-90.0, 90.0);
        let arr = LinearArray::half_wavelength(n);
        for k in 0..n {
            let ph = arr.receive_phasor(k, Angle::from_degrees(deg));
            assert!((ph.abs() - 1.0).abs() < 1e-12, "n={n} θ={deg}");
        }
    }
}

/// response() equals the naive phasor sum for arbitrary excitations
/// (guards the incremental-rotation optimization).
#[test]
fn response_matches_naive_sum() {
    for mut rng in cases("resp-naive") {
        let n = 1 + rng.index(23);
        let deg = rng.in_range(-90.0, 90.0);
        let amp = rng.in_range(0.1, 3.0);
        let phase_step = rng.in_range(-1.0, 1.0);
        let arr = LinearArray::half_wavelength(n);
        let exc: Vec<Complex> = (0..n)
            .map(|k| Complex::from_polar(amp, phase_step * k as f64))
            .collect();
        let th = Angle::from_degrees(deg);
        let fast = arr.response(&exc, th);
        let mut slow = Complex::ZERO;
        for (k, &e) in exc.iter().enumerate() {
            slow += e * Complex::from_phase(arr.element_phase(k, th));
        }
        assert!(
            (fast - slow).abs() < 1e-8 * (1.0 + slow.abs()),
            "n={n} θ={deg}"
        );
    }
}

/// S11 magnitude of the passive one-port never exceeds 0 dB in either
/// switch state (passivity).
#[test]
fn s11_is_passive() {
    for mut rng in cases("s11") {
        let ghz = rng.in_range(20.0, 28.0);
        let e = ElementPort::mmtag_default();
        let f = Frequency::from_ghz(ghz);
        assert!(e.s11_db(f, SwitchState::Off) <= 1e-9, "ghz={ghz}");
        assert!(e.s11_db(f, SwitchState::On) <= 1e-9, "ghz={ghz}");
    }
}

/// The monostatic kernel mapped over the pool is bitwise-equal to the
/// serial map for random arrays, line phases and thread counts.
#[test]
fn parallel_sweep_equals_serial() {
    for mut rng in cases("par-sweep").take(32) {
        let n = 2 + rng.index(10);
        let mut v = ideal_va(n);
        let pairs = n.div_ceil(2);
        let errs: Vec<f64> = (0..pairs).map(|_| rng.in_range(-0.5, 0.5)).collect();
        v.set_line_phases(&errs);
        let angles: Vec<Angle> = (0..37)
            .map(|_| Angle::from_degrees(rng.in_range(-90.0, 90.0)))
            .collect();
        let serial: Vec<f64> = angles.iter().map(|&a| v.monostatic_gain(a)).collect();
        let threads = 1 + rng.index(8);
        let par = mmtag_rf::par::par_map_with(threads, &angles, |_, &a| v.monostatic_gain(a));
        assert!(
            serial
                .iter()
                .zip(&par)
                .all(|(s, p)| s.to_bits() == p.to_bits()),
            "n={n} threads={threads}"
        );
    }
}
