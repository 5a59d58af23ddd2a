//! Randomized property tests for the RF foundations: the algebraic
//! identities every upper layer silently relies on.
//!
//! Each property is exercised over a few hundred deterministic random
//! cases drawn from the in-house [`mmtag_rf::rng`] generator (the stack is
//! offline-only, so no external property-testing framework). A failing
//! case prints its inputs, which — with the fixed seed — is all that is
//! needed to reproduce it.

use mmtag_rf::complex::Complex;
use mmtag_rf::db::{db_to_lin, lin_to_db};
use mmtag_rf::rng::{Rng, SeedTree};
use mmtag_rf::special::{q_function, q_inverse};
use mmtag_rf::units::{Angle, Db, Dbm, Distance, Frequency};

const CASES: usize = 256;

fn cases(label: &'static str) -> impl Iterator<Item = mmtag_rf::rng::Xoshiro256pp> {
    let tree = SeedTree::new(0x5EED_CA5E);
    (0..CASES).map(move |i| tree.rng_indexed(label, i as u64))
}

/// dB ↔ linear power conversions invert each other across 18 decades.
#[test]
fn db_roundtrip() {
    for mut rng in cases("db-roundtrip") {
        let x = rng.log_range(1e-9, 1e9);
        let back = db_to_lin(lin_to_db(x));
        assert!((back - x).abs() / x < 1e-10, "x={x} back={back}");
    }
}

/// Adding dB values multiplies the linear ratios.
#[test]
fn db_addition_is_linear_multiplication() {
    for mut rng in cases("db-add") {
        let a = rng.in_range(-60.0, 60.0);
        let b = rng.in_range(-60.0, 60.0);
        let sum = Db::new(a) + Db::new(b);
        let product = Db::new(a).linear() * Db::new(b).linear();
        assert!(
            (sum.linear() - product).abs() / product < 1e-10,
            "a={a} b={b}"
        );
    }
}

/// `Dbm ± Db` then the reverse lands back on the original power.
#[test]
fn dbm_gain_then_loss() {
    for mut rng in cases("dbm-gain") {
        let p = rng.in_range(-120.0, 40.0);
        let g = rng.in_range(0.0, 80.0);
        let back = (Dbm::new(p) + Db::new(g)) - Db::new(g);
        assert!((back.dbm() - p).abs() < 1e-12, "p={p} g={g}");
    }
}

/// Complex multiplication preserves |a|·|b| and adds phases.
#[test]
fn complex_mul_polar() {
    for mut rng in cases("cmul") {
        let (ra, pa) = (rng.log_range(0.01, 100.0), rng.in_range(-3.0, 3.0));
        let (rb, pb) = (rng.log_range(0.01, 100.0), rng.in_range(-3.0, 3.0));
        let p = Complex::from_polar(ra, pa) * Complex::from_polar(rb, pb);
        assert!(
            (p.abs() - ra * rb).abs() / (ra * rb) < 1e-10,
            "ra={ra} rb={rb}"
        );
        let want = Angle::from_radians(pa + pb).normalized().radians();
        let got = Angle::from_radians(p.arg()).normalized().radians();
        let diff = (got - want).abs();
        assert!(
            diff < 1e-9 || (diff - std::f64::consts::TAU).abs() < 1e-9,
            "pa={pa} pb={pb} got={got} want={want}"
        );
    }
}

/// `z·conj(z)` is always real, non-negative, and equals |z|².
#[test]
fn conjugate_product_is_power() {
    for mut rng in cases("conj") {
        let z = Complex::new(rng.in_range(-100.0, 100.0), rng.in_range(-100.0, 100.0));
        let p = z * z.conj();
        assert!(p.im.abs() < 1e-9 * (1.0 + p.re.abs()), "z={z:?}");
        assert!(
            (p.re - z.norm_sqr()).abs() < 1e-9 * (1.0 + p.re.abs()),
            "z={z:?}"
        );
    }
}

/// Unit phasors compose without losing magnitude (the array-factor hot
/// loop depends on this staying at 1.0 over thousands of steps).
#[test]
fn phasor_rotation_preserves_magnitude() {
    for mut rng in cases("phasor") {
        let step = rng.in_range(-0.5, 0.5);
        let rot = Complex::from_phase(step);
        let mut ph = Complex::ONE;
        for _ in 0..4096 {
            ph *= rot;
        }
        assert!((ph.abs() - 1.0).abs() < 1e-9, "step={step}");
    }
}

/// Q is strictly decreasing and its bisection inverse really inverts it.
#[test]
fn q_inverse_inverts() {
    for mut rng in cases("qinv") {
        let p = rng.log_range(1e-8, 0.4999);
        let x = q_inverse(p);
        let back = q_function(x);
        assert!((back - p).abs() / p < 1e-4, "p={p} x={x} back={back}");
    }
}

/// Angle normalization is idempotent and lands in (−π, π].
#[test]
fn angle_normalization_idempotent() {
    for mut rng in cases("angle-norm") {
        let raw = rng.in_range(-100.0, 100.0);
        let a = Angle::from_radians(raw).normalized();
        assert!(a.radians() > -std::f64::consts::PI - 1e-12, "raw={raw}");
        assert!(a.radians() <= std::f64::consts::PI + 1e-12, "raw={raw}");
        let again = a.normalized();
        assert!((again.radians() - a.radians()).abs() < 1e-12, "raw={raw}");
    }
}

/// Angular separation is a metric-ish: symmetric, bounded by π.
#[test]
fn separation_symmetric_bounded() {
    for mut rng in cases("separation") {
        let x = Angle::from_radians(rng.in_range(-10.0, 10.0));
        let y = Angle::from_radians(rng.in_range(-10.0, 10.0));
        let s1 = x.separation(y).radians();
        let s2 = y.separation(x).radians();
        assert!((s1 - s2).abs() < 1e-12);
        assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&s1));
    }
}

/// Distance unit conversions roundtrip.
#[test]
fn feet_meters_roundtrip() {
    for mut rng in cases("feet") {
        let ft = rng.log_range(0.001, 1e6);
        let d = Distance::from_feet(ft);
        assert!((d.feet() - ft).abs() / ft < 1e-12, "ft={ft}");
    }
}

/// λ·f = c for any frequency.
#[test]
fn wavelength_frequency_product() {
    for mut rng in cases("lambda") {
        let ghz = rng.in_range(0.1, 300.0);
        let f = Frequency::from_ghz(ghz);
        let c = f.wavelength().meters() * f.hz();
        assert!(
            (c - mmtag_rf::constants::SPEED_OF_LIGHT).abs() < 1.0,
            "ghz={ghz}"
        );
    }
}
