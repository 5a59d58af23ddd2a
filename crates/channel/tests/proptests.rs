//! Randomized property tests for the channel layer: the link-budget laws
//! hold for arbitrary parameters, not just the calibrated defaults.
//!
//! Cases are drawn deterministically from the in-house [`mmtag_rf::rng`]
//! generator (no external property-testing framework — the workspace
//! builds offline); each assertion prints the inputs that produced it.

use mmtag_channel::fspl::{free_space_path_loss, friis_received_power};
use mmtag_channel::multipath::{Ray, RaySet};
use mmtag_channel::noise::NoiseModel;
use mmtag_channel::radar::BackscatterLink;
use mmtag_rf::rng::{Rng, SeedTree, Xoshiro256pp};
use mmtag_rf::units::{Angle, Bandwidth, Db, Dbi, Dbm, Distance, Frequency, Temperature};

const CASES: usize = 256;

fn cases(label: &'static str) -> impl Iterator<Item = Xoshiro256pp> {
    let tree = SeedTree::new(0xC4A7_7E57);
    (0..CASES).map(move |i| tree.rng_indexed(label, i as u64))
}

/// FSPL grows by exactly 20 dB per decade of distance at any frequency.
#[test]
fn fspl_20db_per_decade() {
    for mut rng in cases("fspl-dist") {
        let ghz = rng.in_range(1.0, 100.0);
        let m = rng.log_range(0.1, 100.0);
        let f = Frequency::from_ghz(ghz);
        let l1 = free_space_path_loss(f, Distance::from_meters(m));
        let l10 = free_space_path_loss(f, Distance::from_meters(10.0 * m));
        assert!((l10.db() - l1.db() - 20.0).abs() < 1e-9, "ghz={ghz} m={m}");
    }
}

/// FSPL grows by 20 dB per decade of frequency at any distance.
#[test]
fn fspl_20db_per_frequency_decade() {
    for mut rng in cases("fspl-freq") {
        let ghz = rng.in_range(1.0, 30.0);
        let m = rng.log_range(0.1, 100.0);
        let d = Distance::from_meters(m);
        let l1 = free_space_path_loss(Frequency::from_ghz(ghz), d);
        let l10 = free_space_path_loss(Frequency::from_ghz(10.0 * ghz), d);
        assert!((l10.db() - l1.db() - 20.0).abs() < 1e-9, "ghz={ghz} m={m}");
    }
}

/// Friis is monotone in every gain term.
#[test]
fn friis_monotone_in_gains() {
    for mut rng in cases("friis") {
        let g = rng.in_range(0.0, 40.0);
        let extra = rng.in_range(0.1, 20.0);
        let p0 = friis_received_power(
            Dbm::new(10.0),
            Dbi::new(g),
            Dbi::new(g),
            Frequency::from_ghz(24.0),
            Distance::from_meters(2.0),
        );
        let p1 = friis_received_power(
            Dbm::new(10.0),
            Dbi::new(g + extra),
            Dbi::new(g),
            Frequency::from_ghz(24.0),
            Distance::from_meters(2.0),
        );
        assert!((p1 - p0).db() > 0.0, "g={g} extra={extra}");
        assert!(((p1 - p0).db() - extra).abs() < 1e-9, "g={g} extra={extra}");
    }
}

/// Backscatter received power follows d⁻⁴ exactly: −12.04 dB per
/// doubling, for any link parameters.
#[test]
fn backscatter_d4_law() {
    for mut rng in cases("d4") {
        let tx = rng.in_range(0.0, 30.0);
        let gain = rng.in_range(0.0, 30.0);
        let tag = rng.in_range(0.0, 30.0);
        let m = rng.log_range(0.2, 20.0);
        let link = BackscatterLink {
            tx_power: Dbm::new(tx),
            reader_tx_gain: Dbi::new(gain),
            reader_rx_gain: Dbi::new(gain),
            frequency: Frequency::from_ghz(24.0),
            implementation_loss: Db::new(10.0),
        };
        let p1 = link.received_power(Db::new(tag), Distance::from_meters(m));
        let p2 = link.received_power(Db::new(tag), Distance::from_meters(2.0 * m));
        assert!(((p1 - p2).db() - 12.0412).abs() < 1e-3, "m={m}");
    }
}

/// max_range inverts received_power for any required power above/below.
#[test]
fn max_range_inversion() {
    for mut rng in cases("range-inv") {
        let m = rng.log_range(0.3, 30.0);
        let link = BackscatterLink::mmtag_setup();
        let tag = Db::new(25.0);
        let p = link.received_power(tag, Distance::from_meters(m));
        let d = link.max_range(tag, p);
        assert!((d.meters() - m).abs() / m < 1e-9, "m={m}");
    }
}

/// Bistatic with equal legs equals monostatic; longer either leg is
/// strictly worse.
#[test]
fn bistatic_consistency() {
    for mut rng in cases("bistatic") {
        let m = rng.log_range(0.3, 10.0);
        let extra = rng.in_range(0.01, 5.0);
        let link = BackscatterLink::mmtag_setup();
        let tag = Db::new(25.0);
        let d = Distance::from_meters(m);
        let mono = link.received_power(tag, d);
        let bi = link.received_power_bistatic(tag, d, d, Db::ZERO);
        assert!((mono - bi).db().abs() < 1e-9, "m={m}");
        let longer =
            link.received_power_bistatic(tag, d, Distance::from_meters(m + extra), Db::ZERO);
        assert!(longer < bi, "m={m} extra={extra}");
    }
}

/// Noise floor: +10 dB per bandwidth decade, +1 dB per NF dB, at any
/// temperature.
#[test]
fn noise_floor_scalings() {
    for mut rng in cases("noise") {
        let mhz = rng.log_range(0.1, 3000.0);
        let nf = rng.in_range(0.0, 15.0);
        let k = rng.in_range(100.0, 400.0);
        let m = NoiseModel {
            temperature: Temperature::from_kelvin(k),
            noise_figure: Db::new(nf),
        };
        let f1 = m.floor(Bandwidth::from_mhz(mhz));
        let f10 = m.floor(Bandwidth::from_mhz(10.0 * mhz));
        assert!(((f10 - f1).db() - 10.0).abs() < 1e-9, "mhz={mhz}");
        let hotter = NoiseModel {
            noise_figure: Db::new(nf + 2.5),
            ..m
        };
        assert!(
            ((hotter.floor(Bandwidth::from_mhz(mhz)) - f1).db() - 2.5).abs() < 1e-9,
            "nf={nf}"
        );
    }
}

/// A random multi-bounce ray set: ray 0 is LOS, the rest lose 7 dB.
fn random_rayset<R: Rng + ?Sized>(rng: &mut R, min_rays: usize) -> (RaySet, usize) {
    let n = min_rays + rng.index(6 - min_rays);
    let rays: Vec<Ray> = (0..n)
        .map(|i| Ray {
            length: Distance::from_meters(rng.in_range(0.5, 20.0)),
            reflection_loss: Db::new(if i == 0 { 0.0 } else { 7.0 }),
            aod_reader: Angle::ZERO,
            aoa_tag: Angle::ZERO,
            bounces: (i != 0) as u8,
        })
        .collect();
    (RaySet::from_rays(rays), n)
}

fn eval(r: &Ray) -> f64 {
    -40.0 * r.length.meters().log10() - 2.0 * r.reflection_loss.db()
}

/// Blocking the LOS of a multi-ray set leaves only bounced rays; the
/// best NLOS is never stronger than the former best overall.
#[test]
fn block_los_never_improves() {
    for mut rng in cases("block-los") {
        let (set, n) = random_rayset(&mut rng, 2);
        let (_, before) = set.best_ray_by(eval).unwrap();
        let set = RaySet::from_rays(set.rays().iter().filter(|r| !r.is_los()).copied().collect());
        if let Some((ray, after)) = set.best_ray_by(eval) {
            assert!(ray.bounces > 0, "n={n}");
            assert!(after <= before + 1e-9, "n={n}");
        }
    }
}
