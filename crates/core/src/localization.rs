//! Tag localization from the reader's own scan data.
//!
//! The beam scan the reader already performs for SDM (§9) is a free angle
//! sensor: the RSS profile across beam positions peaks at the tag's
//! bearing, and the absolute RSS inverts through the `d⁻⁴` budget into a
//! range estimate. Together they place the tag in the room — the classic
//! RFID localization application (§3 cites RF-IDraw and friends) ported to
//! the mmWave beam-space, where the narrow beams make the bearing estimate
//! *better* than at 915 MHz.
//!
//! The estimator is deliberately simple (power-weighted beam centroid +
//! RSS range inversion); its achievable accuracy — fractions of a beamwidth
//! in angle, the `±implementation-loss uncertainty` in range — is exactly
//! what the tests quantify.

use crate::link::ray_power;
use crate::reader::Reader;
use crate::tag::MmTag;
use mmtag_rf::units::{Angle, Distance};
use mmtag_sim::mobility::Pose;
use mmtag_sim::{Scene, Vec2};

/// One scan sample: beam center angle and the RSS measured there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScanSample {
    /// Beam center (reader frame).
    pub beam: Angle,
    /// Received power, dBm (`None` if nothing was heard in this beam).
    pub rss_dbm: Option<f64>,
}

/// A position estimate with its supporting measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PositionEstimate {
    /// Estimated bearing (reader frame).
    pub bearing: Angle,
    /// Estimated range.
    pub range: Distance,
    /// Estimated position in world coordinates.
    pub position: Vec2,
}

/// Sweeps the reader's scan schedule over the scene and records the RSS
/// the tag returns in each beam position (the horn's pattern selects how
/// much of the tag's retro-reflection each position collects).
pub fn scan_rss(
    reader: &Reader,
    tag: &MmTag,
    scene: &Scene,
    reader_pose: Pose,
    tag_pose: Pose,
) -> Vec<ScanSample> {
    let rays = scene.paths(reader_pose, tag_pose);
    (0..reader.scan().positions())
        .map(|i| {
            let beam = reader.scan().angle_of(i);
            // Best ray as seen through this beam position: the pointing
            // loss applies on both traversals (TX and RX use the beam).
            let rss = rays
                .rays()
                .iter()
                .map(|r| {
                    let misalign = r.aod_reader.separation(beam);
                    let loss = reader.pointing_loss(misalign) * 2.0;
                    (ray_power(reader, tag, r) - loss).dbm()
                })
                .fold(f64::NEG_INFINITY, f64::max);
            ScanSample {
                beam,
                rss_dbm: rss.is_finite().then_some(rss),
            }
        })
        .collect()
}

/// Estimates the tag's bearing as the power-weighted centroid of the scan
/// profile (weights in linear power, floor-referenced to the weakest
/// audible beam). Returns `None` when no beam heard the tag.
pub fn estimate_bearing(samples: &[ScanSample]) -> Option<Angle> {
    let audible: Vec<(f64, f64)> = samples
        .iter()
        .filter_map(|s| s.rss_dbm.map(|r| (s.beam.radians(), r)))
        .collect();
    if audible.is_empty() {
        return None;
    }
    // Centroid over linear power relative to the peak (keeps the estimate
    // local to the main lobe: beams 20 dB down contribute 1%).
    let peak = audible.iter().map(|&(_, r)| r).fold(f64::MIN, f64::max);
    let mut num = 0.0;
    let mut den = 0.0;
    for &(angle, rss) in &audible {
        let w = 10f64.powf((rss - peak) / 10.0);
        num += angle * w;
        den += w;
    }
    Some(Angle::from_radians(num / den))
}

/// Estimates the tag's range by inverting the monostatic `d⁻⁴` budget at
/// the peak RSS, assuming the nominal tag gain at broadside (the
/// retrodirective tag's gain is angle-flat, which is what makes this
/// inversion usable at unknown incidence).
pub fn estimate_range(reader: &Reader, tag: &MmTag, peak_rss_dbm: f64) -> Distance {
    let tag_gain = tag.roundtrip_gain(Angle::ZERO);
    reader
        .link()
        .max_range(tag_gain, mmtag_rf::units::Dbm::new(peak_rss_dbm))
}

/// Full localization: scan → bearing centroid → range inversion → world
/// position. Returns `None` when the tag is inaudible in every beam.
pub fn locate(
    reader: &Reader,
    tag: &MmTag,
    scene: &Scene,
    reader_pose: Pose,
    tag_pose: Pose,
) -> Option<PositionEstimate> {
    let samples = scan_rss(reader, tag, scene, reader_pose, tag_pose);
    let bearing = estimate_bearing(&samples)?;
    let peak = samples
        .iter()
        .filter_map(|s| s.rss_dbm)
        .fold(f64::NEG_INFINITY, f64::max);
    let range = estimate_range(reader, tag, peak);
    let world = (bearing + reader_pose.orientation).normalized();
    let position = reader_pose.position.add(Vec2::new(
        range.meters() * world.radians().cos(),
        range.meters() * world.radians().sin(),
    ));
    Some(PositionEstimate {
        bearing,
        range,
        position,
    })
}

/// Localization error of an estimate against the true tag pose.
pub fn position_error(estimate: &PositionEstimate, truth: Pose) -> Distance {
    estimate.position.distance_to(truth.position)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_rf::units::Dbm;

    fn setup(feet: f64, bearing_deg: f64) -> (Reader, MmTag, Scene, Pose, Pose) {
        let rad = bearing_deg.to_radians();
        let pos = Vec2::from_feet(feet * rad.cos(), feet * rad.sin());
        (
            Reader::mmtag_setup(),
            MmTag::prototype(),
            Scene::free_space(),
            Pose::new(Vec2::ORIGIN, Angle::ZERO),
            Pose::new(pos, Angle::from_degrees(bearing_deg + 180.0)),
        )
    }

    #[test]
    fn scan_profile_peaks_at_tag_bearing() {
        let (reader, tag, scene, rp, tp) = setup(5.0, 25.0);
        let samples = scan_rss(&reader, &tag, &scene, rp, tp);
        assert_eq!(samples.len(), reader.scan().positions());
        let peak = samples
            .iter()
            .max_by(|a, b| {
                a.rss_dbm
                    .unwrap_or(f64::MIN)
                    .total_cmp(&b.rss_dbm.unwrap_or(f64::MIN))
            })
            .unwrap();
        assert!(
            peak.beam.separation(Angle::from_degrees(25.0)).degrees() <= 11.0,
            "peak beam at {}",
            peak.beam
        );
    }

    #[test]
    fn bearing_estimate_beats_the_beamwidth() {
        // Power-weighted centroid interpolates between beams: error must
        // be a fraction of the ~20° beamwidth at several true bearings.
        for true_deg in [-40.0, -15.0, 0.0, 10.0, 35.0] {
            let (reader, tag, scene, rp, tp) = setup(5.0, true_deg);
            let samples = scan_rss(&reader, &tag, &scene, rp, tp);
            let est = estimate_bearing(&samples).unwrap();
            let err = est.separation(Angle::from_degrees(true_deg)).degrees();
            assert!(err < 6.0, "bearing {true_deg}°: error {err}°");
        }
    }

    #[test]
    fn range_inversion_recovers_distance() {
        let (reader, tag, scene, rp, tp) = setup(6.0, 0.0);
        let samples = scan_rss(&reader, &tag, &scene, rp, tp);
        let peak = samples
            .iter()
            .filter_map(|s| s.rss_dbm)
            .fold(f64::MIN, f64::max);
        let range = estimate_range(&reader, &tag, peak);
        assert!(
            (range.feet() - 6.0).abs() < 0.8,
            "estimated {} ft",
            range.feet()
        );
    }

    #[test]
    fn full_localization_lands_within_a_foot_or_so() {
        for (feet, deg) in [(4.0, 0.0), (6.0, 20.0), (8.0, -30.0)] {
            let (reader, tag, scene, rp, tp) = setup(feet, deg);
            let est = locate(&reader, &tag, &scene, rp, tp).unwrap();
            let err = position_error(&est, tp);
            assert!(
                err.feet() < 1.6,
                "truth ({feet} ft, {deg}°): error {} ft",
                err.feet()
            );
        }
    }

    #[test]
    fn out_of_sector_tag_is_unlocatable() {
        // Tag behind the reader: every beam's pointing loss exceeds the
        // budget and the best audible RSS is sidelobe-level.
        let (reader, tag, scene, rp, _) = setup(4.0, 0.0);
        let behind = Pose::new(Vec2::from_feet(-4.0, 0.0), Angle::ZERO);
        let est = locate(&reader, &tag, &scene, rp, behind);
        if let Some(e) = est {
            // If sidelobes still hear it, the range estimate must be far
            // off (power is sidelobe-suppressed) — flag via gross error.
            let err = position_error(&e, behind);
            assert!(
                err.feet() > 2.0,
                "behind-reader ghost at {} ft error",
                err.feet()
            );
        }
    }

    #[test]
    fn range_bias_formula() {
        // The estimate inverts a d⁻⁴ law, so an RSS (or implementation-loss)
        // error of Δ dB scales the range by 10^(Δ/40): 4 dB of calibration
        // error ⇒ 10^(0.1) − 1 ≈ 26% range bias — the honest limitation of
        // RSS ranging.
        let reader = Reader::mmtag_setup();
        let tag = MmTag::prototype();
        let calibrated = estimate_range(&reader, &tag, -70.0).meters();
        let b = estimate_range(&reader, &tag, -74.0).meters() / calibrated - 1.0;
        assert!((b - 0.259).abs() < 0.01, "bias {b}");
        assert!(
            (b - (10f64.powf(4.0 / 40.0) - 1.0)).abs() < 1e-12,
            "bias {b}"
        );
    }

    #[test]
    fn estimate_range_is_monotone_in_rss() {
        let reader = Reader::mmtag_setup();
        let tag = MmTag::prototype();
        let near = estimate_range(&reader, &tag, -60.0);
        let far = estimate_range(&reader, &tag, -80.0);
        assert!(far.meters() > near.meters());
        let _ = Dbm::new(-60.0); // units sanity
    }

    #[test]
    fn empty_profile_yields_none() {
        assert!(estimate_bearing(&[]).is_none());
        let silent = [ScanSample {
            beam: Angle::ZERO,
            rss_dbm: None,
        }];
        assert!(estimate_bearing(&silent).is_none());
    }
}
