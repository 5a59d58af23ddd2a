//! Explicit-ray multipath: the LOS/NLOS behaviour of §4.
//!
//! "Note, the best communication path between the reader and the tag might be
//! a line-of-sight (LOS) path or a non-line-of-sight (NLOS) path. In
//! particular, when the line-of-sight (LOS) path is blocked, the tag and the
//! reader chooses an NLOS path to communicate."
//!
//! mmWave propagation indoors is well described by a handful of discrete
//! specular rays (the diffuse floor is tens of dB down), so we model the
//! channel as an explicit set of [`Ray`]s — one LOS plus one per usable
//! wall/ceiling reflection — each with its own geometry and reflection loss.
//! The geometry (which rays exist, their angles and lengths) is produced by
//! `mmtag-sim`'s scene; this module owns the *power bookkeeping*: picking the
//! best ray and coherently/non-coherently combining them.

use mmtag_rf::units::{Angle, Db, Distance};

/// One propagation path between reader and tag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ray {
    /// Total one-way path length (reader → tag along this ray).
    pub length: Distance,
    /// Accumulated reflection loss along the ray (0 dB for LOS), positive.
    pub reflection_loss: Db,
    /// Departure angle at the reader, relative to the reader's boresight
    /// scan reference.
    pub aod_reader: Angle,
    /// Arrival angle at the tag, relative to the tag's broadside.
    pub aoa_tag: Angle,
    /// Number of wall bounces (0 = LOS).
    pub bounces: u8,
}

impl Ray {
    /// A direct line-of-sight ray.
    pub fn los(length: Distance, aod_reader: Angle, aoa_tag: Angle) -> Self {
        Ray {
            length,
            reflection_loss: Db::ZERO,
            aod_reader,
            aoa_tag,
            bounces: 0,
        }
    }

    /// True for the direct path.
    pub fn is_los(&self) -> bool {
        self.bounces == 0
    }
}

/// Typical reflection loss of one bounce off an indoor surface at 24 GHz
/// (painted drywall / concrete averages 5–10 dB; we use 7 dB).
pub const INDOOR_REFLECTION_LOSS_DB: f64 = 7.0;

/// A set of rays forming one reader↔tag channel snapshot.
#[derive(Clone, Debug, Default)]
pub struct RaySet {
    rays: Vec<Ray>,
}

impl RaySet {
    /// An empty (fully blocked) channel.
    pub fn blocked() -> Self {
        RaySet { rays: Vec::new() }
    }

    /// Builds a set from rays.
    pub fn from_rays(rays: Vec<Ray>) -> Self {
        RaySet { rays }
    }

    /// Adds a ray.
    pub fn push(&mut self, ray: Ray) {
        self.rays.push(ray);
    }

    /// All rays.
    pub fn rays(&self) -> &[Ray] {
        &self.rays
    }

    /// The LOS ray, if present.
    pub fn los(&self) -> Option<&Ray> {
        self.rays.iter().find(|r| r.is_los())
    }

    /// The strongest ray under a per-ray link evaluation `f`, which maps a
    /// ray to received power in dBm (the reader's beam-searching outcome:
    /// after scanning, reader and tag communicate over the best single beam).
    pub fn best_ray_by<F: Fn(&Ray) -> f64>(&self, f: F) -> Option<(&Ray, f64)> {
        self.rays
            .iter()
            .map(|r| (r, f(r)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> RaySet {
        RaySet::from_rays(vec![
            Ray::los(
                Distance::from_feet(6.0),
                Angle::from_degrees(0.0),
                Angle::from_degrees(10.0),
            ),
            Ray {
                length: Distance::from_feet(9.0),
                reflection_loss: Db::new(INDOOR_REFLECTION_LOSS_DB),
                aod_reader: Angle::from_degrees(35.0),
                aoa_tag: Angle::from_degrees(-25.0),
                bounces: 1,
            },
        ])
    }

    /// Toy per-ray evaluation: d⁻⁴ spreading plus reflection loss.
    fn eval(r: &Ray) -> f64 {
        -40.0 * r.length.meters().log10() - 2.0 * r.reflection_loss.db()
    }

    #[test]
    fn los_beats_nlos_when_present() {
        let set = sample_set();
        let (best, _) = set.best_ray_by(eval).unwrap();
        assert!(best.is_los());
    }

    #[test]
    fn blocking_los_falls_back_to_reflection() {
        // §4's claim: with LOS blocked the link survives on the NLOS ray.
        let all = sample_set();
        let set = RaySet::from_rays(all.rays().iter().filter(|r| !r.is_los()).copied().collect());
        assert!(!set.rays().is_empty());
        let (best, p) = set.best_ray_by(eval).unwrap();
        assert_eq!(best.bounces, 1);
        assert!(p < eval(&sample_set().rays()[0]), "NLOS is weaker than LOS");
    }

    #[test]
    fn fully_blocked_channel_reports_none() {
        let set = RaySet::blocked();
        assert!(set.rays().is_empty());
        assert!(set.best_ray_by(eval).is_none());
    }

    #[test]
    fn los_constructor_sets_zero_bounces_and_loss() {
        let r = Ray::los(Distance::from_feet(5.0), Angle::ZERO, Angle::ZERO);
        assert!(r.is_los());
        assert_eq!(r.reflection_loss, Db::ZERO);
    }
}
