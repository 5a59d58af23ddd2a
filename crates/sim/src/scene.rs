//! Scenes: a room with one reader, tags, walls and blockers.
//!
//! The scene answers the geometric half of the channel question: given the
//! reader's and a tag's poses at some instant, which propagation paths exist
//! and at what angles do they leave/arrive? §4 of the paper needs exactly
//! this: "the best communication path between the reader and the tag might
//! be a line-of-sight (LOS) path or a non-line-of-sight (NLOS) path".
//!
//! Surfaces come in two kinds:
//! * **walls** — reflect (one or two specular bounces, image method) *and*
//!   block,
//! * **blockers** — absorb only (a person, a cabinet): they kill rays that
//!   cross them but generate no reflection of their own.
//!
//! Angles are reported in each device's local frame: angle-of-departure
//! relative to the reader's boresight, angle-of-arrival relative to the
//! tag's broadside — exactly what the antenna models consume.

use crate::geom::{Segment, Vec2};
use crate::mobility::Pose;
use mmtag_channel::multipath::{Ray, RaySet, INDOOR_REFLECTION_LOSS_DB};
use mmtag_rf::units::{Angle, Db, Distance};

/// Crossing point of the open segment `p → q` with `wall` (proper interior
/// crossing only).
fn segment_crossing(p: Vec2, q: Vec2, wall: &Segment) -> Option<Vec2> {
    wall.crossing(p, q)
}

/// A static room layout. Device poses are supplied per query so mobility
/// stays orthogonal to geometry.
#[derive(Clone, Debug, Default)]
pub struct Scene {
    walls: Vec<Segment>,
    blockers: Vec<Segment>,
    reflection_loss: f64,
}

impl Scene {
    /// An empty scene (free space, LOS only).
    pub fn free_space() -> Self {
        Scene {
            walls: Vec::new(),
            blockers: Vec::new(),
            reflection_loss: INDOOR_REFLECTION_LOSS_DB,
        }
    }

    /// A rectangular room `[0, width] × [0, height]` (meters) with four
    /// reflective walls.
    pub fn room(width: f64, height: f64) -> Self {
        assert!(width > 0.0 && height > 0.0, "room must have positive size");
        let c = [
            Vec2::new(0.0, 0.0),
            Vec2::new(width, 0.0),
            Vec2::new(width, height),
            Vec2::new(0.0, height),
        ];
        let mut s = Scene::free_space();
        for i in 0..4 {
            s.walls.push(Segment::new(c[i], c[(i + 1) % 4]));
        }
        s
    }

    /// Adds a reflective wall.
    pub fn add_wall(&mut self, wall: Segment) -> &mut Self {
        self.walls.push(wall);
        self
    }

    /// Adds an absorbing blocker.
    pub fn add_blocker(&mut self, blocker: Segment) -> &mut Self {
        self.blockers.push(blocker);
        self
    }

    /// The walls.
    pub fn walls(&self) -> &[Segment] {
        &self.walls
    }

    /// The blockers.
    pub fn blockers(&self) -> &[Segment] {
        &self.blockers
    }

    /// All opaque segments (walls block too).
    fn obstacles(&self) -> impl Iterator<Item = &Segment> {
        self.walls.iter().chain(self.blockers.iter())
    }

    /// True if the straight segment `p → q` is unobstructed.
    pub fn clear(&self, p: Vec2, q: Vec2) -> bool {
        self.obstacles().all(|o| !o.blocks(p, q))
    }

    /// Computes the ray set between `reader` and `tag` poses: the LOS ray
    /// (if unobstructed) plus one specular ray per wall whose reflection
    /// point exists and whose both legs are unobstructed. For two-bounce
    /// paths use [`Self::paths_with_order`].
    pub fn paths(&self, reader: Pose, tag: Pose) -> RaySet {
        self.paths_with_order(reader, tag, 1)
    }

    /// Like [`Self::paths`], but optionally including second-order
    /// (two-bounce) specular rays via the double-image method: mirror the
    /// reader across wall A, mirror that image across wall B, and trace
    /// back B → A. Two-bounce rays matter when both the LOS *and* every
    /// single bounce are blocked (a tag around a corner).
    ///
    /// # Panics
    /// Panics for `max_bounces` outside 0–2.
    pub fn paths_with_order(&self, reader: Pose, tag: Pose, max_bounces: u8) -> RaySet {
        let mut set = RaySet::blocked();
        let rp = reader.position;
        let tp = tag.position;

        if self.clear(rp, tp) {
            set.push(Ray::los(
                rp.distance_to(tp),
                self.local_angle(reader, tp),
                self.local_angle(tag, rp),
            ));
        }

        assert!(max_bounces <= 2, "supported reflection orders: 0–2");

        if max_bounces >= 1 {
            for wall in &self.walls {
                let Some(point) = wall.reflection_point(rp, tp) else {
                    continue;
                };
                // Both legs must be clear of every *other* obstacle. The
                // reflecting wall itself cannot properly cross its own legs
                // (they terminate on it), so checking all obstacles is safe.
                if !self.clear(rp, point) || !self.clear(point, tp) {
                    continue;
                }
                let length = rp.distance_to(point) + point.distance_to(tp);
                set.push(Ray {
                    length,
                    reflection_loss: Db::new(self.reflection_loss),
                    aod_reader: self.local_angle(reader, point),
                    aoa_tag: self.local_angle(tag, point),
                    bounces: 1,
                });
            }
        }

        if max_bounces >= 2 {
            for (ia, wall_a) in self.walls.iter().enumerate() {
                for (ib, wall_b) in self.walls.iter().enumerate() {
                    if ia == ib {
                        continue;
                    }
                    // Double-image method: reader's image across A, then
                    // that image across B; the B-crossing toward the tag is
                    // the second bounce, and tracing back to A gives the
                    // first.
                    let image_a = wall_a.mirror(rp);
                    let image_ab = wall_b.mirror(image_a);
                    let Some(p2) = segment_crossing(image_ab, tp, wall_b) else {
                        continue;
                    };
                    let Some(p1) = segment_crossing(image_a, p2, wall_a) else {
                        continue;
                    };
                    if !self.clear(rp, p1) || !self.clear(p1, p2) || !self.clear(p2, tp) {
                        continue;
                    }
                    let length = rp.distance_to(p1) + p1.distance_to(p2) + p2.distance_to(tp);
                    set.push(Ray {
                        length,
                        reflection_loss: Db::new(2.0 * self.reflection_loss),
                        aod_reader: self.local_angle(reader, p1),
                        aoa_tag: self.local_angle(tag, p2),
                        bounces: 2,
                    });
                }
            }
        }
        set
    }

    /// Bearing from a device to a target point, in the device's local frame
    /// (0 = boresight/broadside).
    fn local_angle(&self, device: Pose, target: Vec2) -> Angle {
        (device.position.bearing_to(target) - device.orientation).normalized()
    }

    /// Distance between two poses (convenience for experiments).
    pub fn range(reader: &Pose, tag: &Pose) -> Distance {
        reader.position.distance_to(tag.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn face_to_face(feet: f64) -> (Pose, Pose) {
        // Reader at origin looking +x; tag `feet` away looking back (−x).
        let reader = Pose::new(Vec2::ORIGIN, Angle::ZERO);
        let tag = Pose::new(Vec2::from_feet(feet, 0.0), Angle::from_degrees(180.0));
        (reader, tag)
    }

    #[test]
    fn free_space_has_exactly_los() {
        let scene = Scene::free_space();
        let (r, t) = face_to_face(4.0);
        let set = scene.paths(r, t);
        assert_eq!(set.rays().len(), 1);
        let los = set.los().unwrap();
        assert!((los.length.feet() - 4.0).abs() < 1e-9);
        assert!(los.aod_reader.degrees().abs() < 1e-9);
        assert!(
            los.aoa_tag.degrees().abs() < 1e-6,
            "tag sees reader at broadside"
        );
    }

    #[test]
    fn rotated_tag_sees_oblique_arrival() {
        let scene = Scene::free_space();
        let reader = Pose::new(Vec2::ORIGIN, Angle::ZERO);
        // Tag 3 m away, facing 150° instead of 180°: arrival 30° off
        // broadside.
        let tag = Pose::new(Vec2::new(3.0, 0.0), Angle::from_degrees(150.0));
        let set = scene.paths(reader, tag);
        let los = set.los().unwrap();
        assert!((los.aoa_tag.degrees() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn room_adds_wall_reflections() {
        let scene = Scene::room(10.0, 6.0);
        let reader = Pose::new(Vec2::new(2.0, 3.0), Angle::ZERO);
        let tag = Pose::new(Vec2::new(8.0, 3.0), Angle::from_degrees(180.0));
        let set = scene.paths(reader, tag);
        // LOS + four single-bounce rays: top and bottom walls give the
        // classic oblique reflections; the left and right end walls give
        // collinear "behind the reader / behind the tag" bounces along the
        // axis (real paths, albeit ones a directional reader would reject
        // by beam selection).
        assert!(set.los().is_some());
        let bounced = set.rays().iter().filter(|r| r.bounces == 1).count();
        assert_eq!(bounced, 4, "rays: {:?}", set.rays());
        for r in set.rays().iter().filter(|r| r.bounces == 1) {
            assert!(r.length.meters() > 6.0, "bounced ray longer than LOS");
            assert!((r.reflection_loss.db() - INDOOR_REFLECTION_LOSS_DB).abs() < 1e-9);
        }
    }

    #[test]
    fn blocker_kills_los_but_not_reflection() {
        // §4's scenario: LOS blocked ⇒ the link must use the NLOS path.
        let mut scene = Scene::room(10.0, 6.0);
        scene.add_blocker(Segment::new(Vec2::new(5.0, 2.5), Vec2::new(5.0, 3.5)));
        let reader = Pose::new(Vec2::new(2.0, 3.0), Angle::ZERO);
        let tag = Pose::new(Vec2::new(8.0, 3.0), Angle::from_degrees(180.0));
        let set = scene.paths(reader, tag);
        assert!(set.los().is_none(), "LOS must be blocked");
        assert!(!set.rays().is_empty(), "NLOS rays must survive");
        assert!(set.rays().iter().all(|r| r.bounces == 1));
    }

    #[test]
    fn full_blockage_yields_empty_set() {
        let mut scene = Scene::free_space();
        // A long absorbing screen between reader and tag, no walls at all.
        scene.add_blocker(Segment::new(Vec2::new(1.5, -50.0), Vec2::new(1.5, 50.0)));
        let (r, t) = face_to_face(10.0);
        let set = scene.paths(r, t);
        assert!(set.rays().is_empty());
    }

    #[test]
    fn reflection_angles_are_consistent() {
        // Reader and tag both 1 m below a wall at y = 2, 6 m apart: the
        // bounce point is midway, so AoD ≈ AoA magnitudes match by symmetry.
        let mut scene = Scene::free_space();
        scene.add_wall(Segment::new(Vec2::new(-10.0, 2.0), Vec2::new(10.0, 2.0)));
        let reader = Pose::new(Vec2::new(-3.0, 1.0), Angle::ZERO);
        let tag = Pose::new(Vec2::new(3.0, 1.0), Angle::from_degrees(180.0));
        let set = scene.paths(reader, tag);
        let bounce = set.rays().iter().find(|r| r.bounces == 1).unwrap();
        // Bounce point at (0, 2): AoD = atan2(1, 3) ≈ 18.4° up at reader;
        // tag (facing −x) sees it at −18.4° in its own frame.
        assert!((bounce.aod_reader.degrees() - 18.43).abs() < 0.05);
        assert!((bounce.aoa_tag.degrees() + 18.43).abs() < 0.05);
        let expected_len = 2.0 * (3.0f64.powi(2) + 1.0).sqrt();
        assert!((bounce.length.meters() - expected_len).abs() < 1e-9);
    }

    #[test]
    fn range_helper() {
        let (r, t) = face_to_face(7.0);
        assert!((Scene::range(&r, &t).feet() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn two_bounce_rays_appear_only_when_requested() {
        let scene = Scene::room(6.0, 4.0);
        let reader = Pose::new(Vec2::new(1.5, 2.0), Angle::ZERO);
        let tag = Pose::new(Vec2::new(4.5, 2.0), Angle::from_degrees(180.0));
        let first = scene.paths(reader, tag);
        assert!(first.rays().iter().all(|r| r.bounces <= 1));
        let second = scene.paths_with_order(reader, tag, 2);
        let doubles = second.rays().iter().filter(|r| r.bounces == 2).count();
        assert!(doubles > 0, "parallel walls must produce two-bounce rays");
        // Every single-bounce ray of the first set is still present.
        assert_eq!(
            second.rays().iter().filter(|r| r.bounces <= 1).count(),
            first.rays().len()
        );
    }

    #[test]
    fn two_bounce_length_matches_double_image() {
        // Parallel walls y = 0 and y = 4: the bottom-then-top path length
        // equals the distance from the doubly-mirrored reader to the tag.
        let scene = Scene::room(20.0, 4.0);
        let reader = Pose::new(Vec2::new(8.0, 1.0), Angle::ZERO);
        let tag = Pose::new(Vec2::new(12.0, 1.0), Angle::from_degrees(180.0));
        let set = scene.paths_with_order(reader, tag, 2);
        let bottom = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(20.0, 0.0));
        let top = Segment::new(Vec2::new(0.0, 4.0), Vec2::new(20.0, 4.0));
        let image = top.mirror(bottom.mirror(reader.position));
        let expected = image.distance_to(tag.position).meters();
        let found = set
            .rays()
            .iter()
            .filter(|r| r.bounces == 2)
            .any(|r| (r.length.meters() - expected).abs() < 1e-9);
        assert!(found, "double-image length {expected} must appear");
        // And each two-bounce ray pays the reflection loss twice.
        for r in set.rays().iter().filter(|r| r.bounces == 2) {
            assert!((r.reflection_loss.db() - 2.0 * INDOOR_REFLECTION_LOSS_DB).abs() < 1e-9);
        }
    }

    #[test]
    fn around_the_corner_needs_two_bounces() {
        // An L-corridor: the tag is around a 90° corner. LOS and all
        // single bounces are blocked by the inner corner wall; the
        // two-bounce path (outer walls) survives.
        let mut scene = Scene::free_space();
        // Outer walls of the L.
        scene.add_wall(Segment::new(Vec2::new(0.0, 0.0), Vec2::new(6.0, 0.0)));
        scene.add_wall(Segment::new(Vec2::new(6.0, 0.0), Vec2::new(6.0, 6.0)));
        // Inner corner blocker (absorbing clutter at the corner): sized so
        // it occludes the LOS and both single bounces, but the low, wide
        // two-bounce path (down to the bottom wall, across, up the right
        // wall) passes beneath/outside it.
        scene.add_blocker(Segment::new(Vec2::new(2.5, 2.5), Vec2::new(3.5, 2.5)));
        scene.add_blocker(Segment::new(Vec2::new(3.5, 2.5), Vec2::new(3.5, 3.5)));
        let reader = Pose::new(Vec2::new(1.0, 1.0), Angle::ZERO);
        let tag = Pose::new(Vec2::new(5.2, 5.0), Angle::from_degrees(-90.0));

        let first_order = scene.paths(reader, tag);
        assert!(first_order.los().is_none(), "corner must block LOS");
        let second = scene.paths_with_order(reader, tag, 2);
        let has_double = second.rays().iter().any(|r| r.bounces == 2);
        assert!(
            has_double,
            "two-bounce path must round the corner: {:?}",
            second.rays()
        );
    }

    #[test]
    #[should_panic(expected = "reflection orders")]
    fn absurd_bounce_order_is_a_bug() {
        let scene = Scene::free_space();
        let p = Pose::new(Vec2::ORIGIN, Angle::ZERO);
        let _ = scene.paths_with_order(p, p, 3);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn degenerate_room_is_a_bug() {
        let _ = Scene::room(0.0, 5.0);
    }
}
