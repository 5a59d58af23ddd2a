//! 2-D geometry: vectors, wall segments, line-of-sight and image-method
//! reflections.
//!
//! The scenes the paper cares about (a reader scanning a room of tags, §4's
//! LOS/NLOS switching) live comfortably in 2-D: reader and tags share a
//! horizontal plane and walls are vertical. Everything here is exact
//! straight-edge geometry — no meshes, no tolerance knobs beyond an explicit
//! epsilon for endpoint grazing.

use mmtag_rf::math::LANES;
use mmtag_rf::units::{Angle, Distance};

/// Geometric tolerance for intersection tests, meters.
const EPS: f64 = 1e-9;

/// An upper bound, in meters, on how far off the path `p → q` plus how far
/// off the wall `a → b` the exact crossing point of a pair
/// [`Segment::blocks`] accepts can lie, given `|q − p| ≤ path_len`,
/// `|b − a| ≤ wall_len` and `|a − p| ≤ span`; infinity where rounding can
/// place it anywhere. A caller that needs every wall able to block the
/// paths inside a region searches this far past the region.
///
/// The crossing test rounds `r = q − p`, `s = b − a`, `qp = a − p`, the
/// cross products `denom = r×s`, `qp×s` and `qp×r`, and the quotients
/// `t = qp×s / denom`, `u = qp×r / denom`. A rounded cross product `a×b`
/// is off by at most `γ|a||b|`, `γ = 2⁻⁵² + 2⁻¹⁰⁶`: two products and a
/// difference round once each, and `|a.x·b.y| + |a.y·b.x| ≤ |a||b|`.
/// The test accepts only a computed `t` inside `(0, 1)` with
/// `|denom| ≥ EPS`, and division rounds monotonically, so the rounded
/// `qp×s` lies strictly between 0 and the rounded `denom`. The exact
/// `t* = qp×s / denom` is then in `(−δ_t, 1 + δ_t)` with
/// `δ_t = γ|s|(|qp| + |r|) / (EPS − γ|r||s|)`, so the crossing lies within
/// `δ_t|r|` of the path; likewise `u*` with
/// `δ_u = γ|r|(|qp| + |s|) / (EPS − γ|r||s|)` and `δ_u|s|` of the wall.
/// The rounded differences move the segments by a few ulps of the
/// coordinates more.
pub fn crossing_slack(path_len: f64, wall_len: f64, span: f64) -> f64 {
    // The double just above γ.
    const GAMMA: f64 = f64::EPSILON * (1.0 + f64::EPSILON);
    let room = EPS - GAMMA * path_len * wall_len;
    if room <= 0.0 {
        return f64::INFINITY;
    }
    let (rs, qr, qs) = (path_len * wall_len, span * path_len, span * wall_len);
    GAMMA * (path_len * (qs + rs) + wall_len * (qr + rs)) / room
}

/// A 2-D point/vector in meters.
///
/// `add`/`sub` are inherent methods rather than `std::ops` impls on
/// purpose: scene code reads better with explicit names, and the clippy
/// lint is acknowledged.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Vec2 {
    /// X coordinate, meters.
    pub x: f64,
    /// Y coordinate, meters.
    pub y: f64,
}

#[allow(clippy::should_implement_trait)] // explicit add/sub read better here
impl Vec2 {
    /// The origin.
    pub const ORIGIN: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a point from meter coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Creates a point from foot coordinates (the paper's unit).
    pub fn from_feet(x_ft: f64, y_ft: f64) -> Self {
        Vec2 {
            x: Distance::from_feet(x_ft).meters(),
            y: Distance::from_feet(y_ft).meters(),
        }
    }

    /// Vector difference `self − other`.
    pub fn sub(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }

    /// Vector sum.
    pub fn add(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x + other.x, self.y + other.y)
    }

    /// Scalar multiple.
    pub fn scale(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 2-D cross product (signed parallelogram area).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length (`x² + y²`) — no square root.
    ///
    /// Radius tests in hot paths (spatial-hash coverage and culling
    /// queries) compare `norm_sq() <= r * r` instead of `norm() <= r`:
    /// same boundary-inclusive predicate, one `sqrt` cheaper per
    /// candidate. Note the subtlety this sidesteps: [`Vec2::norm`] uses
    /// `hypot`, which is *more* accurate than `sqrt(x² + y²)`, so the two
    /// predicates are only guaranteed to agree where the squared form is
    /// exact — the equivalence test pins integer-exact boundary cases.
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    pub fn distance_to(self, other: Vec2) -> Distance {
        Distance::from_meters(self.sub(other).norm())
    }

    /// Squared distance to another point, in m² — the sqrt-free form of
    /// [`Vec2::distance_to`] for coverage/culling comparisons.
    pub fn dist_sq(self, other: Vec2) -> f64 {
        self.sub(other).norm_sq()
    }

    /// The absolute bearing of the vector from `self` to `target`
    /// (atan2 convention: 0 along +x, counterclockwise positive).
    pub fn bearing_to(self, target: Vec2) -> Angle {
        let d = target.sub(self);
        Angle::from_radians(d.y.atan2(d.x))
    }
}

/// A wall (or blocker) segment between two endpoints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Vec2,
    /// Second endpoint.
    pub b: Vec2,
}

impl Segment {
    /// Creates a segment.
    ///
    /// # Panics
    /// Panics on a degenerate (zero-length) segment.
    pub fn new(a: Vec2, b: Vec2) -> Self {
        assert!(a.sub(b).norm() > EPS, "degenerate wall segment");
        Segment { a, b }
    }

    /// Segment length.
    pub fn length(&self) -> Distance {
        self.a.distance_to(self.b)
    }

    /// True if the open segment `p→q` properly intersects this segment
    /// (shared endpoints / grazing contacts within EPS do not count —
    /// a ray leaving a wall it reflected from must not re-hit it).
    pub fn blocks(&self, p: Vec2, q: Vec2) -> bool {
        segment_intersection(p, q, self.a, self.b).is_some()
    }

    /// Proper interior crossing point of the open segment `p → q` with
    /// this segment, if any (same predicate as [`Self::blocks`], but
    /// returning the point).
    pub fn crossing(&self, p: Vec2, q: Vec2) -> Option<Vec2> {
        segment_intersection(p, q, self.a, self.b)
    }

    /// The point a fraction `t` of the way from `a` to `b`.
    fn at(&self, t: f64) -> Vec2 {
        self.a.add(self.b.sub(self.a).scale(t))
    }

    /// The fraction `t` (0 at `a`, 1 at `b`) of `p`'s orthogonal
    /// projection onto this segment's infinite line.
    fn project(&self, p: Vec2) -> f64 {
        let d = self.b.sub(self.a);
        p.sub(self.a).dot(d) / d.dot(d)
    }

    /// Mirror image of a point across this segment's infinite line.
    pub fn mirror(&self, p: Vec2) -> Vec2 {
        let foot = self.at(self.project(p));
        foot.add(foot.sub(p))
    }

    /// Squared distance from `p` to this segment's nearest point, m².
    pub fn dist_sq(&self, p: Vec2) -> f64 {
        self.at(self.project(p).clamp(0.0, 1.0)).dist_sq(p)
    }

    /// The specular reflection point on this segment for a path from `src`
    /// to `dst`, if the image-method ray actually crosses the segment.
    pub fn reflection_point(&self, src: Vec2, dst: Vec2) -> Option<Vec2> {
        let image = self.mirror(src);
        segment_intersection(image, dst, self.a, self.b)
    }

    /// [`Self::blocks`] for [`LANES`] paths that share their end `q`: bit
    /// `l` of the result is `self.blocks(Vec2::new(px[l], py[l]), q)`.
    ///
    /// The branch-free lane form of the scalar crossing test
    /// (`segment_intersection`): the same operands and the same IEEE
    /// operations in the same order (no `mul_add`), with `|denom| ≥ EPS`
    /// and the range margins as masks instead of branches, so every
    /// lane's verdict equals the scalar one. A lane whose `|denom|` is
    /// below `EPS` divides anyway, but its mask is clear; a NaN `denom`
    /// fails both forms' `t` tests.
    pub fn blocks_lanes(&self, px: &[f64; LANES], py: &[f64; LANES], q: Vec2) -> u8 {
        let s = self.b.sub(self.a);
        let mut hits = 0u8;
        for l in 0..LANES {
            let (rx, ry) = (q.x - px[l], q.y - py[l]);
            let denom = rx * s.y - ry * s.x;
            let (qpx, qpy) = (self.a.x - px[l], self.a.y - py[l]);
            let t = (qpx * s.y - qpy * s.x) / denom;
            let u = (qpx * ry - qpy * rx) / denom;
            let hit = (denom.abs() >= EPS)
                & (t > CROSSING_MARGIN)
                & (t < 1.0 - CROSSING_MARGIN)
                & (u > CROSSING_MARGIN)
                & (u < 1.0 - CROSSING_MARGIN);
            hits |= u8::from(hit) << l;
        }
        hits
    }
}

/// How far inside `(0, 1)` both segments' crossing parameters must lie
/// for a proper crossing: endpoint grazing within it does not count.
const CROSSING_MARGIN: f64 = 1e-7;

/// Proper intersection point of segments `p1→p2` and `p3→p4`, excluding
/// near-parallel and endpoint-grazing cases.
fn segment_intersection(p1: Vec2, p2: Vec2, p3: Vec2, p4: Vec2) -> Option<Vec2> {
    let r = p2.sub(p1);
    let s = p4.sub(p3);
    let denom = r.cross(s);
    if denom.abs() < EPS {
        return None; // parallel or collinear: treat as no proper crossing
    }
    let qp = p3.sub(p1);
    let t = qp.cross(s) / denom;
    let u = qp.cross(r) / denom;
    let margin = CROSSING_MARGIN;
    if t > margin && t < 1.0 - margin && u > margin && u < 1.0 - margin {
        Some(p1.add(r.scale(t)))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a.add(b), Vec2::new(4.0, 1.0));
        assert_eq!(a.sub(b), Vec2::new(-2.0, 3.0));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
        assert!((Vec2::new(3.0, 4.0).norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn squared_forms_match_their_sqrt_counterparts() {
        let a = Vec2::new(1.5, -2.25);
        let b = Vec2::new(-0.5, 1.75);
        assert!((a.norm_sq() - a.norm() * a.norm()).abs() < 1e-12);
        let d = a.distance_to(b).meters();
        assert!((a.dist_sq(b) - d * d).abs() < 1e-12);
    }

    #[test]
    fn squared_radius_test_is_boundary_inclusive() {
        // Exactly-representable 3-4-5 geometry: the boundary case where
        // `dist_sq <= r²` and `distance_to <= r` must agree *inclusively*
        // (a tag sitting exactly on the coverage circle is covered).
        let reader = Vec2::new(1.0, 2.0);
        let on_boundary = Vec2::new(4.0, 6.0); // distance exactly 5
        let r = 5.0;
        assert_eq!(on_boundary.dist_sq(reader), 25.0);
        assert!(on_boundary.dist_sq(reader) <= r * r, "boundary is inside");
        assert!(on_boundary.distance_to(reader).meters() <= r);
        // Just outside / just inside agree with the sqrt predicate too.
        let outside = Vec2::new(4.0, 6.001);
        let inside = Vec2::new(4.0, 5.999);
        assert_eq!(
            outside.dist_sq(reader) <= r * r,
            outside.distance_to(reader).meters() <= r
        );
        assert_eq!(
            inside.dist_sq(reader) <= r * r,
            inside.distance_to(reader).meters() <= r
        );
        // And across a fan of integer Pythagorean triples the predicates
        // agree exactly on the boundary, where both forms are exact.
        for (x, y, h) in [(3.0, 4.0, 5.0), (5.0, 12.0, 13.0), (8.0, 15.0, 17.0)] {
            let p = Vec2::new(x, y);
            assert_eq!(p.norm_sq(), h * h);
            assert!(p.norm_sq() <= h * h && p.norm() <= h);
        }
    }

    #[test]
    fn feet_constructor_matches_distance() {
        let p = Vec2::from_feet(10.0, 0.0);
        assert!((p.x - 3.048).abs() < 1e-12);
    }

    #[test]
    fn bearing_is_atan2() {
        let o = Vec2::ORIGIN;
        assert!((o.bearing_to(Vec2::new(1.0, 0.0)).degrees()).abs() < 1e-9);
        assert!((o.bearing_to(Vec2::new(0.0, 1.0)).degrees() - 90.0).abs() < 1e-9);
        assert!((o.bearing_to(Vec2::new(-1.0, 0.0)).degrees() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn crossing_segments_block() {
        let wall = Segment::new(Vec2::new(0.0, -1.0), Vec2::new(0.0, 1.0));
        assert!(wall.blocks(Vec2::new(-1.0, 0.0), Vec2::new(1.0, 0.0)));
        assert!(!wall.blocks(Vec2::new(-1.0, 2.0), Vec2::new(1.0, 2.0)));
    }

    #[test]
    fn parallel_paths_do_not_block() {
        let wall = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(0.0, 1.0));
        assert!(!wall.blocks(Vec2::new(1.0, 0.0), Vec2::new(1.0, 1.0)));
    }

    #[test]
    fn endpoint_grazing_does_not_block() {
        let wall = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(0.0, 1.0));
        // Path passing exactly through the wall's endpoint.
        assert!(!wall.blocks(Vec2::new(-1.0, 1.0), Vec2::new(1.0, 1.0)));
    }

    #[test]
    fn mirror_across_vertical_wall() {
        let wall = Segment::new(Vec2::new(2.0, -5.0), Vec2::new(2.0, 5.0));
        let img = wall.mirror(Vec2::new(0.0, 1.0));
        assert!((img.x - 4.0).abs() < 1e-12);
        assert!((img.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dist_sq_is_to_the_nearest_point() {
        let wall = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(4.0, 0.0));
        assert_eq!(wall.dist_sq(Vec2::new(1.0, 3.0)), 9.0);
        assert_eq!(wall.dist_sq(Vec2::new(-3.0, 4.0)), 25.0);
        assert_eq!(wall.dist_sq(Vec2::new(7.0, -4.0)), 25.0);
        assert_eq!(wall.dist_sq(Vec2::new(2.0, 0.0)), 0.0);
    }

    #[test]
    fn crossing_slack_grows_with_the_geometry() {
        // 37.5 m paths and 40 m walls whose endpoints lie ≤ 313.3 m from
        // the path's start: the 4 × 4 city.
        let city = crossing_slack(37.5, 40.0, 313.3);
        assert!(city > 0.2 && city < 0.24, "{city}");
        assert!(crossing_slack(37.5, 40.0, 1500.0) > 1.0);
        assert_eq!(crossing_slack(0.0, 40.0, 313.3), 0.0);
        // Where γ|r||s| reaches EPS rounding can put a crossing anywhere.
        assert_eq!(crossing_slack(3e3, 3e3, 1.0), f64::INFINITY);
    }

    #[test]
    fn mirror_is_involutive() {
        let wall = Segment::new(Vec2::new(-1.0, 3.0), Vec2::new(4.0, -2.0));
        let p = Vec2::new(0.7, 1.9);
        let back = wall.mirror(wall.mirror(p));
        assert!(back.sub(p).norm() < 1e-9);
    }

    #[test]
    fn reflection_point_obeys_specular_law() {
        // Horizontal wall at y = 2; src and dst below it.
        let wall = Segment::new(Vec2::new(-10.0, 2.0), Vec2::new(10.0, 2.0));
        let src = Vec2::new(-3.0, 0.0);
        let dst = Vec2::new(5.0, 1.0);
        let p = wall.reflection_point(src, dst).expect("must reflect");
        assert!((p.y - 2.0).abs() < 1e-9);
        // Angle of incidence equals angle of reflection: compare slopes
        // of the two legs against the wall normal.
        let in_dx = (p.x - src.x).abs();
        let in_dy = (p.y - src.y).abs();
        let out_dx = (dst.x - p.x).abs();
        let out_dy = (dst.y - p.y).abs();
        assert!((in_dy / in_dx - out_dy / out_dx).abs() < 1e-9);
        // Path length through the reflection equals the image distance.
        let via = src.distance_to(p).meters() + p.distance_to(dst).meters();
        let image = wall.mirror(src).distance_to(dst).meters();
        assert!((via - image).abs() < 1e-9);
    }

    #[test]
    fn reflection_point_outside_segment_is_none() {
        // Short wall: the specular point would fall beyond its end.
        let wall = Segment::new(Vec2::new(0.0, 2.0), Vec2::new(0.5, 2.0));
        let src = Vec2::new(-5.0, 0.0);
        let dst = Vec2::new(5.0, 0.0);
        assert!(wall.reflection_point(src, dst).is_none());
    }

    #[test]
    fn reflection_needs_both_points_on_same_side() {
        // dst behind the wall: the image ray crosses, but physically this
        // is transmission, not reflection. The image method still finds a
        // crossing — scene code must LOS-check both legs; here we just
        // document that the geometric crossing exists.
        let wall = Segment::new(Vec2::new(-10.0, 2.0), Vec2::new(10.0, 2.0));
        let src = Vec2::new(0.0, 0.0);
        let dst_same_side = Vec2::new(4.0, 0.5);
        assert!(wall.reflection_point(src, dst_same_side).is_some());
    }

    #[test]
    fn line_of_sight_multiple_walls() {
        let walls = [
            Segment::new(Vec2::new(1.0, -1.0), Vec2::new(1.0, 1.0)),
            Segment::new(Vec2::new(3.0, -1.0), Vec2::new(3.0, 1.0)),
        ];
        let clear = |q: Vec2| walls.iter().all(|w| !w.blocks(Vec2::ORIGIN, q));
        assert!(!clear(Vec2::new(2.0, 0.0)));
        assert!(!clear(Vec2::new(4.0, 0.0)));
        assert!(clear(Vec2::new(0.5, 0.0)));
        assert!(clear(Vec2::new(-2.0, 0.0)));
    }

    /// Asserts every lane of [`Segment::blocks_lanes`] over the paths
    /// `ps[l] → q` equals [`Segment::blocks`], and returns the verdicts.
    fn lanes_match_scalar(wall: &Segment, ps: [Vec2; LANES], q: Vec2) -> [bool; LANES] {
        let hits = wall.blocks_lanes(&ps.map(|p| p.x), &ps.map(|p| p.y), q);
        std::array::from_fn(|l| {
            let scalar = wall.blocks(ps[l], q);
            assert_eq!(
                hits >> l & 1 == 1,
                scalar,
                "lane {l}: {wall:?}, {:?} → {q:?}",
                ps[l]
            );
            scalar
        })
    }

    #[test]
    fn lane_wall_test_matches_the_scalar_one() {
        use crate::rng::{Rng, SeedTree};
        let both = |v: &[bool]| v.contains(&true) && v.contains(&false);
        // Random walls and paths over a 100 m square.
        let mut rng = SeedTree::new(0x1A4E).rng("lane-walls");
        let mut point = || Vec2::new(rng.f64() * 100.0, rng.f64() * 100.0);
        let mut verdicts = Vec::new();
        for _ in 0..20_000 {
            let wall = Segment::new(point(), point());
            let q = point();
            verdicts.extend(lanes_match_scalar(
                &wall,
                std::array::from_fn(|_| point()),
                q,
            ));
        }
        assert!(both(&verdicts), "random cases cross and miss");

        // Parallel to the wall and collinear with it: `denom` is 0.
        let wall = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0));
        let xs = [-3.0, -1.0, 0.0, 2.5, 5.0, 9.0, 10.0, 12.0];
        for y in [0.0, 1.0] {
            let hits = lanes_match_scalar(&wall, xs.map(|x| Vec2::new(x, y)), Vec2::new(20.0, y));
            assert_eq!(hits, [false; LANES], "y = {y}");
        }

        // `|denom|` straddling `EPS`, with the crossing mid-path and
        // mid-wall: the wall runs from (−δ, 1) to (δ, 2), δ = EPS/6, and a
        // path from (x, 3) to the origin has `denom` = EPS − x.
        let delta = EPS / 6.0;
        let wall = Segment::new(Vec2::new(-delta, 1.0), Vec2::new(delta, 2.0));
        let ps = std::array::from_fn(|l| Vec2::new(EPS * (l as f64 - 3.5) * 1e-3, 3.0));
        let hits = lanes_match_scalar(&wall, ps, Vec2::ORIGIN);
        assert!(both(&hits), "|denom| on both sides of EPS: {hits:?}");

        // Crossings with `t` or `u` within the margin of 0 or 1. The wall
        // is x = 0 from y = −1 to 1 and the paths end at q = (1, 0), so a
        // path from (x, y) crosses at t = −x / (1 − x) and u = (1 + y/(1 − x)) / 2.
        let wall = Segment::new(Vec2::new(0.0, -1.0), Vec2::new(0.0, 1.0));
        let q = Vec2::new(1.0, 0.0);
        let m = CROSSING_MARGIN;
        for edge in [m, 1.0 - m] {
            let near = |l: usize| edge + (l as f64 - 3.5) * 1e-12;
            // t near the edge, u = 1/2.
            let ps = std::array::from_fn(|l| Vec2::new(-near(l) / (1.0 - near(l)), 0.0));
            let hits = lanes_match_scalar(&wall, ps, q);
            assert!(both(&hits), "t near {edge}: {hits:?}");
            // u near the edge, t = 1/2 (start at x = −1).
            let ps = std::array::from_fn(|l| Vec2::new(-1.0, 4.0 * near(l) - 2.0));
            let hits = lanes_match_scalar(&wall, ps, q);
            assert!(both(&hits), "u near {edge}: {hits:?}");
        }

        // A wall endpoint on the path (u = 0 or 1 exactly), beside proper
        // crossings and misses.
        let ps =
            [(-1.0, -2.0), (-1.0, 2.0), (-1.0, 0.0), (-1.0, 0.5)].map(|(x, y)| Vec2::new(x, y));
        let ps = std::array::from_fn(|l| ps[l % 4]);
        let hits = lanes_match_scalar(&wall, ps, q);
        assert_eq!(hits[..4], [false, false, true, true]);

        // Padding lanes past a chunk's end sit at the origin or at the
        // path's own end (a zero-length path) and leave the live lanes'
        // verdicts alone.
        let live = Vec2::new(-1.0, 0.0);
        let ps = std::array::from_fn(|l| [live, Vec2::ORIGIN, q][l % 3]);
        let hits = lanes_match_scalar(&wall, ps, q);
        assert_eq!(hits[..3], [true, false, false]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_length_wall_is_a_bug() {
        let _ = Segment::new(Vec2::ORIGIN, Vec2::ORIGIN);
    }
}
