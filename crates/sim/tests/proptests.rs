//! Randomized property tests for the simulator: ordering, geometry and
//! metric invariants over arbitrary inputs, drawn deterministically from
//! the in-house [`mmtag_sim::rng`] streams.

use mmtag_rf::units::Angle;
use mmtag_sim::des::CalendarQueue;
use mmtag_sim::geom::{line_of_sight, Segment, Vec2};
use mmtag_sim::metrics::Summary;
use mmtag_sim::mobility::{Mobility, Pose, Waypoints};
use mmtag_sim::rng::{Rng, SeedTree, Xoshiro256pp};
use mmtag_sim::scene::Scene;
use mmtag_sim::time::{Duration, Instant};

const CASES: usize = 200;

fn cases(label: &'static str) -> impl Iterator<Item = Xoshiro256pp> {
    let tree = SeedTree::new(0x51A1_BEEF);
    (0..CASES).map(move |i| tree.rng_indexed(label, i as u64))
}

/// The scheduler pops events in non-decreasing time order regardless of
/// insertion order, and FIFO within equal timestamps.
#[test]
fn scheduler_global_ordering() {
    for mut rng in cases("sched-order") {
        let n = 1 + rng.index(199);
        let times: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let mut s = CalendarQueue::with_layout(Duration::from_nanos(10), 8);
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(Instant::from_nanos(t), i);
        }
        let mut last_time = 0u64;
        let mut last_seq_at_time: Option<usize> = None;
        while let Some((t, idx)) = s.pop() {
            assert!(t.as_nanos() >= last_time);
            if t.as_nanos() == last_time {
                if let Some(prev) = last_seq_at_time {
                    assert!(idx > prev, "FIFO violated at t={last_time}");
                }
            } else {
                last_time = t.as_nanos();
            }
            last_seq_at_time = Some(idx);
        }
        assert!(s.is_idle());
    }
}

/// Cancelling any subset of events pops exactly the complement.
#[test]
fn scheduler_cancellation_complement() {
    for mut rng in cases("sched-cancel") {
        let n = 1 + rng.index(49);
        let times: Vec<u64> = (0..n).map(|_| rng.below(100)).collect();
        let mut s = CalendarQueue::with_layout(Duration::from_nanos(10), 8);
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, s.schedule_at(Instant::from_nanos(t), i)))
            .collect();
        let mut expect: std::collections::BTreeSet<usize> = (0..times.len()).collect();
        for (i, h) in &handles {
            if rng.bit() {
                assert!(s.cancel(*h));
                expect.remove(i);
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some((_, idx)) = s.pop() {
            seen.insert(idx);
        }
        assert_eq!(seen, expect);
    }
}

/// Mirroring across any non-degenerate segment is an involution, and the
/// mirrored point is equidistant from every point on the line.
#[test]
fn mirror_involution() {
    for mut rng in cases("mirror") {
        let a = Vec2::new(rng.in_range(-10.0, 10.0), rng.in_range(-10.0, 10.0));
        let b = Vec2::new(rng.in_range(-10.0, 10.0), rng.in_range(-10.0, 10.0));
        if a.sub(b).norm() <= 1e-3 {
            continue; // degenerate wall
        }
        let wall = Segment::new(a, b);
        let p = Vec2::new(rng.in_range(-10.0, 10.0), rng.in_range(-10.0, 10.0));
        let img = wall.mirror(p);
        let back = wall.mirror(img);
        assert!(back.sub(p).norm() < 1e-6);
        assert!((a.sub(p).norm() - a.sub(img).norm()).abs() < 1e-6);
        assert!((b.sub(p).norm() - b.sub(img).norm()).abs() < 1e-6);
    }
}

/// When a reflection point exists, the via-wall path length equals the
/// image-to-destination distance (the image-method identity), and is
/// never shorter than the straight line.
#[test]
fn reflection_path_length_identity() {
    for mut rng in cases("reflect") {
        // Horizontal wall at y = 0, both endpoints strictly below.
        let wall = Segment::new(Vec2::new(-50.0, 0.0), Vec2::new(50.0, 0.0));
        let s = Vec2::new(rng.in_range(-10.0, 10.0), rng.in_range(-10.0, -0.1));
        let d = Vec2::new(rng.in_range(-10.0, 10.0), rng.in_range(-10.0, -0.1));
        if let Some(p) = wall.reflection_point(s, d) {
            let via = s.sub(p).norm() + p.sub(d).norm();
            let image = wall.mirror(s).sub(d).norm();
            assert!((via - image).abs() < 1e-6);
            assert!(via >= s.sub(d).norm() - 1e-9);
        }
    }
}

/// Line of sight is symmetric: p sees q iff q sees p, for any walls.
#[test]
fn los_symmetry() {
    for mut rng in cases("los-sym") {
        let p = Vec2::new(rng.in_range(-5.0, 5.0), rng.in_range(-5.0, 5.0));
        let q = Vec2::new(rng.in_range(-5.0, 5.0), rng.in_range(-5.0, 5.0));
        let n_walls = rng.index(5);
        let segs: Vec<Segment> = (0..n_walls)
            .filter_map(|_| {
                let a = Vec2::new(rng.in_range(-5.0, 5.0), rng.in_range(-5.0, 5.0));
                let b = Vec2::new(rng.in_range(-5.0, 5.0), rng.in_range(-5.0, 5.0));
                (a.sub(b).norm() > 1e-3).then(|| Segment::new(a, b))
            })
            .collect();
        assert_eq!(line_of_sight(p, q, &segs), line_of_sight(q, p, &segs));
    }
}

/// Scene path sets never contain a bounced ray shorter than the LOS
/// distance (triangle inequality through the wall).
#[test]
fn bounced_rays_longer_than_los() {
    for mut rng in cases("bounce-len") {
        let r = Vec2::new(rng.in_range(0.5, 4.5), rng.in_range(0.5, 3.5));
        let t = Vec2::new(rng.in_range(0.5, 4.5), rng.in_range(0.5, 3.5));
        if r.sub(t).norm() <= 0.2 {
            continue;
        }
        let scene = Scene::room(5.0, 4.0);
        let reader = Pose::new(r, Angle::ZERO);
        let tag = Pose::new(t, Angle::ZERO);
        let set = scene.paths(reader, tag);
        let los_len = r.sub(t).norm();
        for ray in set.rays() {
            if ray.bounces > 0 {
                assert!(ray.length.meters() >= los_len - 1e-9);
            }
        }
    }
}

/// Welford summary matches the two-pass mean/std for any data.
#[test]
fn summary_matches_two_pass() {
    for mut rng in cases("welford") {
        let n = 2 + rng.index(198);
        let xs: Vec<f64> = (0..n).map(|_| rng.in_range(-1e3, 1e3)).collect();
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-6 * (1.0 + var.sqrt()));
    }
}

/// Waypoint interpolation stays inside the path's bounding box and the
/// traversal time equals path length / speed.
#[test]
fn waypoints_bounded_and_timed() {
    for mut rng in cases("waypoints") {
        let n = 2 + rng.index(6);
        let points: Vec<Vec2> = (0..n)
            .map(|_| Vec2::new(rng.in_range(-10.0, 10.0), rng.in_range(-10.0, 10.0)))
            .collect();
        let speed = rng.in_range(0.1, 10.0);
        let frac = rng.in_range(0.0, 1.5);
        let total_len: f64 = points.windows(2).map(|w| w[1].sub(w[0]).norm()).sum();
        if total_len <= 1e-6 {
            continue;
        }
        let w = Waypoints::new(points.clone(), speed);
        assert!((w.total_time_secs() - total_len / speed).abs() < 1e-9);
        let t = Instant::ZERO + Duration::from_secs_f64(w.total_time_secs() * frac);
        let pose = w.pose_at(t);
        let (min_x, max_x) = points
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), p| (a.min(p.x), b.max(p.x)));
        let (min_y, max_y) = points
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), p| (a.min(p.y), b.max(p.y)));
        assert!(pose.position.x >= min_x - 1e-6 && pose.position.x <= max_x + 1e-6);
        assert!(pose.position.y >= min_y - 1e-6 && pose.position.y <= max_y + 1e-6);
    }
}
