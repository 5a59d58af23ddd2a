//! Randomized property tests for the simulator: ordering, geometry and
//! metric invariants over arbitrary inputs, drawn deterministically from
//! the in-house [`mmtag_sim::rng`] streams.

use mmtag_rf::units::Angle;
use mmtag_sim::des::CalendarQueue;
use mmtag_sim::geom::{Segment, Vec2};
use mmtag_sim::json::{parse_flat, parse_json, Json, Scalar, FLAT_MEMBERS};
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
        assert_eq!(s.pending(), 0);
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
        let clear = |p: Vec2, q: Vec2| segs.iter().all(|w| !w.blocks(p, q));
        assert_eq!(clear(p, q), clear(q, p));
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

/// A random JSON number lexeme: optional sign, a lone zero or a nonzero
/// digit run, then an optional fraction and exponent.
fn number_lexeme(rng: &mut Xoshiro256pp) -> String {
    let mut n = String::from(if rng.chance(0.3) { "-" } else { "" });
    if rng.chance(0.2) {
        n.push('0');
    } else {
        n.push_str(&(1 + rng.below(1 << 62)).to_string()[..1 + rng.index(12)]);
    }
    if rng.chance(0.4) {
        n.push_str(&format!(".{}", rng.below(100_000)));
    }
    if rng.chance(0.3) {
        let sign = ["", "+", "-"][rng.index(3)];
        let e = ["e", "E"][rng.index(2)];
        n.push_str(&format!("{e}{sign}{}", rng.below(400)));
    }
    n
}

/// A random scalar value as JSON text: number, escape-free string,
/// boolean or null.
fn scalar_text(rng: &mut Xoshiro256pp) -> String {
    match rng.index(4) {
        0 | 1 => number_lexeme(rng),
        2 => {
            let alphabet = ["a", "Z", "7", " ", "op", "é", "{", "]", ":", ","];
            let len = rng.index(6);
            let s: String = (0..len)
                .map(|_| alphabet[rng.index(alphabet.len())])
                .collect();
            format!("\"{s}\"")
        }
        _ => ["true", "false", "null"][rng.index(3)].to_string(),
    }
}

/// One grammar for `mmtag serve` requests: `parse_flat` accepts a line
/// exactly when `parse_json` reads it as an object with at most
/// `FLAT_MEMBERS` distinct keys and scalar values only, and the line
/// holds no backslash. When both accept, every member agrees. Lines
/// are random flat requests over the protocol's 10 keys, `priority`
/// (which serve ignores like any unknown member) and unknown ones, each
/// given one mutation.
#[test]
fn flat_reader_and_dom_share_one_grammar() {
    const KEYS: [&str; 11] = [
        "id", "op", "scenario", "seed", "trials", "points", "priority", "seeds", "x", "y", "table",
    ];
    let (mut accepted, mut rejected) = (0, 0);
    for mut rng in cases("flat-vs-dom").chain(cases("flat-vs-dom-2")) {
        let mut members: Vec<(String, String)> = Vec::new();
        for _ in 0..1 + rng.index(10) {
            let key = if rng.chance(0.8) {
                KEYS[rng.index(KEYS.len())].to_string()
            } else {
                format!("note{}", rng.index(4))
            };
            if members.iter().all(|(k, _)| *k != key) {
                members.push((key, scalar_text(&mut rng)));
            }
        }
        let pick = rng.index(members.len());
        // 0 leaves the line flat; 1–9 each break one rule.
        let mutation = if rng.chance(0.3) { 0 } else { 1 + rng.index(9) };
        match mutation {
            1 => {
                let dup = (members[pick].0.clone(), scalar_text(&mut rng));
                members.push(dup);
            }
            2 => {
                let v = &mut members[pick].1;
                *v = if rng.chance(0.5) {
                    format!("{{\"op\":{v}}}")
                } else {
                    format!("[{v}]")
                };
            }
            3 => {
                let esc = ["\\\"", "\\\\", "\\/", "\\n", "\\t", "\\u00e9"][rng.index(6)];
                if rng.chance(0.5) {
                    members[pick].1 = format!("\"a{esc}b\"");
                } else {
                    members[pick].0.push_str(esc);
                }
            }
            7 => members[pick].1 = format!("0{}", rng.below(1000)),
            8 => {
                let raw = ['\u{1}', '\t', '\n', '\u{1f}'][rng.index(4)];
                members[pick].1 = format!("\"a{raw}b\"");
            }
            9 => {
                while members.len() <= FLAT_MEMBERS {
                    members.push((format!("extra{}", members.len()), scalar_text(&mut rng)));
                }
            }
            _ => {}
        }
        // Random whitespace between tokens exercises the shared lexer.
        let ws = |rng: &mut Xoshiro256pp| ["", " ", "\t", "\r\n "][rng.index(4)];
        let mut line = format!("{{{}", ws(&mut rng));
        for (i, (k, v)) in members.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let (a, b) = (ws(&mut rng), ws(&mut rng));
            line.push_str(&format!("{sep}{a}\"{k}\"{b}:{v}"));
        }
        line.push_str(ws(&mut rng));
        line.push('}');
        match mutation {
            4 => {
                line.pop();
            }
            5 => {
                let junk = ["x", "}", "{", ",", "1", "\"s\"", "[]", "null"][rng.index(8)];
                line = if rng.chance(0.5) {
                    format!("{line}{junk}")
                } else {
                    format!("{junk}{line}")
                };
            }
            6 => line = format!("[{line}]"),
            _ => {}
        }

        let flat = parse_flat(&line);
        let dom = parse_json(&line);
        let dom_reads_flat = match &dom {
            Ok(Json::Obj(m)) => {
                let distinct = m
                    .iter()
                    .enumerate()
                    .all(|(i, (k, _))| m[..i].iter().all(|(j, _)| j != k));
                distinct
                    && m.len() <= FLAT_MEMBERS
                    && m.iter()
                        .all(|(_, v)| !matches!(v, Json::Obj(_) | Json::Arr(_)))
            }
            _ => false,
        };
        assert_eq!(
            flat.is_ok(),
            dom_reads_flat && !line.contains('\\'),
            "mutation {mutation}: {line:?} → flat {flat:?}, dom {dom:?}"
        );
        let (Ok(flat), Ok(Json::Obj(m))) = (flat, &dom) else {
            rejected += 1;
            continue;
        };
        accepted += 1;
        assert_eq!(flat.members().len(), m.len(), "{line:?}");
        for ((fk, fv), (dk, dv)) in flat.members().iter().zip(m) {
            assert_eq!(fk, dk, "{line:?}");
            match (*fv, dv) {
                (Scalar::Num(n), Json::Num(d)) => assert_eq!(n.parse::<f64>(), Ok(*d), "{line:?}"),
                (Scalar::Str(s), Json::Str(d)) => assert_eq!(s, d, "{line:?}"),
                (Scalar::Bool(a), Json::Bool(b)) => assert_eq!(a, *b, "{line:?}"),
                (Scalar::Null, Json::Null) => {}
                (f, d) => panic!("{line:?}: flat {f:?} vs dom {d:?}"),
            }
        }
    }
    // Both sides of the property were exercised.
    assert!(
        accepted > 80 && rejected > 200,
        "{accepted} accepted, {rejected} rejected"
    );
}
