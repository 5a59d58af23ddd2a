//! Multi-tag networks: scenes with mobility, uptime runs and inventory.
//!
//! [`Network`] is the top of the stack: a scene, one reader, and a set of
//! tags each with its own trajectory. It answers the system-level questions
//! the paper's discussion raises — how does the link behave as tags move
//! (E8), and how long does it take to read everyone (E7)?

use crate::link::{evaluate_link, LinkReport};
use crate::reader::Reader;
use crate::tag::MmTag;
use mmtag_mac::inventory::{run_timed_inventory, SlotTiming, TimedInventory};
use mmtag_rf::rng::Rng;
use mmtag_rf::units::{Angle, DataRate};
use mmtag_sim::metrics::TimeSeries;
use mmtag_sim::mobility::{Mobility, Pose};
use mmtag_sim::time::{Duration, Instant};
use mmtag_sim::Scene;

/// A tag deployed in the network, with its trajectory.
pub struct DeployedTag {
    /// The device.
    pub tag: MmTag,
    /// Its trajectory.
    pub mobility: Box<dyn Mobility>,
}

/// A reader plus a population of (possibly moving) tags in a scene.
pub struct Network {
    scene: Scene,
    reader: Reader,
    reader_pose: Pose,
    tags: Vec<DeployedTag>,
}

impl Network {
    /// Creates a network around a scene and a stationary reader.
    pub fn new(scene: Scene, reader: Reader, reader_pose: Pose) -> Self {
        Network {
            scene,
            reader,
            reader_pose,
            tags: Vec::new(),
        }
    }

    /// Deploys a tag with a trajectory. Returns its index.
    pub fn add_tag<M: Mobility + 'static>(&mut self, tag: MmTag, mobility: M) -> usize {
        self.tags.push(DeployedTag {
            tag,
            mobility: Box::new(mobility),
        });
        self.tags.len() - 1
    }

    /// Number of deployed tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when no tags are deployed.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The reader.
    pub fn reader(&self) -> &Reader {
        &self.reader
    }

    /// The scene.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Link report for one tag at time `t`.
    pub fn link_at(&self, tag_idx: usize, t: Instant) -> LinkReport {
        let d = &self.tags[tag_idx];
        let pose = d.mobility.pose_at(t);
        evaluate_link(&self.reader, &d.tag, &self.scene, self.reader_pose, pose)
    }

    /// Link reports for every tag at time `t`.
    pub fn snapshot(&self, t: Instant) -> Vec<LinkReport> {
        (0..self.tags.len()).map(|i| self.link_at(i, t)).collect()
    }

    /// Samples one tag's achievable rate over `[0, horizon]` at `step`
    /// intervals — the uptime/rate trace of experiment E8.
    pub fn rate_trace(&self, tag_idx: usize, horizon: Duration, step: Duration) -> TimeSeries {
        assert!(step.as_nanos() > 0, "step must be positive");
        let mut series = TimeSeries::new();
        let mut t = Instant::ZERO;
        let end = Instant::ZERO + horizon;
        while t <= end {
            series.push(t, self.link_at(tag_idx, t).rate.bps());
            t += step;
        }
        series
    }

    /// Angles of all currently-linkable tags as seen from the reader at
    /// time `t` (the input to sectoring/inventory).
    pub fn tag_angles(&self, t: Instant) -> Vec<Angle> {
        self.tags
            .iter()
            .filter_map(|d| {
                let pose = d.mobility.pose_at(t);
                let report =
                    evaluate_link(&self.reader, &d.tag, &self.scene, self.reader_pose, pose);
                report.is_up().then(|| {
                    (self.reader_pose.position.bearing_to(pose.position)
                        - self.reader_pose.orientation)
                        .normalized()
                })
            })
            .collect()
    }

    /// Runs a timed SDM inventory over the population at `t = 0`, with the
    /// uplink rate taken from the *weakest* linkable tag (a conservative
    /// single-rate round) and 128-bit replies.
    pub fn inventory<R: Rng + ?Sized>(&self, rng: &mut R) -> TimedInventory {
        let angles = self.tag_angles(Instant::ZERO);
        let min_rate = self
            .snapshot(Instant::ZERO)
            .iter()
            .filter(|r| r.is_up())
            .map(|r| r.rate.bps())
            .fold(f64::INFINITY, f64::min);
        let rate = if min_rate.is_finite() {
            DataRate::from_bps(min_rate)
        } else {
            DataRate::from_mbps(1.0) // no linkable tags: nominal probe rate
        };
        let timing = SlotTiming {
            reply_bits: 128,
            rate,
            overhead: Duration::from_micros(2),
        };
        run_timed_inventory(
            *self.reader.scan(),
            &angles,
            timing,
            Duration::from_micros(10),
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_rf::rng::Xoshiro256pp;
    use mmtag_sim::mobility::{Linear, Spin, Static};
    use mmtag_sim::Vec2;

    fn reader_pose() -> Pose {
        Pose::new(Vec2::ORIGIN, Angle::ZERO)
    }

    fn static_tag_at(feet: f64) -> Static {
        Static(Pose::new(
            Vec2::from_feet(feet, 0.0),
            Angle::from_degrees(180.0),
        ))
    }

    #[test]
    fn snapshot_reports_every_tag() {
        let mut net = Network::new(Scene::free_space(), Reader::mmtag_setup(), reader_pose());
        net.add_tag(MmTag::prototype(), static_tag_at(4.0));
        net.add_tag(MmTag::prototype(), static_tag_at(10.0));
        let snap = net.snapshot(Instant::ZERO);
        assert_eq!(snap.len(), 2);
        assert!((snap[0].rate.gbps() - 1.0).abs() < 1e-9);
        assert!((snap[1].rate.mbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn receding_tag_rate_decays_in_trace() {
        let mut net = Network::new(Scene::free_space(), Reader::mmtag_setup(), reader_pose());
        // Walks from 4 ft to ~14 ft over 3 s.
        net.add_tag(
            MmTag::prototype(),
            Linear {
                start: Pose::new(Vec2::from_feet(4.0, 0.0), Angle::from_degrees(180.0)),
                velocity: Vec2::new(1.0, 0.0),
            },
        );
        let trace = net.rate_trace(0, Duration::from_secs(3), Duration::from_millis(500));
        let first = trace.points().first().unwrap().1;
        let last = trace.points().last().unwrap().1;
        assert!(first > last, "rate must decay as the tag recedes");
        assert!((first - 1e9).abs() < 1.0);
    }

    #[test]
    fn spinning_tag_keeps_link_up() {
        // E8's core claim: a rotating mmTag stays linked (retrodirective),
        // at worst losing element-pattern gain at extreme angles.
        let mut net = Network::new(Scene::free_space(), Reader::mmtag_setup(), reader_pose());
        net.add_tag(
            MmTag::prototype(),
            Spin {
                position: Vec2::from_feet(4.0, 0.0),
                initial: Angle::from_degrees(180.0),
                rate: 0.5, // rad/s
            },
        );
        let trace = net.rate_trace(0, Duration::from_secs(2), Duration::from_millis(100));
        let uptime = trace.fraction_positive().unwrap();
        assert!(uptime > 0.9, "spinning-tag uptime {uptime}");
    }

    #[test]
    fn mean_rate_averages_population() {
        let mut net = Network::new(Scene::free_space(), Reader::mmtag_setup(), reader_pose());
        net.add_tag(MmTag::prototype(), static_tag_at(4.0));
        net.add_tag(MmTag::prototype(), static_tag_at(10.0));
        let snap = net.snapshot(Instant::ZERO);
        let mean = snap.iter().map(|r| r.rate.bps()).sum::<f64>() / snap.len() as f64;
        assert!((mean - (1e9 + 10e6) / 2.0).abs() < 1.0);
        assert!(
            Network::new(Scene::free_space(), Reader::mmtag_setup(), reader_pose())
                .snapshot(Instant::ZERO)
                .is_empty()
        );
    }

    #[test]
    fn tag_angles_skip_blocked_tags() {
        let mut scene = Scene::free_space();
        scene.add_blocker(mmtag_sim::Segment::new(
            Vec2::from_feet(2.0, -1.0),
            Vec2::from_feet(2.0, 1.0),
        ));
        let mut net = Network::new(scene, Reader::mmtag_setup(), reader_pose());
        net.add_tag(MmTag::prototype(), static_tag_at(4.0)); // behind blocker
        net.add_tag(
            MmTag::prototype(),
            Static(Pose::new(
                Vec2::from_feet(0.0, 4.0),
                Angle::from_degrees(-90.0),
            )),
        ); // off to the side, clear
        let angles = net.tag_angles(Instant::ZERO);
        assert_eq!(angles.len(), 1);
        assert!((angles[0].degrees() - 90.0).abs() < 1e-6);
    }

    #[test]
    fn inventory_reads_population() {
        let mut net = Network::new(Scene::free_space(), Reader::mmtag_setup(), reader_pose());
        for i in 0..12 {
            let angle_deg = -40.0 + i as f64 * 7.0;
            let rad = angle_deg.to_radians();
            let pos = Vec2::from_feet(5.0 * rad.cos(), 5.0 * rad.sin());
            net.add_tag(
                MmTag::prototype(),
                Static(Pose::new(pos, Angle::from_degrees(angle_deg + 180.0))),
            );
        }
        let mut rng = Xoshiro256pp::seed_from(11);
        let inv = net.inventory(&mut rng);
        assert_eq!(inv.tags_read, 12);
        assert!(inv.elapsed > Duration::ZERO);
    }

    #[test]
    fn empty_network_inventory_is_cheap() {
        let net = Network::new(Scene::free_space(), Reader::mmtag_setup(), reader_pose());
        let mut rng = Xoshiro256pp::seed_from(12);
        let inv = net.inventory(&mut rng);
        assert_eq!(inv.tags_read, 0);
    }
}
