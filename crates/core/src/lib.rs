//! # mmtag — millimeter-wave backscatter networking at gigabit speeds
//!
//! A production-quality Rust reproduction of the system described in
//! *"Millimeter Wave Backscatter: Toward Batteryless Wireless Networking at
//! Gigabit Speeds"* (Mazaheri, Chen, Abari — HotNets '20). The paper builds
//! a 24 GHz retrodirective (Van Atta) backscatter tag and a horn-antenna
//! reader; this crate models that entire system — every antenna, switch,
//! channel and protocol — and reproduces each of the paper's results as a
//! numerical experiment (see the `mmtag-bench` crate and `EXPERIMENTS.md`).
//!
//! ## Quick start
//!
//! ```
//! use mmtag::prelude::*;
//!
//! // The paper's hardware: a 6-element Van Atta tag and a 20 mW reader.
//! let tag = MmTag::prototype();
//! let reader = Reader::mmtag_setup();
//!
//! // A tag 4 feet away, face to face with the reader (Fig. 7's anchor).
//! let scene = Scene::free_space();
//! let reader_pose = Pose::new(Vec2::ORIGIN, Angle::ZERO);
//! let tag_pose = Pose::new(Vec2::from_feet(4.0, 0.0), Angle::from_degrees(180.0));
//!
//! let report = evaluate_link(&reader, &tag, &scene, reader_pose, tag_pose);
//! assert!(report.rate.gbps() >= 1.0); // "1 Gbps at a range of 4 ft" (§8)
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`tag`] | the mmTag device: Van Atta array + RF switches + modulator |
//! | [`reader`] | TX/RX chains, beam steering, self-interference budget |
//! | [`link`] | end-to-end link evaluation over a scene (power → SNR → rate) |
//! | [`energy`] | tag power budget, harvesting, the batteryless argument |
//! | [`storage`] | capacitor-buffered burst operation under harvesting |
//! | [`baseline`] | RFID / HitchHike / BackFi / fixed-beam-tag comparisons |
//! | [`localization`] | tag positioning from the reader's own beam scan |
//! | [`network`] | multi-tag scenes, mobility runs, inventory |
//! | [`scenario`] | typed `ScenarioSpec` → live reader/tag/scene builders |
//!
//! The substrate crates (`mmtag-rf`, `mmtag-antenna`, `mmtag-channel`,
//! `mmtag-phy`, `mmtag-mac`, `mmtag-sim`) are re-exported under
//! [`prelude`] for application use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod energy;
pub mod link;
pub mod localization;
pub mod network;
pub mod reader;
pub mod scenario;
pub mod storage;
pub mod tag;

pub use link::{evaluate_link, LinkReport};
pub use reader::Reader;
pub use tag::MmTag;

/// Everything an application needs, in one import.
pub mod prelude {
    pub use crate::baseline::SystemProfile;
    pub use crate::energy::{EnergyBudget, Harvester};
    pub use crate::link::{evaluate_link, LinkReport};
    pub use crate::network::Network;
    pub use crate::reader::Reader;
    pub use crate::scenario::LinkSetup;
    pub use crate::storage::{steady_state_cycle, BurstCycle, StorageCap};
    pub use crate::tag::MmTag;
    pub use mmtag_antenna::{ReflectorWiring, VanAttaArray};
    pub use mmtag_channel::{BackscatterLink, NoiseModel};
    pub use mmtag_phy::RateAdaptation;
    pub use mmtag_rf::units::{Angle, Bandwidth, DataRate, Db, Dbi, Dbm, Distance, Frequency};
    pub use mmtag_sim::mobility::{Linear, Mobility, Pose, Spin, Static, Waypoints};
    pub use mmtag_sim::scenario::{
        ReaderSpec, Runner, ScenarioSpec, SceneSpec, TagSpec, WiringSpec,
    };
    pub use mmtag_sim::time::{Duration, Instant};
    pub use mmtag_sim::{Scene, Segment, Vec2};
}
