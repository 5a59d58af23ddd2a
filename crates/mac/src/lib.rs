//! # mmtag-mac — medium access control for mmWave backscatter networks
//!
//! §9 of the paper sketches how a *network* of mmTags would be coordinated:
//!
//! > "a simple technique to support multiple tags is to use Spatial Division
//! > Multiplexing (SDM) … the reader steer its beam and scan the environment.
//! > Hence, it can read the tags one by one." — and for tags that share a
//! > beam direction: "One possible solution is to use similar MAC protocol
//! > as RFIDs such as Aloha protocol."
//!
//! This crate turns that sketch into working, measurable protocols:
//!
//! * [`acquisition`] — beam-acquisition latency: the one-sided search a
//!   retrodirective tag allows vs the two-sided search of a conventional
//!   mmWave pair (§5),
//! * [`aloha`] — slotted and framed Aloha with the EPC-Gen2-style adaptive
//!   Q algorithm, plus the closed-form `G·e^{−G}` theory to validate against,
//! * [`scan`] — reader beam-scan schedules (exhaustive raster and
//!   coarse-to-fine hierarchical search) with time costs,
//! * [`sdm`] — the beam-sector scheduler: tags are partitioned by angle so
//!   only same-sector tags contend,
//! * [`inventory`] — a timed inventory combining scan, sectoring and
//!   Aloha into wall-clock time-to-read-all numbers,
//! * [`capture`] — the capture effect: the d⁻⁴ power spread lets a real
//!   receiver decode the strongest tag out of a collision,
//! * [`mimo`] — §9's multi-beam proposal: K simultaneous beams inventory
//!   sectors in parallel (LPT makespan scheduling),
//! * [`gen2`] — a Gen2-style inventory protocol with explicit reader and
//!   tag state machines (Query → RN16 → ACK → EPC handshake),
//! * [`city`] — the city-scale sharded event engine: a reader grid
//!   inventorying 10⁵⁺ mobile tags — a per-tag barrier over the unread
//!   tags with per-reader wall lists, then rounds sharded one reader range
//!   per thread that play each frame slot by slot — with struct-of-arrays
//!   tag state, bit-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod aloha;
pub mod capture;
pub mod city;
pub mod gen2;
pub mod inventory;
pub mod mimo;
pub mod scan;
pub mod sdm;

pub use aloha::{FramedAloha, QAlgorithm};
pub use city::{CityConfig, CityEngine, CityStats, TagSoA};
pub use scan::ScanSchedule;
pub use sdm::SectorScheduler;
