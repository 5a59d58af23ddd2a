//! # mmtag-antenna — antenna and microwave-circuit models
//!
//! This crate implements every "hardware" block of the mmTag tag and reader
//! as a calibrated numerical model:
//!
//! * [`element`] — single-element radiation patterns (isotropic, patch),
//! * [`mod@array`] — linear arrays, steering vectors, array factors, beamwidth
//!   and directivity metrics (§5.1 of the paper),
//! * [`vanatta`] — the paper's core contribution: the passive retrodirective
//!   Van Atta reflector (§5.2, Eqs. 1–5), plus the specular-mirror and
//!   fixed-beam wirings used as baselines,
//! * [`phased`] — a conventional phased array with a DC power model, the
//!   "what mmTag avoids" baseline (§5),
//! * [`planar`] — 2-D (grid) Van Atta arrays: retrodirectivity in both
//!   planes, the natural production extension of the 1-D prototype,
//! * [`sparams`] — the one-port S11 model of a patch element under the two
//!   RF-switch states, reproducing Fig. 6,
//! * [`tline`] — microstrip transmission-line design for the Van Atta
//!   interconnect (§5.2 footnote 2),
//! * [`switch`] — the FET RF switch (§6/§7): states, losses, drive energy,
//! * [`horn`] — the reader's directional horn antennas (§7).
//!
//! Angle convention: all angles are measured from array broadside (boresight),
//! positive toward increasing element index, matching Eq. 1 of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod element;
pub mod horn;
pub mod phased;
pub mod planar;
pub mod sparams;
pub mod switch;
pub mod tline;
pub mod vanatta;

pub use array::LinearArray;
pub use element::{ElementPattern, Isotropic, PatchElement};
pub use horn::HornAntenna;
pub use phased::PhasedArray;
pub use planar::{Direction, PlanarVanAtta};
pub use sparams::{ElementPort, SwitchState};
pub use switch::RfSwitch;
pub use vanatta::{ReflectorWiring, VanAttaArray};
