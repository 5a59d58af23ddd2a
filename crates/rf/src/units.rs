//! Strongly-typed physical quantities.
//!
//! Link budgets mix dBm, dB, dBi, feet, meters, GHz and Mbps; untyped `f64`s
//! make it trivially easy to add a power to a frequency. Each quantity here is
//! a transparent newtype over `f64` with explicit constructors and accessors,
//! and only the physically meaningful arithmetic is implemented:
//!
//! * `Dbm + Db = Dbm` (applying gain/loss to an absolute power),
//! * `Dbm − Dbm = Db` (a power ratio),
//! * `Db ± Db = Db` (accumulating gains/losses).
//!
//! The paper reports ranges in feet and powers in dBm; we keep both unit
//! systems as first-class constructors so experiment code reads like the
//! paper.

use crate::db;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

// ---------------------------------------------------------------------------
// Frequency
// ---------------------------------------------------------------------------

/// A frequency, stored in hertz.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Frequency(f64);

impl Frequency {
    /// The 24 GHz ISM-band carrier used by the mmTag prototype (§7).
    pub const MMTAG_CARRIER: Frequency = Frequency(24.0e9);

    /// From hertz.
    pub const fn from_hz(hz: f64) -> Self {
        Frequency(hz)
    }
    /// From megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Frequency(mhz * 1e6)
    }
    /// From gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency(ghz * 1e9)
    }
    /// In hertz.
    pub const fn hz(self) -> f64 {
        self.0
    }
    /// In megahertz.
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }
    /// In gigahertz.
    pub fn ghz(self) -> f64 {
        self.0 / 1e9
    }
    /// Free-space wavelength `λ = c / f`.
    pub fn wavelength(self) -> Distance {
        Distance::from_meters(crate::constants::SPEED_OF_LIGHT / self.0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} GHz", self.ghz())
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} MHz", self.mhz())
        } else {
            write!(f, "{:.0} Hz", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Distance
// ---------------------------------------------------------------------------

/// A distance, stored in meters.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Distance(f64);

/// Meters per foot (exact international foot).
const METERS_PER_FOOT: f64 = 0.3048;

impl Distance {
    /// From meters.
    pub const fn from_meters(m: f64) -> Self {
        Distance(m)
    }
    /// From millimeters.
    pub fn from_mm(mm: f64) -> Self {
        Distance(mm * 1e-3)
    }
    /// From feet (the paper's range unit).
    pub fn from_feet(ft: f64) -> Self {
        Distance(ft * METERS_PER_FOOT)
    }
    /// In meters.
    pub const fn meters(self) -> f64 {
        self.0
    }
    /// In millimeters.
    pub fn mm(self) -> f64 {
        self.0 * 1e3
    }
    /// In feet.
    pub fn feet(self) -> f64 {
        self.0 / METERS_PER_FOOT
    }
}

impl Add for Distance {
    type Output = Distance;
    fn add(self, rhs: Distance) -> Distance {
        Distance(self.0 + rhs.0)
    }
}

impl Sub for Distance {
    type Output = Distance;
    fn sub(self, rhs: Distance) -> Distance {
        Distance(self.0 - rhs.0)
    }
}

impl Mul<f64> for Distance {
    type Output = Distance;
    fn mul(self, rhs: f64) -> Distance {
        Distance(self.0 * rhs)
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} m", self.0)
    }
}

// ---------------------------------------------------------------------------
// Angle
// ---------------------------------------------------------------------------

/// An angle, stored in radians.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Angle(f64);

impl Angle {
    /// The zero angle (broadside / boresight).
    pub const ZERO: Angle = Angle(0.0);

    /// From radians.
    pub const fn from_radians(rad: f64) -> Self {
        Angle(rad)
    }
    /// From degrees.
    pub fn from_degrees(deg: f64) -> Self {
        Angle(deg.to_radians())
    }
    /// In radians.
    pub const fn radians(self) -> f64 {
        self.0
    }
    /// In degrees.
    pub fn degrees(self) -> f64 {
        self.0.to_degrees()
    }
    /// Normalizes into `(-π, π]`.
    pub fn normalized(self) -> Angle {
        let two_pi = std::f64::consts::TAU;
        let mut a = self.0 % two_pi;
        if a <= -std::f64::consts::PI {
            a += two_pi;
        } else if a > std::f64::consts::PI {
            a -= two_pi;
        }
        Angle(a)
    }
    /// Absolute angular separation from `other`, in `[0, π]`.
    pub fn separation(self, other: Angle) -> Angle {
        Angle((self - other).normalized().radians().abs())
    }
}

impl Add for Angle {
    type Output = Angle;
    fn add(self, rhs: Angle) -> Angle {
        Angle(self.0 + rhs.0)
    }
}

impl Sub for Angle {
    type Output = Angle;
    fn sub(self, rhs: Angle) -> Angle {
        Angle(self.0 - rhs.0)
    }
}

impl Neg for Angle {
    type Output = Angle;
    fn neg(self) -> Angle {
        Angle(-self.0)
    }
}

impl Mul<f64> for Angle {
    type Output = Angle;
    fn mul(self, rhs: f64) -> Angle {
        Angle(self.0 * rhs)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}°", self.degrees())
    }
}

// ---------------------------------------------------------------------------
// Power (absolute) and decibel ratios
// ---------------------------------------------------------------------------

/// An absolute power level, stored in dBm.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Dbm(f64);

impl Dbm {
    /// From a dBm value.
    pub const fn new(dbm: f64) -> Self {
        Dbm(dbm)
    }
    /// From milliwatts.
    pub fn from_mw(mw: f64) -> Self {
        Dbm(db::mw_to_dbm(mw))
    }
    /// The dBm value.
    pub const fn dbm(self) -> f64 {
        self.0
    }
    /// In milliwatts.
    pub fn mw(self) -> f64 {
        db::dbm_to_mw(self.0)
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl AddAssign<Db> for Dbm {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl SubAssign<Db> for Dbm {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Sub for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

/// A power *ratio* in decibels (gain if positive, loss if negative).
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Db(f64);

impl Db {
    /// The unit ratio (0 dB).
    pub const ZERO: Db = Db(0.0);

    /// From a dB value.
    pub const fn new(db: f64) -> Self {
        Db(db)
    }
    /// From a linear power ratio.
    pub fn from_linear(ratio: f64) -> Self {
        Db(db::lin_to_db(ratio))
    }
    /// The dB value.
    pub const fn db(self) -> f64 {
        self.0
    }
    /// As a linear power ratio.
    pub fn linear(self) -> f64 {
        db::db_to_lin(self.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Mul<f64> for Db {
    type Output = Db;
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

/// An antenna gain relative to isotropic, in dBi.
///
/// Kept distinct from [`Db`] so that signatures say *which* quantity they
/// want; converting to a [`Db`] link-budget term is explicit.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Dbi(f64);

impl Dbi {
    /// From a dBi value.
    pub const fn new(dbi: f64) -> Self {
        Dbi(dbi)
    }
    /// The dBi value.
    pub const fn dbi(self) -> f64 {
        self.0
    }
    /// As a link-budget gain term.
    pub const fn as_db(self) -> Db {
        Db(self.0)
    }
    /// As a linear power gain.
    pub fn linear(self) -> f64 {
        db::db_to_lin(self.0)
    }
}

impl fmt::Display for Dbi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBi", self.0)
    }
}

// ---------------------------------------------------------------------------
// Bandwidth & data rate
// ---------------------------------------------------------------------------

/// A channel bandwidth, stored in hertz.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From hertz.
    pub const fn from_hz(hz: f64) -> Self {
        Bandwidth(hz)
    }
    /// From kilohertz.
    pub fn from_khz(khz: f64) -> Self {
        Bandwidth(khz * 1e3)
    }
    /// From megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Bandwidth(mhz * 1e6)
    }
    /// From gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Bandwidth(ghz * 1e9)
    }
    /// In hertz.
    pub const fn hz(self) -> f64 {
        self.0
    }
    /// In megahertz.
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.1} GHz", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.1} MHz", self.0 / 1e6)
        } else {
            write!(f, "{:.1} kHz", self.0 / 1e3)
        }
    }
}

/// A data rate, stored in bits per second.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct DataRate(f64);

impl DataRate {
    /// The zero rate (link down).
    pub const ZERO: DataRate = DataRate(0.0);

    /// From bits per second.
    pub const fn from_bps(bps: f64) -> Self {
        DataRate(bps)
    }
    /// From kilobits per second.
    pub fn from_kbps(kbps: f64) -> Self {
        DataRate(kbps * 1e3)
    }
    /// From megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        DataRate(mbps * 1e6)
    }
    /// From gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        DataRate(gbps * 1e9)
    }
    /// In bits per second.
    pub const fn bps(self) -> f64 {
        self.0
    }
    /// In megabits per second.
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }
    /// In gigabits per second.
    pub fn gbps(self) -> f64 {
        self.0 / 1e9
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2} Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.2} kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0} bps", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Temperature
// ---------------------------------------------------------------------------

/// An absolute temperature, stored in kelvin.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Temperature(f64);

impl Temperature {
    /// Room temperature, 300 K, as used by the paper's noise-floor math.
    pub const ROOM: Temperature = Temperature(crate::constants::ROOM_TEMPERATURE_K);

    /// From kelvin. A test fixture: production noise models run at
    /// [`Temperature::ROOM`]; the channel property tests vary it.
    pub const fn from_kelvin(k: f64) -> Self {
        Temperature(k)
    }
    /// In kelvin.
    pub const fn kelvin(self) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_wavelength_24ghz() {
        // λ at 24 GHz is 12.49 mm — the scale that makes mmTag antennas small.
        let lambda = Frequency::from_ghz(24.0).wavelength();
        assert!((lambda.mm() - 12.491).abs() < 0.01);
    }

    #[test]
    fn feet_meter_conversions() {
        let d = Distance::from_feet(10.0);
        assert!((d.meters() - 3.048).abs() < 1e-12);
        assert!((d.feet() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn angle_normalization() {
        let a = Angle::from_degrees(370.0).normalized();
        assert!((a.degrees() - 10.0).abs() < 1e-9);
        let b = Angle::from_degrees(-190.0).normalized();
        assert!((b.degrees() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn angle_separation_is_symmetric_and_bounded() {
        let a = Angle::from_degrees(170.0);
        let b = Angle::from_degrees(-170.0);
        assert!((a.separation(b).degrees() - 20.0).abs() < 1e-9);
        assert!((b.separation(a).degrees() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_arithmetic() {
        let p = Dbm::from_mw(20.0); // the paper's TX power
        assert!((p.dbm() - 13.0103).abs() < 1e-4);
        let after_loss = p - Db::new(60.0);
        assert!((after_loss.dbm() + 46.99).abs() < 0.01);
        let ratio = p - after_loss;
        assert!((ratio.db() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_watts_roundtrip() {
        // 2 W in through the milliwatt constructor and back out.
        let p = Dbm::from_mw(2.0e3);
        assert!((p.dbm() - 33.0103).abs() < 1e-4);
        assert!((p.mw() * 1e-3 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn db_linear_roundtrip() {
        let g = Db::from_linear(100.0);
        assert!((g.db() - 20.0).abs() < 1e-9);
        assert!((g.linear() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn data_rate_display_units() {
        assert_eq!(DataRate::from_gbps(1.0).to_string(), "1.00 Gbps");
        assert_eq!(DataRate::from_mbps(10.0).to_string(), "10.00 Mbps");
        assert_eq!(DataRate::from_kbps(1.5).to_string(), "1.50 kbps");
    }

    #[test]
    fn bandwidth_constructors_agree() {
        assert_eq!(Bandwidth::from_ghz(2.0).hz(), 2e9);
        assert_eq!(Bandwidth::from_mhz(200.0).hz(), 2e8);
        assert_eq!(Bandwidth::from_khz(500.0).hz(), 5e5);
    }
}
