//! The two-way backscatter link budget — the physics behind Fig. 7.
//!
//! A backscatter link pays free-space spreading **twice**: reader → tag and
//! tag → reader. With the tag's retrodirective round-trip gain `G_tag` (from
//! [`mmtag_antenna::VanAttaArray::monostatic_gain`]) the received power is
//!
//! ```text
//! Pr = Pt + G_tx + G_rx + G_tag + 2·20·log10(λ/4πd) − L_impl
//! ```
//!
//! i.e. a `d⁻⁴` law: +12 dB of loss per doubling of range, which is why the
//! paper's rate falls from 1 Gbps at 4 ft to 10 Mbps at 10 ft.
//!
//! **Calibration.** The paper reports *measured* powers (its Fig. 7) from a
//! signal-generator/spectrum-analyzer testbed; we cannot know its cable
//! losses, pointing error or polarization mismatch. All of those are folded
//! into one explicit `implementation_loss` term, calibrated once so that the
//! model reproduces the paper's anchor results — 1 Gbps at 4 ft and 10 Mbps
//! at 10 ft — and then *never adjusted per experiment*. Everything else in
//! the budget is first-principles.

use crate::fspl::free_space_path_loss;
use mmtag_rf::units::{Db, Dbi, Dbm, Distance, Frequency};

/// A calibrated monostatic backscatter link budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackscatterLink {
    /// Reader transmit power (paper: 20 mW peak, §7).
    pub tx_power: Dbm,
    /// Reader transmit antenna gain.
    pub reader_tx_gain: Dbi,
    /// Reader receive antenna gain.
    pub reader_rx_gain: Dbi,
    /// Carrier frequency.
    pub frequency: Frequency,
    /// Fixed implementation loss (cables, polarization, pointing, OOK
    /// conversion). Positive dB value; see module docs for calibration.
    pub implementation_loss: Db,
}

impl BackscatterLink {
    /// The calibrated model of the paper's testbed: 20 mW TX, 20 dBi horns,
    /// 24 GHz, 21 dB implementation loss (the one calibrated constant).
    pub fn mmtag_setup() -> Self {
        BackscatterLink {
            tx_power: Dbm::from_mw(20.0),
            reader_tx_gain: Dbi::new(20.0),
            reader_rx_gain: Dbi::new(20.0),
            frequency: Frequency::from_ghz(24.0),
            implementation_loss: Db::new(21.0),
        }
    }

    /// Total spreading loss of the out-and-back path when both legs have
    /// length `distance` (monostatic geometry).
    pub fn two_way_spreading(&self, distance: Distance) -> Db {
        free_space_path_loss(self.frequency, distance) * 2.0
    }

    /// Received tag-signal power at the reader for a tag with round-trip
    /// aperture gain `tag_gain` at `distance` — Fig. 7's "Tag signal" curve.
    pub fn received_power(&self, tag_gain: Db, distance: Distance) -> Dbm {
        self.tx_power + self.reader_tx_gain.as_db() + self.reader_rx_gain.as_db() + tag_gain
            - self.two_way_spreading(distance)
            - self.implementation_loss
    }

    /// Received power over an asymmetric (e.g. NLOS) path: forward leg
    /// `d_forward`, return leg `d_return`, plus any extra per-path loss such
    /// as reflection loss (`path_loss`, positive dB).
    pub fn received_power_bistatic(
        &self,
        tag_gain: Db,
        d_forward: Distance,
        d_return: Distance,
        path_loss: Db,
    ) -> Dbm {
        self.tx_power + self.reader_tx_gain.as_db() + self.reader_rx_gain.as_db() + tag_gain
            - free_space_path_loss(self.frequency, d_forward)
            - free_space_path_loss(self.frequency, d_return)
            - self.implementation_loss
            - path_loss
    }

    /// The maximum monostatic range at which the received power still meets
    /// `required`, solved in closed form from the `d⁻⁴` law.
    pub fn max_range(&self, tag_gain: Db, required: Dbm) -> Distance {
        // Pr(d) = Pr(1 m) − 40·log10(d) ⇒ d = 10^((Pr(1m) − required)/40).
        let at_1m = self.received_power(tag_gain, Distance::from_meters(1.0));
        let margin = (at_1m - required).db();
        Distance::from_meters(10f64.powf(margin / 40.0))
    }
}

impl Default for BackscatterLink {
    fn default() -> Self {
        Self::mmtag_setup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fspl::friis_received_power;
    use mmtag_antenna::VanAttaArray;
    use mmtag_rf::units::Angle;

    /// The calibrated tag round-trip gain: the paper's 6-element prototype
    /// at broadside.
    fn tag_gain() -> Db {
        Db::from_linear(VanAttaArray::mmtag_prototype().monostatic_gain(Angle::ZERO))
    }

    #[test]
    fn tag_roundtrip_gain_is_about_25db() {
        // N² = 36 (15.6 dB) + two element passes (10 dB) − line loss.
        let g = tag_gain();
        assert!((24.0..26.0).contains(&g.db()), "tag gain = {g}");
    }

    #[test]
    fn d4_law_costs_12db_per_doubling() {
        let link = BackscatterLink::mmtag_setup();
        let p1 = link.received_power(tag_gain(), Distance::from_feet(3.0));
        let p2 = link.received_power(tag_gain(), Distance::from_feet(6.0));
        assert!(((p1 - p2).db() - 12.04).abs() < 0.01);
    }

    #[test]
    fn fig7_anchor_1gbps_at_4ft() {
        // Threshold for 1 Gbps OOK over 2 GHz: floor −75.8 dBm + 7 dB SNR.
        let link = BackscatterLink::mmtag_setup();
        let p = link.received_power(tag_gain(), Distance::from_feet(4.0));
        assert!(p.dbm() >= -68.8, "P(4 ft) = {p} must clear −68.8 dBm");
        // …but NOT at 6 ft — the paper's curve crosses below 1 Gbps there.
        let p6 = link.received_power(tag_gain(), Distance::from_feet(6.0));
        assert!(p6.dbm() < -68.8, "P(6 ft) = {p6} must be below 1 Gbps");
    }

    #[test]
    fn fig7_anchor_10mbps_at_10ft() {
        // Threshold for 10 Mbps OOK over 20 MHz: floor −95.8 dBm + 7 dB.
        let link = BackscatterLink::mmtag_setup();
        let p = link.received_power(tag_gain(), Distance::from_feet(10.0));
        assert!(p.dbm() >= -88.8, "P(10 ft) = {p} must clear −88.8 dBm");
    }

    #[test]
    fn fig7_shape_100mbps_crossover_near_8ft() {
        // The 100 Mbps annotation sits mid-figure: crossing −78.8 dBm
        // (200 MHz floor + 7 dB) around 7–9 ft.
        let link = BackscatterLink::mmtag_setup();
        let d = link.max_range(tag_gain(), Dbm::new(-78.8));
        assert!(
            (7.0..9.0).contains(&d.feet()),
            "100 Mbps crossover at {:.2} ft",
            d.feet()
        );
    }

    #[test]
    fn fig7_signal_stays_above_20mhz_floor_through_12ft() {
        // In Fig. 7 the tag-signal curve is still above the 20 MHz noise
        // floor at the farthest plotted range (12 ft).
        let link = BackscatterLink::mmtag_setup();
        let p = link.received_power(tag_gain(), Distance::from_feet(12.0));
        assert!(p.dbm() > -95.8, "P(12 ft) = {p}");
    }

    #[test]
    fn max_range_inverts_received_power() {
        let link = BackscatterLink::mmtag_setup();
        let d = Distance::from_feet(7.3);
        let p = link.received_power(tag_gain(), d);
        let d2 = link.max_range(tag_gain(), p);
        assert!(
            (d2.feet() - 7.3).abs() < 1e-6,
            "round trip {} ft",
            d2.feet()
        );
    }

    #[test]
    fn bistatic_with_equal_legs_matches_monostatic() {
        let link = BackscatterLink::mmtag_setup();
        let d = Distance::from_feet(5.0);
        let mono = link.received_power(tag_gain(), d);
        let bi = link.received_power_bistatic(tag_gain(), d, d, Db::ZERO);
        assert!((mono - bi).db().abs() < 1e-9);
    }

    #[test]
    fn bistatic_budget_is_two_friis_legs() {
        // Out: the reader's horn to an isotropic tag port over `d_f`; back:
        // that port to the reader's receive horn over `d_r`. The tag's
        // round-trip gain and the implementation loss ride on top.
        let link = BackscatterLink::mmtag_setup();
        let iso = Dbi::new(0.0);
        for (df, dr) in [(1.0, 1.0), (0.6, 2.5), (3.0, 1.2)] {
            let (d_f, d_r) = (Distance::from_meters(df), Distance::from_meters(dr));
            let at_tag =
                friis_received_power(link.tx_power, link.reader_tx_gain, iso, link.frequency, d_f);
            let back = friis_received_power(at_tag, iso, link.reader_rx_gain, link.frequency, d_r);
            let want = back + tag_gain() - link.implementation_loss;
            let got = link.received_power_bistatic(tag_gain(), d_f, d_r, Db::ZERO);
            assert!((got - want).db().abs() < 1e-9, "d_f={df} d_r={dr}");
        }
    }

    #[test]
    fn nlos_reflection_loss_reduces_power() {
        let link = BackscatterLink::mmtag_setup();
        let los = link.received_power(tag_gain(), Distance::from_feet(6.0));
        // NLOS: longer legs plus 7 dB reflection loss each way.
        let nlos = link.received_power_bistatic(
            tag_gain(),
            Distance::from_feet(9.0),
            Distance::from_feet(9.0),
            Db::new(14.0),
        );
        assert!(nlos.dbm() < los.dbm() - 14.0);
    }

    #[test]
    fn more_tag_elements_extend_range() {
        // §8: "the range and data-rate of mmTag can be further increased by
        // using more antenna elements at the tags."
        use mmtag_antenna::{LinearArray, PatchElement, ReflectorWiring};
        let link = BackscatterLink::mmtag_setup();
        let g6 = tag_gain();
        let tag12 = VanAttaArray::new(
            LinearArray::half_wavelength(12),
            PatchElement::mmtag_default(),
            ReflectorWiring::VanAtta,
        );
        let g12 = Db::from_linear(tag12.monostatic_gain(Angle::ZERO));
        let r6 = link.max_range(g6, Dbm::new(-88.8));
        let r12 = link.max_range(g12, Dbm::new(-88.8));
        // Doubling N quadruples round-trip gain (+6 dB) ⇒ ~1.41× range.
        assert!((r12.meters() / r6.meters() - 1.414).abs() < 0.02);
    }
}
