//! The mmTag device: the paper's tag, as one configurable object.
//!
//! §7 describes the prototype: six patch elements on Rogers 4835, Van Atta
//! interconnect, one CE3520K3 FET switch per element, 60 × 45 mm, tuned for
//! the 24 GHz ISM band, "easily tuned to higher frequency bands (such as
//! 60 GHz)". [`MmTag`] bundles the RF front end ([`VanAttaArray`]), the
//! element/switch circuit model ([`ElementPort`]) and the physical/size
//! facts, and exposes the quantities the rest of the stack consumes:
//! round-trip gain at an incidence angle, modulation contrast, drive power
//! at a symbol rate, and bill-of-materials cost.

use mmtag_antenna::element::PatchElement;
use mmtag_antenna::sparams::{ElementPort, SwitchState};
use mmtag_antenna::switch::RfSwitch;
use mmtag_antenna::tline::Microstrip;
use mmtag_antenna::{LinearArray, ReflectorWiring, VanAttaArray};
use mmtag_rf::units::{Angle, DataRate, Db, Distance, Frequency};

/// Configuration for building a tag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TagConfig {
    /// Number of antenna elements (the paper's prototype: 6).
    pub elements: usize,
    /// Carrier frequency (the prototype: 24 GHz; §7 note 3: 60 GHz works).
    pub frequency: Frequency,
    /// Interconnect wiring (mmTag: Van Atta; baselines use the others).
    pub wiring: ReflectorWiring,
}

impl Default for TagConfig {
    fn default() -> Self {
        TagConfig {
            elements: 6,
            frequency: Frequency::MMTAG_CARRIER,
            wiring: ReflectorWiring::VanAtta,
        }
    }
}

/// A complete mmTag backscatter tag.
#[derive(Clone, Debug)]
pub struct MmTag {
    config: TagConfig,
    reflector: VanAttaArray<PatchElement>,
    element_port: ElementPort,
    substrate: Microstrip,
}

impl MmTag {
    /// The paper's fabricated prototype (§7): 6 elements, 24 GHz, Van Atta.
    pub fn prototype() -> Self {
        Self::new(TagConfig::default())
    }

    /// Builds a tag from a configuration.
    ///
    /// # Panics
    /// Panics with zero elements or a non-mmWave carrier outside 1–300 GHz.
    pub fn new(config: TagConfig) -> Self {
        assert!(config.elements >= 1, "tag needs at least one element");
        assert!(
            (1e9..=300e9).contains(&config.frequency.hz()),
            "carrier out of modeled range"
        );
        let reflector = VanAttaArray::new(
            LinearArray::half_wavelength(config.elements),
            PatchElement::mmtag_default(),
            config.wiring,
        );
        let mut element_port = ElementPort::mmtag_default();
        element_port.resonant_freq = config.frequency;
        MmTag {
            config,
            reflector,
            element_port,
            substrate: Microstrip::rogers4835(),
        }
    }

    /// The configuration this tag was built with.
    pub fn config(&self) -> TagConfig {
        self.config
    }

    /// The RF front end.
    pub fn reflector(&self) -> &VanAttaArray<PatchElement> {
        &self.reflector
    }

    /// The per-element circuit model (S11, Fig. 6).
    pub fn element_port(&self) -> &ElementPort {
        &self.element_port
    }

    /// The switch model.
    pub fn switch(&self) -> RfSwitch {
        self.element_port.switch
    }

    /// Round-trip aperture gain toward the illuminator at incidence `theta`
    /// — the `G_tag` term of the link budget, in dB.
    pub fn roundtrip_gain(&self, theta: Angle) -> Db {
        Db::from_linear(self.reflector.monostatic_gain(theta))
    }

    /// OOK modulation contrast at incidence `theta` (reflective vs
    /// absorbing state, §6).
    pub fn modulation_contrast(&self, theta: Angle) -> Db {
        self.reflector.clone().modulation_contrast(theta)
    }

    /// S11 of one element at the carrier in a switch state (Fig. 6's
    /// quantity). A test reference: E01 sweeps the element model itself;
    /// the tag's and the integration tests read Fig. 6's anchors through
    /// the tag's configuration here.
    pub fn element_s11_db(&self, state: SwitchState) -> f64 {
        self.element_port.s11_db(self.config.frequency, state)
    }

    /// Tag dimensions. The prototype is 60 × 45 mm at 24 GHz (§7, Fig. 5);
    /// dimensions scale with wavelength and element count:
    /// width ≈ N·λ/2 plus a λ/2 margin, height ≈ 3.6·λ (patch + feed +
    /// interconnect meander).
    pub fn dimensions(&self) -> (Distance, Distance) {
        let lam = self.config.frequency.wavelength().meters();
        let width = (self.config.elements as f64 + 1.0) * lam / 2.0 + lam / 2.0;
        let height = 3.6 * lam;
        (Distance::from_meters(width), Distance::from_meters(height))
    }

    /// Half-power beamwidth of the reflected beam, degrees (§7: "6 antenna
    /// elements which creates a directional reflector with 20 degree beam
    /// width").
    pub fn beamwidth_deg(&self) -> f64 {
        self.reflector.array().half_power_beamwidth_deg()
    }

    /// Average modulation drive power for random OOK data at `rate`
    /// (expected transition rate = symbol rate / 2), watts. One driver per
    /// element: all switches toggle together (§6).
    pub fn modulation_power_w(&self, rate: DataRate) -> f64 {
        let transitions = rate.bps() / 2.0;
        self.switch().drive_power_w(transitions) * self.config.elements as f64
    }

    /// Bill-of-materials cost: the switches are "the only mmWave component"
    /// (§7, 60 ¢ each); PCB + passives estimated at $2.
    pub fn bom_cost_usd(&self) -> f64 {
        self.switch().cost_usd * self.config.elements as f64 + 2.0
    }

    /// The substrate the tag is fabricated on.
    pub fn substrate(&self) -> &Microstrip {
        &self.substrate
    }
}

impl Default for MmTag {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper_section7() {
        let tag = MmTag::prototype();
        assert_eq!(tag.config().elements, 6);
        assert_eq!(tag.config().frequency, Frequency::from_ghz(24.0));
        assert_eq!(tag.config().wiring, ReflectorWiring::VanAtta);
        // "20 degree beam width" — array factor gives ~17°, paper rounds up.
        let bw = tag.beamwidth_deg();
        assert!((15.0..21.0).contains(&bw), "beamwidth {bw}°");
    }

    #[test]
    fn prototype_size_is_about_60_by_45_mm() {
        // §7: "The dimension of the tag is 60 × 45 mm²".
        let (w, h) = MmTag::prototype().dimensions();
        assert!((w.mm() - 50.0).abs() < 10.0, "width {} mm", w.mm());
        assert!((h.mm() - 45.0).abs() < 5.0, "height {} mm", h.mm());
    }

    #[test]
    fn sixty_ghz_tag_is_smaller() {
        // §7 footnote 3: "The higher the frequency … the smaller the
        // antennas."
        let t60 = MmTag::new(TagConfig {
            frequency: Frequency::from_ghz(60.0),
            ..TagConfig::default()
        });
        let (w24, h24) = MmTag::prototype().dimensions();
        let (w60, h60) = t60.dimensions();
        assert!(w60.mm() < w24.mm() / 2.0);
        assert!(h60.mm() < h24.mm() / 2.0);
    }

    #[test]
    fn roundtrip_gain_is_flat_for_van_atta() {
        let tag = MmTag::prototype();
        let g0 = tag.roundtrip_gain(Angle::ZERO);
        let g40 = tag.roundtrip_gain(Angle::from_degrees(40.0));
        // Only the element pattern rolls off; the array term stays coherent.
        assert!((g0 - g40).db() < 6.0, "g0 {g0} vs g40 {g40}");
        assert!((24.0..26.0).contains(&g0.db()), "g0 = {g0}");
    }

    #[test]
    fn fixed_beam_variant_collapses_off_axis() {
        let fixed = MmTag::new(TagConfig {
            wiring: ReflectorWiring::FixedBeam,
            ..TagConfig::default()
        });
        let va = MmTag::prototype();
        let f = fixed.roundtrip_gain(Angle::from_degrees(30.0));
        let v = va.roundtrip_gain(Angle::from_degrees(30.0));
        assert!((v - f).db() > 20.0, "VA {v} vs fixed {f}");
    }

    #[test]
    fn fig6_s11_states() {
        let tag = MmTag::prototype();
        let off = tag.element_s11_db(SwitchState::Off);
        let on = tag.element_s11_db(SwitchState::On);
        assert!(off <= -13.5, "off-state S11 {off}");
        assert!(on >= -7.0, "on-state S11 {on}");
    }

    #[test]
    fn modulation_contrast_is_deep() {
        let c = MmTag::prototype().modulation_contrast(Angle::ZERO);
        assert!(c.db() > 20.0, "contrast {c}");
    }

    #[test]
    fn gbps_modulation_power_is_microwatts() {
        let tag = MmTag::prototype();
        let p = tag.modulation_power_w(DataRate::from_gbps(1.0));
        // 6 switches × ~62 µW ≈ 0.4 mW worst case; must stay far below the
        // watts an active radio needs.
        assert!(p < 1e-3, "modulation power {p} W");
        assert!(p > 1e-6);
    }

    #[test]
    fn bom_cost_is_a_few_dollars() {
        // 6 × $0.60 + $2 board ≈ $5.6 — versus hundreds for a phased array.
        let c = MmTag::prototype().bom_cost_usd();
        assert!((5.0..7.0).contains(&c), "BOM = ${c}");
    }

    #[test]
    fn more_elements_more_gain() {
        let t12 = MmTag::new(TagConfig {
            elements: 12,
            ..TagConfig::default()
        });
        let g6 = MmTag::prototype().roundtrip_gain(Angle::ZERO);
        let g12 = t12.roundtrip_gain(Angle::ZERO);
        assert!(((g12 - g6).db() - 6.02).abs() < 0.1, "doubling N adds 6 dB");
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_elements_is_a_bug() {
        let _ = MmTag::new(TagConfig {
            elements: 0,
            ..TagConfig::default()
        });
    }
}
