//! E3 and E6: antenna-level figures — retrodirectivity and array scaling.

use mmtag_antenna::element::PatchElement;
use mmtag_antenna::{LinearArray, ReflectorWiring, VanAttaArray};
use mmtag_rf::units::{Angle, Db};
use mmtag_sim::experiment::Table;
use mmtag_sim::scenario::{AxisKind, RunContext, ScenarioSpec};

/// **E3** spec: the ±75° incidence sweep at 151 samples.
pub(crate) fn e3_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e03-retro",
        "E3 — monostatic gain vs incidence angle (6 elements)",
    )
    .with_axis(
        "incidence_deg",
        AxisKind::Linspace {
            start: -75.0,
            stop: 75.0,
            points: 151,
        },
    )
}

/// **E3** — monostatic (back-toward-reader) gain vs incidence angle for the
/// three wirings: mmTag's Van Atta, the fixed-beam tag of \[18\], and a plain
/// specular mirror. Columns: `incidence_deg`, `van_atta_db`, `fixed_beam_db`,
/// `mirror_db`.
///
/// The paper's §5.2 claim to reproduce: the Van Atta tag "reflects the
/// signal back to the direction of arrival regardless of incidence angle",
/// while the fixed-beam tag "only works when the tag is exactly in front of
/// the reader".
pub(crate) fn e3_body(ctx: &RunContext) -> Vec<Table> {
    let elements = ctx.spec.tag.elements;
    let build = |wiring| {
        VanAttaArray::new(
            LinearArray::half_wavelength(elements),
            PatchElement::mmtag_default(),
            wiring,
        )
    };
    let va = build(ReflectorWiring::VanAtta);
    let fb = build(ReflectorWiring::FixedBeam);
    let mirror = build(ReflectorWiring::Specular);

    let mut t = Table::new(
        "E3 — monostatic gain vs incidence angle (6 elements)",
        &["incidence_deg", "van_atta_db", "fixed_beam_db", "mirror_db"],
    );
    for deg in ctx.spec.values("incidence_deg") {
        let a = Angle::from_degrees(deg);
        t.push_row(&[
            deg,
            Db::from_linear(va.monostatic_gain(a)).db(),
            Db::from_linear(fb.monostatic_gain(a)).db(),
            Db::from_linear(mirror.monostatic_gain(a)).db(),
        ]);
    }
    vec![t]
}

/// **E6** spec: the element-count sweep (the paper's 6 plus scaling points).
pub(crate) fn e6_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e06-beamwidth",
        "E6 — tag beamwidth and retro gain vs element count",
    )
    .with_axis(
        "elements",
        AxisKind::Values(vec![2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0]),
    )
}

/// **E6** — beamwidth, retro gain and implied link metrics vs element
/// count. Columns: `elements`, `beamwidth_deg`, `retro_gain_db`,
/// `gain_vs_n6_db`.
///
/// §7: 6 elements ⇒ ~20° beamwidth; §8: "range and data-rate … can be
/// further increased by using more antenna elements."
pub(crate) fn e6_body(ctx: &RunContext) -> Vec<Table> {
    let gain_of = |n: usize| {
        let va = VanAttaArray::new(
            LinearArray::half_wavelength(n),
            PatchElement::mmtag_default(),
            ReflectorWiring::VanAtta,
        );
        Db::from_linear(va.monostatic_gain(Angle::ZERO)).db()
    };
    let g6 = gain_of(6);
    let mut t = Table::new(
        "E6 — tag beamwidth and retro gain vs element count",
        &[
            "elements",
            "beamwidth_deg",
            "retro_gain_db",
            "gain_vs_n6_db",
        ],
    );
    for v in ctx.spec.values("elements") {
        let n = v as usize;
        let arr = LinearArray::half_wavelength(n);
        let g = gain_of(n);
        t.push_row(&[n as f64, arr.half_power_beamwidth_deg(), g, g - g6]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::FigScenario;

    #[test]
    fn retro_curve_shapes() {
        let t = FigScenario::new(e3_spec(), e3_body).table();
        let broadside = t.find_row(0, 0.0, 0.6).unwrap();
        let at45 = t.find_row(0, 45.0, 0.6).unwrap();

        // At broadside all three coincide (within a dB).
        let (va0, fb0, mr0) = (
            t.cell(broadside, 1),
            t.cell(broadside, 2),
            t.cell(broadside, 3),
        );
        assert!((va0 - fb0).abs() < 1.0 && (va0 - mr0).abs() < 1.0);

        // At 45°: Van Atta keeps most of its gain (element rolloff only);
        // fixed beam and mirror collapse by ≥ 15 dB relative to it.
        let (va45, fb45, mr45) = (t.cell(at45, 1), t.cell(at45, 2), t.cell(at45, 3));
        assert!(va0 - va45 < 10.0, "VA rolloff {}", va0 - va45);
        assert!(va45 - fb45 > 15.0, "VA {va45} vs fixed {fb45}");
        assert!(va45 - mr45 > 15.0, "VA {va45} vs mirror {mr45}");
    }

    #[test]
    fn van_atta_is_flat_over_pm60() {
        let t = FigScenario::new(e3_spec(), e3_body).table();
        // Within ±60°, the Van Atta column never falls more than the
        // element pattern's cos⁴ factor (≈ 12 dB at 60°) below broadside.
        let va0 = t.cell(t.find_row(0, 0.0, 0.6).unwrap(), 1);
        for row in 0..t.len() {
            let deg: f64 = t.cell(row, 0);
            if deg.abs() <= 60.0 {
                assert!(
                    va0 - t.cell(row, 1) <= 13.0,
                    "VA drop {} dB at {deg}°",
                    va0 - t.cell(row, 1)
                );
            }
        }
    }

    #[test]
    fn beamwidth_table_matches_paper_and_scaling() {
        let t = FigScenario::new(e6_spec(), e6_body).table();
        let n6 = t.find_row(0, 6.0, 1e-9).unwrap();
        // §7: "20 degree beam width" (array factor ~17°, rounded up).
        let bw6 = t.cell(n6, 1);
        assert!((15.0..21.0).contains(&bw6), "N=6 beamwidth {bw6}");
        // Doubling N: beamwidth halves, retro gain +6 dB.
        let n12 = t.find_row(0, 12.0, 1e-9).unwrap();
        assert!((t.cell(n6, 1) / t.cell(n12, 1) - 2.0).abs() < 0.25);
        assert!((t.cell(n12, 3) - 6.02).abs() < 0.1);
        // Monotone: beamwidth strictly decreasing, gain strictly increasing.
        let bw = t.column(1);
        let g = t.column(2);
        assert!(bw.windows(2).all(|w| w[1] < w[0]));
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }
}
