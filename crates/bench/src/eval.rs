//! E1 and E2: the paper's own evaluation figures (Fig. 6 and Fig. 7).
//!
//! Each experiment is a `(spec, body)` pair: the spec declares the sweep
//! axes and hardware configs, the body interprets them through
//! `mmtag::scenario`'s builders, and `crate::scenarios` registers the
//! pair, so the [`Runner`] pipeline runs it by name.

use mmtag::prelude::*;
use mmtag::scenario::{face_to_face, LinkSetup};
use mmtag_antenna::sparams::{ElementPort, SwitchState};
use mmtag_sim::experiment::Table;
use mmtag_sim::scenario::{AxisKind, RunContext, ScenarioSpec};

/// Default sample count of the E1 frequency sweep (the published
/// resolution).
pub const E1_POINTS: usize = 201;

/// **E1 / Fig. 6** spec: S11 over 23.5–24.5 GHz at `points` samples.
pub(crate) fn e1_spec(points: usize) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e01-s11",
        "Fig. 6 — S11 of a tag antenna element (switch off vs on)",
    )
    .with_axis(
        "freq_ghz",
        AxisKind::Linspace {
            start: 23.5,
            stop: 24.5,
            points,
        },
    )
}

/// **E1 / Fig. 6** — S11 of one tag element over 23.5–24.5 GHz in both
/// switch states. Columns: `freq_ghz`, `s11_off_db`, `s11_on_db`.
///
/// Paper's observations to reproduce: "When the switch is off, S11 is
/// −15 dB at the 24 GHz carrier frequency… when the switch turns on…
/// S11 is as high as −5 dB."
pub(crate) fn e1_body(ctx: &RunContext) -> Vec<Table> {
    let elem = ElementPort::mmtag_default();
    let mut t = Table::new(
        "Fig. 6 — S11 of a tag antenna element (switch off vs on)",
        &["freq_ghz", "s11_off_db", "s11_on_db"],
    );
    for f in ctx.spec.values("freq_ghz") {
        let freq = Frequency::from_ghz(f);
        t.push_row(&[
            f,
            elem.s11_db(freq, SwitchState::Off),
            elem.s11_db(freq, SwitchState::On),
        ]);
    }
    vec![t]
}

/// **E2 / Fig. 7** spec: the 2–12 ft range sweep over the paper's default
/// hardware.
pub(crate) fn e2_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e02-link-budget",
        "Fig. 7 — tag signal power vs range, noise floors, achievable rate",
    )
    .with_axis(
        "range_ft",
        AxisKind::Linspace {
            start: 2.0,
            stop: 12.0,
            points: 21,
        },
    )
}

/// **E2 / Fig. 7** — tag signal power at the reader vs range, the three
/// noise floors, and the achievable rate. Columns: `range_ft`,
/// `tag_signal_dbm`, `floor_2ghz_dbm`, `floor_200mhz_dbm`,
/// `floor_20mhz_dbm`, `rate_mbps`.
///
/// Anchors: 1 Gbps at 4 ft, 10 Mbps at 10 ft; floors ≈ −76/−86/−96 dBm.
pub(crate) fn e2_body(ctx: &RunContext) -> Vec<Table> {
    let setup = LinkSetup::from_spec(ctx.spec);

    let floors = [
        setup.reader.noise().floor(Bandwidth::from_ghz(2.0)).dbm(),
        setup.reader.noise().floor(Bandwidth::from_mhz(200.0)).dbm(),
        setup.reader.noise().floor(Bandwidth::from_mhz(20.0)).dbm(),
    ];
    let mut t = Table::new(
        "Fig. 7 — tag signal power vs range, noise floors, achievable rate",
        &[
            "range_ft",
            "tag_signal_dbm",
            "floor_2ghz_dbm",
            "floor_200mhz_dbm",
            "floor_20mhz_dbm",
            "rate_mbps",
        ],
    );
    for feet in ctx.spec.values("range_ft") {
        let (rp, tp) = face_to_face(feet);
        let report = setup.evaluate(rp, tp);
        t.push_row(&[
            feet,
            report.power.map(|p| p.dbm()).unwrap_or(f64::NEG_INFINITY),
            floors[0],
            floors[1],
            floors[2],
            report.rate.mbps(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::FigScenario;

    #[test]
    fn fig6_reproduces_paper_anchors() {
        let t = FigScenario::new(e1_spec(201), e1_body).table();
        assert_eq!(t.len(), 201);
        let center = t.find_row(0, 24.0, 1e-9).expect("24 GHz sampled");
        let off = t.cell(center, 1);
        let on = t.cell(center, 2);
        // Paper: −15 dB off, −5 dB on at the carrier.
        assert!((-16.5..=-13.5).contains(&off), "S11(off) = {off}");
        assert!((-7.0..=-3.5).contains(&on), "S11(on) = {on}");
        // Shape: off-state dips at center, rises ≥ 5 dB at both edges.
        assert!(t.cell(0, 1) > off + 5.0);
        assert!(t.cell(200, 1) > off + 5.0);
        // On-state is flat-ish (no resonance left).
        let on_col = t.column(2);
        let (min, max) = on_col
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        assert!(max - min < 3.0, "on-state ripple {}", max - min);
    }

    #[test]
    fn fig7_reproduces_paper_anchors() {
        let t = FigScenario::new(e2_spec(), e2_body).table();
        let at = |feet: f64| {
            let row = t.find_row(0, feet, 1e-6).expect("range sampled");
            (t.cell(row, 1), t.cell(row, 5))
        };
        let (p4, r4) = at(4.0);
        let (p10, r10) = at(10.0);
        assert!(r4 >= 1000.0, "rate at 4 ft = {r4} Mbps");
        assert!(r10 >= 10.0, "rate at 10 ft = {r10} Mbps");
        // Fig. 7's y-axis: signal between −40 and −110 dBm over the sweep.
        assert!((-70.0..=-50.0).contains(&p4), "P(4ft) = {p4}");
        assert!((-90.0..=-75.0).contains(&p10), "P(10ft) = {p10}");
        // Floors match the paper's kTB+NF arithmetic.
        assert!((t.cell(0, 2) + 75.8).abs() < 0.3);
        assert!((t.cell(0, 3) + 85.8).abs() < 0.3);
        assert!((t.cell(0, 4) + 95.8).abs() < 0.3);
        // d⁻⁴ slope: from 3 ft to 6 ft the signal drops ~12 dB.
        let (p3, _) = at(3.0);
        let (p6, _) = at(6.0);
        assert!((p3 - p6 - 12.04).abs() < 0.1, "slope {}", p3 - p6);
        // Signal stays above the 20 MHz floor through 12 ft (as plotted).
        let (p12, r12) = at(12.0);
        assert!(p12 > t.cell(0, 4));
        assert!(r12 >= 10.0);
    }
}
