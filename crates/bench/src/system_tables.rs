//! E4, E9, E10, E11: system-level tables — comparison, self-interference,
//! power and the 60 GHz retune.

use mmtag::baseline::comparison_rows;
use mmtag::energy::{advantage_over_active_radio, EnergyBudget, Harvester};
use mmtag::prelude::*;
use mmtag::scenario::{build_reader, build_scene, build_tag, face_to_face};
use mmtag_antenna::PhasedArray;
use mmtag_channel::atmosphere::path_absorption;
use mmtag_sim::experiment::Table;
use mmtag_sim::scenario::{AxisKind, RunContext, ScenarioSpec};

/// **E4** spec: no axes — the comparison table is a fixed set of systems.
pub(crate) fn e4_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e04-comparison",
        "E4 — backscatter systems compared (paper §1/§3)",
    )
}

/// **E4** — the §1/§3 comparison: every published backscatter system's
/// rate at 4 ft and 10 ft, with mmTag's numbers computed live from the
/// link model. Columns: `rate_4ft_mbps`, `rate_10ft_mbps`, `mobility`
/// (1 = supports arbitrary orientation).
pub(crate) fn e4_body(ctx: &RunContext) -> Vec<Table> {
    let rows = comparison_rows(&build_reader(&ctx.spec.reader), &build_tag(&ctx.spec.tag));
    let mut t = Table::new(
        "E4 — backscatter systems compared (paper §1/§3)",
        &["rate_4ft_mbps", "rate_10ft_mbps", "mobility"],
    );
    for r in rows {
        t.push_labeled_row(
            &r.name,
            &[
                r.rate_short.mbps(),
                r.rate_10ft.mbps(),
                r.supports_mobility as u8 as f64,
            ],
        );
    }
    vec![t]
}

/// **E9** spec: the 2–12 ft range sweep at 6 samples.
pub(crate) fn e9_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e09-selfint",
        "E9 — self-interference: required isolation and its effect on rate",
    )
    .with_axis(
        "range_ft",
        AxisKind::Linspace {
            start: 2.0,
            stop: 12.0,
            points: 6,
        },
    )
}

/// **E9** — self-interference: the TX→RX isolation required for the tag
/// signal to be decodable at each range (SINR ≥ 7 dB on the best rung),
/// versus what passive isolation alone provides. Columns: `range_ft`,
/// `tag_signal_dbm`, `isolation_for_thermal_db`, `passive_only_db`,
/// `rate_with_passive_mbps`, `rate_with_110db_mbps`.
pub(crate) fn e9_body(ctx: &RunContext) -> Vec<Table> {
    let tag = build_tag(&ctx.spec.tag);
    let scene = build_scene(&ctx.spec.scene);

    let passive = build_reader(&ctx.spec.reader); // 40 dB isolation
                                                  // 110 dB total: enough to sit below even the 20 MHz rung's thermal
                                                  // floor (13 dBm TX − 108.8 dB needed).
    let cancelled = build_reader(&ReaderSpec {
        cancellation_db: 70.0,
        ..ctx.spec.reader
    });

    // Rate with SI: recompute the ladder decision against the effective
    // (noise + residual SI) floor.
    let rate_with = |reader: &Reader, power: Dbm| {
        reader
            .adaptation()
            .rungs()
            .iter()
            .find(|rung| {
                let floor = reader.effective_floor(rung.bandwidth);
                (power - floor).db() >= 7.0
            })
            .map(|r| r.rate.mbps())
            .unwrap_or(0.0)
    };

    let mut t = Table::new(
        "E9 — self-interference: required isolation and its effect on rate",
        &[
            "range_ft",
            "tag_signal_dbm",
            "isolation_for_thermal_db",
            "passive_only_db",
            "rate_with_passive_mbps",
            "rate_with_110db_mbps",
        ],
    );
    for feet in ctx.spec.values("range_ft") {
        let (rp, tp) = face_to_face(feet);
        let report = evaluate_link(&passive, &tag, &scene, rp, tp);
        let p = report.power.expect("free space is never blocked");
        t.push_row(&[
            feet,
            p.dbm(),
            passive.required_isolation(Bandwidth::from_ghz(2.0)).db(),
            passive.self_interference().total_isolation().db(),
            rate_with(&passive, p),
            rate_with(&cancelled, p),
        ]);
    }
    vec![t]
}

/// **E10** spec: no axes — a fixed set of rates and power baselines.
pub(crate) fn e10_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e10-power",
        "E10 — power budget: mmTag vs active radios (batteryless argument)",
    )
}

/// **E10** — the power table behind the batteryless claim: mmTag's draw at
/// each rate vs the active alternatives, plus harvesting feasibility.
/// Columns: `power_uw`, `advantage_vs_active`, `solar10_duty_pct`.
pub(crate) fn e10_body(ctx: &RunContext) -> Vec<Table> {
    let tag = build_tag(&ctx.spec.tag);
    let mut t = Table::new(
        "E10 — power budget: mmTag vs active radios (batteryless argument)",
        &["power_uw", "advantage_vs_active", "solar10_duty_pct"],
    );
    let solar = Harvester::IndoorSolar { area_cm2: 10.0 };
    for (label, rate) in [
        ("mmTag @ 10 Mbps", DataRate::from_mbps(10.0)),
        ("mmTag @ 100 Mbps", DataRate::from_mbps(100.0)),
        ("mmTag @ 1 Gbps", DataRate::from_gbps(1.0)),
    ] {
        let b = EnergyBudget::for_tag(&tag, rate);
        t.push_labeled_row(
            label,
            &[
                b.active_w() * 1e6,
                advantage_over_active_radio(&b),
                b.sustainable_duty_cycle(solar) * 100.0,
            ],
        );
    }
    // The alternatives, on the same axes (duty cycle: 0 — unharvestable).
    t.push_labeled_row(
        "active mmWave radio",
        &[mmtag::energy::ACTIVE_MMWAVE_RADIO_W * 1e6, 1.0, 0.0],
    );
    let pa = PhasedArray::typical(16);
    t.push_labeled_row(
        "16-el phased array",
        &[
            pa.dc_power_w() * 1e6,
            mmtag::energy::ACTIVE_MMWAVE_RADIO_W / pa.dc_power_w(),
            0.0,
        ],
    );
    vec![t]
}

/// **E11** spec: the band sweep over the three mmWave candidates.
pub(crate) fn e11_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link("e11-60ghz", "E11 — retuning mmTag across mmWave bands")
        .with_axis("freq_ghz", AxisKind::Values(vec![24.0, 39.0, 60.0]))
}

/// **E11** — retuning to 60 GHz (§7 footnote 3): tag size, atmospheric
/// absorption over 12 ft, and achievable rate at 2/4/8 ft per band.
/// Columns: `freq_ghz`, `tag_width_mm`, `o2_loss_12ft_db`,
/// `rate_2ft_mbps`, `rate_4ft_mbps`, `rate_8ft_mbps`.
pub(crate) fn e11_body(ctx: &RunContext) -> Vec<Table> {
    let scene = build_scene(&ctx.spec.scene);
    let mut t = Table::new(
        "E11 — retuning mmTag across mmWave bands",
        &[
            "freq_ghz",
            "tag_width_mm",
            "o2_loss_12ft_db",
            "rate_2ft_mbps",
            "rate_4ft_mbps",
            "rate_8ft_mbps",
        ],
    );
    for ghz in ctx.spec.values("freq_ghz") {
        let freq = Frequency::from_ghz(ghz);
        let tag = build_tag(&TagSpec {
            band_ghz: ghz,
            ..ctx.spec.tag
        });
        let reader = build_reader(&ReaderSpec::at_band(ghz));
        let rate_at = |feet: f64| {
            let (rp, tp) = face_to_face(feet);
            evaluate_link(&reader, &tag, &scene, rp, tp).rate.mbps()
        };
        let (w, _) = tag.dimensions();
        t.push_row(&[
            ghz,
            w.mm(),
            path_absorption(freq, Distance::from_feet(12.0) * 2.0).db(),
            rate_at(2.0),
            rate_at(4.0),
            rate_at(8.0),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::FigScenario;

    #[test]
    fn comparison_table_headline() {
        let t = FigScenario::new(e4_spec(), e4_body).table();
        assert_eq!(t.len(), 6);
        let mmtag_row = (0..t.len()).find(|&i| t.label(i) == "mmTag").unwrap();
        // 1 Gbps at 4 ft, 10 Mbps at 10 ft — live from the model.
        assert!((t.cell(mmtag_row, 0) - 1000.0).abs() < 1e-6);
        assert!((t.cell(mmtag_row, 1) - 10.0).abs() < 1e-6);
        // Orders of magnitude above HitchHike/BackFi/RFID.
        for i in 0..t.len() {
            let label = t.label(i).to_string();
            if label != "mmTag" && !label.starts_with("Fixed-beam") {
                assert!(t.cell(mmtag_row, 0) >= 100.0 * t.cell(i, 0), "{label}");
            }
        }
    }

    #[test]
    fn selfint_requirements_and_effects() {
        let t = FigScenario::new(e9_spec(), e9_body).table();
        // ~89 dB needed to reach the 2 GHz thermal floor.
        assert!((t.cell(0, 2) - 88.8).abs() < 0.3);
        // With only 40 dB passive isolation the link is dead at range
        // (residual −27 dBm swamps every rung's floor).
        for row in 0..t.len() {
            assert_eq!(t.cell(row, 4), 0.0, "passive-only must fail");
        }
        // With 110 dB total isolation the paper's anchors return.
        let r4 = t.find_row(0, 4.0, 1e-6).unwrap();
        assert!((t.cell(r4, 5) - 1000.0).abs() < 1e-6);
        let r10 = t.find_row(0, 10.0, 1e-6).unwrap();
        assert!(t.cell(r10, 5) >= 10.0);
    }

    #[test]
    fn power_table_shows_orders_of_magnitude() {
        let t = FigScenario::new(e10_spec(), e10_body).table();
        let gbps = (0..t.len())
            .find(|&i| t.label(i) == "mmTag @ 1 Gbps")
            .unwrap();
        assert!(t.cell(gbps, 0) < 1000.0, "µW scale");
        assert!(t.cell(gbps, 1) > 1e3, "≥ 1000× under the active radio");
        assert!(t.cell(gbps, 2) > 10.0, "solar duty > 10%");
        let radio = (0..t.len())
            .find(|&i| t.label(i) == "active mmWave radio")
            .unwrap();
        assert!(t.cell(radio, 0) / t.cell(gbps, 0) > 1e3);
    }

    #[test]
    fn sixty_ghz_shrinks_tag_and_range_but_o2_is_negligible() {
        let t = FigScenario::new(e11_spec(), e11_body).table();
        let r24 = t.find_row(0, 24.0, 1e-9).unwrap();
        let r60 = t.find_row(0, 60.0, 1e-9).unwrap();
        // Tag shrinks by the wavelength ratio.
        assert!(t.cell(r60, 1) < t.cell(r24, 1) / 2.0);
        // O2 absorption over the paper's whole range span: < 0.2 dB even
        // at the 60 GHz peak — absorption is NOT the limiter indoors.
        assert!(t.cell(r60, 2) < 0.2, "O2 loss {}", t.cell(r60, 2));
        // Range is the cost: at 4 ft, 60 GHz falls below 24 GHz's rate.
        assert!(t.cell(r60, 4) < t.cell(r24, 4));
        // But at 2 ft even 60 GHz still links fast.
        assert!(t.cell(r60, 3) >= 100.0);
    }
}
