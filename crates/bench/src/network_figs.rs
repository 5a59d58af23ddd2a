//! E7, E8, E12: network-level experiments — MAC, mobility, NLOS.

use mmtag::prelude::*;
use mmtag::scenario::{build_reader, build_scene, build_tag, offset_poses};
use mmtag_mac::aloha::{inventory_until_drained, slotted_aloha_throughput, QAlgorithm};
use mmtag_mac::{ScanSchedule, SectorScheduler};
use mmtag_rf::rng::Xoshiro256pp;
use mmtag_sim::experiment::Table;
use mmtag_sim::scenario::{AxisKind, RunContext, ScenarioSpec};

/// **E7** spec: the population sweep under `seed`.
pub(crate) fn e7_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e07-aloha",
        "E7 — inventory cost vs population: single domain vs SDM sectors",
    )
    .with_axis(
        "tags",
        AxisKind::Values(vec![4.0, 16.0, 64.0, 128.0, 256.0]),
    )
    .with_seed(seed)
}

/// **E7** — multi-tag inventory: adaptive framed-Aloha slot efficiency and
/// the SDM comparison, vs population size. Columns: `tags`,
/// `single_domain_slots`, `single_eff`, `sdm_slots`, `sdm_eff`,
/// `aloha_bound` (1/e).
pub(crate) fn e7_body(ctx: &RunContext) -> Vec<Table> {
    let scan = ScanSchedule::new(
        Angle::from_degrees(120.0),
        Angle::from_degrees(20.0),
        Duration::from_millis(1),
    );
    let mut rng = Xoshiro256pp::seed_from(ctx.spec.seed);
    let mut t = Table::new(
        "E7 — inventory cost vs population: single domain vs SDM sectors",
        &[
            "tags",
            "single_domain_slots",
            "single_eff",
            "sdm_slots",
            "sdm_eff",
            "aloha_bound",
        ],
    );
    for v in ctx.spec.values("tags") {
        let n = v as usize;
        let angles: Vec<Angle> = (0..n)
            .map(|i| Angle::from_degrees(-55.0 + 110.0 * i as f64 / (n.max(2) - 1) as f64))
            .collect();
        let part = SectorScheduler::partition(scan, &angles);
        let single = inventory_until_drained(n, QAlgorithm::new(), 100_000, &mut rng);
        let sdm = part.inventory_sdm(&mut rng);
        t.push_row(&[
            n as f64,
            single.total_slots as f64,
            single.efficiency(),
            sdm.total_slots as f64,
            sdm.efficiency(),
            slotted_aloha_throughput(1.0),
        ]);
    }
    vec![t]
}

/// **E8** spec: the 0–60° rotation sweep at 4 ft (13 samples, 5° apart).
pub(crate) fn e8_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e08-mobility",
        "E8 — achievable rate vs tag rotation at 4 ft: Van Atta vs fixed beam",
    )
    .with_axis(
        "rotation_deg",
        AxisKind::Linspace {
            start: 0.0,
            stop: 60.0,
            points: 13,
        },
    )
}

/// **E8** — mobility: link uptime and mean rate over a 60° rotation sweep
/// for the Van Atta tag vs the fixed-beam baseline, at 4 ft. Columns:
/// `rotation_deg`, `van_atta_mbps`, `fixed_beam_mbps`.
pub(crate) fn e8_body(ctx: &RunContext) -> Vec<Table> {
    let reader = build_reader(&ctx.spec.reader);
    let scene = build_scene(&ctx.spec.scene);
    let va = build_tag(&ctx.spec.tag);
    let fb = build_tag(&ctx.spec.tag.with_wiring(WiringSpec::FixedBeam));
    let mut t = Table::new(
        "E8 — achievable rate vs tag rotation at 4 ft: Van Atta vs fixed beam",
        &["rotation_deg", "van_atta_mbps", "fixed_beam_mbps"],
    );
    for rot in ctx.spec.values("rotation_deg") {
        let (rp, tp) = offset_poses(4.0, rot, 0.0);
        let r_va = evaluate_link(&reader, &va, &scene, rp, tp);
        let r_fb = evaluate_link(&reader, &fb, &scene, rp, tp);
        t.push_row(&[rot, r_va.rate.mbps(), r_fb.rate.mbps()]);
    }
    vec![t]
}

/// **E12** spec: the 5 × 2 m corridor with the paper's blocker, swept over
/// blocker presence.
pub(crate) fn e12_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e12-nlos",
        "E12 — LOS blockage and NLOS fallback in a 5 × 2 m corridor",
    )
    .with_scene(SceneSpec::room(5.0, 2.0).with_blocker(1.0, 0.8, 1.0, 1.2))
    .with_axis("blocker_present", AxisKind::Values(vec![0.0, 1.0]))
}

/// **E12** — NLOS operation (§4): a corridor with a blocker stepping into
/// the LOS path. Columns: `blocker_present` (0/1), `via_los` (0/1),
/// `power_dbm`, `rate_mbps`.
pub(crate) fn e12_body(ctx: &RunContext) -> Vec<Table> {
    let reader = build_reader(&ctx.spec.reader);
    let tag = build_tag(&ctx.spec.tag);
    let rp = Pose::new(Vec2::new(0.5, 1.0), Angle::ZERO);
    let tp = Pose::new(Vec2::new(1.5, 1.0), Angle::from_degrees(180.0));

    let mut t = Table::new(
        "E12 — LOS blockage and NLOS fallback in a 5 × 2 m corridor",
        &["blocker_present", "via_los", "power_dbm", "rate_mbps"],
    );
    for blocked in ctx.spec.values("blocker_present") {
        let scene = if blocked != 0.0 {
            build_scene(&ctx.spec.scene)
        } else {
            build_scene(&ctx.spec.scene.without_blockers())
        };
        let r = evaluate_link(&reader, &tag, &scene, rp, tp);
        t.push_row(&[
            blocked,
            r.via_los as u8 as f64,
            r.power.map(|p| p.dbm()).unwrap_or(f64::NEG_INFINITY),
            r.rate.mbps(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::FigScenario;

    #[test]
    fn aloha_efficiency_approaches_bound() {
        let t = FigScenario::new(e7_spec(11), e7_body).table();
        for row in 0..t.len() {
            let n = t.cell(row, 0);
            let eff = t.cell(row, 2);
            let sdm_eff = t.cell(row, 4);
            // Small populations pay Q-settling overhead; at scale the
            // adaptive framing holds ≥ 25%, bounded above by 1/e.
            if n >= 64.0 {
                assert!((0.25..=0.3679).contains(&eff), "single-domain eff {eff}");
                assert!(sdm_eff > 0.20, "SDM eff {sdm_eff}");
            } else {
                // Finite frames can slightly beat the asymptotic 1/e:
                // (1 − 1/16)^15 ≈ 0.379 for a lucky n = L = 16 round.
                assert!(eff > 0.08 && eff <= 0.40, "n={n} eff {eff}");
            }
        }
        // Cost grows with population.
        let slots = t.column(1);
        assert!(slots.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn mobility_van_atta_dominates() {
        let t = FigScenario::new(e8_spec(), e8_body).table();
        // Van Atta ≥ 100 Mbps out to 60°; fixed beam below Van Atta from
        // 20° on (sidelobes may blip, but never reach the retro rate).
        for row in 0..t.len() {
            let rot = t.cell(row, 0);
            let va = t.cell(row, 1);
            let fb = t.cell(row, 2);
            assert!(va >= 100.0, "VA at {rot}°: {va} Mbps");
            if rot >= 20.0 {
                assert!(fb < va, "fixed {fb} !< VA {va} at {rot}°");
            }
        }
        // At 0° both equal (1 Gbps).
        assert_eq!(t.cell(0, 1), 1000.0);
        assert_eq!(t.cell(0, 2), 1000.0);
    }

    #[test]
    fn nlos_fallback_keeps_link_alive() {
        let t = FigScenario::new(e12_spec(), e12_body).table();
        assert_eq!(t.cell(0, 1), 1.0, "clear case is LOS");
        assert!(t.cell(0, 3) >= 1000.0, "clear case at 1 Gbps");
        assert_eq!(t.cell(1, 1), 0.0, "blocked case is NLOS");
        assert!(t.cell(1, 3) > 0.0, "NLOS link must be up");
        assert!(t.cell(1, 2) < t.cell(0, 2), "NLOS is weaker");
    }
}
