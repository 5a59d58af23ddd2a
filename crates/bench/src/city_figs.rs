//! E27, E28: city-scale experiments — the sharded event engine at density,
//! under mobility and blockage.
//!
//! These are the §9 "network of mmTags" endgame runs: a reader grid
//! inventorying 10³–10⁵ mobile, energy-harvesting tags through
//! [`mmtag_mac::city::CityEngine`]. Both scenarios run the production
//! engine — chunk-kernel barrier, sharded per-slot rounds — at the
//! context's thread budget: E27 hands the budget to each engine in turn
//! (its 10⁵-tag point is most of its work), E28 fans its nine independent
//! engines out across it, one thread each. The registry smoke, the
//! RunCache round-trip and the determinism tests therefore exercise the
//! exact production path (and its bit-identical-anywhere contract)
//! rather than a scaled-down stand-in.

use mmtag_mac::city::{CityConfig, CityEngine};
use mmtag_sim::experiment::Table;
use mmtag_sim::par::par_map_with;
use mmtag_sim::scenario::{AxisKind, RunContext, ScenarioSpec};

/// **E27** spec: tag-density sweep (10³ → 10⁵ tags) on the dense city.
/// The axis is `Values`, and minimizing keeps its first `max_points`
/// values: the three-point smoke size (`run_minimized(_, 3, _)`, as in
/// `mmtag run --quick` and the registry smoke tests) keeps the 10⁵ point,
/// while two-point runs — `crates/bench/tests/city.rs`'s `(2, 50)` and
/// perfbench's `(2, 100)` warm-up — stop at 10⁴.
pub(crate) fn e27_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e27-city-density",
        "E27 — city-scale inventory vs tag density on the sharded event engine",
    )
    .with_axis("tags", AxisKind::Values(vec![1e3, 1e4, 1e5]))
    .with_seed(seed)
}

/// **E27** — inventory throughput vs tag density: reads, slot efficiency
/// and simulated makespan for 10³/10⁴/10⁵ tags on the 4 × 4 reader grid.
/// Columns: `tags`, `tags_read`, `read_frac`, `slots`, `events`,
/// `slot_eff`, `elapsed_ms`.
pub(crate) fn e27_body(ctx: &RunContext) -> Vec<Table> {
    let mut t = Table::new(
        "E27 — city-scale inventory vs tag density on the sharded event engine",
        &[
            "tags",
            "tags_read",
            "read_frac",
            "slots",
            "events",
            "slot_eff",
            "elapsed_ms",
        ],
    );
    for (i, v) in ctx.spec.values("tags").iter().enumerate() {
        let cfg = CityConfig::dense(*v as usize, 12);
        let mut eng = CityEngine::new(cfg, ctx.tree.subtree_indexed("density", i as u64));
        let s = eng.run_rounds(ctx.threads);
        t.push_row(&[
            *v,
            s.tags_read as f64,
            s.tags_read as f64 / cfg.tags as f64,
            s.slots as f64,
            s.events as f64,
            if s.slots > 0 {
                s.tags_read as f64 / s.slots as f64
            } else {
                0.0
            },
            s.elapsed.as_secs_f64() * 1e3,
        ]);
    }
    vec![t]
}

/// E28's fixed tag population.
const E28_TAGS: usize = 20_000;

/// **E28** spec: mobility × blockage grid at a fixed 20 k-tag population.
pub(crate) fn e28_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e28-city-mobility",
        "E28 — mobility and blockage traces over the city inventory",
    )
    .with_axis("speed_mps", AxisKind::Values(vec![0.0, 1.5, 6.0]))
    .with_axis("blockers", AxisKind::Values(vec![0.0, 12.0, 48.0]))
    .with_seed(seed)
}

/// **E28** — mobility/blockage traces: how tag speed and wall density
/// reshape the inventory (mobility churns reader assignment; blockage
/// gates line of sight). Columns: `speed_mps`, `blockers`, `tags_read`,
/// `read_frac`, `collision_frac`, `empty_frac`.
pub(crate) fn e28_body(ctx: &RunContext) -> Vec<Table> {
    let mut t = Table::new(
        "E28 — mobility and blockage traces over the city inventory",
        &[
            "speed_mps",
            "blockers",
            "tags_read",
            "read_frac",
            "collision_frac",
            "empty_frac",
        ],
    );
    // The (speed, blockers) engines are independent — point `i` takes
    // the `("trace", i)` subtree — so they fan out at the runner's thread
    // budget, each engine running its rounds on one thread.
    let speeds = ctx.spec.values("speed_mps");
    let blockers = ctx.spec.values("blockers");
    let points: Vec<(f64, f64)> = speeds
        .iter()
        .flat_map(|&speed| blockers.iter().map(move |&b| (speed, b)))
        .collect();
    let stats = par_map_with(ctx.threads, &points, |i, &(speed, blockers)| {
        let mut cfg = CityConfig::dense(E28_TAGS, 8);
        cfg.speed_mps = speed;
        cfg.blockers = blockers as usize;
        CityEngine::new(cfg, ctx.tree.subtree_indexed("trace", i as u64)).run_rounds(1)
    });
    for (&(speed, blockers), s) in points.iter().zip(&stats) {
        let slots = (s.slots as f64).max(1.0);
        t.push_row(&[
            speed,
            blockers,
            s.tags_read as f64,
            s.tags_read as f64 / E28_TAGS as f64,
            s.collisions as f64 / slots,
            s.empties as f64 / slots,
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::FigScenario;
    use mmtag_sim::scenario::Runner;

    fn quick(spec: ScenarioSpec, body: crate::scenarios::FigBody) -> Table {
        // Clamp every axis to 2 points so unit tests stay sub-second;
        // the full-size points run in the registry smoke and benches.
        Runner::new()
            .run_minimized(&FigScenario::new(spec, body), 2, 50)
            .into_table()
    }

    #[test]
    fn density_sweep_reads_more_tags_at_higher_density() {
        let t = quick(e27_spec(7), e27_body);
        assert_eq!(t.len(), 2);
        let read = t.column(1);
        assert!(read[1] > read[0], "10× the tags must yield more reads");
        for row in 0..t.len() {
            assert!(t.cell(row, 2) > 0.0, "every density reads something");
            assert!(t.cell(row, 6) > 0.0, "simulated time must pass");
        }
    }

    #[test]
    fn mobility_grid_covers_every_speed_blocker_pair() {
        let t = quick(e28_spec(7), e28_body);
        assert_eq!(t.len(), 4); // 2 speeds × 2 blocker counts
        for row in 0..t.len() {
            assert!(t.cell(row, 3) > 0.0, "row {row}: some tags read");
            let frac = t.cell(row, 4) + t.cell(row, 5);
            assert!(frac <= 1.0, "row {row}: fractions are fractions");
        }
    }
}
