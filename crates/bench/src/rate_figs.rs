//! E29–E31: multi-tag rate-region experiments (DESIGN.md §14).
//!
//! The §9 "network of mmTags" question, asked information-theoretically:
//! N backscatter tags share one reader over a
//! [`mmtag_channel::cascade::MultiTagCascade`], each switching an M-state
//! reflection constellation, and every operating point trades primary-link
//! rate against backscatter sum rate through the tags' modulation depth.
//! E29 traces the boundary of that trade (weight sweep), E30 scales the
//! tag count, E31 the constellation order. All three run the
//! [`mmtag_sim::rate_region`] chunk grid at the context's thread budget,
//! so the registry smoke and RunCache round-trip exercise the exact
//! production path. E29's eleven weights all select from one estimate of
//! the depth curves, so its rows are monotone along the weight axis and
//! weights that select the same depth read the same rates; E30 and E31
//! run one weight per call.

use mmtag_channel::cascade::{HopModel, MultiTagCascade};
use mmtag_phy::constellation::TagConstellation;
use mmtag_sim::experiment::Table;
use mmtag_sim::rate_region::{rate_region_grid_par_with, RateRegionConfig};
use mmtag_sim::scenario::{AxisKind, RunContext, ScenarioSpec};

/// Direct-link SNR for the canonical scene, dB.
const SNR_DB: f64 = 10.0;
/// Backscatter/primary symbol-duration ratio (RIScatter's symbolRatio).
const SYMBOL_RATIO: f64 = 10.0;
/// Amplitude scatter ratio α of every tag (RIScatter's scatterRatio).
const SCATTER_RATIO: f64 = 0.5;
/// Primary-rate weight of the E30/E31 operating point. Backscatter rates
/// are per *primary symbol* (÷ symbolRatio), so they sit an order of
/// magnitude below the primary rate; a backscatter-leaning weight keeps
/// the selected depth in information mode, where tag count and
/// constellation order actually move the sum rate (E29 shows w ≥ 0.4
/// collapsing to pure beamforming).
const BACKSCATTER_WEIGHT: f64 = 0.1;

/// The canonical E29–E31 scene: N tags on a 2 m ring around the receiver,
/// 10 m from the reader, RIScatter-style path classes — direct γ = 2.6,
/// forward γ = 2.4, backward γ = 2.0, K = 5 everywhere.
fn ring_scene(n_tags: usize) -> MultiTagCascade {
    MultiTagCascade::ring(
        n_tags,
        10.0,
        2.0,
        HopModel::new(2.6, 5.0),
        HopModel::new(2.4, 5.0),
        HopModel::new(2.0, 5.0),
    )
}

/// **E29** spec: primary-rate weight sweep 0 → 1 over the two-tag,
/// 4-state-PSK scene — the rate-region boundary itself.
pub(crate) fn e29_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e29-rate-region",
        "E29 — primary vs backscatter rate-region boundary (2 tags, 4-PSK)",
    )
    .with_axis(
        "weight",
        AxisKind::Linspace {
            start: 0.0,
            stop: 1.0,
            points: 11,
        },
    )
    .with_trials(800)
    .with_seed(seed)
}

/// **E29** — the rate-region boundary: selected modulation depth, primary
/// rate (bit/s/Hz) and backscatter sum rate (bit per primary symbol) at
/// each weight. Columns: `weight`, `depth`, `primary_rate`,
/// `backscatter_rate`, `weighted_sum`.
pub(crate) fn e29_body(ctx: &RunContext) -> Vec<Table> {
    let cfg = RateRegionConfig {
        cascade: ring_scene(2),
        constellation: TagConstellation::psk(4, SCATTER_RATIO),
        snr_db: SNR_DB,
        symbol_ratio: SYMBOL_RATIO,
    };
    let weights = ctx.spec.values("weight");
    let tree = ctx.tree.subtree("rate-region");
    let points = rate_region_grid_par_with(ctx.threads, &cfg, &weights, ctx.spec.trials, &tree);
    let mut t = Table::new(
        "E29 — primary vs backscatter rate-region boundary (2 tags, 4-PSK)",
        &[
            "weight",
            "depth",
            "primary_rate",
            "backscatter_rate",
            "weighted_sum",
        ],
    );
    for p in points {
        t.push_row(&[
            p.weight,
            p.depth,
            p.primary_rate,
            p.backscatter_rate,
            p.weighted_sum,
        ]);
    }
    vec![t]
}

/// **E30** spec: backscatter-weighted (w = 0.1) sum rate vs number of
/// tags, binary reflection states.
pub(crate) fn e30_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e30-rate-vs-tags",
        "E30 — backscatter-weighted sum rate vs number of coexisting tags (2-PSK)",
    )
    .with_axis("tags", AxisKind::Values(vec![1.0, 2.0, 3.0, 4.0]))
    .with_trials(600)
    .with_seed(seed)
}

/// **E30** — how the information-mode (w = 0.1) operating point moves as
/// tags are added to the ring: more tags mean more joint-alphabet
/// backscatter sum rate (and more cascade power in the equivalent
/// channel). Columns: `tags`, `depth`,
/// `primary_rate`, `backscatter_rate`, `weighted_sum`.
pub(crate) fn e30_body(ctx: &RunContext) -> Vec<Table> {
    // One shared subtree across the axis: cascade streams are keyed by tag
    // index, so tag i's fades are bit-identical at every population size
    // and the N sweep varies only what it claims to vary.
    let tree = ctx.tree.subtree("rate-region");
    let mut t = Table::new(
        "E30 — backscatter-weighted sum rate vs number of coexisting tags (2-PSK)",
        &[
            "tags",
            "depth",
            "primary_rate",
            "backscatter_rate",
            "weighted_sum",
        ],
    );
    for v in ctx.spec.values("tags") {
        let cfg = RateRegionConfig {
            cascade: ring_scene(v as usize),
            constellation: TagConstellation::psk(2, SCATTER_RATIO),
            snr_db: SNR_DB,
            symbol_ratio: SYMBOL_RATIO,
        };
        let p = rate_region_grid_par_with(
            ctx.threads,
            &cfg,
            &[BACKSCATTER_WEIGHT],
            ctx.spec.trials,
            &tree,
        )[0];
        t.push_row(&[
            v,
            p.depth,
            p.primary_rate,
            p.backscatter_rate,
            p.weighted_sum,
        ]);
    }
    vec![t]
}

/// **E31** spec: backscatter-weighted (w = 0.1) sum rate vs constellation
/// order, two tags.
pub(crate) fn e31_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e31-rate-vs-states",
        "E31 — backscatter-weighted sum rate vs constellation order (2 tags)",
    )
    .with_axis("states", AxisKind::Values(vec![2.0, 4.0, 8.0]))
    .with_trials(500)
    .with_seed(seed)
}

/// **E31** — what a richer reflection alphabet buys at the
/// information-mode (w = 0.1) operating point: PSK order 2 → 8 on both
/// tags. Columns: `states`,
/// `depth`, `primary_rate`, `backscatter_rate`, `weighted_sum`.
pub(crate) fn e31_body(ctx: &RunContext) -> Vec<Table> {
    let tree = ctx.tree.subtree("rate-region");
    let mut t = Table::new(
        "E31 — backscatter-weighted sum rate vs constellation order (2 tags)",
        &[
            "states",
            "depth",
            "primary_rate",
            "backscatter_rate",
            "weighted_sum",
        ],
    );
    for v in ctx.spec.values("states") {
        let cfg = RateRegionConfig {
            cascade: ring_scene(2),
            constellation: TagConstellation::psk(v as usize, SCATTER_RATIO),
            snr_db: SNR_DB,
            symbol_ratio: SYMBOL_RATIO,
        };
        let p = rate_region_grid_par_with(
            ctx.threads,
            &cfg,
            &[BACKSCATTER_WEIGHT],
            ctx.spec.trials,
            &tree,
        )[0];
        t.push_row(&[
            v,
            p.depth,
            p.primary_rate,
            p.backscatter_rate,
            p.weighted_sum,
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::FigScenario;
    use mmtag_sim::scenario::Runner;

    fn quick(spec: ScenarioSpec, body: fn(&RunContext) -> Vec<Table>) -> Vec<Table> {
        Runner::new()
            .run_minimized(&FigScenario::new(spec, body), 3, 64)
            .tables
    }

    #[test]
    fn e29_shape() {
        let tables = quick(e29_spec(7), e29_body);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.len(), 3); // minimized weight axis

        // Boundary endpoints: w = 0 favors backscatter, w = 1 kills it.
        assert_eq!(t.cell(0, 0), 0.0);
        assert_eq!(t.cell(2, 0), 1.0);
        assert_eq!(t.cell(2, 3), 0.0, "w = 1 must select pure beamforming");
        // One shared estimate: R_p never falls and R_b never rises along w.
        for r in 0..2 {
            assert!(
                t.cell(r + 1, 2) >= t.cell(r, 2),
                "primary rate falls at row {r}"
            );
            assert!(
                t.cell(r + 1, 3) <= t.cell(r, 3),
                "backscatter rate rises at row {r}"
            );
        }
    }

    #[test]
    fn e30_shape() {
        let tables = quick(e30_spec(7), e30_body);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 3); // Values axis clamped to 3 points
        assert_eq!(tables[0].cell(0, 0), 1.0);
    }

    #[test]
    fn e31_shape() {
        let tables = quick(e31_spec(7), e31_body);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.len(), 3);
        // Every operating point carries a positive optimized weighted sum.
        for r in 0..3 {
            assert!(t.cell(r, 4) > 0.0);
        }
    }
}
