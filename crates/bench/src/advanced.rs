//! E23–E26: experiments for the second wave of subsystems — ISI analysis,
//! the Gen2-style protocol, localization, and waveform-level SI
//! cancellation.

use mmtag::localization::{locate, position_error};
use mmtag::prelude::*;
use mmtag::scenario::{build_reader, build_tag, offset_poses};
use mmtag_channel::delay::DelayProfile;
use mmtag_mac::gen2::{run_gen2_inventory, Gen2Tag, Gen2Timing};
use mmtag_phy::cancellation::{AdcClip, LeakageChannel, ReceiveChain};
use mmtag_phy::waveform::{Awgn, OokModem};
use mmtag_rf::rng::Xoshiro256pp;
use mmtag_sim::experiment::Table;
use mmtag_sim::mobility::Pose;
use mmtag_sim::scenario::{AxisKind, RunContext, ScenarioSpec};

/// **E23** spec: the room-size sweep around a fixed 4 ft LOS link.
pub(crate) fn e23_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e23-delay-spread",
        "E23 — delay spread vs room size (tag at 4 ft, LOS + wall bounces)",
    )
    .with_axis("room_m", AxisKind::Values(vec![2.0, 4.0, 8.0, 16.0]))
}

/// **E23** — ISI analysis: delay spread, coherence bandwidth and echo
/// strength as the room grows around a 4 ft LOS link. Columns: `room_m`,
/// `rms_spread_ns`, `coherence_bw_mhz`, `echo_db`, `flat_at_2ghz`.
pub(crate) fn e23_body(ctx: &RunContext) -> Vec<Table> {
    let reader = build_reader(&ctx.spec.reader);
    let tag = build_tag(&ctx.spec.tag);
    let mut t = Table::new(
        "E23 — delay spread vs room size (tag at 4 ft, LOS + wall bounces)",
        &[
            "room_m",
            "rms_spread_ns",
            "coherence_bw_mhz",
            "echo_db",
            "flat_at_2ghz",
        ],
    );
    for room in ctx.spec.values("room_m") {
        let scene = Scene::room(room, room);
        let rp = Pose::new(Vec2::new(room / 2.0 - 0.61, room / 2.0), Angle::ZERO);
        let tp = Pose::new(
            Vec2::new(room / 2.0 + 0.61, room / 2.0),
            Angle::from_degrees(180.0),
        );
        let rays = scene.paths(rp, tp);
        let profile =
            DelayProfile::from_rays(&rays, |r| mmtag::link::ray_power(&reader, &tag, r).dbm());
        let spread = profile.rms_delay_spread().unwrap_or(0.0);
        let bc = profile
            .coherence_bandwidth()
            .map(|b| b.mhz())
            .unwrap_or(f64::INFINITY);
        let echo = profile
            .strongest_echo_ratio()
            .map(|r| 10.0 * r.log10())
            .unwrap_or(f64::NEG_INFINITY);
        t.push_row(&[
            room,
            spread * 1e9,
            bc,
            echo,
            profile.is_flat_for(Bandwidth::from_ghz(2.0)) as u8 as f64,
        ]);
    }
    vec![t]
}

/// **E24** spec: the population sweep under `seed`.
pub(crate) fn e24_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e24-gen2",
        "E24 — Gen2-style inventory (Query→RN16→ACK→EPC) vs population",
    )
    .with_axis("tags", AxisKind::Values(vec![8.0, 32.0, 128.0, 512.0]))
    .with_seed(seed)
}

/// **E24** — the Gen2-style protocol: inventory cost vs population, with
/// the handshake's efficiency. Columns: `tags`, `commands`, `singles`,
/// `collisions`, `elapsed_ms`, `per_tag_us`.
pub(crate) fn e24_body(ctx: &RunContext) -> Vec<Table> {
    let mut t = Table::new(
        "E24 — Gen2-style inventory (Query→RN16→ACK→EPC) vs population",
        &[
            "tags",
            "commands",
            "singles",
            "collisions",
            "elapsed_ms",
            "per_tag_us",
        ],
    );
    // One population point per parallel work unit: each draws from its own
    // SeedTree subtree, so the sweep is bit-identical at any thread count.
    let pops: Vec<usize> = ctx
        .spec
        .values("tags")
        .iter()
        .map(|&v| v as usize)
        .collect();
    let results =
        mmtag_sim::par::par_sweep_with(ctx.threads, &ctx.tree, "gen2-pop", &pops, |sub, &n| {
            let mut rng = sub.rng("inventory");
            let mut tags: Vec<Gen2Tag> = (0..n).map(|i| Gen2Tag::new(i as u64)).collect();
            run_gen2_inventory(&mut tags, Gen2Timing::fast_mmwave(), 1_000_000, &mut rng)
        });
    for (&n, stats) in pops.iter().zip(&results) {
        assert_eq!(stats.epcs.len(), n, "inventory must drain");
        let ms = stats.elapsed.as_secs_f64() * 1e3;
        t.push_row(&[
            n as f64,
            stats.commands as f64,
            stats.singles as f64,
            stats.collisions as f64,
            ms,
            ms * 1e3 / n as f64,
        ]);
    }
    vec![t]
}

/// **E25** spec: zipped truth axes — row `i` pairs `true_range_ft[i]`
/// with `true_bearing_deg[i]`.
pub(crate) fn e25_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e25-localization",
        "E25 — beam-scan localization: estimate vs truth",
    )
    .with_axis(
        "true_range_ft",
        AxisKind::Values(vec![3.0, 4.0, 6.0, 8.0, 10.0]),
    )
    .with_axis(
        "true_bearing_deg",
        AxisKind::Values(vec![0.0, 15.0, -25.0, 40.0, -10.0]),
    )
}

/// **E25** — localization accuracy across the sector: position error of
/// the scan-based estimator at each true (range, bearing). Columns:
/// `true_range_ft`, `true_bearing_deg`, `est_range_ft`, `est_bearing_deg`,
/// `error_ft`.
pub(crate) fn e25_body(ctx: &RunContext) -> Vec<Table> {
    let reader = build_reader(&ctx.spec.reader);
    let tag = build_tag(&ctx.spec.tag);
    let scene = mmtag::scenario::build_scene(&ctx.spec.scene);
    let mut t = Table::new(
        "E25 — beam-scan localization: estimate vs truth",
        &[
            "true_range_ft",
            "true_bearing_deg",
            "est_range_ft",
            "est_bearing_deg",
            "error_ft",
        ],
    );
    let ranges = ctx.spec.values("true_range_ft");
    let bearings = ctx.spec.values("true_bearing_deg");
    for (&feet, &deg) in ranges.iter().zip(&bearings) {
        let (rp, tp) = offset_poses(feet, 0.0, deg);
        let est = locate(&reader, &tag, &scene, rp, tp).expect("in-sector tag");
        t.push_row(&[
            feet,
            deg,
            est.range.feet(),
            est.bearing.degrees(),
            position_error(&est, tp).feet(),
        ]);
    }
    vec![t]
}

/// **E26** spec: the leak-strength sweep at `bits` Monte-Carlo bits per
/// cell under `seed`.
pub(crate) fn e26_spec(bits: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e26-cancellation",
        "E26 — self-interference cancellation at the waveform level",
    )
    .with_axis(
        "leak_over_signal_db",
        AxisKind::Values(vec![20.0, 30.0, 40.0]),
    )
    .with_trials(bits)
    .with_seed(seed)
}

/// **E26** — waveform-level SI cancellation: measured BER through the
/// clipping ADC with and without the analog canceller, vs leak strength.
/// Columns: `leak_over_signal_db`, `ber_no_cancel`, `ber_cancelled`.
pub(crate) fn e26_body(ctx: &RunContext) -> Vec<Table> {
    let bits = ctx.spec.trials;
    let modem = OokModem::new(4);
    let mut t = Table::new(
        "E26 — self-interference cancellation at the waveform level",
        &["leak_over_signal_db", "ber_no_cancel", "ber_cancelled"],
    );
    // One seed per column — the plain reader from the spec seed, the
    // cancelling one from seed + 1 — and every leak level of a column reads
    // that seed's stream from its start, so its rows share one noise
    // realization. The two seeds fan out at the runner's thread budget.
    let leaks_db = ctx.spec.values("leak_over_signal_db");
    let leaks: Vec<LeakageChannel> = leaks_db
        .iter()
        .map(|&leak_db| LeakageChannel {
            amplitude: 10f64.powf(leak_db / 20.0),
            phase: 0.9,
            drift_per_sample: 1e-8,
        })
        .collect();
    let errors = mmtag_sim::par::par_map_with(ctx.threads, &[false, true], |_, &cancel| {
        let chain = ReceiveChain {
            modem,
            awgn: Awgn::for_eb_n0(&modem, 12.0),
            adc: AdcClip { full_scale: 4.0 },
            quiet: 2048,
            cancel_alpha: cancel.then_some(1e-3),
        };
        let mut rng = Xoshiro256pp::seed_from(ctx.spec.seed.wrapping_add(u64::from(cancel)));
        chain.bit_errors(&leaks, bits, &mut rng)
    });
    for (i, &leak_db) in leaks_db.iter().enumerate() {
        t.push_row(&[
            leak_db,
            errors[0][i] as f64 / bits as f64,
            errors[1][i] as f64 / bits as f64,
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::FigScenario;

    #[test]
    fn bigger_rooms_mean_weaker_echoes_and_less_effective_spread() {
        // The (initially counter-intuitive) physics: a larger room makes
        // the wall bounces *longer*, hence much weaker under d⁻⁴ + fixed
        // reflection loss — so the power-weighted RMS spread SHRINKS with
        // room size. Small rooms are the ISI worst case.
        let t = FigScenario::new(e23_spec(), e23_body).table();
        let spreads = t.column(1);
        assert!(spreads.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        let echoes = t.column(3);
        assert!(echoes.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        // Even the tightest room keeps echoes ≥ 15 dB down: OOK-benign.
        for row in 0..t.len() {
            assert!(
                t.cell(row, 3) < -15.0,
                "room {} m: echo {}",
                t.cell(row, 0),
                t.cell(row, 3)
            );
        }
        // The conservative Bc rule never clears 2 GHz — documenting that
        // the margin comes from echo weakness, not spread shortness.
        assert!(t.column(4).iter().all(|&f| f == 0.0));
    }

    #[test]
    fn gen2_scales_and_stays_efficient() {
        let t = FigScenario::new(e24_spec(33), e24_body).table();
        // Commands grow with population; per-tag time stays bounded
        // (the handshake amortizes).
        let cmds = t.column(1);
        assert!(cmds.windows(2).all(|w| w[1] > w[0]));
        let per_tag = t.column(5);
        for &v in &per_tag {
            assert!((10.0..100.0).contains(&v), "per-tag cost {v} µs");
        }
        // The adaptive policy keeps per-tag cost roughly flat with scale.
        let max = per_tag.iter().cloned().fold(f64::MIN, f64::max);
        let min = per_tag.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 3.0, "per-tag spread {min}–{max} µs");
    }

    #[test]
    fn localization_errors_stay_sub_two_feet() {
        let t = FigScenario::new(e25_spec(), e25_body).table();
        for row in 0..t.len() {
            assert!(
                t.cell(row, 4) < 2.0,
                "({} ft, {}°): error {} ft",
                t.cell(row, 0),
                t.cell(row, 1),
                t.cell(row, 4)
            );
        }
    }

    #[test]
    fn cancellation_rescues_every_leak_level() {
        let t = FigScenario::new(e26_spec(30_000, 7), e26_body).table();
        for row in 0..t.len() {
            let (no, yes) = (t.cell(row, 1), t.cell(row, 2));
            assert!(
                no > 0.1,
                "leak {} dB must break the link: {no}",
                t.cell(row, 0)
            );
            assert!(yes < 0.01, "cancelled BER {yes}");
        }
    }

    #[test]
    fn cancellation_runs_at_the_largest_seed() {
        // The cancelled column's seed is seed + 1, which wraps to 0 here
        // (a debug build checks the addition).
        let t = FigScenario::new(e26_spec(200, u64::MAX), e26_body).table();
        assert_eq!(t.len(), 3);
        for row in 0..t.len() {
            assert!((0.0..=1.0).contains(&t.cell(row, 2)), "{}", t.cell(row, 2));
        }
    }
}
