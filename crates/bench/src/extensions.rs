//! E13–E22: extension experiments beyond the paper's evaluation — ablations
//! of the design choices DESIGN.md calls out, and the future-work items
//! implemented as measurable systems.

use mmtag::prelude::*;
use mmtag::scenario::build_tag;
use mmtag::storage::{average_throughput_bps, bits_per_burst, steady_state_cycle, StorageCap};
use mmtag_antenna::element::Isotropic;
use mmtag_antenna::planar::{Direction, PlanarVanAtta};
use mmtag_antenna::{LinearArray, PatchElement};
use mmtag_channel::fading::{outage_grid_par_with, OutageCell, RicianFading};
use mmtag_mac::acquisition::{worst_case_latency, SearchMode};
use mmtag_mac::capture::capture_gain;
use mmtag_mac::mimo::mimo_inventory;
use mmtag_mac::ScanSchedule;
use mmtag_mac::SectorScheduler;
use mmtag_phy::bpsk::{measure_bpsk_ber, BpskModem};
use mmtag_phy::pulse::PulseShaper;
use mmtag_phy::spectrum::Spectrum;
use mmtag_phy::waveform::{measure_ber, OokModem};
use mmtag_rf::rng::Xoshiro256pp;
use mmtag_sim::experiment::Table;
use mmtag_sim::par::par_sweep_with;
use mmtag_sim::scenario::{AxisKind, RunContext, ScenarioSpec};

/// **E13** spec: the channel half-width sweep under `seed`.
pub(crate) fn e13_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e13-spectrum",
        "E13 — OOK waveform spectrum: power captured vs channel half-width",
    )
    .with_axis(
        "half_band_symbol_rates",
        AxisKind::Values(vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]),
    )
    .with_seed(seed)
}

/// **E13** — OOK spectrum occupancy: the measurement behind the paper's
/// `symbol rate = B/2` rule. Columns: `half_band_symbol_rates`,
/// `power_fraction`.
pub(crate) fn e13_body(ctx: &RunContext) -> Vec<Table> {
    let modem = OokModem::new(8);
    let mut rng = Xoshiro256pp::seed_from(ctx.spec.seed);
    let spec = Spectrum::of_ook(&modem, 16384, 1024, &mut rng);
    let mut t = Table::new(
        "E13 — OOK waveform spectrum: power captured vs channel half-width",
        &["half_band_symbol_rates", "power_fraction"],
    );
    for hb in ctx.spec.values("half_band_symbol_rates") {
        t.push_row(&[hb, spec.power_within(hb)]);
    }
    vec![t]
}

/// **E14** spec: the two impairment sweeps (phase RMS, failed elements).
pub(crate) fn e14_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e14-ablation",
        "E14 — impairment ablation at 25° incidence (6-element tag)",
    )
    .with_axis(
        "line_phase_rms_rad",
        AxisKind::Values(vec![0.0, 0.2, 0.5, 1.0, 1.5]),
    )
    .with_axis(
        "failed_elements",
        AxisKind::Values(vec![0.0, 1.0, 2.0, 3.0]),
    )
}

/// **E14** — fabrication ablation: retro gain vs per-pair line phase error
/// (RMS radians) and vs failed elements, for the 6-element tag. Columns:
/// `impairment` (label), `value`, `retro_gain_db`, `loss_vs_ideal_db`.
pub(crate) fn e14_body(ctx: &RunContext) -> Vec<Table> {
    let elements = ctx.spec.tag.elements;
    let ideal_tag = || {
        let mut v = mmtag_antenna::VanAttaArray::new(
            LinearArray::half_wavelength(elements),
            Isotropic,
            ReflectorWiring::VanAtta,
        );
        v.set_line_loss(Db::ZERO);
        v
    };
    let probe = Angle::from_degrees(25.0);
    let ideal_gain = ideal_tag().monostatic_gain(probe);

    let mut t = Table::new(
        "E14 — impairment ablation at 25° incidence (6-element tag)",
        &["value", "retro_gain_db", "loss_vs_ideal_db"],
    );

    // Line phase errors: deterministic pseudo-random with growing RMS.
    for rms in ctx.spec.values("line_phase_rms_rad") {
        let mut v = ideal_tag();
        // Fixed error shape scaled to the requested RMS.
        let shape = [0.9f64, -1.1, 0.6];
        let norm: f64 = (shape.iter().map(|s| s * s).sum::<f64>() / 3.0).sqrt();
        let phases: Vec<f64> = shape.iter().map(|s| s / norm * rms).collect();
        v.set_line_phases(&phases);
        let g = v.monostatic_gain(probe);
        t.push_labeled_row(
            "line_phase_rms_rad",
            &[
                rms,
                Db::from_linear(g).db(),
                Db::from_linear(ideal_gain / g).db(),
            ],
        );
    }

    // Element failures.
    for failed in ctx.spec.values("failed_elements") {
        let failed = failed as usize;
        let mut v = ideal_tag();
        v.set_off_state_leakage(Db::new(-60.0));
        for k in 0..failed {
            v.fail_element(k);
        }
        let g = v.monostatic_gain(probe);
        t.push_labeled_row(
            "failed_elements",
            &[
                failed as f64,
                Db::from_linear(g).db(),
                Db::from_linear(ideal_gain / g).db(),
            ],
        );
    }
    vec![t]
}

/// **E15** spec: the K-factor sweep at `trials` Monte-Carlo draws per cell.
pub(crate) fn e15_spec(trials: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e15-fading",
        "E15 — Rician fading: outage probability vs K-factor and margin",
    )
    .with_axis("k_db", AxisKind::Values(vec![0.0, 5.0, 10.0, 15.0]))
    .with_trials(trials)
    .with_seed(seed)
}

/// **E15** — fading margin: outage probability at each Fig. 7 rate rung
/// under Rician fading, vs K-factor. Columns: `k_db`,
/// `outage_3db_margin`, `outage_7db_margin`.
pub(crate) fn e15_body(ctx: &RunContext) -> Vec<Table> {
    // All (K, margin) cells go into ONE flattened (cell × chunk) work
    // grid, so the whole sweep saturates the worker budget instead of
    // parallelizing one cell at a time. Each cell keeps its own SeedTree
    // subtree — the exact streams the per-cell loop used — so the table
    // is bit-identical at any thread count and to the pre-grid code.
    let cells: Vec<OutageCell> = ctx
        .spec
        .values("k_db")
        .into_iter()
        .enumerate()
        .flat_map(|(i, k_db)| {
            let fader = RicianFading::from_k_db(Db::new(k_db));
            [("outage-3db", 3.0), ("outage-7db", 7.0)].map(|(label, margin)| OutageCell {
                fader,
                margin: Db::new(margin),
                tree: ctx.tree.subtree_indexed(label, i as u64),
            })
        })
        .collect();
    let outage = outage_grid_par_with(ctx.threads, &cells, ctx.spec.trials);
    let mut t = Table::new(
        "E15 — Rician fading: outage probability vs K-factor and margin",
        &["k_db", "outage_3db_margin", "outage_7db_margin"],
    );
    for (i, k_db) in ctx.spec.values("k_db").into_iter().enumerate() {
        t.push_row(&[k_db, outage[2 * i], outage[2 * i + 1]]);
    }
    vec![t]
}

/// **E16** spec: the 3–11 dB `Eb/N0` sweep at `bits` per point.
pub(crate) fn e16_spec(bits: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e16-bpsk",
        "E16 — BPSK backscatter vs OOK: measured BER at equal Eb/N0",
    )
    .with_axis(
        "eb_n0_db",
        AxisKind::Linspace {
            start: 3.0,
            stop: 11.0,
            points: 5,
        },
    )
    .with_trials(bits)
    .with_seed(seed)
}

/// **E16** — BPSK backscatter vs OOK: measured BER at equal Eb/N0 and the
/// range each scheme's threshold buys. Columns: `eb_n0_db`, `ook_ber`,
/// `bpsk_ber`.
pub(crate) fn e16_body(ctx: &RunContext) -> Vec<Table> {
    let bits = ctx.spec.trials;
    let ook = OokModem::new(4);
    let bpsk = BpskModem::new(4);
    let snrs = ctx.spec.values("eb_n0_db");
    // Cell `i` draws from subtree ("cell", i): the order, OOK then BPSK at
    // each SNR, and the labels fix the pinned table.
    let cells: Vec<(f64, bool)> = snrs
        .iter()
        .flat_map(|&snr| [(snr, false), (snr, true)])
        .collect();
    let bers = par_sweep_with(
        ctx.threads,
        &ctx.tree,
        "cell",
        &cells,
        |tree, &(snr, is_bpsk)| {
            let rng = &mut tree.rng("ber");
            if is_bpsk {
                measure_bpsk_ber(&bpsk, snr, bits, rng)
            } else {
                measure_ber(&ook, snr, bits, rng)
            }
        },
    );
    let mut t = Table::new(
        "E16 — BPSK backscatter vs OOK: measured BER at equal Eb/N0",
        &["eb_n0_db", "ook_ber", "bpsk_ber"],
    );
    for (i, &snr) in snrs.iter().enumerate() {
        t.push_row(&[snr, bers[2 * i], bers[2 * i + 1]]);
    }
    vec![t]
}

/// **E17** spec: zipped az/el offset axes (row `i` pairs
/// `theta_deg[i]` with `phi_deg[i]`).
pub(crate) fn e17_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e17-planar",
        "E17 — planar vs linear Van Atta: gain at az/el offsets",
    )
    .with_axis(
        "theta_deg",
        AxisKind::Values(vec![0.0, 30.0, 30.0, 30.0, 50.0]),
    )
    .with_axis(
        "phi_deg",
        AxisKind::Values(vec![0.0, 0.0, 90.0, 45.0, 45.0]),
    )
}

/// **E17** — planar (6 × 4) vs linear (6 × 1) tag: monostatic gain at
/// combined azimuth/elevation offsets. Columns: `theta_deg`, `phi_deg`,
/// `planar_db`, `linear_db`.
///
/// Physics note: a single-row Van Atta is *already* phase-coherent for
/// pure-elevation offsets (all elements see the same phase — the
/// re-radiation is a fan beam), so the row keeps its gain at every angle
/// too. What the second dimension buys is aperture: `Ny²` more round-trip
/// gain (+12 dB for Ny = 4) at *every* angle, with retrodirectivity
/// preserved — that is the upgrade path §8 alludes to ("more antenna
/// elements"), realized in 2-D.
pub(crate) fn e17_body(ctx: &RunContext) -> Vec<Table> {
    let planar = PlanarVanAtta::new(6, 4, 0.5, 0.5, PatchElement::mmtag_default());
    let linear = PlanarVanAtta::new(6, 1, 0.5, 0.5, PatchElement::mmtag_default());
    let mut t = Table::new(
        "E17 — planar vs linear Van Atta: gain at az/el offsets",
        &["theta_deg", "phi_deg", "planar_db", "linear_db"],
    );
    let thetas = ctx.spec.values("theta_deg");
    let phis = ctx.spec.values("phi_deg");
    for (&th, &ph) in thetas.iter().zip(&phis) {
        let d = Direction::from_spherical(Angle::from_degrees(th), Angle::from_degrees(ph));
        t.push_row(&[
            th,
            ph,
            Db::from_linear(planar.monostatic_gain(d)).db(),
            Db::from_linear(linear.monostatic_gain(d)).db(),
        ]);
    }
    vec![t]
}

/// **E18** spec: the capacitor-size sweep.
pub(crate) fn e18_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e18-storage",
        "E18 — capacitor-buffered bursts at 1 Gbps on 100 µW solar",
    )
    .with_axis(
        "cap_uf",
        AxisKind::Values(vec![10.0, 47.0, 100.0, 470.0, 1000.0]),
    )
}

/// **E18** — burst operation: bits per burst and average throughput vs
/// capacitor size under a 10 cm² solar harvester at 1 Gbps. Columns:
/// `cap_uf`, `burst_ms`, `bits_per_burst_mbit`, `avg_throughput_mbps`.
pub(crate) fn e18_body(ctx: &RunContext) -> Vec<Table> {
    let tag = build_tag(&ctx.spec.tag);
    let budget = EnergyBudget::for_tag(&tag, DataRate::from_gbps(1.0));
    let solar = Harvester::IndoorSolar { area_cm2: 10.0 };
    let mut t = Table::new(
        "E18 — capacitor-buffered bursts at 1 Gbps on 100 µW solar",
        &[
            "cap_uf",
            "burst_ms",
            "bits_per_burst_mbit",
            "avg_throughput_mbps",
        ],
    );
    for cap_uf in ctx.spec.values("cap_uf") {
        let cap = StorageCap::new(cap_uf * 1e-6, 1.8, 3.3);
        let cycle = steady_state_cycle(&budget, solar, &cap).expect("solar carries logic");
        t.push_row(&[
            cap_uf,
            cycle.burst.as_secs_f64() * 1e3,
            bits_per_burst(&cycle, 1e9) / 1e6,
            average_throughput_bps(&cycle, 1e9) / 1e6,
        ]);
    }
    vec![t]
}

/// **E19** spec: the beamwidth sweep.
pub(crate) fn e19_spec() -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e19-acquisition",
        "E19 — worst-case beam acquisition: retrodirective vs two-sided",
    )
    .with_axis(
        "beamwidth_deg",
        AxisKind::Values(vec![30.0, 20.0, 10.0, 5.0]),
    )
}

/// **E19** — acquisition latency: one-sided (mmTag) vs two-sided
/// (conventional pair) beam search, vs beamwidth. Columns: `beamwidth_deg`,
/// `positions`, `one_sided_ms`, `two_sided_ms`, `speedup`.
pub(crate) fn e19_body(ctx: &RunContext) -> Vec<Table> {
    let mut t = Table::new(
        "E19 — worst-case beam acquisition: retrodirective vs two-sided",
        &[
            "beamwidth_deg",
            "positions",
            "one_sided_ms",
            "two_sided_ms",
            "speedup",
        ],
    );
    for bw in ctx.spec.values("beamwidth_deg") {
        let scan = ScanSchedule::new(
            Angle::from_degrees(120.0),
            Angle::from_degrees(bw),
            Duration::from_millis(1),
        );
        let n = scan.positions();
        let one = worst_case_latency(&scan, SearchMode::OneSided);
        let two = worst_case_latency(&scan, SearchMode::TwoSided { node_positions: n });
        t.push_row(&[
            bw,
            n as f64,
            one.as_secs_f64() * 1e3,
            two.as_secs_f64() * 1e3,
            two.as_secs_f64() / one.as_secs_f64(),
        ]);
    }
    vec![t]
}

/// **E20** spec: the roll-off sweep (the hard-switching "rect" row is part
/// of the body) under `seed`.
pub(crate) fn e20_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e20-pulse",
        "E20 — raised-cosine shaped OOK: confinement and admissible rate",
    )
    .with_axis("beta", AxisKind::Values(vec![0.1, 0.35, 0.5, 1.0]))
    .with_seed(seed)
}

/// **E20** — pulse shaping: spectrum confinement of raised-cosine OOK vs
/// hard switching, and the rate the same channel then admits. Columns:
/// `beta`, `power_in_channel`, `rate_in_2ghz_gbps`.
///
/// The channel is the paper's 2 GHz band; hard switching needs the `B/2`
/// rule (1 Gbps), shaped OOK runs at `B/(1+β)`.
pub(crate) fn e20_body(ctx: &RunContext) -> Vec<Table> {
    let sps = 8;
    let mut rng = Xoshiro256pp::seed_from(ctx.spec.seed);
    let bits: Vec<bool> = (0..4096)
        .map(|_| mmtag_rf::rng::Rng::bit(&mut rng))
        .collect();
    let modem = OokModem::new(sps);
    let mut t = Table::new(
        "E20 — raised-cosine shaped OOK: confinement and admissible rate",
        &["beta", "power_in_channel", "rate_in_2ghz_gbps"],
    );
    // One Welch plan for the whole sweep: every row shares the same FFT
    // size, so the twiddle/bit-reversal tables are built exactly once.
    let plan = mmtag_rf::fft::WelchPlan::new(1024);
    // Hard switching row (β = "rect"): channel ±1 symbol rate (B/2 rule).
    let rect = Spectrum::of_samples_with_plan(&plan, &modem.modulate(&bits), sps);
    t.push_labeled_row("rect", &[f64::NAN, rect.power_within(1.0), 1.0]);
    for beta in ctx.spec.values("beta") {
        let shaped = PulseShaper::new(beta, 8, sps).shape_ook(&modem, &bits);
        let spec = Spectrum::of_samples_with_plan(&plan, &shaped, sps);
        // Shaped signal occupies ±(1+β)/2 symbol rates ⇒ in a fixed 2 GHz
        // channel the symbol rate is 2 GHz/(1+β).
        let half_channel = (1.0 + beta) / 2.0;
        t.push_labeled_row(
            "shaped",
            &[beta, spec.power_within(half_channel), 2.0 / (1.0 + beta)],
        );
    }
    vec![t]
}

/// **E21** spec: the population sweep at `trials` rounds per point.
pub(crate) fn e21_spec(trials: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e21-capture",
        "E21 — capture effect on framed Aloha (d⁻⁴ power spread, 7 dB threshold)",
    )
    .with_axis("tags", AxisKind::Values(vec![8.0, 32.0, 128.0]))
    .with_trials(trials)
    .with_seed(seed)
}

/// **E21** — the capture effect: single-round read fraction with and
/// without capture, vs population, for the backscatter d⁻⁴ power spread.
/// Columns: `tags`, `with_capture`, `without_capture`, `gain_pct`.
pub(crate) fn e21_body(ctx: &RunContext) -> Vec<Table> {
    let mut rng = Xoshiro256pp::seed_from(ctx.spec.seed);
    let mut t = Table::new(
        "E21 — capture effect on framed Aloha (d⁻⁴ power spread, 7 dB threshold)",
        &["tags", "with_capture", "without_capture", "gain_pct"],
    );
    for v in ctx.spec.values("tags") {
        let n = v as usize;
        let (with, without) = capture_gain(n, Db::new(7.0), ctx.spec.trials, &mut rng);
        t.push_row(&[n as f64, with, without, (with / without - 1.0) * 100.0]);
    }
    vec![t]
}

/// **E22** spec: the simultaneous-beam sweep under `seed`.
pub(crate) fn e22_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper_link(
        "e22-mimo",
        "E22 — multi-beam (MIMO) inventory: makespan vs beam count",
    )
    .with_axis("beams", AxisKind::Values(vec![1.0, 2.0, 4.0, 8.0, 12.0]))
    .with_seed(seed)
}

/// **E22** — §9's MIMO beams: inventory makespan vs number of simultaneous
/// beams for a 240-tag sector population. Columns: `beams`, `makespan_slots`,
/// `speedup`.
pub(crate) fn e22_body(ctx: &RunContext) -> Vec<Table> {
    let scan = ScanSchedule::new(
        Angle::from_degrees(120.0),
        Angle::from_degrees(20.0),
        Duration::from_millis(1),
    );
    let angles: Vec<Angle> = (0..240)
        .map(|i| Angle::from_degrees(-55.0 + 110.0 * i as f64 / 239.0))
        .collect();
    let part = SectorScheduler::partition(scan, &angles);
    let mut t = Table::new(
        "E22 — multi-beam (MIMO) inventory: makespan vs beam count",
        &["beams", "makespan_slots", "speedup"],
    );
    for v in ctx.spec.values("beams") {
        let k = v as usize;
        let mut rng = Xoshiro256pp::seed_from(ctx.spec.seed);
        let inv = mimo_inventory(&part, k, &mut rng);
        assert_eq!(inv.tags_read, 240);
        t.push_row(&[k as f64, inv.makespan() as f64, inv.speedup()]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::FigScenario;

    #[test]
    fn spectrum_occupancy_monotone_and_b2_rule_holds() {
        let t = FigScenario::new(e13_spec(7), e13_body).table();
        let fracs = t.column(1);
        assert!(fracs.windows(2).all(|w| w[1] >= w[0]));
        // ±1 symbol rate (the B/2 rule) captures ≥ 85%.
        let row = t.find_row(0, 1.0, 1e-9).unwrap();
        assert!(t.cell(row, 1) >= 0.85);
    }

    #[test]
    fn ablation_degrades_gracefully() {
        let t = FigScenario::new(e14_spec(), e14_body).table();
        // Phase-error rows: loss grows with RMS; 0.2 rad RMS costs < 1 dB
        // (fabrication tolerance is benign), 1.5 rad costs > 3 dB.
        let phase_rows: Vec<usize> = (0..t.len())
            .filter(|&i| t.label(i) == "line_phase_rms_rad")
            .collect();
        let losses: Vec<f64> = phase_rows.iter().map(|&i| t.cell(i, 2)).collect();
        assert!(losses.windows(2).all(|w| w[1] >= w[0] - 1e-9));
        assert!(losses[1] < 1.0, "0.2 rad RMS costs {}", losses[1]);
        assert!(*losses.last().unwrap() > 3.0);
        // Element failures: each failure costs gain, the first ~1.9 dB
        // (losing 2 of 12 radiating paths through the pair).
        let fail_rows: Vec<usize> = (0..t.len())
            .filter(|&i| t.label(i) == "failed_elements")
            .collect();
        let fl: Vec<f64> = fail_rows.iter().map(|&i| t.cell(i, 2)).collect();
        assert!(fl[0].abs() < 1e-9);
        assert!(fl.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn fading_outage_falls_with_k_and_margin() {
        let t = FigScenario::new(e15_spec(40_000, 3), e15_body).table();
        let o3 = t.column(1);
        let o7 = t.column(2);
        // More margin ⇒ less outage, at every K.
        for (a, b) in o3.iter().zip(&o7) {
            assert!(b <= a);
        }
        // Stronger LOS ⇒ less outage.
        assert!(o7.windows(2).all(|w| w[1] <= w[0] + 1e-3));
        // At K = 10 dB (aligned mmWave) a 7 dB margin leaves ≪ 1% outage.
        let row = t.find_row(0, 10.0, 1e-9).unwrap();
        assert!(t.cell(row, 2) < 0.01, "outage {}", t.cell(row, 2));
    }

    #[test]
    fn bpsk_always_beats_ook() {
        let t = FigScenario::new(e16_spec(100_000, 5), e16_body).table();
        for row in 0..t.len() {
            let (ook, bpsk) = (t.cell(row, 1), t.cell(row, 2));
            if ook > 1e-4 {
                assert!(bpsk < ook, "at {} dB: {bpsk} !< {ook}", t.cell(row, 0));
            }
        }
    }

    #[test]
    fn planar_adds_ny_squared_gain_everywhere_and_keeps_retro() {
        let t = FigScenario::new(e17_spec(), e17_body).table();
        // The Ny = 4 column buys 10·log10(4²) ≈ 12 dB of round-trip gain
        // at EVERY offset — azimuth, elevation, or skew — while both
        // arrays stay retrodirective (the row is a fan beam in elevation).
        let expected = 10.0 * (4.0f64 * 4.0).log10();
        for row in 0..t.len() {
            let gap = t.cell(row, 2) - t.cell(row, 3);
            assert!(
                (gap - expected).abs() < 0.5,
                "({}, {}): gap {gap} dB",
                t.cell(row, 0),
                t.cell(row, 1)
            );
        }
        // And both roll off with polar angle only via the element pattern:
        // the 50° skew row sits below the 30° rows for both arrays.
        let g30 = t.cell(1, 2);
        let g50 = t.cell(4, 2);
        assert!(g50 < g30);
    }

    #[test]
    fn storage_scales_bursts_not_throughput() {
        let t = FigScenario::new(e18_spec(), e18_body).table();
        let bursts = t.column(1);
        assert!(bursts.windows(2).all(|w| w[1] > w[0]));
        let tput = t.column(3);
        let spread = tput.iter().cloned().fold(f64::MIN, f64::max)
            - tput.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.0, "avg throughput must not depend on cap size");
        // 100 µF row: ≥ 1 Mbit per burst.
        let row = t.find_row(0, 100.0, 1e-9).unwrap();
        assert!(t.cell(row, 2) >= 1.0);
    }

    /// Golden pin of E20's spectrum column under the radix-4 Welch path
    /// (nfft = 1024 is a power of 4, so this is the kernel every
    /// spectrum experiment actually runs — see DESIGN.md §11). The pin
    /// is to 1e-12 absolute on O(1) power fractions: ~4 orders looser
    /// than the radix-4-vs-radix-2 ulp spread, ~10 orders tighter than
    /// any butterfly or twiddle mistake. A deliberate kernel change that
    /// moves these values must re-pin them here.
    #[test]
    fn pulse_spectrum_golden_pin() {
        let t = FigScenario::new(e20_spec(3), e20_body).table();
        let golden = [
            0.907_819_395_549_296_4,
            0.999_810_917_139_428_8,
            0.999_999_379_284_025_5,
            0.999_999_827_581_828_5,
            0.999_999_993_707_975_8,
        ];
        assert_eq!(t.len(), golden.len());
        for (row, want) in golden.iter().enumerate() {
            let got = t.cell(row, 1);
            assert!(
                (got - want).abs() < 1e-12,
                "row {row}: power_in_channel {got:.17} vs pinned {want:.17}"
            );
        }
    }

    #[test]
    fn pulse_shaping_buys_rate() {
        let t = FigScenario::new(e20_spec(3), e20_body).table();
        // Every shaped row confines ≥ 99% into its channel…
        for row in 1..t.len() {
            assert!(
                t.cell(row, 1) > 0.98,
                "β={}: {}",
                t.cell(row, 0),
                t.cell(row, 1)
            );
        }
        // …and admits at least the rect baseline's 1 Gbps — strictly more
        // for any roll-off below 1 (β = 1 degenerates to the B/2 rule).
        for row in 1..t.len() {
            let beta = t.cell(row, 0);
            if beta < 1.0 {
                assert!(t.cell(row, 2) > 1.0);
            } else {
                assert!(t.cell(row, 2) >= 1.0 - 1e-12);
            }
        }
        // β = 0.35: ~1.48 Gbps in the same 2 GHz channel.
        let row = t.find_row(0, 0.35, 1e-9).unwrap();
        assert!((t.cell(row, 2) - 1.481).abs() < 0.01);
    }

    #[test]
    fn capture_gain_is_positive_and_grows_with_contention() {
        let t = FigScenario::new(e21_spec(300, 4), e21_body).table();
        for row in 0..t.len() {
            assert!(t.cell(row, 1) > t.cell(row, 2), "capture must help");
            assert!(t.cell(row, 3) > 0.0);
        }
    }

    #[test]
    fn mimo_speedup_scales_then_saturates() {
        let t = FigScenario::new(e22_spec(7), e22_body).table();
        let speedups = t.column(2);
        assert!((speedups[0] - 1.0).abs() < 1e-9);
        assert!(speedups.windows(2).all(|w| w[1] >= w[0] - 1e-9));
        // At K = 12 (one beam per sector) the speedup is bounded by the
        // largest sector's share but still well above 4×.
        assert!(
            *speedups.last().unwrap() > 4.0,
            "K=12 speedup {}",
            speedups.last().unwrap()
        );
    }

    #[test]
    fn acquisition_speedup_equals_positions() {
        let t = FigScenario::new(e19_spec(), e19_body).table();
        for row in 0..t.len() {
            let n = t.cell(row, 1);
            let speedup = t.cell(row, 4);
            assert!((speedup - n).abs() < 1e-9, "speedup {speedup} vs N {n}");
        }
        // Narrower beams widen the gap — the paper's point that searching
        // gets *harder* exactly when mmWave needs narrow beams.
        let sp = t.column(4);
        assert!(sp.windows(2).all(|w| w[1] > w[0]));
    }
}
