//! Registry-level guarantees: completeness, determinism across thread
//! counts, artifact sanity, and a smoke pass over every scenario.

use mmtag_bench::scenarios::registry;
use mmtag_sim::json::{parse_json, Json};
use mmtag_sim::scenario::Runner;

#[test]
fn every_scenario_smokes_and_is_thread_count_invariant() {
    let reg = registry();
    assert_eq!(reg.len(), 31);
    let serial = Runner::with_threads(1);
    let parallel = Runner::with_threads(8);
    for s in reg.iter() {
        let a = serial.run_minimized(s, 3, 200);
        let b = parallel.run_minimized(s, 3, 200);
        assert!(!a.tables.is_empty(), "{}: no tables", s.spec().name);
        // Every cell at full precision: `render()` prints three decimals.
        assert_eq!(
            tables_csv(&a),
            tables_csv(&b),
            "{}: output depends on thread count",
            s.spec().name
        );
        assert_eq!(a.manifest.threads, 1);
        assert_eq!(b.manifest.threads, 8);
        assert_eq!(a.manifest.spec_hash, b.manifest.spec_hash);
        let name = s.spec().name.as_str();
        let want = SMOKE_DIGESTS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name}: no pinned digest"))
            .1;
        assert_eq!(
            fnv1a(a.render().as_bytes()),
            want,
            "{name}: smoke-size tables changed"
        );
    }
}

/// Every table of `record` as CSV, each cell at shortest round-trip
/// precision: [`mmtag_sim::scenario::RunRecord::to_csv`] without its
/// manifest line, which names the thread count.
fn tables_csv(record: &mmtag_sim::scenario::RunRecord) -> String {
    let mut out = String::new();
    for t in &record.tables {
        out.push_str("# ");
        out.push_str(t.title());
        out.push('\n');
        out.push_str(&t.to_csv());
    }
    out
}

/// FNV-1a digest of each scenario's smoke-size (`run_minimized(s, 3, 200)`)
/// rendered tables. A kernel, queue or engine rewrite must leave every
/// table byte unchanged; a deliberate model change updates its row here.
const SMOKE_DIGESTS: [(&str, u64); 31] = [
    ("e01-s11", 0xc80c_7aa2_bdd3_a17d),
    ("e02-link-budget", 0x6f74_c94e_c546_2b41),
    ("e03-retro", 0x8505_93c1_55a8_b593),
    ("e04-comparison", 0xa2b8_7b21_02c7_828d),
    ("e05-ber", 0x9248_4387_7f29_be1c),
    ("e06-beamwidth", 0x17bc_900b_95ce_4aed),
    ("e07-aloha", 0x5512_63f4_a4f4_54a4),
    ("e08-mobility", 0x1309_40d4_5fed_2896),
    ("e09-selfint", 0x6654_38ff_5d67_709a),
    ("e10-power", 0xca29_5c4b_b73b_e1c4),
    ("e11-60ghz", 0xe79a_00e9_a9c1_fc8e),
    ("e12-nlos", 0x2410_bdec_6b5a_3a0b),
    ("e13-spectrum", 0xa3c1_090d_10a2_fd2d),
    ("e14-ablation", 0x01f3_c002_c838_3ccc),
    ("e15-fading", 0x06dd_2ce5_681c_2f5a),
    ("e16-bpsk", 0xce57_e936_05e3_e973),
    ("e17-planar", 0xd3be_7b07_e95c_e81e),
    ("e18-storage", 0xae23_98c0_0afe_0e51),
    ("e19-acquisition", 0x6e18_8210_a61b_6cf0),
    ("e20-pulse", 0xb0c1_41b0_3bc3_cc14),
    ("e21-capture", 0xda1d_112d_3b21_9aa5),
    ("e22-mimo", 0xa726_be23_09af_945d),
    ("e23-delay-spread", 0xcd2f_e679_c3cd_656d),
    ("e24-gen2", 0xddef_006f_13a7_41f0),
    ("e25-localization", 0x5786_f948_ace4_a7ed),
    ("e26-cancellation", 0xabb1_47b5_bb29_3a94),
    ("e27-city-density", 0x0b2d_f365_4cb9_31aa),
    ("e28-city-mobility", 0x9980_1829_7c6b_ebac),
    ("e29-rate-region", 0xd5ed_8544_3301_d4cb),
    ("e30-rate-vs-tags", 0x0ed1_017b_ca77_9498),
    ("e31-rate-vs-states", 0x4658_feb8_20a9_b7ca),
];

#[test]
fn every_scenario_keeps_its_pinned_spec_hash() {
    let reg = registry();
    let changed: Vec<String> = reg
        .iter()
        .filter_map(|s| {
            let name = s.spec().name.as_str();
            let want = SPEC_HASHES
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name}: no pinned spec hash"))
                .1;
            let got = s.spec().hash();
            (got != want).then(|| format!("{name}: {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(
        changed.is_empty(),
        "spec hashes changed:\n{}",
        changed.join("\n")
    );
}

/// Each registry scenario's `spec().hash()`: the key of its run-cache
/// entries and the `spec_hash` of every serve response for it. A change to
/// `ScenarioSpec::canonical` or to a registered spec re-keys the cache and
/// changes those responses; a deliberate one updates its row here.
const SPEC_HASHES: [(&str, u64); 31] = [
    ("e01-s11", 0x9248_adb9_8c3e_0356),
    ("e02-link-budget", 0xb8e7_2a44_5c97_4cd1),
    ("e03-retro", 0x7cae_ffb3_c204_2b54),
    ("e04-comparison", 0x9450_df54_ba07_5743),
    ("e05-ber", 0x9b7e_dd0e_516a_c3be),
    ("e06-beamwidth", 0x6d5a_7f3b_3086_9ca8),
    ("e07-aloha", 0x96a4_74b3_4e25_cac2),
    ("e08-mobility", 0x405b_464c_94ad_9cb6),
    ("e09-selfint", 0x78c9_37e3_6c7d_f3e2),
    ("e10-power", 0x71b6_3b30_9ba7_364a),
    ("e11-60ghz", 0x9fb1_b511_dce4_c55b),
    ("e12-nlos", 0x0922_5118_fc11_9904),
    ("e13-spectrum", 0x15b7_efbf_591a_8316),
    ("e14-ablation", 0x364c_6544_6b77_620e),
    ("e15-fading", 0x125d_594c_6190_e634),
    ("e16-bpsk", 0x8761_cbb0_5f52_337e),
    ("e17-planar", 0xa3a6_e748_279e_9984),
    ("e18-storage", 0x18af_cb65_2927_ff42),
    ("e19-acquisition", 0x6c5d_58fe_1b80_6dc0),
    ("e20-pulse", 0x6840_a2fd_4da4_5a09),
    ("e21-capture", 0x9653_631a_6c80_7536),
    ("e22-mimo", 0xdf82_ccd1_4d55_598c),
    ("e23-delay-spread", 0x82af_aaa7_076a_c1ec),
    ("e24-gen2", 0xb93f_5a33_2f27_3d60),
    ("e25-localization", 0x8731_1fc1_ccb7_eed4),
    ("e26-cancellation", 0x7083_00a5_5ec8_58f1),
    ("e27-city-density", 0x69c6_fb72_5561_507f),
    ("e28-city-mobility", 0x9c94_e94b_8557_3dd8),
    ("e29-rate-region", 0xdd4d_79f6_9337_760e),
    ("e30-rate-vs-tags", 0xd6b5_5cdf_e3bf_e7bd),
    ("e31-rate-vs-states", 0x76a1_716e_4199_4161),
];

#[test]
#[ignore = "every scenario at published size; run in release: cargo test --release -p mmtag-bench --test scenarios -- --ignored"]
fn every_scenario_matches_its_published_size_digest() {
    let reg = registry();
    let runner = Runner::new();
    let mut changed = Vec::new();
    for s in reg.iter() {
        let name = s.spec().name.as_str();
        let want = PUBLISHED_DIGESTS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name}: no pinned digest"))
            .1;
        let want_csv = PUBLISHED_CSV_DIGESTS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name}: no pinned CSV digest"))
            .1;
        let record = runner.run(s);
        let got = fnv1a(record.render().as_bytes());
        if got != want {
            changed.push(format!("{name}: {got:#018x}, pinned {want:#018x}"));
        }
        let got = fnv1a(tables_csv(&record).as_bytes());
        if got != want_csv {
            changed.push(format!(
                "{name} (CSV): {got:#018x}, pinned {want_csv:#018x}"
            ));
        }
    }
    assert!(
        changed.is_empty(),
        "published-size tables changed:\n{}",
        changed.join("\n")
    );
}

/// FNV-1a digest of each scenario's rendered tables at its published size
/// and seed (`Runner::run` on the registry as shipped). The smoke digests
/// above see a few hundred trials; these see every block, chunk and cell
/// a published table is built from. A kernel, queue or engine rewrite
/// must leave every byte unchanged; a deliberate model change updates its
/// row here.
const PUBLISHED_DIGESTS: [(&str, u64); 31] = [
    ("e01-s11", 0x32e7_0470_698a_5a13),
    ("e02-link-budget", 0xc6cb_cbb4_f5f7_2d6e),
    ("e03-retro", 0x2ae5_3a74_39dc_f917),
    ("e04-comparison", 0xa2b8_7b21_02c7_828d),
    ("e05-ber", 0xf2d1_8348_38a9_7ef6),
    ("e06-beamwidth", 0x939d_3645_a14d_2ab0),
    ("e07-aloha", 0x1366_1e3c_fe0e_703f),
    ("e08-mobility", 0x5459_d592_fbd4_09a2),
    ("e09-selfint", 0x3e88_8f12_2f88_d5f3),
    ("e10-power", 0xca29_5c4b_b73b_e1c4),
    ("e11-60ghz", 0xe79a_00e9_a9c1_fc8e),
    ("e12-nlos", 0x2410_bdec_6b5a_3a0b),
    ("e13-spectrum", 0xb1ca_a230_ca35_cd4e),
    ("e14-ablation", 0x865d_afd4_3dea_781b),
    ("e15-fading", 0x82d8_739b_054f_4fd1),
    ("e16-bpsk", 0x179e_b717_8641_a696),
    ("e17-planar", 0x7599_bb7a_bea4_9b2c),
    ("e18-storage", 0x09aa_a8ba_f079_1d9f),
    ("e19-acquisition", 0x357f_bad1_ba34_9a16),
    ("e20-pulse", 0xe8e9_2a69_da18_88ac),
    ("e21-capture", 0xe25d_869a_95b3_6ea5),
    ("e22-mimo", 0xa00c_ea1b_26c1_6896),
    ("e23-delay-spread", 0xdd2f_1d62_40b5_61b8),
    ("e24-gen2", 0x3e6c_234f_04f1_f9e3),
    ("e25-localization", 0xd417_07b3_775b_47aa),
    ("e26-cancellation", 0xa3f3_8e5b_3777_398f),
    ("e27-city-density", 0x0b2d_f365_4cb9_31aa),
    ("e28-city-mobility", 0x9980_1829_7c6b_ebac),
    ("e29-rate-region", 0x5036_c048_a71a_07c1),
    ("e30-rate-vs-tags", 0x6b69_765b_c888_63a2),
    ("e31-rate-vs-states", 0x20af_789c_9dac_6906),
];

/// FNV-1a digest of each scenario's tables at published size and seed as
/// CSV ([`tables_csv`]): every cell at shortest round-trip precision, so
/// a change in the last bit of any cell fails where the three-decimal
/// render digests above pass.
const PUBLISHED_CSV_DIGESTS: [(&str, u64); 31] = [
    ("e01-s11", 0xb369_d4bb_f827_f061),
    ("e02-link-budget", 0x653c_7078_3335_4926),
    ("e03-retro", 0x04de_47c1_e2a8_9fa4),
    ("e04-comparison", 0xe457_5b8c_9653_e83d),
    ("e05-ber", 0x8922_90a2_0848_aec1),
    ("e06-beamwidth", 0x0cb1_8268_edf8_ac2e),
    ("e07-aloha", 0x00c5_5db8_65e3_1ff5),
    ("e08-mobility", 0xea74_30fd_fe9c_aa51),
    ("e09-selfint", 0xf24c_0cdf_6d0c_196c),
    ("e10-power", 0x29a0_4149_6ffa_a6d0),
    ("e11-60ghz", 0x13a6_c4d7_dacf_d0d9),
    ("e12-nlos", 0x4eaa_e445_a2a8_f546),
    ("e13-spectrum", 0xff59_6f00_a978_0eed),
    ("e14-ablation", 0x1f2b_0a4b_96ba_f779),
    ("e15-fading", 0x30a2_b4ac_08a2_65fc),
    ("e16-bpsk", 0x7953_0165_bb2c_f018),
    ("e17-planar", 0x82a8_5927_f75e_4290),
    ("e18-storage", 0x8c7b_a500_3143_00c9),
    ("e19-acquisition", 0x4e48_bf04_6aa9_6526),
    ("e20-pulse", 0xe6b0_20d0_e1ad_b8df),
    ("e21-capture", 0xdf23_e0e2_fad0_207e),
    ("e22-mimo", 0x97d9_28f9_f965_f310),
    ("e23-delay-spread", 0x8556_d72c_1d4e_00fa),
    ("e24-gen2", 0x3752_81c0_7e45_8313),
    ("e25-localization", 0xa8fd_7c0c_b297_5aba),
    ("e26-cancellation", 0xa5ad_f002_178e_eefb),
    ("e27-city-density", 0xbdd9_76fe_b2b9_caa2),
    ("e28-city-mobility", 0xffaa_5ede_7431_c2a0),
    ("e29-rate-region", 0x5203_8a89_ebf2_52a9),
    ("e30-rate-vs-tags", 0x94dc_5c8b_5085_9c3b),
    ("e31-rate-vs-states", 0xf774_5f14_db2e_f4be),
];

/// Integer bit-error counts of the certified BER counters at published
/// size and seed: E05's `ook_measured` column (15 SNR points, seed 2024)
/// and E16's `ook_ber`/`bpsk_ber` pairs (5 SNR points, seed 5), each
/// `ber × trials`. The rendered tables print a BER ≥ 10⁻³ to three
/// decimals, so the digests above cannot see one flipped decision among
/// 200 000 bits in E05's 0–6 dB rows; these counts can.
const E05_OOK_ERRORS: [u64; 15] = [
    31947, 26639, 20920, 15935, 11270, 7659, 4661, 2548, 1162, 477, 160, 30, 6, 3, 0,
];
const E16_ERRORS: [(u64, u64); 5] = [(15860, 4502), (7567, 1222), (2561, 184), (467, 7), (47, 0)];

/// E29–E31's depth-row traffic at published size and seed, as the manifest
/// counts it: `(coincident_rows, fast_rows, exact_rows)`. Every trial's
/// μ = 0 row takes the coincident sum, the other eight the fast estimator,
/// and the exact pass reruns only the rows some weight's certificate
/// could not rule out — three of E29's depths and one per E30/E31 cell.
/// A certificate that stops certifying leaves every table unchanged and
/// every row exact; these counts see it.
const RATE_REGION_ROWS: [(&str, [u64; 3]); 3] = [
    ("e29-rate-region", [800, 6_400, 2_400]),
    ("e30-rate-vs-tags", [2_400, 19_200, 2_400]),
    ("e31-rate-vs-states", [1_500, 12_000, 1_500]),
];

/// E27's and E28's city-barrier work at published size and seed, as the
/// manifest counts it: `(barrier_tags, wall_tests)` — the unread tags the
/// barriers walked, and the tag–reader pairs that passed both distance
/// predicates at a reader with walls and so met its wall list. A barrier
/// that tests other pairs than the per-tag walk did moves `wall_tests`
/// even where the tables stay the same.
const CITY_BARRIER_COUNTS: [(&str, [u64; 2]); 2] = [
    ("e27-city-density", [516_424, 337_027]),
    ("e28-city-mobility", [836_073, 765_937]),
];

/// The error counts in `column` of `table`'s rows, checking that every
/// cell is exactly `count / trials`.
fn error_counts(table: &mmtag_sim::experiment::Table, column: usize, trials: usize) -> Vec<u64> {
    (0..table.len())
        .map(|row| {
            let ber = table.cell(row, column);
            let count = (ber * trials as f64).round();
            assert_eq!(ber, count / trials as f64, "row {row}: not a count");
            count as u64
        })
        .collect()
}

#[test]
#[ignore = "E05 and E16 at published size; run in release: cargo test --release -p mmtag-bench --test scenarios -- --ignored"]
fn ber_scenarios_keep_their_exact_error_counts_at_published_size() {
    let reg = registry();
    let runner = Runner::new();
    let e05 = reg.get("e05-ber").expect("e05-ber is registered");
    let trials = e05.spec().trials;
    let record = runner.run(e05);
    assert_eq!(error_counts(&record.tables[0], 4, trials), E05_OOK_ERRORS);
    let e16 = reg.get("e16-bpsk").expect("e16-bpsk is registered");
    let trials = e16.spec().trials;
    let record = runner.run(e16);
    let ook = error_counts(&record.tables[0], 1, trials);
    let bpsk = error_counts(&record.tables[0], 2, trials);
    let got: Vec<(u64, u64)> = ook.into_iter().zip(bpsk).collect();
    assert_eq!(got, E16_ERRORS);
}

/// The two-sided 99.9% standard normal quantile.
const Z_999: f64 = 3.2905;

/// The Wilson score interval for `k` successes in `n` trials at normal
/// quantile `z`.
fn wilson(k: u64, n: usize, z: f64) -> (f64, f64) {
    let (n, z2) = (n as f64, z * z);
    let p = k as f64 / n;
    let centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
    let half = z / (1.0 + z2 / n) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (centre - half, centre + half)
}

#[test]
fn pinned_error_counts_meet_their_closed_forms() {
    // Every pinned count at its registry SNR and trial count: the closed
    // form lies inside the count's 99.9% Wilson interval, or under its
    // upper bound when the count is 0.
    use mmtag_phy::ber::{bpsk_ber, ook_coherent_ber};
    let reg = registry();
    let spec = |name: &str| reg.get(name).expect("BER scenario is registered").spec();
    let lin = |db: f64| 10f64.powf(db / 10.0);
    let mut rows = Vec::new();
    let e05 = spec("e05-ber");
    let snrs = e05.values("eb_n0_db");
    assert_eq!(snrs.len(), E05_OOK_ERRORS.len());
    for (&db, &k) in snrs.iter().zip(&E05_OOK_ERRORS) {
        rows.push((
            format!("E05 OOK {db} dB"),
            ook_coherent_ber(lin(db)),
            k,
            e05.trials,
        ));
    }
    let e16 = spec("e16-bpsk");
    let snrs = e16.values("eb_n0_db");
    assert_eq!(snrs.len(), E16_ERRORS.len());
    for (&db, &(ook, bpsk)) in snrs.iter().zip(&E16_ERRORS) {
        rows.push((
            format!("E16 OOK {db} dB"),
            ook_coherent_ber(lin(db)),
            ook,
            e16.trials,
        ));
        rows.push((
            format!("E16 BPSK {db} dB"),
            bpsk_ber(lin(db)),
            bpsk,
            e16.trials,
        ));
    }
    let outside: Vec<String> = rows
        .iter()
        .filter_map(|(row, theory, k, n)| {
            let (lo, hi) = wilson(*k, *n, Z_999);
            let inside = *theory <= hi && (*k == 0 || *theory >= lo);
            (!inside)
                .then(|| format!("{row}: {theory:.4e} outside [{lo:.4e}, {hi:.4e}], {k} of {n}"))
        })
        .collect();
    assert!(
        outside.is_empty(),
        "closed form outside the 99.9% Wilson interval:\n{}",
        outside.join("\n")
    );
}

#[test]
#[ignore = "E29–E31 at published size; run in release: cargo test --release -p mmtag-bench --test scenarios -- --ignored"]
fn rate_region_scenarios_keep_their_row_counts_at_published_size() {
    let reg = registry();
    let runner = Runner::new();
    for (name, want) in RATE_REGION_ROWS {
        let scenario = reg.get(name).expect("rate-region scenario is registered");
        let metrics = runner.run(scenario).manifest.metrics;
        let rows = ["coincident_rows", "fast_rows", "exact_rows"]
            .map(|kind| metrics.counter(&format!("sim.rate_region.{kind}")));
        assert_eq!(rows, want, "{name}: (coincident, fast, exact) rows");
    }
}

#[test]
#[ignore = "E27–E28 at published size; run in release: cargo test --release -p mmtag-bench --test scenarios -- --ignored"]
fn city_scenarios_keep_their_barrier_counts_at_published_size() {
    let reg = registry();
    for runner in [Runner::with_threads(1), Runner::new()] {
        for (name, want) in CITY_BARRIER_COUNTS {
            let scenario = reg.get(name).expect("city scenario is registered");
            let metrics = runner.run(scenario).manifest.metrics;
            let counts = ["barrier_tags", "wall_tests"]
                .map(|kind| metrics.counter(&format!("mac.city.{kind}")));
            assert_eq!(counts, want, "{name}: (barrier_tags, wall_tests)");
        }
    }
}

/// 64-bit FNV-1a over the rendered tables.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn full_size_run_is_thread_count_invariant() {
    // The link-budget sweep at its published size, 1 thread vs 8: the
    // tentpole's bit-identity promise at full scale.
    let reg = registry();
    let s = reg.get("e02-link-budget").unwrap();
    let a = Runner::with_threads(1).run(s);
    let b = Runner::with_threads(8).run(s);
    assert_eq!(a.render(), b.render());
}

#[test]
fn manifest_records_the_spec() {
    let reg = registry();
    let record = Runner::new().run(reg.get("e02-link-budget").unwrap());
    let m = &record.manifest;
    assert_eq!(m.scenario, "e02-link-budget");
    assert_eq!(m.seed, reg.get("e02-link-budget").unwrap().spec().seed);
    assert!(m.threads >= 1);
    assert!(m.wall_ms >= 0.0);
    // The hash pins the canonical spec: re-running yields the same value.
    let again = Runner::new().run(reg.get("e02-link-budget").unwrap());
    assert_eq!(m.spec_hash, again.manifest.spec_hash);
}

#[test]
fn json_and_csv_artifacts_are_sane() {
    let reg = registry();
    let record = Runner::new().run(reg.get("e06-beamwidth").unwrap());

    // The JSON parses, and its tables hold exactly the record's titles,
    // columns, labels and cells (non-finite ones as null).
    let dom = parse_json(&record.to_json()).expect("record JSON parses");
    let scenario = dom.get("manifest").and_then(|m| m.get("scenario"));
    assert_eq!(scenario.and_then(Json::as_str), Some("e06-beamwidth"));
    let tables = dom.get("tables").and_then(Json::as_arr).expect("tables");
    assert_eq!(tables.len(), record.tables.len());
    for (t, dom) in record.tables.iter().zip(tables) {
        let list = |key: &str| dom.get(key).and_then(Json::as_arr).expect(key);
        let strs = |key: &str| list(key).iter().map(Json::as_str).collect::<Vec<_>>();
        assert_eq!(dom.get("title").and_then(Json::as_str), Some(t.title()));
        let columns: Vec<_> = t.columns().iter().map(|c| Some(c.as_str())).collect();
        assert_eq!(strs("columns"), columns);
        let labels: Vec<_> = (0..t.len()).map(|row| Some(t.label(row))).collect();
        assert_eq!(strs("labels"), labels);
        assert_eq!(list("rows").len(), t.len());
        for (row, cells) in list("rows").iter().enumerate() {
            let want: Vec<Json> = (0..t.columns().len())
                .map(|col| t.cell(row, col))
                .map(|v| {
                    if v.is_finite() {
                        Json::Num(v)
                    } else {
                        Json::Null
                    }
                })
                .collect();
            assert_eq!(cells.as_arr(), Some(&want[..]), "{} row {row}", t.title());
        }
    }

    let csv = record.to_csv();
    assert!(csv.starts_with("# scenario=e06-beamwidth"));
    // Every non-comment line has the same field count as its header.
    let mut width = None;
    for line in csv.lines() {
        if line.starts_with('#') {
            width = None;
            continue;
        }
        let n = line.split(',').count();
        match width {
            None => width = Some(n),
            Some(w) => assert_eq!(n, w, "ragged CSV row: {line}"),
        }
    }
}

#[test]
fn seed_override_changes_monte_carlo_output() {
    let reg = registry();
    let s = reg.get("e21-capture").unwrap();
    let runner = Runner::new();
    let base = runner.run_minimized(s, 3, 200);
    let reseeded = s.with_spec(s.spec().clone().with_seed(999));
    let other = runner.run_minimized(&*reseeded, 3, 200);
    assert_ne!(base.render(), other.render());
    assert_ne!(base.manifest.spec_hash, other.manifest.spec_hash);
}
