//! Registry-level guarantees: completeness, determinism across thread
//! counts, artifact sanity, and a smoke pass over every scenario.

use mmtag_bench::scenarios::registry;
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
        assert_eq!(
            a.render(),
            b.render(),
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
    ("e16-bpsk", 0x01d8_e6cb_756d_7e8f),
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
    ("e29-rate-region", 0x540d_7bcf_24b8_0364),
    ("e30-rate-vs-tags", 0x0ed1_017b_ca77_9498),
    ("e31-rate-vs-states", 0x4658_feb8_20a9_b7ca),
];

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

    let json = record.to_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"manifest\""));
    assert!(json.contains("\"e06-beamwidth\""));
    assert!(json.contains("\"tables\""));
    // Balanced braces/brackets — the writer is hand-rolled, so check it.
    let balance = |open: char, close: char| {
        json.chars().filter(|&c| c == open).count() == json.chars().filter(|&c| c == close).count()
    };
    assert!(balance('{', '}') && balance('[', ']'));

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
