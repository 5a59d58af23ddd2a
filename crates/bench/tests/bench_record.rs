//! The committed `BENCH_report.json` is a record of the repository
//! benchmark (`BENCHMARK.json`), written by `--bin bench_report`. These
//! tests check the record as committed: its host, that it carries every
//! workload and every metric with its spread, and the floors it must
//! meet. They read the two files only and never run the benchmark.

use std::path::Path;

use mmtag_sim::json::{parse_json, Json};

fn load(file: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no '{key}' list"))
}

fn name(entry: &Json) -> &str {
    entry
        .get("name")
        .and_then(Json::as_str)
        .expect("entry name")
}

/// The median of a `{"unit", "median", "q1", "q3"}` row, after checking
/// its unit and that `q1 ≤ median ≤ q3` are finite.
fn median(row: Option<&Json>, unit: &str, what: &str) -> f64 {
    let row = row.unwrap_or_else(|| panic!("{what}: missing"));
    assert_eq!(
        row.get("unit").and_then(Json::as_str),
        Some(unit),
        "{what}: unit"
    );
    let num = |k: &str| {
        row.get(k)
            .and_then(Json::as_num)
            .filter(|v| v.is_finite())
            .unwrap_or_else(|| panic!("{what}: {k} is not a finite number"))
    };
    let (q1, m, q3) = (num("q1"), num("median"), num("q3"));
    assert!(
        q1 <= m && m <= q3,
        "{what}: not q1 {q1} ≤ median {m} ≤ q3 {q3}"
    );
    m
}

#[test]
fn committed_record_carries_every_benchmark_metric_with_its_spread() {
    let bench = load("BENCHMARK.json");
    let record = load("BENCH_report.json");
    let host = record.get("host").expect("host");
    let nproc = host.get("nproc").and_then(Json::as_num).expect("nproc");
    assert!(
        nproc >= 2.0,
        "measured on {nproc} cores; the record needs ≥ 2"
    );
    let commit = host.get("commit").and_then(Json::as_str).expect("commit");
    assert!(
        commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()),
        "commit '{commit}'"
    );
    let mut seeds: Vec<u64> = list(&record, "seeds")
        .iter()
        .map(|s| s.as_num().expect("numeric seed") as u64)
        .collect();
    let runs = seeds.len() as f64;
    seeds.sort_unstable();
    seeds.dedup();
    assert!(seeds.len() >= 5, "{} distinct seeds; need ≥ 5", seeds.len());
    assert_eq!(seeds.len() as f64, runs, "repeated seeds");

    let workloads = record.get("workloads").expect("workloads");
    for w in list(&bench, "workloads") {
        let w = name(w);
        let entry = workloads
            .get(w)
            .unwrap_or_else(|| panic!("workload {w} missing"));
        assert_eq!(entry.get("runs").and_then(Json::as_num), Some(runs), "{w}");
        for section in ["end_to_end", "per_layer"] {
            let rows = entry.get(section);
            for metric in list(&bench, section) {
                let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
                let m = name(metric);
                median(rows.and_then(|r| r.get(m)), unit, &format!("{w} {m}"));
            }
        }
    }
}

#[test]
fn committed_record_meets_its_floors() {
    let record = load("BENCH_report.json");
    let workloads = record
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");

    // The runner rows of a repro-cold pass add up to the pass.
    let repro = record.get("workloads").and_then(|w| w.get("repro-cold"));
    let reconciled = median(
        repro.and_then(|w| w.get("reconciled")),
        "ratio",
        "repro-cold reconciled",
    );
    assert!(
        (0.9..=1.1).contains(&reconciled),
        "Σ runner rows / pass time = {reconciled}, outside [0.9, 1.1]"
    );

    for (w, entry) in workloads {
        let row = |m: &str, unit: &str| {
            median(
                entry.get("per_layer").and_then(|r| r.get(m)),
                unit,
                &format!("{w} {m}"),
            )
        };
        // Two threads must beat one: efficiency 0.5 means they merely tie.
        for m in ["rf.pool.scaling_eff", "serve.sweep_fanout_eff"] {
            let eff = row(m, "ratio");
            assert!(eff >= 0.55, "{w} {m} = {eff} is below 0.55");
        }
        // Tracing is cheap enough to leave on: a traced stretch costs at
        // most 5% more than an untraced one.
        let overhead = row("trace_overhead_frac", "ratio");
        assert!(
            overhead <= 0.05,
            "{w} trace_overhead_frac = {overhead} is above 0.05"
        );
        // Cache-first serving: simulating one point costs at least ten
        // times a memory hit plus its socket round trip.
        let point_ms = row("runner.point_ms", "ms");
        let hit_ms =
            row("serve.engine.query_hit_ns", "ns") / 1e6 + row("serve.transport_us", "us") / 1e3;
        assert!(
            point_ms >= 10.0 * hit_ms,
            "{w}: a simulated point ({point_ms} ms) is not 10× a hit ({hit_ms} ms)"
        );
    }
}
