//! Runs the benchmark binary on every workload at its smallest size
//! (`--seconds 1`) and checks its output against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use mmtag_sim::json::{parse_json, Json};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// Metric names of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let bench = parse_json(&text).unwrap();
    bench
        .get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// Runs one workload; returns its record line and result line.
fn run(workload: &str, trace: u8) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmtag-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., record, result] = lines[..] else {
        panic!("{workload} printed too little:\n{stdout}");
    };
    (
        parse_json(record)
            .unwrap()
            .get("perfbench")
            .unwrap()
            .clone(),
        parse_json(result).unwrap(),
    )
}

fn value(metrics: &Json, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("no numeric '{name}'"))
}

/// The result line holds exactly the declared metrics, every one a
/// positive number for the end-to-end list.
fn check_result(result: &Json, list: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
    let metrics = result.get("metrics").unwrap();
    let names: Vec<&str> = metrics
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, declared(list));
    for name in names {
        let v = value(metrics, name);
        assert!(list != "end_to_end" || v > 0.0, "{name} = {v}");
    }
}

#[test]
fn repro_cold_passes_its_checks() {
    let (record, result) = run("repro-cold", 0);
    check_result(&result, "end_to_end");
    let detail = record.get("detail").unwrap();
    assert!(detail.get("digest.e05-ber#0").is_some());
    assert_eq!(record.get("error_frac").and_then(Json::as_num), Some(0.0));
}

#[test]
fn serve_hot_passes_its_checks() {
    let (record, result) = run("serve-hot", 0);
    check_result(&result, "end_to_end");
    let metrics = record.get("metrics").unwrap();
    assert!(value(metrics, "hot_p99_us") >= value(metrics, "hot_p50_us"));
}

#[test]
fn serve_sweep_passes_its_checks() {
    let (record, result) = run("serve-sweep", 0);
    check_result(&result, "end_to_end");
    let metrics = record.get("metrics").unwrap();
    assert!(value(metrics, "sweep_disk_p50_ms") < value(metrics, "sweep_cold_p50_ms"));
}

#[test]
fn traced_serve_hot_reports_every_layer_and_writes_layer_spans() {
    let (record, result) = run("serve-hot", 1);
    check_result(&result, "per_layer");
    let metrics = result.get("metrics").unwrap();
    assert!(value(metrics, "serve.memory_hits") > 0.0);
    assert_eq!(value(metrics, "serve.sim_runs"), 0.0);
    let file = record
        .get("detail")
        .and_then(|d| d.get("trace_file"))
        .and_then(Json::as_str)
        .unwrap();
    let spans = std::fs::read_to_string(repo_root().join(file)).unwrap();
    for name in [
        "\"serve.query\"",
        "\"rf.rng.fill_normal\"",
        "\"runner.run e05-ber\"",
        "\"sim.cache.store\"",
        "\"serve.engine.query\"",
        "\"serve.sweep_cold\"",
    ] {
        assert!(spans.contains(name), "no {name} span in {file}");
    }
}
