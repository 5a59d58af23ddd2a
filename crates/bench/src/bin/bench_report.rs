//! `bench_report` — records the repository benchmark into
//! `BENCH_report.json`. It times nothing itself.
//!
//! It reads `BENCHMARK.json` for the benchmark command, its
//! `run_seconds`, the workload names and the `end_to_end` and
//! `per_layer` metric names. For every workload and each of [`SEEDS`] it
//! runs that command twice, from the repository root: at `--trace 0` for
//! the end-to-end metrics and at `--trace 1` for the per-layer rows. It
//! writes the median and [q1, q3] of every metric over the seeds, and,
//! for a workload whose runs report `repro_pass_s`, the `reconciled`
//! ratio: the per-scenario runner rows summed against the pass they
//! decompose. It writes nothing unless every run exits 0, correct, with
//! no failed operation.
//!
//! ```text
//! cargo run --release -p mmtag-bench --bin bench_report   # 5–6 min on 2 cores
//! ```
//!
//! Run it unpinned on a host with at least two cores;
//! `crates/bench/tests/bench_record.rs` checks the committed record.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use mmtag_sim::json::{escape_into, parse_json, Json};

/// The seeds every workload runs at, untraced and traced.
const SEEDS: [u64; 5] = [9101, 9102, 9103, 9104, 9105];

/// What the recorder reads from `BENCHMARK.json`.
struct Benchmark {
    command: Vec<String>,
    run_seconds: u64,
    workloads: Vec<String>,
    end_to_end: Vec<String>,
    per_layer: Vec<String>,
}

impl Benchmark {
    fn parse(text: &str) -> Result<Benchmark, String> {
        let doc = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json has no '{key}' list"))
        };
        let names = |key: &str| -> Result<Vec<String>, String> {
            list(key)?
                .iter()
                .map(|v| v.get("name").and_then(Json::as_str).map(str::to_string))
                .collect::<Option<_>>()
                .ok_or(format!("a BENCHMARK.json '{key}' entry has no name"))
        };
        Ok(Benchmark {
            command: list("command")?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or("BENCHMARK.json's command is not a list of strings")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_num)
                .ok_or("BENCHMARK.json has no run_seconds")? as u64,
            workloads: names("workloads")?,
            end_to_end: names("end_to_end")?,
            per_layer: names("per_layer")?,
        })
    }
}

/// One benchmark run's last two stdout lines: the record
/// (`{"perfbench": …}`, unwrapped) and the result.
struct Run {
    record: Json,
    result: Json,
}

impl Run {
    /// Value and unit of a metric in the result line.
    fn metric(&self, name: &str) -> Result<(f64, &str), String> {
        let m = self.result.get("metrics").and_then(|m| m.get(name));
        let value = m.and_then(|m| m.get("value")).and_then(Json::as_num);
        let unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
        value
            .zip(unit)
            .ok_or(format!("the run reported no metric '{name}'"))
    }

    /// A host fact from the record's `detail`, as perfbench prints it.
    fn detail(&self, key: &str) -> Result<&str, String> {
        self.record
            .get("detail")
            .and_then(|d| d.get(key))
            .and_then(Json::as_str)
            .ok_or(format!("the run recorded no '{key}'"))
    }

    /// Σ runner rows (every per-scenario row plus `runner.rest_ms`; not
    /// `runner.point_ms`, a serve-sweep point outside the pass) over the
    /// pass time the same run measured; `None` for a run with no
    /// `repro_pass_s`.
    fn reconciled(&self, per_layer: &[String]) -> Result<Option<f64>, String> {
        let pass_s = self
            .record
            .get("metrics")
            .and_then(|m| m.get("repro_pass_s"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_num);
        let Some(pass_s) = pass_s else {
            return Ok(None);
        };
        let mut sum_ms = 0.0;
        for name in per_layer {
            if name.starts_with("runner.") && name != "runner.point_ms" {
                sum_ms += self.metric(name)?.0;
            }
        }
        Ok(Some(sum_ms / (1000.0 * pass_s)))
    }
}

/// Runs the benchmark command once; `Err` unless it exits 0, correct,
/// with no failed operation.
fn run(
    root: &Path,
    bench: &Benchmark,
    workload: &str,
    seed: u64,
    trace: u8,
) -> Result<Run, String> {
    let what = format!("{workload} --seed {seed} --trace {trace}");
    eprintln!("bench_report: {what}");
    let (program, args) = bench
        .command
        .split_first()
        .ok_or("BENCHMARK.json's command is empty")?;
    let output = Command::new(program)
        .args(args)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &bench.run_seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .current_dir(root)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{what}: cannot start {program}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(record)) = (lines.next(), lines.next()) else {
        return Err(format!("{what}: fewer than two output lines"));
    };
    let result = parse_json(result).map_err(|e| format!("{what}: result line: {e}"))?;
    let record = parse_json(record)
        .ok()
        .and_then(|r| r.get("perfbench").cloned())
        .ok_or(format!("{what}: no perfbench record line"))?;
    let correct = result.get("correct") == Some(&Json::Bool(true));
    let failed = result.get("failed").and_then(Json::as_num);
    if !output.status.success() || !correct || failed != Some(0.0) {
        return Err(format!(
            "{what}: {}, correct {correct}, failed {failed:?}",
            output.status
        ));
    }
    Ok(Run { record, result })
}

/// The median, exactly as perfbench's `stats::median`: linear
/// interpolation at rank `(n − 1) / 2` of the sorted samples.
fn median(samples: &[f64]) -> f64 {
    let d = sorted(samples);
    let pos = 0.5 * (d.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(d.len() - 1);
    d[lo] + (d[hi] - d[lo]) * (pos - lo as f64)
}

/// First and third quartiles exactly as perfbench's `stats::quartiles`,
/// i.e. Python's `statistics.quantiles(samples, n=4)` with its default
/// "exclusive" method; `None` below two samples.
fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let d = sorted(samples);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// `{"unit", "median", "q1", "q3"}` over one sample per seed.
fn spread(unit: &str, samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples).expect("at least two seeds");
    format!(
        "{{\"unit\": {}, \"median\": {}, \"q1\": {q1}, \"q3\": {q3}}}",
        json_str(unit),
        median(samples)
    )
}

/// One `"<metric>": {…}` member per name, over `runs`.
fn section(runs: &[Run], names: &[String]) -> Result<String, String> {
    let mut rows = Vec::with_capacity(names.len());
    for name in names {
        let mut unit = "";
        let mut samples = Vec::with_capacity(runs.len());
        for r in runs {
            let (value, u) = r.metric(name)?;
            unit = u;
            samples.push(value);
        }
        rows.push(format!(
            "        {}: {}",
            json_str(name),
            spread(unit, &samples)
        ));
    }
    Ok(rows.join(",\n"))
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start().trim_start_matches(':').trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn record(root: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let bench = Benchmark::parse(&text)?;
    let mut host: Option<(u64, String)> = None;
    let mut workloads = Vec::new();
    for workload in &bench.workloads {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for seed in SEEDS {
            untraced.push(run(root, &bench, workload, seed, 0)?);
            traced.push(run(root, &bench, workload, seed, 1)?);
        }
        for r in untraced.iter().chain(&traced) {
            let nproc = r.detail("nproc")?;
            let nproc: u64 = nproc.parse().map_err(|_| format!("bad nproc '{nproc}'"))?;
            let facts = (nproc, r.detail("commit")?.to_string());
            if *host.get_or_insert_with(|| facts.clone()) != facts {
                return Err(format!(
                    "runs disagree on nproc/commit: {facts:?} vs {host:?}"
                ));
            }
        }
        let mut body = format!(
            "      \"runs\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}",
            SEEDS.len(),
            section(&untraced, &bench.end_to_end)?,
            section(&traced, &bench.per_layer)?
        );
        let reconciled = traced
            .iter()
            .map(|r| r.reconciled(&bench.per_layer))
            .collect::<Result<Option<Vec<f64>>, String>>()?;
        if let Some(ratios) = reconciled {
            let _ = write!(
                body,
                ",\n      \"reconciled\": {}",
                spread("ratio", &ratios)
            );
        }
        workloads.push(format!("    {}: {{\n{body}\n    }}", json_str(workload)));
    }
    let (nproc, commit) = host.ok_or("BENCHMARK.json names no workload")?;
    let command: Vec<String> = bench.command.iter().map(|c| json_str(c)).collect();
    let seeds: Vec<String> = SEEDS.iter().map(u64::to_string).collect();
    Ok(format!(
        "{{\n  \"host\": {{\"nproc\": {nproc}, \"cpu\": {}, \"commit\": {}}},\n  \"command\": [{}],\n  \
         \"run_seconds\": {},\n  \"seeds\": [{}],\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json_str(&cpu_model()),
        json_str(&commit),
        command.join(", "),
        bench.run_seconds,
        seeds.join(", "),
        workloads.join(",\n")
    ))
}

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let written = record(&root).and_then(|json| {
        std::fs::write(root.join("BENCH_report.json"), json)
            .map_err(|e| format!("writing BENCH_report.json: {e}"))
    });
    match written {
        Ok(()) => {
            eprintln!("bench_report: wrote BENCH_report.json");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_the_middle_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[10.0, 10.5, 11.0, 9.5, 10.0]), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 10.5, 11, 9.5, 10], n=4) == [9.75, 10.0, 10.75]
        let w = [10.0, 10.5, 11.0, 9.5, 10.0];
        assert_eq!(quartiles(&w), Some((9.75, 10.75)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
