//! A zero-dependency micro-benchmark harness: warmup, auto-calibrated
//! iteration counts, best-of-N rounds — the timing core of `bench_report`.
//!
//! This replaces the external Criterion dependency so the workspace builds
//! offline. It is deliberately simple — wall-clock `std::time::Instant`,
//! minimum-of-rounds (the standard low-noise estimator for CPU-bound
//! kernels), no statistics beyond that — but it is enough to (a) catch
//! order-of-magnitude regressions in the hot paths and (b) measure the
//! serial-vs-parallel speedup of the Monte-Carlo engine
//! (`BENCH_report.json`).

use std::time::Instant;

/// One benchmark's outcome.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name (stable key in the JSON report).
    pub name: String,
    /// Iterations per timing round after calibration.
    pub iters: u64,
    /// Best observed nanoseconds per iteration (min over rounds).
    pub ns_per_iter: f64,
}

impl BenchResult {
    /// Speedup of `self` over `other` (how many times faster `self` is):
    /// `other.ns_per_iter / self.ns_per_iter`.
    pub fn speedup_over(&self, other: &BenchResult) -> f64 {
        other.ns_per_iter / self.ns_per_iter
    }
}

/// Iteration ceiling, so trivially cheap closures can't spin forever
/// during calibration.
const MAX_ITERS: u64 = 1 << 24;

/// Runs `f` under the harness: one calibration pass sizes the iteration
/// count toward `target_round_nanos`, then `rounds` timed rounds run and
/// the fastest is reported. The closure's result is passed through
/// [`std::hint::black_box`] so the optimizer cannot delete the work. The
/// CI quick mode (`bench_report --quick`, run by `scripts/check.sh`) uses
/// a small target so the full report finishes in a couple of seconds —
/// the resulting numbers are noisier but the pipeline (and the JSON
/// artifact) is exercised end to end on every check.
pub fn bench_with<R, F: FnMut() -> R>(
    name: &str,
    target_round_nanos: u128,
    rounds: usize,
    mut f: F,
) -> BenchResult {
    // Calibration: double iterations until a round is long enough.
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = t.elapsed().as_nanos();
        if elapsed >= target_round_nanos / 2 || iters >= MAX_ITERS {
            break;
        }
        // Aim straight for the target when we have signal; else double.
        iters = if elapsed > 0 {
            (iters.saturating_mul(target_round_nanos.div_ceil(elapsed) as u64))
                .clamp(iters + 1, iters.saturating_mul(16).min(MAX_ITERS))
        } else {
            (iters * 16).min(MAX_ITERS)
        };
    }

    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    BenchResult {
        name: name.to_string(),
        iters,
        ns_per_iter: best,
    }
}

/// Formats a result as the one-line summary the bench binaries print.
pub fn format_result(r: &BenchResult) -> String {
    format!(
        "{:<40} {:>14.1} ns/iter   ({} iters/round)",
        r.name, r.ns_per_iter, r.iters
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{parse_json, Json};

    #[test]
    fn bench_measures_something_positive() {
        let r = bench_with("spin", 1_000_000, 2, || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(r.ns_per_iter > 0.0);
        assert!(r.iters >= 1);
    }

    #[test]
    fn validate_json_accepts_the_report_shape_and_valid_documents() {
        let report = crate::report::Report {
            threads: 8,
            benches: vec![BenchResult {
                name: "k \"quoted\"".into(),
                iters: 3,
                ns_per_iter: 1.5,
            }],
            speedups: vec![("k_speedup".into(), Some(2.0))],
            ..Default::default()
        };
        let dom = parse_json(&report.to_json()).unwrap();
        let k = dom.get("benches").and_then(|b| b.get("k \"quoted\""));
        assert_eq!(
            k.and_then(|k| k.get("ns_per_iter")).and_then(Json::as_num),
            Some(1.5)
        );
        assert_eq!(
            k.and_then(|k| k.get("iters")).and_then(Json::as_num),
            Some(3.0)
        );
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#""a \"quoted\" é string""#,
            r#"{"a": [1, {"b": null}, true], "c": "d"}"#,
            "  {\n}\t",
        ] {
            assert!(parse_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn validate_json_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "\"unterminated",
            "01x",
            "1.",
            "1e",
            "{\"a\" 1}",
            "{} trailing",
            "nul",
            r#""bad \q escape""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn speedup_ratio_orientation() {
        let fast = BenchResult {
            name: "fast".into(),
            iters: 1,
            ns_per_iter: 10.0,
        };
        let slow = BenchResult {
            name: "slow".into(),
            iters: 1,
            ns_per_iter: 40.0,
        };
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
    }
}
