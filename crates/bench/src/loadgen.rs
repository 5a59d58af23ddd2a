//! Load generation for the `mmtag serve` daemon: a seeded, deterministic
//! request-mix generator and a closed-loop driver.
//!
//! The same [`generate`] output drives `--bin loadgen` (the serve smoke
//! in `scripts/check.sh`) and the determinism integration tests:
//! identical request logs must replay to byte-identical response bodies
//! at any executor count, so the generator never draws from wall-clock
//! or OS-entropy sources. Nothing here times anything; the repository
//! benchmark (`perfbench/`) measures the daemon.

use std::io;

use mmtag_rf::rng::{Rng, SeedTree};
use mmtag_sim::json::{parse_json, Json};
use mmtag_sim::serve::Client;

/// The shape of a generated request stream.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Registry name every request targets.
    pub scenario: String,
    /// Number of distinct seeds (= distinct specs = distinct cache
    /// entries) the stream cycles through.
    pub seed_pool: u64,
    /// `trials` override sent with every request (controls miss cost).
    pub trials: u64,
    /// `points` override sent with every request.
    pub points: u64,
    /// Fraction of `run` ops (the rest are `query`), in percent.
    pub run_percent: u64,
    /// Fraction of requests that are `sweep` ops, in percent (taken off
    /// the top; the remainder splits run/query by `run_percent`).
    pub sweep_percent: u64,
    /// Grid size (`seeds`) each generated sweep request carries.
    pub sweep_points: u64,
    /// Query positions are drawn uniformly from this closed range —
    /// keep it inside the scenario's first axis.
    pub x_range: (f64, f64),
}

impl Mix {
    /// The default mix: `e05-ber` shrunk to a cheap-but-measurable miss
    /// cost, 8 distinct seeds, 20% runs / 80% queries, no sweeps.
    pub fn quick() -> Mix {
        Mix {
            scenario: "e05-ber".to_string(),
            seed_pool: 8,
            trials: 20_000,
            points: 8,
            run_percent: 20,
            sweep_percent: 0,
            sweep_points: 16,
            x_range: (0.0, 14.0),
        }
    }
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The JSON request line (no trailing newline).
    pub line: String,
    /// `true` for `sweep` ops — the driver must read a response
    /// *stream*, not a single line.
    pub sweep: bool,
}

/// Generates `n` requests deterministically from `root_seed`. Equal
/// `(mix, n, root_seed)` always produce the identical request log —
/// byte for byte — which is what makes replay-based determinism checks
/// possible.
pub fn generate(mix: &Mix, n: usize, root_seed: u64) -> Vec<Request> {
    let tree = SeedTree::new(root_seed);
    let pool = mix.seed_pool.max(1);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = tree.rng_indexed("loadgen", i as u64);
        let drawn = rng.next_u64() % pool;
        // Requests 0 and 1 pin seed 0 — any run of length >= 2 then
        // contains at least one guaranteed miss (the first use) and one
        // guaranteed hit (its immediate repeat), so short runs can't
        // come out all-miss and make hit-ratio checks flaky.
        let seed = if i <= 1 { 0 } else { drawn };
        let id = i as u64 + 1;
        let op_draw = rng.next_u64() % 100;
        // Sweeps come off the top so requests 0/1 stay point-shaped
        // (the guaranteed miss/hit pair must exercise the point path).
        let is_sweep = i > 1 && op_draw < mix.sweep_percent;
        if is_sweep {
            // Campaign bases live above the point-seed pool so sweep
            // grids never collide with point-request seeds, and are
            // spaced `sweep_points` apart so campaigns don't overlap
            // each other; repeating a campaign is the sweep hit path.
            let base = pool + drawn * mix.sweep_points.max(1);
            out.push(Request {
                line: format!(
                    "{{\"id\":{id},\"op\":\"sweep\",\"scenario\":\"{}\",\"seeds\":{},\"seed\":{base},\"trials\":{},\"points\":{}}}",
                    mix.scenario, mix.sweep_points.max(1), mix.trials, mix.points
                ),
                sweep: true,
            });
            continue;
        }
        let is_run = op_draw % (100 - mix.sweep_percent).max(1) < mix.run_percent;
        let line = if is_run {
            format!(
                "{{\"id\":{id},\"op\":\"run\",\"scenario\":\"{}\",\"seed\":{seed},\"trials\":{},\"points\":{}}}",
                mix.scenario, mix.trials, mix.points
            )
        } else {
            let (lo, hi) = mix.x_range;
            // 3 decimal places keeps the line short and the value exact
            // to re-generate.
            let x = (lo * 1000.0 + rng.f64() * (hi - lo) * 1000.0).round() / 1000.0;
            let x = x.clamp(lo, hi);
            format!(
                "{{\"id\":{id},\"op\":\"query\",\"scenario\":\"{}\",\"seed\":{seed},\"trials\":{},\"points\":{},\"x\":{x}}}",
                mix.scenario, mix.trials, mix.points
            )
        };
        out.push(Request { line, sweep: false });
    }
    out
}

/// What the daemon reported after a [`closed_loop`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServingSummary {
    /// Requests sent, every one answered `"ok":true`.
    pub requests: u64,
    /// The daemon's authoritative resolution hit ratio (from `status`).
    pub cache_hit_ratio: f64,
    /// On-disk cache entries after the run (from `status`).
    pub cache_entries: u64,
    /// On-disk cache bytes after the run (from `status`).
    pub cache_bytes: u64,
}

/// Sends `requests` over `client` one at a time, each as soon as the
/// previous response has landed, then asks for `status`. Fails on the
/// first response whose terminating line (a sweep's summary, or the one
/// line of a point op) is not `"ok":true`, quoting that response.
pub fn closed_loop(client: &mut Client, requests: &[Request]) -> io::Result<ServingSummary> {
    let mut response = String::new();
    for req in requests {
        response.clear();
        if req.sweep {
            client.sweep_into(&req.line, &mut response)?;
        } else {
            client.roundtrip_into(&req.line, &mut response)?;
        }
        let last = response.rsplit('\n').next().unwrap_or("");
        let ok = parse_json(last).is_ok_and(|dom| dom.get("ok") == Some(&Json::Bool(true)));
        if !ok {
            return Err(io::Error::other(format!(
                "request {} failed: {response}",
                req.line
            )));
        }
    }
    let status = client.roundtrip("{\"id\":0,\"op\":\"status\"}")?;
    let dom = parse_json(&status)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad status: {e}")))?;
    let num = |key: &str| dom.get(key).and_then(Json::as_num).unwrap_or(0.0);
    Ok(ServingSummary {
        requests: requests.len() as u64,
        cache_hit_ratio: num("cache_hit_ratio"),
        cache_entries: num("cache_entries") as u64,
        cache_bytes: num("cache_bytes") as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The numeric `key` of a request line.
    fn field(line: &str, key: &str) -> u64 {
        let dom = parse_json(line).expect("request line parses");
        dom.get(key).and_then(Json::as_num).expect("numeric field") as u64
    }

    #[test]
    fn generation_is_deterministic_and_marks_first_seed_use_as_miss() {
        let mix = Mix::quick();
        let a = generate(&mix, 40, 0xFEED);
        let b = generate(&mix, 40, 0xFEED);
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.line, y.line);
        }
        // Each distinct seed's first use is a miss, every repeat a hit:
        // at most `seed_pool` misses.
        let seeds: HashSet<u64> = a.iter().map(|r| field(&r.line, "seed")).collect();
        assert!(!seeds.is_empty());
        assert!(seeds.len() as u64 <= mix.seed_pool);
        // A different root seed perturbs the stream.
        let c = generate(&mix, 40, 0xBEEF);
        assert!(a.iter().zip(&c).any(|(x, y)| x.line != y.line));
        // Every line is one valid flat JSON object naming the scenario.
        for r in &a {
            let dom = parse_json(&r.line).expect("request line parses");
            assert_eq!(
                dom.get("scenario").and_then(Json::as_str),
                Some(mix.scenario.as_str())
            );
        }
    }

    #[test]
    fn short_runs_still_contain_a_guaranteed_miss_and_hit() {
        // Even `--requests 2` (below the seed-pool size) must produce one
        // guaranteed miss and one guaranteed hit — request 1 repeats
        // request 0's seed — so hit-ratio checks on small smoke runs
        // can't be flaky.
        let mix = Mix::quick();
        for n in 2..8 {
            let reqs = generate(&mix, n, 0x5EED);
            for r in &reqs[..2] {
                assert!(!r.sweep, "n={n}: {}", r.line);
                assert_eq!(field(&r.line, "seed"), 0, "n={n}: {}", r.line);
            }
        }
    }

    #[test]
    fn sweep_heavy_mix_interleaves_campaigns_disjoint_from_point_seeds() {
        let mix = Mix {
            sweep_percent: 50,
            ..Mix::quick()
        };
        let reqs = generate(&mix, 64, 0xFEED);
        let sweeps: Vec<_> = reqs.iter().filter(|r| r.sweep).collect();
        assert!(!sweeps.is_empty(), "half the mix should be sweeps");
        assert!(reqs.iter().any(|r| !r.sweep), "point ops survive");
        assert!(
            !reqs[0].sweep && !reqs[1].sweep,
            "miss/hit pair stays point-shaped"
        );
        let mut bases = HashSet::new();
        for r in &sweeps {
            let dom = parse_json(&r.line).expect("sweep line parses");
            assert_eq!(dom.get("op").and_then(Json::as_str), Some("sweep"));
            assert_eq!(field(&r.line, "seeds"), mix.sweep_points);
            // Campaign bases sit above the point-seed pool so grids
            // never collide with point requests.
            let base = field(&r.line, "seed");
            assert!(base >= mix.seed_pool, "campaign base {base} under pool");
            assert_eq!((base - mix.seed_pool) % mix.sweep_points, 0);
            bases.insert(base);
        }
        // Campaigns repeat: a campaign's first use is the miss, every
        // repeat the sweep hit path.
        assert!(bases.len() < sweeps.len(), "no campaign repeats");
        // Replays are byte-identical.
        let again = generate(&mix, 64, 0xFEED);
        for (a, b) in reqs.iter().zip(&again) {
            assert_eq!(a.line, b.line);
        }
    }
}
