//! `loadgen` — drive an `mmtag serve` daemon with a deterministic
//! request mix and print its cache hit ratio.
//!
//! ```text
//! loadgen --socket <path> [flags]
//!   --requests N      request count                (default 160)
//!   --trials N        per-request trials override  (default 20000)
//!   --one-sweep K     send ONE K-point sweep and print the raw
//!                     response stream (smoke tests)
//!   --shutdown        send a shutdown op when done
//! ```
//!
//! The mix is a pure function of its flags: the same invocation always
//! sends the same request log (see [`mmtag_bench::loadgen::generate`]),
//! which is what makes daemon responses replay-comparable. A request
//! answered with anything but `"ok":true` ends the run with exit 1.

use mmtag_bench::loadgen::{closed_loop, generate, Mix};
use mmtag_sim::serve::Client;
use std::process::ExitCode;

/// The mix's root seed; also the base seed of the `--one-sweep` grid.
const SEED: u64 = 0x5EED;

struct Flags {
    socket: String,
    requests: usize,
    mix: Mix,
    one_sweep: Option<u64>,
    shutdown: bool,
}

fn parse_flags() -> Result<Flags, String> {
    let mut socket = None;
    let mut flags = Flags {
        socket: String::new(),
        requests: 160,
        mix: Mix::quick(),
        one_sweep: None,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("--{flag} needs a value"));
        match arg.as_str() {
            "--socket" => socket = Some(value("socket")?),
            "--requests" => flags.requests = parse(&value("requests")?)?,
            "--trials" => flags.mix.trials = parse(&value("trials")?)?,
            "--one-sweep" => flags.one_sweep = Some(parse(&value("one-sweep")?)?),
            "--shutdown" => flags.shutdown = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    flags.socket = socket.ok_or("need --socket <path>")?;
    Ok(flags)
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("cannot parse '{raw}'"))
}

fn run() -> Result<(), String> {
    let flags = parse_flags()?;
    let mut client =
        Client::connect_unix(&flags.socket).map_err(|e| format!("connect failed: {e}"))?;
    if let Some(seeds) = flags.one_sweep {
        // Echo the raw stream: check.sh counts its point lines and
        // byte-compares cache-cold and cache-hot runs.
        let request = format!(
            "{{\"id\":1,\"op\":\"sweep\",\"scenario\":\"{}\",\"seeds\":{seeds},\"seed\":{SEED},\"trials\":{},\"points\":{}}}",
            flags.mix.scenario, flags.mix.trials, flags.mix.points
        );
        let mut response = String::new();
        let points = client
            .sweep_into(&request, &mut response)
            .map_err(|e| format!("sweep failed: {e}"))?;
        println!("{response}");
        eprintln!("loadgen: one-sweep streamed {points} point lines");
    } else {
        let requests = generate(&flags.mix, flags.requests, SEED);
        let s =
            closed_loop(&mut client, &requests).map_err(|e| format!("drive loop failed: {e}"))?;
        println!(
            "loadgen: {} requests ok, cache hit ratio {:.3}, {} cache entries ({} bytes)",
            s.requests, s.cache_hit_ratio, s.cache_entries, s.cache_bytes
        );
    }
    if flags.shutdown {
        let bye = client
            .roundtrip("{\"id\":0,\"op\":\"shutdown\"}")
            .map_err(|e| format!("shutdown failed: {e}"))?;
        println!("  shutdown: {bye}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
