//! Simulation-as-a-service: the `mmtag serve` daemon.
//!
//! The paper's evaluation is a static link; everything *around* the link
//! (§9) is what the simulator answers — and once sweep surfaces exist on
//! disk, most questions are lookups, not simulations. This module turns
//! the [`crate::scenario::Runner`] + [`crate::cache::RunCache`] stack
//! into a long-lived service:
//!
//! * **protocol** — one JSON object per line, over TCP or a Unix socket.
//!   Requests carry an `op` (`run`, `query`, `sweep`, `status`, `prune`,
//!   `shutdown`); responses echo the request `id` and either `"ok":true`
//!   with the payload or `"ok":false` with a machine-readable `error`
//!   code. Every op answers with exactly one line except `sweep`, which
//!   *streams*: one `sweep_point` line per grid point followed by a
//!   summary line. Each request line is read once by
//!   [`crate::json::parse_flat`]: a line that is not one flat object of
//!   at most [`crate::json::FLAT_MEMBERS`] escape-free members (a line
//!   that is not UTF-8 included) is answered `bad_request` with id 0,
//!   since its id cannot be trusted, the connection stays open, and
//!   members the protocol does not define are ignored. Replies are
//!   written with a fixed key order by [`crate::json`]'s writers, and
//!   [`crate::json::parse_json`] reads them on the client side.
//! * **bounded admission** — jobs pass through a FIFO admission queue
//!   with a hard capacity. At capacity the submit fails *immediately*
//!   and the client sees `"error":"queue_full"`; the daemon never
//!   buffers unboundedly. Request lines are bounded too: more than
//!   [`MAX_REQUEST_BYTES`] without a newline is answered
//!   `"error":"line_too_long"` and the connection is closed.
//! * **cache-first execution** — a request is resolved against the run
//!   map (every run in flight or landed in memory, indexed by spec hash
//!   and by request tuple), then the on-disk [`crate::cache::RunCache`],
//!   and only then simulated. Single-flight is exact: N concurrent
//!   requests for one spec cost one run.
//! * **surface queries** — `op:"query"` interpolates (linear in 1-D,
//!   bilinear in 2-D) from a cached sweep table without re-simulating,
//!   and every answer carries provenance: the spec hash and the grid
//!   corners the value was interpolated between.
//! * **bounded state** — the run map keeps at most `memory_capacity`
//!   landed runs, and evicting a run drops its request-tuple index
//!   entries too. Observability state is per thread: each job's
//!   [`crate::scenario::Runner`] records its manifest metrics on the
//!   thread that ran it and removes them when the run ends, so nothing
//!   accumulates and no job's events reach another's. `status` reports
//!   executor time per admitted queue item as p50/p99 of an
//!   [`crate::obs::HistogramStat`].
//!
//! The code is four modules: `protocol` (how a request's members are
//! read, the line and sweep limits, the error line, the query surfaces),
//! `engine` (a request line in, its response lines out: the admission
//! queue, the run map and the executors' job bodies; no sockets),
//! `transport` (listeners, one connection loop over any `Read + Write`
//! stream, shutdown) and `client`.
//!
//! # Determinism
//!
//! `run`, `query` and `sweep` response bodies are pure functions of the
//! request: they contain no wall-clock times, thread counts, or
//! hit/miss markers. Replaying a request log therefore produces
//! byte-identical response bodies regardless of executor count or
//! arrival interleaving (`status` and `prune` report live load and are
//! excluded from the contract). Sweep point lines additionally stream
//! in point order and carry their `point` index, so streamed sets stay
//! byte-comparable under any stable sort by index.

mod client;
mod engine;
mod protocol;
mod transport;

pub use client::Client;
pub use engine::{Engine, EngineConfig, StatsSnapshot};
pub use protocol::{MAX_REQUEST_BYTES, MAX_SWEEP_SEEDS};
pub use transport::{Server, ServerBuilder};

#[cfg(test)]
mod tests {
    use super::engine::{AdmissionQueue, SubmitError};
    use super::protocol::{num, text, Provenance, Surface};
    use super::transport::serve_conn;
    use super::*;
    use crate::cache::RunCache;
    use crate::experiment::Table;
    use crate::json::parse_flat;
    use crate::scenario::{AxisKind, Registry, RunContext, Scenario, ScenarioSpec};
    use std::io::{self, BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    // -- request fields ---------------------------------------------------

    #[test]
    fn scanner_extracts_fields_without_confusing_values_for_keys() {
        let line = r#"{"id": 7, "op": "query", "scenario": "op", "x": -2.5e1, "note": "x"}"#;
        let req = parse_flat(line).unwrap();
        assert_eq!(num::<u64>(&req, "id"), Ok(Some(7)));
        assert_eq!(text(&req, "op"), Ok(Some("query")));
        // The value "op" must not shadow the key "op"; the value "x"
        // must not shadow the key "x".
        assert_eq!(text(&req, "scenario"), Ok(Some("op")));
        assert_eq!(num::<f64>(&req, "x"), Ok(Some(-25.0)));
        assert_eq!(text(&req, "missing"), Ok(None));
    }

    #[test]
    fn scanner_rejects_malformed_fields() {
        let req = |line| parse_flat(line).unwrap();
        assert_eq!(
            num::<u64>(&req(r#"{"id": "nope"}"#), "id"),
            Err("bad_request")
        );
        assert_eq!(text(&req(r#"{"op": 3}"#), "op"), Err("bad_request"));
        // Escapes, nested values and unterminated strings refuse the
        // whole line, which the engine answers `bad_request` with id 0.
        assert!(parse_flat(r#"{"op": "a\"b"}"#).is_err());
        assert!(parse_flat(r#"{"op": {"nested": 1}}"#).is_err());
        assert!(parse_flat(r#"{"op": "unterminated"#).is_err());
    }

    // -- admission queue --------------------------------------------------

    #[test]
    fn queue_pops_in_submission_order() {
        let q = AdmissionQueue::new(8);
        for job in ["first", "second", "third"] {
            q.submit(job).unwrap();
        }
        assert_eq!(q.pop(), Some("first"));
        q.submit("fourth").unwrap();
        q.close();
        assert_eq!(q.pop(), Some("second"));
        assert_eq!(q.pop(), Some("third"));
        assert_eq!(q.pop(), Some("fourth"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // stays closed
    }

    #[test]
    fn queue_rejects_at_capacity_and_after_close() {
        let q = AdmissionQueue::new(2);
        q.submit(1).unwrap();
        q.submit(2).unwrap();
        assert!(matches!(q.submit(3), Err(SubmitError::Full(3))));
        assert_eq!(q.depth(), 2);
        q.close();
        assert!(matches!(q.submit(4), Err(SubmitError::Closed(4))));
        // Close drains what was already admitted.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    // -- surfaces ---------------------------------------------------------

    fn table_1d() -> Table {
        let mut t = Table::new("line", &["x", "y", "z"]);
        t.push_row(&[0.0, 0.0, 10.0]);
        t.push_row(&[2.0, 4.0, 30.0]);
        t.push_row(&[4.0, 16.0, 50.0]);
        t
    }

    fn table_2d() -> Table {
        let mut t = Table::new("grid", &["x", "y", "v"]);
        for &x in &[0.0, 1.0] {
            for &y in &[0.0, 2.0] {
                t.push_row(&[x, y, 10.0 * x + y]);
            }
        }
        t
    }

    #[test]
    fn surface_1d_interpolates_linearly_and_exactly_at_grid_points() {
        let s = Surface::from_table(&table_1d(), false).unwrap();
        assert_eq!(s.columns(), &["y".to_string(), "z".to_string()]);
        let b = s.bracket(1.0, None).unwrap();
        assert_eq!(s.value_at(&b, 0), 2.0);
        assert_eq!(s.value_at(&b, 1), 20.0);
        assert_eq!(
            s.provenance(&b),
            Provenance {
                x0: 0.0,
                x1: 2.0,
                y0: None,
                y1: None
            }
        );
        // Exact at grid points, including both endpoints.
        for (x, want) in [(0.0, 0.0), (2.0, 4.0), (4.0, 16.0)] {
            let b = s.bracket(x, None).unwrap();
            assert_eq!(s.value_at(&b, 0), want, "x={x}");
        }
    }

    #[test]
    fn surface_2d_interpolates_bilinearly() {
        let s = Surface::from_table(&table_2d(), true).unwrap();
        assert!(s.is_2d());
        let b = s.bracket(0.5, Some(1.0)).unwrap();
        assert_eq!(s.value_at(&b, 0), 6.0); // 10*0.5 + 1.0
        let p = s.provenance(&b);
        assert_eq!((p.x0, p.x1, p.y0, p.y1), (0.0, 1.0, Some(0.0), Some(2.0)));
        let corner = s.bracket(1.0, Some(2.0)).unwrap();
        assert_eq!(s.value_at(&corner, 0), 12.0);
    }

    #[test]
    fn surface_refuses_out_of_range_and_dimension_mismatch() {
        let s1 = Surface::from_table(&table_1d(), false).unwrap();
        assert_eq!(s1.bracket(-0.1, None), Err("out_of_range"));
        assert_eq!(s1.bracket(4.1, None), Err("out_of_range"));
        assert_eq!(s1.bracket(f64::NAN, None), Err("out_of_range"));
        assert_eq!(s1.bracket(1.0, Some(1.0)), Err("out_of_range")); // y on a 1-D surface
        let s2 = Surface::from_table(&table_2d(), true).unwrap();
        assert_eq!(s2.bracket(0.5, None), Err("out_of_range")); // missing y on 2-D
        assert_eq!(s2.bracket(0.5, Some(3.0)), Err("out_of_range"));
    }

    #[test]
    fn surface_rejects_malformed_grids() {
        // Non-monotonic x axis.
        let mut t = Table::new("bad", &["x", "y"]);
        t.push_row(&[1.0, 0.0]);
        t.push_row(&[0.0, 1.0]);
        assert!(Surface::from_table(&t, false).is_none());
        // Duplicate x values.
        let mut t = Table::new("bad", &["x", "y"]);
        t.push_row(&[1.0, 0.0]);
        t.push_row(&[1.0, 1.0]);
        assert!(Surface::from_table(&t, false).is_none());
        // Incomplete 2-D grid: 3 rows can't tile a 2x2 grid.
        let mut t = Table::new("bad", &["x", "y", "v"]);
        t.push_row(&[0.0, 0.0, 1.0]);
        t.push_row(&[0.0, 1.0, 2.0]);
        t.push_row(&[1.0, 0.0, 3.0]);
        assert!(Surface::from_table(&t, true).is_none());
        // Duplicate 2-D cell.
        let mut t = Table::new("bad", &["x", "y", "v"]);
        t.push_row(&[0.0, 0.0, 1.0]);
        t.push_row(&[0.0, 1.0, 2.0]);
        t.push_row(&[1.0, 0.0, 3.0]);
        t.push_row(&[0.0, 0.0, 4.0]);
        assert!(Surface::from_table(&t, true).is_none());
        // Too few columns for the dimensionality.
        assert!(Surface::from_table(&Table::new("empty", &["x"]), false).is_none());
        assert!(
            Surface::from_table(&table_1d(), true).is_none() || table_1d().columns().len() >= 3
        );
    }

    // -- engine (inline mode) ---------------------------------------------

    /// A cheap scenario that counts its executions: `f(x) = 3x` over a
    /// small linspace axis.
    struct Counting {
        spec: ScenarioSpec,
        executions: Arc<AtomicUsize>,
    }

    impl Scenario for Counting {
        fn spec(&self) -> &ScenarioSpec {
            &self.spec
        }
        fn run(&self, ctx: &RunContext) -> Vec<Table> {
            self.executions.fetch_add(1, Ordering::SeqCst);
            let mut t = Table::new("triple", &["x", "y"]);
            for x in ctx.spec.values("x") {
                t.push_row(&[x, 3.0 * x]);
            }
            vec![t]
        }
        fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario> {
            Box::new(Counting {
                spec,
                executions: Arc::clone(&self.executions),
            })
        }
    }

    fn inline_engine() -> (Engine, Arc<AtomicUsize>) {
        let executions = Arc::new(AtomicUsize::new(0));
        let spec = ScenarioSpec::paper_link("t90-triple", "serve unit-test scenario").with_axis(
            "x",
            AxisKind::Linspace {
                start: 0.0,
                stop: 4.0,
                points: 5,
            },
        );
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::clone(&executions),
        }));
        let config = EngineConfig {
            executors: 0, // inline: the caller runs its own job
            job_threads: 1,
            queue_capacity: 4,
            memory_capacity: 4,
        };
        (Engine::new(Arc::new(registry), None, config), executions)
    }

    #[test]
    fn engine_run_resolves_once_and_serves_repeats_from_memory() {
        let (engine, executions) = inline_engine();
        let mut out = String::new();
        let req = r#"{"id":1,"op":"run","scenario":"t90-triple"}"#;
        assert!(engine.handle_line(req, &mut out));
        let first = out.clone();
        assert!(first.ends_with('\n'));
        assert!(first.contains("\"ok\":true"));
        assert!(first.contains("\"op\":\"run\""));
        assert!(first.contains("\"tables\":[{\"title\":\"triple\""));
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        out.clear();
        assert!(engine.handle_line(req, &mut out));
        assert_eq!(out, first, "repeat responses must be byte-identical");
        assert_eq!(
            executions.load(Ordering::SeqCst),
            1,
            "repeat must not re-run"
        );
        // A `priority` member is ignored like any member the protocol
        // does not define: the same run, from memory.
        out.clear();
        let prioritized = r#"{"id":1,"op":"run","scenario":"t90-triple","priority":"high"}"#;
        assert!(engine.handle_line(prioritized, &mut out));
        assert_eq!(out, first);
        let stats = engine.stats();
        assert_eq!(stats.sim_runs, 1);
        assert_eq!(stats.memory_hits, 2);
    }

    #[test]
    fn engine_reseed_and_minimize_produce_distinct_runs() {
        let (engine, executions) = inline_engine();
        let mut out = String::new();
        engine.handle_line(r#"{"id":1,"op":"run","scenario":"t90-triple"}"#, &mut out);
        engine.handle_line(
            r#"{"id":2,"op":"run","scenario":"t90-triple","seed":7}"#,
            &mut out,
        );
        engine.handle_line(
            r#"{"id":3,"op":"run","scenario":"t90-triple","points":2}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 3);
        // An explicit seed equal to the default spec's seed is the same
        // spec — second-chance lookup indexes it without re-running.
        out.clear();
        engine.handle_line(
            r#"{"id":4,"op":"run","scenario":"t90-triple","seed":0}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 3);
        assert!(out.contains("\"ok\":true"));
    }

    #[test]
    fn engine_query_interpolates_with_provenance() {
        let (engine, _) = inline_engine();
        let mut out = String::new();
        let req = r#"{"id":5,"op":"query","scenario":"t90-triple","x":1.5}"#;
        assert!(engine.handle_line(req, &mut out));
        // Axis is linspace 0..4 over 5 points: grid step 1, so x=1.5
        // brackets [1, 2] and y = 3x interpolates exactly.
        assert!(out.contains("\"op\":\"query\""), "{out}");
        assert!(out.contains("\"columns\":[\"y\"]"), "{out}");
        assert!(out.contains("\"values\":[4.5]"), "{out}");
        assert!(out.contains("\"provenance\":{\"spec_hash\":\""), "{out}");
        assert!(out.contains("\"x0\":1,\"x1\":2}"), "{out}");
        // Query never registered a second run or table.
        assert_eq!(engine.stats().sim_runs, 1);
        out.clear();
        assert!(engine.handle_line(
            r#"{"id":6,"op":"query","scenario":"t90-triple","x":99}"#,
            &mut out
        ));
        assert!(out.contains("\"error\":\"out_of_range\""), "{out}");
        out.clear();
        engine.handle_line(
            r#"{"id":7,"op":"query","scenario":"t90-triple","x":1,"table":9}"#,
            &mut out,
        );
        assert!(out.contains("\"error\":\"no_surface\""), "{out}");
    }

    #[test]
    fn engine_rejects_unknown_scenarios_and_bad_requests() {
        let (engine, _) = inline_engine();
        let mut out = String::new();
        engine.handle_line(r#"{"id":1,"op":"run","scenario":"no-such"}"#, &mut out);
        assert_eq!(
            out,
            "{\"id\":1,\"ok\":false,\"error\":\"unknown_scenario\"}\n"
        );
        out.clear();
        engine.handle_line(r#"{"id":2,"op":"warp"}"#, &mut out);
        assert_eq!(out, "{\"id\":2,\"ok\":false,\"error\":\"bad_request\"}\n");
        out.clear();
        engine.handle_line(r#"{"id":3}"#, &mut out);
        assert!(out.contains("bad_request"));
        out.clear();
        engine.handle_line(
            r#"{"id":4,"op":"run","scenario":"t90-triple","seed":"x"}"#,
            &mut out,
        );
        assert!(out.contains("bad_request"));
        out.clear();
        engine.handle_line(r#"{"id":5,"op":"query","scenario":"t90-triple"}"#, &mut out);
        assert!(out.contains("bad_request"), "query without x: {out}");
        out.clear();
        engine.handle_line(r#"{"id":6,"op":"prune"}"#, &mut out);
        assert_eq!(out, "{\"id\":6,\"ok\":false,\"error\":\"no_cache\"}\n");
    }

    #[test]
    fn engine_status_and_shutdown_round_trip() {
        let (engine, _) = inline_engine();
        let mut out = String::new();
        engine.handle_line(r#"{"id":1,"op":"run","scenario":"t90-triple"}"#, &mut out);
        out.clear();
        assert!(engine.handle_line(r#"{"id":2,"op":"status"}"#, &mut out));
        let dom = crate::json::parse_json(out.trim()).unwrap();
        assert_eq!(dom.get("ok"), Some(&crate::json::Json::Bool(true)));
        assert_eq!(dom.get("scenarios").and_then(|v| v.as_num()), Some(1.0));
        assert_eq!(dom.get("sim_runs").and_then(|v| v.as_num()), Some(1.0));
        assert!(dom
            .get("cache_hit_ratio")
            .and_then(|v| v.as_num())
            .is_some());
        assert!(dom.get("job_p50_us").and_then(|v| v.as_num()).is_some());
        out.clear();
        assert!(!engine.handle_line(r#"{"id":3,"op":"shutdown"}"#, &mut out));
        assert_eq!(out, "{\"id\":3,\"ok\":true,\"op\":\"shutdown\"}\n");
    }

    #[test]
    fn engine_answers_lines_that_are_not_one_flat_object_with_bad_request() {
        // Each of these once ran a scenario, took one of two duplicate
        // `op`s, or stopped the daemon from a nested or non-JSON `op`.
        let (engine, executions) = inline_engine();
        for line in [
            r#"{"id":1,"note":{"op":"shutdown"}}"#,
            r#"not json "op":"shutdown""#,
            r#"{"id":7,"op":"run","meta":{"scenario":"t90-triple"}}"#,
            r#"{"id":4,"op":"run","op":"shutdown"}"#,
            r#"{"id":2,"op":"status""#,
            r#"{"id":3,"op":"status"} trailing"#,
            r#"[{"id":9,"op":"status"}]"#,
            r#"{"id":5,"op":"run","scenario":"t90-triple","seed":+5}"#,
        ] {
            let mut out = String::new();
            assert!(
                engine.handle_line(line, &mut out),
                "{line} stopped the engine"
            );
            assert_eq!(
                out, "{\"id\":0,\"ok\":false,\"error\":\"bad_request\"}\n",
                "{line}"
            );
        }
        assert_eq!(executions.load(Ordering::SeqCst), 0);
        assert_eq!(engine.stats().runs, 0);
    }

    #[test]
    fn evicted_runs_leave_the_request_index_with_them() {
        // Every distinct seed is a new run under a new request tuple. The
        // store keeps `memory_capacity` (4) runs, and the index must not
        // keep a tuple for each run it ever held.
        let (engine, executions) = inline_engine();
        let mut out = String::new();
        for seed in 0..1000 {
            out.clear();
            let req =
                format!(r#"{{"id":{seed},"op":"run","scenario":"t90-triple","seed":{seed}}}"#);
            engine.handle_line(&req, &mut out);
            assert!(out.contains("\"ok\":true"), "{out}");
        }
        assert_eq!(executions.load(Ordering::SeqCst), 1000);
        let runs = engine.runs.lock().unwrap();
        assert_eq!(runs.flights.len(), runs.capacity);
        assert!(
            runs.params.len() <= runs.capacity,
            "{} index entries for {} stored runs",
            runs.params.len(),
            runs.flights.len()
        );
    }

    #[test]
    fn stats_snapshot_hit_ratio() {
        let s = StatsSnapshot {
            memory_hits: 6,
            disk_hits: 2,
            sim_runs: 2,
            ..Default::default()
        };
        assert!((s.cache_hit_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().cache_hit_ratio(), 0.0);
    }

    // -- sockets ----------------------------------------------------------

    #[test]
    fn server_round_trips_over_tcp_and_shuts_down_cleanly() {
        let executions = Arc::new(AtomicUsize::new(0));
        let spec = ScenarioSpec::paper_link("t91-srv", "serve socket test")
            .with_axis("x", AxisKind::Values(vec![0.0, 1.0, 2.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::clone(&executions),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 1,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 4,
            })
            .start()
            .unwrap();
        let addr = server.tcp_addr().unwrap();
        let mut client = Client::connect_tcp(addr).unwrap();
        let run = client
            .roundtrip(r#"{"id":1,"op":"run","scenario":"t91-srv"}"#)
            .unwrap();
        assert!(run.contains("\"ok\":true"), "{run}");
        let query = client
            .roundtrip(r#"{"id":2,"op":"query","scenario":"t91-srv","x":0.5}"#)
            .unwrap();
        assert!(query.contains("\"values\":[1.5]"), "{query}");
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        // A second client sees the same memoized state.
        let mut second = Client::connect_tcp(addr).unwrap();
        let again = second
            .roundtrip(r#"{"id":3,"op":"run","scenario":"t91-srv"}"#)
            .unwrap();
        assert!(again.contains("\"ok\":true"));
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        let bye = client.roundtrip(r#"{"id":4,"op":"shutdown"}"#).unwrap();
        assert!(bye.contains("\"op\":\"shutdown\""));
        server.join(); // must not hang: second client's read EOFs
    }

    /// A fresh directory for one socket-path test.
    #[cfg(unix)]
    fn socket_dir(name: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir =
            std::env::temp_dir().join(format!("mmtag-serve-{name}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A one-scenario registry for the socket-path tests.
    #[cfg(unix)]
    fn one_scenario_registry() -> Registry {
        let spec = ScenarioSpec::paper_link("t96-path", "socket path test")
            .with_axis("x", AxisKind::Values(vec![0.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::new(AtomicUsize::new(0)),
        }));
        registry
    }

    #[cfg(unix)]
    #[test]
    fn unix_listener_refuses_a_path_that_holds_a_regular_file() {
        let dir = socket_dir("not-a-socket");
        let path = dir.join("notes.txt");
        std::fs::write(&path, "keep me\n").unwrap();
        let err = Server::builder(one_scenario_registry())
            .unix(&path)
            .tcp("127.0.0.1:0")
            .start()
            .err()
            .expect("a regular file at the socket path must refuse the start");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists, "{err}");
        assert!(err.to_string().contains("notes.txt"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "keep me\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn unix_listener_replaces_a_stale_socket() {
        let dir = socket_dir("stale-socket");
        let path = dir.join("mmtag.sock");
        drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
        assert!(path.exists(), "a dropped listener leaves its socket file");
        let server = Server::builder(one_scenario_registry())
            .unix(&path)
            .start()
            .unwrap();
        let mut client = Client::connect_unix(&path).unwrap();
        let bye = client.roundtrip(r#"{"id":1,"op":"shutdown"}"#).unwrap();
        assert!(bye.contains("\"ok\":true"), "{bye}");
        server.join();
        assert!(!path.exists(), "socket file must be removed on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_connection_handlers_are_reaped_at_the_next_accept() {
        let spec = ScenarioSpec::paper_link("t94-reap", "handler reap test")
            .with_axis("x", AxisKind::Values(vec![0.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::new(AtomicUsize::new(0)),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 1,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 4,
            })
            .start()
            .unwrap();
        let addr = server.tcp_addr().unwrap();
        let handlers = &server.shared.handlers;
        // Polls (bounded, never a fixed sleep) until connection `id`'s
        // handler is registered and `done` holds for it.
        let wait_for = |id: u64, done: bool| {
            let name = format!("mmtag-serve-conn-{id}");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let ready = handlers.lock().unwrap().iter().any(|h| {
                    h.thread().name() == Some(name.as_str()) && (!done || h.is_finished())
                });
                if ready {
                    return;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "handler {id} not {}",
                    if done { "finished" } else { "registered" }
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        for id in 0..6 {
            let mut client = Client::connect_tcp(addr).unwrap();
            let status = client.roundtrip(r#"{"id":1,"op":"status"}"#).unwrap();
            assert!(status.contains("\"ok\":true"), "{status}");
            wait_for(id, false);
            // This accept joined every earlier, finished handler.
            assert_eq!(handlers.lock().unwrap().len(), 1, "after accept {id}");
            drop(client);
            wait_for(id, true);
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn corrupt_disk_entry_is_counted_as_a_simulation() {
        // A truncated or corrupt entry fails to load, so the runner
        // simulates: the daemon must count a sim run, not a disk hit.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "mmtag-serve-corrupt-{}-{nanos}",
            std::process::id()
        ));
        let cache = RunCache::at(&dir);
        let spec = ScenarioSpec::paper_link("t92-corrupt", "corrupt cache entry test")
            .with_axis("x", AxisKind::Values(vec![0.0, 1.0]));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.entry_path(&spec), "not a run entry\n").unwrap();
        let executions = Arc::new(AtomicUsize::new(0));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec: spec.clone(),
            executions: Arc::clone(&executions),
        }));
        let config = EngineConfig {
            executors: 0,
            job_threads: 1,
            queue_capacity: 4,
            memory_capacity: 4,
        };
        let engine = Engine::new(Arc::new(registry), Some(cache.clone()), config);
        let mut out = String::new();
        assert!(engine.handle_line(r#"{"id":1,"op":"run","scenario":"t92-corrupt"}"#, &mut out));
        assert!(out.contains("\"ok\":true"), "{out}");
        assert_eq!(
            executions.load(Ordering::SeqCst),
            1,
            "corrupt entry must be simulated"
        );
        let stats = engine.stats();
        assert_eq!((stats.disk_hits, stats.sim_runs), (0, 1));
        // The run rewrote the very entry the test corrupted.
        assert!(cache.load(&spec).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_long_request_line_is_refused_and_the_connection_closed() {
        // 1 MiB without a newline: the daemon must answer line_too_long
        // after at most MAX_REQUEST_BYTES + 1 bytes instead of buffering
        // the line until the peer stops. The read timeout turns a daemon
        // that keeps reading into a failure instead of a hang.
        let spec = ScenarioSpec::paper_link("t93-long", "long line test")
            .with_axis("x", AxisKind::Values(vec![0.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::new(AtomicUsize::new(0)),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 1,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 4,
            })
            .start()
            .unwrap();
        let addr = server.tcp_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            // The daemon hangs up part-way, so this write fails; ignore it.
            let _ = writer.write_all(&vec![b'a'; 1 << 20]);
        });
        let mut response = String::new();
        BufReader::new(&stream).read_line(&mut response).unwrap();
        assert_eq!(
            response,
            "{\"id\":0,\"ok\":false,\"error\":\"line_too_long\"}\n"
        );
        flood.join().unwrap();
        // The daemon still serves other connections.
        let mut client = Client::connect_tcp(addr).unwrap();
        let status = client.roundtrip(r#"{"id":2,"op":"status"}"#).unwrap();
        assert!(status.contains("\"ok\":true"), "{status}");
        let bye = client.roundtrip(r#"{"id":3,"op":"shutdown"}"#).unwrap();
        assert!(bye.contains("\"op\":\"shutdown\""));
        server.join();
    }

    #[test]
    fn nested_shutdown_op_does_not_stop_the_daemon() {
        let spec = ScenarioSpec::paper_link("t95-nested", "nested shutdown test")
            .with_axis("x", AxisKind::Values(vec![0.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::new(AtomicUsize::new(0)),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 1,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 4,
            })
            .start()
            .unwrap();
        let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        let reply = client
            .roundtrip(r#"{"id":1,"note":{"op":"shutdown"}}"#)
            .unwrap();
        assert_eq!(reply, "{\"id\":0,\"ok\":false,\"error\":\"bad_request\"}");
        // The same connection is still served.
        let status = client.roundtrip(r#"{"id":2,"op":"status"}"#).unwrap();
        assert!(status.contains("\"ok\":true"), "{status}");
        let bye = client.roundtrip(r#"{"id":3,"op":"shutdown"}"#).unwrap();
        assert!(bye.contains("\"op\":\"shutdown\""));
        server.join();
    }

    #[test]
    fn non_utf8_request_line_is_answered_and_the_connection_kept() {
        let spec = ScenarioSpec::paper_link("t96-utf8", "non-UTF-8 line test")
            .with_axis("x", AxisKind::Values(vec![0.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::new(AtomicUsize::new(0)),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 1,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 4,
            })
            .start()
            .unwrap();
        let stream = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
        // A daemon that hangs up fails the reads below at once; one that
        // stops answering fails them at the timeout instead of hanging.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(&stream);
        let mut answer = |line: &[u8]| {
            writer.write_all(line).unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response
        };
        assert_eq!(
            answer(b"\xff\xfe\n"),
            "{\"id\":0,\"ok\":false,\"error\":\"bad_request\"}\n"
        );
        let status = answer(b"{\"id\":2,\"op\":\"status\"}\n");
        assert!(
            status.starts_with("{\"id\":2,\"ok\":true,\"op\":\"status\""),
            "{status}"
        );
        let bye = answer(b"{\"id\":3,\"op\":\"shutdown\"}\n");
        assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
        server.join();
    }

    // -- the connection loop over an in-memory stream ----------------------

    /// An in-memory connection: each read hands out at most `chunk`
    /// bytes of `input`; writes append to `written` until `writes_left`
    /// runs out, and fail from then on.
    struct FakeConn<'a> {
        input: &'a [u8],
        chunk: usize,
        written: &'a mut Vec<u8>,
        writes_left: usize,
    }

    impl Read for FakeConn<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.input.len());
            buf[..n].copy_from_slice(&self.input[..n]);
            self.input = &self.input[n..];
            Ok(n)
        }
    }

    impl Write for FakeConn<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.writes_left == 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.writes_left -= 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serves `input` as one connection, read `chunk` bytes at a time
    /// and with every write after the first `writes` failing; returns
    /// the bytes written and whether the peer asked for shutdown.
    fn serve_fake(engine: &Engine, input: &str, chunk: usize, writes: usize) -> (String, bool) {
        let mut written = Vec::new();
        let conn = FakeConn {
            input: input.as_bytes(),
            chunk,
            written: &mut written,
            writes_left: writes,
        };
        let shutdown = serve_conn(engine, &AtomicBool::new(false), conn);
        (String::from_utf8(written).unwrap(), shutdown)
    }

    #[test]
    fn conn_loop_answers_a_request_read_one_byte_at_a_time_like_a_whole_line() {
        let session = concat!(
            r#"{"id":1,"op":"run","scenario":"t90-triple"}"#,
            "\n",
            r#"{"id":2,"op":"sweep","scenario":"t90-triple","seeds":3,"seed":5}"#,
            "\r\n",
            r#"{"id":3,"op":"query","scenario":"t90-triple","x":1.5}"#,
            "\n",
            r#"{"id":4,"op":"shutdown"}"#,
            "\n",
        );
        let mut want = String::new();
        let engine = inline_engine().0;
        for line in session.lines() {
            engine.handle_line(line, &mut want);
        }
        let whole = serve_fake(&inline_engine().0, session, usize::MAX, usize::MAX);
        assert_eq!(whole, (want, true));
        assert_eq!(whole.0.lines().count(), 1 + 4 + 1 + 1, "{}", whole.0);
        let bytewise = serve_fake(&inline_engine().0, session, 1, usize::MAX);
        assert_eq!(bytewise, whole);
    }

    #[test]
    fn conn_loop_ends_a_connection_whose_writer_fails_mid_sweep() {
        let (engine, _) = inline_engine();
        let session = concat!(
            r#"{"id":1,"op":"sweep","scenario":"t90-triple","seeds":3}"#,
            "\n",
            r#"{"id":2,"op":"run","scenario":"t90-triple","seed":9}"#,
            "\n",
        );
        // The first point line is written; the second write fails.
        let (written, shutdown) = serve_fake(&engine, session, usize::MAX, 1);
        assert!(!shutdown);
        assert_eq!(written.lines().count(), 1, "{written}");
        assert!(
            written.contains("\"op\":\"sweep_point\",\"point\":0,"),
            "{written}"
        );
        assert_eq!(
            engine.stats().runs,
            0,
            "the connection ended before request 2"
        );
        // The engine answers the next connection.
        let next = r#"{"id":3,"op":"run","scenario":"t90-triple","seed":9}"#.to_owned() + "\n";
        let (answer, _) = serve_fake(&engine, &next, usize::MAX, usize::MAX);
        assert!(
            answer.starts_with(r#"{"id":3,"ok":true,"op":"run""#),
            "{answer}"
        );
    }

    #[test]
    fn conn_loop_ends_at_eof_inside_a_line_without_answering_it() {
        let (engine, executions) = inline_engine();
        let session = concat!(
            r#"{"id":1,"op":"status"}"#,
            "\n",
            r#"{"id":2,"op":"run","scenario":"t90-triple"}"#,
        );
        let (written, shutdown) = serve_fake(&engine, session, usize::MAX, usize::MAX);
        assert!(!shutdown);
        assert_eq!(written.lines().count(), 1, "{written}");
        assert!(
            written.starts_with(r#"{"id":1,"ok":true,"op":"status""#),
            "{written}"
        );
        assert_eq!(
            engine.stats().requests,
            1,
            "the cut line reached the engine"
        );
        assert_eq!(executions.load(Ordering::SeqCst), 0);
    }

    // -- admission queue under contention (fairness) -----------------------

    #[test]
    fn queue_is_fifo_per_submitter_among_equal_priorities_under_contention() {
        // 4 threads concurrently submit their own ordered sequences.
        // Global order is racy, but each submitter's items must pop in
        // that submitter's order: the FIFO may never reorder two jobs
        // one thread submitted back to back.
        const THREADS: usize = 4;
        const PER: usize = 64;
        let q = AdmissionQueue::new(THREADS * PER);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (q, barrier) = (&q, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER {
                        q.submit((t, i)).unwrap();
                    }
                });
            }
        });
        q.close();
        let mut next = [0usize; THREADS];
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            assert_eq!(
                i, next[t],
                "submitter {t}'s items popped out of submission order"
            );
            next[t] += 1;
            popped += 1;
        }
        assert_eq!(popped, THREADS * PER);
    }

    #[test]
    fn full_queue_rejects_exactly_the_overflow_under_contention() {
        // Capacity C, T*PER concurrent submits, no poppers: exactly
        // C submits land and exactly T*PER - C come back as Full — no
        // double-counting, no lost jobs, depth pinned at capacity.
        const CAP: usize = 8;
        const THREADS: usize = 4;
        const PER: usize = 8;
        let q = AdmissionQueue::new(CAP);
        let rejected = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (q, rejected, barrier) = (&q, &rejected, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER {
                        match q.submit((t, i)) {
                            Ok(()) => {}
                            Err(SubmitError::Full((rt, ri))) => {
                                // The rejected job rides back intact.
                                assert_eq!((rt, ri), (t, i));
                                rejected.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(SubmitError::Closed(_)) => unreachable!("queue never closed"),
                        }
                    }
                });
            }
        });
        assert_eq!(rejected.load(Ordering::SeqCst), THREADS * PER - CAP);
        assert_eq!(q.depth(), CAP);
        // The admitted jobs all drain.
        q.close();
        let mut drained = 0;
        while q.pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, CAP);
    }

    // -- sweep (inline engine) ---------------------------------------------

    #[test]
    fn sweep_streams_point_lines_in_order_plus_a_deterministic_summary() {
        let (engine, executions) = inline_engine();
        let mut out = String::new();
        let req = r#"{"id":9,"op":"sweep","scenario":"t90-triple","seeds":4,"seed":10}"#;
        assert!(engine.handle_line(req, &mut out));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "4 points + summary: {out}");
        for (p, line) in lines[..4].iter().enumerate() {
            assert!(line.contains("\"op\":\"sweep_point\""), "{line}");
            assert!(line.contains(&format!("\"point\":{p},")), "{line}");
            assert!(line.contains(&format!("\"seed\":{}", 10 + p)), "{line}");
            assert!(line.contains("\"tables\":[{\"title\":\"triple\""), "{line}");
        }
        assert_eq!(
            lines[4],
            "{\"id\":9,\"ok\":true,\"op\":\"sweep\",\"scenario\":\"t90-triple\",\"points\":4,\"failed\":0}"
        );
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        let stats = engine.stats();
        assert_eq!((stats.sweeps, stats.sweep_points), (1, 4));
        assert_eq!(stats.sim_runs, 4);
        // A cache-hot replay is byte-identical and runs nothing.
        let mut again = String::new();
        assert!(engine.handle_line(req, &mut again));
        assert_eq!(again, out);
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        assert_eq!(engine.stats().memory_hits, 4);
    }

    #[test]
    fn sweep_shares_points_with_run_requests_and_overlapping_sweeps() {
        let (engine, executions) = inline_engine();
        let mut out = String::new();
        // A point run seeds the store...
        engine.handle_line(
            r#"{"id":1,"op":"run","scenario":"t90-triple","seed":12}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        // ...and the sweep covering seeds 10..14 only simulates the
        // other three points.
        out.clear();
        engine.handle_line(
            r#"{"id":2,"op":"sweep","scenario":"t90-triple","seeds":4,"seed":10}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        // An overlapping sweep (seeds 12..16) re-simulates only 14, 15.
        out.clear();
        engine.handle_line(
            r#"{"id":3,"op":"sweep","scenario":"t90-triple","seeds":4,"seed":12}"#,
            &mut out,
        );
        assert_eq!(executions.load(Ordering::SeqCst), 6);
        assert!(out.contains("\"points\":4,\"failed\":0"), "{out}");
    }

    #[test]
    fn sweep_rejects_bad_grids_with_one_error_line() {
        let (engine, _) = inline_engine();
        for req in [
            r#"{"id":1,"op":"sweep","scenario":"t90-triple"}"#, // no seeds
            r#"{"id":1,"op":"sweep","scenario":"t90-triple","seeds":0}"#,
            r#"{"id":1,"op":"sweep","scenario":"t90-triple","seeds":5000}"#, // > cap
            r#"{"id":1,"op":"sweep","seeds":4}"#,                            // no scenario
        ] {
            let mut out = String::new();
            assert!(engine.handle_line(req, &mut out));
            assert_eq!(
                out, "{\"id\":1,\"ok\":false,\"error\":\"bad_request\"}\n",
                "{req}"
            );
        }
        let mut out = String::new();
        engine.handle_line(
            r#"{"id":2,"op":"sweep","scenario":"no-such","seeds":4}"#,
            &mut out,
        );
        assert_eq!(
            out,
            "{\"id\":2,\"ok\":false,\"error\":\"unknown_scenario\"}\n"
        );
    }

    #[test]
    fn sweep_streaming_emit_sees_every_point_line_and_can_abort() {
        let (engine, _) = inline_engine();
        // Streaming sink: collect each flushed chunk like a transport.
        let mut chunks: Vec<String> = Vec::new();
        let mut out = String::new();
        let req = r#"{"id":4,"op":"sweep","scenario":"t90-triple","seeds":3}"#;
        engine.handle_line_streaming(req, &mut out, &mut |buf| {
            chunks.push(std::mem::take(buf));
            true
        });
        assert_eq!(chunks.len(), 3, "one flush per point line");
        assert!(chunks.iter().all(|c| c.contains("\"op\":\"sweep_point\"")));
        assert!(
            out.contains("\"op\":\"sweep\""),
            "summary stays for the caller: {out}"
        );
        // An aborting sink stops the stream; nothing more lands in out.
        let mut seen = 0;
        out.clear();
        engine.handle_line_streaming(req, &mut out, &mut |buf| {
            seen += 1;
            buf.clear();
            false
        });
        assert_eq!(seen, 1);
        assert!(out.is_empty(), "{out}");
    }

    #[test]
    fn sweep_round_trips_over_tcp_with_client_streaming() {
        let executions = Arc::new(AtomicUsize::new(0));
        let spec = ScenarioSpec::paper_link("t92-sweep", "serve sweep socket test")
            .with_axis("x", AxisKind::Values(vec![0.0, 1.0, 2.0]));
        let mut registry = Registry::new();
        registry.register(Box::new(Counting {
            spec,
            executions: Arc::clone(&executions),
        }));
        let server = Server::builder(registry)
            .tcp("127.0.0.1:0")
            .config(EngineConfig {
                executors: 2,
                job_threads: 1,
                queue_capacity: 4,
                memory_capacity: 16,
            })
            .start()
            .unwrap();
        let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        let req = r#"{"id":1,"op":"sweep","scenario":"t92-sweep","seeds":6,"seed":3}"#;
        let mut stream = String::new();
        client.roundtrip_into(req, &mut stream).unwrap();
        let points = stream
            .lines()
            .filter(|l| l.contains("\"op\":\"sweep_point\""));
        assert_eq!(points.count(), 6, "{stream}");
        assert_eq!(stream.lines().count(), 7, "{stream}");
        assert!(stream.ends_with("\"points\":6,\"failed\":0}"), "{stream}");
        assert_eq!(executions.load(Ordering::SeqCst), 6);
        // Cache-hot replay: byte-identical stream, no new executions.
        let mut hot = String::new();
        client.roundtrip_into(req, &mut hot).unwrap();
        assert_eq!(hot, stream);
        assert_eq!(executions.load(Ordering::SeqCst), 6);
        // Interleaved point ops still work on the same connection.
        let run = client
            .roundtrip(r#"{"id":2,"op":"run","scenario":"t92-sweep","seed":4}"#)
            .unwrap();
        assert!(run.contains("\"ok\":true"), "{run}");
        assert_eq!(
            executions.load(Ordering::SeqCst),
            6,
            "seed 4 was swept already"
        );
        client.roundtrip(r#"{"id":3,"op":"shutdown"}"#).unwrap();
        server.join();
    }
}
