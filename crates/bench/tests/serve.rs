//! Integration tests for the `mmtag serve` daemon: the determinism
//! contract (replayed request logs produce byte-identical response
//! bodies at any worker count), bounded admission, single-flight
//! deduplication, and transport liveness.

use mmtag_bench::loadgen::{closed_loop, generate, Mix, Request};
use mmtag_sim::experiment::Table;
use mmtag_sim::scenario::{AxisKind, Registry, RunContext, Scenario, ScenarioSpec};
use mmtag_sim::serve::{Client, Engine, EngineConfig, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mmtag-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Replays one deterministic request log over a single connection and
/// returns the concatenated response bodies.
fn replay(server: &Server, lines: &[String]) -> String {
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let mut transcript = String::new();
    for line in lines {
        transcript.push_str(&client.roundtrip(line).unwrap());
        transcript.push('\n');
    }
    transcript
}

/// The acceptance-criteria differential: the same seeded request log,
/// replayed against daemons at 1 and 4 worker threads (executors *and*
/// per-job threads), must produce byte-identical response bodies. Each
/// daemon gets a fresh cache directory so both start cold.
#[test]
fn replayed_request_log_is_byte_identical_across_worker_counts() {
    let mix = Mix {
        scenario: "e02-link-budget".to_string(),
        seed_pool: 4,
        trials: 50,
        points: 6,
        run_percent: 30,
        sweep_percent: 0,
        sweep_points: 4,
        x_range: (2.0, 12.0),
    };
    let lines: Vec<String> = generate(&mix, 60, 0xD1FF)
        .into_iter()
        .map(|r| r.line)
        .collect();
    let mut transcripts = Vec::new();
    for workers in [1usize, 4] {
        let cache = temp_dir(&format!("diff-{workers}"));
        let server = Server::builder(mmtag_bench::scenarios::registry())
            .tcp("127.0.0.1:0")
            .cache(mmtag_sim::cache::RunCache::at(&cache))
            .config(EngineConfig {
                executors: workers,
                job_threads: workers,
                queue_capacity: 32,
                memory_capacity: 32,
            })
            .start()
            .unwrap();
        let transcript = replay(&server, &lines);
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&cache);
        transcripts.push(transcript);
    }
    assert!(
        transcripts[0] == transcripts[1],
        "response bodies diverged between 1 and 4 worker threads"
    );
    // Sanity: the log exercised both ops and succeeded.
    assert!(transcripts[0].contains("\"op\":\"run\""));
    assert!(transcripts[0].contains("\"op\":\"query\""));
    assert!(
        !transcripts[0].contains("\"ok\":false"),
        "{}",
        transcripts[0]
    );
}

/// The sweep acceptance differential: a seeded sweep-heavy request log
/// replayed at 1 and 4 executors must yield byte-identical `sweep`
/// summary lines and identical streamed point-line *sets* once stably
/// sorted by point index (points stream in point order; each line
/// carries its `point`, so the comparison does not depend on it).
#[test]
fn sweep_responses_are_deterministic_across_executor_counts() {
    fn point_index(line: &str) -> u64 {
        let at = line.find("\"point\":").expect("point line") + 8;
        line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    }
    let mix = Mix {
        scenario: "e02-link-budget".to_string(),
        seed_pool: 4,
        trials: 50,
        points: 6,
        run_percent: 30,
        sweep_percent: 40,
        sweep_points: 5,
        x_range: (2.0, 12.0),
    };
    let requests = generate(&mix, 40, 0xA11CE);
    assert!(requests.iter().any(|r| r.sweep), "mix must contain sweeps");
    // (summary lines, per-sweep point lines sorted by index) per count.
    let mut replays: Vec<(Vec<String>, Vec<Vec<String>>)> = Vec::new();
    for workers in [1usize, 4] {
        let cache = temp_dir(&format!("sweep-diff-{workers}"));
        let server = Server::builder(mmtag_bench::scenarios::registry())
            .tcp("127.0.0.1:0")
            .cache(mmtag_sim::cache::RunCache::at(&cache))
            .config(EngineConfig {
                executors: workers,
                job_threads: workers,
                queue_capacity: 32,
                memory_capacity: 32,
            })
            .start()
            .unwrap();
        let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        let mut summaries = Vec::new();
        let mut point_sets = Vec::new();
        let mut resp = String::new();
        for r in &requests {
            if r.sweep {
                client.sweep_into(&r.line, &mut resp).unwrap();
                let mut lines: Vec<String> = resp.lines().map(str::to_string).collect();
                summaries.push(lines.pop().expect("summary line"));
                lines.sort_by_key(|l| point_index(l));
                point_sets.push(lines);
            } else {
                client.roundtrip_into(&r.line, &mut resp).unwrap();
                assert!(resp.contains("\"ok\":true"), "{resp}");
            }
        }
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&cache);
        replays.push((summaries, point_sets));
    }
    assert_eq!(
        replays[0].0, replays[1].0,
        "sweep summary lines diverged between 1 and 4 executors"
    );
    assert_eq!(
        replays[0].1, replays[1].1,
        "sorted sweep point-line sets diverged between 1 and 4 executors"
    );
    for summary in &replays[0].0 {
        assert!(summary.contains("\"ok\":true"), "{summary}");
        assert!(summary.contains("\"failed\":0"), "{summary}");
    }
}

/// loadgen's closed loop stops at the first response that is not
/// `"ok":true` and quotes it, so a mix whose queries fail cannot pass for
/// one served from cache.
#[test]
fn closed_loop_fails_on_the_first_response_not_ok() {
    let server = Server::builder(mmtag_bench::scenarios::registry())
        .tcp("127.0.0.1:0")
        .config(EngineConfig::default())
        .start()
        .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let request = |line: &str| Request {
        line: line.to_string(),
        sweep: false,
    };
    let run = request(
        r#"{"id":1,"op":"run","scenario":"e02-link-budget","seed":0,"trials":50,"points":6}"#,
    );
    let summary = closed_loop(&mut client, std::slice::from_ref(&run)).unwrap();
    assert_eq!(summary.requests, 1);
    let out_of_range = request(
        r#"{"id":2,"op":"query","scenario":"e02-link-budget","seed":0,"trials":50,"points":6,"x":1000}"#,
    );
    let err = closed_loop(&mut client, &[run, out_of_range])
        .unwrap_err()
        .to_string();
    assert!(err.contains("\"error\":\"out_of_range\""), "{err}");
    server.shutdown();
    server.join();
}

/// A scenario that sleeps so tests can hold the executor busy, and
/// counts its executions so dedup is observable.
struct Slow {
    spec: ScenarioSpec,
    hold: Duration,
    executions: Arc<AtomicUsize>,
}

impl Scenario for Slow {
    fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }
    fn run(&self, ctx: &RunContext) -> Vec<Table> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.hold);
        let mut t = Table::new("slow", &["x", "y"]);
        for x in ctx.spec.values("x") {
            t.push_row(&[x, x + 1.0]);
        }
        vec![t]
    }
    fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario> {
        Box::new(Slow {
            spec,
            hold: self.hold,
            executions: Arc::clone(&self.executions),
        })
    }
}

fn slow_registry(hold: Duration) -> (Registry, Arc<AtomicUsize>) {
    let executions = Arc::new(AtomicUsize::new(0));
    let spec = ScenarioSpec::paper_link("t95-slow", "serve integration scenario")
        .with_axis("x", AxisKind::Values(vec![0.0, 1.0, 2.0]));
    let mut registry = Registry::new();
    registry.register(Box::new(Slow {
        spec,
        hold,
        executions: Arc::clone(&executions),
    }));
    (registry, executions)
}

/// One executor, a one-slot queue: with the executor held busy and the
/// queue full, the third distinct job must be refused with
/// `queue_full` — bounded admission, not unbounded buffering.
#[test]
fn bounded_admission_rejects_with_queue_full() {
    let (registry, _) = slow_registry(Duration::from_millis(300));
    let engine = Arc::new(Engine::new(
        Arc::new(registry),
        None,
        EngineConfig {
            executors: 1,
            job_threads: 1,
            queue_capacity: 1,
            memory_capacity: 8,
        },
    ));
    // The engine's executor pool is normally spawned by Server::start;
    // run one manually for this in-process test.
    let exec_engine = Arc::clone(&engine);
    let executor = std::thread::spawn(move || exec_engine.run_executor());
    let responses: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for seed in 0..3u64 {
            let engine = Arc::clone(&engine);
            handles.push(scope.spawn(move || {
                let mut out = String::new();
                let line = format!(
                    "{{\"id\":{seed},\"op\":\"run\",\"scenario\":\"t95-slow\",\"seed\":{seed}}}"
                );
                engine.handle_line(&line, &mut out);
                out
            }));
            // Stagger so the fill order is deterministic: seed 0 runs,
            // seed 1 queues, seed 2 finds the queue full.
            std::thread::sleep(Duration::from_millis(60));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    assert!(responses[1].contains("\"ok\":true"), "{}", responses[1]);
    assert!(
        responses[2].contains("\"error\":\"queue_full\""),
        "{}",
        responses[2]
    );
    assert_eq!(engine.stats().rejected, 1);
    engine.close();
    executor.join().unwrap();
}

/// Four concurrent identical requests must cost exactly one execution:
/// the leader simulates, the other three join its flight.
#[test]
fn single_flight_deduplicates_identical_inflight_requests() {
    let (registry, executions) = slow_registry(Duration::from_millis(250));
    let engine = Arc::new(Engine::new(
        Arc::new(registry),
        None,
        EngineConfig {
            executors: 1,
            job_threads: 1,
            queue_capacity: 8,
            memory_capacity: 8,
        },
    ));
    let exec_engine = Arc::clone(&engine);
    let executor = std::thread::spawn(move || exec_engine.run_executor());
    let line = r#"{"id":1,"op":"run","scenario":"t95-slow","seed":9}"#;
    let responses: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(scope.spawn(move || {
                let mut out = String::new();
                engine.handle_line(line, &mut out);
                out
            }));
            if i == 0 {
                // Let the leader enqueue before the joiners arrive.
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(executions.load(Ordering::SeqCst), 1, "dedup failed");
    assert_eq!(engine.stats().dedup_joined, 3);
    let first = &responses[0];
    assert!(first.contains("\"ok\":true"), "{first}");
    for r in &responses {
        assert_eq!(r, first, "joiners must see the leader's exact bytes");
    }
    engine.close();
    executor.join().unwrap();
}

/// An idle connection (accepted, never sends) must not wedge the
/// daemon: jobs submitted on another connection still execute, and
/// shutdown still completes while the idle connection is parked in a
/// blocking read.
#[test]
fn idle_connections_do_not_block_jobs_or_shutdown() {
    let (registry, _) = slow_registry(Duration::from_millis(5));
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
    let _idle = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(30)); // let the acceptor register it
    let mut client = Client::connect_tcp(addr).unwrap();
    let run = client
        .roundtrip(r#"{"id":1,"op":"run","scenario":"t95-slow"}"#)
        .unwrap();
    assert!(run.contains("\"ok\":true"), "{run}");
    let bye = client.roundtrip(r#"{"id":2,"op":"shutdown"}"#).unwrap();
    assert!(bye.contains("\"op\":\"shutdown\""));
    server.join(); // must not hang on the idle connection
}

/// End-to-end over a Unix socket: run, query with provenance, status,
/// shutdown — the README quickstart session, asserted.
#[cfg(unix)]
#[test]
fn unix_socket_session_round_trips() {
    let sock = std::env::temp_dir().join(format!("mmtag-serve-test-{}.sock", std::process::id()));
    let cache = temp_dir("unix");
    let (registry, _) = slow_registry(Duration::from_millis(1));
    let server = Server::builder(registry)
        .unix(&sock)
        .cache(mmtag_sim::cache::RunCache::at(&cache))
        .config(EngineConfig::default())
        .start()
        .unwrap();
    let mut client = Client::connect_unix(&sock).unwrap();
    let run = client
        .roundtrip(r#"{"id":1,"op":"run","scenario":"t95-slow"}"#)
        .unwrap();
    assert!(run.contains("\"tables\":[{\"title\":\"slow\""), "{run}");
    let query = client
        .roundtrip(r#"{"id":2,"op":"query","scenario":"t95-slow","x":0.5}"#)
        .unwrap();
    assert!(query.contains("\"values\":[1.5]"), "{query}");
    assert!(query.contains("\"provenance\":{"), "{query}");
    let status = client.roundtrip(r#"{"id":3,"op":"status"}"#).unwrap();
    assert!(status.contains("\"cache_entries\":1"), "{status}");
    let bye = client.roundtrip(r#"{"id":4,"op":"shutdown"}"#).unwrap();
    assert!(bye.contains("\"ok\":true"));
    server.join();
    assert!(!sock.exists(), "socket file must be removed on shutdown");
    let _ = std::fs::remove_dir_all(&cache);
}
