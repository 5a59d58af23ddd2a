//! Observability guarantees at the registry level: recording is a pure
//! side channel (enabling it never perturbs results), counters and
//! histograms are thread-count invariant, both serializers emit valid
//! JSON, and a run nobody traces leaves nothing behind.
//!
//! The obs level and log belong to the thread that records, and each
//! test runs on its own thread, so these tests run concurrently with
//! each other and with every other test in the process.

use mmtag_bench::scenarios::registry;
use mmtag_rf::obs;
use mmtag_sim::json::parse_json;
use mmtag_sim::scenario::Runner;

#[test]
fn tracing_never_changes_tables_and_counters_are_thread_invariant() {
    let reg = registry();
    let s = reg.get("e05-ber").expect("e05-ber is registered");

    // Baseline: obs fully off, serial — the seed's behavior.
    let baseline = Runner::with_threads(1).run_minimized(s, 3, 200).render();

    let mut traced_counters = Vec::new();
    let mut traced_histograms = Vec::new();
    for threads in [1usize, 2, 8] {
        for level in [obs::Level::Off, obs::Level::Trace] {
            obs::drain();
            obs::set_level(level);
            let rec = Runner::with_threads(threads).run_minimized(s, 3, 200);
            obs::set_level(obs::Level::Off);
            assert_eq!(
                rec.render(),
                baseline,
                "threads={threads} level={level:?}: observability perturbed the tables"
            );
            if level == obs::Level::Trace {
                let m = &rec.manifest.metrics;
                assert!(!m.is_empty(), "traced run recorded no metrics");
                assert!(m.counter("phy.ber.bits") > 0, "BER kernel counted no bits");
                traced_counters.push(m.counters.clone());
                traced_histograms.push(m.histograms.clone());
            }
        }
    }
    obs::drain();

    // Integer aggregates must not depend on the worker budget.
    assert_eq!(traced_counters[0], traced_counters[1]);
    assert_eq!(traced_counters[0], traced_counters[2]);
    assert_eq!(traced_histograms[0], traced_histograms[1]);
    assert_eq!(traced_histograms[0], traced_histograms[2]);
}

#[test]
fn trace_and_metrics_serializers_emit_valid_json() {
    let reg = registry();
    let s = reg.get("e05-ber").expect("e05-ber is registered");

    obs::set_level(obs::Level::Trace);
    let rec = Runner::with_threads(4).run_minimized(s, 3, 200);
    obs::set_level(obs::Level::Off);
    let report = obs::drain();

    let chrome = report.to_chrome_json();
    parse_json(&chrome).expect("chrome trace JSON must parse");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("runner.trials"));

    parse_json(&report.metrics_json()).expect("metrics JSON must parse");
    assert!(report.counter("phy.ber.bits") > 0);

    // The manifest's metrics block rides inside the record JSON.
    let json = rec.to_json();
    parse_json(&json).expect("record JSON with metrics must parse");
    assert!(json.contains("\"metrics\""));
    assert!(json.contains("\"phy.ber.bits\""));
}

#[test]
fn per_unit_events_merge_in_unit_order() {
    let reg = registry();
    let s = reg.get("e05-ber").expect("e05-ber is registered");

    // The event log (names in sequence, timings ignored) must be the
    // same serial and parallel: deltas are captured per work unit and
    // appended in unit order at merge.
    let names = |threads: usize| -> Vec<String> {
        obs::drain();
        obs::set_level(obs::Level::Trace);
        let _ = Runner::with_threads(threads).run_minimized(s, 3, 200);
        obs::set_level(obs::Level::Off);
        obs::drain()
            .events
            .iter()
            .map(|e| match e {
                obs::Event::Count { name, .. } => format!("count:{name}"),
                obs::Event::Observe { name, .. } => format!("observe:{name}"),
                obs::Event::Span { name, .. } => format!("span:{name}"),
                obs::Event::Warn { message } => format!("warn:{message}"),
            })
            .collect()
    };
    assert_eq!(names(1), names(8), "event order depends on thread count");
}

#[test]
fn an_untraced_run_leaves_an_empty_log_on_its_thread() {
    let reg = registry();
    let s = reg.get("e05-ber").expect("e05-ber is registered");
    for threads in [1usize, 2] {
        let rec = Runner::with_threads(threads).run_minimized(s, 3, 200);
        // The manifest still carries the run's counters...
        assert!(rec.manifest.metrics.counter("phy.ber.bits") > 0);
        // ...and the thread is back where it started.
        assert_eq!(obs::level(), obs::Level::Off);
        assert!(obs::drain().is_empty(), "threads={threads}");
    }
}

#[test]
fn e16_counts_the_bits_of_both_modems() {
    // Three SNRs, OOK and BPSK at each, 200 bits a cell: every cell adds
    // its bits and one `phy.ber.chunk_errors` sample, BPSK's as OOK's.
    let reg = registry();
    let s = reg.get("e16-bpsk").expect("e16-bpsk is registered");
    for threads in [1usize, 2] {
        let m = Runner::with_threads(threads)
            .run_minimized(s, 3, 200)
            .manifest
            .metrics;
        assert_eq!(m.counter("phy.ber.bits"), 1_200, "threads={threads}");
        let samples = m
            .histograms
            .iter()
            .find(|h| h.name == "phy.ber.chunk_errors")
            .map_or(0, |h| h.count);
        assert_eq!(samples, 6, "threads={threads}");
    }
}
