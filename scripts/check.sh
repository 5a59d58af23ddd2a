#!/usr/bin/env sh
# Full offline gate: build, test, lint. Run from the repo root; everything
# works without network access (the workspace has zero external crates).
set -eu
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release
# The repository benchmark (BENCHMARK.json) builds perfbench/, a separate
# workspace outside this one: build it here so a removed or renamed public
# item it calls fails the gate instead of only the benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: every public item documented (the crates' warn(missing_docs)
# becomes deny here), intra-doc links resolve, and `cargo test` above has
# already run the doctested examples.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# Registry smoke: list every registered scenario, then run each E1–E31
# entry end to end through the Runner at reduced size.
cargo run -q --release -p mmtag-bench --bin scenario -- list
cargo run -q --release -p mmtag-bench --bin scenario -- smoke

# City-scale smoke: one hundred thousand tags through the sharded
# calendar-queue engine via the CLI — the tentpole path (SoA tag state,
# spatial hash, shard merge) at full density, not the minimized smoke size.
cargo run -q --release -p mmtag-cli -- city --tags 100000 --rounds 5 --seed 7

# Rate-region smoke (E29, small grid): the multi-tag sweep end to end —
# cascade channel, tag constellations, the flat (weight × chunk) grid —
# plus a RunCache round trip of its table: the second run must replay
# byte-identically from the cache.
rate_dir="$(mktemp -d)"
MMTAG_CACHE_DIR="$rate_dir" cargo run -q --release -p mmtag-bench --bin scenario -- \
    run e29-rate-region --quick --csv > "$rate_dir/first.csv"
MMTAG_CACHE_DIR="$rate_dir" cargo run -q --release -p mmtag-bench --bin scenario -- \
    run e29-rate-region --quick --csv > "$rate_dir/second.csv"
cmp "$rate_dir/first.csv" "$rate_dir/second.csv"
rm -rf "$rate_dir"

# Run-cache round trip: the same scenario twice into a fresh store. The
# second run must be served from the cache (the manifest metrics say so)
# and both CSV artifacts must be byte-identical.
cache_dir="$(mktemp -d)"
cache_a="$cache_dir/first.csv"
cache_b="$cache_dir/second.csv"
MMTAG_CACHE_DIR="$cache_dir" cargo run -q --release -p mmtag-bench --bin scenario -- \
    run e02-link-budget --quick --csv > "$cache_a"
MMTAG_CACHE_DIR="$cache_dir" cargo run -q --release -p mmtag-bench --bin scenario -- \
    run e02-link-budget --quick --csv > "$cache_b"
cmp "$cache_a" "$cache_b"
# (to a file, not a pipe: `grep -q` would close the pipe at first match
# and the writer would die on SIGPIPE/broken pipe)
MMTAG_CACHE_DIR="$cache_dir" cargo run -q --release -p mmtag-bench --bin scenario -- \
    run e02-link-budget --quick --json > "$cache_dir/hit.json"
grep -q '"runner.cache.hit": 1' "$cache_dir/hit.json"
rm -rf "$cache_dir"

# Serve smoke: start the daemon on a Unix socket with a fresh cache,
# drive it with a short deterministic loadgen mix, assert the mix was
# served mostly from cache (ratio >= 0.5 — each repeated seed must hit
# the memory store or the disk RunCache), then shut the daemon down via
# the protocol and wait for a clean exit.
serve_dir="$(mktemp -d)"
MMTAG_CACHE_DIR="$serve_dir/cache" cargo run -q --release -p mmtag-cli -- \
    serve --socket "$serve_dir/mmtag.sock" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$serve_dir/mmtag.sock" ] && break
    sleep 0.1
done
[ -S "$serve_dir/mmtag.sock" ]
cargo run -q --release -p mmtag-bench --bin loadgen -- \
    --socket "$serve_dir/mmtag.sock" --requests 40 --trials 2000 \
    > "$serve_dir/loadgen.txt"
cat "$serve_dir/loadgen.txt"
grep -q 'cache hit ratio \(0\.[5-9]\|1\.\)' "$serve_dir/loadgen.txt"

# Sweep smoke against the same daemon: one 6-point sweep request must
# stream exactly 6 "sweep_point" lines, and a second (cache-hot) request
# must produce a byte-identical response stream — the sweep op's
# determinism contract over a real socket.
cargo run -q --release -p mmtag-bench --bin loadgen -- \
    --socket "$serve_dir/mmtag.sock" --one-sweep 6 --trials 2000 \
    > "$serve_dir/sweep-cold.txt"
cargo run -q --release -p mmtag-bench --bin loadgen -- \
    --socket "$serve_dir/mmtag.sock" --one-sweep 6 --trials 2000 --shutdown \
    > "$serve_dir/sweep-hot.txt"
[ "$(grep -c '"op":"sweep_point"' "$serve_dir/sweep-cold.txt")" = 6 ]
grep -q '"op":"sweep".*"points":6,"failed":0' "$serve_dir/sweep-cold.txt"
# The hot run appends the shutdown line; compare only the sweep stream.
head -n 7 "$serve_dir/sweep-cold.txt" > "$serve_dir/stream-cold.txt"
head -n 7 "$serve_dir/sweep-hot.txt" > "$serve_dir/stream-hot.txt"
cmp "$serve_dir/stream-cold.txt" "$serve_dir/stream-hot.txt"
wait "$serve_pid"
rm -rf "$serve_dir"

# Executors-scaling smoke: only meaningful when the host can actually run
# two executors in parallel — skip (with an annotation) on 1-core hosts,
# mirroring the report schema's null-skipped serving_scaling_efficiency.
available_cores="$(nproc 2>/dev/null || echo 1)"
if [ "$available_cores" -ge 2 ]; then
    cargo run -q --release -p mmtag-bench --bin loadgen -- \
        --executors 2 --requests 24 --trials 2000
else
    echo "check.sh: skipping loadgen --executors 2 (cores=$available_cores < 2)"
fi

# Perf-record gate. The schema gate (--verify) fails on a
# missing/unparsable report, a par{t} ratio measured on fewer than t
# cores, a missing ns_per_bit kernel row (ber_kernel_lanes,
# outage_kernel_lanes, fill_normal_lanes, fft1024, city_ns_per_event),
# missing city throughput rows (*_tags_per_sec, *_events_per_sec),
# missing sweep serving rows (sweep_jobs_per_sec, points_per_sec), a
# serving_scaling_efficiency or sweep_fanout_vs_pointwise row that is
# numeric on a 1-core host or below its floor (0.55 / 2.0) on a
# multi-core one, or a drifted rate-region anchor. It runs first on the
# committed full-fidelity report; then a quick regeneration at a pinned
# 4-thread budget (exercises the pool, the per-thread speedup rows, the
# core-aware skip logic and the bit-identity asserts) is gated the same
# way, and the committed report is restored — check.sh never commits a
# quick-mode measurement.
MMTAG_THREADS=4 cargo run -q --release -p mmtag-bench --bin bench_report -- --verify
report_dir="$(mktemp -d)"
cp BENCH_report.json "$report_dir/committed.json"
# Restore on any exit, so a failing quick run cannot leave its report behind.
trap 'cp "$report_dir/committed.json" BENCH_report.json; rm -rf "$report_dir"' EXIT
MMTAG_THREADS=4 cargo run -q --release -p mmtag-bench --bin bench_report -- --quick
MMTAG_THREADS=4 cargo run -q --release -p mmtag-bench --bin bench_report -- --verify

# Compile-cost canary for the lane kernels: a from-scratch release build
# of the rf crate (where the fixed-width pipelines live), timed into its
# own target dir so the main build cache stays warm. Informational —
# autovectorized kernel code is where compile time would creep in first.
rm -rf target/rf-build-timing
rf_t0=$(date +%s)
CARGO_TARGET_DIR=target/rf-build-timing cargo build -q --release -p mmtag-rf
rf_t1=$(date +%s)
echo "rf crate release build (clean): $((rf_t1 - rf_t0))s"
rm -rf target/rf-build-timing

echo "check.sh: fmt + build + tests + clippy + scenario smoke + rate-region smoke + cache round-trip + serve smoke + bench report all green"
