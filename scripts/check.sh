#!/usr/bin/env sh
# Full offline gate: build, test, lint. Run from the repo root; everything
# works without network access (the workspace has zero external crates).
set -eu
cd "$(dirname "$0")/.."

# Every smoke step's files live under one scratch directory. On any exit,
# a failing step included, the trap stops the serve daemon if it is still
# running and removes that directory, so neither is left behind.
work="$(mktemp -d)"
serve_pid=
cleanup() {
    if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
        kill "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

cargo fmt --all --check
cargo build --release
# The six examples are entry points like the CLI and the scenarios, but
# `cargo test` only compiles them: run each one to its end.
for example in examples/*.rs; do
    cargo run -q --release -p mmtag --example "$(basename "$example" .rs)" > /dev/null
done
# The repository benchmark (BENCHMARK.json) builds perfbench/, a separate
# workspace outside this one: build it here so a removed or renamed public
# item it calls fails the gate instead of only the benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
# Its own tests run every workload briefly; `repro_cold_passes_its_checks`
# regenerates every table at published size and compares the digests
# across passes and against a 1-thread child process. With the pinned
# published-size digests below, it is what exercises the parallel
# decompositions (city barrier, the E26 columns and E28 cells on their own
# seeded streams, E29's one chunk-grid estimate shared by all eleven
# weights), the certified bit-error counter behind E5's, E16's and
# serve-sweep's BER tables (`count_bit_errors_lanes`: each chunk's bits and
# noise drawn once on eight lane streams and decided under every OOK and
# BPSK detector of the table, fast decisions `ln_lanes` then `f32`, with
# exact libm replay inside the rounding margin), E26's streamed receive
# chain and the lane MI estimator (E29–E31's certified two passes: every
# row's `exp` terms in `f32` on `exp_lanes_f32`, then the rows the
# certificate keeps exact on `exp_lanes`) at full size.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q
# Cross-CPU margin: glibc picks its libm `ln`/`exp`/`sin`/`cos` variants by
# CPU feature, and they may differ in the last ulp from host to host. Every
# table's smoke digest must still match with the FMA/AVX2 variants masked
# off — the decisions and sums built on libm absorb those ulps — so the
# first kernel that exposes raw libm bits fails here. The published-size
# suite below runs masked too.
GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-AVX2 cargo test -q -p mmtag-bench --test scenarios
# The certificate's `ln_lanes` bound (≤ 2⁻⁵⁰ relative to libm `ln`) over
# 2²⁸ ladder inputs and its `cos_2pi_lanes_f32` bound (≤ 2⁻²³ absolute) at
# every f32 in [0, 1], `exp_lanes` bit-equal to libm `exp` (glibc's FMA
# variant) over 2²⁸ arguments, and the rate-region fast pass's
# `exp_lanes_f32` (≤ 2⁻²³ relative) and `log2_lanes_f32` (≤ 2⁻²²) bounds at
# every f32 of their domains: too slow for the debug run above, where all
# five are #[ignore]d and smaller sweeps stand in.
cargo test --release --offline -q -p mmtag-rf --lib -- --ignored
# The shared-draw lane counter against its per-lane oracle, the allocating
# chain, over 3·10⁶ decisions per mark convention at the certificate's SNR
# points, its OOK and BPSK detectors alike — #[ignore]d likewise.
cargo test --release --offline -q -p mmtag-phy --lib -- --ignored
# The rate-region certificate against the exact estimator over 10⁵ fast
# trial-rows of E29–E31's cells: every gap 2⁸ inside the margin the
# certificate accepts at, #[ignore]d likewise.
cargo test --release --offline -q -p mmtag-sim --lib -- --ignored
# Every registry scenario at its published size and seed against the
# table digests pinned in the test, rendered and as CSV (every cell at
# full precision), E29–E31's depth-row counts and E27–E28's city-barrier
# counts (tags walked, wall tests at 1 thread and the default budget):
# the smoke digests above see a few hundred trials, this sees every
# block, chunk and cell a published table is built from. #[ignore]d in
# the debug run for the same reason.
cargo test --release --offline -q -p mmtag-bench --test scenarios -- --ignored
# The same published-size digests, E05's and E16's exact error counts,
# E29–E31's row counts and E27–E28's barrier counts, with the FMA/AVX2
# libm variants masked off: they must hold under the libm another host
# may pick, not only under this host's.
GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-AVX2 \
    cargo test --release --offline -q -p mmtag-bench --test scenarios -- --ignored
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: every public item documented (the crates' warn(missing_docs)
# becomes deny here), intra-doc links resolve, and `cargo test` above has
# already run the doctested examples.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# Registry listing through the CLI front door. Running every E1–E31 entry
# end to end at reduced size is `cargo test` above
# (`every_scenario_smokes_and_is_thread_count_invariant` at 1 and 8
# threads against pinned digests, `serial_runner` on a 1-thread runner).
cargo run -q --release -p mmtag-cli -- scenarios

# City-scale smoke: one hundred thousand tags through the city engine via
# the CLI — the production path (SoA tag state, the barrier's chunk kernel
# over chunks in parallel, per-slot rounds over one reader range per
# thread, range merge) at full density, not the minimized smoke size. The
# ranges follow the thread budget, so a 1-thread run and a default-budget
# run must print the same bytes. The second city adds 48 walls and 6 m/s
# tags, which drive the kernel's wall tests.
city_dir="$work/city"
mkdir "$city_dir"
city_smoke() {
    name=$1
    shift
    MMTAG_THREADS=1 cargo run -q --release -p mmtag-cli -- \
        city --tags 100000 --rounds 5 --seed 7 "$@" > "$city_dir/$name-one-thread.txt"
    cargo run -q --release -p mmtag-cli -- \
        city --tags 100000 --rounds 5 --seed 7 "$@" > "$city_dir/$name.txt"
    cat "$city_dir/$name.txt"
    cmp "$city_dir/$name-one-thread.txt" "$city_dir/$name.txt"
}
city_smoke default
city_smoke walls --blockers 48 --speed-mps 6

# Run-cache round trips: a scenario twice into a fresh store, both CSV
# artifacts byte-identical, then a third run whose manifest metrics must
# say it was served from the cache. E29 (small grid) also drives the
# multi-tag sweep end to end — cascade channel, tag constellations, one
# chunk-grid estimate shared by every weight.
cache_round_trip() {
    dir="$work/cache-$1"
    mkdir "$dir"
    MMTAG_CACHE_DIR="$dir" cargo run -q --release -p mmtag-cli -- \
        run "$1" --quick 1 --format csv > "$dir/first.csv"
    MMTAG_CACHE_DIR="$dir" cargo run -q --release -p mmtag-cli -- \
        run "$1" --quick 1 --format csv > "$dir/second.csv"
    cmp "$dir/first.csv" "$dir/second.csv"
    # (to a file, not a pipe: `grep -q` would close the pipe at first match
    # and the writer would die on SIGPIPE/broken pipe)
    MMTAG_CACHE_DIR="$dir" cargo run -q --release -p mmtag-cli -- \
        run "$1" --quick 1 --format json > "$dir/hit.json"
    grep -q '"runner.cache.hit": 1' "$dir/hit.json"
}
cache_round_trip e29-rate-region
cache_round_trip e02-link-budget

# Serve smoke: start the daemon on a Unix socket with a fresh cache and
# feed `mmtag request` a fixed log of `run` and `query` ops on e05-ber
# (`request` exits 1 right after the first response not "ok":true). The
# log's ten ops use three seeds, so at most three are simulated: the
# `status` line that ends it must report a hit ratio of at least 0.5, each
# repeated seed served from the memory store or the disk RunCache.
serve_dir="$work/serve"
mkdir "$serve_dir"
MMTAG_CACHE_DIR="$serve_dir/cache" cargo run -q --release -p mmtag-cli -- \
    serve --socket "$serve_dir/mmtag.sock" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$serve_dir/mmtag.sock" ] && break
    sleep 0.1
done
[ -S "$serve_dir/mmtag.sock" ]
request() {
    cargo run -q --release -p mmtag-cli -- request --socket "$serve_dir/mmtag.sock"
}
request > "$serve_dir/log.txt" <<'LOG'
{"id":1,"op":"run","scenario":"e05-ber","seed":0,"trials":2000,"points":8}
{"id":2,"op":"query","scenario":"e05-ber","seed":0,"trials":2000,"points":8,"x":7}
{"id":3,"op":"run","scenario":"e05-ber","seed":1,"trials":2000,"points":8}
{"id":4,"op":"query","scenario":"e05-ber","seed":2,"trials":2000,"points":8,"x":3.5}
{"id":5,"op":"query","scenario":"e05-ber","seed":1,"trials":2000,"points":8,"x":10}
{"id":6,"op":"run","scenario":"e05-ber","seed":2,"trials":2000,"points":8}
{"id":7,"op":"query","scenario":"e05-ber","seed":0,"trials":2000,"points":8,"x":12.25}
{"id":8,"op":"run","scenario":"e05-ber","seed":1,"trials":2000,"points":8}
{"id":9,"op":"query","scenario":"e05-ber","seed":2,"trials":2000,"points":8,"x":0}
{"id":10,"op":"query","scenario":"e05-ber","seed":0,"trials":2000,"points":8,"x":14}
{"id":11,"op":"status"}
LOG
tail -n 1 "$serve_dir/log.txt"
tail -n 1 "$serve_dir/log.txt" | grep -q '"cache_hit_ratio":\(0\.[5-9]\|1,\)'

# Sweep smoke against the same daemon: one 6-point sweep request must
# stream exactly 6 "sweep_point" lines and a clean summary, and the same
# request again (cache-hot) must produce a byte-identical response stream
# — the sweep op's determinism contract over a real socket.
sweep='{"id":1,"op":"sweep","scenario":"e05-ber","seeds":6,"seed":24301,"trials":2000,"points":8}'
printf '%s\n' "$sweep" | request > "$serve_dir/sweep-cold.txt"
printf '%s\n' "$sweep" '{"id":2,"op":"shutdown"}' | request > "$serve_dir/sweep-hot.txt"
[ "$(grep -c '"op":"sweep_point"' "$serve_dir/sweep-cold.txt")" = 6 ]
grep -q '"op":"sweep".*"points":6,"failed":0' "$serve_dir/sweep-cold.txt"
# The hot run appends the shutdown line; compare only the sweep stream.
head -n 7 "$serve_dir/sweep-cold.txt" > "$serve_dir/stream-cold.txt"
head -n 7 "$serve_dir/sweep-hot.txt" > "$serve_dir/stream-hot.txt"
cmp "$serve_dir/stream-cold.txt" "$serve_dir/stream-hot.txt"
wait "$serve_pid"
serve_pid=

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
# Informational too: the production-Rust line count ROADMAP.md cites.
echo "production Rust lines: $(scripts/prod_lines.sh)"

echo "check.sh: fmt + build + examples + tests + masked-libm smoke and published-size tests + clippy + scenario list + city thread-invariance smoke + run-cache round trips (E29, E02) + serve smoke all green"
