#!/usr/bin/env sh
# Prints the workspace's production-Rust line count, the figure ROADMAP.md
# and CHANGES.md cite: over every `.rs` file under `crates/*/src`, the
# lines before the file's first `#[cfg(test)]` that are not blank and do
# not start with `//`, leading whitespace ignored (so neither comments nor
# doc comments count).
# Run from anywhere: `scripts/prod_lines.sh`.
set -eu
cd "$(dirname "$0")/.."
# One awk over every file, so one END prints one total.
# shellcheck disable=SC2046
awk '
    FNR == 1 { in_tests = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[ \t]*$/ || /^[ \t]*\/\// { next }
    { n++ }
    END { print n + 0 }
' $(find crates/*/src -name '*.rs' | sort)
