#!/bin/sh
# Counts the non-test Rust lines of the workspace: every `*.rs` file
# under crates/*/src, src and examples, each cut at its first column-0
# `#[cfg(test)]` (the in-file test module; an indented one does not cut).
# Prints the non-blank count, then the count of all lines.
#
# Run from anywhere: scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src examples -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"
done | awk 'NF { code++ } END { printf "%d non-blank, %d lines\n", code, NR }'
