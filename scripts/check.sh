#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, the full test suite, then every
# repro gate in scripts/gates.sh (golden diffs, double-run determinism and
# required stderr PASS lines). Run from anywhere; exits nonzero on the
# first failure.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/gates.sh

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
# compat/* carry #![allow(clippy::all)]: they are vendored stand-ins for
# external crates, not first-party code.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test --workspace -q

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

while IFS='|' read -r args golden double required <&3; do
    args="$(trim "$args")"
    golden="$(trim "$golden")"
    double="$(trim "$double")"
    required="$(trim "$required")"
    read -ra argv <<< "$args"
    echo "== repro $args"
    repro "${argv[@]}" > "$work/out_a.txt" 2> "$work/err.txt" \
        || { cat "$work/err.txt"; echo "repro $args exited nonzero"; exit 1; }
    if [[ -n "$required" ]]; then
        cat "$work/err.txt"
        IFS=';' read -ra lines <<< "$required"
        for line in "${lines[@]}"; do
            line="$(trim "$line")"
            grep -qF -- "$line" "$work/err.txt" \
                || { echo "repro $args: stderr lacks \"$line\""; exit 1; }
        done
    fi
    if [[ "$double" == yes ]]; then
        repro "${argv[@]}" > "$work/out_b.txt" 2> /dev/null
        diff -u "$work/out_a.txt" "$work/out_b.txt" \
            || { echo "repro $args: output is not byte-deterministic"; exit 1; }
    fi
    if [[ "$golden" != - ]]; then
        diff -u "scripts/goldens/$golden" "$work/out_a.txt" \
            || { echo "repro $args: report diverged from scripts/goldens/$golden"; exit 1; }
    fi
done 3< <(gate_rows)

echo "all checks passed"
