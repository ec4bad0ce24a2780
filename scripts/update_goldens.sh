#!/usr/bin/env bash
# Regenerates every golden named in the scripts/gates.sh table, which
# scripts/check.sh diffs against. Run after an intentional change to a
# report, and review the resulting diff before committing.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/gates.sh

mkdir -p scripts/goldens
while IFS='|' read -r args golden _ <&3; do
    args="$(trim "$args")"
    golden="$(trim "$golden")"
    [[ "$golden" == - ]] && continue
    read -ra argv <<< "$args"
    repro "${argv[@]}" 2> /dev/null > "scripts/goldens/$golden"
    echo "wrote scripts/goldens/$golden"
done 3< <(gate_rows)
