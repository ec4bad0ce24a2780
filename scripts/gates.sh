# The repro gate table, sourced by scripts/check.sh (which runs every row)
# and scripts/update_goldens.sh (which regenerates every golden named
# here). One row per gate, four `|`-separated columns:
#
#   repro args | golden under scripts/goldens/, or - | double-run: yes/no | required stderr lines
#
# A row runs `repro <args>`. Stdout is diffed byte for byte against the
# golden, if one is named. With double-run `yes` the command runs twice and
# the two stdouts must match, proving the report is byte-deterministic.
# Every `;`-separated entry of the last column must appear as a line
# fragment on stderr; a missing one fails the gate. Goldens are
# regenerated only after an intentional change to a report; review the
# diff before committing.
#
# Comments and blank lines inside the table are ignored.
GATES='
# Chaos metrics snapshots: the exported metrics of a fixed chaos seed must
# be byte-for-byte reproducible. A diff means nondeterminism crept into the
# simulator, or the metrics surface changed.
metrics --chaos --seed 1 | chaos_metrics_seed1.prom | no |
metrics --chaos --seed 2 | chaos_metrics_seed2.prom | no |
metrics --chaos --seed 3 | chaos_metrics_seed3.prom | no |

# Laser sweep: the full serving tier (hedged reads, chaos section,
# Gatekeeper routing).
laser | laser_seed1.txt | no |

# Canary rollout under chaos with injected-bad commits and seeded cache
# drift; the report carries its own acceptance gates (containment,
# convergence, drift repair) and must end "overall: PASS".
canary | canary_seed1.txt | no |

# Drift audit: detects exactly the seeded fault set (no misses, no false
# positives) and leaves a clean fleet; the report gates on both.
audit | audit_seed1.txt | no |

# Compile pipeline: deterministic counts, cache hit rates and gates on
# stdout; timings on stderr. The stderr gates assert the warm-incremental
# (>= 5x) and, with >= 2 workers, parallel (>= 2x) speedups, and that the
# verify pass stays under 10% of warm compile wall time.
compile | compile.txt | no | compile speedup gates: PASS; verify overhead gate: PASS

# Static verifier: fifty seeded-bad commits (five defect classes) through
# the pre-commit verify gate and a canary-model runtime check. The stderr
# gate asserts the >= 80% catch-rate floor, zero escapes and zero false
# positives.
verify --check | verify_check.txt | no | verify catch-rate gate: PASS

# Simnet perf benchmark, live: writes BENCH_simnet.json, validates its
# schema, enforces the 500k events/s floor, and guards the large-fleet
# throughput against the recorded baseline (a regression guard, not the 2x
# engine-rework target).
perf | - | no | perf schema: OK; perf throughput gate: PASS; perf baseline gate: PASS
# The --check run prints only virtual-time fields (event counts, bytes,
# queue depths), so it is byte-deterministic.
perf --check | perf_check.txt | yes |

# Paper-scale fleet, live: writes the "fleet_runs" section of
# BENCH_simnet.json and enforces three wall-clock floors: 100k events/s at
# >= 5k nodes, >= 1.4M events/s on the 20k tier (the watch-lease speedup
# over the 825,993 events/s pre-lease baseline), and >= 100k events/s on
# the 100k-node tier.
fleet | - | no | fleet schema: OK; fleet throughput gate: PASS; fleet tier gate [20k]: PASS; fleet tier gate [100k]: PASS
# The --check run (1k + 5k + 100k fleets) prints only virtual-time fields:
# event counts, writes, raw-sample propagation percentiles.
fleet --check | fleet_check.txt | yes |

# A million MobileConfig pull clients as per-cluster cohorts over the 1k
# fleet; per-cohort poll counts and staleness percentiles.
fleet --mobile 1000000 | fleet_mobile.txt | yes |

# ODS fleet health plane under two chaos seeds: per-tier rollups and
# multi-window SLO burn rates, virtual-time only.
health | health_seed1.txt | no |

# Observer mass restart: decorrelated-jitter backoff must keep the
# reconnect herd bounded by the proxy count and settled within the horizon.
storm | storm_seed1.txt | no |

# Loss sweep over four drop rates. The live rows are the batched protocol;
# the legacy rows come from the frozen baseline table in
# crates/bench/src/loss_exp.rs. The golden was recorded from the last
# commit that still ran the legacy protocol, so it proves the frozen table
# reproduces that report byte for byte.
losssweep | losssweep_seed1.txt | yes |
'

# Prints the table rows, one per line, with comments and blank lines
# dropped.
gate_rows() {
    printf '%s\n' "$GATES" | grep -vE '^[[:space:]]*(#|$)'
}

# Strips leading and trailing whitespace.
trim() {
    local s="$1"
    s="${s#"${s%%[![:space:]]*}"}"
    s="${s%"${s##*[![:space:]]}"}"
    printf '%s' "$s"
}

# Runs the repro CLI (built in release mode) with the given arguments.
repro() {
    cargo run -q --release -p bench --bin repro -- "$@" < /dev/null
}
