#!/usr/bin/env bash
# bench_gate.sh — CI benchmark-regression gate.
#
# Re-runs the three headline hot-path benchmarks and fails when any
# regresses more than TOLERANCE_PCT in ns/op against the recorded
# figures:
#
#   BenchmarkQueueChain            (package root)      vs BENCH_core.json
#   BenchmarkPAMMapEvent/batch=64  (package root)      vs BENCH_core.json
#   BenchmarkEngineFeed            (internal/service)  vs BENCH_service.json
#
# Recorded figures follow the min-of-runs convention (see the JSON
# notes): this host is a shared 2-vCPU VM with ±20-30% run-to-run noise,
# so the gate also takes the minimum across COUNT runs before comparing,
# and the default tolerance is deliberately wider than a quiet host
# would need. Refresh the recordings (and history notes) whenever an
# intentional change moves the numbers.
#
# Usage: scripts/bench_gate.sh [-t tolerance_pct] [-c count]
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE_PCT=10
COUNT=5
while getopts "t:c:" opt; do
  case "$opt" in
    t) TOLERANCE_PCT="$OPTARG" ;;
    c) COUNT="$OPTARG" ;;
    *) echo "usage: $0 [-t tolerance_pct] [-c count]" >&2; exit 2 ;;
  esac
done

# recorded <json> <benchmark-name>: extract the recorded ns_per_op that
# follows the benchmark's "name" line (the files are formatted one key
# per line, which CI also relies on for diff review).
recorded() {
  awk -v name="\"$2\"" '
    $0 ~ "\"name\": " name { found = 1 }
    found && /"ns_per_op"/ { gsub(/[^0-9]/, ""); print; exit }
  ' "$1"
}

# minbench <pkg> <benchmark-regex>: min ns/op across COUNT runs.
minbench() {
  go test "$1" -run xxx -bench "$2" -benchtime 1s -count "$COUNT" 2>&1 |
    awk '/^Benchmark/ { if (min == "" || $3 < min) min = $3 } END { if (min == "") exit 1; print min }'
}

fail=0
gate() { # gate <label> <recorded> <measured>
  local rec="$2" got="$3"
  local limit=$(( rec + rec * TOLERANCE_PCT / 100 ))
  if [ "$got" -gt "$limit" ]; then
    echo "FAIL $1: $got ns/op vs recorded $rec (limit $limit, +${TOLERANCE_PCT}%)"
    fail=1
  else
    echo "ok   $1: $got ns/op vs recorded $rec (limit $limit)"
  fi
}

rec_chain=$(recorded BENCH_core.json BenchmarkQueueChain)
rec_map=$(recorded BENCH_core.json BenchmarkPAMMapEvent/batch=64)
rec_feed=$(recorded BENCH_service.json BenchmarkEngineFeed)
[ -n "$rec_chain" ] && [ -n "$rec_map" ] && [ -n "$rec_feed" ] || { echo "bench_gate: recorded figures not found" >&2; exit 2; }

got_chain=$(minbench . 'BenchmarkQueueChain$')
gate BenchmarkQueueChain "$rec_chain" "$got_chain"
got_map=$(minbench . 'BenchmarkPAMMapEvent/batch=64$')
gate BenchmarkPAMMapEvent/batch=64 "$rec_map" "$got_map"
got_feed=$(minbench ./internal/service/ 'BenchmarkEngineFeed$')
gate BenchmarkEngineFeed "$rec_feed" "$got_feed"

exit "$fail"
