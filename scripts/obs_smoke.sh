#!/usr/bin/env bash
# Observability smoke: boot a journaling hcserve with 4 shards, tracing
# every decision and the debug server on, replay a trace through it, and
# require (1) the /metrics exposition to lint clean against the
# Prometheus text-format grammar (every series carries HELP/TYPE), (2)
# /debug/traces to return at least one complete trace whose spans cover
# route/wait/calculus/ack with sane monotone bounds, (3) the pprof
# profile endpoint to respond, and (4) after a graceful SIGTERM,
# `hcreplay -decision N` to print the recorded stage timings next to the
# replayed audit — the full tracing loop from live request to on-disk
# forensics.
#
# Usage: scripts/obs_smoke.sh
set -euo pipefail

PROFILE=video
TASKS=30000
SCALE=0.03
SEED=1
ADDR=127.0.0.1:18191
DEBUG_ADDR=127.0.0.1:18192

. "$(dirname "$0")/lib.sh"
smoke_build hcserve hcload hcreplay obslint
smoke_tmpdir JDIR

"$BIN/hcserve" -addr "$ADDR" -profile "$PROFILE" -mapper PAM -dropper heuristic \
    -shards 4 -router rr -journal-dir "$JDIR" -fsync interval \
    -trace-sample 1 -debug-addr "$DEBUG_ADDR" -log-format json &
SERVER_PID=$!
wait_http "http://$ADDR/healthz"

"$BIN/hcload" -addr "http://$ADDR" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -no-drain

# Metrics lint + trace completeness, against both the service listener
# and the debug listener (the debug mux shares the service handler). The
# dynamic-membership families must be present even on a
# server that saw no churn.
REQUIRED_FAMILIES=taskdrop_membership_ops_total,taskdrop_membership_live_machines,taskdrop_membership_removed_machines,taskdrop_membership_degraded,taskdrop_membership_shed_total,taskdrop_chain_invalidations_total,taskdrop_chain_pinned_bytes,taskdrop_mapper_candidates_total,taskdrop_dropper_windows_total
"$BIN/obslint" -metrics "http://$ADDR/metrics" -require "$REQUIRED_FAMILIES" -traces "http://$ADDR/debug/traces" -min-traces 1
"$BIN/obslint" -metrics "http://$DEBUG_ADDR/metrics" -require "$REQUIRED_FAMILIES" -traces "http://$DEBUG_ADDR/debug/traces" -min-traces 1
echo "metrics lint clean; traces complete"

# Steady-state chain-cache effectiveness: the persistent per-machine
# caches must be serving warm roots (signature-stable across events) and
# a healthy share of warm edges. The floors are deliberately loose —
# they catch the cache being disabled or thrashing, not tuning drift.
metrics=$(curl -sf "http://$ADDR/metrics")
read -r root_hits edge_hits edge_misses <<EOF
$(echo "$metrics" | awk '
    /^taskdrop_chain_cache_hits_total\{kind="root"\}/   { rh = $2 }
    /^taskdrop_chain_cache_hits_total\{kind="edge"\}/   { eh = $2 }
    /^taskdrop_chain_cache_misses_total\{kind="edge"\}/ { em = $2 }
    END { print rh+0, eh+0, em+0 }')
EOF
[ "$root_hits" -gt 0 ] || { echo "FAIL: no warm root hits — persistent chain caches never reused" >&2; exit 1; }
rate=$(( 100 * edge_hits / (edge_hits + edge_misses) ))
[ "$rate" -ge 20 ] || { echo "FAIL: chain edge hit rate ${rate}% < 20%" >&2; exit 1; }
echo "chain cache warm: $root_hits root hits, edge hit rate ${rate}%"

# The pprof surface answers on the debug listener only.
curl -sf "http://$DEBUG_ADDR/debug/pprof/profile?seconds=1" -o "$BIN/profile.pb.gz"
[ -s "$BIN/profile.pb.gz" ] || { echo "FAIL: empty CPU profile" >&2; exit 1; }
echo "pprof profile responds ($(wc -c <"$BIN/profile.pb.gz") bytes)"

echo "stopping server (pid $SERVER_PID) with SIGTERM"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
SERVER_PID=""

# With sample-every-1 tracing, every decision carries stage timings in
# the journal. A sequence number lives on exactly one shard; try all.
audit=""
for s in 0 1 2 3; do
    if out=$("$BIN/hcreplay" -dir "$JDIR" -shard "$s" -decision 100 2>/dev/null); then
        audit="$out"
        break
    fi
done
[ -n "$audit" ] || { echo "FAIL: no shard could audit decision 100" >&2; exit 1; }
echo "$audit"
echo "$audit" | grep -q "recorded stage timings (offsets from request receipt)" ||
    { echo "FAIL: audit printed no recorded stage timings" >&2; exit 1; }
for stage in route wait calculus ack; do
    echo "$audit" | grep -q "  $stage" ||
        { echo "FAIL: audit timings lack stage $stage" >&2; exit 1; }
done

echo "OK: metrics lint clean, traces complete, pprof live, audit shows stage timings"
