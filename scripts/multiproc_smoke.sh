#!/usr/bin/env bash
# Multi-process smoke: an hcrouter fronting two journaling hcserve
# backends, each owning half the machine partition. Requires (1) a full
# replay through the router to achieve, as printed, the robustness of the
# offline 2-shard cluster under the class hash (`hcexp -sweep
# "...;shards=2;router=hash"`), with zero duplicate-acked tasks, (2) the
# router's /metrics to lint clean against the Prometheus text grammar, and,
# on a fresh fleet, (3) a duplicated decision-ID request to return the
# byte-identical original decisions, (4) the same request retried through a
# restarted router — which has lost its own dedup window — to return those
# bytes again, the sub-requests meeting their own IDs in the backends'
# windows, (5) kill -9 of one backend mid-replay to shed its traffic onto
# the survivor — the retried replay must still complete with zero duplicate
# acks — and (6) the killed backend, restarted on its journal, to rejoin:
# once the router's /v1/stats shows it ready, the rest of the trace replays
# with zero duplicate acks and no sub-batch rerouted (the router's
# connections to the dead process are gone, not reused).
#
# Each backend excludes 50 boundary tasks from its drain result, so the
# pair excludes the 100 the offline cluster does.
#
# Usage: scripts/multiproc_smoke.sh
set -euo pipefail

PROFILE=video
TASKS=30000
SCALE=0.05
SEED=1
B0=127.0.0.1:18291
B1=127.0.0.1:18292
FRONT=127.0.0.1:18290

. "$(dirname "$0")/lib.sh"
SMOKE_PIDS="B0_PID B1_PID ROUTER_PID"
smoke_build hcexp hcserve hcrouter hcload obslint
smoke_tmpdir JDIR0
smoke_tmpdir JDIR1
B0_PID=""
B1_PID=""
ROUTER_PID=""

# The sweep table's one data row; robustness is the field before its first ±.
cluster=$("$BIN/hcexp" -q -trials 1 -seed "$SEED" -scale "$SCALE" \
    -sweep "profile=$PROFILE;mapper=PAM;dropper=heuristic;tasks=$TASKS;shards=2;router=hash" |
    awk -v p="$PROFILE" '$1 == p { for (i = 2; i <= NF; i++) if ($i == "±") { print $(i-1); exit } }')
echo "offline robustness:   $cluster % (2-shard cluster, hash)"

# wait_ready ADDR — block until /readyz answers 200 (the boot gate: the
# listener binds before journal recovery, answering 503 until serving).
wait_ready() { wait_http "http://$1/readyz"; }

start_backend() { # addr journal_dir partition -> pid
    # The daemon's stdout must not inherit the command-substitution pipe,
    # or $(start_backend ...) blocks until the daemon exits.
    "$BIN/hcserve" -addr "$1" -profile "$PROFILE" -mapper PAM -dropper heuristic \
        -partition "$3" -journal-dir "$2" -fsync always -snapshot-every 400 -boundary 50 1>&2 &
    echo $!
}

start_fleet() {
    B0_PID=$(start_backend "$B0" "$JDIR0" 0/2)
    B1_PID=$(start_backend "$B1" "$JDIR1" 1/2)
    wait_ready "$B0"
    wait_ready "$B1"
    start_router
}

start_router() {
    "$BIN/hcrouter" -addr "$FRONT" -backends "http://$B0,http://$B1" \
        -profile "$PROFILE" -router hash -poll 100ms -retries 2 &
    ROUTER_PID=$!
    wait_ready "$FRONT"
}

stop_fleet() {
    for pid in "$ROUTER_PID" "$B0_PID" "$B1_PID"; do
        [ -n "$pid" ] && kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in "$ROUTER_PID" "$B0_PID" "$B1_PID"; do
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    ROUTER_PID=""; B0_PID=""; B1_PID=""
}

### Phase 1: healthy fleet — replay equals the offline cluster; metrics lint.
start_fleet
echo "fleet up: router $FRONT over $B0 (0/2) and $B1 (1/2)"

out=$("$BIN/hcload" -addr "http://$FRONT" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -retries 2)
echo "$out"
online=$(echo "$out" | awk '/^achieved robustness/{print $3}')
dups=$(echo "$out" | awk '/^duplicate acks/{print $3}')
[ "$dups" = "0" ] || { echo "FAIL: $dups duplicate acks on a healthy fleet" >&2; exit 1; }
echo "online (2 backends):  $online %"
if [ -z "$online" ] || [ "$online" != "$cluster" ]; then
    echo "FAIL: online $online % != offline 2-shard cluster $cluster %" >&2
    exit 1
fi

"$BIN/obslint" -metrics "http://$FRONT/metrics"
echo "router /metrics lint clean"

stop_fleet

### Phase 2: fresh fleet — duplicate decision IDs, across a router restart
### too; then kill -9 one backend mid-replay; the router sheds its classes
### onto the survivor and the replay still completes with zero duplicate
### acks. Then the backend restarts on its journal, rejoins, and the rest
### of the trace goes through without a reroute. (The probes' task would
### perturb phase 1's exact comparison; nothing here is compared exactly.)
smoke_tmpdir JDIR0
smoke_tmpdir JDIR1
start_fleet
echo "fresh fleet up for the idempotency and kill tests"

# Duplicate decision-ID probe: the same request POSTed twice must return
# byte-identical bodies (the second served from the router's dedup window).
req='{"decision_id":"smoke-dup-1","tasks":[{"type":0,"arrival":0,"deadline":2000}]}'
curl -sf -H 'Content-Type: application/json' -d "$req" "http://$FRONT/v1/decide" >"$BIN/dup1.json"
curl -sf -H 'Content-Type: application/json' -d "$req" "http://$FRONT/v1/decide" >"$BIN/dup2.json"
if ! diff -u "$BIN/dup1.json" "$BIN/dup2.json"; then
    echo "FAIL: duplicate decision-ID responses differ" >&2
    exit 1
fi
echo "duplicate decision-ID request is byte-identical"

# The same request through a restarted router: its window is gone, but the
# retry splits the same way under hash, so every sub-request meets its own
# ID in a backend's window and the reply is the original's bytes.
kill -TERM "$ROUTER_PID"; wait "$ROUTER_PID" 2>/dev/null || true
start_router
curl -sf -H 'Content-Type: application/json' -d "$req" "http://$FRONT/v1/decide" >"$BIN/dup3.json"
if ! diff -u "$BIN/dup1.json" "$BIN/dup3.json"; then
    echo "FAIL: the retry through a restarted router was admitted again" >&2
    exit 1
fi
echo "retry through a restarted router is byte-identical"

( sleep 1.5 && kill -9 "$B1_PID" 2>/dev/null && echo "killed backend 1 (pid $B1_PID) with SIGKILL" ) &
KILLER=$!

# -speed 2 paces the replay over ~half the trace window; the first SPLIT
# tasks take ~2.6 s, so the 1.5 s kill lands while requests are in flight.
SPLIT=1200
out=$("$BIN/hcload" -addr "http://$FRONT" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -retries 3 -speed 2 -to "$SPLIT" -no-drain)
wait "$KILLER" 2>/dev/null || true
B1_PID=""
echo "$out"
dups2=$(echo "$out" | awk '/^duplicate acks/{print $3}')
[ "$dups2" = "0" ] || { echo "FAIL: $dups2 duplicate acks through the backend kill" >&2; exit 1; }

up=$(curl -sf "http://$FRONT/metrics" | awk '/^taskdrop_router_backend_up{backend="1"}/{print $2}')
[ "$up" = "0" ] || { echo "FAIL: killed backend still marked up ($up)" >&2; exit 1; }
echo "router marked the killed backend down; survivor carried the load"

# Rejoin: the same address, the same journal.
B1_PID=$(start_backend "$B1" "$JDIR1" 1/2)
for _ in $(seq 1 100); do
    curl -sf "http://$FRONT/v1/stats" | grep -q '"backend":1,"url":"[^"]*","ready":true' && break
    sleep 0.2
done
curl -sf "http://$FRONT/v1/stats" | grep -q '"backend":1,"url":"[^"]*","ready":true' ||
    { echo "FAIL: the restarted backend never rejoined the rotation" >&2; exit 1; }
echo "restarted backend 1 rejoined the rotation"

reroutes() { curl -sf "http://$FRONT/metrics" | awk '/^taskdrop_router_reroutes_total /{print $2}'; }
before=$(reroutes)
out=$("$BIN/hcload" -addr "http://$FRONT" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -retries 3 -from "$SPLIT")
echo "$out"
online2=$(echo "$out" | awk '/^achieved robustness/{print $3}')
dups3=$(echo "$out" | awk '/^duplicate acks/{print $3}')
[ "$dups3" = "0" ] || { echo "FAIL: $dups3 duplicate acks after the rejoin" >&2; exit 1; }
after=$(reroutes)
[ "$after" = "$before" ] || { echo "FAIL: $((after - before)) sub-batches rerouted after the rejoin" >&2; exit 1; }
echo "online (1 backend killed mid-replay, then rejoined): $online2 %; reroutes $before before and after the rejoin"

echo "OK: replay equals the offline 2-shard cluster, idempotent duplicates (across a router restart too), clean metrics, zero duplicate acks through a backend kill and its rejoin"
