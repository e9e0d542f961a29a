#!/usr/bin/env bash
# Dynamic-membership smoke: drive a journaling 2-shard hcserve through
# runtime machine churn and require (1) hcload's -churn fault-injection
# plan to fire remove/revive/add operations mid-replay without wedging the
# load, (2) a fully degraded server (every machine removed) to shed
# decides with 429 + Retry-After instead of accepting work it cannot run,
# (3) the membership metric families to lint clean and be present, (4) a
# kill -9 + restart to recover the exact post-churn membership
# (byte-identical /v1/stats, machine indexes included, after adds that
# reached shard 1 before shard 0), and (5) `hcreplay -verify` to re-derive
# the killed log's decisions across the membership records its tail holds,
# and the drained log to verify.
#
# Usage: scripts/churn_smoke.sh
set -euo pipefail

PROFILE=video
TASKS=30000
SCALE=0.05
SEED=1
CUT=750 # tasks replayed before the churn/crash checkpoint (of 1500)
ADDR=127.0.0.1:18193

. "$(dirname "$0")/lib.sh"
smoke_build hcserve hcload hcreplay obslint
smoke_tmpdir JDIR

serve() {
    "$BIN/hcserve" -addr "$ADDR" -profile "$PROFILE" -mapper PAM -dropper heuristic \
        -shards 2 -router rr -boundary 100 \
        -journal-dir "$JDIR" -fsync always -snapshot-every 400 &
    SERVER_PID=$!
    wait_http "http://$ADDR/healthz"
}

# admin fires one membership operation and echoes the response.
admin() {
    curl -sf -X POST "http://$ADDR/v1/admin/machines" \
        -H 'Content-Type: application/json' -d "$1"
    echo
}

serve

# Phase 1: replay to the checkpoint with a churn plan — remove machine 2
# (queue handed off), force-drop machine 5's queue, revive 2, and add a
# fresh machine to shard 1. The retry budget rides through any transient
# 429 while capacity is down.
out1=$("$BIN/hcload" -addr "http://$ADDR" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -to "$CUT" -no-drain -retries 3 \
    -churn "100:remove:2,200:remove:5:drop,400:revive:2,500:add:1:0")
echo "$out1"
echo "$out1" | grep -q "churn ops             4" ||
    { echo "FAIL: hcload did not report 4 churn ops" >&2; exit 1; }

# A second machine, on shard 0, after the plan's add on shard 1. A machine's
# index is arithmetic on (partition, shards, shard, order within the shard)
# — README, "Machine indexes" — so shard 1's first add is M+1 whenever it
# came, shard 0's is M, and the restart below, which recovers shard 0
# first, finds both where they were. The script takes the index from the
# add's answer, not from that rule.
added=$(admin '{"op":"add","shard":0,"type":1}' | sed -n 's/.*"machine":\([0-9]*\).*/\1/p')
[ -n "$added" ] || { echo "FAIL: add answered no machine index" >&2; exit 1; }
machines=$(curl -sf "http://$ADDR/v1/stats" | grep -o '"machines":\[[0-9,]*\]' | grep -o '[0-9]\+' | sort -n)
echo "$machines" | grep -qx "$added" ||
    { echo "FAIL: /v1/stats does not list added machine $added" >&2; exit 1; }
echo "machines after churn:" $machines "(added on shard 0: $added)"

# Fully degrade the server: remove every remaining live machine — all that
# /v1/stats lists, both runtime-added ones included, minus the
# already-removed 5.
for m in $machines; do
    [ "$m" = 5 ] && continue
    admin "{\"op\":\"remove\",\"machine\":$m,\"handoff\":true}" >/dev/null
done

# A decide against a server with zero live capacity must shed 429 with a
# Retry-After pacing hint — not wedge, not accept.
probe="$BIN/probe.out"
code=$(curl -s -o "$probe" -w '%{http_code}' -D "$BIN/probe.hdr" \
    -X POST "http://$ADDR/v1/decide" -H 'Content-Type: application/json' \
    -d '{"tasks":[{"type":0,"arrival":999999999,"deadline":1000000000}]}')
[ "$code" = "429" ] || { echo "FAIL: degraded decide answered $code, want 429" >&2; cat "$probe" >&2; exit 1; }
grep -qi '^Retry-After:' "$BIN/probe.hdr" ||
    { echo "FAIL: degraded 429 carries no Retry-After" >&2; exit 1; }
echo "degraded server sheds decides with 429 + Retry-After"

# The membership observability surface lints clean and reports
# the degradation.
"$BIN/obslint" -metrics "http://$ADDR/metrics" \
    -require taskdrop_membership_ops_total,taskdrop_membership_live_machines,taskdrop_membership_removed_machines,taskdrop_membership_degraded,taskdrop_membership_shed_total
curl -sf "http://$ADDR/metrics" -o "$BIN/metrics.degraded"
grep -q 'taskdrop_membership_degraded{shard="0"} 1' "$BIN/metrics.degraded" ||
    { echo "FAIL: shard 0 not reported degraded" >&2; exit 1; }

# Revive everything: capacity restored, decides flow again.
for m in $machines; do
    admin "{\"op\":\"revive\",\"machine\":$m}" >/dev/null
done
curl -sf "http://$ADDR/metrics" -o "$BIN/metrics.revived"
grep -q 'taskdrop_membership_degraded{shard="0"} 0' "$BIN/metrics.revived" ||
    { echo "FAIL: shard 0 still degraded after revive" >&2; exit 1; }
curl -sf "http://$ADDR/v1/stats" >"$BIN/pre.json"

# kill -9 + restart: recovery replays the journal — membership records
# included — back to the exact acknowledged state.
echo "killing server (pid $SERVER_PID) with SIGKILL"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# The killed log's tail holds the admin operations above (an add, the
# removes and the revives): the verifier re-applies them as inputs.
verify=$("$BIN/hcreplay" -dir "$JDIR" -verify)
echo "$verify"
echo "$verify" | grep -q "membership ops applied" ||
    { echo "FAIL: hcreplay -verify saw no membership records in the killed log" >&2; exit 1; }

serve
curl -sf "http://$ADDR/v1/stats" >"$BIN/post.json"
if ! diff -u "$BIN/pre.json" "$BIN/post.json"; then
    echo "FAIL: recovered /v1/stats differs from the pre-kill snapshot (membership lost)" >&2
    exit 1
fi
echo "recovered /v1/stats (post-churn membership included) is byte-identical"

# Phase 2: the recovered server finishes the replay and drains.
out2=$("$BIN/hcload" -addr "http://$ADDR" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -from "$CUT" -retries 3)
echo "$out2"
kill -TERM "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Each checkpoint since has deleted the history behind the one before it;
# what the drained log retains still re-derives.
verify=$("$BIN/hcreplay" -dir "$JDIR" -verify)
echo "$verify"
echo "$verify" | grep -q "journal verified" ||
    { echo "FAIL: the drained journal did not verify" >&2; exit 1; }

echo "OK: churn plan fired, degraded shed 429, membership survived kill -9, journal verifies"
