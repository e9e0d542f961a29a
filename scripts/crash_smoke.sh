#!/usr/bin/env bash
# Crash-recovery smoke: kill -9 a journaling hcserve mid-load, restart it
# on the same journal, and require (1) the recovered /v1/stats to be
# byte-identical to the snapshot scraped just before the kill, (2) the
# resumed replay to finish with robustness within tolerance of the offline
# simulator, (3) `hcreplay -verify` to prove the log re-derives every
# decision it retains, and (4) every shard directory to end
# with exactly the two checkpoints recovery reads — each checkpoint deletes
# the history behind the one before it. This is the journal's end-to-end
# contract: a crashed server recovers every shard to its exact pre-crash
# state, on a log whose size does not grow with the tasks it has served.
#
# Usage: scripts/crash_smoke.sh [shards] [tolerance_pp]
set -euo pipefail

SHARDS="${1:-2}"
TOL="${2:-10}"
PROFILE=video
TASKS=30000
SCALE=0.05
SEED=1
CUT=750 # tasks replayed before the kill (of 1500 at this scale)
ADDR=127.0.0.1:18189

. "$(dirname "$0")/lib.sh"
smoke_build hcsim hcserve hcload hcreplay
smoke_tmpdir JDIR

offline=$("$BIN/hcsim" -profile "$PROFILE" -mapper PAM -dropper heuristic \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" | awk '/^robustness/{print $2}')
echo "offline robustness:   $offline %"

serve() {
    "$BIN/hcserve" -addr "$ADDR" -profile "$PROFILE" -mapper PAM -dropper heuristic \
        -shards "$SHARDS" -router rr -boundary 100 \
        -journal-dir "$JDIR" -fsync always -snapshot-every 400 &
    SERVER_PID=$!
    wait_http "http://$ADDR/healthz"
}

serve
"$BIN/hcload" -addr "http://$ADDR" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -to "$CUT" -no-drain
curl -sf "http://$ADDR/v1/stats" >"$BIN/pre.json"

echo "killing server (pid $SERVER_PID) with SIGKILL"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

serve
curl -sf "http://$ADDR/v1/stats" >"$BIN/post.json"
if ! diff -u "$BIN/pre.json" "$BIN/post.json"; then
    echo "FAIL: recovered /v1/stats differs from the pre-kill snapshot" >&2
    exit 1
fi
echo "recovered /v1/stats is byte-identical to the pre-kill snapshot"

out=$("$BIN/hcload" -addr "http://$ADDR" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -from "$CUT")
echo "$out"
online=$(echo "$out" | awk '/^achieved robustness/{print $3}')
# The drain already ran via POST /v1/drain; SIGTERM just lets the server
# exit (it returns the stored result immediately).
kill -TERM "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "online (crashed + recovered): $online %"
awk -v a="$offline" -v b="$online" -v tol="$TOL" 'BEGIN {
    d = a - b; if (d < 0) d = -d
    printf "robustness gap:       %.2f pp (tolerance %.1f)\n", d, tol
    exit (d <= tol) ? 0 : 1
}'

"$BIN/hcreplay" -dir "$JDIR" -verify

for d in "$JDIR"/shard-*; do
    n=$(ls "$d" | grep -c '\.snap$' || true)
    [ "$n" -eq 2 ] || { echo "FAIL: $d ends with $n snapshots, want 2" >&2; ls -l "$d" >&2; exit 1; }
done
echo "every shard directory ends with exactly two checkpoints"
