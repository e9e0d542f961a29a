#!/usr/bin/env bash
# Shard-matrix smoke: replay a trace through `hcserve -shards 4` with
# `hcload` and require the achieved robustness to match the offline
# simulator within tolerance. Sharding changes the mapper's view (each
# decision scans shard-local machines only), so exact equality is not
# expected; staying within a few robustness points of the global scheduler
# is the architecture's contract (observed gap ≈ 0.3 pp on the reference
# host, tolerance 10 pp absorbs host and profile variance).
#
# Usage: scripts/shard_smoke.sh [shards] [router] [tolerance_pp]
set -euo pipefail

SHARDS="${1:-4}"
ROUTER="${2:-p2c}"
TOL="${3:-10}"
PROFILE=video
TASKS=30000
SCALE=0.05
SEED=1
ADDR=127.0.0.1:18184

. "$(dirname "$0")/lib.sh"
smoke_build hcsim hcserve hcload

offline=$("$BIN/hcsim" -profile "$PROFILE" -mapper PAM -dropper heuristic \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" | awk '/^robustness/{print $2}')
echo "offline robustness:   $offline %"

"$BIN/hcserve" -addr "$ADDR" -profile "$PROFILE" -mapper PAM -dropper heuristic \
    -shards "$SHARDS" -router "$ROUTER" -boundary 100 &
SERVER_PID=$!
wait_http "http://$ADDR/healthz"

out=$("$BIN/hcload" -addr "http://$ADDR" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED")
echo "$out"
online=$(echo "$out" | awk '/^achieved robustness/{print $3}')

echo "online ($SHARDS shards, $ROUTER): $online %"
awk -v a="$offline" -v b="$online" -v tol="$TOL" 'BEGIN {
    d = a - b; if (d < 0) d = -d
    printf "robustness gap:       %.2f pp (tolerance %.1f)\n", d, tol
    exit (d <= tol) ? 0 : 1
}'
