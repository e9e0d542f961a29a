#!/usr/bin/env bash
# Shard-matrix smoke: replay a trace through `hcserve -shards N -router R`
# with `hcload -batch 1` and require two things of the achieved robustness:
#
#  1. exact: it equals, as printed, the offline N-shard cluster under the
#     same router (`hcexp -sweep ...;shards=N;router=R`). One task per
#     request routes each task on the views the previous decision left, as
#     the offline cluster does, so online == offline holds for every policy;
#  2. within tolerance of the unsharded simulator (`hcsim`). Sharding
#     changes the mapper's view (each decision scans shard-local machines
#     only), so this gap is real; staying within a few robustness points of
#     the global scheduler is the architecture's contract (observed gap
#     1.00 pp at 4 shards under p2c, tolerance 3 pp in CI).
#
# Usage: scripts/shard_smoke.sh [shards] [router] [tolerance_pp]
set -euo pipefail

SHARDS="${1:-4}"
ROUTER="${2:-p2c}"
TOL="${3:-3}"
PROFILE=video
TASKS=30000
SCALE=0.05
SEED=1
ADDR=127.0.0.1:18184

. "$(dirname "$0")/lib.sh"
smoke_build hcsim hcexp hcserve hcload

offline=$("$BIN/hcsim" -profile "$PROFILE" -mapper PAM -dropper heuristic \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" | awk '/^robustness/{print $2}')
echo "offline robustness:   $offline % (unsharded)"

# The sweep table's one data row; robustness is the field before its first ±.
cluster=$("$BIN/hcexp" -q -trials 1 -seed "$SEED" -scale "$SCALE" \
    -sweep "profile=$PROFILE;mapper=PAM;dropper=heuristic;tasks=$TASKS;shards=$SHARDS;router=$ROUTER" |
    awk -v p="$PROFILE" '$1 == p { for (i = 2; i <= NF; i++) if ($i == "±") { print $(i-1); exit } }')
echo "offline robustness:   $cluster % ($SHARDS-shard cluster, $ROUTER)"

"$BIN/hcserve" -addr "$ADDR" -profile "$PROFILE" -mapper PAM -dropper heuristic \
    -shards "$SHARDS" -router "$ROUTER" -boundary 100 &
SERVER_PID=$!
wait_http "http://$ADDR/healthz"

out=$("$BIN/hcload" -addr "http://$ADDR" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -batch 1)
echo "$out"
online=$(echo "$out" | awk '/^achieved robustness/{print $3}')

echo "online ($SHARDS shards, $ROUTER): $online %"
if [ -z "$online" ] || [ "$online" != "$cluster" ]; then
    echo "online $online % != offline $SHARDS-shard cluster $cluster %" >&2
    exit 1
fi
awk -v a="$offline" -v b="$online" -v tol="$TOL" 'BEGIN {
    d = a - b; if (d < 0) d = -d
    printf "gap to unsharded:     %.2f pp (tolerance %.1f)\n", d, tol
    exit (d <= tol) ? 0 : 1
}'
