#!/usr/bin/env bash
# Replay-determinism smoke: run a journaling hcserve through a full load,
# shut it down gracefully with SIGTERM, and require (1) `hcreplay -verify`
# to re-derive every commit digest and checkpoint the log retains (record
# format 5: one CRC-checked frame per commit, its inputs and the digest of
# what they derive, so a log ending without that digest fails
# verification), (2) the audit mode to refuse a decision the checkpoints
# trimmed, naming the oldest one it can explain, (3) to explain that one
# from the log alone and match its commit's digest, and (4) a copy of
# the log cut inside the drain's commit, as a kill -9 there leaves it, to
# verify and recover.
#
# Usage: scripts/replay_smoke.sh
set -euo pipefail

PROFILE=video
TASKS=30000
SCALE=0.05
SEED=1
ADDR=127.0.0.1:18190

. "$(dirname "$0")/lib.sh"
smoke_build hcserve hcload hcreplay
smoke_tmpdir JDIR

"$BIN/hcserve" -addr "$ADDR" -profile "$PROFILE" -mapper PAM -dropper heuristic \
    -shards 2 -router rr -journal-dir "$JDIR" -fsync interval -snapshot-every 100 &
SERVER_PID=$!
wait_http "http://$ADDR/healthz"

"$BIN/hcload" -addr "http://$ADDR" -profile "$PROFILE" \
    -tasks "$TASKS" -scale "$SCALE" -seed "$SEED" -no-drain

echo "stopping server (pid $SERVER_PID) with SIGTERM"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
SERVER_PID=""

verify=$("$BIN/hcreplay" -dir "$JDIR" -verify)
echo "$verify"
if ! echo "$verify" | grep -q "journal verified"; then
    echo "FAIL: verification did not pass" >&2
    exit 1
fi

# Every checkpoint deletes the history behind the one before it, so at
# -snapshot-every 100 decision 100 is long gone: the audit must refuse it
# and name the oldest sequence number shard 0's retained log can explain.
if early=$("$BIN/hcreplay" -dir "$JDIR" -shard 0 -decision 100 2>&1); then
    echo "FAIL: audit of decision 100 succeeded on a trimmed log" >&2
    exit 1
fi
echo "$early"
oldest=$(echo "$early" | sed -n 's/.*precedes the retained log.*oldest auditable sequence number: \([0-9]*\).*/\1/p')
[ -n "$oldest" ] || { echo "FAIL: audit of decision 100 did not say it precedes the retained log" >&2; exit 1; }

audit=$("$BIN/hcreplay" -dir "$JDIR" -shard 0 -decision "$oldest")
echo "$audit"
echo "$audit" | grep -q "replayed decision:" || { echo "FAIL: audit produced no decision" >&2; exit 1; }
echo "$audit" | grep -q "derived:           decision seq=$oldest " || { echo "FAIL: audit re-derived no decision" >&2; exit 1; }
echo "$audit" | grep -q "commit digest:     matched" || { echo "FAIL: the decision's commit digest did not match" >&2; exit 1; }

# (4) A kill -9 inside the drain: on a copy of the log, drop each shard's
# final checkpoint and the empty segment after it, and cut 100 bytes off the
# segment the drain wrote. The drain's marker and events are one commit, so
# the cut tears its frame and the commit vanishes whole, leaving the log the
# commits before it: the copy must verify, and hcserve must recover it and
# turn ready.
smoke_tmpdir CUT
cp -r "$JDIR"/. "$CUT"
for d in "$CUT"/shard-*; do
    last_seg=$(ls "$d"/seg-*.wal | tail -n 1)
    [ ! -s "$last_seg" ] || { echo "FAIL: $last_seg after the final checkpoint is not empty" >&2; exit 1; }
    rm "$(ls "$d"/snap-*.snap | tail -n 1)" "$last_seg"
    truncate -s -100 "$(ls "$d"/seg-*.wal | tail -n 1)"
done
"$BIN/hcreplay" -dir "$CUT" -verify || { echo "FAIL: a log cut inside the drain did not verify" >&2; exit 1; }
CUT_ADDR=127.0.0.1:18191
"$BIN/hcserve" -addr "$CUT_ADDR" -profile "$PROFILE" -mapper PAM -dropper heuristic \
    -shards 2 -router rr -journal-dir "$CUT" -fsync interval -snapshot-every 100 &
SERVER_PID=$!
wait_http "http://$CUT_ADDR/readyz" || { echo "FAIL: hcserve did not recover a log cut inside the drain" >&2; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
SERVER_PID=""
"$BIN/hcreplay" -dir "$CUT" -verify | grep -q "journal verified" || { echo "FAIL: the recovered log did not verify" >&2; exit 1; }
