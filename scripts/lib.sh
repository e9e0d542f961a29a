# Shared preamble of the smoke scripts: build the binaries under test into
# a temp dir, hand out scratch dirs, wait for a daemon's health endpoint,
# and on exit SIGKILL whatever daemon is still up and remove every temp
# dir. Source it right after `set -euo pipefail`, from the repo root:
#
#   . "$(dirname "$0")/lib.sh"
#   smoke_build hcsim hcserve hcload   # -> $BIN/hcsim, $BIN/hcserve, ...
#   smoke_tmpdir JDIR                  # -> $JDIR
#   "$BIN/hcserve" ... & SERVER_PID=$!
#   wait_http "http://$ADDR/healthz"
#
# Daemons are tracked by variable name: on exit every PID still held in a
# variable listed in SMOKE_PIDS (default: SERVER_PID) is killed, so a
# script clears the variable once it has stopped the daemon itself.

SMOKE_PIDS="SERVER_PID"
SMOKE_DIRS=()

smoke_cleanup() {
    local v
    for v in $SMOKE_PIDS; do
        [ -n "${!v:-}" ] && kill -9 "${!v}" 2>/dev/null || true
    done
    rm -rf ${SMOKE_DIRS[@]+"${SMOKE_DIRS[@]}"}
}
trap smoke_cleanup EXIT

# smoke_tmpdir VAR — create a temp dir, removed on exit, and name it VAR.
smoke_tmpdir() {
    local d
    d="$(mktemp -d)"
    SMOKE_DIRS+=("$d")
    printf -v "$1" %s "$d"
}

# smoke_build CMD... — build ./cmd/CMD... into a fresh $BIN.
smoke_build() {
    smoke_tmpdir BIN
    go build -o "$BIN" "${@/#/./cmd/}"
}

# wait_http URL — block until URL answers 200 (20 s at most).
wait_http() {
    for _ in $(seq 1 100); do
        curl -sf "$1" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "no 200 from $1" >&2
    return 1
}
