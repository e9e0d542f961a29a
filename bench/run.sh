#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds bench/hcbench from this
# checkout and runs it, arguments unchanged. The Go build cache is kept
# inside the checkout (bench/.build, which .gitignore names) so that a run
# reads and writes nothing outside it, and hcbench replaces this shell so
# that a signal sent to the command reaches the process that must stop the
# servers.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/.build/gocache" GOTOOLCHAIN=local
go build -C "$here" -o .build/bin/hcbench ./hcbench
exec "$here/.build/bin/hcbench" "$@"
