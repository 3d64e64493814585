#!/usr/bin/env bash
# Builds idled and the perfbench program from the checkout this script
# sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload hot_decide --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, Go cache entry,
# area file and audit log stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/idled" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/idled and perfbench/ must exist)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gopath" "$out/config"
# The go command's cache, temporary files, module path and user config
# (where it keeps telemetry counters) all point into the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/idled" ./cmd/idled
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -idled "$out/idled" -work "$out/run" "$@"
