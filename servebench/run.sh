#!/usr/bin/env bash
# Builds and runs the serving benchmark from the repository root:
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build output and the Go build cache stay under .bench_build/ in the
# checkout; nothing is downloaded.
set -euo pipefail
if [[ ! -f go.mod || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the repository root" >&2
	exit 2
fi
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOMAXPROCS=2
mkdir -p "$GOTMPDIR"
(cd servebench && go build -o "$root/.bench_build/servebench" .)
exec "$root/.bench_build/servebench" "$@"
