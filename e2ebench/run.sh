#!/usr/bin/env bash
# Builds cmd/serve, cmd/gateway and the benchmark driver from source, then
# runs the driver with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload hot-swap --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory, the Go build cache included.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/serve ] || [ ! -d cmd/gateway ]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/serve and cmd/gateway not found)" >&2
	exit 2
fi
root=$(pwd)
out=.bench_build/e2ebench
mkdir -p "$out/bin" "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$root/$out/cache/go-build" GOMODCACHE="$root/$out/cache/mod" GOPATH="$root/$out/cache/gopath"
export GOTMPDIR="$root/$out/tmp" XDG_CONFIG_HOME="$root/$out/config" XDG_CACHE_HOME="$root/$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -trimpath -o "$out/bin/" ./cmd/serve ./cmd/gateway
(cd e2ebench && go build -trimpath -o "../$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" "$@"
