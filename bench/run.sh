#!/usr/bin/env bash
# Builds cs31bench and the labd daemon from this checkout's sources, then
# runs the benchmark with the given arguments, for example:
#
#   bash bench/run.sh --workload classroom-repeat --seed 1 --seconds 25 --trace 0
#
# Binaries, the Go build cache and trace files stay under .bench_build/ in
# the checkout, so nothing is written outside it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d cmd/labd || ! -d internal/labd ]]; then
	echo "cs31bench: $root holds no cs31 sources (go.mod, cmd/labd, internal/labd)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/bin"
export GOCACHE="$root/$out/gocache"
export GOMODCACHE="$root/$out/gomodcache"
export XDG_CONFIG_HOME="$root/$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/labd" ./cmd/labd
(cd bench && go build -o "../$out/bin/cs31bench" ./cmd/cs31bench)
exec "$out/bin/cs31bench" -labd "$out/bin/labd" "$@"
