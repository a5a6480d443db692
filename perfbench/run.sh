#!/usr/bin/env bash
# Builds and runs the simulator's benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload chat_sweep --seed 1 --seconds 25 --trace 0
#
# perfbench is a Go module of its own whose go.mod points the simulator
# module at the checkout it sits in, so the benchmark always measures
# the code next to it. The build cache, temporary files and the binary
# all live under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a skip checkout (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the go command writes (build cache, module cache,
# temporary files, telemetry counters) inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
