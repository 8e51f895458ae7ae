#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload list-asf-8c --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product and Go cache lives under
# .bench_build/ in the current directory, so nothing outside it is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

# One compile job at a time keeps the build's memory small on a shared host.
build() { (cd "$root/perfbench" && go build -p 1 -o "$out/perfbench" .); }

# A build that fails is tried once more from an empty cache, so that a
# compile killed from outside or a damaged cache entry does not fail the
# run; a build that fails twice does.
if ! build; then
	echo "perfbench: build failed; cleaning the build cache and trying once more" >&2
	go clean -cache || true
	build
fi

exec "$out/perfbench" "$@"
