#!/usr/bin/env bash
# BENCHMARK.json's command: build the harness from source inside the
# checkout, then run it with the driver's arguments
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build writes stays under .bench_build/ in the checkout:
# the Go build cache, the (empty) module cache and the toolchain's own
# bookkeeping, which would otherwise land in $HOME.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -f ftbarrier.go ]; then
	echo "benchmarks/run.sh: no program to measure here (go.mod, ftbarrier.go missing)" >&2
	exit 2
fi
build="$PWD/.bench_build"
# The go command, given a config directory it has not seen before, detaches
# a telemetry sidecar (its own session, reparented to init) that outlives
# the build. Mode "off" makes it return before it forks, so this script
# starts nothing it does not wait for.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-modcacherw GOTOOLCHAIN=local \
	go build -o "$build/ftbench" ./benchmarks
exec "$build/ftbench" "$@"
