#!/usr/bin/env bash
# Builds the benchmark (module repro/bench, which imports the simulator's
# packages from the checkout it sits in) and runs it from the checkout root.
# Everything the build writes stays inside the checkout, under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go -C "$here" build -o "$build/naming-bench" .
cd "$root"
# madvdontneed=0: the Go runtime hands freed heap back with MADV_FREE, so the
# pages stay mapped between repetitions instead of being faulted in again
# (18 000 page faults per repetition otherwise, each at the hypervisor's mercy).
exec env GODEBUG=madvdontneed=0 "$build/naming-bench" "$@"
