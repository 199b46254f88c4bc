#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments it
# was given:
#
#   bash benchmark/run.sh --workload batch_join --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# under .bench_build/ in the checkout root; a traced run writes its spans to
# benchmark/out/. Nothing outside the checkout is read or written.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME keeps the go command's own counters file inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= XDG_CONFIG_HOME="$build/config"

# The benchmark is its own module (benchmark/go.mod) that replaces the
# engine's module with the checkout, so this fails, as it should, in a
# directory that holds the benchmark but not the engine.
(cd "$here" && go build -o "$build/roulette-benchmark" .)

exec "$build/roulette-benchmark" --out "$here/out" --contract "$root/BENCHMARK.json" "$@"
