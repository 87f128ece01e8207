#!/usr/bin/env bash
# Builds fase and the benchmark from the sources of this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash fasebench/run.sh --workload survey_lf --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there, the Go build cache included.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/fase ] || [ ! -f fasebench/go.mod ]; then
  echo "fasebench: run from the root of a fase checkout (go.mod, cmd/fase, fasebench/)" >&2
  exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go build -o "$build/fase" ./cmd/fase
go -C fasebench build -o "$build/fasebench" .
exec "$build/fasebench" -fase "$build/fase" -out "$build" "$@"
