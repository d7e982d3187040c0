#!/usr/bin/env bash
# Builds the benchmark and valmod-serve from this checkout into .bench_build
# at the repository root, then runs the benchmark with the given arguments:
#
#   bash bench/run.sh -workload pairs-n20k -seed 1 -seconds 10 -trace 0
#   bash bench/run.sh -all -runs 3 -seed 1 -out set.json
#   bash bench/run.sh compare old.json new.json
#
# Everything it writes (binaries, the Go build cache, scratch files) stays
# under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(
	cd "$root/bench"
	go build -o "$build/valmod-bench" .
	go build -o "$build/valmod-serve" github.com/seriesmining/valmod/cmd/valmod-serve
)
if [ "${1:-}" = compare ]; then
	exec "$build/valmod-bench" "$@"
fi
exec "$build/valmod-bench" -serve-bin "$build/valmod-serve" -work-dir "$build/work" "$@"
