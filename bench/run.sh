#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload plan-direct-large --seed 1 --seconds 15 --trace 0
#
# Everything written — the Go build cache, the binary, journals, traces —
# stays inside the checkout, under .bench_build/ and bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

# The driver is its own module (bench/go.mod) that replaces "repro" with the
# repository root, so it needs the rest of the tree to build.
if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: $root/go.mod not found: the benchmark builds against the repository it sits in" >&2
	exit 3
fi

mkdir -p "$build/gocache" "$build/gotmp" "$build/run"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" -dir "$build/run" -out "$here/out" "$@"
