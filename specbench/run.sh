#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash specbench/run.sh --workload relay-10k --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, binary and span dumps all live in
# .bench_build at the repository root, so the run reads and writes nothing
# outside the checkout. The build fails, and the script exits non-zero
# without printing a result, when the repository's sources are absent.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd "$here" && go build -buildvcs=false -o "$out/specbench" .)
cd "$root"
exec "$out/specbench" "$@"
