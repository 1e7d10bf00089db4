#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload dblp-query --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache,
# temporary files, snapshots and traces all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
# Heap pages the garbage collector frees are released with MADV_FREE, so
# the next operation reuses them without a page fault: a full dblp Mine
# otherwise refaults about 100 MB of freshly zeroed pages, a cost set by
# the memory pressure of other tenants on the host rather than by the
# program (README.md, "Page reuse").
export GODEBUG=madvdontneed=0
exec "$build/perfbench" "$@"
