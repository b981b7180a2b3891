#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload uts-ipc --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory: the Go build cache, the binary, and the run files.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
"$build/perfbench" "$@"
