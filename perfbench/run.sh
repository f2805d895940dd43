#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload fit-lr --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write (the Go build cache, the binary and
# the trace spans) stays under .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
