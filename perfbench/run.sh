#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-8k --seed 1 --seconds 25 --trace 0
#
# Every build artefact (binary, Go build cache) lands in .bench_build/ and
# every run file (state dirs, span dumps) in .bench_run/, both under the
# current directory. The result is the last line of standard output.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The go command's config and telemetry files follow XDG_CONFIG_HOME.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -rundir "$root/.bench_run" "$@"
