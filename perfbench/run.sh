#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build output and the Go build cache stay in .bench_build/ under the
# current directory; nothing is fetched.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
