#!/usr/bin/env bash
# Builds the harness (a module of its own, bench/go.mod, over the program's
# packages in the parent directory) and runs it with the arguments given.
# The binary, the Go build cache and every temporary file stay under
# bench/out/, which git ignores. Run from the repository root:
#   bash bench/run.sh --workload ingest_http --seed 1 --seconds 26 --trace 0
set -euo pipefail
build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config" # the go tool's counters and env file
(cd bench && go build -o "$build/acobe-bench" .)
exec "$build/acobe-bench" "$@"
