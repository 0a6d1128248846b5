#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-local --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory: the Go build cache,
# temporary files, the binary, and the traced run's span files.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

# The toolchain's telemetry counters live under XDG_CONFIG_HOME; keep
# them off so the build writes nothing else.
go telemetry off >/dev/null 2>&1 || true

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
