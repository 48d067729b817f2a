#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build and the run write stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
  # The go command is not started at all here: nothing to build, no process.
  echo "bench/run.sh: no go.mod in $PWD: the program under test is not in this checkout" >&2
  exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
# A go command with telemetry in its default "local" mode starts a detached
# child (the upload sidecar) the first time it sees a fresh config directory,
# and that child outlives the build. "off" makes the go command start none.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
