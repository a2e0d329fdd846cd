#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#   bash perfbench/run.sh --workload pubsub-dense --seed 1 --seconds 20 --trace 0
# Every build product, cache and scratch file stays under .bench_build
# (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config" "$out/scratch"

# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout too.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod XDG_CONFIG_HOME=$out/config
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --scratch "$out/scratch" "$@"
