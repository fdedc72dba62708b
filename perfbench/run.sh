#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hdr_fastpath --seed 1 --seconds 30 --trace 0
#
# The build cache and the binary live under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" == /* ]] || out="$root/$out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
