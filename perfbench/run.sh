#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload incast --seed 1 --seconds 10 --trace 0
# Everything it writes (Go build cache, binary, temporary files) stays in
# .bench_build/ at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -tmp "$out/tmp" "$@"
