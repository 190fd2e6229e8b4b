#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 45 --trace 0
#
# The Go build cache, the go command's config directory (telemetry), the
# binary and traced-run output stay under .bench_build/ in the current
# directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
