#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments. Run from the repository
# root, for example:
#
#   bash benchmarks/e2e/run.sh --workload paper --seed 1 --seconds 15 --trace 0
#   bash benchmarks/e2e/run.sh compare before.jsonl after.jsonl
#
# The Go build cache, temporary files, the binary and the daemon's journal
# all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmarks/e2e/go.mod" ]; then
	echo "e2e: run from the repository root (needs go.mod and benchmarks/e2e/go.mod)" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE=$out/cache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/benchmarks/e2e" && go build -o "$out/e2e" .)
exec "$out/e2e" "$@"
