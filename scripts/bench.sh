#!/usr/bin/env sh
# Run the regression-tracked benchmark set and record benchmarks/latest.txt.
#
# Each benchmark runs a fixed iteration count (-benchtime=Nx)
# instead of a time budget: fixed counts keep the amount of allocated
# memory identical run to run, so GC cycles land in the same places and
# ns/op comparisons are not skewed by GOGC pacing differences between the
# baseline and the candidate.
#
# Configuration (environment):
#   BENCH_COUNT     -count repetitions (default: 3)
#
# For an ad-hoc run of other benchmarks, call `go test -bench` directly.
#
# The default set covers the hot kernels (PIL join, the start level the
# miners build by joins, support counting, e_m measurement, one full
# mining level, a small end-to-end run) rather than the full
# paper-reproduction suite, which is slow and better run explicitly via
# `make bench`. The direct scan (BenchmarkScanK) is left out: no miner
# calls it.
set -eu

cd "$(dirname "$0")/.."

# Three runs per benchmark: bench-check compares fastest-of-N per side,
# which filters scheduler noise a single run cannot.
BENCH_COUNT="${BENCH_COUNT:-3}"

mkdir -p benchmarks

# Write to a temp file and rename at the end: an interrupted or failed run
# must never leave a partial benchmarks/latest.txt for bench-check to
# compare against.
tmp="benchmarks/.latest.txt.tmp"
trap 'rm -f "$tmp"' EXIT INT TERM
: > "$tmp"

# Fixed-iteration groups: "pattern  iterations  package". Iteration
# counts are sized to ~0.1-2s per benchmark on the reference machine.
# EmOrder8 (one worker) and EmWideGap (split over GOMAXPROCS) only:
# the m=10 variant is too noisy to regression-gate at these budgets.
# AblationNoPrune is the only tracked run of the enumeration baseline
# (the level loop's exhaustive mode), which no end-to-end workload
# runs; the other Ablation benchmarks are too noisy to gate.
# JoinStrategies counts a level of dense 20 kb lists, where auto takes
# the dense cumulative table; JoinStrategiesSparse one of the genome
# workload's long sparse lists, where it takes the compact layout.
# MineE2E reuses the working set each mine releases, as back-to-back
# mines in one process do; MineE2ECold bypasses the pools, as the one
# mine of a cmd/mpp process does, so a slower cold path is gated too.
groups='
BenchmarkPILJoin$       100000x .
BenchmarkSupport$       1000x   .
BenchmarkEmOrder8$      10x     .
BenchmarkEmWideGap$     10x     .
BenchmarkAblationNoPrune$ 2x    .
BenchmarkSeed$          500x    ./internal/mine
BenchmarkMineLevel$     100x    ./internal/mine
BenchmarkJoinStrategies$  200x  ./internal/mine
BenchmarkJoinStrategiesSparse$ 5x ./internal/mine
BenchmarkMineE2E$       5x      ./internal/mine
BenchmarkMineE2ECold$   5x      ./internal/mine
BenchmarkTopK$          5x      ./internal/query
BenchmarkCacheFilter$   200x    ./internal/query
'
echo "$groups" | while read -r pattern iters pkg; do
    [ -n "$pattern" ] || continue
    echo "running benchmarks: -bench '${pattern}' -benchtime ${iters} ${pkg}" >&2
    go test -run '^$' -bench "${pattern}" -benchtime "${iters}" \
        -count "${BENCH_COUNT}" -benchmem "${pkg}" | tee -a "$tmp"
done

if ! grep -q '^Benchmark.* ns/op' "$tmp"; then
    echo "bench.sh: run produced no benchmark results; keeping previous benchmarks/latest.txt" >&2
    exit 1
fi
mv "$tmp" benchmarks/latest.txt
trap - EXIT INT TERM
echo "wrote benchmarks/latest.txt" >&2
