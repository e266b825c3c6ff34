#!/usr/bin/env sh
# Compare benchmarks/latest.txt against benchmarks/baseline.txt and fail on
# per-benchmark regressions:
#
#   - ns/op above BENCH_MAX_REGRESSION_PCT (default 5) over the baseline,
#     fastest run against fastest run;
#   - B/op or allocs/op above a bound set from the baseline's own spread.
#     Under bench.sh's fixed iteration counts a benchmark's allocations
#     repeat closely from run to run (allocs/op within a few, B/op within
#     about 2%), so a rise beyond that spread is a change to the code, not
#     to the machine. The bound is the baseline's largest value plus the
#     larger of its spread (largest minus smallest) and a floor:
#     ALLOC_FLOOR allocs, BYTES_FLOOR_PCT percent of the bytes, or a
#     benchmark's own floor from OWN_FLOORS. The latest run's smallest
#     value must not pass it.
#
# A missing latest run is a skip, not a failure, so fresh checkouts pass
# `make check` without a mandatory benchmark run. A missing baseline is an
# error — the repo commits one, so its absence means a broken checkout —
# and so is a present-but-empty result file (an interrupted run), rather
# than silently comparing against garbage. Benchmarks present on only one
# side are reported but never fatal (the set evolves); only a matched
# benchmark that slowed down beyond the threshold fails the check.
set -eu

cd "$(dirname "$0")/.."

MAX_PCT="${BENCH_MAX_REGRESSION_PCT:-5}"

# The allocation floors: how far above the baseline's largest value a
# benchmark's allocations may rise when its baseline runs agree closely.
ALLOC_FLOOR=3
BYTES_FLOOR_PCT=2

# A benchmark whose allocations move from run to run needs a floor as
# wide as its moves, since three baseline runs can miss them. Work
# stealing decides which worker's arena takes a join, and so how many
# slabs grow, and which worker's kept cumulative tables a suffix run
# lands on, and so whether their arrays must grow; the e_m sweep's
# chunks take pooled tables in either order. Each floor is the widest spread (largest minus
# smallest) seen over two bench.sh runs, three counts each, of the code
# and of its predecessor, rounded up: "name measure floor", in allocs or
# bytes.
OWN_FLOORS='
BenchmarkMineLevel                   B       49152
BenchmarkMineE2E                     B       2097152
BenchmarkMineE2E                     allocs  512
BenchmarkMineE2ECold                 allocs  16
BenchmarkAblationNoPrune             allocs  16
BenchmarkTopK                        B       2097152
BenchmarkTopK                        allocs  512
BenchmarkEmWideGap                   B       131072
BenchmarkJoinStrategiesSparse/auto   B       6291456
BenchmarkJoinStrategiesSparse/auto   allocs  12
BenchmarkJoinStrategiesSparse/twoptr B       4194304
BenchmarkJoinStrategiesSparse/twoptr allocs  6
'

if [ ! -f benchmarks/baseline.txt ]; then
    echo "bench-check: benchmarks/baseline.txt is missing — it is committed with the repo," >&2
    echo "bench-check: so this checkout is incomplete (restore it, or re-promote one with scripts/bench-update.sh)" >&2
    exit 1
fi
if [ ! -f benchmarks/latest.txt ]; then
    echo "bench-check: no benchmarks/latest.txt; skipping (run scripts/bench.sh to record a run)" >&2
    exit 0
fi

# Both files must contain at least one parseable benchmark line; anything
# else is a truncated or corrupt file, not a comparable run.
for f in benchmarks/baseline.txt benchmarks/latest.txt; do
    if ! grep -q '^Benchmark.* ns/op' "$f"; then
        echo "bench-check: $f contains no 'Benchmark... ns/op' lines (interrupted or corrupt run)" >&2
        echo "bench-check: re-record it with scripts/bench.sh before comparing" >&2
        exit 1
    fi
done

awk -v max_pct="$MAX_PCT" -v alloc_floor="$ALLOC_FLOOR" -v bytes_pct="$BYTES_FLOOR_PCT" \
    -v own_floors="$OWN_FLOORS" '
    # Benchmark lines look like:
    #   BenchmarkPILJoin  43352  2668 ns/op  [x unit ...]  1234 B/op  5 allocs/op
    # Strip -cpu suffixes so baselines move across machines; with -count>1
    # keep, per name and side, the fastest ns/op and the smallest and
    # largest B/op and allocs/op.
    function keep(tbl, key, v) {
        if (!((key, "lo") in tbl) || v < tbl[key, "lo"]) tbl[key, "lo"] = v
        if (!((key, "hi") in tbl) || v > tbl[key, "hi"]) tbl[key, "hi"] = v
    }
    function record(tbl, names, name,    i) {
        sub(/-[0-9]+$/, "", name)
        names[name] = 1
        for (i = 4; i <= NF; i++) {
            if ($i == "ns/op") keep(tbl, name SUBSEP "ns", $(i-1))
            else if ($i == "B/op") keep(tbl, name SUBSEP "B", $(i-1))
            else if ($i == "allocs/op") keep(tbl, name SUBSEP "allocs", $(i-1))
        }
    }
    BEGIN {
        n = split(own_floors, rows, "\n")
        for (i = 1; i <= n; i++)
            if (split(rows[i], f, " ") == 3) own[f[1], f[2]] = f[3]
    }
    # allocCheck gates one allocation measure of name against the
    # baseline spread; floor is the default bound floor above the largest
    # value, which the table of own floors overrides.
    function allocCheck(name, m, unit, floor,    k, hi, lo, got, bound) {
        k = name SUBSEP m
        if (!((k, "lo") in base) || !((k, "lo") in latest)) return 0
        hi = base[k, "hi"]; lo = base[k, "lo"]; got = latest[k, "lo"]
        if (k in own) floor = own[k]
        bound = hi + (hi - lo > floor ? hi - lo : floor)
        if (got > bound) {
            printf "bench-check: %-40s %12.0f -> %12.0f %-9s bound %.0f  REGRESSION\n", \
                name, hi, got, unit, bound
            return 1
        }
        return 0
    }
    FNR == 1 { side++ }
    /^Benchmark/ && $4 == "ns/op" {
        if (side == 1) record(base, basenames, $1); else record(latest, latestnames, $1)
    }
    END {
        status = 0
        for (name in latestnames) {
            if (!(name in basenames)) {
                printf "bench-check: %-40s new (no baseline)\n", name
                continue
            }
            b = base[name, "ns", "lo"]; l = latest[name, "ns", "lo"]
            pct = (l - b) * 100.0 / b
            if (pct > max_pct) {
                printf "bench-check: %-40s %12.0f -> %12.0f ns/op  %+7.1f%%  REGRESSION (> %s%%)\n", \
                    name, b, l, pct, max_pct
                status = 1
            } else {
                printf "bench-check: %-40s %12.0f -> %12.0f ns/op  %+7.1f%%  ok\n", \
                    name, b, l, pct
            }
            if (allocCheck(name, "allocs", "allocs/op", alloc_floor)) status = 1
            if (allocCheck(name, "B", "B/op", base[name, "B", "hi"] * bytes_pct / 100)) status = 1
        }
        for (name in basenames) if (!(name in latestnames))
            printf "bench-check: %-40s dropped from latest run\n", name
        exit status
    }
' benchmarks/baseline.txt benchmarks/latest.txt
