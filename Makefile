# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short vet race check cover bench bench-baseline bench-check slo-check overload-check fuzz-short e2e-smoke experiments verify examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/async/ ./internal/cluster/... ./internal/corpus/... ./internal/frame/ ./internal/mine/ ./internal/obs/ ./internal/server/... ./internal/pil/ ./internal/embound/ ./internal/pool/ ./internal/seq/ ./cmd/permined/

# The full pre-merge gate: build, vet, tests, the race detector over
# the concurrent packages, a short fuzz pass over the PIL invariants,
# the end-to-end harness's own tests, and the benchmark regression check.
check: build vet test race fuzz-short e2e-smoke bench-check

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Record the regression-tracked kernel benchmarks into benchmarks/latest.txt.
bench-baseline:
	sh scripts/bench.sh

# Compare benchmarks/latest.txt against the promoted baseline: ns/op
# (BENCH_MAX_REGRESSION_PCT, default 5), B/op, allocs/op and pil-MB/op
# (bounds from the baseline's spread; see the script); skips when no
# latest run exists.
bench-check:
	sh scripts/bench-check.sh

# Latency SLO gate: boot a throwaway daemon, drive it with scripts/loadgen
# at a fixed RPS, fail when measured p99 exceeds SLO_TARGET_P99_MS
# (default 250). Includes a negative control proving the gate can fail.
slo-check:
	sh scripts/slo-check.sh

overload-check:
	sh scripts/overload-check.sh

# Short fuzz pass over the PIL list invariants (Join window semantics,
# arena/heap join equivalence), the frame codec that WAL replay and
# the cluster wire protocol share, and the cache's derivations (an answer
# derived from a cached mine at another threshold equals a fresh mine).
# Go allows one -fuzz target per invocation, hence the separate runs.
FUZZTIME ?= 5s
fuzz-short:
	$(GO) test ./internal/pil/ -run '^$$' -fuzz 'FuzzJoin$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pil/ -run '^$$' -fuzz 'FuzzJoinOracle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/frame/ -run '^$$' -fuzz 'FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query/ -run '^$$' -fuzz 'FuzzSubsumptionFilter$$' -fuzztime $(FUZZTIME)

# The end-to-end benchmark is a module of its own (benchmarks/e2e), so
# the root's `go test ./...` skips it. Its tests build the harness against
# the miner's current API and mine every workload at -quick scale,
# checking each output against the reference mine.
e2e-smoke:
	cd benchmarks/e2e && $(GO) test ./...

# Regenerate every table and figure of the paper (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -all | tee experiments_output.txt

# Re-check the 14 qualitative shape claims.
verify:
	$(GO) run ./cmd/experiments -verify

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/protein
	$(GO) run ./examples/events
	$(GO) run ./examples/models
	$(GO) run ./examples/dnacase

clean:
	$(GO) clean ./...
