package mine

import (
	"context"
	"runtime"
	"testing"

	"permine/internal/combinat"
	"permine/internal/core"
	seqgen "permine/internal/gen"
	"permine/internal/pil"
)

// benchRunner builds an MPP runner with n = 10 over the realistic DNA
// workload the level benchmarks run on: a genome-like sequence (biased
// composition, so PIL sizes are imbalanced across patterns), mined with
// p on NumCPU workers.
func benchRunner(b *testing.B, length int, p core.Params) *runner {
	b.Helper()
	s, err := seqgen.GenomeLike(length, 42)
	if err != nil {
		b.Fatal(err)
	}
	p.Workers = runtime.NumCPU()
	p, err = p.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	counter, err := combinat.NewCounter(s.Len(), p.Gap)
	if err != nil {
		b.Fatal(err)
	}
	res := &core.Result{Algorithm: core.AlgoMPP, Params: p, SeqLen: s.Len(), N: 10}
	return &runner{s: s, p: p, counter: counter, n: 10, res: res}
}

// benchLevelFixture seeds the benchmark runner at level k under the given
// gap and join strategy, keeping every non-zero pattern.
func benchLevelFixture(b *testing.B, length, k int, g combinat.Gap, join core.JoinStrategy) (*runner, []hatEntry) {
	b.Helper()
	r := benchRunner(b, length, core.Params{Gap: g, MinSupport: 0, StartLen: k, Join: join})
	return r, r.seed() // budgeting enabled, as in real runs
}

// runLevelBench drives one full level of the level-wise miner (candidate
// generation + work-stealing support counting) b.N times on a fixture
// seeded at level k.
func runLevelBench(b *testing.B, r *runner, hat []hatEntry, k int) {
	b.Helper()
	ctx := context.Background()
	cut := r.thresholds(k + 1).cut
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var st levelStats
		cands := r.gen(hat)
		counted := r.countCandidates(ctx, k+1, hat, cands, cut, &st)
		if r.err != nil {
			b.Fatal(r.err)
		}
		if len(counted) == 0 {
			b.Fatal("no candidates survived")
		}
	}
}

// BenchmarkMineLevel measures one level on an imbalanced level-3 DNA hat
// with Workers = NumCPU under the default (auto) join selection.
func BenchmarkMineLevel(b *testing.B) {
	r, hat := benchLevelFixture(b, 20000, 3, combinat.Gap{N: 9, M: 12}, core.JoinAuto)
	runLevelBench(b, r, hat, 3)
}

// BenchmarkJoinStrategies pins each join strategy on a small-window
// workload where every strategy runs for real (the span fits the dense
// table's cap), so the per-kernel costs (and the auto selector's pick)
// compare directly from one bench run. Its lists are dense, so auto and
// cum read the dense layout; BenchmarkJoinStrategiesSparse covers the
// compact one.
func BenchmarkJoinStrategies(b *testing.B) {
	for _, join := range []core.JoinStrategy{core.JoinAuto, core.JoinTwoPointer, core.JoinCum} {
		b.Run(join.String(), func(b *testing.B) {
			r, hat := benchLevelFixture(b, 20000, 1, combinat.Gap{N: 9, M: 10}, join)
			runLevelBench(b, r, hat, 1)
		})
	}
}

// benchPrunedFixture builds the benchmark runner's hat of level k as a
// mine reaches it: seeded at the default StartLen, then every level
// counted against its L̂ cut and collected, at support ratio rho.
func benchPrunedFixture(b *testing.B, length, k int, g combinat.Gap, rho float64, join core.JoinStrategy) (*runner, []hatEntry) {
	b.Helper()
	r := benchRunner(b, length, core.Params{Gap: g, MinSupport: rho, Join: join})
	i := r.p.StartLen
	hat := r.collectLevel(i, sigmaPow(r.s.Alphabet().Size(), i), r.seed(), r.thresholds(i), levelStats{})
	for ; i < k; i++ {
		var st levelStats
		th := r.thresholds(i + 1)
		cands := r.gen(hat)
		counted := r.countCandidates(context.Background(), i+1, hat, cands, th.cut, &st)
		if r.err != nil {
			b.Fatal(r.err)
		}
		hat = r.collectLevel(i+1, int64(len(cands)), counted, th, st)
	}
	return r, hat
}

// BenchmarkJoinStrategiesSparse counts level 6 of the genome workload's
// regime (GenomeLike 100 kb, gap [10,12], ρs = 0.006%) against its L̂ cut:
// long sparse lists, where auto takes the compact table layout for most
// joins and the dense one for the rest, against the two-pointer merge.
func BenchmarkJoinStrategiesSparse(b *testing.B) {
	for _, join := range []core.JoinStrategy{core.JoinAuto, core.JoinTwoPointer} {
		b.Run(join.String(), func(b *testing.B) {
			r, hat := benchPrunedFixture(b, 100_000, 5, combinat.Gap{N: 10, M: 12}, 0.00006, join)
			runLevelBench(b, r, hat, 5)
		})
	}
}

// BenchmarkSeed builds the start level as the miners do, on a fresh
// runner each time: levels 1 to 3 by joins from the length-1 lists
// (GenomeLike 1 kb, gap [9,12], 2 workers).
func BenchmarkSeed(b *testing.B) {
	s, err := seqgen.GenomeLike(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := combinat.Gap{N: 9, M: 12}
	p, err := core.Params{Gap: g, MinSupport: 0.00003, Workers: 2}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	counter, err := combinat.NewCounter(s.Len(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := &runner{s: s, p: p, counter: counter, res: &core.Result{Algorithm: core.AlgoMPP}}
		if len(r.seed()) == 0 {
			b.Fatal("empty start level")
		}
	}
}

// BenchmarkMineE2E measures a full MPPm mining run end to end. Each run
// gets its own pil.MemTracker, and the mean of their high-water marks is
// reported as pil-MB/op: the PIL memory a memory_budget must cover.
func BenchmarkMineE2E(b *testing.B) {
	s, err := seqgen.GenomeLike(2000, 7)
	if err != nil {
		b.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.00003, EmOrder: 8, Workers: runtime.NumCPU()}
	var high int64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Mem = pil.NewMemTracker(nil)
		res, err := MPPm(s, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
		high += p.Mem.High()
	}
	b.ReportMetric(float64(high)/1e6/float64(b.N), "pil-MB/op")
}
