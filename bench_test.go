// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per exhibit, backed by the internal/exp harness), plus
// micro-benchmarks of the core primitives and ablations of the design
// choices called out in DESIGN.md.
//
// Wall-clock is hardware-dependent; the custom metrics reported via
// b.ReportMetric (candidates counted, patterns found, auto-n, e_m) are the
// implementation-independent shapes EXPERIMENTS.md compares against the
// paper. Run cmd/experiments for the full printed tables/series.
package permine_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"permine"
	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/embound"
	"permine/internal/exp"
	"permine/internal/mine"
	"permine/internal/pil"
)

// benchGap is the paper's default gap requirement [9,12].
var benchGap = permine.Gap{N: 9, M: 12}

// BenchmarkTable2 regenerates the K_r worked example (paper Table 2).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, em, err := exp.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 || em != 2 {
			b.Fatalf("table 2 drifted: %v e_m=%d", rows, em)
		}
	}
}

// BenchmarkFig4a measures MPPm vs MPP worst case across the paper's
// support-threshold sweep (Figure 4(a)); Fig4b's best-case series comes
// from the same harness run.
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFig4(exp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.WorstCand), "worstCand")
		b.ReportMetric(float64(last.MPPmCand), "mppmCand")
		b.ReportMetric(last.WorstSec/last.MPPmSec, "worst/mppm")
	}
}

// BenchmarkFig4b measures MPPm vs MPP best case at the paper's reference
// threshold ρs = 0.003% (Figure 4(b) midpoint).
func BenchmarkFig4b(b *testing.B) {
	s, err := permine.GenerateGenomeLike(1000, 20050711)
	if err != nil {
		b.Fatal(err)
	}
	worst, err := mine.MPP(s, core.Params{Gap: benchGap, MinSupport: 0.00003})
	if err != nil {
		b.Fatal(err)
	}
	no := worst.Longest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, err := mine.MPP(s, core.Params{Gap: benchGap, MinSupport: 0.00003, MaxLen: no})
		if err != nil {
			b.Fatal(err)
		}
		mppm, err := mine.MPPm(s, core.Params{Gap: benchGap, MinSupport: 0.00003, EmOrder: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(best.Patterns)), "patterns")
		b.ReportMetric(float64(mppm.N), "autoN")
	}
}

// BenchmarkTable3 regenerates the per-level candidate counts (Table 3).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunTable3(exp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		var worst, best int64
		for _, r := range rows {
			if r.Worst > 0 {
				worst += r.Worst
			}
			if r.Best > 0 {
				best += r.Best
			}
		}
		b.ReportMetric(float64(worst), "worstCand")
		b.ReportMetric(float64(best), "bestCand")
	}
}

// BenchmarkFig5 sweeps the MPP user estimate n (Figure 5).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFig5(exp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Seconds/rows[0].Seconds, "t(n=60)/t(n=10)")
	}
}

// BenchmarkFig6 sweeps the gap flexibility W (Figure 6).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFig6(exp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Seconds/rows[0].Seconds, "t(W=8)/t(W=4)")
	}
}

// BenchmarkFig7 sweeps the minimum gap N (Figure 7).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFig7(exp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Seconds/rows[0].Seconds, "t(N=12)/t(N=8)")
	}
}

// BenchmarkFig8 sweeps the subject length L (Figure 8, scalability). Uses
// the paper's m = 10 for this exhibit.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFig8(exp.Config{EmOrder: 10})
		if err != nil {
			b.Fatal(err)
		}
		// Linearity indicator: time ratio vs length ratio at the
		// extremes (1 means perfectly linear).
		r := (rows[len(rows)-1].Seconds / rows[0].Seconds) /
			(float64(rows[len(rows)-1].X) / float64(rows[0].X))
		b.ReportMetric(r, "linearity")
	}
}

// BenchmarkCaseStudy regenerates the §7 genome census (quick
// configuration: one genome per class; run cmd/experiments -case for the
// full seven-genome census).
func BenchmarkCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunCaseStudy(exp.CaseConfig{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		at, _, multi := exp.Averages(r.Bacterial)
		b.ReportMetric(at, "bactATonly")
		b.ReportMetric(multi, "bactMultiCG")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core primitives.

// BenchmarkPILJoin measures one prefix/suffix PIL join at the paper's
// default scale, arena-backed as in the miner's hot path (steady state
// must report 0 allocs/op).
func BenchmarkPILJoin(b *testing.B) {
	s, err := permine.GenerateGenomeLike(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	threes, err := pil.ScanK(s, benchGap, 3)
	if err != nil {
		b.Fatal(err)
	}
	p1, p2 := threes["AAA"], threes["AAT"]
	if len(p1) == 0 || len(p2) == 0 {
		b.Fatal("seed PILs empty")
	}
	var arena pil.Arena
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		if got, sup, _ := pil.JoinInto(&arena, p1, p2, 0, 0, benchGap); len(got) == 0 || sup == 0 {
			b.Fatal("join vanished")
		}
	}
}

// BenchmarkScanK measures the direct length-3 scan, the paper's way to
// seed level 3. The miners build that level by joins from the length-1
// lists instead (BenchmarkSeed in internal/mine); the scan is their
// reference.
func BenchmarkScanK(b *testing.B) {
	s, err := permine.GenerateGenomeLike(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pil.ScanK(s, benchGap, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmOrder8 and BenchmarkEmOrder10 measure the one-worker e_m
// sweep at the two orders the paper uses.
func BenchmarkEmOrder8(b *testing.B)  { benchEm(b, benchGap, 8, 1) }
func BenchmarkEmOrder10(b *testing.B) { benchEm(b, benchGap, 10, 1) }

// BenchmarkEmWideGap measures the e_m sweep at gap [9,16] (W = 8, Fig 6's
// widest), where a sweep that re-adds the whole gap window per position
// pays most, split over GOMAXPROCS workers: run it at -cpu 1,2.
func BenchmarkEmWideGap(b *testing.B) {
	benchEm(b, permine.Gap{N: 9, M: 16}, 8, runtime.GOMAXPROCS(0))
}

func benchEm(b *testing.B, g permine.Gap, m, workers int) {
	s, err := permine.GenerateGenomeLike(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em, _, err := embound.EmWorkers(s, g, m, workers)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(em), "e_m")
	}
}

// BenchmarkSupport measures the public O(|P|·L) support query.
func BenchmarkSupport(b *testing.B) {
	s, err := permine.GenerateGenomeLike(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := permine.Support(s, "AATAATAA", benchGap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNlBoundary measures the recursive Nl evaluation in the
// l1 < l <= l2 boundary region (Appendix recursion).
func BenchmarkNlBoundary(b *testing.B) {
	g := combinat.Gap{N: 2, M: 6}
	for i := 0; i < b.N; i++ {
		c := combinat.MustCounter(200, g)
		for l := c.L1() + 1; l <= c.L2(); l++ {
			if c.Nl(l).Sign() < 0 {
				b.Fatal("negative Nl")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6): design choices isolated.

// BenchmarkAblationNoPrune compares the λ-pruned miner with pruning
// disabled (n = l1 makes λ ≈ its weakest useful value; the enumeration
// baseline removes it entirely but only completes a few levels).
func BenchmarkAblationNoPrune(b *testing.B) {
	s, err := permine.GenerateGenomeLike(500, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := mine.Enumerate(s, core.Params{
			Gap: benchGap, MinSupport: 0.00003, CandidateBudget: 1 << 22,
		}); err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEmOrder sweeps MPPm's m, the accuracy/cost trade of the
// e_m bound: larger m prunes more (smaller auto n) but costs W^m state.
func BenchmarkAblationEmOrder(b *testing.B) {
	s, err := permine.GenerateGenomeLike(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{4, 6, 8, 10} {
		b.Run(benchName("m", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mine.MPPm(s, core.Params{Gap: benchGap, MinSupport: 0.00003, EmOrder: m})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.N), "autoN")
				b.ReportMetric(float64(res.Em), "e_m")
			}
		})
	}
}

// BenchmarkAblationAdaptive compares the Section 6 adaptive refinement
// against a single worst-case run.
func BenchmarkAblationAdaptive(b *testing.B) {
	s, err := permine.GenerateGenomeLike(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := mine.Adaptive(s, core.Params{Gap: benchGap, MinSupport: 0.00003, MaxLen: 10})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Rounds)), "rounds")
		}
	})
	b.Run("worstcase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mine.MPP(s, core.Params{Gap: benchGap, MinSupport: 0.00003}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationScan3 contrasts seeding level 3 by direct scan (the
// paper's choice) against building it from level-1/level-2 joins, as the
// miners do.
func BenchmarkAblationScan3(b *testing.B) {
	s, err := permine.GenerateGenomeLike(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scan3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pil.ScanK(s, benchGap, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("join123", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			singles := pil.Singles(nil, s)
			alpha := s.Alphabet()
			twos := make(map[string]pil.List)
			for a := 0; a < alpha.Size(); a++ {
				for c := 0; c < alpha.Size(); c++ {
					l := pil.Join(singles[a], singles[c], benchGap)
					if len(l) > 0 {
						twos[string([]byte{alpha.Symbol(a), alpha.Symbol(c)})] = l
					}
				}
			}
			n := 0
			for p1, l1 := range twos {
				for p2, l2 := range twos {
					if p1[1] == p2[0] {
						if len(pil.Join(l1, l2, benchGap)) > 0 {
							n++
						}
					}
				}
			}
			if n == 0 {
				b.Fatal("no level-3 PILs")
			}
		}
	})
}

func benchName(k string, v int) string {
	return fmt.Sprintf("%s=%d", k, v)
}

// ---------------------------------------------------------------------------
// Comparison-model and analysis benchmarks.

// BenchmarkWindowedMine measures the §2 window-count miner at the
// paper's default scale.
func BenchmarkWindowedMine(b *testing.B) {
	s, err := permine.GenerateGenomeLike(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := permine.MineWindowed(s, permine.WindowParams{
			Gap: benchGap, Width: 100, MinWindows: 20, MaxLen: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Patterns)), "patterns")
	}
}

// BenchmarkAsyncMine measures the §2 asynchronous-period miner.
func BenchmarkAsyncMine(b *testing.B) {
	s, err := permine.GenerateGenomeLike(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chains, err := permine.MineAsync(s, permine.AsyncParams{
			MinPeriod: 9, MaxPeriod: 13, MinRep: 3, MaxDis: 50,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(chains)), "chains")
	}
}

// BenchmarkTandemFind measures the §1 tandem-repeat finder.
func BenchmarkTandemFind(b *testing.B) {
	s, err := permine.GenerateBacterialLike(20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, err := permine.FindTandemRepeats(s, 12, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(reps)), "repeats")
	}
}

// BenchmarkAnnotate measures the IID-null enrichment annotation of a full
// mining result.
func BenchmarkAnnotate(b *testing.B) {
	s, err := permine.GenerateGenomeLike(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := permine.MPPm(s, permine.Params{Gap: benchGap, MinSupport: 0.00003, EmOrder: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := permine.Annotate(res, s); err != nil {
			b.Fatal(err)
		}
	}
}
