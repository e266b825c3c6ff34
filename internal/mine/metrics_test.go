package mine_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/gen"
	"permine/internal/mine"
	"permine/internal/pil"
	"permine/internal/seq"
)

// TestLevelMetricsAccounting checks the per-level telemetry invariants on
// a real MPP run: every generated candidate is accounted for exactly once
// (zero-support + λ-pruned + abandoned + kept), the physical join counters
// match the candidate counts, and the λ factor stays in its theoretical
// range.
func TestLevelMetricsAccounting(t *testing.T) {
	s, err := gen.GenomeLike(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine.MPP(s, core.Params{Gap: combinat.Gap{N: 2, M: 4}, MinSupport: 0.0005, MaxLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 2 {
		t.Fatalf("only %d levels; the regime should mine several", len(res.Levels))
	}
	var abandoned int64
	for i, lv := range res.Levels {
		if got := lv.ZeroSupport + lv.PrunedByLambda + lv.Abandoned + lv.Kept; got != lv.Candidates {
			t.Errorf("level %d: zero(%d) + pruned(%d) + abandoned(%d) + kept(%d) = %d, want candidates %d",
				lv.Level, lv.ZeroSupport, lv.PrunedByLambda, lv.Abandoned, lv.Kept, got, lv.Candidates)
		}
		abandoned += lv.Abandoned
		if lv.Frequent > lv.Kept {
			t.Errorf("level %d: frequent %d > kept %d (L̂i must contain Li)", lv.Level, lv.Frequent, lv.Kept)
		}
		if lv.Lambda <= 0 || lv.Lambda > 1 {
			t.Errorf("level %d: λ = %v outside (0, 1]", lv.Level, lv.Lambda)
		}
		if i == 0 {
			// The seed level's joins are not reported: its counters stay
			// those of the paper's direct scan.
			if lv.PILJoins != 0 || lv.PILEntries != 0 || lv.Abandoned != 0 {
				t.Errorf("seed level reports %d joins / %d entries / %d abandoned, want 0",
					lv.PILJoins, lv.PILEntries, lv.Abandoned)
			}
			if lv.JoinTwoPointer != 0 || lv.JoinCum != 0 || lv.CumCompact != 0 || lv.CumSpanFallbacks != 0 {
				t.Errorf("seed level reports strategy counters %d/%d (compact %d, falls %d), want 0",
					lv.JoinTwoPointer, lv.JoinCum, lv.CumCompact, lv.CumSpanFallbacks)
			}
			continue
		}
		// Every generated candidate costs exactly one merge join.
		if lv.PILJoins != lv.Candidates {
			t.Errorf("level %d: %d joins for %d candidates", lv.Level, lv.PILJoins, lv.Candidates)
		}
		// The per-strategy split partitions the joins exactly, the
		// compact-layout joins are a subset of the cum share, and the
		// span-capped fallbacks, which land in the compact layout, a
		// subset of those.
		if got := lv.JoinTwoPointer + lv.JoinCum; got != lv.PILJoins {
			t.Errorf("level %d: strategy split %d+%d = %d, want PILJoins %d",
				lv.Level, lv.JoinTwoPointer, lv.JoinCum, got, lv.PILJoins)
		}
		if lv.JoinBitap != 0 {
			t.Errorf("level %d: JoinBitap = %d, want 0 (the bitmap kernel is retired)", lv.Level, lv.JoinBitap)
		}
		if lv.CumCompact > lv.JoinCum {
			t.Errorf("level %d: %d compact-layout joins exceed %d cum joins", lv.Level, lv.CumCompact, lv.JoinCum)
		}
		if lv.CumSpanFallbacks > lv.CumCompact {
			t.Errorf("level %d: %d cum-span fallbacks exceed %d compact-layout joins",
				lv.Level, lv.CumSpanFallbacks, lv.CumCompact)
		}
		if lv.Candidates > 0 && lv.PILEntries == 0 {
			t.Errorf("level %d: candidates counted but no PIL entries scanned", lv.Level)
		}
		if lv.GenElapsed < 0 || lv.CountElapsed < 0 {
			t.Errorf("level %d: negative phase timing gen=%v count=%v", lv.Level, lv.GenElapsed, lv.CountElapsed)
		}
	}
	if abandoned == 0 {
		t.Error("no join was abandoned; the regime should stop some below L̂")
	}
}

// TestLevelMetricsParallelMatchesSerial checks the atomically-accumulated
// join counters are worker-count independent.
func TestLevelMetricsParallelMatchesSerial(t *testing.T) {
	s, err := gen.GenomeLike(600, 11)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Params{Gap: combinat.Gap{N: 2, M: 4}, MinSupport: 0.0005, MaxLen: 5}
	serial, err := mine.MPP(s, base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 4
	parallel, err := mine.MPP(s, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Levels) != len(parallel.Levels) {
		t.Fatalf("level counts differ: %d vs %d", len(serial.Levels), len(parallel.Levels))
	}
	var compact int64
	for i := range serial.Levels {
		a, b := serial.Levels[i], parallel.Levels[i]
		compact += a.CumCompact
		if a.PILJoins != b.PILJoins || a.PILEntries != b.PILEntries || a.Abandoned != b.Abandoned ||
			a.PrunedByLambda != b.PrunedByLambda || a.ZeroSupport != b.ZeroSupport {
			t.Errorf("level %d counters differ between 1 and 4 workers: %+v vs %+v", a.Level, a, b)
		}
		// Strategy selection is per candidate list, not per worker, so the
		// split, its compact-layout share and the span-cap fallback count
		// must match too.
		if a.JoinTwoPointer != b.JoinTwoPointer || a.JoinCum != b.JoinCum || a.CumCompact != b.CumCompact ||
			a.CumSpanFallbacks != b.CumSpanFallbacks {
			t.Errorf("level %d strategy counters differ between 1 and 4 workers: %+v vs %+v", a.Level, a, b)
		}
	}
	if compact == 0 {
		t.Error("no join read the compact table layout; the comparison does not cover it")
	}
}

// TestEnumerateLevelMetrics checks the baseline's accounting: no λ
// pruning ever, the analytic |Σ|^i charge splits into kept + zero, and
// the per-strategy split partitions the joins, as MPP's does.
func TestEnumerateLevelMetrics(t *testing.T) {
	s, err := gen.GenomeLike(300, 13)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline is exponential by design; a bounded budget truncates
	// the run and the completed levels keep valid metrics.
	res, err := mine.Enumerate(s, core.Params{
		Gap: combinat.Gap{N: 2, M: 4}, MinSupport: 0.0005, CandidateBudget: 1 << 16,
	})
	if err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatal(err)
	}
	if len(res.Levels) == 0 {
		t.Fatal("no completed levels")
	}
	for i, lv := range res.Levels {
		if lv.PrunedByLambda != 0 {
			t.Errorf("level %d: enumeration reports λ pruning (%d)", lv.Level, lv.PrunedByLambda)
		}
		if lv.ZeroSupport+lv.Kept != lv.Candidates {
			t.Errorf("level %d: zero(%d) + kept(%d) != candidates(%d)",
				lv.Level, lv.ZeroSupport, lv.Kept, lv.Candidates)
		}
		if i > 0 && lv.Kept > 0 && lv.PILJoins == 0 {
			t.Errorf("level %d: kept %d patterns with no joins recorded", lv.Level, lv.Kept)
		}
		if got := lv.JoinTwoPointer + lv.JoinCum; got != lv.PILJoins {
			t.Errorf("level %d: strategy split %d+%d = %d, want PILJoins %d",
				lv.Level, lv.JoinTwoPointer, lv.JoinCum, got, lv.PILJoins)
		}
	}
}

// TestEnumerateTable3Counters recomputes every level counter of the
// enumeration baseline without the miner. Enumeration prunes nothing, so
// an independent pil.ScanK of each length fixes the level: L̂i is every
// pattern the scan finds, the joins are the pairs (P, c) of a non-zero P
// of length i−1 whose suffix(P)·c is non-zero too, each reading both
// parents' lists, and the frequent patterns are the scanned ones whose
// support meets ρs·Ni. The run must stop where its charge, |Σ|^StartLen
// plus |L̂i|·|Σ| per counted level, would first pass CandidateBudget.
func TestEnumerateTable3Counters(t *testing.T) {
	dna, err := gen.GenomeLike(300, 13)
	if err != nil {
		t.Fatal(err)
	}
	protein, err := gen.ProteinRepeat(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := gen.Uniform(seq.DNA, "startlen1", 160, 21)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		s    *seq.Sequence
		p    core.Params
	}{
		{"dna", dna, core.Params{Gap: combinat.Gap{N: 2, M: 4}, MinSupport: 0.0005, CandidateBudget: 1 << 16}},
		// On 20 letters |Σ|^i far exceeds the joins (64,000,000
		// candidates at level 6, about 61k joins).
		{"protein", protein, core.Params{Gap: combinat.Gap{N: 1, M: 3}, MinSupport: 0.001, CandidateBudget: 1 << 20}},
		{"startlen1", uniform, core.Params{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.01, StartLen: 1, CandidateBudget: 200_000}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, runErr := mine.Enumerate(c.s, c.p)
			if !errors.Is(runErr, core.ErrBudgetExceeded) || res == nil || !res.Truncated {
				t.Fatalf("Enumerate error = %v; want the candidate budget to stop it with a truncated result", runErr)
			}
			np, err := c.p.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			counter := combinat.MustCounter(c.s.Len(), np.Gap)
			symbols := c.s.Alphabet().Symbols()
			sigma := int64(len(symbols))
			candidates := int64(1)
			for k := 0; k < np.StartLen; k++ {
				candidates *= sigma
			}
			work := candidates // the seed's charge
			var prev map[string]pil.List
			var frequentSet []core.Pattern
			for idx, lv := range res.Levels {
				i := np.StartLen + idx
				scan, err := pil.ScanK(c.s, np.Gap, i)
				if err != nil {
					t.Fatal(err)
				}
				var joins, entries int64
				for chars, list := range prev {
					for _, sym := range symbols {
						if suffix, ok := prev[chars[1:]+string([]byte{sym})]; ok {
							joins++
							entries += int64(len(list) + len(suffix))
						}
					}
				}
				th := np.MinSupport * counter.NlFloat(i)
				var frequent int64
				for chars, list := range scan {
					if sup := list.Support(); core.Meets(sup, th) {
						frequent++
						frequentSet = append(frequentSet, core.Pattern{Chars: chars, Support: sup})
					}
				}
				kept := int64(len(scan))
				if lv.Level != i || lv.Candidates != candidates || lv.Kept != kept || lv.ZeroSupport != candidates-kept ||
					lv.Frequent != frequent || lv.PILJoins != joins || lv.PILEntries != entries ||
					lv.Lambda != 0 || lv.PrunedByLambda != 0 || lv.Abandoned != 0 {
					t.Errorf("level %d: got %+v\nwant Candidates %d, Kept %d, ZeroSupport %d, Frequent %d, PILJoins %d, PILEntries %d, the rest 0",
						i, lv, candidates, kept, candidates-kept, frequent, joins, entries)
				}
				if idx > 0 {
					work += int64(len(prev)) * sigma
				}
				prev = scan
				candidates *= sigma
			}
			if work > np.CandidateBudget || work+int64(len(prev))*sigma <= np.CandidateBudget {
				t.Errorf("the run stopped with %d of its %d budget charged and %d more joins to go",
					work, np.CandidateBudget, int64(len(prev))*sigma)
			}
			last := res.Levels[len(res.Levels)-1].Level
			if want := fmt.Sprintf("mine: enumeration stopped at level %d: ", last+1); !strings.HasPrefix(runErr.Error(), want) {
				t.Errorf("error %q, want it to start %q", runErr, want)
			}
			comparePatterns(t, c.name, res.Patterns, frequentSet, np.StartLen, last)
		})
	}
}

// TestLevelElapsedWithinRun: a level's Elapsed is its own wall time, so
// the levels' sum cannot exceed the run's. Emit sleeps, so collecting
// dominates every level, and a level counting its collect time twice
// overshoots the run.
func TestLevelElapsedWithinRun(t *testing.T) {
	s, err := gen.GenomeLike(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	slowEmit := &core.MineHooks{Emit: func(string) bool {
		time.Sleep(20 * time.Microsecond)
		return true
	}}
	res, err := mine.MPP(s, core.Params{Gap: combinat.Gap{N: 2, M: 4}, MinSupport: 0.0005, MaxLen: 6, Hooks: slowEmit})
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, lv := range res.Levels {
		sum += lv.Elapsed
	}
	if sum > res.Elapsed {
		t.Fatalf("levels' Elapsed sum to %v, more than the run's %v", sum, res.Elapsed)
	}
}
