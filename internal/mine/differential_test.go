package mine_test

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/gen"
	"permine/internal/mine"
	"permine/internal/oracle"
	"permine/internal/seq"
)

// TestDifferentialAllAlgorithms cross-checks the arena-backed mining
// pipeline against the naive enumeration oracle over a grid of random
// sequences and gap requirements: every algorithm must report exactly the
// oracle's frequent set (chars and supports) within its completeness
// range. This is the regression net for the allocation-free kernel — any
// divergence in candidate generation, join windows or threshold handling
// shows up as a missing or spurious pattern here.
func TestDifferentialAllAlgorithms(t *testing.T) {
	const maxLen = 5
	configs := []struct {
		seed   uint64
		length int
		g      combinat.Gap
		rho    float64
	}{
		{1, 90, combinat.Gap{N: 0, M: 0}, 0.02},
		{2, 120, combinat.Gap{N: 0, M: 2}, 0.01},
		{3, 150, combinat.Gap{N: 1, M: 2}, 0.01},
		{4, 100, combinat.Gap{N: 2, M: 4}, 0.02},
		{5, 140, combinat.Gap{N: 3, M: 3}, 0.05},
		{6, 110, combinat.Gap{N: 5, M: 6}, 0.02},
		{7, 80, combinat.Gap{N: 4, M: 5}, 0.005},
	}
	// Every join strategy must reproduce the oracle exactly: the forced
	// values prove the two-pointer and cumulative-table kernels are
	// interchangeable across all four algorithms and the whole grid,
	// and auto proves the per-list selector never mixes in a wrong
	// answer whichever kernel it picks.
	strategies := []core.JoinStrategy{core.JoinAuto, core.JoinTwoPointer, core.JoinCum}
	var abandoned int64 // over the grid: the stop must have run
	var compact int64   // over the grid's auto runs: the compact layout must have run
	for _, cfg := range configs {
		cfg := cfg
		name := fmt.Sprintf("seed%d_L%d_gap%d-%d", cfg.seed, cfg.length, cfg.g.N, cfg.g.M)
		t.Run(name, func(t *testing.T) {
			s, err := gen.Uniform(seq.DNA, name, cfg.length, cfg.seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.FrequentPatterns(s, cfg.g, cfg.rho, 3, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			var firstLevels, firstEnum []core.LevelMetrics
			for _, join := range strategies {
				base := core.Params{Gap: cfg.g, MinSupport: cfg.rho, Join: join}
				tag := func(label string) string { return label + " (join=" + join.String() + ") vs oracle" }

				p := base
				p.MaxLen = maxLen
				mpp, err := mine.MPP(s, p)
				if err != nil {
					t.Fatal(err)
				}
				comparePatterns(t, tag("MPP"), mpp.Patterns, want, 3, maxLen)
				if join == core.JoinAuto {
					for _, lm := range mpp.Levels {
						compact += lm.CumCompact
					}
				}
				// Both kernels stop a join at the same prefix entry, so every
				// level counter is strategy independent.
				if firstLevels == nil {
					firstLevels = mpp.Levels
					for _, lm := range mpp.Levels {
						abandoned += lm.Abandoned
					}
				} else {
					sameLevelCounters(t, "MPP (join="+join.String()+")", mpp.Levels, firstLevels)
				}

				p = base
				p.EmOrder = 6
				mppm, err := mine.MPPm(s, p)
				if err != nil {
					t.Fatal(err)
				}
				upper := maxLen
				if mppm.N < upper {
					upper = mppm.N
				}
				comparePatterns(t, tag("MPPm"), mppm.Patterns, want, 3, upper)

				p = base
				p.MaxLen = 4
				ada, err := mine.Adaptive(s, p)
				if err != nil {
					t.Fatal(err)
				}
				upper = maxLen
				if fin := ada.Rounds[len(ada.Rounds)-1]; fin < upper {
					upper = fin
				}
				comparePatterns(t, tag("adaptive"), ada.Patterns, want, 3, upper)

				// The no-pruning baseline grows exponentially with the
				// window, so cap its physical work and only require the
				// completed levels to cover the oracle's range (3..maxLen).
				p = base
				p.CandidateBudget = 200_000
				enum, err := mine.Enumerate(s, p)
				if err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
					t.Fatal(err)
				}
				last := enum.Levels[len(enum.Levels)-1].Level
				if last < maxLen {
					t.Fatalf("enumerate budget too small: stopped at level %d", last)
				}
				comparePatterns(t, tag("enumerate"), enum.Patterns, want, 3, maxLen)
				if firstEnum == nil {
					firstEnum = enum.Levels
				} else {
					sameLevelCounters(t, "enumerate (join="+join.String()+")", enum.Levels, firstEnum)
				}
			}
		})
	}
	if abandoned == 0 {
		t.Error("no MPP join was abandoned across the grid; the strategy check saw no stops")
	}
	if compact == 0 {
		t.Error("no auto MPP join read the compact table layout across the grid; the oracle never checked it")
	}
}

// sameLevelCounters fails t unless two runs' levels agree on every
// counter that does not depend on the join strategy: all but the strategy
// split, its span fallbacks and the timings.
func sameLevelCounters(t *testing.T, label string, got, want []core.LevelMetrics) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, want %d", label, len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.Level != b.Level || a.Candidates != b.Candidates || a.Frequent != b.Frequent || a.Kept != b.Kept ||
			a.PrunedByLambda != b.PrunedByLambda || a.ZeroSupport != b.ZeroSupport || a.Abandoned != b.Abandoned ||
			a.PILJoins != b.PILJoins || a.PILEntries != b.PILEntries {
			t.Errorf("%s level %d counters differ:\n got %+v\nwant %+v", label, b.Level, a, b)
		}
	}
}

// TestDifferentialStartLen1Strategies mines from StartLen 1, where the
// first join level joins single-symbol PILs, and checks every strategy
// still matches the oracle from length 1 up, with identical patterns
// across strategies.
func TestDifferentialStartLen1Strategies(t *testing.T) {
	const maxLen = 4
	s, err := gen.Uniform(seq.DNA, "startlen1", 160, 21)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 1, M: 2}
	const rho = 0.01
	want, err := oracle.FrequentPatterns(s, g, rho, 1, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	var first []core.Pattern
	for _, join := range []core.JoinStrategy{core.JoinAuto, core.JoinTwoPointer, core.JoinCum} {
		p := core.Params{Gap: g, MinSupport: rho, StartLen: 1, MaxLen: maxLen, Join: join, Workers: 2}
		res, err := mine.MPP(s, p)
		if err != nil {
			t.Fatal(err)
		}
		comparePatterns(t, "StartLen=1 (join="+join.String()+") vs oracle", res.Patterns, want, 1, maxLen)
		if first == nil {
			first = res.Patterns
			continue
		}
		if len(res.Patterns) != len(first) {
			t.Fatalf("join=%s: %d patterns, first strategy found %d", join, len(res.Patterns), len(first))
		}
		for i := range first {
			if res.Patterns[i] != first[i] {
				t.Fatalf("join=%s pattern %d: %+v, first strategy %+v", join, i, res.Patterns[i], first[i])
			}
		}
	}
}

// TestPatternsLongerThanUint64Codes mines patterns longer than the
// longest length k whose |Σ|^k base-|Σ| codes fit a uint64 (the packed
// codes of pil.ScanKPacked): 9 for a 100-symbol alphabet and 31 for DNA. Each subject plants a fixed block among random filler with
// gap [0,0], so a pattern's support is its count as a contiguous
// substring, and the mined set is checked against a quadratic substring
// counter at every length the miner reaches:
//   - a 20-symbol block over 100 symbols, planted 10 times, each copy
//     followed by 40 random symbols. Some symbols are bytes above 0x7f,
//     which must stay single characters in the patterns. The enumeration
//     baseline must find the same patterns.
//   - a 40-base DNA block planted 12 times, each copy followed by 30
//     random bases (L = 840), mined with MPP up to length 45.
func TestPatternsLongerThanUint64Codes(t *testing.T) {
	symbols := make([]byte, 100)
	for i := range symbols {
		symbols[i] = byte(0x21 + i)
	}
	wide, err := seq.NewAlphabet("wide100", string(symbols))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		alpha              *seq.Alphabet
		packedLen          int // longest k with |Σ|^k < 2^64
		block, copies, gap int
		rho                float64
		maxLen             int
		enumerate          bool
	}{
		{alpha: wide, packedLen: 9, block: 20, copies: 10, gap: 40, rho: 0.015, maxLen: 24, enumerate: true},
		{alpha: seq.DNA, packedLen: 31, block: 40, copies: 12, gap: 30, rho: 0.01, maxLen: 45},
	}
	for _, tc := range cases {
		name := tc.alpha.Name()
		if got := uint64Len(tc.alpha.Size()); got != tc.packedLen {
			t.Fatalf("%s: %d^k < 2^64 up to k = %d, want %d", name, tc.alpha.Size(), got, tc.packedLen)
		}
		// Deterministic xorshift filler; the planted block repeats verbatim.
		rng := uint64(0x9E3779B97F4A7C15)
		sym := func() byte {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return tc.alpha.Symbol(int(rng % uint64(tc.alpha.Size())))
		}
		block := make([]byte, tc.block)
		for i := range block {
			block[i] = sym()
		}
		var data []byte
		for rep := 0; rep < tc.copies; rep++ {
			data = append(data, block...)
			for i := 0; i < tc.gap; i++ {
				data = append(data, sym())
			}
		}
		s, err := seq.New(tc.alpha, name, string(data))
		if err != nil {
			t.Fatal(err)
		}

		g := combinat.Gap{N: 0, M: 0}
		res, err := mine.MPP(s, core.Params{Gap: g, MinSupport: tc.rho, MaxLen: tc.maxLen, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var enum *core.Result
		if tc.enumerate {
			enum, err = mine.Enumerate(s, core.Params{Gap: g, MinSupport: tc.rho, Workers: 4})
			if err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
				t.Fatal(err)
			}
			if last := enum.Levels[len(enum.Levels)-1].Level; last < tc.block {
				t.Fatalf("%s: enumeration stopped at level %d, before the block's length", name, last)
			}
		}

		// Quadratic reference: with gap [0,0] a pattern's support is its
		// count as a contiguous substring.
		last := res.Levels[len(res.Levels)-1].Level
		for l := 3; l <= last; l++ {
			counts := map[string]int64{}
			for x := 0; x+l <= len(data); x++ {
				counts[string(data[x:x+l])]++
			}
			nl := float64(len(data) - l + 1)
			var want []core.Pattern
			for chars, sup := range counts {
				if float64(sup) >= tc.rho*nl*(1-1e-12) {
					want = append(want, core.Pattern{Chars: chars, Support: sup})
				}
			}
			if l <= tc.block && len(want) == 0 {
				t.Fatalf("%s length %d: reference found no frequent substrings; fixture broken", name, l)
			}
			comparePatterns(t, fmt.Sprintf("%s l=%d", name, l), res.Patterns, want, l, l)
			if enum != nil {
				comparePatterns(t, fmt.Sprintf("%s enumerate l=%d", name, l), enum.Patterns, want, l, l)
			}
		}
		if last < tc.block {
			t.Fatalf("%s: MPP stopped at level %d, before the block's length %d", name, last, tc.block)
		}
		maxMined := 0
		for _, p := range res.Patterns {
			maxMined = max(maxMined, len(p.Chars))
		}
		if maxMined <= tc.packedLen {
			t.Fatalf("%s: longest mined pattern %d is no longer than %d", name, maxMined, tc.packedLen)
		}
	}
}

// uint64Len returns the longest k with sigma^k < 2^64.
func uint64Len(sigma int) int {
	k := 0
	for v := uint64(1); ; k++ {
		hi, lo := bits.Mul64(v, uint64(sigma))
		if hi != 0 {
			return k
		}
		v = lo
	}
}
