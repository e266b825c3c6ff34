package core_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
)

func TestAlgorithmString(t *testing.T) {
	cases := map[core.Algorithm]string{
		core.AlgoMPP:       "MPP",
		core.AlgoMPPm:      "MPPm",
		core.AlgoAdaptive:  "MPP-adaptive",
		core.AlgoEnumerate: "enumerate",
		core.Algorithm(99): "Algorithm(99)",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	p, err := core.Params{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.StartLen != core.DefaultStartLen {
		t.Errorf("StartLen = %d", p.StartLen)
	}
	if p.EmOrder != core.DefaultEmOrder {
		t.Errorf("EmOrder = %d", p.EmOrder)
	}
	if p.Workers != 1 {
		t.Errorf("Workers = %d", p.Workers)
	}
	if p.CandidateBudget != core.DefaultCandidateBudget {
		t.Errorf("CandidateBudget = %d", p.CandidateBudget)
	}
}

func TestNormalizeRejects(t *testing.T) {
	bad := []core.Params{
		{Gap: combinat.Gap{N: 2, M: 1}, MinSupport: 0.1},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: -1},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 2},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, StartLen: -2},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, MaxLen: -1},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, EmOrder: -2},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, Workers: -1},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, Workers: core.MaxWorkers + 1},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, CandidateBudget: -1},
	}
	for i, p := range bad {
		if _, err := p.Normalize(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
	ok := core.Params{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, Workers: core.MaxWorkers}
	if _, err := ok.Normalize(); err != nil {
		t.Errorf("Workers = MaxWorkers rejected: %v", err)
	}
}

func TestPatternHelpers(t *testing.T) {
	p := core.Pattern{Chars: "A..T.C"} // raw dots are just characters here
	if p.Len() != 6 {
		t.Errorf("Len = %d", p.Len())
	}
	q := core.Pattern{Chars: "ATC", Support: 5, Ratio: 0.01}
	if q.Expand(8, 10) != "Ag(8,10)Tg(8,10)C" {
		t.Errorf("Expand = %q", q.Expand(8, 10))
	}
	if !strings.Contains(q.String(), "sup=5") {
		t.Errorf("String = %q", q.String())
	}
	single := core.Pattern{Chars: "A"}
	if single.Expand(1, 2) != "A" {
		t.Errorf("single Expand = %q", single.Expand(1, 2))
	}
}

func TestResultAccessors(t *testing.T) {
	r := &core.Result{
		Algorithm: core.AlgoMPP,
		Params:    core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 3e-5},
		SeqName:   "x",
		SeqLen:    100,
		N:         5,
		Patterns: []core.Pattern{
			{Chars: "TTTT", Support: 1},
			{Chars: "AAA", Support: 3},
			{Chars: "AAT", Support: 2},
		},
		Levels: []core.LevelMetrics{
			{Level: 3, Candidates: 64, Frequent: 2, Kept: 3},
			{Level: 4, Candidates: 9, Frequent: 1, Kept: 1},
		},
		Elapsed: 5 * time.Millisecond,
	}
	r.SortPatterns()
	if r.Patterns[0].Chars != "AAA" || r.Patterns[2].Chars != "TTTT" {
		t.Errorf("sort order: %v", r.Patterns)
	}
	if r.Longest() != 4 {
		t.Errorf("Longest = %d", r.Longest())
	}
	if got := r.ByLength(3); len(got) != 2 {
		t.Errorf("ByLength(3) = %v", got)
	}
	if _, ok := r.Pattern("AAT"); !ok {
		t.Error("Pattern(AAT) missing")
	}
	if _, ok := r.Level(4); !ok {
		t.Error("Level(4) missing")
	}
	if _, ok := r.Level(9); ok {
		t.Error("Level(9) should be absent")
	}
	sum := r.Summary()
	for _, want := range []string{"MPP", "x", "[9,12]", "longest 4"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary %q missing %q", sum, want)
		}
	}
	empty := &core.Result{}
	if empty.Longest() != 0 {
		t.Error("empty Longest != 0")
	}
	// Truncated flag shows up in the summary.
	r.Truncated = true
	if !strings.Contains(r.Summary(), "truncated") {
		t.Errorf("Summary %q missing truncation notice", r.Summary())
	}
	// AutoN metadata shows up in the summary.
	r.AutoN, r.Em, r.EmOrder = true, 42, 8
	if !strings.Contains(r.Summary(), "e_8=42") {
		t.Errorf("Summary %q missing auto-n detail", r.Summary())
	}
}

// TestParseJoinStrategyRetiredName: the retired bitmap kernel's names
// still parse, as auto, so jobs journaled and forwarded by older binaries
// keep working.
func TestParseJoinStrategyRetiredName(t *testing.T) {
	for _, name := range []string{"bitap", "bitmap"} {
		got, err := core.ParseJoinStrategy(name)
		if err != nil || got != core.JoinAuto {
			t.Errorf("ParseJoinStrategy(%q) = %v, %v; want auto", name, got, err)
		}
	}
}

// TestSupportCut: the cut is the smallest support Meets accepts, so the
// integer comparison sup >= cut agrees with Meets on every support near
// it — below 2^53, where supports convert to float64 exactly, and above
// it, where neighbouring supports share one float64 — and a threshold no
// int64 support meets saturates at math.MaxInt64.
func TestSupportCut(t *testing.T) {
	cases := []struct {
		threshold float64
		want      int64 // 0: only the agreement with Meets is checked
	}{
		{math.Inf(-1), 1},
		{-3, 1},
		{0, 1},
		{0.5, 1},
		{1, 1},
		{2, 2},
		{3.5, 4},
		{1e6, 1e6},
		{1 << 53, 0},
		{1<<53 - 3, 0},
		{1<<53 + 2, 0},
		{1<<53 + 6, 0},
		// (1 − 1e−12) scales these to exactly 2^53 + 12 and 2^53 + 14,
		// where float64 spacing is 2. 2^53 + 11 ties to the even mantissa
		// of 2^53 + 12 and so meets it; 2^53 + 13 ties down to 2^53 + 12.
		{1<<53 + 9020, 1<<53 + 11},
		{1<<53 + 9022, 1<<53 + 14},
		{1e15 + 0.5, 999_999_999_999_001},
		{4e18, 0},
		{1 << 63, 0},
		{1e19, math.MaxInt64},
		{math.MaxFloat64, math.MaxInt64},
		{math.Inf(1), math.MaxInt64},
		{math.NaN(), math.MaxInt64},
	}
	for _, tc := range cases {
		cut := core.SupportCut(tc.threshold)
		if cut < 1 {
			t.Errorf("SupportCut(%v) = %d, want at least 1", tc.threshold, cut)
		}
		if tc.want != 0 && cut != tc.want {
			t.Errorf("SupportCut(%v) = %d, want %d", tc.threshold, cut, tc.want)
		}
		if cut == math.MaxInt64 {
			// Saturated: no support meets the threshold.
			for _, s := range []int64{0, 1, 1 << 53, 4e18, math.MaxInt64 - 1, math.MaxInt64} {
				if core.Meets(s, tc.threshold) {
					t.Errorf("SupportCut(%v) saturated, but Meets(%d) holds", tc.threshold, s)
				}
			}
			continue
		}
		for d := int64(-4); d <= 4; d++ {
			s := cut + d
			if s < 0 {
				continue
			}
			if got, want := s >= cut, core.Meets(s, tc.threshold); got != want {
				t.Errorf("threshold %v, cut %d: sup %d >= cut is %v, Meets says %v", tc.threshold, cut, s, got, want)
			}
		}
	}
}
