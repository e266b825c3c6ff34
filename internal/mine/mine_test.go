package mine_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/embound"
	"permine/internal/gen"
	"permine/internal/mine"
	"permine/internal/oracle"
	"permine/internal/seq"
)

func patternsByChars(ps []core.Pattern) map[string]core.Pattern {
	m := make(map[string]core.Pattern, len(ps))
	for _, p := range ps {
		m[p.Chars] = p
	}
	return m
}

// comparePatterns asserts got == want as (chars, support) sets, limited to
// pattern lengths in [minLen, maxLen].
func comparePatterns(t *testing.T, label string, got, want []core.Pattern, minLen, maxLen int) {
	t.Helper()
	gm, wm := patternsByChars(got), patternsByChars(want)
	for chars, w := range wm {
		if len(chars) < minLen || len(chars) > maxLen {
			continue
		}
		g, ok := gm[chars]
		if !ok {
			t.Errorf("%s: missing frequent pattern %q (sup=%d)", label, chars, w.Support)
			continue
		}
		if g.Support != w.Support {
			t.Errorf("%s: %q support=%d, want %d", label, chars, g.Support, w.Support)
		}
	}
	for chars, g := range gm {
		if len(chars) < minLen || len(chars) > maxLen {
			continue
		}
		if _, ok := wm[chars]; !ok {
			t.Errorf("%s: spurious pattern %q (sup=%d)", label, chars, g.Support)
		}
	}
}

// TestMPPAgainstOracle: MPP with n = maxLen must find exactly the frequent
// patterns of lengths 3..n that full enumeration finds. The second subject
// holds its only T at the end, so the start level has patterns whose
// 2-suffix ("AT", "GT") starts no length-3 pattern: they must join nothing.
func TestMPPAgainstOracle(t *testing.T) {
	bacterial, err := gen.BacterialLike(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	lastT, err := seq.NewDNA("lastT", "AAGAGAGT")
	if err != nil {
		t.Fatal(err)
	}
	const maxLen = 5
	for _, tc := range []struct {
		s   *seq.Sequence
		g   combinat.Gap
		rho float64
	}{
		{bacterial, combinat.Gap{N: 2, M: 4}, 0.002},
		{lastT, combinat.Gap{N: 0, M: 1}, 1e-9},
	} {
		want, err := oracle.FrequentPatterns(tc.s, tc.g, tc.rho, 3, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mine.MPP(tc.s, core.Params{Gap: tc.g, MinSupport: tc.rho, MaxLen: maxLen})
		if err != nil {
			t.Fatal(err)
		}
		comparePatterns(t, "MPP vs oracle on "+tc.s.Name(), res.Patterns, want, 3, maxLen)
		if len(want) == 0 {
			t.Fatalf("%s: oracle found no frequent patterns; test is vacuous, adjust rho", tc.s.Name())
		}
	}
}

// TestMPPCompletenessGuarantee: for any n, MPP finds every frequent pattern
// of length <= n (property test over random worlds).
func TestMPPCompletenessGuarantee(t *testing.T) {
	check := func(seed uint64, nRaw, gapRaw uint8) bool {
		g := combinat.Gap{N: int(gapRaw % 3), M: 0}
		g.M = g.N + 1 + int(gapRaw%2)
		s, err := gen.GenomeLike(150, seed)
		if err != nil {
			return false
		}
		rho := 0.004
		n := 3 + int(nRaw%3) // n in 3..5
		res, err := mine.MPP(s, core.Params{Gap: g, MinSupport: rho, MaxLen: n})
		if err != nil {
			return false
		}
		want, err := oracle.FrequentPatterns(s, g, rho, 3, n)
		if err != nil {
			return false
		}
		gm := patternsByChars(res.Patterns)
		for _, w := range want {
			g, ok := gm[w.Chars]
			if !ok || g.Support != w.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMPPNoFalsePositives: every pattern MPP reports is genuinely frequent
// (support verified by the oracle, ratio >= rho).
func TestMPPNoFalsePositives(t *testing.T) {
	s, err := gen.GenomeLike(250, 9)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 1, M: 3}
	rho := 0.001
	res, err := mine.MPP(s, core.Params{Gap: g, MinSupport: rho, MaxLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns found; vacuous")
	}
	counter := combinat.MustCounter(s.Len(), g)
	for _, p := range res.Patterns {
		sup, err := oracle.Support(s, p.Chars, g)
		if err != nil {
			t.Fatal(err)
		}
		if sup != p.Support {
			t.Errorf("%q: reported sup=%d, oracle %d", p.Chars, p.Support, sup)
		}
		nl := counter.NlFloat(p.Len())
		if float64(sup) < rho*nl*(1-1e-9) {
			t.Errorf("%q: sup=%d below ρs·Nl=%v", p.Chars, sup, rho*nl)
		}
	}
}

// TestMPPEqualsEnumerate: on the levels the exhaustive baseline completes
// before exhausting its budget (enumeration is intractable beyond that —
// the paper's Table 3 point), it agrees exactly with the pruning miner.
func TestMPPEqualsEnumerate(t *testing.T) {
	s, err := gen.EukaryoteLike(400, 21)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 3, M: 5}
	rho := 0.0015
	enum, err := mine.Enumerate(s, core.Params{Gap: g, MinSupport: rho})
	if err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatal(err)
	}
	done := enum.Levels[len(enum.Levels)-1].Level
	mpp, err := mine.MPP(s, core.Params{Gap: g, MinSupport: rho}) // worst case n=l1
	if err != nil {
		t.Fatal(err)
	}
	upper := done
	if upper > mpp.N {
		upper = mpp.N
	}
	if upper < 5 {
		t.Fatalf("enumeration completed only %d levels; test too weak", upper)
	}
	comparePatterns(t, "MPP(l1) vs enumerate", mpp.Patterns, enum.Patterns, 3, upper)
}

// TestTheorem1OnMinedPatterns: for every mined pattern P and every
// contiguous sub-pattern Q, sup(Q) >= sup(P)/W^d (Theorem 1).
func TestTheorem1OnMinedPatterns(t *testing.T) {
	s, err := gen.BacterialLike(350, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 2, M: 4}
	res, err := mine.MPP(s, core.Params{Gap: g, MinSupport: 0.001, MaxLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	w := float64(g.W())
	checked := 0
	for _, p := range res.Patterns {
		if p.Len() < 4 {
			continue
		}
		supP := float64(p.Support)
		for d := 1; d <= p.Len()-1 && d <= 3; d++ {
			for i := 0; i+p.Len()-d <= p.Len(); i++ {
				q := p.Chars[i : i+p.Len()-d]
				supQ, err := oracle.Support(s, q, g)
				if err != nil {
					t.Fatal(err)
				}
				bound := supP
				for k := 0; k < d; k++ {
					bound /= w
				}
				if float64(supQ) < bound-1e-9 {
					t.Errorf("Theorem 1 violated: sup(%q)=%d < sup(%q)/W^%d = %v", q, supQ, p.Chars, d, bound)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Skip("no pattern long enough to exercise Theorem 1")
	}
}

// TestMPPBestEffortBeyondN: with a small n, every pattern MPP reports
// beyond length n is still genuinely frequent (best-effort region has no
// false positives).
func TestMPPBestEffortBeyondN(t *testing.T) {
	s, err := gen.GenomeLike(300, 13)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 1, M: 2}
	rho := 0.002
	res, err := mine.MPP(s, core.Params{Gap: g, MinSupport: rho, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	counter := combinat.MustCounter(s.Len(), g)
	beyond := 0
	for _, p := range res.Patterns {
		if p.Len() <= 3 {
			continue
		}
		beyond++
		sup, err := oracle.Support(s, p.Chars, g)
		if err != nil {
			t.Fatal(err)
		}
		if sup != p.Support || float64(sup) < rho*counter.NlFloat(p.Len())*(1-1e-9) {
			t.Errorf("beyond-n pattern %q invalid: sup=%d", p.Chars, sup)
		}
	}
	if beyond == 0 {
		t.Log("no beyond-n patterns found (acceptable but weak)")
	}
}

// TestMPPmSupersetOfGuarantee: MPPm must find every frequent pattern of
// length <= its chosen n; compare against the oracle.
func TestMPPmAgainstOracle(t *testing.T) {
	s, err := gen.BacterialLike(300, 17)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 2, M: 4}
	rho := 0.002
	res, err := mine.MPPm(s, core.Params{Gap: g, MinSupport: rho, EmOrder: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AutoN || res.Em < 1 {
		t.Errorf("MPPm metadata: AutoN=%v Em=%d", res.AutoN, res.Em)
	}
	upper := res.N
	if upper > 5 {
		upper = 5 // keep the oracle tractable
	}
	want, err := oracle.FrequentPatterns(s, g, rho, 3, upper)
	if err != nil {
		t.Fatal(err)
	}
	comparePatterns(t, "MPPm vs oracle", res.Patterns, want, 3, upper)
}

// TestMPPmChoosesReasonableN: MPPm's automatic n is at least the length of
// the longest frequent pattern (otherwise its guarantee would be hollow)
// and at most l1.
func TestMPPmChoosesReasonableN(t *testing.T) {
	s, err := gen.GenomeLike(500, 23)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 9, M: 12}
	res, err := mine.MPPm(s, core.Params{Gap: g, MinSupport: 0.00003, EmOrder: 6})
	if err != nil {
		t.Fatal(err)
	}
	counter := combinat.MustCounter(s.Len(), g)
	if res.N > counter.L1() {
		t.Errorf("auto n=%d exceeds l1=%d", res.N, counter.L1())
	}
	if lo := res.Longest(); res.N < lo {
		t.Errorf("auto n=%d below longest frequent pattern %d: guarantee broken", res.N, lo)
	}
}

// TestAdaptiveMatchesWorstCase: the adaptive refinement must end with the
// same frequent pattern set as a worst-case (n=l1) MPP run.
func TestAdaptiveMatchesWorstCase(t *testing.T) {
	s, err := gen.GenomeLike(400, 31)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 2, M: 4}
	rho := 0.0005
	worst, err := mine.MPP(s, core.Params{Gap: g, MinSupport: rho})
	if err != nil {
		t.Fatal(err)
	}
	ada, err := mine.Adaptive(s, core.Params{Gap: g, MinSupport: rho, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ada.Rounds) == 0 {
		t.Error("adaptive run recorded no rounds")
	}
	// Completeness is guaranteed up to the final round's n.
	finalN := ada.Rounds[len(ada.Rounds)-1]
	comparePatterns(t, "adaptive vs worst-case", ada.Patterns, worst.Patterns, 3, finalN)
	if ada.Algorithm != core.AlgoAdaptive || !ada.AutoN {
		t.Errorf("adaptive metadata wrong: %v %v", ada.Algorithm, ada.AutoN)
	}
}

// TestEnumerateBudget: a tiny budget aborts with ErrBudgetExceeded and a
// truncated result.
func TestEnumerateBudget(t *testing.T) {
	s, err := gen.Uniform(seq.DNA, "u", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine.Enumerate(s, core.Params{
		Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.001, CandidateBudget: 100,
	})
	if err == nil || !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil || !res.Truncated {
		t.Fatalf("result = %+v, want truncated", res)
	}
}

// TestWorkersDeterminism: multi-worker candidate counting, and MPPm's
// split e_m sweep, return the same result and level counters as
// sequential; so does the enumeration baseline, stopped by its candidate
// budget.
func TestWorkersDeterminism(t *testing.T) {
	s, err := gen.BacterialLike(400, 77)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 1, M: 3}, MinSupport: 0.0008, MaxLen: 6, CandidateBudget: 1 << 18}
	for _, algo := range []func(*seq.Sequence, core.Params) (*core.Result, error){mine.MPP, mine.MPPm, mine.Enumerate} {
		p.Workers = 1
		seqRes, seqErr := algo(s, p)
		p.Workers = 4
		parRes, parErr := algo(s, p)
		for _, err := range []error{seqErr, parErr} {
			if err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
				t.Fatal(err)
			}
		}
		if fmt.Sprint(seqErr) != fmt.Sprint(parErr) || seqRes.Truncated != parRes.Truncated {
			t.Errorf("%s: workers changed the outcome: %v (truncated %v) vs %v (truncated %v)",
				seqRes.Algorithm, seqErr, seqRes.Truncated, parErr, parRes.Truncated)
		}
		if seqRes.Em != parRes.Em || seqRes.N != parRes.N {
			t.Errorf("%s: workers moved e_m/n: %d/%d vs %d/%d", seqRes.Algorithm, seqRes.Em, seqRes.N, parRes.Em, parRes.N)
		}
		if fmt.Sprint(seqRes.Patterns) != fmt.Sprint(parRes.Patterns) {
			t.Errorf("%s: worker pool changed the mining result", seqRes.Algorithm)
		}
		sameLevelCounters(t, seqRes.Algorithm.String()+" with 4 workers", parRes.Levels, seqRes.Levels)
	}
}

// TestLevelMetricsConsistency: per-level counts must be internally
// consistent (Frequent <= Kept at levels <= n where λ <= 1, Kept <=
// Candidates, level numbers consecutive).
func TestLevelMetricsConsistency(t *testing.T) {
	s, err := gen.GenomeLike(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine.MPP(s, core.Params{Gap: combinat.Gap{N: 2, M: 4}, MinSupport: 0.001, MaxLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) == 0 {
		t.Fatal("no level metrics recorded")
	}
	for idx, lv := range res.Levels {
		if lv.Level != 3+idx {
			t.Errorf("level %d has Level=%d, want %d", idx, lv.Level, 3+idx)
		}
		if lv.Kept > lv.Candidates {
			t.Errorf("level %d: kept %d > candidates %d", lv.Level, lv.Kept, lv.Candidates)
		}
		if lv.Frequent > lv.Kept {
			t.Errorf("level %d: frequent %d > kept %d (λ=%v <= 1 so L ⊆ L̂)", lv.Level, lv.Frequent, lv.Kept, lv.Lambda)
		}
		if lv.Lambda < 0 || lv.Lambda > 1 {
			t.Errorf("level %d: λ=%v out of [0,1]", lv.Level, lv.Lambda)
		}
	}
}

// TestParamValidation exercises the failure paths.
func TestParamValidation(t *testing.T) {
	s, err := gen.Uniform(seq.DNA, "u", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []core.Params{
		{Gap: combinat.Gap{N: 5, M: 2}, MinSupport: 0.1},
		{Gap: combinat.Gap{N: -1, M: 2}, MinSupport: 0.1},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: -0.1},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 1.5},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, StartLen: -1},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, MaxLen: -2},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, EmOrder: -1},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, Workers: -3},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, Workers: 1 << 20},
		{Gap: combinat.Gap{N: 1, M: 2}, MinSupport: 0.1, CandidateBudget: -9},
	}
	for i, p := range bad {
		if _, err := mine.MPP(s, p); err == nil {
			t.Errorf("bad params %d accepted by MPP: %+v", i, p)
		}
	}
	if _, err := mine.MPPm(s, bad[0]); err == nil {
		t.Error("bad params accepted by MPPm")
	}
	if _, err := mine.Adaptive(s, bad[0]); err == nil {
		t.Error("bad params accepted by Adaptive")
	}
	if _, err := mine.Enumerate(s, bad[0]); err == nil {
		t.Error("bad params accepted by Enumerate")
	}
}

// TestShortSequence: sequences too short for even one StartLen-pattern
// yield empty results, not errors.
func TestShortSequence(t *testing.T) {
	s, err := seq.NewDNA("tiny", "ACGTT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine.MPP(s, core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("expected no patterns on a 5 bp sequence with gap [9,12], got %v", res.Patterns)
	}
}

// TestResultHelpers covers the Result convenience accessors.
func TestResultHelpers(t *testing.T) {
	s, err := gen.BacterialLike(300, 41)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine.MPP(s, core.Params{Gap: combinat.Gap{N: 1, M: 3}, MinSupport: 0.001, MaxLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Skip("no patterns to exercise helpers")
	}
	first := res.Patterns[0]
	got, ok := res.Pattern(first.Chars)
	if !ok || got.Support != first.Support {
		t.Errorf("Pattern(%q) = %v,%v", first.Chars, got, ok)
	}
	if _, ok := res.Pattern("ZZZ"); ok {
		t.Error("Pattern of absent chars returned ok")
	}
	byLen := res.ByLength(first.Len())
	if len(byLen) == 0 {
		t.Error("ByLength returned nothing")
	}
	if _, ok := res.Level(3); !ok {
		t.Error("Level(3) missing")
	}
	if res.Summary() == "" {
		t.Error("empty summary")
	}
	if res.Longest() < 3 {
		t.Errorf("Longest = %d", res.Longest())
	}
}

// TestOverflowGuard: parameters whose Nl exceeds the int64-safe ceiling
// must abort with a clear error instead of silently overflowing supports.
func TestOverflowGuard(t *testing.T) {
	// L=4000, gap [0,99]: W=100, Nl ~ 4000·100^(l-1) passes 4e18 by
	// level ~9; the homopolymer keeps every level's candidate alive.
	s, err := seq.NewDNA("polyA", strings.Repeat("A", 4000))
	if err != nil {
		t.Fatal(err)
	}
	_, err = mine.MPP(s, core.Params{Gap: combinat.Gap{N: 0, M: 99}, MinSupport: 0})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v, want overflow guard", err)
	}
}

// TestEnumerateOverflowGuard: the enumeration baseline refuses a level
// whose supports could overflow int64, with MPP's error and no result.
// Over a two-letter alphabet, 200 A's under gap [0,199] give A^l the
// support C(200, l) and every other pattern support 0: N12 = C(200, 12)
// ≈ 6.1e18 passes the guard's 4e18, and A^13's support, ≈ 8.8e19, does
// not fit int64 at all. From StartLen 13 the guard fires while the start
// level is built, before any wrapped support reaches a result, for every
// miner.
func TestEnumerateOverflowGuard(t *testing.T) {
	s, err := seq.New(seq.MustAlphabet("ab", "AB"), "a200", strings.Repeat("A", 200))
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 0, M: 199}, MinSupport: 0.5}
	_, mppErr := mine.MPP(s, p)
	if mppErr == nil || !strings.Contains(mppErr.Error(), "N12 exceeds") {
		t.Fatalf("MPP error = %v, want the overflow guard at level 12", mppErr)
	}
	res, err := mine.Enumerate(s, p)
	if res != nil {
		t.Errorf("Enumerate returned a result past the overflow guard: %d levels, truncated %v", len(res.Levels), res.Truncated)
	}
	if err == nil || err.Error() != mppErr.Error() {
		t.Errorf("Enumerate error = %v, want MPP's %q", err, mppErr)
	}

	p.StartLen, p.EmOrder = 13, 2
	for _, m := range []struct {
		name string
		mine func(*seq.Sequence, core.Params) (*core.Result, error)
	}{{"MPP", mine.MPP}, {"MPPm", mine.MPPm}, {"Enumerate", mine.Enumerate}} {
		res, err := m.mine(s, p)
		if res != nil {
			t.Errorf("%s from StartLen 13 returned a result past the overflow guard: %d patterns", m.name, len(res.Patterns))
		}
		if err == nil || err.Error() != mppErr.Error() {
			t.Errorf("%s from StartLen 13: error = %v, want %q", m.name, err, mppErr)
		}
	}
}

// TestRunDeterminism: repeated runs on the same input are bit-identical
// (patterns, supports, level counts).
func TestRunDeterminism(t *testing.T) {
	s, err := gen.GenomeLike(600, 99)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.0001, EmOrder: 5}
	a, err := mine.MPPm(s, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mine.MPPm(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Patterns) != fmt.Sprint(b.Patterns) {
		t.Error("patterns differ between identical runs")
	}
	if len(a.Levels) != len(b.Levels) {
		t.Fatal("level counts differ")
	}
	for i := range a.Levels {
		if a.Levels[i].Candidates != b.Levels[i].Candidates ||
			a.Levels[i].Frequent != b.Levels[i].Frequent ||
			a.Levels[i].Kept != b.Levels[i].Kept {
			t.Errorf("level %d metrics differ", a.Levels[i].Level)
		}
	}
}

// TestAllAlgorithmsAgreeOnFrequentSet: MPP(worst), MPPm and Adaptive must
// produce the identical frequent-pattern set on the same input (they
// differ only in pruning work).
func TestAllAlgorithmsAgreeOnFrequentSet(t *testing.T) {
	s, err := gen.GenomeLike(800, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 9, M: 12}
	rho := 0.00005
	worst, err := mine.MPP(s, core.Params{Gap: g, MinSupport: rho})
	if err != nil {
		t.Fatal(err)
	}
	mppm, err := mine.MPPm(s, core.Params{Gap: g, MinSupport: rho, EmOrder: 6})
	if err != nil {
		t.Fatal(err)
	}
	ada, err := mine.Adaptive(s, core.Params{Gap: g, MinSupport: rho, MaxLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Completeness guarantees: worst up to l1, MPPm up to its n,
	// adaptive up to its final n — compare over the smallest guarantee.
	upper := mppm.N
	if fin := ada.Rounds[len(ada.Rounds)-1]; fin < upper {
		upper = fin
	}
	comparePatterns(t, "MPPm vs worst", mppm.Patterns, worst.Patterns, 3, upper)
	comparePatterns(t, "adaptive vs worst", ada.Patterns, worst.Patterns, 3, upper)
}

// TestStartLenVariants: mining can seed at lengths other than 3.
func TestStartLenVariants(t *testing.T) {
	s, err := gen.BacterialLike(200, 31)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 1, M: 2}
	for _, startLen := range []int{1, 2, 4} {
		res, err := mine.MPP(s, core.Params{Gap: g, MinSupport: 0.005, MaxLen: 5, StartLen: startLen})
		if err != nil {
			t.Fatalf("StartLen=%d: %v", startLen, err)
		}
		if len(res.Levels) == 0 || res.Levels[0].Level != startLen {
			t.Errorf("StartLen=%d: first level %v", startLen, res.Levels)
		}
		want, err := oracle.FrequentPatterns(s, g, 0.005, startLen, 5)
		if err != nil {
			t.Fatal(err)
		}
		comparePatterns(t, fmt.Sprintf("StartLen=%d", startLen), res.Patterns, want, startLen, 5)
	}
}

// TestElapsedRecorded: timing metadata must be populated.
func TestElapsedRecorded(t *testing.T) {
	s, err := gen.GenomeLike(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine.MPPm(s, core.Params{Gap: combinat.Gap{N: 2, M: 4}, MinSupport: 0.001, EmOrder: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

// TestTheorem2OnMinedPatterns: end-to-end check of the e_m bound — for
// every mined pattern P and prefix sub-pattern Q = P[1..l-d],
// sup(Q) >= sup(P) / (e_m^s · W^t) with s = floor(d/m), t = d - s·m.
func TestTheorem2OnMinedPatterns(t *testing.T) {
	s, err := gen.GenomeLike(400, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 2, M: 4}
	m := 2
	em, err := embound.Em(s, g, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine.MPP(s, core.Params{Gap: g, MinSupport: 0.0005, MaxLen: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := float64(g.W())
	checked := 0
	for _, p := range res.Patterns {
		if p.Len() < 5 {
			continue
		}
		for d := 1; d < p.Len()-2; d++ {
			q := p.Chars[:p.Len()-d]
			supQ, err := oracle.Support(s, q, g)
			if err != nil {
				t.Fatal(err)
			}
			sCnt := d / m
			tCnt := d - sCnt*m
			bound := float64(p.Support)
			for k := 0; k < sCnt; k++ {
				bound /= float64(em)
			}
			for k := 0; k < tCnt; k++ {
				bound /= w
			}
			if float64(supQ) < bound-1e-9 {
				t.Errorf("Theorem 2 violated: sup(%q)=%d < sup(%q)/(e_%d^%d·W^%d)=%v",
					q, supQ, p.Chars, m, sCnt, tCnt, bound)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no pattern long enough for Theorem 2")
	}
}
