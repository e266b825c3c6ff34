package pil_test

import (
	"testing"
	"testing/quick"

	"permine/internal/combinat"
	"permine/internal/gen"
	"permine/internal/oracle"
	"permine/internal/pil"
	"permine/internal/seq"
)

func mustSeq(t *testing.T, data string) *seq.Sequence {
	t.Helper()
	s, err := seq.NewDNA("test", data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPaperPILExample reproduces §5.1: S = AACCGTT, P = ACT, gap [1,2]
// gives PIL(P) = {(1,3),(2,2)} in the paper's 1-based positions, i.e.
// {(0,3),(1,2)} 0-based, and sup(P) = 5.
func TestPaperPILExample(t *testing.T) {
	s := mustSeq(t, "AACCGTT")
	g := combinat.Gap{N: 1, M: 2}
	got, err := oracle.PIL(s, "ACT", g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32]int64{0: 3, 1: 2}
	if len(got) != len(want) {
		t.Fatalf("PIL = %v, want %v", got, want)
	}
	for x, y := range want {
		if got[x] != y {
			t.Errorf("PIL[%d] = %d, want %d", x, got[x], y)
		}
	}

	// The same PIL must fall out of the Join machinery: scan length-2
	// PILs and join PIL(AC) with PIL(CT).
	twos, err := pil.ScanK(s, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	joined := pil.Join(twos["AC"], twos["CT"], g)
	if err := joined.Validate(); err != nil {
		t.Fatal(err)
	}
	if joined.Support() != 5 {
		t.Errorf("sup(ACT) via join = %d, want 5", joined.Support())
	}
	asMap := map[int32]int64{}
	for _, e := range joined {
		asMap[e.X] = e.Y
	}
	for x, y := range want {
		if asMap[x] != y {
			t.Errorf("join PIL[%d] = %d, want %d", x, asMap[x], y)
		}
	}
}

// TestPaperSupportExample reproduces §3: S = AAGCC, P = AC, gap [2,3]
// gives sup(P) = 3 via offset sequences [1,4],[1,5],[2,5] (1-based).
func TestPaperSupportExample(t *testing.T) {
	s := mustSeq(t, "AAGCC")
	g := combinat.Gap{N: 2, M: 3}
	sup, err := oracle.Support(s, "AC", g)
	if err != nil {
		t.Fatal(err)
	}
	if sup != 3 {
		t.Errorf("sup(AC) = %d, want 3", sup)
	}
	twos, err := pil.ScanK(s, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := twos["AC"].Support(); got != 3 {
		t.Errorf("scan sup(AC) = %d, want 3", got)
	}
}

// TestAprioriCounterexample reproduces §4.2: S = ACTTT, gap [1,3]:
// sup(AT) = 3 exceeds sup(A) = 1, so the plain Apriori property fails.
func TestAprioriCounterexample(t *testing.T) {
	s := mustSeq(t, "ACTTT")
	g := combinat.Gap{N: 1, M: 3}
	supAT, err := oracle.Support(s, "AT", g)
	if err != nil {
		t.Fatal(err)
	}
	supA, err := oracle.Support(s, "A", g)
	if err != nil {
		t.Fatal(err)
	}
	if supAT != 3 || supA != 1 {
		t.Fatalf("sup(AT)=%d sup(A)=%d, want 3 and 1", supAT, supA)
	}
	if supAT <= supA {
		t.Error("expected the Apriori violation sup(AT) > sup(A)")
	}
}

func TestSupportEmptyAndMissing(t *testing.T) {
	s := mustSeq(t, "ACGT")
	g := combinat.Gap{N: 0, M: 1}
	if _, err := oracle.Support(s, "", g); err == nil {
		t.Error("empty pattern should error")
	}
	if _, err := oracle.Support(s, "AXZ", g); err == nil {
		t.Error("non-alphabet pattern should error")
	}
	sup, err := oracle.Support(s, "TG", g)
	if err != nil {
		t.Fatal(err)
	}
	if sup != 0 {
		t.Errorf("sup(TG) = %d, want 0", sup)
	}
}

func TestListValidate(t *testing.T) {
	good := pil.List{{X: 0, Y: 2}, {X: 3, Y: 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
	if err := (pil.List{{X: 0, Y: 0}}).Validate(); err == nil {
		t.Error("zero count accepted")
	}
	if err := (pil.List{{X: 5, Y: 1}, {X: 5, Y: 1}}).Validate(); err == nil {
		t.Error("duplicate X accepted")
	}
	if err := (pil.List{{X: 5, Y: 1}, {X: 2, Y: 1}}).Validate(); err == nil {
		t.Error("unsorted list accepted")
	}
}

func TestFromPairs(t *testing.T) {
	l := pil.FromPairs(map[int32]int64{5: 2, 1: 3, 9: 0, 7: 1})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(l) != 3 || l[0].X != 1 || l[2].X != 7 {
		t.Errorf("FromPairs = %v", l)
	}
}

// TestScanKAgainstOracle compares scan-built PILs of short patterns with
// the brute-force oracle on generated sequences.
func TestScanKAgainstOracle(t *testing.T) {
	s, err := gen.Uniform(seq.DNA, "u", 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []combinat.Gap{{N: 0, M: 0}, {N: 1, M: 3}, {N: 4, M: 6}} {
		for k := 1; k <= 3; k++ {
			scans, err := pil.ScanK(s, g, k)
			if err != nil {
				t.Fatal(err)
			}
			for pat, list := range scans {
				if err := list.Validate(); err != nil {
					t.Fatalf("g=%v %s: %v", g, pat, err)
				}
				want, err := oracle.PIL(s, pat, g)
				if err != nil {
					t.Fatal(err)
				}
				if len(list) != len(want) {
					t.Fatalf("g=%v %s: %d entries, oracle %d", g, pat, len(list), len(want))
				}
				for _, e := range list {
					if want[e.X] != e.Y {
						t.Errorf("g=%v %s x=%d: y=%d oracle=%d", g, pat, e.X, e.Y, want[e.X])
					}
				}
			}
			// Total scan support over all length-k patterns must equal Nk.
			var total int64
			for _, list := range scans {
				total += list.Support()
			}
			nk, err := oracle.CountOffsets(s.Len(), k, g)
			if err != nil {
				t.Fatal(err)
			}
			if total != nk {
				t.Errorf("g=%v k=%d: Σ sup = %d, Nk = %d", g, k, total, nk)
			}
		}
	}
}

// TestJoinProperty: joining PIL(P[:l-1]) with PIL(P[1:]) must reproduce
// the oracle PIL of P, on random short DNA sequences and patterns.
func TestJoinProperty(t *testing.T) {
	check := func(seed uint64, nRaw, wRaw uint8, patRaw uint16) bool {
		g := combinat.Gap{N: int(nRaw % 4), M: 0}
		g.M = g.N + int(wRaw%3)
		s, err := gen.Uniform(seq.DNA, "q", 60, seed)
		if err != nil {
			return false
		}
		// Build a length-4 pattern from patRaw's base-4 digits.
		pat := make([]byte, 4)
		v := patRaw
		for i := range pat {
			pat[i] = "ACGT"[v%4]
			v /= 4
		}
		p := string(pat)
		threes, err := pil.ScanK(s, g, 3)
		if err != nil {
			return false
		}
		joined := pil.Join(threes[p[:3]], threes[p[1:]], g)
		if joined.Validate() != nil {
			return false
		}
		want, err := oracle.PIL(s, p, g)
		if err != nil {
			return false
		}
		if len(joined) != len(want) {
			return false
		}
		for _, e := range joined {
			if want[e.X] != e.Y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJoinEmpty(t *testing.T) {
	g := combinat.Gap{N: 1, M: 2}
	nonEmpty := pil.List{{X: 0, Y: 1}}
	if got := pil.Join(nil, nonEmpty, g); got != nil {
		t.Errorf("Join(nil, x) = %v, want nil", got)
	}
	if got := pil.Join(nonEmpty, nil, g); got != nil {
		t.Errorf("Join(x, nil) = %v, want nil", got)
	}
}

func TestScanKErrors(t *testing.T) {
	s := mustSeq(t, "ACGTACGT")
	if _, err := pil.ScanK(s, combinat.Gap{N: 1, M: 2}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := pil.ScanK(s, combinat.Gap{N: 3, M: 2}, 2); err == nil {
		t.Error("invalid gap accepted")
	}
}

// TestScanKShortSequence: patterns longer than the sequence allows yield
// an empty map, not an error.
func TestScanKShortSequence(t *testing.T) {
	s := mustSeq(t, "ACG")
	got, err := pil.ScanK(s, combinat.Gap{N: 5, M: 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("expected no patterns, got %v", got)
	}
}

// TestJoinFoldDirections: building PIL(P) by right-fold (singles joined
// from the suffix) must equal building it from a middle split
// (PIL(prefix) ⋈ PIL(suffix)), for all splits.
func TestJoinFoldDirections(t *testing.T) {
	s, err := gen.GenomeLike(250, 77)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 2, M: 4}
	pat := "ATAAT"
	singles := pil.Singles(nil, s)
	codes, err := s.Alphabet().Encode(pat)
	if err != nil {
		t.Fatal(err)
	}
	// rightFold[i] = PIL(pat[i:]).
	rightFold := make([]pil.List, len(codes))
	rightFold[len(codes)-1] = singles[codes[len(codes)-1]]
	for i := len(codes) - 2; i >= 0; i-- {
		rightFold[i] = pil.Join(singles[codes[i]], rightFold[i+1], g)
	}
	want := rightFold[0]
	if want.Support() == 0 {
		t.Skip("pattern absent; vacuous")
	}
	// Middle splits: PIL(pat) = Join(PIL(pat[:k+1])-style chains).
	// Build prefix PILs as Join(PIL(pat[:len-1]), PIL(pat[1:])) is the
	// miner's form; here check every split against the paper identity
	// PIL(P) = Join over first-offset windows of PIL(P[1:]).
	got := pil.Join(rightFold[0][:len(rightFold[0]):len(rightFold[0])], rightFold[1], g)
	// Note: joining PIL(P) with PIL(P[1:]) again must be idempotent on
	// the x set filter (every x in PIL(P) already has continuations).
	if len(got) != len(want) {
		t.Fatalf("idempotent join changed entries: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("entry %d: %v vs %v", i, got[i], want[i])
		}
	}
}
