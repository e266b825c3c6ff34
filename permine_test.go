package permine_test

import (
	"bytes"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"permine"
	"permine/internal/oracle"
)

func TestQuickstartFlow(t *testing.T) {
	s, err := permine.GenerateGenomeLike(600, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := permine.MPPm(s, permine.Params{
		Gap:        permine.Gap{N: 9, M: 12},
		MinSupport: 0.0003,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != permine.AlgoMPPm {
		t.Errorf("algorithm = %v", res.Algorithm)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("expected frequent patterns on the genome-like sequence")
	}
	// Every reported support must be reproducible through the public
	// Support API.
	for _, p := range res.Patterns[:minInt(10, len(res.Patterns))] {
		sup, err := permine.Support(s, p.Chars, permine.Gap{N: 9, M: 12})
		if err != nil {
			t.Fatal(err)
		}
		if sup != p.Support {
			t.Errorf("Support(%q) = %d, mined %d", p.Chars, sup, p.Support)
		}
	}
}

func TestSupportMatchesOracle(t *testing.T) {
	check := func(seed uint64, patRaw uint16, gapRaw uint8) bool {
		s, err := permine.GenerateUniform(permine.DNA, "q", 80, seed)
		if err != nil {
			return false
		}
		g := permine.Gap{N: int(gapRaw % 4)}
		g.M = g.N + int(gapRaw%3)
		pat := make([]byte, 3+int(patRaw%2))
		v := patRaw
		for i := range pat {
			pat[i] = "ACGT"[v%4]
			v /= 4
		}
		got, err := permine.Support(s, string(pat), g)
		if err != nil {
			return false
		}
		want, err := oracle.Support(s, string(pat), g)
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSupportErrors(t *testing.T) {
	s, err := permine.NewDNASequence("x", "ACGT")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := permine.Support(s, "AXE", permine.Gap{N: 1, M: 2}); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := permine.Support(s, "AC", permine.Gap{N: 2, M: 1}); err == nil {
		t.Error("bad gap accepted")
	}
	sup, err := permine.Support(s, "", permine.Gap{N: 1, M: 2})
	if err != nil || sup != 0 {
		t.Errorf("empty pattern: %d, %v", sup, err)
	}
}

func TestCountOffsetsPaperValue(t *testing.T) {
	// N10 for L=1000, gap [9,12] is about 235 million (paper §4.1).
	n10, err := permine.CountOffsets(1000, 10, permine.Gap{N: 9, M: 12})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(big.NewInt(1793), big.NewInt(262144))
	want.Rsh(want, 1)
	if n10.Cmp(want) != 0 {
		t.Errorf("N10 = %v, want %v", n10, want)
	}
}

func TestSpanAndLengthBounds(t *testing.T) {
	lo, hi := permine.SpanBounds(3, permine.Gap{N: 3, M: 4})
	if lo != 9 || hi != 11 {
		t.Errorf("SpanBounds = %d,%d want 9,11", lo, hi)
	}
	l1, l2 := permine.LengthBounds(1000, permine.Gap{N: 9, M: 12})
	if l1 != 77 || l2 != 100 {
		t.Errorf("LengthBounds = %d,%d want 77,100", l1, l2)
	}
}

func TestFASTARoundTrip(t *testing.T) {
	s1, err := permine.GenerateBacterialLike(230, 3)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := permine.GenerateEukaryoteLike(2100, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := permine.WriteFASTA(&buf, 60, s1, s2); err != nil {
		t.Fatal(err)
	}
	back, err := permine.ReadFASTA(&buf, permine.DNA)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d records", len(back))
	}
	if back[0].Data() != s1.Data() || back[1].Data() != s2.Data() {
		t.Error("round trip altered sequence data")
	}
	if back[0].Name() != s1.Name() {
		t.Errorf("name %q != %q", back[0].Name(), s1.Name())
	}
}

func TestCustomAlphabet(t *testing.T) {
	events, err := permine.NewAlphabet("events", "abcdef")
	if err != nil {
		t.Fatal(err)
	}
	s, err := permine.GenerateUniform(events, "log", 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := permine.MPP(s, permine.Params{Gap: permine.Gap{N: 0, M: 1}, MinSupport: 0.002, MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		for i := 0; i < len(p.Chars); i++ {
			if !events.Contains(p.Chars[i]) {
				t.Fatalf("pattern %q leaked out of the alphabet", p.Chars)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, f := range []func(int, uint64) (*permine.Sequence, error){
		permine.GenerateGenomeLike,
		permine.GenerateBacterialLike,
		permine.GenerateEukaryoteLike,
	} {
		a, err := f(500, 77)
		if err != nil {
			t.Fatal(err)
		}
		b, err := f(500, 77)
		if err != nil {
			t.Fatal(err)
		}
		if a.Data() != b.Data() {
			t.Errorf("%s not deterministic", a.Name())
		}
		c, err := f(500, 78)
		if err != nil {
			t.Fatal(err)
		}
		if a.Data() == c.Data() {
			t.Errorf("%s ignores the seed", a.Name())
		}
	}
	p1, err := permine.GenerateProteinRepeat(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := permine.GenerateProteinRepeat(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Data() != p2.Data() {
		t.Error("protein generator not deterministic")
	}
}

func TestAdaptivePublic(t *testing.T) {
	s, err := permine.GenerateGenomeLike(400, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := permine.Adaptive(s, permine.Params{Gap: permine.Gap{N: 2, M: 4}, MinSupport: 0.0008, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != permine.AlgoAdaptive || len(res.Rounds) == 0 {
		t.Errorf("adaptive result: %v rounds=%v", res.Algorithm, res.Rounds)
	}
}

func TestPatternExpand(t *testing.T) {
	p := permine.Pattern{Chars: "ATC"}
	if got := p.Expand(8, 10); got != "Ag(8,10)Tg(8,10)C" {
		t.Errorf("Expand = %q", got)
	}
	if !strings.Contains(p.String(), "ATC") {
		t.Errorf("String = %q", p.String())
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFindTandemRepeatsPublic(t *testing.T) {
	s, err := permine.NewDNASequence("t", "CCATATATATGG")
	if err != nil {
		t.Fatal(err)
	}
	reps, err := permine.FindTandemRepeats(s, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Unit != "AT" || reps[0].Copies != 4 {
		t.Fatalf("reps = %v", reps)
	}
	top := permine.LongestTandemRepeats(reps, 1)
	if len(top) != 1 {
		t.Fatalf("top = %v", top)
	}
	if _, err := permine.FindTandemRepeats(s, 0, 2); err == nil {
		t.Error("bad period accepted")
	}
}

func TestFacadeWrappers(t *testing.T) {
	// GenerateWeighted / GenerateMarkov / NewSequence / Em / Enumerate —
	// thin wrappers, exercised once each through the public API.
	w, err := permine.GenerateWeighted(permine.DNA, "w", 500, []float64{0.7, 0.1, 0.1, 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	nA := strings.Count(w.Data(), "A")
	if nA < 300 {
		t.Errorf("weighted generator: %d A's of 500", nA)
	}
	trans := [][]float64{{0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {1, 0, 0, 0}}
	m, err := permine.GenerateMarkov(permine.DNA, "m", 100, trans, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 100 {
		t.Errorf("markov length %d", m.Len())
	}
	s, err := permine.NewSequence(permine.Protein, "p", "ACDEFGHIKL")
	if err != nil {
		t.Fatal(err)
	}
	if s.Alphabet() != permine.Protein {
		t.Error("alphabet lost")
	}
	g := permine.Gap{N: 1, M: 2}
	em, err := permine.Em(w, g, 3)
	if err != nil || em < 1 {
		t.Errorf("Em = %d, %v", em, err)
	}
	if _, err := permine.MPPm(w, permine.Params{Gap: g, MinSupport: 0.01, Workers: 1 << 20}); err == nil {
		t.Error("MPPm accepted Workers = 1<<20")
	}
	res, err := permine.Enumerate(w, permine.Params{Gap: g, MinSupport: 0.01, CandidateBudget: 1 << 18})
	if err != nil && !strings.Contains(err.Error(), "budget") {
		t.Fatal(err)
	}
	if res == nil || len(res.Levels) == 0 {
		t.Error("enumerate returned nothing")
	}
}

func TestGapString(t *testing.T) {
	if got := (permine.Gap{N: 9, M: 12}).String(); got != "[9,12]" {
		t.Errorf("Gap.String = %q", got)
	}
}
