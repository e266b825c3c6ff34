package tandem_test

import (
	"strings"
	"testing"
	"testing/quick"

	"permine/internal/gen"
	"permine/internal/seq"
	"permine/internal/tandem"
)

func mustSeq(t *testing.T, data string) *seq.Sequence {
	t.Helper()
	s, err := seq.NewDNA("t", data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func find(t *testing.T, data string, maxP, minCopies int) []tandem.Repeat {
	t.Helper()
	reps, err := tandem.Find(mustSeq(t, data), maxP, minCopies)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

func TestFindSimple(t *testing.T) {
	// ATATAT = AT x3 starting at 0. Period 1 runs are too short.
	reps := find(t, "ATATAT", 3, 2)
	if len(reps) != 1 {
		t.Fatalf("reps = %v", reps)
	}
	r := reps[0]
	if r.Unit != "AT" || r.Copies != 3 || r.Extra != 0 || r.Start != 0 {
		t.Errorf("repeat = %+v", r)
	}
	if r.Len() != 6 || r.End() != 6 || r.Period() != 2 {
		t.Errorf("derived fields: %+v", r)
	}
	if !strings.Contains(r.String(), "AT x3") {
		t.Errorf("String = %q", r.String())
	}
}

func TestFindPartialCopy(t *testing.T) {
	// ATATA = AT x2 + 1 extra character.
	reps := find(t, "ATATA", 3, 2)
	if len(reps) != 1 {
		t.Fatalf("reps = %v", reps)
	}
	if reps[0].Copies != 2 || reps[0].Extra != 1 {
		t.Errorf("repeat = %+v", reps[0])
	}
}

func TestFindHomopolymer(t *testing.T) {
	// AAAA: reported once, as the period-1 run (period 2 "AA" is not
	// primitive).
	reps := find(t, "CAAAAG", 3, 2)
	if len(reps) != 1 {
		t.Fatalf("reps = %v", reps)
	}
	if reps[0].Unit != "A" || reps[0].Copies != 4 || reps[0].Start != 1 {
		t.Errorf("repeat = %+v", reps[0])
	}
}

func TestFindEmbedded(t *testing.T) {
	// The paper's C. elegans example GTAGTAGTAGT: GTA x3 + 2.
	reps := find(t, "CCGTAGTAGTAGTCC", 5, 3)
	if len(reps) != 1 {
		t.Fatalf("reps = %v", reps)
	}
	r := reps[0]
	if r.Unit != "GTA" || r.Copies != 3 || r.Extra != 2 || r.Start != 2 {
		t.Errorf("repeat = %+v", r)
	}
}

func TestFindMinCopies(t *testing.T) {
	reps := find(t, "ATATATAT", 2, 4) // AT x4 qualifies
	if len(reps) != 1 || reps[0].Copies != 4 {
		t.Fatalf("reps = %v", reps)
	}
	reps = find(t, "ATATATAT", 2, 5) // ...but not at minCopies 5
	if len(reps) != 0 {
		t.Fatalf("reps = %v", reps)
	}
}

func TestFindNoRepeats(t *testing.T) {
	if reps := find(t, "ACGT", 2, 2); len(reps) != 0 {
		t.Errorf("reps = %v", reps)
	}
}

func TestFindErrors(t *testing.T) {
	if _, err := tandem.Find(mustSeq(t, "ACGT"), 0, 2); err == nil {
		t.Error("maxPeriod 0 accepted")
	}
}

func TestLongest(t *testing.T) {
	reps := find(t, "ATATATATCCGGGGGG", 4, 2) // AT x4 (len 8), G x6 (len 6), ...
	top := tandem.Longest(reps, 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Len() < top[1].Len() {
		t.Error("not sorted by length")
	}
	if top[0].Unit != "AT" || top[0].Len() != 8 {
		t.Errorf("top[0] = %+v", top[0])
	}
}

// TestFindPlantedRepeat: the generator's tandem tracts are recovered.
func TestFindPlantedRepeat(t *testing.T) {
	s, err := gen.Build(gen.CompositeSpec{
		Alphabet:   seq.DNA,
		Name:       "p",
		Length:     500,
		Background: []float64{0.25, 0.25, 0.25, 0.25},
		Tracts:     []gen.Tract{{Start: 100, Text: gen.TandemRepeat("ACGT", 10)}},
		Seed:       99,
	})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := tandem.Find(s, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range reps {
		// The planted unit may be found rotated or extended, but a run
		// of >= 8 ACGT copies must cover the tract.
		if r.Period() == 4 && r.Copies >= 8 && r.Start >= 95 && r.Start <= 101 {
			found = true
		}
	}
	if !found {
		t.Errorf("planted ACGTx10 not recovered: %v", reps)
	}
}

// TestFindProperties: every reported repeat must verify against the raw
// sequence, be maximal, and primitive.
func TestFindProperties(t *testing.T) {
	check := func(seed uint64) bool {
		s, err := gen.Weighted(seq.DNA, "q", 300, []float64{0.4, 0.1, 0.1, 0.4}, seed)
		if err != nil {
			return false
		}
		reps, err := tandem.Find(s, 5, 2)
		if err != nil {
			return false
		}
		data := s.Data()
		for _, r := range reps {
			p := r.Period()
			// Verify the run content.
			for j := 0; j < r.Len(); j++ {
				if data[r.Start+j] != r.Unit[j%p] {
					return false
				}
			}
			// Left-maximal: the character before the run must break it.
			if r.Start > 0 && r.Start+p <= len(data) && data[r.Start-1] == data[r.Start-1+p] {
				return false
			}
			// Right-maximal: the character after must break it.
			if r.End() < len(data) && r.End()-p >= 0 && data[r.End()] == data[r.End()-p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
