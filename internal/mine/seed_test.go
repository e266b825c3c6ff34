package mine

import (
	"slices"
	"strings"
	"testing"

	"permine/internal/combinat"
	"permine/internal/core"
	seqgen "permine/internal/gen"
	"permine/internal/pil"
	"permine/internal/seq"
)

// TestSeedEqualsScan: the start level the loop builds by joins from the
// length-1 lists holds, entry by entry, what the paper's direct scan
// (pil.ScanKPacked) finds: the same patterns in the same order, with the
// same lists and supports. The inputs are DNA, protein and the 100-symbol
// alphabet of TestPatternsLongerThanUint64Codes, at start lengths 1 to 5
// under four gaps.
func TestSeedEqualsScan(t *testing.T) {
	symbols := make([]byte, 100)
	for i := range symbols {
		symbols[i] = byte(0x21 + i)
	}
	wide, err := seq.NewAlphabet("wide100", string(symbols))
	if err != nil {
		t.Fatal(err)
	}
	dna, err := seqgen.GenomeLike(400, 11)
	if err != nil {
		t.Fatal(err)
	}
	protein, err := seqgen.ProteinRepeat(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	wideSeq, err := seqgen.Uniform(wide, "wide100", 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*seq.Sequence{dna, protein, wideSeq} {
		alpha := s.Alphabet()
		for _, g := range []combinat.Gap{{N: 0, M: 0}, {N: 2, M: 2}, {N: 1, M: 3}, {N: 9, M: 12}} {
			counter, err := combinat.NewCounter(s.Len(), g)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 5; k++ {
				p, err := core.Params{Gap: g, StartLen: k, Workers: 2}.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				r := &runner{s: s, p: p, counter: counter, res: &core.Result{Algorithm: core.AlgoMPP}}
				hat := r.seed()
				if r.err != nil {
					t.Fatal(r.err)
				}
				want, err := pil.ScanKPacked(s, g, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(hat) != len(want) || len(hat) == 0 {
					t.Fatalf("%s gap %v k=%d: seed has %d patterns, scan %d", alpha.Name(), g, k, len(hat), len(want))
				}
				chars := r.chars[k&1]
				for j, cl := range want {
					e := hat[j]
					got, pat := string(chars[j*k:(j+1)*k]), alpha.DecodePacked(cl.Code, k)
					if got != pat || e.sup != cl.Sup || !slices.Equal(e.list, cl.List) {
						t.Fatalf("%s gap %v k=%d entry %d: seed %q (sup %d, %d entries), scan %q (sup %d, %d entries)",
							alpha.Name(), g, k, j, got, e.sup, len(e.list), pat, cl.Sup, len(cl.List))
					}
				}
			}
		}
	}
}

// TestLongStartLen: a start length whose |Σ|^StartLen patterns the
// direct scan refuses to intern (14 DNA symbols, past 2^26) still mines,
// since the seed is built by joins, and it mines what a run from length 3
// finds at lengths 14 to MaxLen, where both are complete. The subject is a
// tandem repeat whose windows hold few distinct length-14 patterns, so
// the seed stays small.
func TestLongStartLen(t *testing.T) {
	s, err := seq.New(seq.DNA, "repeat", strings.Repeat("AAAAGAAAAC", 200))
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 0, M: 1}
	if _, err := pil.ScanKPacked(s, g, 14); err == nil {
		t.Fatal("the direct scan accepted length 14 over DNA; the case no longer needs the joins")
	}
	p := core.Params{Gap: g, MinSupport: 0.001, StartLen: 14, MaxLen: 16, Workers: 2}
	res, err := MPP(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) == 0 || res.Levels[0].Level != 14 || res.Levels[0].Frequent == 0 {
		t.Fatalf("levels %+v; want the start level 14 with frequent patterns", res.Levels)
	}
	p.StartLen = 3
	from3, err := MPP(s, p)
	if err != nil {
		t.Fatal(err)
	}
	var want []core.Pattern
	for _, pat := range from3.Patterns {
		if len(pat.Chars) >= 14 && len(pat.Chars) <= 16 {
			want = append(want, pat)
		}
	}
	var got []core.Pattern
	for _, pat := range res.Patterns {
		if len(pat.Chars) <= 16 {
			got = append(got, pat)
		}
	}
	samePatterns(t, "StartLen 14 vs 3", got, want)
}
