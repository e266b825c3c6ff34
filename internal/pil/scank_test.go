package pil_test

import (
	"testing"

	"permine/internal/combinat"
	"permine/internal/gen"
	"permine/internal/oracle"
	"permine/internal/pil"
	"permine/internal/seq"
)

// TestScanKPackedSorted: the scan returns codes strictly ascending with
// supports matching the lists.
func TestScanKPackedSorted(t *testing.T) {
	s, err := gen.GenomeLike(500, 11)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 1, M: 4}
	packed, err := pil.ScanKPacked(s, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) == 0 {
		t.Fatal("no patterns")
	}
	for i, cl := range packed {
		if i > 0 && packed[i-1].Code >= cl.Code {
			t.Fatalf("codes out of order at %d: %d >= %d", i, packed[i-1].Code, cl.Code)
		}
		if err := cl.List.Validate(); err != nil {
			t.Fatalf("code %d: %v", cl.Code, err)
		}
		if cl.Sup != cl.List.Support() {
			t.Errorf("code %d: Sup %d != list support %d", cl.Code, cl.Sup, cl.List.Support())
		}
	}
}

// TestScanKLargeScratch scans with many distinct patterns per start
// (protein alphabet, wide window: up to 144 distinct length-3 patterns
// per start) and checks the PILs against the brute-force oracle.
func TestScanKLargeScratch(t *testing.T) {
	s, err := gen.Uniform(seq.Protein, "prot", 150, 99)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 0, M: 11} // W = 12: 144 offset pairs per start
	scans, err := pil.ScanK(s, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scans) == 0 {
		t.Fatal("no patterns")
	}
	i := 0
	for pat, list := range scans {
		if err := list.Validate(); err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if i++; i%7 != 0 { // oracle-check a sample; the sum check below covers all
			continue
		}
		want, err := oracle.PIL(s, pat, g)
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != len(want) {
			t.Fatalf("%s: %d entries, oracle %d", pat, len(list), len(want))
		}
		for _, e := range list {
			if want[e.X] != e.Y {
				t.Errorf("%s x=%d: y=%d oracle=%d", pat, e.X, e.Y, want[e.X])
			}
		}
	}
	// Total support over all length-3 patterns must equal N3.
	var total int64
	for _, list := range scans {
		total += list.Support()
	}
	n3, err := oracle.CountOffsets(s.Len(), 3, g)
	if err != nil {
		t.Fatal(err)
	}
	if total != n3 {
		t.Errorf("Σ sup = %d, N3 = %d", total, n3)
	}
}

// TestDecodePackedRoundTrip: ScanKPacked's codes decode to the exact
// pattern set ScanK reports.
func TestDecodePackedRoundTrip(t *testing.T) {
	s, err := gen.GenomeLike(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 2, M: 5}
	packed, err := pil.ScanKPacked(s, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	chars, err := pil.ScanK(s, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != len(chars) {
		t.Fatalf("%d packed vs %d decoded patterns", len(packed), len(chars))
	}
	alpha := s.Alphabet()
	for _, cl := range packed {
		pat := alpha.DecodePacked(cl.Code, 4)
		want, ok := chars[pat]
		if !ok {
			t.Fatalf("code %d decodes to %q, absent from ScanK", cl.Code, pat)
		}
		if len(want) != len(cl.List) {
			t.Fatalf("%q: list lengths differ", pat)
		}
	}
}
