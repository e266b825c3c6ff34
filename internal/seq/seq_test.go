package seq_test

import (
	"strings"
	"testing"
	"testing/quick"

	"permine/internal/seq"
)

func TestAlphabetBasics(t *testing.T) {
	if seq.DNA.Size() != 4 || seq.DNA.Bits() != 2 {
		t.Errorf("DNA: size=%d bits=%d", seq.DNA.Size(), seq.DNA.Bits())
	}
	if seq.Protein.Size() != 20 || seq.Protein.Bits() != 5 {
		t.Errorf("Protein: size=%d bits=%d", seq.Protein.Size(), seq.Protein.Bits())
	}
	code, ok := seq.DNA.Code('G')
	if !ok || code != 2 {
		t.Errorf("Code(G) = %d,%v", code, ok)
	}
	if _, ok := seq.DNA.Code('X'); ok {
		t.Error("Code(X) accepted")
	}
	if seq.DNA.Symbol(3) != 'T' {
		t.Errorf("Symbol(3) = %c", seq.DNA.Symbol(3))
	}
	if got := string(seq.DNA.Symbols()); got != "ACGT" {
		t.Errorf("Symbols = %q", got)
	}
	if !strings.Contains(seq.DNA.String(), "ACGT") {
		t.Errorf("String = %q", seq.DNA.String())
	}
}

func TestAlphabetErrors(t *testing.T) {
	if _, err := seq.NewAlphabet("one", "A"); err == nil {
		t.Error("single-symbol alphabet accepted")
	}
	if _, err := seq.NewAlphabet("dup", "AAB"); err == nil {
		t.Error("duplicate symbols accepted")
	}
	long := make([]byte, 256)
	for i := range long {
		long[i] = byte(i)
	}
	if _, err := seq.NewAlphabet("big", string(long)); err == nil {
		t.Error("256-symbol alphabet accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAlphabet did not panic")
		}
	}()
	seq.MustAlphabet("bad", "X")
}

// TestParseAlphabet: the two named alphabets are read in any case, an
// empty name is DNA, and any other name is a custom alphabet of exactly
// the given symbols, case kept, checked as NewAlphabet checks them.
func TestParseAlphabet(t *testing.T) {
	for _, name := range []string{"", "dna", "DNA", "Dna"} {
		if a, err := seq.ParseAlphabet(name); err != nil || a != seq.DNA {
			t.Errorf("ParseAlphabet(%q) = %v, %v; want DNA", name, a, err)
		}
	}
	for _, name := range []string{"protein", "PROTEIN", "Protein"} {
		if a, err := seq.ParseAlphabet(name); err != nil || a != seq.Protein {
			t.Errorf("ParseAlphabet(%q) = %v, %v; want Protein", name, a, err)
		}
	}
	for _, name := range []string{"xyz", "xYz", "01"} {
		a, err := seq.ParseAlphabet(name)
		if err != nil || a.Name() != "custom" || string(a.Symbols()) != name {
			t.Errorf("ParseAlphabet(%q) = %v, %v; want a custom alphabet of its symbols", name, a, err)
		}
	}
	for _, name := range []string{"x", "xyx"} {
		if a, err := seq.ParseAlphabet(name); err == nil {
			t.Errorf("ParseAlphabet(%q) = %v, want an error", name, a)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = "ACGT"[int(b)%4]
		}
		codes, err := seq.DNA.Encode(string(data))
		if err != nil {
			return false
		}
		return seq.DNA.Decode(codes) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSequenceBasics(t *testing.T) {
	s, err := seq.New(seq.DNA, "x", "ACGTA")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 || s.At(0) != 'A' || s.At(4) != 'A' || s.Code(2) != 2 {
		t.Errorf("basics wrong: %v", s)
	}
	if s.Name() != "x" || s.Data() != "ACGTA" || s.Alphabet() != seq.DNA {
		t.Error("accessors wrong")
	}
	if len(s.Codes()) != 5 {
		t.Error("codes length")
	}
	if _, err := seq.New(seq.DNA, "bad", "ACGU"); err == nil {
		t.Error("invalid symbol accepted")
	}
	if _, err := seq.New(nil, "nil", "ACG"); err == nil {
		t.Error("nil alphabet accepted")
	}
}

func TestNewDNALowercase(t *testing.T) {
	s, err := seq.NewDNA("lc", "acgtACGT")
	if err != nil {
		t.Fatal(err)
	}
	if s.Data() != "ACGTACGT" {
		t.Errorf("data = %q", s.Data())
	}
}

func TestFragment(t *testing.T) {
	s := seq.MustNew(seq.DNA, "f", "ACGTACGTAC")
	frag, err := s.Fragment(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if frag.Data() != "GTAC" || frag.Len() != 4 {
		t.Errorf("fragment = %v", frag)
	}
	if frag.Code(0) != 2 {
		t.Error("fragment codes not aligned")
	}
	for _, bad := range [][2]int{{-1, 3}, {3, 11}, {5, 4}} {
		if _, err := s.Fragment(bad[0], bad[1]); err == nil {
			t.Errorf("Fragment(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestFragments(t *testing.T) {
	s := seq.MustNew(seq.DNA, "g", strings.Repeat("ACGT", 25)) // 100 bp
	frags := s.Fragments(40)
	// 40 + 40 + 20: the 20 bp remainder meets the size/2 keep rule.
	if len(frags) != 3 || frags[0].Len() != 40 || frags[2].Len() != 20 {
		t.Fatalf("fragments: %v", frags)
	}
	// A remainder below half the size is dropped.
	frags = s.Fragments(70)
	if len(frags) != 1 || frags[0].Len() != 70 {
		t.Fatalf("fragments(70): %v", frags)
	}
	if got := s.Fragments(0); got != nil {
		t.Error("size 0 should yield nil")
	}
}

func TestReverseComplement(t *testing.T) {
	s := seq.MustNew(seq.DNA, "rc", "AACGTT")
	rc, err := s.ReverseComplement()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Data() != "AACGTT" { // palindrome
		t.Errorf("revcomp = %q", rc.Data())
	}
	s2 := seq.MustNew(seq.DNA, "rc2", "AAAC")
	rc2, _ := s2.ReverseComplement()
	if rc2.Data() != "GTTT" {
		t.Errorf("revcomp = %q, want GTTT", rc2.Data())
	}
	p := seq.MustNew(seq.Protein, "p", "ACDE")
	if _, err := p.ReverseComplement(); err == nil {
		t.Error("protein revcomp accepted")
	}
}

func TestSequenceString(t *testing.T) {
	short := seq.MustNew(seq.DNA, "s", "ACG")
	if !strings.Contains(short.String(), "ACG") {
		t.Errorf("short String = %q", short.String())
	}
	long := seq.MustNew(seq.DNA, "l", strings.Repeat("A", 100))
	if !strings.Contains(long.String(), "...") {
		t.Errorf("long String should truncate: %q", long.String())
	}
}

func TestComposition(t *testing.T) {
	s := seq.MustNew(seq.DNA, "c", "AACCCGGGGT")
	comp := seq.Compose(s)
	if comp.Count('A') != 2 || comp.Count('C') != 3 || comp.Count('G') != 4 || comp.Count('T') != 1 {
		t.Errorf("counts wrong: %v", comp)
	}
	if comp.Count('X') != 0 {
		t.Error("Count(X) != 0")
	}
	if comp.Freq('A') != 0.2 {
		t.Errorf("Freq(A) = %v", comp.Freq('A'))
	}
	if comp.GC() != 0.7 {
		t.Errorf("GC = %v", comp.GC())
	}
	if comp.Total() != 10 {
		t.Errorf("Total = %d", comp.Total())
	}
	if comp.String() == "" {
		t.Error("empty composition string")
	}
}

func TestDinucleotideCorrelation(t *testing.T) {
	// Perfectly alternating AT: A at even, T at odd. P(T one after A)=1,
	// so the correlation at p=1 is strongly positive.
	s := seq.MustNew(seq.DNA, "alt", strings.Repeat("AT", 50))
	v, err := seq.DinucleotideCorrelation(s, 'A', 'T', 1)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.2 {
		t.Errorf("correlation %v, want ~0.25 (0.505 - 0.25)", v)
	}
	// At distance 2 an A is never followed by T.
	v2, err := seq.DinucleotideCorrelation(s, 'A', 'T', 2)
	if err != nil {
		t.Fatal(err)
	}
	if v2 > -0.1 {
		t.Errorf("correlation %v, want strongly negative", v2)
	}
	if _, err := seq.DinucleotideCorrelation(s, 'A', 'T', 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := seq.DinucleotideCorrelation(s, 'A', 'T', 200); err == nil {
		t.Error("p>=L accepted")
	}
	if _, err := seq.DinucleotideCorrelation(s, 'X', 'T', 1); err == nil {
		t.Error("bad symbol accepted")
	}
}

func TestTopKmers(t *testing.T) {
	s := seq.MustNew(seq.DNA, "k", "AAAAACGT")
	top := seq.TopKmers(s, 2, 3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Kmer != "AA" || top[0].Count != 4 {
		t.Errorf("top[0] = %v", top[0])
	}
	if got := seq.TopKmers(s, 0, 5); got != nil {
		t.Error("k=0 should yield nil")
	}
	if got := seq.TopKmers(s, 99, 5); got != nil {
		t.Error("k>L should yield nil")
	}
}
