package gen_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"permine/internal/gen"
	"permine/internal/seq"
)

func TestUniformComposition(t *testing.T) {
	s, err := gen.Uniform(seq.DNA, "u", 40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	comp := seq.Compose(s)
	for _, b := range []byte("ACGT") {
		if f := comp.Freq(b); math.Abs(f-0.25) > 0.02 {
			t.Errorf("freq(%c) = %v, want ~0.25", b, f)
		}
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := gen.Uniform(seq.DNA, "u", 0, 1); err == nil {
		t.Error("length 0 accepted")
	}
}

func TestWeightedComposition(t *testing.T) {
	w := []float64{0.7, 0.1, 0.1, 0.1}
	s, err := gen.Weighted(seq.DNA, "w", 40000, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	comp := seq.Compose(s)
	if f := comp.Freq('A'); math.Abs(f-0.7) > 0.02 {
		t.Errorf("freq(A) = %v, want ~0.7", f)
	}
	if _, err := gen.Weighted(seq.DNA, "w", 10, []float64{1, 2}, 2); err == nil {
		t.Error("wrong weight count accepted")
	}
	if _, err := gen.Weighted(seq.DNA, "w", 10, []float64{1, -1, 1, 1}, 2); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestMarkovTransitions(t *testing.T) {
	// A always followed by C, C by G, G by T, T by A: a deterministic
	// cycle.
	trans := [][]float64{
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{1, 0, 0, 0},
	}
	s, err := gen.Markov(seq.DNA, "m", 1000, trans, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < s.Len(); i++ {
		want := byte(0)
		switch s.At(i - 1) {
		case 'A':
			want = 'C'
		case 'C':
			want = 'G'
		case 'G':
			want = 'T'
		case 'T':
			want = 'A'
		}
		if s.At(i) != want {
			t.Fatalf("position %d: %c after %c", i, s.At(i), s.At(i-1))
		}
	}
	if _, err := gen.Markov(seq.DNA, "m", 10, trans[:2], 3); err == nil {
		t.Error("wrong matrix shape accepted")
	}
	bad := [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0}}
	if _, err := gen.Markov(seq.DNA, "m", 10, bad, 3); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestCompositeLayers(t *testing.T) {
	s, err := gen.Build(gen.CompositeSpec{
		Name:       "c",
		Length:     100,
		Background: []float64{1, 0, 0, 0},                                             // all A background
		Patches:    []gen.Patch{{Start: 10, Len: 10, Weights: []float64{0, 1, 0, 0}}}, // C patch
		Tracts:     []gen.Tract{{Start: 30, Text: "GGGGG"}},
		Plants:     []gen.Plant{{Start: 50, Motif: "TT", GapMin: 2, GapMax: 2}},
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := s.Data()
	if data[0] != 'A' || data[9] != 'A' {
		t.Error("background not A")
	}
	if data[10] != 'C' || data[19] != 'C' {
		t.Error("patch not applied")
	}
	if data[30:35] != "GGGGG" {
		t.Errorf("tract not applied: %q", data[30:35])
	}
	if data[50] != 'T' || data[53] != 'T' { // gap 2 => next char at +3
		t.Errorf("plant not applied: %q", data[50:54])
	}
}

func TestCompositeErrors(t *testing.T) {
	bg := []float64{1, 1, 1, 1}
	cases := []struct {
		name    string
		patches []gen.Patch
		tracts  []gen.Tract
		plants  []gen.Plant
	}{
		{"patch out of range", []gen.Patch{{Start: 95, Len: 10, Weights: bg}}, nil, nil},
		{"patch with 1 weight", []gen.Patch{{Start: 0, Len: 5, Weights: []float64{1}}}, nil, nil},
		{"patch with 6 weights", []gen.Patch{{Start: 0, Len: 5, Weights: []float64{1, 1, 1, 1, 1, 1}}}, nil, nil},
		{"patch without weights", []gen.Patch{{Start: 0, Len: 5}}, nil, nil},
		{"tract out of range", nil, []gen.Tract{{Start: 98, Text: "ACGT"}}, nil},
		{"tract bad symbols", nil, []gen.Tract{{Start: 0, Text: "XY"}}, nil},
		{"plant empty motif", nil, nil, []gen.Plant{{Start: 0, Motif: ""}}},
		{"plant bad gap", nil, nil, []gen.Plant{{Start: 0, Motif: "AC", GapMin: 3, GapMax: 1}}},
		{"plant out of range", nil, nil, []gen.Plant{{Start: 90, Motif: "ACGT", GapMin: 5, GapMax: 9}}},
		{"plant bad motif", nil, nil, []gen.Plant{{Start: 0, Motif: "xz", GapMin: 1, GapMax: 2}}},
	}
	for _, c := range cases {
		spec := gen.CompositeSpec{Name: "x", Length: 100, Background: bg,
			Patches: c.patches, Tracts: c.tracts, Plants: c.plants, Seed: 1}
		if _, err := gen.Build(spec); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := gen.Build(gen.CompositeSpec{Length: 0}); err == nil {
		t.Error("length 0 accepted")
	}
	if _, err := gen.Build(gen.CompositeSpec{Length: 10, Background: []float64{1}}); err == nil {
		t.Error("bad background accepted")
	}
}

func TestBuildPhased(t *testing.T) {
	s, err := gen.Build(gen.CompositeSpec{
		Name:       "ph",
		Length:     1100,
		Background: []float64{0.25, 0.25, 0.25, 0.25},
		Phased: []gen.PhasedPatch{{
			Start:  0,
			Len:    1100,
			Period: 11,
			Boosts: []gen.Boost{{Phase: 0, Symbol: 'A', Prob: 1.0}},
		}},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 0 positions must all be A (probability 1 boost).
	for i := 0; i < s.Len(); i += 11 {
		if s.At(i) != 'A' {
			t.Fatalf("position %d = %c, want A", i, s.At(i))
		}
	}
	// Off-phase positions should stay roughly uniform.
	comp := seq.Compose(s)
	if f := comp.Freq('A'); f < 0.30 || f > 0.36 {
		t.Errorf("overall freq(A) = %v, want ~1/11 + 10/11·0.25 ≈ 0.318", f)
	}
}

func TestBuildPhasedBaseWeights(t *testing.T) {
	s, err := gen.Build(gen.CompositeSpec{
		Name:       "phb",
		Length:     2000,
		Background: []float64{0, 0, 0, 1}, // all T outside
		Phased: []gen.PhasedPatch{{
			Start:       0,
			Len:         1000,
			Period:      10,
			BaseWeights: []float64{1, 0, 0, 0}, // all A inside
		}},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsRune(s.Data()[:1000], 'T') {
		t.Error("patch base weights ignored")
	}
	if strings.ContainsRune(s.Data()[1000:], 'A') {
		t.Error("background leaked patch weights")
	}
}

func TestBuildPhasedErrors(t *testing.T) {
	base := gen.CompositeSpec{Length: 100, Seed: 1}
	bad := []gen.PhasedPatch{
		{Start: 0, Len: 50, Period: 0},
		{Start: -1, Len: 50, Period: 5},
		{Start: 90, Len: 50, Period: 5},
		{Start: 0, Len: 50, Period: 5, Boosts: []gen.Boost{{Phase: 9, Symbol: 'A', Prob: 0.5}}},
		{Start: 0, Len: 50, Period: 5, Boosts: []gen.Boost{{Phase: 1, Symbol: 'X', Prob: 0.5}}},
		{Start: 0, Len: 50, Period: 5, Boosts: []gen.Boost{{Phase: 1, Symbol: 'A', Prob: 1.5}}},
		{Start: 0, Len: 50, Period: 5, BaseWeights: []float64{1, 2}},
	}
	for i, p := range bad {
		spec := base
		spec.Phased = []gen.PhasedPatch{p}
		if _, err := gen.Build(spec); err == nil {
			t.Errorf("bad phased patch %d accepted: %+v", i, p)
		}
	}
}

func TestTandemRepeat(t *testing.T) {
	if got := gen.TandemRepeat("AT", 3); got != "ATATAT" {
		t.Errorf("TandemRepeat = %q", got)
	}
}

func TestGenomeGenerators(t *testing.T) {
	g, err := gen.GenomeLike(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	comp := seq.Compose(g)
	if comp.GC() > 0.5 {
		t.Errorf("genome-like GC %v, want AT-leaning", comp.GC())
	}
	b, err := gen.BacterialLike(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gc := seq.Compose(b).GC(); gc > 0.40 {
		t.Errorf("bacterial GC = %v, want AT-rich (< 0.40)", gc)
	}
	e, err := gen.EukaryoteLike(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The poly-G tract must be present.
	if !strings.Contains(e.Data(), strings.Repeat("G", 100)) {
		t.Error("eukaryote-like lacks the poly-G tract")
	}
	p, err := gen.ProteinRepeat(800, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Alphabet() != seq.Protein {
		t.Error("protein generator wrong alphabet")
	}
	if _, err := gen.ProteinRepeat(50, 1); err == nil {
		t.Error("tiny protein length accepted")
	}
}

// TestGeneratorsStable pins the bytes of the high-level generators: they
// are the benchmark's and the experiments' inputs, so a change to the
// builder must leave them as they are.
func TestGeneratorsStable(t *testing.T) {
	for _, c := range []struct {
		name   string
		gen    func(int, uint64) (*seq.Sequence, error)
		length int
		seed   uint64
		sha256 string
	}{
		{"GenomeLike", gen.GenomeLike, 1000, 7, "3eea2012b16161fd630693c0817f1e87df118ce51b339818d23a2ad28bd69093"},
		{"GenomeLike", gen.GenomeLike, 100000, 3, "62d63cad286c13517fb1266c47fecabab8d48f81fb5e94594612c4ac884164ff"},
		{"BacterialLike", gen.BacterialLike, 1000, 7, "12980ab5b1430ac5053b60ec96e4372432325ab2d1504a18d195039aecd1d08d"},
		{"BacterialLike", gen.BacterialLike, 100000, 3, "5f7ea65d440a17c9bb3f9fccd39c74a9f4d2429334281d8630d6618aafa98b36"},
		{"EukaryoteLike", gen.EukaryoteLike, 1000, 7, "6cd9ca67d0269f91b850a0259bd796cd3db1afda47eb4fa4beac1969db559a2b"},
		{"EukaryoteLike", gen.EukaryoteLike, 100000, 3, "3efd6d5dfe4cfe12b8f6b89f403538c4dc402b64092b9460778c44d9798e05a9"},
		{"ProteinRepeat", gen.ProteinRepeat, 1000, 7, "878f015d236e2fc79d3e4895103bcd961dd63a3ae36f6945a338acc8a4a2634c"},
		{"ProteinRepeat", gen.ProteinRepeat, 100000, 3, "e70e7701696bfc808959b3d986c440cc819a8b3bfa28c20488c6508a4042123e"},
	} {
		s, err := c.gen(c.length, c.seed)
		if err != nil {
			t.Fatalf("%s(%d, %d): %v", c.name, c.length, c.seed, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(s.Data()))); got != c.sha256 {
			t.Errorf("%s(%d, %d) = sha256 %s, want %s", c.name, c.length, c.seed, got, c.sha256)
		}
	}
}
