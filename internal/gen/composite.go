package gen

import (
	"fmt"
	"strings"

	"permine/internal/seq"
)

// Patch is a region of a composite sequence generated with its own symbol
// weights, e.g. a G-rich isochore in an otherwise AT-rich genome.
type Patch struct {
	Start   int
	Len     int
	Weights []float64 // in alphabet code order, normalised
}

// Tract overwrites a region with literal text, e.g. a poly-G run or a
// tandem repeat.
type Tract struct {
	Start int
	Text  string
}

// Plant writes a periodic motif into the sequence: the motif's characters
// are placed at positions Start, Start+g1+1, Start+g1+g2+2, ... with every
// gap gi drawn uniformly from [GapMin, GapMax]. With Copies > 1 the motif
// is chained Copies times (the gap between the last character of one copy
// and the first of the next also honours the gap range). This models the
// paper's helical-turn periodicity: characters one helix turn apart.
type Plant struct {
	Start  int
	Motif  string
	GapMin int
	GapMax int
	Copies int
}

// span returns an upper bound on the number of positions the plant touches.
func (p Plant) span() int {
	chars := len(p.Motif) * maxInt(p.Copies, 1)
	if chars == 0 {
		return 0
	}
	return (chars-1)*(p.GapMax+1) + 1
}

// CompositeSpec fully describes a synthetic sequence build.
type CompositeSpec struct {
	Alphabet   *seq.Alphabet
	Name       string
	Length     int
	Background []float64
	Patches    []Patch
	Phased     []PhasedPatch
	Tracts     []Tract
	Plants     []Plant
	Seed       uint64
}

// Build generates the sequence described by the spec: a weighted IID
// background, then patches (re-drawn with their own weights), phased
// patches, tracts (literal overwrites) and plants (periodic motif
// overwrites), in that order; later layers overwrite earlier ones. All
// randomness is derived from Seed; the construction is deterministic.
func Build(spec CompositeSpec) (*seq.Sequence, error) {
	alpha := spec.Alphabet
	if alpha == nil {
		alpha = seq.DNA
	}
	if spec.Length <= 0 {
		return nil, fmt.Errorf("gen: length %d must be positive", spec.Length)
	}
	bg := spec.Background
	if bg == nil {
		bg = uniformWeights(alpha.Size())
	}
	if len(bg) != alpha.Size() {
		return nil, fmt.Errorf("gen: %d background weights for alphabet of size %d", len(bg), alpha.Size())
	}
	r := newRNG(spec.Seed)
	cum := cumulative(bg)
	buf := make([]byte, spec.Length)
	for i := range buf {
		buf[i] = alpha.Symbol(r.pick(cum))
	}
	for pi, p := range spec.Patches {
		if p.Start < 0 || p.Len < 0 || p.Start+p.Len > spec.Length {
			return nil, fmt.Errorf("gen: patch %d [%d,%d) out of range for length %d", pi, p.Start, p.Start+p.Len, spec.Length)
		}
		if len(p.Weights) != alpha.Size() {
			return nil, fmt.Errorf("gen: patch %d has %d weights for alphabet of size %d", pi, len(p.Weights), alpha.Size())
		}
		pc := cumulative(p.Weights)
		for i := p.Start; i < p.Start+p.Len; i++ {
			buf[i] = alpha.Symbol(r.pick(pc))
		}
	}
	for pi, p := range spec.Phased {
		if err := applyPhased(buf, alpha, cum, p, r); err != nil {
			return nil, fmt.Errorf("gen: phased patch %d: %w", pi, err)
		}
	}
	for ti, t := range spec.Tracts {
		if t.Start < 0 || t.Start+len(t.Text) > spec.Length {
			return nil, fmt.Errorf("gen: tract %d [%d,%d) out of range for length %d", ti, t.Start, t.Start+len(t.Text), spec.Length)
		}
		if err := alpha.Validate(t.Text); err != nil {
			return nil, fmt.Errorf("gen: tract %d: %w", ti, err)
		}
		copy(buf[t.Start:], t.Text)
	}
	for pi, p := range spec.Plants {
		if err := applyPlant(buf, alpha, p, r); err != nil {
			return nil, fmt.Errorf("gen: plant %d: %w", pi, err)
		}
	}
	return seq.New(alpha, spec.Name, string(buf))
}

func applyPlant(buf []byte, alpha *seq.Alphabet, p Plant, r *rng) error {
	if p.Motif == "" {
		return fmt.Errorf("gen: empty motif")
	}
	if err := alpha.Validate(p.Motif); err != nil {
		return err
	}
	if p.GapMin < 0 || p.GapMax < p.GapMin {
		return fmt.Errorf("gen: bad gap range [%d,%d]", p.GapMin, p.GapMax)
	}
	copies := maxInt(p.Copies, 1)
	if p.Start < 0 || p.Start+p.span() > len(buf) {
		return fmt.Errorf("gen: plant at %d (span <= %d) out of range for length %d", p.Start, p.span(), len(buf))
	}
	pos := p.Start
	first := true
	for c := 0; c < copies; c++ {
		for i := 0; i < len(p.Motif); i++ {
			if !first {
				pos += p.GapMin + r.intn(p.GapMax-p.GapMin+1) + 1
			}
			first = false
			buf[pos] = p.Motif[i]
		}
	}
	return nil
}

// TandemRepeat returns the unit repeated copies times — the classic tandem
// repeat of the paper's introduction, handy as a Tract text.
func TandemRepeat(unit string, copies int) string {
	return strings.Repeat(unit, copies)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
