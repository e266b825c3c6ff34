package gen

import (
	"fmt"

	"permine/internal/seq"
)

// Boost elevates one symbol at one phase of a PhasedPatch: at positions
// whose phase matches, the symbol is emitted with probability Prob and the
// background distribution is used otherwise.
type Boost struct {
	Phase  int
	Symbol byte
	Prob   float64
}

// PhasedPatch is a region with phase-dependent composition of period
// Period: the generator's model of the helical-turn periodicity real
// genomes show (paper §1: bases with similar 3D orientation recur every
// 10–11 bp). A patch with an 'A' boost at phase 0 and period 11 yields
// sequences where A-chains one helix turn apart are far more likely than
// chance — exactly the signal the miner is designed to find.
type PhasedPatch struct {
	Start  int
	Len    int
	Period int
	Boosts []Boost
	// BaseWeights, when non-nil, replace the spec background for the
	// non-boosted draws inside the patch (e.g. an AT-rich region that
	// additionally carries phase structure).
	BaseWeights []float64
}

func applyPhased(buf []byte, alpha *seq.Alphabet, bgCum []float64, p PhasedPatch, r *rng) error {
	if p.Period <= 0 {
		return fmt.Errorf("gen: period %d must be positive", p.Period)
	}
	if p.Start < 0 || p.Len < 0 || p.Start+p.Len > len(buf) {
		return fmt.Errorf("gen: range [%d,%d) out of bounds", p.Start, p.Start+p.Len)
	}
	if p.BaseWeights != nil {
		if len(p.BaseWeights) != alpha.Size() {
			return fmt.Errorf("gen: %d base weights for alphabet of size %d", len(p.BaseWeights), alpha.Size())
		}
		bgCum = cumulative(p.BaseWeights)
	}
	boostAt := make(map[int]Boost, len(p.Boosts))
	for _, b := range p.Boosts {
		if b.Phase < 0 || b.Phase >= p.Period {
			return fmt.Errorf("gen: boost phase %d out of [0,%d)", b.Phase, p.Period)
		}
		if !alpha.Contains(b.Symbol) {
			return fmt.Errorf("gen: boost symbol %q not in alphabet %s", b.Symbol, alpha.Name())
		}
		if b.Prob < 0 || b.Prob > 1 {
			return fmt.Errorf("gen: boost probability %v out of [0,1]", b.Prob)
		}
		boostAt[b.Phase] = b
	}
	for i := p.Start; i < p.Start+p.Len; i++ {
		ph := (i - p.Start) % p.Period
		if b, ok := boostAt[ph]; ok && r.float64v() < b.Prob {
			buf[i] = b.Symbol
			continue
		}
		buf[i] = alpha.Symbol(r.pick(bgCum))
	}
	return nil
}

func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}
