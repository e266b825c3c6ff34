// Package embound computes the paper's e_m statistic (Section 4.2) and the
// tightened pruning factor λ'(l, d) of Theorem 2.
//
// For a fixed small m, consider all length-(m+1) offset sequences
// [r, r+g1, ..., r+g1+...+gm] with each gj in [N+1, M+1]. K_r is the
// multiplicity of the most frequently observed character pattern among
// them, and e_m = max over r of K_r. Since W^m / e_m >= 1, e_m tightens
// the W^d bound of Theorem 1 to e_m^s · W^t (s = floor(d/m), t = d - s·m),
// giving λ'(l,d) = (W^m/e_m)^s · λ(l,d).
package embound

import (
	"fmt"
	"math"

	"permine/internal/combinat"
	"permine/internal/seq"
)

// maxArrayCodes caps the size of the dense multiplicity table; larger code
// spaces fall back to a map.
const maxArrayCodes = 1 << 24

// Em computes e_m = max over all start offsets r of Kr(s, g, m, r), on
// the calling goroutine. m must be >= 1. For |Σ|^m <= 2^24 (DNA up to
// m = 12) and W^m < 2^31 the cost is O(L · Σ_k |cnt_k|), independent of
// W beyond the list sizes: per position each level subtracts one list,
// adds one and copies out the next, where cnt_k holds at most
// min(|Σ|^k, W^(k-1)) entries and far fewer on repetitive data (see
// dp.go). Larger code spaces merge W sorted lists per level and position.
func Em(s *seq.Sequence, g combinat.Gap, m int) (int64, error) {
	em, _, err := EmWorkers(s, g, m, 1)
	return em, err
}

// EmWorkers is Em with the dense sweep split into up to workers
// contiguous chunks that run concurrently (never more than GOMAXPROCS,
// nor so many that a chunk is shorter than the m·(M+1) positions it must
// re-read from its right neighbour). Every worker count gives the same
// e_m. chunks reports how many goroutines the sweep ran on: 1 when it
// did not split, including the list-merging and per-offset fallbacks.
func EmWorkers(s *seq.Sequence, g combinat.Gap, m, workers int) (em int64, chunks int, err error) {
	if m < 1 {
		return 0, 0, fmt.Errorf("embound: m=%d must be >= 1", m)
	}
	if err := g.Validate(); err != nil {
		return 0, 0, err
	}
	chunks = 1
	if float64(m+1)*math.Log2(float64(s.Alphabet().Size())) < 62 {
		// Suffix-sharing sweep: one right-to-left pass computes every
		// K_r (see dp.go), far cheaper than per-start DFS on
		// repetitive data.
		em, chunks = emSweep(s, g, m, workers)
	} else {
		k, err := newKounter(s, g, m)
		if err != nil {
			return 0, 0, err
		}
		for r := 0; r < s.Len(); r++ {
			if kr := k.kr(r); kr > em {
				em = kr
			}
		}
	}
	if em == 0 {
		// No length-(m+1) offset sequence fits anywhere; the bound
		// degenerates. Treat as 1 so λ' stays finite and valid
		// (W^m/e_m >= 1 still holds trivially because no length-(m+1)
		// pattern occurs at all).
		em = 1
	}
	return em, chunks, nil
}

// Kr computes the paper's K_r for the single start offset r (0-based):
// the count of the most frequent character pattern observed over all
// length-(m+1) offset sequences starting at r. Exposed for tests (the
// paper's Table 2 worked example) and diagnostics.
func Kr(s *seq.Sequence, g combinat.Gap, m, r int) (int64, error) {
	if m < 1 {
		return 0, fmt.Errorf("embound: m=%d must be >= 1", m)
	}
	if r < 0 || r >= s.Len() {
		return 0, fmt.Errorf("embound: offset r=%d out of range [0,%d)", r, s.Len())
	}
	if err := g.Validate(); err != nil {
		return 0, err
	}
	k, err := newKounter(s, g, m)
	if err != nil {
		return 0, err
	}
	return k.kr(r), nil
}

// kounter carries the scratch state for K_r computation: either a dense
// epoch-stamped table over all |Σ|^(m+1) packed pattern codes, or a map
// keyed by the pattern's characters when the code space is too large (a
// packed code would wrap past 2^64 and merge patterns).
type kounter struct {
	s     *seq.Sequence
	g     combinat.Gap
	m     int
	size  uint64 // alphabet size
	dense []denseCell
	epoch uint32
	table map[string]int64
	chars []byte // walkMap's pattern so far
	best  int64
}

type denseCell struct {
	epoch uint32
	n     int64
}

func newKounter(s *seq.Sequence, g combinat.Gap, m int) (*kounter, error) {
	k := &kounter{s: s, g: g, m: m, size: uint64(s.Alphabet().Size())}
	codes := float64(k.size)
	space := math.Pow(codes, float64(m+1))
	if space <= maxArrayCodes {
		k.dense = make([]denseCell, int(space))
	} else {
		k.table = make(map[string]int64)
		k.chars = make([]byte, m+1)
	}
	return k, nil
}

func (k *kounter) kr(r int) int64 {
	if r+combinat.MinSpan(k.m+1, k.g) > k.s.Len() {
		return 0
	}
	k.best = 0
	if k.dense != nil {
		k.epoch++
		k.walkDense(r, 0, uint64(0))
	} else {
		clear(k.table)
		k.walkMap(r, 0)
	}
	return k.best
}

func (k *kounter) walkDense(pos, depth int, key uint64) {
	key = key*k.size + uint64(k.s.Code(pos))
	if depth == k.m {
		cell := &k.dense[key]
		if cell.epoch != k.epoch {
			cell.epoch = k.epoch
			cell.n = 0
		}
		cell.n++
		if cell.n > k.best {
			k.best = cell.n
		}
		return
	}
	lo := pos + k.g.N + 1
	hi := pos + k.g.M + 1
	if hi >= k.s.Len() {
		hi = k.s.Len() - 1
	}
	for next := lo; next <= hi; next++ {
		k.walkDense(next, depth+1, key)
	}
}

func (k *kounter) walkMap(pos, depth int) {
	k.chars[depth] = k.s.At(pos)
	if depth == k.m {
		key := string(k.chars)
		k.table[key]++
		if n := k.table[key]; n > k.best {
			k.best = n
		}
		return
	}
	lo := pos + k.g.N + 1
	hi := pos + k.g.M + 1
	if hi >= k.s.Len() {
		hi = k.s.Len() - 1
	}
	for next := lo; next <= hi; next++ {
		k.walkMap(next, depth+1)
	}
}

// LambdaPrime returns λ'(l, d) = (W^m / e_m)^s · λ(l, d) with
// s = floor(d/m) (Equation 5). c supplies λ and W; em must come from Em
// with the same gap requirement and the same m.
func LambdaPrime(c *combinat.Counter, l, d, m int, em int64) float64 {
	if d <= 0 {
		return 1
	}
	s := d / m
	boost := 1.0
	if s > 0 {
		ratio := math.Pow(float64(c.Gap.W()), float64(m)) / float64(em)
		boost = math.Pow(ratio, float64(s))
	}
	return boost * c.Lambda(l, d)
}
