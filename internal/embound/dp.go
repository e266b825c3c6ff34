package embound

import (
	"context"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"

	"permine/internal/combinat"
	"permine/internal/seq"
)

// The DP below computes every K_r in one right-to-left sweep by sharing
// suffix path counts across start offsets, instead of re-walking the
// W^m offset tree per start as the naive definition suggests.
//
// For position p and pattern length k define cnt_k(p): the list of
// (pattern, multiplicity) pairs over all length-k offset sequences
// starting at p, and V_k(p) the sum of cnt_k over p's gap window:
//
//	cnt_1(p)     = {S[p]: 1}
//	V_k(p)       = Σ_{q ∈ [p+N+1, p+M+1]} cnt_k(q)
//	cnt_(k+1)(p) = prepend(S[p], V_k(p))
//
// and K_r is the largest multiplicity in V_m(r) (S[r] is fixed, so the
// prepend does not change it). Because cnt_k(p) merges paths that spell
// the same characters, its size is bounded by min(|Σ|^k, W^(k-1)) and is
// far smaller on repetitive (genomic) data. Only the last M+3 columns at
// most are retained, so memory stays modest even for long sequences.

// codeCount is one merged (pattern code, path multiplicity) pair.
type codeCount struct {
	code uint64
	n    int64
}

// emSweep computes K_r for every r and returns max_r K_r together with
// the number of goroutines the sweep ran on. Requires |Σ|^(m+1) to fit in
// uint64 (checked by the caller). When the code space and path counts fit
// 32-bit cells it runs the dense sliding-window sweep, split over up to
// workers goroutines; otherwise it falls back to sorted-list merging on
// one goroutine.
func emSweep(s *seq.Sequence, g combinat.Gap, m, workers int) (int64, int) {
	size := float64(s.Alphabet().Size())
	codeSpace := math.Pow(size, float64(m))
	paths := math.Pow(float64(g.W()), float64(m))
	if codeSpace <= 1<<24 && paths < float64(math.MaxInt32) {
		return emSlideSplit(s, g, m, workers)
	}
	return emSweepMerge(s, g, m), 1
}

// emSweepMerge is the list-merging variant of the sweep, used when the
// pattern code space is too large for dense scratch tables.
func emSweepMerge(s *seq.Sequence, g combinat.Gap, m int) int64 {
	L := s.Len()
	size := uint64(s.Alphabet().Size())
	window := g.M + 2 // columns p+1 .. p+M+1 plus the one being built

	// cols[c][k] is cnt_(k+1) of the column currently mapped to slot c.
	cols := make([][][]codeCount, window)
	for c := range cols {
		cols[c] = make([][]codeCount, m) // lengths 1..m stored; m+1 is folded into the max
	}
	slot := func(p int) int {
		c := p % window
		if c < 0 {
			c += window
		}
		return c
	}

	// pow[k] = size^k for prefix prepending.
	pow := make([]uint64, m+1)
	pow[0] = 1
	for k := 1; k <= m; k++ {
		pow[k] = pow[k-1] * size
	}

	heads := make([]int, g.W())
	lists := make([][]codeCount, g.W())
	var best int64

	// mergeInto merges cnt_k of the successor window of p, prepends
	// S[p], and appends to dst. trackMax reports the largest
	// multiplicity instead of requiring the caller to re-scan.
	mergeInto := func(dst []codeCount, p, k int, trackMax *int64) []codeCount {
		nlists := 0
		for q := p + g.N + 1; q <= p+g.M+1 && q < L; q++ {
			l := cols[slot(q)][k-1]
			if len(l) > 0 {
				lists[nlists] = l
				heads[nlists] = 0
				nlists++
			}
		}
		if nlists == 0 {
			return dst
		}
		prefix := uint64(s.Code(p)) * pow[k]
		for {
			// Find the smallest head code across the lists.
			minCode := uint64(math.MaxUint64)
			for i := 0; i < nlists; i++ {
				if heads[i] < len(lists[i]) && lists[i][heads[i]].code < minCode {
					minCode = lists[i][heads[i]].code
				}
			}
			if minCode == math.MaxUint64 {
				break
			}
			var total int64
			for i := 0; i < nlists; i++ {
				if heads[i] < len(lists[i]) && lists[i][heads[i]].code == minCode {
					total += lists[i][heads[i]].n
					heads[i]++
				}
			}
			if trackMax != nil {
				if total > *trackMax {
					*trackMax = total
				}
			} else {
				dst = append(dst, codeCount{code: prefix + minCode, n: total})
			}
		}
		return dst
	}

	for p := L - 1; p >= 0; p-- {
		col := cols[slot(p)]
		// cnt_1(p)
		col[0] = append(col[0][:0], codeCount{code: uint64(s.Code(p)), n: 1})
		// cnt_2 .. cnt_m stored
		for k := 2; k <= m; k++ {
			col[k-1] = mergeInto(col[k-1][:0], p, k-1, nil)
		}
		// cnt_(m+1): only its maximum multiplicity matters (K_p).
		mergeInto(nil, p, m, &best)
	}
	return best
}

// cc32 is a compact (code, multiplicity) pair for the dense sweep.
type cc32 struct {
	code uint32
	n    int32
}

// emLabels tag the split sweep's goroutines in CPU profiles, like the
// level loop's counting workers.
var emLabels = pprof.Labels("permine_phase", "em")

// emSlideSplit runs the sliding-window sweep (emSlide) over [0, L), cut
// into c = min(workers, GOMAXPROCS, L / (2·warm)) contiguous chunks that
// run concurrently; e_m is the largest of the chunks' maxima. K_p reads
// only S[p .. p+warm] with warm = m·(M+1), so a chunk that starts its
// sweep warm positions right of its own end is exact inside it. The
// rightmost chunk needs no warm-up, so it gets warm more positions than
// the others and every chunk sweeps about (L + (c-1)·warm)/c positions.
// c is capped so a chunk's own range is never shorter than its warm-up.
func emSlideSplit(s *seq.Sequence, g combinat.Gap, m, workers int) (int64, int) {
	L := s.Len()
	warm := m * (g.M + 1)
	c := min(workers, runtime.GOMAXPROCS(0), L/(2*warm))
	if c <= 1 {
		return emSlide(s, g, m, 0, L), 1
	}
	per := (L + (c-1)*warm) / c
	best := make([]int64, c)
	var wg sync.WaitGroup
	hi, lo := L, L-per
	for i := range best {
		if i == c-1 {
			lo = 0 // the leftmost chunk takes the rounding remainder
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			pprof.Do(context.Background(), emLabels, func(context.Context) {
				best[i] = emSlide(s, g, m, lo, hi)
			})
		}(i, lo, hi)
		hi, lo = lo, lo-(per-warm)
	}
	wg.Wait()
	return slices.Max(best), c
}

// emSlide sweeps p from top = min(L, hi+m·(M+1)) - 1 down to lo and
// returns the largest V_m cell it sees right after an add (0 if no
// length-(m+1) offset sequence fits). Columns at or beyond top count as
// empty, so a cell counts only the paths that end before top: it is exact
// for p in [lo, hi) and a lower bound in the warm-up above hi. Each
// chunk's result is therefore at most e_m, and chunks covering [0, L)
// together see every add of a whole sweep exactly, so their maximum is
// e_m. Each level's V_k is a running dense table: stepping from p+1 to p
// subtracts column p+M+2 and adds column p+N+1, two list passes per level
// instead of W. Requires |Σ|^m <= 2^24 and W^m < 2^31, so every code and
// every cell fits 32 bits.
func emSlide(s *seq.Sequence, g combinat.Gap, m, lo, hi int) int64 {
	top := min(s.Len(), hi+m*(g.M+1))
	size := uint32(s.Alphabet().Size())
	window := g.M + 3 // columns p .. p+M+2

	// cols[q%window][k] is cnt_(k+1)(q); cnt_(m+1) is folded into the max.
	cols := make([][][]cc32, window)
	for c := range cols {
		cols[c] = make([][]cc32, m)
	}
	none := make([][]cc32, m) // the column of a position at or beyond top

	// lower[k] is V_(k+1) for the levels below m, which build the next
	// level's column; V_m only feeds the maximum, so it is counts alone.
	lower := make([]windowSum, m-1)
	cells := 1
	for k := range lower {
		cells *= int(size)
		lower[k].cells = make([]sumCell, cells)
	}
	vm := make([]int32, cells*int(size))

	var best int32
	for p := top - 1; p >= lo; p-- {
		code := uint32(s.Code(p))
		col := cols[p%window]
		col[0] = append(col[0][:0], cc32{code: code, n: 1})
		out, in := none, none // the columns leaving and entering the window
		if q := p + g.M + 2; q < top {
			out = cols[q%window]
		}
		if q := p + g.N + 1; q < top {
			in = cols[q%window]
		}
		prefix := code
		for k := range lower {
			v := &lower[k]
			v.sub(out[k])
			v.add(in[k])
			prefix *= size
			col[k+1] = v.prepend(col[k+1][:0], prefix)
		}
		for _, e := range out[m-1] {
			vm[e.code] -= e.n
		}
		// A subtraction never raises a cell, so the largest value seen
		// right after an add is the largest V_m cell at any swept p.
		for _, e := range in[m-1] {
			vm[e.code] += e.n
			best = max(best, vm[e.code])
		}
	}
	return int64(best)
}

// windowSum is one level's V_k as a dense table over the k-character
// codes, plus the list of codes whose count is nonzero, so the next
// level's column is copied from the list instead of a table scan.
type windowSum struct {
	cells   []sumCell
	nonzero []uint32
}

// sumCell is one code's window count and, while n > 0, its index in
// windowSum.nonzero.
type sumCell struct{ n, at int32 }

func (v *windowSum) add(col []cc32) {
	for _, e := range col {
		c := &v.cells[e.code]
		if c.n == 0 {
			c.at = int32(len(v.nonzero))
			v.nonzero = append(v.nonzero, e.code)
		}
		c.n += e.n
	}
}

func (v *windowSum) sub(col []cc32) {
	for _, e := range col {
		c := &v.cells[e.code]
		c.n -= e.n
		if c.n == 0 { // swap-remove the code from the nonzero list
			last := v.nonzero[len(v.nonzero)-1]
			v.nonzero[c.at] = last
			v.cells[last].at = c.at
			v.nonzero = v.nonzero[:len(v.nonzero)-1]
		}
	}
}

// prepend appends cnt_(k+1) to dst: every nonzero code of V_k, with the
// position's character (times |Σ|^k) added as prefix.
func (v *windowSum) prepend(dst []cc32, prefix uint32) []cc32 {
	for _, code := range v.nonzero {
		dst = append(dst, cc32{code: prefix + code, n: v.cells[code].n})
	}
	return dst
}
