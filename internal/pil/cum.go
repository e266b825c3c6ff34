package pil

import (
	"math"
	"math/bits"
	"unsafe"

	"permine/internal/combinat"
	"permine/internal/pool"
)

// CumTable is a cumulative-support lookup over one PIL, the suffix of a
// join: C(t) is the total Y of the entries with X <= t. A join window
// [minX, maxX] sums C(maxX) − C(minX−1), which replaces the sliding
// window of JoinInto (whose data-dependent loops are unpredictable
// branches) by a fixed number of loads per prefix entry.
//
// The table has two layouts of that one function, and JoinCum reads
// either:
//
//   - Dense (Build): C of every position of the list's X span, one int64
//     each. A window is two loads and a subtraction. It costs O(span)
//     memory and build time, so it pays only when the list is dense
//     and reused by several joins.
//   - Compact (BuildCompact): one bit per span position, marking the
//     entries, with a per-word rank directory, and the prefix sums of Y
//     by entry. C(t) = ps[rank(t)], rank(t) being the entries at X <= t:
//     one word load and a popcount. It is 16 bytes per 64 positions
//     plus 8 per entry, so it suits lists too sparse for the dense
//     layout, and its words never pass a quarter of the subject's
//     bytes, however long the span.
//
// Callers pick the layout and gate on density and reuse (see
// internal/mine); the builds themselves do not.
//
// A table can serve run after run (the miner's pooled scratch keeps its
// workers' tables): SetTracker binds it to a run, Shrink cuts it when the
// run ends, and every build writes the part of an array it reads.
type CumTable struct {
	base    int // X of the first entry
	last    int // X of the last entry
	compact bool

	cum []int64 // dense: cum[i] = C(base+i)

	// compact: words[w] covers X in [base+64w, base+64w+63]; ps[k] is the
	// support of the first k entries, so ps[len(list)] is the total.
	words []rankWord
	ps    []int64

	// mem is charged for the arrays' growth past held, the lengths
	// charged since SetTracker (per array: cum, words, ps), whatever
	// capacity the arrays kept from earlier runs, so a reused table
	// charges its run what a new one would.
	mem  *MemTracker
	held [3]int
}

// SetTracker binds the table to a run: its backing-array growth charges
// go to m (nil tracks nothing), counted from zero as for a new table.
// Each build charges the growth of an array past the length charged so
// far, so rebuilds within that length charge nothing, and a table that
// has held both layouts keeps both arrays, charged once.
func (t *CumTable) SetTracker(m *MemTracker) { t.mem, t.held = m, [3]int{} }

// Shrink drops each backing array more than four times longer than the
// most the run since SetTracker used of it (pool.Fit), so a table kept
// for later runs holds about what its last run needed. The table must be
// built again before its next join.
func (t *CumTable) Shrink() {
	t.cum = pool.Fit(t.cum, t.held[0])
	t.words = pool.Fit(t.words, t.held[1])
	t.ps = pool.Fit(t.ps, t.held[2])
}

// Poison fills the table's arrays, to their capacity, with junk and its
// bounds with values no build leaves: what the pools' Poison mode does to
// a table handed back, so a join that read a stale table fails a test.
func (t *CumTable) Poison() {
	pool.Fill(t.cum, -1)
	pool.Fill(t.words, rankWord{bits: math.MaxUint64, rank: -1})
	pool.Fill(t.ps, -1)
	t.base, t.last, t.compact = -1, -2, true
}

// grow returns buf resized to n, reallocated when its capacity is short,
// and charges mem for the elements of size bytes past *held.
func grow[T any](buf []T, n int, held *int, size int64, mem *MemTracker) []T {
	if n > *held {
		mem.Charge(size * int64(n-*held))
		*held = n
	}
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// rankWord is one word of the compact layout: the entries at 64 span
// positions as bits, and the count of entries before them. The two sit
// together so a rank reads one cache line.
type rankWord struct {
	bits uint64
	rank int32
}

// rankWordBytes is the compact layout's size per 64 span positions,
// padding included: the unit its growth charges are computed in.
const rankWordBytes = int64(unsafe.Sizeof(rankWord{}))

// Build fills the table's dense layout from a non-empty PIL, reusing the
// previous backing array when large enough.
func (t *CumTable) Build(s List) {
	t.base = int(s[0].X)
	t.last = int(s[len(s)-1].X)
	t.compact = false
	cum := grow(t.cum, t.last-t.base+1, &t.held[0], 8, t.mem)
	clear(cum)
	for _, e := range s {
		cum[int(e.X)-t.base] = e.Y()
	}
	var acc int64
	for i := range cum {
		acc += cum[i]
		cum[i] = acc
	}
	t.cum = cum
}

// BuildCompact fills the table's compact layout from a non-empty PIL,
// reusing the previous backing arrays when large enough.
func (t *CumTable) BuildCompact(s List) {
	t.base = int(s[0].X)
	t.last = int(s[len(s)-1].X)
	t.compact = true
	words := grow(t.words, (t.last-t.base)>>6+1, &t.held[1], rankWordBytes, t.mem)
	clear(words)
	for _, e := range s {
		rel := int(e.X) - t.base
		words[rel>>6].bits |= 1 << (rel & 63)
	}
	var r int32
	for i := range words {
		words[i].rank = r
		r += int32(bits.OnesCount64(words[i].bits))
	}
	ps := grow(t.ps, len(s)+1, &t.held[2], 8, t.mem)
	ps[0] = 0
	for i, e := range s {
		ps[i+1] = ps[i] + e.Y()
	}
	t.words, t.ps = words, ps
}

// rank returns the number of entries at X <= base+rel of the compact
// layout words, for rel in [0, last−base]. The mask keeps bits 0..rel&63
// of the word; at bit 63 the shift wraps to 0 and the mask is every bit.
func rank(words []rankWord, rel int) int {
	w := words[rel>>6]
	return int(w.rank) + bits.OnesCount64(w.bits&(uint64(2)<<(rel&63)-1))
}

// JoinCum computes the same join as JoinInto(a, prefix, suffix, sufSup,
// cut, g) with t built over suffix, in either layout: identical entries,
// identical support, and the same stop at the same prefix entry, since
// the table's total is the suffix's support and each prefix entry's rest
// — the support at or after its window start — is one lookup away. It
// has JoinInto's shape: a bounded loop while sup is below cut, then the
// plain loop. Window bounds are computed in int for the same overflow
// reason as JoinInto.
func JoinCum(a *Arena, prefix List, t *CumTable, cut int64, g combinat.Gap) (List, int64, int) {
	if t.compact {
		return joinCompact(a, prefix, t, cut, g)
	}
	if len(prefix) == 0 || len(t.cum) == 0 {
		return nil, 0, len(prefix)
	}
	out := reserve(a, len(prefix))
	base, last := t.base, t.last
	cum := t.cum
	var sup int64
	k := 0
	if cut > 0 {
		total := cum[len(cum)-1]
		width := int64(g.M-g.N) + 1
		limit := (cut - 1) / width
		for ; k < len(prefix) && sup < cut; k++ {
			x := int(prefix[k].X)
			minX, maxX := x+g.N+1, x+g.M+1
			// passed is the support before the window, y its count.
			var passed, y int64
			switch {
			case minX > last:
				passed = total
			case maxX >= base:
				if lo := minX - base - 1; lo >= 0 {
					passed = cum[lo]
				}
				y = cum[min(maxX-base, len(cum)-1)] - passed
			}
			if total-passed <= limit {
				return nil, sup, k
			}
			if y > 0 {
				out = append(out, NewEntry(prefix[k].X, y))
				sup += y
				limit = (cut - sup - 1) / width
			}
		}
	}
	for _, e := range prefix[k:] {
		minX := int(e.X) + g.N + 1
		if minX > last {
			break // prefix X ascending: every later window starts past the list
		}
		maxX := int(e.X) + g.M + 1
		if maxX < base {
			continue
		}
		hi := maxX - base
		if hi >= len(cum) {
			hi = len(cum) - 1
		}
		window := cum[hi]
		if lo := minX - base - 1; lo >= 0 {
			window -= cum[lo]
		}
		if window > 0 {
			out = append(out, NewEntry(e.X, window))
			sup += window
		}
	}
	return commit(a, out, sup, cut), sup, len(prefix)
}

// joinCompact is JoinCum on the compact layout. It works in positions
// relative to the list's first X: a prefix entry's window is (from, to],
// from = minX−1 and to = maxX. The window holds the entries lo..hi−1, lo
// = rank(from) and hi = rank(to), and sums ps[hi] − ps[lo]; the ranks
// are clamped at the list's ends, so the lookups stay inside the span.
func joinCompact(a *Arena, prefix List, t *CumTable, cut int64, g combinat.Gap) (List, int64, int) {
	if len(prefix) == 0 || len(t.ps) == 0 {
		return nil, 0, len(prefix)
	}
	out := reserve(a, len(prefix))
	words, ps := t.words, t.ps
	n := len(ps) - 1
	end := t.last - t.base
	dFrom, dTo := g.N-t.base, g.M+1-t.base // window bounds minus x
	var sup int64
	k := 0
	if cut > 0 {
		total := ps[n]
		width := int64(g.M-g.N) + 1
		limit := (cut - 1) / width
		for ; k < len(prefix) && sup < cut; k++ {
			x := int(prefix[k].X)
			from, to := x+dFrom, x+dTo
			lo, hi := 0, 0
			switch {
			case from >= end:
				lo, hi = n, n
			case to >= 0:
				if from >= 0 {
					lo = rank(words, from)
				}
				hi = n
				if to < end {
					hi = rank(words, to)
				}
			}
			if total-ps[lo] <= limit {
				return nil, sup, k
			}
			if hi > lo {
				y := ps[hi] - ps[lo]
				out = append(out, NewEntry(prefix[k].X, y))
				sup += y
				limit = (cut - sup - 1) / width
			}
		}
	}
	for _, e := range prefix[k:] {
		from, to := int(e.X)+dFrom, int(e.X)+dTo
		if from >= end {
			break // prefix X ascending: every later window starts past the list
		}
		if to < 0 {
			continue
		}
		lo, hi := 0, n
		if from >= 0 {
			lo = rank(words, from)
		}
		if to < end {
			hi = rank(words, to)
		}
		if hi > lo {
			y := ps[hi] - ps[lo]
			out = append(out, NewEntry(e.X, y))
			sup += y
		}
	}
	return commit(a, out, sup, cut), sup, len(prefix)
}
