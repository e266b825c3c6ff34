package pil

import "permine/internal/combinat"

// CumTable is a cumulative-support lookup over one PIL: cum[i] holds the
// total Y of entries with X <= base+i, for every position in the list's
// X span. It turns the sliding-window sum of a join into two array loads
// and a subtraction per prefix entry, removing the data-dependent window
// loops of JoinInto (whose branches are unpredictable on dense lists and
// dominate the join's cycle count).
//
// The table costs O(span) memory and build time, where span is
// lastX−firstX+1 — worthwhile only when the list is dense and reused by
// several joins. Callers are expected to gate on that (see
// internal/mine); Build itself does not.
type CumTable struct {
	base int // X of the first entry
	last int // X of the last entry
	cum  []int64
	mem  *MemTracker
}

// SetTracker routes the table's backing-array growth charges to t (nil
// stops tracking). Rebuilds that fit the retained array charge nothing.
func (t *CumTable) SetTracker(m *MemTracker) { t.mem = m }

// Build fills the table from a non-empty PIL, reusing the previous
// backing array when large enough.
func (t *CumTable) Build(s List) {
	t.base = int(s[0].X)
	t.last = int(s[len(s)-1].X)
	n := t.last - t.base + 1
	if cap(t.cum) < n {
		t.mem.Charge(8 * int64(n-cap(t.cum)))
		t.cum = make([]int64, n)
	}
	cum := t.cum[:n]
	clear(cum)
	for _, e := range s {
		cum[int(e.X)-t.base] = e.Y
	}
	var acc int64
	for i := range cum {
		acc += cum[i]
		cum[i] = acc
	}
	t.cum = cum
}

// JoinCum computes the same join as JoinInto(a, prefix, suffix, sufSup,
// cut, g) with t built over suffix: identical entries, identical support,
// and the same stop at the same prefix entry, since the table's last
// cell is the suffix's support and each prefix entry's rest — the
// support at or after its window start — is one load away. It has
// JoinInto's shape: a bounded loop while sup is below cut, then the
// plain loop. Window bounds are computed in int for the same overflow
// reason as JoinInto.
func JoinCum(a *Arena, prefix List, t *CumTable, cut int64, g combinat.Gap) (List, int64, int) {
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
				out = append(out, Entry{X: prefix[k].X, Y: y})
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
			out = append(out, Entry{X: e.X, Y: window})
			sup += window
		}
	}
	return commit(a, out, sup, cut), sup, len(prefix)
}
