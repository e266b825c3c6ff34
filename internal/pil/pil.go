// Package pil implements the Partial Index List structure of the paper's
// Section 5.1.
//
// For a subject sequence S and a pattern P, PIL(P) is a list of (x, y)
// pairs with distinct x: there are exactly y offset sequences of the form
// [x, c2, ..., cl] with respect to which P matches S. Two properties make
// PILs the workhorse of the miner:
//
//  1. sup(P) is simply the sum of all y values.
//  2. PIL(P) is computable from PIL(prefix(P)) and PIL(suffix(P)) by a
//     single merge pass, so supports of candidate patterns never require
//     re-scanning the sequence.
//
// Positions x are 0-based (the paper is 1-based). A pair is a 12-byte
// Entry, and a mine's lists, in arena slabs, hold almost all of its
// memory.
package pil

import (
	"fmt"
	"sort"

	"permine/internal/combinat"
)

// Entry is one (x, y) pair of a PIL: y offset sequences begin at position x.
// The count is stored as two 32-bit halves, so an entry is 12 bytes: an
// int64 field would align the struct to 8 bytes and pad it to 16, a
// quarter of every arena slab. NewEntry writes the halves and Y reads
// them back, which the compiler does with one 64-bit load.
type Entry struct {
	X        int32
	yLo, yHi uint32
}

// NewEntry returns the entry (x, y).
func NewEntry(x int32, y int64) Entry {
	return Entry{X: x, yLo: uint32(y), yHi: uint32(uint64(y) >> 32)}
}

// Y returns the entry's count y.
func (e Entry) Y() int64 { return int64(uint64(e.yLo) | uint64(e.yHi)<<32) }

// String formats the entry as (x, y).
func (e Entry) String() string { return fmt.Sprintf("(%d, %d)", e.X, e.Y()) }

// List is a PIL: entries sorted by strictly increasing X with Y > 0.
type List []Entry

// Support returns sup(P): the sum of all Y values.
func (p List) Support() int64 {
	var s int64
	for _, e := range p {
		s += e.Y()
	}
	return s
}

// Validate checks the List invariants (sorted unique X, positive Y).
// It is used by tests and the fuzzing harness.
func (p List) Validate() error {
	for i, e := range p {
		if e.Y() <= 0 {
			return fmt.Errorf("pil: entry %d has non-positive count %d", i, e.Y())
		}
		if i > 0 && p[i-1].X >= e.X {
			return fmt.Errorf("pil: entries %d,%d out of order (%d >= %d)", i-1, i, p[i-1].X, e.X)
		}
	}
	return nil
}

// Join computes PIL(P) for P = prefix-head + suffix, given
// prefix = PIL(prefix(P)) and suffix = PIL(suffix(P)), following the
// paper's procedure: for every (x, y) in the prefix list, sum the suffix
// counts y' over x' with x' - x - 1 in [N, M], and emit (x, t) when t > 0.
//
// The pass is O(|prefix| + |suffix|) using a sliding window over the
// sorted suffix list. The miner's hot path uses JoinInto instead, which
// reuses arena slabs, returns the support without a second pass and
// stops joins that cannot reach the level's support cut.
func Join(prefix, suffix List, g combinat.Gap) List {
	out, _, _ := JoinInto(nil, prefix, suffix, 0, 0, g)
	return out
}

// JoinInto is Join with the output list reserved from arena a (a == nil
// falls back to a heap allocation), the joined support — the sum of all
// emitted counts — computed in the same pass, and a stop for joins that
// cannot reach cut, the smallest support the caller keeps. sufSup must
// be suffix's support; cut 0 keeps every output and never stops.
//
// The stop is the paper's §5.1 window read backwards: each suffix entry
// is counted by at most W = M−N+1 prefix entries, and an entry before a
// prefix entry's window start is counted neither by it nor by any later
// one. So at prefix entry k the rest of the join adds at most
// W·rest, rest being the suffix support at X >= k's window start, and
// once sup + W·rest < cut the join provably ends below cut. JoinInto
// stops at the first such k and commits nothing; its third result, the
// count of prefix entries joined, is then k < len(prefix), and its
// support result is only the part summed so far. A join that runs to its
// end returns len(prefix) and its full support, and its output is
// committed (and returned) only when that support reaches cut. In steady
// state (slabs recycled via Reset) an arena-backed join performs zero
// allocations.
func JoinInto(a *Arena, prefix, suffix List, sufSup, cut int64, g combinat.Gap) (List, int64, int) {
	if len(prefix) == 0 || len(suffix) == 0 {
		return nil, 0, len(prefix)
	}
	out := reserve(a, len(prefix))
	// The suffix window [lo, hi) holds the entries with X in
	// [x+N+1, x+M+1]. Its bounds are computed in int, not int32:
	// positions fit int32, but x + M + 1 near the sequence tail overflows
	// int32 when M approaches MaxInt32 (and int32(g.M) would truncate
	// larger M outright), wrapping maxX negative and silently emptying
	// the window. See TestJoinTailOverflow.
	lo, hi := 0, 0
	var window, sup int64
	k := 0
	if cut > 0 {
		// The bounded loop runs only while sup is below cut. It slides
		// the window with the plain loop's code, repeated because a
		// shared helper kept the window in memory and measured slower,
		// and also sums passed, the suffix support before the window:
		// rest = sufSup − passed. W·rest < cut − sup is tested as
		// rest <= limit = (cut−sup−1)/W, which cannot overflow, and limit
		// changes only when sup does. Once sup reaches cut the join
		// finishes in the plain loop, paying nothing more for the bound.
		var in, passed int64 // the support of suffix[:hi] and suffix[:lo]
		width := int64(g.M-g.N) + 1
		limit := (cut - 1) / width
		for ; k < len(prefix) && sup < cut; k++ {
			e := prefix[k]
			minX, maxX := int(e.X)+g.N+1, int(e.X)+g.M+1
			for hi < len(suffix) && int(suffix[hi].X) <= maxX {
				in += suffix[hi].Y()
				hi++
			}
			for lo < hi && int(suffix[lo].X) < minX {
				passed += suffix[lo].Y()
				lo++
			}
			if sufSup-passed <= limit {
				return nil, sup, k
			}
			if y := in - passed; y > 0 {
				out = append(out, NewEntry(e.X, y))
				sup += y
				limit = (cut - sup - 1) / width
			}
		}
		window = in - passed
	}
	for _, e := range prefix[k:] {
		minX, maxX := int(e.X)+g.N+1, int(e.X)+g.M+1
		for hi < len(suffix) && int(suffix[hi].X) <= maxX {
			window += suffix[hi].Y()
			hi++
		}
		for lo < hi && int(suffix[lo].X) < minX {
			window -= suffix[lo].Y()
			lo++
		}
		if window > 0 {
			out = append(out, NewEntry(e.X, window))
			sup += window
		}
	}
	return commit(a, out, sup, cut), sup, len(prefix)
}

// reserve returns an empty list with room for n entries, from a or, when
// a is nil, the heap.
func reserve(a *Arena, n int) List {
	if a != nil {
		return a.Reserve(n)
	}
	return make(List, 0, n)
}

// commit finishes a join of support sup: an output that reaches cut is
// committed to a (when arena-backed) and returned; one below cut is
// dropped, and its reserved space goes to the next Reserve.
func commit(a *Arena, out List, sup, cut int64) List {
	if sup < cut {
		return nil
	}
	if a != nil {
		a.Commit(len(out))
	}
	return out
}

// FromPairs builds a List from unordered (x, y) pairs, combining duplicate
// positions; a convenience for tests.
func FromPairs(pairs map[int32]int64) List {
	out := make(List, 0, len(pairs))
	for x, y := range pairs {
		if y > 0 {
			out = append(out, NewEntry(x, y))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}
