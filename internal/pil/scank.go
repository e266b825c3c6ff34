package pil

import (
	"cmp"
	"fmt"
	"slices"

	"permine/internal/combinat"
	"permine/internal/seq"
)

// Singles builds the length-1 PILs of every alphabet symbol occurring in s:
// result[code] lists each position of the symbol with count 1, and is nil
// for a symbol that does not occur. The lists are reserved from a, or from
// the heap when a is nil.
func Singles(a *Arena, s *seq.Sequence) []List {
	out := make([]List, s.Alphabet().Size())
	counts := make([]int, len(out))
	for _, code := range s.Codes() {
		counts[code]++
	}
	for code, n := range counts {
		if n > 0 {
			out[code] = reserve(a, n)
			if a != nil {
				a.Commit(n)
			}
		}
	}
	for i, code := range s.Codes() {
		out[code] = append(out[code], Entry{X: int32(i), Y: 1})
	}
	return out
}

// CodeList is the PIL of one length-k pattern identified by its base-σ
// packed code (see seq.Alphabet.DecodePacked), with the support already
// summed. ScanKPacked returns CodeLists sorted by ascending Code, which
// for patterns of equal length is their lexicographic symbol-code order.
type CodeList struct {
	Code uint64
	Sup  int64
	List List
}

// ScanKPacked builds the PILs of every length-k pattern with non-zero
// support by scanning the sequence directly, as the paper seeds its level
// 3 (Figure 3): from every start x it walks each offset sequence
// [x, c2, ..., ck] the gap admits and counts them per pattern. The miners
// build every level by joins instead; this scan is their independent
// reference. Patterns are keyed by base-σ packed code; the result is
// sorted by ascending code. Cost O(L · W^(k-1)).
func ScanKPacked(s *seq.Sequence, g combinat.Gap, k int) ([]CodeList, error) {
	if k < 1 {
		return nil, fmt.Errorf("pil: scan length %d must be >= 1", k)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	alpha := s.Alphabet()
	if k > 8 && pow(alpha.Size(), k) > 1<<26 {
		return nil, fmt.Errorf("pil: direct scan of length-%d patterns over %d symbols is too large; use the miner's level-wise joins", k, alpha.Size())
	}
	codes := s.Codes()
	sigma := uint64(alpha.Size())

	// Each offset sequence from start x adds 1 to its pattern's entry at
	// x, which is the list's last entry once x's first one is appended.
	lists := make(map[uint64]List)
	var x int32
	var walk func(pos, depth int, code uint64)
	walk = func(pos, depth int, code uint64) {
		code = code*sigma + uint64(codes[pos])
		if depth < k {
			hi := min(pos+g.M+1, len(codes)-1)
			for next := pos + g.N + 1; next <= hi; next++ {
				walk(next, depth+1, code)
			}
			return
		}
		l := lists[code]
		if n := len(l); n > 0 && l[n-1].X == x {
			l[n-1].Y++
		} else {
			lists[code] = append(l, Entry{X: x, Y: 1})
		}
	}
	for ; int(x)+combinat.MinSpan(k, g) <= len(codes); x++ {
		walk(int(x), 1, 0)
	}

	var out []CodeList
	for code, l := range lists {
		out = append(out, CodeList{Code: code, Sup: l.Support(), List: l})
	}
	slices.SortFunc(out, func(a, b CodeList) int { return cmp.Compare(a.Code, b.Code) })
	return out, nil
}

// ScanK is ScanKPacked with the patterns decoded to character strings,
// for tests and benchmarks.
func ScanK(s *seq.Sequence, g combinat.Gap, k int) (map[string]List, error) {
	packed, err := ScanKPacked(s, g, k)
	if err != nil {
		return nil, err
	}
	alpha := s.Alphabet()
	out := make(map[string]List, len(packed))
	for _, cl := range packed {
		out[alpha.DecodePacked(cl.Code, k)] = cl.List
	}
	return out, nil
}

func pow(base, exp int) int {
	v := 1
	for i := 0; i < exp; i++ {
		if v > (1<<31)/base {
			return 1 << 31
		}
		v *= base
	}
	return v
}
