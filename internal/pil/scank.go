package pil

import (
	"fmt"
	"sort"

	"permine/internal/combinat"
	"permine/internal/seq"
)

// Singles builds the length-1 PILs of every alphabet symbol occurring in s:
// result[code] lists each position of the symbol with count 1.
func Singles(s *seq.Sequence) []List {
	out := make([]List, s.Alphabet().Size())
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

// scratchLinearMax is the scratch size up to which the per-start
// pattern-count scratch is searched linearly; one start exceeding it
// switches the scan to the open-addressed index for the rest of the run
// (large scratches come from large W^(k-1), a property of the run, not of
// one start).
const scratchLinearMax = 32

// scratchIdx is a small open-addressed hash table mapping packed pattern
// codes to scratch slots. Per-start clearing is O(1) via generation tags.
type scratchIdx struct {
	keys []uint64
	vals []int32
	gens []uint32
	gen  uint32
	mask uint32
	n    int
}

func newScratchIdx(size int) *scratchIdx {
	n := 128
	for n < 2*size {
		n <<= 1
	}
	return &scratchIdx{
		keys: make([]uint64, n),
		vals: make([]int32, n),
		gens: make([]uint32, n),
		gen:  1,
		mask: uint32(n - 1),
	}
}

func (t *scratchIdx) reset() {
	t.gen++
	t.n = 0
	if t.gen == 0 { // generation counter wrapped: do one real clear
		clear(t.gens)
		t.gen = 1
	}
}

// slot probes for key, returning its table slot and whether it is live.
func (t *scratchIdx) slot(key uint64) (uint32, bool) {
	h := uint32(key*0x9E3779B97F4A7C15>>33) & t.mask
	for {
		if t.gens[h] != t.gen {
			return h, false
		}
		if t.keys[h] == key {
			return h, true
		}
		h = (h + 1) & t.mask
	}
}

func (t *scratchIdx) put(h uint32, key uint64, val int32) {
	t.keys[h] = key
	t.vals[h] = val
	t.gens[h] = t.gen
	t.n++
	if t.n*2 > len(t.keys) {
		t.grow()
	}
}

func (t *scratchIdx) grow() {
	old := *t
	n := len(old.keys) * 2
	t.keys = make([]uint64, n)
	t.vals = make([]int32, n)
	t.gens = make([]uint32, n)
	t.mask = uint32(n - 1)
	for i, g := range old.gens {
		if g == old.gen {
			h, _ := t.slot(old.keys[i])
			t.keys[h] = old.keys[i]
			t.vals[h] = old.vals[i]
			t.gens[h] = t.gen
		}
	}
}

// ScanKPacked builds the PILs of every length-k pattern with non-zero
// support by direct scanning, for small k (the miner uses k = 3 to seed
// level 3, per the paper's observation that length-1/2 patterns are
// uninteresting). Patterns are keyed by base-σ packed code; the result is
// sorted by ascending code.
//
// Cost is O(L · W^(k-1)). The per-start counts are deduplicated through a
// small scratch (linear below scratchLinearMax entries, open-addressed
// above), and every output list is a sub-slice of one shared backing
// array, so the scan performs O(1) allocations beyond the flat entry
// buffer's amortised growth.
func ScanKPacked(s *seq.Sequence, g combinat.Gap, k int) ([]CodeList, error) {
	if k < 1 {
		return nil, fmt.Errorf("pil: scan length %d must be >= 1", k)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	alpha := s.Alphabet()
	sigmaK := pow(alpha.Size(), k)
	if k > 8 && sigmaK > 1<<26 {
		return nil, fmt.Errorf("pil: direct scan of length-%d patterns over %d symbols is too large; use the miner's level-wise joins", k, alpha.Size())
	}
	codes := s.Codes()
	size := alpha.Size()

	// Pattern codes are interned to dense ids: through a flat table when
	// the code space is small, through a map otherwise.
	var idTab []int32
	var idMap map[uint64]int32
	if sigmaK <= 1<<16 {
		idTab = make([]int32, sigmaK)
		for i := range idTab {
			idTab[i] = -1
		}
	} else {
		idMap = make(map[uint64]int32)
	}
	var keys []uint64  // id -> packed code, in first-seen order
	var counts []int32 // id -> number of starts contributing an entry
	idOf := func(key uint64) int32 {
		if idTab != nil {
			if id := idTab[key]; id >= 0 {
				return id
			}
			id := int32(len(keys))
			idTab[key] = id
			keys = append(keys, key)
			counts = append(counts, 0)
			return id
		}
		if id, ok := idMap[key]; ok {
			return id
		}
		id := int32(len(keys))
		idMap[key] = id
		keys = append(keys, key)
		counts = append(counts, 0)
		return id
	}

	// For each start x we count, per packed pattern code, the number of
	// offset sequences starting at x; counts are collected in a small
	// scratch (at most W^(k-1) distinct patterns per start), then flushed
	// as flat (id, entry) rows in global x order.
	type acc struct {
		key uint64
		n   int64
	}
	type flatRow struct {
		id int32
		x  int32
		n  int64
	}
	scratch := make([]acc, 0, scratchLinearMax)
	var idx *scratchIdx
	var flat []flatRow

	var walk func(pos int, depth int, key uint64)
	walk = func(pos int, depth int, key uint64) {
		key = key*uint64(size) + uint64(codes[pos])
		if depth == k {
			if idx != nil {
				if h, ok := idx.slot(key); ok {
					scratch[idx.vals[h]].n++
				} else {
					idx.put(h, key, int32(len(scratch)))
					scratch = append(scratch, acc{key: key, n: 1})
				}
				return
			}
			for i := range scratch {
				if scratch[i].key == key {
					scratch[i].n++
					return
				}
			}
			scratch = append(scratch, acc{key: key, n: 1})
			if len(scratch) > scratchLinearMax {
				idx = newScratchIdx(2 * len(scratch))
				for i := range scratch {
					h, _ := idx.slot(scratch[i].key)
					idx.put(h, scratch[i].key, int32(i))
				}
			}
			return
		}
		lo := pos + g.N + 1
		hi := pos + g.M + 1
		if hi >= len(codes) {
			hi = len(codes) - 1
		}
		for next := lo; next <= hi; next++ {
			walk(next, depth+1, key)
		}
	}

	for x := 0; x+combinat.MinSpan(k, g) <= len(codes); x++ {
		scratch = scratch[:0]
		if idx != nil {
			idx.reset()
		}
		walk(x, 1, 0)
		for _, a := range scratch {
			id := idOf(a.key)
			counts[id]++
			flat = append(flat, flatRow{id: id, x: int32(x), n: a.n})
		}
	}
	if len(flat) == 0 {
		return nil, nil
	}

	// Lay the per-pattern lists out code-sorted in one backing array. The
	// flat rows are in ascending x order, so a stable scatter by id keeps
	// each list sorted.
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	offs := make([]int32, len(keys)) // id -> next write position in backing
	pos := int32(0)
	for _, id := range order {
		offs[id] = pos
		pos += counts[id]
	}
	backing := make([]Entry, len(flat))
	sups := make([]int64, len(keys))
	for _, row := range flat {
		backing[offs[row.id]] = Entry{X: row.x, Y: row.n}
		offs[row.id]++
		sups[row.id] += row.n
	}
	out := make([]CodeList, len(keys))
	for rank, id := range order {
		end := offs[id]
		out[rank] = CodeList{
			Code: keys[id],
			Sup:  sups[id],
			List: backing[end-counts[id] : end : end],
		}
	}
	return out, nil
}

// ScanK is ScanKPacked with the patterns decoded to character strings;
// callers outside the mining hot path (tests) use it for readability.
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
