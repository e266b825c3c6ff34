package pil_test

import (
	"encoding/binary"
	"testing"

	"permine/internal/combinat"
	"permine/internal/pil"
)

// decodeLists turns fuzzer bytes into two valid PILs plus a gap: 1-byte
// split, 2 gap bytes, then (xDelta, y) byte pairs. Deltas keep X strictly
// increasing and Y positive, so every decoded input satisfies the List
// invariants and the fuzz targets check Join/Merge preserve them.
func decodeLists(data []byte) (a, b pil.List, g combinat.Gap) {
	if len(data) < 3 {
		return nil, nil, combinat.Gap{}
	}
	split := int(data[0])
	g = combinat.Gap{N: int(data[1] % 16)}
	g.M = g.N + int(data[2]%16)
	rows := data[3:]
	build := func(raw []byte) pil.List {
		var out pil.List
		x := int32(-1)
		for i := 0; i+1 < len(raw); i += 2 {
			x += 1 + int32(raw[i]%8)
			out = append(out, pil.Entry{X: x, Y: 1 + int64(raw[i+1]%5)})
		}
		return out
	}
	if split > len(rows) {
		split = len(rows)
	}
	return build(rows[:split]), build(rows[split:]), g
}

// FuzzJoin checks the Join invariants on arbitrary well-formed inputs:
// the output is a valid List, every emitted X comes from the prefix, the
// fused support equals the list sum, and the arena-backed and
// cumulative-table joins are identical to the heap-backed one — also
// when, as in the miner, several joins share one arena and every other
// output is given back.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{4, 0, 3, 1, 1, 2, 1, 1, 2, 3, 1})
	f.Add([]byte{0, 15, 15})
	f.Add([]byte{255, 1, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	var arena pil.Arena
	f.Fuzz(func(t *testing.T, data []byte) {
		prefix, suffix, g := decodeLists(data)
		got, sup := pil.JoinInto(nil, prefix, suffix, g)
		if err := got.Validate(); err != nil {
			t.Fatalf("invalid join output: %v", err)
		}
		if sup != got.Support() {
			t.Fatalf("fused support %d != list sum %d", sup, got.Support())
		}
		prefixX := map[int32]int64{}
		for _, e := range prefix {
			prefixX[e.X] = e.Y
		}
		sufTotal := suffix.Support()
		for _, e := range got {
			if _, ok := prefixX[e.X]; !ok {
				t.Fatalf("emitted X %d not in prefix", e.X)
			}
			if e.Y > sufTotal {
				t.Fatalf("x=%d count %d exceeds suffix total %d", e.X, e.Y, sufTotal)
			}
		}
		arena.Reset()
		viaArena, supArena := pil.JoinInto(&arena, prefix, suffix, g)
		if supArena != sup || len(viaArena) != len(got) {
			t.Fatalf("arena join differs: sup %d vs %d, len %d vs %d", supArena, sup, len(viaArena), len(got))
		}
		for i := range got {
			if viaArena[i] != got[i] {
				t.Fatalf("arena join entry %d: %v vs %v", i, viaArena[i], got[i])
			}
		}
		// The miner's use: several joins into one arena, alternately kept
		// and given back. Every kept list must still equal its heap join
		// after later joins have reused the given-back space.
		arena.Reset()
		phase := 0 // which of the alternating joins are kept
		if len(data) > 0 {
			phase = int(data[0])
		}
		pairs := [][2]pil.List{{prefix, suffix}, {suffix, prefix}, {prefix, prefix}, {suffix, suffix}}
		var kept, heap []pil.List
		for k := 0; k < 2*len(pairs); k++ {
			pr, sf := pairs[k%len(pairs)][0], pairs[k%len(pairs)][1]
			var out pil.List
			if k < len(pairs) || len(sf) == 0 {
				out, _ = pil.JoinInto(&arena, pr, sf, g)
			} else {
				var tab pil.CumTable
				tab.Build(sf)
				out, _ = pil.JoinCum(&arena, pr, &tab, g)
			}
			if (k+phase)%2 == 1 {
				arena.GiveBack(out)
				continue
			}
			kept = append(kept, out)
			heap = append(heap, pil.Join(pr, sf, g))
		}
		for k := range kept {
			if len(kept[k]) != len(heap[k]) {
				t.Fatalf("kept arena list %d has %d entries, heap join %d", k, len(kept[k]), len(heap[k]))
			}
			for i := range heap[k] {
				if kept[k][i] != heap[k][i] {
					t.Fatalf("kept arena list %d entry %d: %v vs heap %v", k, i, kept[k][i], heap[k][i])
				}
			}
		}
		if len(suffix) > 0 {
			var tab pil.CumTable
			tab.Build(suffix)
			viaCum, supCum := pil.JoinCum(nil, prefix, &tab, g)
			if supCum != sup || len(viaCum) != len(got) {
				t.Fatalf("cum join differs: sup %d vs %d, len %d vs %d", supCum, sup, len(viaCum), len(got))
			}
			for i := range got {
				if viaCum[i] != got[i] {
					t.Fatalf("cum join entry %d: %v vs %v", i, viaCum[i], got[i])
				}
			}
		}
	})
}

// FuzzMerge checks that Merge of two valid PILs is a valid PIL whose
// support is the sum of the inputs and whose X set is the union.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 1, 2, 1, 1, 2, 3, 1})
	f.Add([]byte{6, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, _ := decodeLists(data)
		m := pil.Merge(a, b)
		if err := m.Validate(); err != nil {
			t.Fatalf("invalid merge output: %v", err)
		}
		if m.Support() != a.Support()+b.Support() {
			t.Fatalf("merge support %d != %d + %d", m.Support(), a.Support(), b.Support())
		}
		want := map[int32]int64{}
		for _, e := range a {
			want[e.X] += e.Y
		}
		for _, e := range b {
			want[e.X] += e.Y
		}
		if len(m) != len(want) {
			t.Fatalf("merge has %d entries, want %d", len(m), len(want))
		}
		for _, e := range m {
			if want[e.X] != e.Y {
				t.Fatalf("x=%d: y=%d, want %d", e.X, e.Y, want[e.X])
			}
		}
	})
}

// FuzzJoinOracle cross-checks JoinInto against a quadratic reference join
// on the same decoded inputs.
func FuzzJoinOracle(f *testing.F) {
	seed := make([]byte, 19)
	binary.LittleEndian.PutUint64(seed, 0x0102030405060708)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		prefix, suffix, g := decodeLists(data)
		got, _ := pil.JoinInto(nil, prefix, suffix, g)
		want := map[int32]int64{}
		for _, p := range prefix {
			for _, s := range suffix {
				gap := int(s.X) - int(p.X) - 1
				if gap >= g.N && gap <= g.M {
					want[p.X] += s.Y
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("join has %d entries, reference %d", len(got), len(want))
		}
		for _, e := range got {
			if want[e.X] != e.Y {
				t.Fatalf("x=%d: y=%d, reference %d", e.X, e.Y, want[e.X])
			}
		}
	})
}
