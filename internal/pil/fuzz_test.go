package pil_test

import (
	"encoding/binary"
	"testing"

	"permine/internal/combinat"
	"permine/internal/pil"
	"permine/internal/pool"
)

// decodeLists turns fuzzer bytes into two valid PILs plus a gap: 1-byte
// split, 2 gap bytes, then (xDelta, y) byte pairs. Deltas keep X strictly
// increasing and Y positive, so every decoded input satisfies the List
// invariants and the fuzz targets check Join preserves them.
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

// cutFrom picks a join's support cut from one fuzz byte: 0, 1, the
// join's full support, one above it, or a fraction of it.
func cutFrom(b byte, full int64) int64 {
	switch b % 5 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return full
	case 3:
		return full + 1
	}
	return int64(b) * (full + 2) / 256
}

// FuzzJoin checks the Join invariants on arbitrary well-formed inputs:
// the output is a valid List, every emitted X comes from the prefix, the
// fused support equals the list sum, and the arena-backed join and the
// cumulative-table joins, on the dense and the compact layout, are
// identical to the heap-backed one.
//
// Its cut leg runs several joins, as the miner does, into one arena with
// cuts taken from the fuzz bytes. A join that stops must have a full
// (unbounded) support below its cut; one that finishes reports the full
// support; only outputs reaching the cut are committed, each equal to its
// heap join also after later joins reused the space of missed ones; and
// the two-pointer kernel and both table layouts stop at the same entry.
// The bound holds for any two lists, not only a pattern's parents, so
// every decoded pair is a valid input.
//
// Every input runs on reused memory filled with junk: the arena is
// released at the start of each input, so its slabs come back from the
// pool poisoned, and one table serves every build of either layout and
// is poisoned after each join, as the miner's pooled scratch leaves its
// tables. A kernel that read reused memory before writing it would
// disagree with the heap join.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{4, 0, 3, 1, 1, 2, 1, 1, 2, 3, 1})
	f.Add([]byte{0, 15, 15})
	f.Add([]byte{255, 1, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{13, 2, 1, 0, 4, 1, 4, 0, 4, 7, 1, 0, 2, 1, 3, 6, 4, 0, 1})
	defer pool.SetMode(pool.SetMode(pool.Poison))
	var arena pil.Arena
	var tab pil.CumTable
	f.Fuzz(func(t *testing.T, data []byte) {
		arena.Release()
		prefix, suffix, g := decodeLists(data)
		got, sup, n := pil.JoinInto(nil, prefix, suffix, 0, 0, g)
		if n != len(prefix) {
			t.Fatalf("cut-0 join stopped after %d of %d prefix entries", n, len(prefix))
		}
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
		viaArena, supArena, _ := pil.JoinInto(&arena, prefix, suffix, sufTotal, 0, g)
		sameList(t, "arena join", viaArena, got)
		if supArena != sup {
			t.Fatalf("arena join support %d, heap %d", supArena, sup)
		}
		if len(suffix) > 0 {
			for _, layout := range tableLayouts {
				layout.build(&tab, suffix)
				viaCum, supCum, _ := pil.JoinCum(nil, prefix, &tab, 0, g)
				tab.Poison()
				sameList(t, layout.name+" join", viaCum, got)
				if supCum != sup {
					t.Fatalf("%s join support %d, heap %d", layout.name, supCum, sup)
				}
			}
		}

		// The cut leg: round r commits the outputs of kernel r to the
		// arena (two-pointer, then each table layout); each join also runs
		// heap-backed under the other kernels, which must agree.
		arena.Reset()
		pairs := [][2]pil.List{{prefix, suffix}, {suffix, prefix}, {prefix, prefix}, {suffix, suffix}}
		var kept, heap []pil.List
		for k := 0; k < (1+len(tableLayouts))*len(pairs); k++ {
			pr, sf := pairs[k%len(pairs)][0], pairs[k%len(pairs)][1]
			round := k / len(pairs)
			if round > 0 && len(sf) == 0 {
				continue // no table over an empty list
			}
			full := pil.Join(pr, sf, g)
			fullSup := full.Support()
			cut := int64(0)
			if len(data) > 0 {
				cut = cutFrom(data[(3*k+1)%len(data)], fullSup)
			}
			arenaFor := func(r int) *pil.Arena {
				if r == round {
					return &arena
				}
				return nil
			}
			out, jsup, jn := pil.JoinInto(arenaFor(0), pr, sf, sf.Support(), cut, g)
			checkCut(t, "twoptr", pr, full, cut, out, jsup, jn)
			if len(sf) > 0 {
				twoOut := out
				for li, layout := range tableLayouts {
					layout.build(&tab, sf)
					cOut, cSup, cN := pil.JoinCum(arenaFor(1+li), pr, &tab, cut, g)
					tab.Poison()
					checkCut(t, layout.name, pr, full, cut, cOut, cSup, cN)
					if cN != jn || (cOut != nil) != (twoOut != nil) {
						t.Fatalf("join %d, cut %d: %s joined %d entries (kept %v), twoptr %d (kept %v)",
							k, cut, layout.name, cN, cOut != nil, jn, twoOut != nil)
					}
					if round == 1+li {
						out = cOut
					}
				}
			}
			if out != nil {
				kept = append(kept, out)
				heap = append(heap, full)
			}
		}
		for k := range kept {
			sameList(t, "kept arena list", kept[k], heap[k])
		}
	})
}

// tableLayouts builds a CumTable over a non-empty list in each of its
// layouts, so FuzzJoin runs JoinCum on both.
var tableLayouts = []struct {
	name  string
	build func(*pil.CumTable, pil.List)
}{
	{"cum", (*pil.CumTable).Build},
	{"compact", (*pil.CumTable).BuildCompact},
}

// checkCut checks one bounded join of pr against its unbounded result
// full: a stop means the full support misses cut, a finished join
// reports the full support, and an output is returned only when it
// reaches cut, equal to full.
func checkCut(t *testing.T, kernel string, pr, full pil.List, cut int64, out pil.List, sup int64, n int) {
	t.Helper()
	fullSup := full.Support()
	switch {
	case n < 0 || n > len(pr):
		t.Fatalf("%s: joined %d of %d prefix entries", kernel, n, len(pr))
	case n < len(pr):
		if cut == 0 || fullSup >= cut || out != nil {
			t.Fatalf("%s: stopped after %d of %d entries at cut %d, but the full support is %d (output kept %v)",
				kernel, n, len(pr), cut, fullSup, out != nil)
		}
	case sup != fullSup:
		t.Fatalf("%s: finished with support %d, full support %d", kernel, sup, fullSup)
	case fullSup < cut && out != nil:
		t.Fatalf("%s: support %d below cut %d, yet the output was kept", kernel, sup, cut)
	case fullSup >= cut:
		sameList(t, kernel+" join at cut", out, full)
	}
}

// sameList fails t unless got and want hold the same entries.
func sameList(t *testing.T, label string, got, want pil.List) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, heap join %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s entry %d: %v vs heap %v", label, i, got[i], want[i])
		}
	}
}

// FuzzJoinOracle cross-checks JoinInto against a quadratic reference join
// on the same decoded inputs.
func FuzzJoinOracle(f *testing.F) {
	seed := make([]byte, 19)
	binary.LittleEndian.PutUint64(seed, 0x0102030405060708)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		prefix, suffix, g := decodeLists(data)
		got := pil.Join(prefix, suffix, g)
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
