package pil_test

import (
	"testing"

	"permine/internal/combinat"
	"permine/internal/pil"
)

// randList builds a valid PIL with the given entry count, X stride range
// and Y range from a deterministic xorshift stream.
func randList(rng *uint64, n, maxStride, maxY int) pil.List {
	next := func() uint64 {
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		return *rng
	}
	out := make(pil.List, 0, n)
	x := int32(0)
	for i := 0; i < n; i++ {
		x += 1 + int32(next()%uint64(maxStride))
		out = append(out, pil.Entry{X: x, Y: 1 + int64(next()%uint64(maxY))})
	}
	return out
}

// TestJoinCumMatchesJoinInto cross-checks the cumulative-table join
// against the two-pointer join over dense and sparse lists and a range
// of gaps, heap- and arena-backed.
func TestJoinCumMatchesJoinInto(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	var arena pil.Arena
	var tab pil.CumTable
	cases := []struct {
		n, stride int
		g         combinat.Gap
	}{
		{200, 2, combinat.Gap{N: 0, M: 0}},
		{200, 2, combinat.Gap{N: 1, M: 4}},
		{500, 3, combinat.Gap{N: 9, M: 12}},
		{50, 40, combinat.Gap{N: 3, M: 30}}, // sparse: long X gaps
		{1, 1, combinat.Gap{N: 0, M: 5}},
		{300, 5, combinat.Gap{N: 100, M: 400}},
	}
	for ci, tc := range cases {
		for rep := 0; rep < 4; rep++ {
			prefix := randList(&rng, tc.n, tc.stride, 6)
			suffix := randList(&rng, tc.n, tc.stride, 6)
			want, wantSup, _ := pil.JoinInto(nil, prefix, suffix, 0, 0, tc.g)
			tab.Build(suffix) // reuses the backing array across cases
			got, sup, _ := pil.JoinCum(nil, prefix, &tab, 0, tc.g)
			if sup != wantSup || len(got) != len(want) {
				t.Fatalf("case %d rep %d: cum join sup=%d len=%d, want sup=%d len=%d",
					ci, rep, sup, len(got), wantSup, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("case %d rep %d entry %d: %v, want %v", ci, rep, i, got[i], want[i])
				}
			}
			arena.Reset()
			gotA, supA, _ := pil.JoinCum(&arena, prefix, &tab, 0, tc.g)
			if supA != wantSup || len(gotA) != len(want) {
				t.Fatalf("case %d rep %d: arena cum join sup=%d len=%d, want sup=%d len=%d",
					ci, rep, supA, len(gotA), wantSup, len(want))
			}
		}
	}
}

// TestJoinCumWindowPastList exercises the early-exit edges: windows that
// end before the suffix list starts and windows that begin past its end.
func TestJoinCumWindowPastList(t *testing.T) {
	suffix := pil.List{{X: 100, Y: 2}, {X: 101, Y: 3}}
	var tab pil.CumTable
	tab.Build(suffix)
	prefix := pil.List{{X: 0, Y: 1}, {X: 99, Y: 1}, {X: 100, Y: 1}, {X: 500, Y: 1}}
	g := combinat.Gap{N: 0, M: 1}
	got, sup, _ := pil.JoinCum(nil, prefix, &tab, 0, g)
	want, wantSup, _ := pil.JoinInto(nil, prefix, suffix, 0, 0, g)
	if sup != wantSup || len(got) != len(want) {
		t.Fatalf("cum join sup=%d len=%d, want sup=%d len=%d", sup, len(got), wantSup, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %v, want %v", i, got[i], want[i])
		}
	}
}
