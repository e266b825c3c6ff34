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
		out = append(out, pil.NewEntry(x, 1+int64(next()%uint64(maxY))))
	}
	return out
}

// TestJoinCumMatchesJoinInto cross-checks the cumulative-table join, on
// both layouts, against the two-pointer join over dense and sparse lists
// and a range of gaps, heap- and arena-backed.
func TestJoinCumMatchesJoinInto(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	var arena pil.Arena
	var tab pil.CumTable
	layouts := []struct {
		name  string
		build func(pil.List)
	}{{"dense", tab.Build}, {"compact", tab.BuildCompact}}
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
		{100, 300, combinat.Gap{N: 10, M: 700}}, // windows span several words
	}
	for ci, tc := range cases {
		for rep := 0; rep < 4; rep++ {
			prefix := randList(&rng, tc.n, tc.stride, 6)
			suffix := randList(&rng, tc.n, tc.stride, 6)
			want, wantSup, _ := pil.JoinInto(nil, prefix, suffix, 0, 0, tc.g)
			for _, layout := range layouts {
				layout.build(suffix) // reuses the backing arrays across cases
				got, sup, _ := pil.JoinCum(nil, prefix, &tab, 0, tc.g)
				if sup != wantSup || len(got) != len(want) {
					t.Fatalf("case %d rep %d, %s: cum join sup=%d len=%d, want sup=%d len=%d",
						ci, rep, layout.name, sup, len(got), wantSup, len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("case %d rep %d, %s entry %d: %v, want %v", ci, rep, layout.name, i, got[i], want[i])
					}
				}
				arena.Reset()
				gotA, supA, _ := pil.JoinCum(&arena, prefix, &tab, 0, tc.g)
				if supA != wantSup || len(gotA) != len(want) {
					t.Fatalf("case %d rep %d, %s: arena cum join sup=%d len=%d, want sup=%d len=%d",
						ci, rep, layout.name, supA, len(gotA), wantSup, len(want))
				}
			}
		}
	}
}

// TestJoinCompactRankEdges pins the compact layout's rank at its word
// and list edges, each case against the two-pointer join: entries at bit
// 63 and bit 0 of a word, a span that is an exact multiple of 64 (its
// last entry is bit 63 of the last word), a one-entry list, windows
// wholly before or after the list, and windows that start or end exactly
// on its first or last entry. Each runs uncut and at cuts around its
// support, so the stop reads the clamped ranks too.
func TestJoinCompactRankEdges(t *testing.T) {
	var tab pil.CumTable
	var prefixAll pil.List
	for x := int32(0); x < 300; x++ {
		prefixAll = append(prefixAll, pil.NewEntry(x, 1+int64(x%3)))
	}
	cases := []struct {
		name   string
		suffix pil.List
		g      combinat.Gap
	}{
		{"bit 63 and bit 0", pil.List{pil.NewEntry(100, 2), pil.NewEntry(163, 3), pil.NewEntry(164, 5), pil.NewEntry(227, 7), pil.NewEntry(228, 1)}, combinat.Gap{N: 0, M: 0}},
		{"bit 63, wide window", pil.List{pil.NewEntry(100, 2), pil.NewEntry(163, 3), pil.NewEntry(164, 5), pil.NewEntry(227, 7), pil.NewEntry(228, 1)}, combinat.Gap{N: 2, M: 70}},
		{"span a multiple of 64", pil.List{pil.NewEntry(64, 4), pil.NewEntry(100, 1), pil.NewEntry(127, 6), pil.NewEntry(191, 2)}, combinat.Gap{N: 0, M: 1}},
		{"span of exactly 64", pil.List{pil.NewEntry(10, 4), pil.NewEntry(73, 6)}, combinat.Gap{N: 1, M: 3}},
		{"one entry", pil.List{pil.NewEntry(150, 9)}, combinat.Gap{N: 3, M: 5}},
		{"one entry at 0", pil.List{pil.NewEntry(0, 9)}, combinat.Gap{N: 0, M: 2}},
		{"windows before and after", pil.List{pil.NewEntry(280, 1), pil.NewEntry(290, 2)}, combinat.Gap{N: 0, M: 4}},
		{"windows past the list", pil.List{pil.NewEntry(5, 3), pil.NewEntry(6, 1)}, combinat.Gap{N: 20, M: 40}},
	}
	for _, tc := range cases {
		for _, prefix := range []pil.List{prefixAll, prefixAll[140:160], prefixAll[:1], prefixAll[299:]} {
			want, wantSup, _ := pil.JoinInto(nil, prefix, tc.suffix, 0, 0, tc.g)
			tab.BuildCompact(tc.suffix)
			for _, cut := range []int64{0, 1, wantSup, wantSup + 1, 2*wantSup + 3} {
				tWant, tSup, tN := pil.JoinInto(nil, prefix, tc.suffix, tc.suffix.Support(), cut, tc.g)
				got, sup, n := pil.JoinCum(nil, prefix, &tab, cut, tc.g)
				if n != tN || sup != tSup || (got != nil) != (tWant != nil) {
					t.Fatalf("%s, %d prefix entries, cut %d: compact n %d sup %d kept %v; twoptr n %d sup %d kept %v",
						tc.name, len(prefix), cut, n, sup, got != nil, tN, tSup, tWant != nil)
				}
				if cut == 0 {
					if sup != wantSup || len(got) != len(want) {
						t.Fatalf("%s, %d prefix entries: compact %v (sup %d), twoptr %v (sup %d)",
							tc.name, len(prefix), got, sup, want, wantSup)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s entry %d: %v, want %v", tc.name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestJoinCumWindowPastList exercises the early-exit edges: windows that
// end before the suffix list starts and windows that begin past its end.
func TestJoinCumWindowPastList(t *testing.T) {
	suffix := pil.List{pil.NewEntry(100, 2), pil.NewEntry(101, 3)}
	var tab pil.CumTable
	tab.Build(suffix)
	prefix := pil.List{pil.NewEntry(0, 1), pil.NewEntry(99, 1), pil.NewEntry(100, 1), pil.NewEntry(500, 1)}
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
