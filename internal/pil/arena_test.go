package pil_test

import (
	"math"
	"testing"

	"permine/internal/combinat"
	"permine/internal/pil"
)

// TestArenaReserveCommit: committed lists from one arena never alias each
// other, and Reset recycles capacity without growing it.
func TestArenaReserveCommit(t *testing.T) {
	var a pil.Arena
	var lists []pil.List
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			l := a.Reserve(10)
			if len(l) != 0 || cap(l) < 10 {
				t.Fatalf("Reserve(10): len=%d cap=%d", len(l), cap(l))
			}
			for j := 0; j < 5; j++ {
				l = append(l, pil.NewEntry(int32(100*i+j), int64(i+1)))
			}
			a.Commit(len(l))
			lists = append(lists, l)
		}
		// Every list must still hold exactly the values written to it —
		// i.e. no Reserve handed out overlapping memory.
		for i, l := range lists {
			for j, e := range l {
				if e.X != int32(100*i+j) || e.Y() != int64(i+1) {
					t.Fatalf("round %d: list %d entry %d corrupted: %+v", round, i, j, e)
				}
			}
		}
		lists = lists[:0]
		a.Reset()
	}
	capAfter := a.Cap()
	for round := 0; round < 10; round++ {
		a.Reset()
		for i := 0; i < 100; i++ {
			l := a.Reserve(10)
			a.Commit(cap(l))
		}
	}
	if a.Cap() != capAfter {
		t.Errorf("arena grew across identical rounds: %d -> %d entries", capAfter, a.Cap())
	}
}

// TestArenaLargeReserve: a reservation bigger than one slab still works
// and later small reservations do not overlap it.
func TestArenaLargeReserve(t *testing.T) {
	var a pil.Arena
	big := a.Reserve(100_000)
	if cap(big) < 100_000 {
		t.Fatalf("cap(big) = %d", cap(big))
	}
	big = append(big, pil.NewEntry(1, 1))
	a.Commit(len(big))
	small := a.Reserve(4)
	small = append(small, pil.NewEntry(2, 2))
	a.Commit(len(small))
	if big[0].Y() != 1 || small[0].Y() != 2 {
		t.Fatalf("lists overlap: big[0]=%+v small[0]=%+v", big[0], small[0])
	}
}

// TestJoinIntoArenaZeroAlloc: once the arena's slabs are warm, the
// steady-state Reset + JoinInto cycle performs zero allocations.
func TestJoinIntoArenaZeroAlloc(t *testing.T) {
	g := combinat.Gap{N: 0, M: 4}
	prefix := make(pil.List, 0, 512)
	suffix := make(pil.List, 0, 512)
	for i := 0; i < 512; i++ {
		prefix = append(prefix, pil.NewEntry(int32(2*i), 3))
		suffix = append(suffix, pil.NewEntry(int32(2*i+1), 2))
	}
	var a pil.Arena
	pil.JoinInto(&a, prefix, suffix, 0, 0, g) // warm the slabs
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		for i := 0; i < 8; i++ {
			list, sup, _ := pil.JoinInto(&a, prefix, suffix, 0, 0, g)
			if len(list) == 0 || sup == 0 {
				t.Fatal("join unexpectedly empty")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state arena JoinInto allocates %v times per cycle, want 0", allocs)
	}
}

// TestJoinIntoSupportMatches: the support returned by JoinInto equals the
// emitted list's sum for assorted windows.
func TestJoinIntoSupportMatches(t *testing.T) {
	prefix := pil.List{pil.NewEntry(0, 2), pil.NewEntry(3, 1), pil.NewEntry(7, 5)}
	suffix := pil.List{pil.NewEntry(1, 1), pil.NewEntry(4, 3), pil.NewEntry(8, 2), pil.NewEntry(12, 4)}
	for _, g := range []combinat.Gap{{N: 0, M: 0}, {N: 0, M: 3}, {N: 2, M: 6}, {N: 5, M: 20}} {
		list, sup, _ := pil.JoinInto(nil, prefix, suffix, 0, 0, g)
		if err := list.Validate(); err != nil {
			t.Fatalf("g=%v: %v", g, err)
		}
		if sup != list.Support() {
			t.Errorf("g=%v: fused support %d != %d", g, sup, list.Support())
		}
	}
}

// TestJoinTailOverflow: a prefix occurrence at the last position of a
// maximal-length sequence joined under a huge M must not wrap the window
// bound. With int32 window arithmetic, x + M + 1 overflows negative and
// the join silently returns empty; the int arithmetic in JoinInto and in
// both layouts of JoinCum keeps the window valid.
func TestJoinTailOverflow(t *testing.T) {
	const lastX = math.MaxInt32 - 1 // X = L-1 of a maximal sequence
	prefix := pil.List{pil.NewEntry(lastX, 1)}
	suffix := pil.List{pil.NewEntry(lastX+1, 7)}
	var dense, compact pil.CumTable
	dense.Build(suffix)
	compact.BuildCompact(suffix)
	kernels := []struct {
		name string
		join func(g combinat.Gap, cut int64) (pil.List, int64, int)
	}{
		{"twoptr", func(g combinat.Gap, cut int64) (pil.List, int64, int) {
			return pil.JoinInto(nil, prefix, suffix, 7, cut, g)
		}},
		{"cum", func(g combinat.Gap, cut int64) (pil.List, int64, int) {
			return pil.JoinCum(nil, prefix, &dense, cut, g)
		}},
		{"compact", func(g combinat.Gap, cut int64) (pil.List, int64, int) {
			return pil.JoinCum(nil, prefix, &compact, cut, g)
		}},
	}
	g := combinat.Gap{N: 0, M: math.MaxInt32}
	gTight := combinat.Gap{N: 2, M: math.MaxInt32}
	for _, k := range kernels {
		list, sup, _ := k.join(g, 0)
		if sup != 7 || len(list) != 1 || list[0] != pil.NewEntry(lastX, 7) {
			t.Fatalf("%s near tail with huge M = %v (sup %d), want [{%d 7}]", k.name, list, sup, lastX)
		}
		// The same shape with the suffix just outside the window must
		// stay empty: the fix must not over-widen the window either.
		if list, sup, _ := k.join(gTight, 0); sup != 0 || len(list) != 0 {
			t.Fatalf("%s: suffix below minX joined anyway: %v (sup %d)", k.name, list, sup)
		}
		// W = 2^31 here: the stop test must neither overflow nor misfire.
		if list, sup, n := k.join(g, 7); sup != 7 || n != 1 || len(list) != 1 {
			t.Fatalf("%s: cut 7 with huge W: %v (sup %d, n %d), want the full join kept", k.name, list, sup, n)
		}
		if list, sup, n := k.join(g, 8); list != nil || sup != 7 || n != 1 {
			t.Fatalf("%s: cut 8 with huge W: %v (sup %d, n %d), want a finished join below the cut", k.name, list, sup, n)
		}
	}
}

// TestJoinStopsAtBound pins the stop rule on a hand-sized join: gap
// [0,1], so W = 2 and prefix entry x reads suffix X in [x+1, x+2].
func TestJoinStopsAtBound(t *testing.T) {
	g := combinat.Gap{N: 0, M: 1}
	prefix := pil.List{pil.NewEntry(0, 1), pil.NewEntry(10, 1), pil.NewEntry(20, 1), pil.NewEntry(30, 1)}
	suffix := pil.List{pil.NewEntry(1, 3), pil.NewEntry(12, 1), pil.NewEntry(21, 1), pil.NewEntry(31, 1)}
	sufSup := suffix.Support() // 6; the full join is 3+1+1+1 = 6
	var dense, compact pil.CumTable
	dense.Build(suffix)
	compact.BuildCompact(suffix)
	cases := []struct {
		cut   int64
		n     int   // prefix entries joined; 4 = finished
		sup   int64 // support when finished
		kept  bool
		label string
	}{
		{0, 4, 6, true, "cut 0 never stops"},
		{6, 4, 6, true, "the full support meets the cut"},
		// Entry 0: rest 6, 0 + 2·6 >= 7 → join (sup 3). Entry 1: rest 3,
		// 3 + 2·3 >= 7 → join (4). Entry 2: rest 2, 4 + 2·2 >= 7 → join
		// (5). Entry 3: rest 1, 5 + 2·1 = 7 → join (6); 6 < 7 at the end.
		{7, 4, 6, false, "finishes below the cut"},
		// Entry 2: 4 + 2·2 = 8 < 9 → stop with two entries joined.
		{9, 2, 0, false, "stops at entry 2"},
		// Entry 0: 0 + 2·6 = 12 < 13 → stop before joining anything.
		{13, 0, 0, false, "stops at entry 0"},
	}
	var a pil.Arena
	for _, tc := range cases {
		for _, kernel := range []string{"twoptr", "cum", "compact"} {
			a.Reset()
			start := &a.Reserve(1)[:1][0]
			var out pil.List
			var sup int64
			var n int
			switch kernel {
			case "cum":
				out, sup, n = pil.JoinCum(&a, prefix, &dense, tc.cut, g)
			case "compact":
				out, sup, n = pil.JoinCum(&a, prefix, &compact, tc.cut, g)
			default:
				out, sup, n = pil.JoinInto(&a, prefix, suffix, sufSup, tc.cut, g)
			}
			if n != tc.n || (n == len(prefix) && sup != tc.sup) || (out != nil) != tc.kept {
				t.Errorf("%s, %s: n %d sup %d kept %v; want n %d sup %d kept %v",
					tc.label, kernel, n, sup, out != nil, tc.n, tc.sup, tc.kept)
			}
			// Only a kept output takes arena space; a dropped one leaves
			// its reservation to the next Reserve.
			if next := &a.Reserve(1)[:1][0]; (next != start) != tc.kept {
				t.Errorf("%s, %s: kept %v, but the next Reserve moved %v", tc.label, kernel, tc.kept, next != start)
			}
		}
	}
}
