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
				l = append(l, pil.Entry{X: int32(100*i + j), Y: int64(i + 1)})
			}
			a.Commit(len(l))
			lists = append(lists, l)
		}
		// Every list must still hold exactly the values written to it —
		// i.e. no Reserve handed out overlapping memory.
		for i, l := range lists {
			for j, e := range l {
				if e.X != int32(100*i+j) || e.Y != int64(i+1) {
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

// TestArenaGiveBack: giving back the last committed list frees exactly
// its space — the next Reserve starts where that list started — and every
// list committed before it keeps its values, also when the given-back
// list opened a new slab.
func TestArenaGiveBack(t *testing.T) {
	var a pil.Arena
	fill := func(n int, tag int64) pil.List {
		l := a.Reserve(n)
		for j := 0; j < n; j++ {
			l = append(l, pil.Entry{X: int32(j), Y: tag})
		}
		a.Commit(len(l))
		return l
	}
	check := func(l pil.List, tag int64) {
		t.Helper()
		for j, e := range l {
			if e.X != int32(j) || e.Y != tag {
				t.Fatalf("list %d entry %d corrupted: %+v", tag, j, e)
			}
		}
	}
	first := fill(100, 1)
	dropped := fill(50, 2)
	a.GiveBack(dropped)
	reused := a.Reserve(50)
	if &reused[:1][0] != &dropped[0] {
		t.Fatal("Reserve after GiveBack did not reuse the given-back space")
	}
	reused = append(reused, pil.Entry{X: 0, Y: 3})
	a.Commit(len(reused))
	check(first, 1)
	check(reused, 3)

	// A list that does not fit the current slab opens the next one; giving
	// it back must leave the lists of the slab before it intact.
	capBefore := a.Cap()
	spill := fill(40_000, 4)
	a.GiveBack(spill)
	again := fill(40_000, 5)
	if &again[0] != &spill[0] {
		t.Fatal("Reserve after GiveBack of a slab-opening list did not reuse its slab")
	}
	check(first, 1)
	check(reused, 3)
	check(again, 5)
	if grown := a.Cap() - capBefore; grown != 40_000 {
		t.Errorf("arena grew by %d entries for one 40000-entry list given back and reserved again", grown)
	}

	// Empty lists (a join with no output) give back nothing.
	a.GiveBack(nil)
	check(again, 5)
}

// TestArenaGiveBackRejectsOlderList: only the last committed list can be
// given back; an older one would free space a live list still uses.
func TestArenaGiveBackRejectsOlderList(t *testing.T) {
	var a pil.Arena
	older := a.Reserve(4)
	older = append(older, pil.Entry{X: 1, Y: 1})
	a.Commit(len(older))
	last := a.Reserve(4)
	last = append(last, pil.Entry{X: 2, Y: 2})
	a.Commit(len(last))
	defer func() {
		if recover() == nil {
			t.Fatal("GiveBack of an older list did not panic")
		}
	}()
	a.GiveBack(older)
}

// TestArenaLargeReserve: a reservation bigger than one slab still works
// and later small reservations do not overlap it.
func TestArenaLargeReserve(t *testing.T) {
	var a pil.Arena
	big := a.Reserve(100_000)
	if cap(big) < 100_000 {
		t.Fatalf("cap(big) = %d", cap(big))
	}
	big = append(big, pil.Entry{X: 1, Y: 1})
	a.Commit(len(big))
	small := a.Reserve(4)
	small = append(small, pil.Entry{X: 2, Y: 2})
	a.Commit(len(small))
	if big[0].Y != 1 || small[0].Y != 2 {
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
		prefix = append(prefix, pil.Entry{X: int32(2 * i), Y: 3})
		suffix = append(suffix, pil.Entry{X: int32(2*i + 1), Y: 2})
	}
	var a pil.Arena
	pil.JoinInto(&a, prefix, suffix, g) // warm the slabs
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		for i := 0; i < 8; i++ {
			list, sup := pil.JoinInto(&a, prefix, suffix, g)
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
	prefix := pil.List{{X: 0, Y: 2}, {X: 3, Y: 1}, {X: 7, Y: 5}}
	suffix := pil.List{{X: 1, Y: 1}, {X: 4, Y: 3}, {X: 8, Y: 2}, {X: 12, Y: 4}}
	for _, g := range []combinat.Gap{{N: 0, M: 0}, {N: 0, M: 3}, {N: 2, M: 6}, {N: 5, M: 20}} {
		list, sup := pil.JoinInto(nil, prefix, suffix, g)
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
// the join silently returns empty; the int arithmetic in JoinInto keeps
// the window valid.
func TestJoinTailOverflow(t *testing.T) {
	const lastX = math.MaxInt32 - 1 // X = L-1 of a maximal sequence
	prefix := pil.List{{X: lastX, Y: 1}}
	suffix := pil.List{{X: lastX + 1, Y: 7}}
	g := combinat.Gap{N: 0, M: math.MaxInt32}
	list, sup := pil.JoinInto(nil, prefix, suffix, g)
	if sup != 7 || len(list) != 1 || list[0] != (pil.Entry{X: lastX, Y: 7}) {
		t.Fatalf("JoinInto near tail with huge M = %v (sup %d), want [{%d 7}]", list, sup, lastX)
	}
	// The same shape with the suffix just outside the window must stay
	// empty: the fix must not over-widen the window either.
	gTight := combinat.Gap{N: 2, M: math.MaxInt32}
	if list, sup := pil.JoinInto(nil, prefix, suffix, gTight); sup != 0 || len(list) != 0 {
		t.Fatalf("suffix below minX joined anyway: %v (sup %d)", list, sup)
	}
}
