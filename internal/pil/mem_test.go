package pil_test

import (
	"testing"

	"permine/internal/pil"
)

// TestMemTrackerArenaCharges: arena slab growth is charged at slab
// granularity (Cap() × EntryBytes stays in lockstep with Used), resets
// and steady-state reuse charge nothing, and slab replacement charges
// only the growth delta.
func TestMemTrackerArenaCharges(t *testing.T) {
	tr := pil.NewMemTracker(nil)
	var a pil.Arena
	a.SetTracker(tr)

	l := a.Reserve(10)
	a.Commit(cap(l))
	if want := int64(a.Cap()) * pil.EntryBytes; tr.Used() != want {
		t.Fatalf("after first slab: Used = %d, want Cap×EntryBytes = %d", tr.Used(), want)
	}

	// A huge reservation forces an oversized slab; the charge must track
	// the full capacity growth.
	big := a.Cap() * 4
	a.Reserve(big)
	a.Commit(big)
	if want := int64(a.Cap()) * pil.EntryBytes; tr.Used() != want {
		t.Fatalf("after oversized slab: Used = %d, want %d", tr.Used(), want)
	}

	// Steady state: Reset and refill within retained capacity is free.
	before := tr.Used()
	for i := 0; i < 8; i++ {
		a.Reset()
		l := a.Reserve(10)
		a.Commit(cap(l))
	}
	if tr.Used() != before {
		t.Fatalf("steady-state reuse charged %d extra bytes", tr.Used()-before)
	}
	if tr.High() != before {
		t.Fatalf("High = %d, want %d", tr.High(), before)
	}
}

// TestMemTrackerTables: CumTable charges its retained buffers on growth
// only, in either layout, and rebuilds within capacity are free. The
// compact layout is 16 bytes per 64 span positions plus 8 per entry and
// one more for the prefix sums' leading zero.
func TestMemTrackerTables(t *testing.T) {
	list := pil.List{{X: 0, Y: 1}, {X: 999, Y: 3}}

	tr := pil.NewMemTracker(nil)
	var ct pil.CumTable
	ct.SetTracker(tr)
	ct.Build(list)
	dense := int64(8 * 1000)
	if tr.Used() != dense {
		t.Fatalf("CumTable charge = %d, want %d", tr.Used(), dense)
	}
	ct.Build(list)
	if tr.Used() != dense {
		t.Fatalf("CumTable rebuild recharged: Used = %d, want %d", tr.Used(), dense)
	}

	compact := int64(16*16 + 8*3) // 1000 positions are 16 words; 2 entries
	ct.BuildCompact(list)
	if want := dense + compact; tr.Used() != want {
		t.Fatalf("compact build charge: Used = %d, want %d", tr.Used(), want)
	}
	ct.BuildCompact(list)
	ct.BuildCompact(pil.List{{X: 5, Y: 2}})
	ct.Build(list)
	if want := dense + compact; tr.Used() != want {
		t.Fatalf("rebuilds within capacity recharged: Used = %d, want %d", tr.Used(), want)
	}
	// Growth charges only the increment: 1025 positions are 17 words.
	ct.BuildCompact(pil.List{{X: 0, Y: 1}, {X: 500, Y: 1}, {X: 1024, Y: 1}})
	if want := dense + compact + 16 + 8; tr.Used() != want {
		t.Fatalf("compact growth charge: Used = %d, want %d", tr.Used(), want)
	}
	if tr.High() != tr.Used() {
		t.Fatalf("High = %d, want %d", tr.High(), tr.Used())
	}
}

// TestMemTrackerChaining: charges propagate to parents, credits restore
// both levels, and the high-water mark survives the credit.
func TestMemTrackerChaining(t *testing.T) {
	root := pil.NewMemTracker(nil)
	child := pil.NewMemTracker(root)
	child.Charge(100)
	child.Charge(-40)
	if child.Used() != 60 || root.Used() != 60 {
		t.Fatalf("Used = child %d / root %d, want 60 / 60", child.Used(), root.Used())
	}
	if child.High() != 100 || root.High() != 100 {
		t.Fatalf("High = child %d / root %d, want 100 / 100", child.High(), root.High())
	}

	// Nil trackers are inert everywhere.
	var nilTracker *pil.MemTracker
	nilTracker.Charge(1 << 30)
	if nilTracker.Used() != 0 || nilTracker.High() != 0 {
		t.Fatal("nil tracker reported non-zero usage")
	}
	var a pil.Arena
	a.SetTracker(nil)
	a.Reserve(10) // must not panic
}

// TestMemTrackerSteadyStateAllocs: the no-growth charge path allocates
// nothing, preserving the kernel's 0 allocs/op join loop.
func TestMemTrackerSteadyStateAllocs(t *testing.T) {
	tr := pil.NewMemTracker(nil)
	var a pil.Arena
	a.SetTracker(tr)
	a.Reserve(64)
	a.Commit(64)
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		l := a.Reserve(64)
		a.Commit(cap(l))
		tr.Used()
	})
	if allocs != 0 {
		t.Fatalf("steady-state tracked arena: %v allocs/op, want 0", allocs)
	}
}
