package pool

import (
	"runtime"
	"testing"
	"time"
)

// TestModes: Poison fills a value handed back before pooling it, Cold
// neither pools a value handed back nor hands a pooled one out, and Fill
// writes up to a slice's capacity.
func TestModes(t *testing.T) {
	p := New(func(s *[]int) { Fill(*s, -1) })
	defer SetMode(SetMode(Poison))
	v := &[]int{1, 2, 3}
	*v = (*v)[:1]
	p.Put(v)
	if got := (*v)[:3]; got[0] != -1 || got[1] != -1 || got[2] != -1 {
		t.Fatalf("Poison: value handed back holds %v, want junk to its capacity", got)
	}

	if prev := SetMode(Cold); prev != Poison {
		t.Fatalf("SetMode returned %v, want the previous mode %v", prev, Poison)
	}
	w := &[]int{7}
	p.Put(w)
	for i := 0; i < 4; i++ {
		if got := p.Get(); got == v || got == w || *got != nil {
			t.Fatalf("Cold: Get returned a pooled value %v", *got)
		}
	}
	if (*w)[0] != 7 {
		t.Fatal("Cold: a value handed back was poisoned")
	}
}

// TestIdleValuesExpire: Get hands out the value handed back last, on any
// goroutine; a value stays pooled through one collection, so a run after
// a collection reuses it, and the pool drops it once it has stayed idle
// through two.
func TestIdleValuesExpire(t *testing.T) {
	p := New(func(*int) {})
	a, b := new(int), new(int)
	p.Put(a)
	p.Put(b)
	done := make(chan *int)
	go func() { done <- p.Get() }()
	if got := <-done; got != b {
		t.Fatal("Get on another goroutine did not return the value handed back last")
	}
	if got := p.Get(); got != a {
		t.Fatal("Get did not return the remaining pooled value")
	}

	// A collection the runtime starts on its own can land in between, so
	// retry until exactly one was counted.
	for attempt := 0; ; attempt++ {
		before := collections.Load()
		p.Put(a)
		collect(t)
		got := p.Get()
		if collections.Load()-before == 1 {
			if got != a {
				t.Fatal("a value handed back did not survive one collection")
			}
			break
		}
		if attempt == 10 {
			t.Fatal("never saw exactly one collection between Put and Get")
		}
	}
	p.Put(a)
	collect(t)
	collect(t)
	if got := p.Get(); got == a {
		t.Fatal("a value idle through two collections is still pooled")
	}
}

// collect runs a garbage collection and waits until the pools have
// counted it.
func collect(t *testing.T) {
	t.Helper()
	n := collections.Load()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); collections.Load() == n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no collection counted within 10 s")
		}
	}
}

// TestFit: a buffer is kept while its capacity is within four times of
// its need, and dropped past that.
func TestFit(t *testing.T) {
	s := make([]int, 3, 8)
	if got := Fit(s, 2); cap(got) != 8 {
		t.Fatalf("Fit dropped a buffer of capacity 8 needed up to 2")
	}
	if got := Fit(s, 1); got != nil {
		t.Fatalf("Fit kept a buffer of capacity 8 needed up to 1")
	}
}
