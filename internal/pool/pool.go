// Package pool keeps a mine's working set — arena slabs, the level loop's
// scratch, the e_m sweep's tables — for the next mine in the same process,
// so back-to-back mines (facade calls, daemon jobs, corpus shards,
// Adaptive's rounds) do not pay again for zeroing fresh memory and for
// the collections it triggers.
//
// A Pool is a free list that the garbage collector empties: a value
// handed back and not taken again before two collections have finished is
// dropped, and the collection after frees it. Idle pooled memory thus
// lives about as long as the garbage a run without pools would leave
// behind; nothing else trims it and no setting sizes it. A value that is
// taken again keeps only about what its last run needed: its user cuts
// every buffer in it with Fit when handing it back, or when taking it if
// the run knows its needs up front, so the buffers a large run grew are
// not kept alive by smaller runs reusing the value. Unlike a
// sync.Pool, whose per-processor slots hide a value from a goroutine that
// has moved to another processor, every Get sees every pooled value.
// Pooled memory is never charged to a pil.MemTracker: each run charges
// the buffers it takes exactly as it would charge fresh ones.
//
// Two rules keep reuse invisible. A value goes back only after the last
// goroutine of the run that used it has stopped, and a value taken from a
// pool has arbitrary contents: its user writes every part it reads.
// SetMode lets tests check the second rule and measure a cold process.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A Pool holds values of type T for reuse. Its zero value is not usable;
// make one with New. It is safe for concurrent use.
type Pool[T any] struct {
	mu     sync.Mutex
	free   []idle[T] // in the order handed back
	poison func(*T)
}

// idle is a pooled value and the collections counted when it was handed
// back.
type idle[T any] struct {
	v  *T
	gc uint32
}

// New returns an empty pool. poison fills a value with junk; it runs on
// every value handed back while the mode is Poison.
func New[T any](poison func(*T)) *Pool[T] {
	p := &Pool[T]{poison: poison}
	pools.Lock()
	pools.all = append(pools.all, p)
	pools.Unlock()
	return p
}

// Get returns the value handed back last, or a new zero one when the pool
// is empty or the mode is Cold. A pooled value's contents are whatever
// its last user (or poison) left in it.
func (p *Pool[T]) Get() *T {
	if Mode(mode.Load()) != Cold {
		p.mu.Lock()
		if n := len(p.free) - 1; n >= 0 {
			v := p.free[n].v
			p.free[n].v = nil
			p.free = p.free[:n]
			p.mu.Unlock()
			return v
		}
		p.mu.Unlock()
	}
	return new(T)
}

// Put hands x back for reuse. x must not be used afterwards.
func (p *Pool[T]) Put(x *T) {
	switch Mode(mode.Load()) {
	case Cold:
		return
	case Poison:
		p.poison(x)
	}
	p.mu.Lock()
	p.free = append(p.free, idle[T]{v: x, gc: collections.Load()})
	p.mu.Unlock()
}

// expire drops the values that have stayed pooled through two counted
// collections, now being the count after the latest.
func (p *Pool[T]) expire(now uint32) {
	p.mu.Lock()
	kept := p.free[:0]
	for _, e := range p.free {
		if now-e.gc < 2 {
			kept = append(kept, e)
		}
	}
	clear(p.free[len(kept):])
	p.free = kept
	p.mu.Unlock()
}

var (
	// collections counts the garbage collections gcSentinel has seen,
	// each once every pool has expired its values for it.
	collections atomic.Uint32

	// pools is every pool made, for the sentinel to expire.
	pools struct {
		sync.Mutex
		all []interface{ expire(uint32) }
	}
)

func init() { watchGC() }

// gcSentinel is garbage from the moment it is made, so the next
// collection finds it unreachable and queues its finalizer. The pointer
// field keeps it out of the tiny-object allocator, whose blocks can keep
// a dead object reachable.
type gcSentinel struct{ _ *byte }

// watchGC makes a sentinel whose finalizer counts the collection that
// found it, expires every pool's old values and makes the next sentinel.
// A sentinel made while a collection is marking survives that collection,
// so the count can lag the collector's, which only keeps values longer.
func watchGC() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		now := collections.Load() + 1
		pools.Lock()
		for _, p := range pools.all {
			p.expire(now)
		}
		pools.Unlock()
		// The next sentinel exists before the count moves, so a waiter
		// that sees the new count and collects again has it counted.
		watchGC()
		collections.Store(now)
	})
}

// Mode is how every pool treats the values handed back to it.
type Mode int32

const (
	// Warm pools every value handed back: the default.
	Warm Mode = iota
	// Poison fills every value handed back with junk before pooling it,
	// so a reader of stale pooled data gets wrong answers a test can see.
	Poison
	// Cold drops every value handed back and never hands one out, so
	// every run allocates its working set as the first run of a process
	// does.
	Cold
)

var mode atomic.Int32

// Fill sets every element of s, up to its capacity, to v: the poison
// functions' helper.
func Fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// Fit returns s, or nil when its capacity is more than four times need,
// the most of it the run handing it back needed: a buffer in a pooled
// value keeps within a small factor of its last run's need, whatever
// earlier runs grew it to.
func Fit[T any](s []T, need int) []T {
	if cap(s) > 4*need {
		return nil
	}
	return s
}

// SetMode switches every pool to m and returns the previous mode. It is a
// test hook: no option, flag or setting of the miners reaches it. Values
// pooled before a switch to Poison stay as they were.
func SetMode(m Mode) Mode {
	return Mode(mode.Swap(int32(m)))
}
