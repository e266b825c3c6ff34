package pil

import (
	"sync/atomic"
	"unsafe"
)

// EntryBytes is the in-memory size of one PIL Entry, the unit arena slab
// charges are computed in.
const EntryBytes = int64(unsafe.Sizeof(Entry{}))

// MemTracker accumulates the bytes retained by PIL structures — arena
// slabs and cumulative tables. Charges land on slab/buffer
// growth, never per entry, so the join hot path stays allocation- and
// contention-free: a run that reuses its slabs in steady state performs
// zero charges.
//
// Trackers chain: a charge propagates to every parent, so a per-job
// tracker parented on a process-global one gives the server a live
// high-water mark across all workers for free. All methods are safe for
// concurrent use and safe on a nil receiver (nil tracks nothing and
// reports zero), so call sites need no guards.
type MemTracker struct {
	parent *MemTracker
	used   atomic.Int64
	high   atomic.Int64
}

// NewMemTracker returns a tracker whose charges also propagate to parent
// (which may be nil for a root tracker).
func NewMemTracker(parent *MemTracker) *MemTracker {
	return &MemTracker{parent: parent}
}

// Charge adds n bytes (n may be negative to credit released memory) to
// this tracker and every ancestor, updating each high-water mark.
func (t *MemTracker) Charge(n int64) {
	if n == 0 {
		return
	}
	for ; t != nil; t = t.parent {
		u := t.used.Add(n)
		if n > 0 {
			for {
				h := t.high.Load()
				if u <= h || t.high.CompareAndSwap(h, u) {
					break
				}
			}
		}
	}
}

// Used returns the bytes currently charged.
func (t *MemTracker) Used() int64 {
	if t == nil {
		return 0
	}
	return t.used.Load()
}

// High returns the high-water mark of Used over the tracker's lifetime.
func (t *MemTracker) High() int64 {
	if t == nil {
		return 0
	}
	return t.high.Load()
}
