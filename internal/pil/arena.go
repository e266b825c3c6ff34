package pil

import (
	"math"

	"permine/internal/pool"
)

// Arena is a slab allocator for PIL entries. JoinInto reserves its output
// from an Arena instead of the heap, so a join allocates nothing: an arena
// keeps its slabs across Reset and refills them in place, takes each
// default-size slab from a process-wide pool (a new one only when the pool
// is empty) and hands them back on Release, so the arenas of a later run —
// of the same mine's next level loop, the next job or corpus shard, the
// next facade call — reuse them instead of zeroing fresh memory.
//
// The miner owns two arenas per counting worker and recycles them
// double-buffered across levels — level i's output lists are read while
// level i+1 is being built, so the slabs of level i−1 (already dead) are
// what level i+1 reuses. A join commits its output only when its support
// reaches the level's L̂ cut, so an arena holds only the lists the next
// level joins; the space a missed join reserved goes to the next Reserve.
// An Arena is not safe for concurrent use; each goroutine must own its
// own.
//
// Entries handed out by Reserve stay valid until the Reset after next, and
// never past Release — callers must not retain lists across two Resets of
// their arena, nor read one after its arena is released. A pooled slab
// holds whatever its last user wrote, but Reserve hands out empty lists,
// so a list holds exactly the entries appended to it.
type Arena struct {
	slabs [][]Entry
	cur   int // index of the slab currently being filled
	used  int // entries of slabs[cur] already committed
	mem   *MemTracker
}

// SetTracker routes this arena's slab-growth byte charges to t (nil stops
// tracking). Only growth is charged — the steady-state Reserve/Commit
// path performs no tracker work at all — and a slab is charged in full
// when the arena takes it, whether it comes from the pool or is new, so a
// run's charges do not depend on what earlier runs left pooled.
func (a *Arena) SetTracker(t *MemTracker) { a.mem = t }

// arenaSlabEntries is the default slab size (entries). At 12 bytes per
// Entry a slab is 384 KiB: big enough that realistic levels reuse a
// handful of slabs, small enough that a worker's arena pair stays cheap.
// Only slabs of this size are pooled; a larger one, made for a single
// oversized reservation, is left to the collector.
const arenaSlabEntries = 32 << 10

// slabPool holds default-size slabs released by finished runs.
var slabPool = pool.New(func(s *[arenaSlabEntries]Entry) {
	pool.Fill(s[:], NewEntry(math.MaxInt32, -1))
})

// Reserve returns a List with length 0 and capacity at least n, carved
// from the current slab. The caller appends at most n entries and then
// calls Commit with the count actually used; the unused tail remains
// available to the next Reserve.
func (a *Arena) Reserve(n int) List {
	if a.cur < len(a.slabs) && a.used+n <= len(a.slabs[a.cur]) {
		s := a.slabs[a.cur]
		return s[a.used : a.used : a.used+n]
	}
	// Current slab (if any) cannot hold n entries: move to the next one,
	// growing or replacing it when it is missing or too small. Slabs
	// before cur hold committed lists and are never touched; the slab
	// being replaced holds only data dead since the last Reset.
	if a.cur < len(a.slabs) && a.used > 0 {
		a.cur++
	}
	size := arenaSlabEntries
	if n > size {
		size = n
	}
	if a.cur == len(a.slabs) {
		a.mem.Charge(int64(size) * EntryBytes)
		a.slabs = append(a.slabs, newSlab(size))
	} else if len(a.slabs[a.cur]) < n {
		// Replacement: the undersized slab is released, so only the delta
		// stays charged.
		a.mem.Charge(int64(size-len(a.slabs[a.cur])) * EntryBytes)
		a.slabs[a.cur] = make([]Entry, size)
	}
	a.used = 0
	s := a.slabs[a.cur]
	return s[0:0:n]
}

// newSlab returns a slab of size entries: a pooled one at the default
// size, else a new one.
func newSlab(size int) []Entry {
	if size == arenaSlabEntries {
		return slabPool.Get()[:]
	}
	return make([]Entry, size)
}

// Commit marks n entries of the last Reserve as used. n may be smaller
// than the reserved capacity (joins emit at most one entry per prefix
// entry, usually fewer); the remainder is reused by the next Reserve.
func (a *Arena) Commit(n int) {
	a.used += n
}

// Reset recycles every slab for reuse without releasing memory. Lists
// reserved since the previous Reset remain valid until the next one.
func (a *Arena) Reset() {
	a.cur = 0
	a.used = 0
}

// Release empties the arena: its default-size slabs go back to the pool
// for later runs, and the rest to the collector. Nothing is credited to
// the tracker — a run's charges are its high-water mark, and the caller
// credits a finished run's tracker as a whole. The caller must be done
// with every list reserved from the arena, and so must every goroutine
// that read one. The arena may be used again; it then charges the slabs it
// takes as new.
func (a *Arena) Release() {
	for i, s := range a.slabs {
		if len(s) == arenaSlabEntries {
			slabPool.Put((*[arenaSlabEntries]Entry)(s))
		}
		a.slabs[i] = nil
	}
	a.slabs = a.slabs[:0]
	a.cur, a.used = 0, 0
}

// Cap returns the total entry capacity currently held by the arena's
// slabs (a measure of retained memory, used by tests).
func (a *Arena) Cap() int {
	n := 0
	for _, s := range a.slabs {
		n += len(s)
	}
	return n
}
