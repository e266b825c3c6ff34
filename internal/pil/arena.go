package pil

// Arena is a slab allocator for PIL entries. JoinInto reserves its output
// from an Arena instead of the heap, so the steady-state cost of a join is
// zero allocations: slabs are retained across Reset and refilled in place.
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
// Entries handed out by Reserve stay valid until the Reset after next —
// callers must not retain lists across two Resets of their arena.
type Arena struct {
	slabs [][]Entry
	cur   int // index of the slab currently being filled
	used  int // entries of slabs[cur] already committed
	mem   *MemTracker
}

// SetTracker routes this arena's slab-growth byte charges to t (nil stops
// tracking). Only growth is charged — the steady-state Reserve/Commit
// path performs no tracker work at all.
func (a *Arena) SetTracker(t *MemTracker) { a.mem = t }

// arenaSlabEntries is the default slab size (entries). At 16 bytes per
// Entry a slab is 512 KiB: big enough that realistic levels reuse a
// handful of slabs, small enough that a worker's arena pair stays cheap.
const arenaSlabEntries = 32 << 10

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
		a.slabs = append(a.slabs, make([]Entry, size))
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

// Cap returns the total entry capacity currently held by the arena's
// slabs (a measure of retained memory, used by tests).
func (a *Arena) Cap() int {
	n := 0
	for _, s := range a.slabs {
		n += len(s)
	}
	return n
}
